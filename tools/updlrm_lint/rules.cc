#include "updlrm_lint/rules.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>

namespace updlrm::lint {

namespace {

// ---------------------------------------------------------------- paths

/// Top-level tree a file belongs to, from its repo-relative path.
enum class Tree { kSrc, kBench, kTools, kTests, kExamples, kOther };

Tree ClassifyTree(std::string_view path) {
  // Accept both "src/..." and ".../src/..." spellings.
  auto under = [&](std::string_view dir) {
    const std::string prefix = std::string(dir) + "/";
    if (path.substr(0, prefix.size()) == prefix) return true;
    return path.find("/" + prefix) != std::string_view::npos;
  };
  if (under("src")) return Tree::kSrc;
  if (under("bench")) return Tree::kBench;
  if (under("tools")) return Tree::kTools;
  if (under("tests")) return Tree::kTests;
  if (under("examples")) return Tree::kExamples;
  return Tree::kOther;
}

/// Module of a src/ file ("common", "pim", ...); "" for non-src files.
std::string SrcModule(std::string_view path) {
  const std::size_t src = path.rfind("src/");
  if (src == std::string_view::npos) return "";
  const std::size_t begin = src + 4;
  const std::size_t slash = path.find('/', begin);
  if (slash == std::string_view::npos) return "";
  return std::string(path.substr(begin, slash - begin));
}

// ------------------------------------------------------- layering (R4)

/// Direct allowed dependencies between src/ modules. R4 checks against
/// the transitive closure, so adding a layer means one edit here. The
/// intended architecture (DESIGN.md §11): common is the base;
/// telemetry/trace/host sit just above it; the PIM model and the
/// table/cache layers build on those; partitioners and baselines
/// combine them; check audits the model layers; the engine (updlrm)
/// composes everything below it; serve drives the engine; pipeline
/// drives serve.
const std::map<std::string, std::set<std::string>>& DirectDeps() {
  static const std::map<std::string, std::set<std::string>> deps = {
      {"common", {}},
      {"telemetry", {"common"}},
      {"trace", {"common"}},
      {"host", {"common"}},
      {"cache", {"common", "telemetry", "trace"}},
      {"dlrm", {"common", "trace"}},
      {"pim", {"common", "telemetry"}},
      {"partition", {"common", "trace", "cache", "dlrm", "pim"}},
      {"baselines", {"common", "trace", "dlrm", "host"}},
      {"check", {"common", "telemetry", "pim", "partition"}},
      {"updlrm",
       {"common", "telemetry", "trace", "host", "cache", "dlrm", "pim",
        "partition", "baselines", "check"}},
      {"serve", {"common", "telemetry", "trace", "updlrm"}},
      {"pipeline",
       {"common", "telemetry", "dlrm", "host", "check", "updlrm",
        "serve"}},
  };
  return deps;
}

const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> closure = [] {
    std::map<std::string, std::set<std::string>> out = DirectDeps();
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [mod, deps] : out) {
        std::set<std::string> grown = deps;
        for (const auto& d : deps) {
          const auto it = out.find(d);
          if (it == out.end()) continue;
          grown.insert(it->second.begin(), it->second.end());
        }
        if (grown.size() != deps.size()) {
          deps = std::move(grown);
          changed = true;
        }
      }
    }
    return out;
  }();
  return closure;
}

// -------------------------------------------------------- suppressions

struct Directives {
  // rule -> lines on which it is suppressed (the ALLOW line and the
  // one after it, so the comment can sit above the flagged statement).
  std::set<std::pair<std::size_t, int>> allowed;
  // Inclusive [begin, end] line ranges of NOALLOC regions.
  std::vector<std::pair<int, int>> noalloc;

  bool Allowed(RuleId rule, int line) const {
    const auto r = static_cast<std::size_t>(rule);
    return allowed.count({r, line}) > 0 || allowed.count({r, line - 1}) > 0;
  }
};

/// True when `text` contains `name` as a standalone directive — i.e.
/// followed by end-of-comment, whitespace, or ':'. Prose like
/// "UPDLRM_NOALLOC_BEGIN/END" (this file's own docs) does not count.
bool HasDirective(std::string_view text, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string_view::npos) {
    const std::size_t end = pos + name.size();
    if (end == text.size() || text[end] == ' ' || text[end] == '\t' ||
        text[end] == ':') {
      return true;
    }
    pos = end;
  }
  return false;
}

Directives ScanDirectives(const std::string& path, const LexedFile& lexed,
                          std::vector<Finding>& findings) {
  Directives d;
  int open_line = -1;
  for (const Comment& c : lexed.comments) {
    const std::string_view text = c.text;
    if (HasDirective(text, "UPDLRM_NOALLOC_BEGIN")) {
      if (open_line >= 0) {
        findings.push_back({RuleId::kNoallocRegion, path, c.line,
                            "nested UPDLRM_NOALLOC_BEGIN (previous region "
                            "opened on line " +
                                std::to_string(open_line) + ")"});
      }
      open_line = c.line;
      continue;
    }
    if (HasDirective(text, "UPDLRM_NOALLOC_END")) {
      if (open_line < 0) {
        findings.push_back({RuleId::kNoallocRegion, path, c.line,
                            "UPDLRM_NOALLOC_END without a matching BEGIN"});
      } else {
        d.noalloc.emplace_back(open_line, c.line);
        open_line = -1;
      }
      continue;
    }
    std::size_t pos = 0;
    while ((pos = text.find("UPDLRM_LINT_ALLOW(", pos)) !=
           std::string_view::npos) {
      const std::size_t p0 = pos + 18;
      const std::size_t p1 = text.find(')', p0);
      if (p1 == std::string_view::npos) break;
      const std::string_view arg = text.substr(p0, p1 - p0);
      // Prose mentions like "UPDLRM_LINT_ALLOW(<rule-name>)" carry
      // non-name characters in the argument; only well-formed names
      // are directives (and a well-formed unknown name is a typo).
      const bool name_like =
          !arg.empty() &&
          std::all_of(arg.begin(), arg.end(), [](char ch) {
            return std::isalnum(static_cast<unsigned char>(ch)) ||
                   ch == '-' || ch == '_';
          });
      if (!name_like) {
        pos = p1;
        continue;
      }
      const RuleId rule = RuleFromName(arg);
      if (rule == RuleId::kNumRules) {
        findings.push_back({RuleId::kNumRules, path, c.line,
                            "UPDLRM_LINT_ALLOW names an unknown rule: '" +
                                std::string(arg) + "'"});
      } else {
        d.allowed.insert({static_cast<std::size_t>(rule), c.line});
      }
      pos = p1;
    }
  }
  if (open_line >= 0) {
    findings.push_back({RuleId::kNoallocRegion, path, open_line,
                        "UPDLRM_NOALLOC_BEGIN never closed"});
  }
  return d;
}

// ------------------------------------------------------- token helpers

using Tokens = std::vector<Token>;

bool Is(const Tokens& t, std::size_t i, std::string_view text) {
  return i < t.size() && t[i].text == text;
}

/// Index of the matching closer for the opener at `i` (handles nesting
/// of the same pair); t.size() when unbalanced.
std::size_t MatchForward(const Tokens& t, std::size_t i,
                         std::string_view open, std::string_view close) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].text == open) ++depth;
    if (t[j].text == close && --depth == 0) return j;
  }
  return t.size();
}

/// Collects names declared with an unordered container type or a
/// floating-point type (per `types`): scans for a type token followed
/// (template args skipped) by the declared identifier.
std::set<std::string, std::less<>> CollectDeclaredNames(
    const Tokens& t, const std::set<std::string_view>& types) {
  std::set<std::string, std::less<>> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier || !types.count(t[i].text)) {
      continue;
    }
    std::size_t j = i + 1;
    // Skip one balanced template-argument list.
    if (Is(t, j, "<")) {
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    // Skip declarator decorations.
    while (j < t.size() &&
           (t[j].text == "*" || t[j].text == "&" || t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokenKind::kIdentifier) {
      names.insert(std::string(t[j].text));
    }
  }
  return names;
}

// ---------------------------------------------------------------- R1

void CheckUnorderedIteration(const std::string& path, const Tokens& t,
                             const Directives& d,
                             std::vector<Finding>& findings) {
  static const std::set<std::string_view> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const auto names = CollectDeclaredNames(t, kUnordered);
  if (names.empty()) return;

  auto flag = [&](int line, const std::string& name, const char* how) {
    if (d.Allowed(RuleId::kUnorderedIteration, line)) return;
    findings.push_back(
        {RuleId::kUnorderedIteration, path, line,
         "iteration over unordered container '" + name + "' (" + how +
             "): hash order is not deterministic across platforms; use a "
             "sorted snapshot or an ordered container on merge paths"});
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for: for ( ... : name )
    if (t[i].text == "for" && Is(t, i + 1, "(")) {
      const std::size_t close = MatchForward(t, i + 1, "(", ")");
      for (std::size_t j = i + 2; j < close; ++j) {
        if (t[j].text != ":" || (j > 0 && t[j - 1].text == ":") ||
            Is(t, j + 1, ":")) {
          continue;  // skip `::`
        }
        for (std::size_t k = j + 1; k < close; ++k) {
          if (t[k].kind == TokenKind::kIdentifier &&
              names.count(t[k].text) > 0) {
            flag(t[k].line, std::string(t[k].text), "range-for");
          }
        }
        break;
      }
    }
    // Iterator walk: name.begin( / name.cbegin(
    if (t[i].kind == TokenKind::kIdentifier && names.count(t[i].text) > 0 &&
        Is(t, i + 1, ".") &&
        (Is(t, i + 2, "begin") || Is(t, i + 2, "cbegin") ||
         Is(t, i + 2, "rbegin")) &&
        Is(t, i + 3, "(")) {
      flag(t[i].line, std::string(t[i].text), "iterator walk");
    }
  }
}

// ---------------------------------------------------------------- R2

void CheckNoallocRegions(const std::string& path, const Tokens& t,
                         const Directives& d,
                         std::vector<Finding>& findings) {
  if (d.noalloc.empty()) return;
  auto in_region = [&](int line) {
    for (const auto& [b, e] : d.noalloc) {
      if (line >= b && line <= e) return true;
    }
    return false;
  };
  auto flag = [&](int line, const std::string& what) {
    if (d.Allowed(RuleId::kNoallocRegion, line)) return;
    findings.push_back(
        {RuleId::kNoallocRegion, path, line,
         what + " inside a UPDLRM_NOALLOC region: steady-state paths "
                "must reuse warm capacity (arena / member scratch)"});
  };
  static const std::set<std::string_view> kAllocCalls = {
      "malloc",      "calloc",      "realloc", "aligned_alloc",
      "strdup",      "make_unique", "make_shared", "to_string"};
  static const std::set<std::string_view> kContainers = {
      "vector", "deque", "map", "set", "unordered_map", "unordered_set",
      "list",   "function"};

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!in_region(t[i].line)) continue;
    const std::string_view x = t[i].text;
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if (x == "new") {
      // `new (addr) T` is placement (the slab idiom) — allowed.
      if (!Is(t, i + 1, "(")) {
        flag(t[i].line, "`new` expression");
      }
      continue;
    }
    if (kAllocCalls.count(x) > 0 && Is(t, i + 1, "(")) {
      flag(t[i].line, "call to " + std::string(x));
      continue;
    }
    // Fresh container / string / function declarations: `std ::
    // vector <` or `std :: string ident`.
    if (x == "std" && Is(t, i + 1, "::") && i + 2 < t.size()) {
      const std::string_view c = t[i + 2].text;
      if (kContainers.count(c) > 0 && Is(t, i + 3, "<")) {
        flag(t[i].line,
             "declaration/construction of std::" + std::string(c));
      } else if (c == "string" && i + 3 < t.size() &&
                 t[i + 3].kind == TokenKind::kIdentifier) {
        flag(t[i].line, "declaration of std::string");
      }
    }
  }
}

// ---------------------------------------------------------------- R3

void CheckClockSources(const std::string& path, const Tokens& t,
                       const Directives& d,
                       std::vector<Finding>& findings) {
  // The two sanctioned homes of entropy and wall-clock time. Only the
  // tracer itself may touch the wall clock — the rest of telemetry/
  // (monitor, health, registry, exporters) runs on simulated time and
  // is checked like any other module.
  if (path.find("common/rng.") != std::string::npos ||
      path.find("src/telemetry/tracer.") != std::string::npos) {
    return;
  }
  static const std::set<std::string_view> kBanned = {
      "random_device", "system_clock",   "high_resolution_clock",
      "mt19937",       "mt19937_64",     "minstd_rand",
      "default_random_engine", "rand_r", "drand48",
      "gettimeofday"};
  auto flag = [&](int line, const std::string& what) {
    if (d.Allowed(RuleId::kClockSource, line)) return;
    findings.push_back(
        {RuleId::kClockSource, path, line,
         what + ": ambient time/randomness outside common/rng.h and "
                "telemetry/tracer breaks seed-reproducibility; draw "
                "from updlrm::Rng (or steady_clock for wall timing)"});
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    const std::string_view x = t[i].text;
    if (kBanned.count(x) > 0) {
      flag(t[i].line, "use of " + std::string(x));
      continue;
    }
    // Bare rand()/srand(); `std::time(`/`std::clock(` only with the
    // std:: qualifier (bare `time`/`clock` are common member names).
    if ((x == "rand" || x == "srand") && Is(t, i + 1, "(") &&
        !(i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->"))) {
      flag(t[i].line, "call to " + std::string(x) + "()");
      continue;
    }
    if (x == "std" && Is(t, i + 1, "::") &&
        (Is(t, i + 2, "time") || Is(t, i + 2, "clock")) &&
        Is(t, i + 3, "(")) {
      flag(t[i].line, "call to std::" + std::string(t[i + 2].text) + "()");
    }
  }
}

// ---------------------------------------------------------------- R4

void CheckIncludeLayering(const std::string& path, const LexedFile& lexed,
                          const Directives& d,
                          std::vector<Finding>& findings) {
  const std::string module = SrcModule(path);
  if (module.empty()) return;  // layering applies to src/ only
  const auto& allowed = AllowedDeps();
  const auto self = allowed.find(module);
  if (self == allowed.end()) return;  // unknown (new) module: unchecked
  for (const IncludeDirective& inc : lexed.includes) {
    if (inc.system) continue;
    const std::size_t slash = inc.path.find('/');
    if (slash == std::string_view::npos) continue;
    const std::string target(inc.path.substr(0, slash));
    if (target == module) continue;
    if (allowed.count(target) == 0) continue;  // not a src module path
    if (self->second.count(target) > 0) continue;
    if (d.Allowed(RuleId::kIncludeLayering, inc.line)) continue;
    findings.push_back(
        {RuleId::kIncludeLayering, path, inc.line,
         "module '" + module + "' must not include \"" +
             std::string(inc.path) +
             "\": '" + target +
             "' is not in its allowed dependency closure (DAG: common <- "
             "pim <- updlrm <- serve/pipeline; see DESIGN.md §11)"});
  }
}

// ---------------------------------------------------------------- R5

void CheckCounterXmacro(const std::string& path, const Tokens& t,
                        const Directives& d,
                        std::vector<Finding>& findings) {
  // Applies to any file defining both the X-macro and the struct
  // (pim/dpu.h in the real tree; self-contained fixtures in tests).
  std::set<std::string> macro_fields;
  std::set<std::string> struct_fields;
  int macro_line = -1;
  int struct_line = -1;

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text == "define" &&
        Is(t, i + 1, "UPDLRM_DPU_COUNTER_FIELDS")) {
      macro_line = t[i].line;
      // Body: a run of `X ( name )` groups (backslash continuations
      // lex as stray punct tokens we skip).
      std::size_t j = i + 2;
      if (Is(t, j, "(")) j = MatchForward(t, j, "(", ")") + 1;
      while (j + 3 < t.size()) {
        if (t[j].text == "\\") {
          ++j;
          continue;
        }
        if (t[j].text == "X" && Is(t, j + 1, "(") &&
            t[j + 2].kind == TokenKind::kIdentifier && Is(t, j + 3, ")")) {
          macro_fields.insert(std::string(t[j + 2].text));
          j += 4;
          continue;
        }
        break;
      }
    }
    if (t[i].text == "struct" && Is(t, i + 1, "DpuStats") &&
        Is(t, i + 2, "{")) {
      struct_line = t[i].line;
      const std::size_t close = MatchForward(t, i + 2, "{", "}");
      int depth = 0;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (t[j].text == "{") ++depth;
        if (t[j].text == "}") --depth;
        if (depth != 1) continue;
        // field: std :: uint64_t name [= ...] ;
        if (t[j].text == "std" && Is(t, j + 1, "::") &&
            Is(t, j + 2, "uint64_t") && j + 3 < close &&
            t[j + 3].kind == TokenKind::kIdentifier) {
          struct_fields.insert(std::string(t[j + 3].text));
        }
      }
    }
  }
  if (macro_line < 0 || struct_line < 0) return;

  for (const auto& f : struct_fields) {
    if (macro_fields.count(f) == 0 &&
        !d.Allowed(RuleId::kCounterXmacro, struct_line)) {
      findings.push_back(
          {RuleId::kCounterXmacro, path, struct_line,
           "DpuStats counter '" + f +
               "' is missing from UPDLRM_DPU_COUNTER_FIELDS: it would be "
               "silently dropped from aggregation and export"});
    }
  }
  for (const auto& f : macro_fields) {
    if (struct_fields.count(f) == 0 &&
        !d.Allowed(RuleId::kCounterXmacro, macro_line)) {
      findings.push_back(
          {RuleId::kCounterXmacro, path, macro_line,
           "UPDLRM_DPU_COUNTER_FIELDS entry '" + f +
               "' has no matching std::uint64_t field in DpuStats"});
    }
  }
}

// ---------------------------------------------------------------- R6

void CheckFloatAccumulation(const std::string& path, const Tokens& t,
                            const Directives& d,
                            std::vector<Finding>& findings) {
  static const std::set<std::string_view> kFloatTypes = {"float", "double"};
  const auto names = CollectDeclaredNames(t, kFloatTypes);

  auto flag = [&](int line, const std::string& what) {
    if (d.Allowed(RuleId::kFloatAccumulation, line)) return;
    findings.push_back(
        {RuleId::kFloatAccumulation, path, line,
         what + ": floating-point accumulation in a parallel region is "
                "schedule-ordered; use integer/fixed-point lanes or a "
                "post-region fixed-order fold (DESIGN.md §11)"});
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    // std::atomic<float|double> anywhere: never deterministic as an
    // accumulator, and as a flag it belongs in int/bool.
    if (t[i].text == "atomic" && Is(t, i + 1, "<") &&
        (Is(t, i + 2, "float") || Is(t, i + 2, "double"))) {
      flag(t[i].line, "std::atomic<" + std::string(t[i + 2].text) + ">");
      continue;
    }
    if (t[i].text != "ParallelFor" || !Is(t, i + 1, "(")) continue;
    const std::size_t close = MatchForward(t, i + 1, "(", ")");
    for (std::size_t j = i + 2; j + 1 < close; ++j) {
      if (t[j + 1].text != "+=" && t[j + 1].text != "-=") continue;
      // LHS: plain identifier, or ident[...] indexing.
      std::size_t lhs = j;
      if (t[lhs].text == "]") {
        int depth = 0;
        while (lhs > 0) {
          if (t[lhs].text == "]") ++depth;
          if (t[lhs].text == "[" && --depth == 0) {
            --lhs;
            break;
          }
          --lhs;
        }
      }
      if (t[lhs].kind == TokenKind::kIdentifier &&
          names.count(t[lhs].text) > 0) {
        flag(t[j + 1].line, "'" + std::string(t[lhs].text) +
                                " " + std::string(t[j + 1].text) +
                                "' inside a ParallelFor body");
      }
    }
    i = close;
  }
}

}  // namespace

std::string_view RuleName(RuleId rule) {
  switch (rule) {
    case RuleId::kUnorderedIteration:
      return "unordered-iteration";
    case RuleId::kNoallocRegion:
      return "noalloc-region";
    case RuleId::kClockSource:
      return "clock-source";
    case RuleId::kIncludeLayering:
      return "include-layering";
    case RuleId::kCounterXmacro:
      return "counter-xmacro";
    case RuleId::kFloatAccumulation:
      return "float-accumulation";
    case RuleId::kNumRules:
      break;
  }
  return "unknown";
}

std::string_view RuleCode(RuleId rule) {
  switch (rule) {
    case RuleId::kUnorderedIteration:
      return "R1";
    case RuleId::kNoallocRegion:
      return "R2";
    case RuleId::kClockSource:
      return "R3";
    case RuleId::kIncludeLayering:
      return "R4";
    case RuleId::kCounterXmacro:
      return "R5";
    case RuleId::kFloatAccumulation:
      return "R6";
    case RuleId::kNumRules:
      break;
  }
  return "R?";
}

RuleId RuleFromName(std::string_view name) {
  for (std::size_t i = 0; i < kNumLintRules; ++i) {
    const auto rule = static_cast<RuleId>(i);
    if (RuleName(rule) == name || RuleCode(rule) == name) return rule;
  }
  return RuleId::kNumRules;
}

std::vector<Finding> LintLexedFile(const std::string& path,
                                   const LexedFile& lexed) {
  std::vector<Finding> findings;
  const Directives d = ScanDirectives(path, lexed, findings);
  const Tree tree = ClassifyTree(path);
  const Tokens& t = lexed.tokens;

  // R1 guards determinism of shipped results: src + bench. Tests and
  // tools may iterate for assertions/printing.
  if (tree == Tree::kSrc || tree == Tree::kBench) {
    CheckUnorderedIteration(path, t, d, findings);
  }
  // R2/R5 fire only where their anchors (regions, macro+struct) exist.
  CheckNoallocRegions(path, t, d, findings);
  CheckCounterXmacro(path, t, d, findings);
  // R3 applies everywhere: a test seeded from random_device is exactly
  // the flaky kind the contract exists to prevent.
  CheckClockSources(path, t, d, findings);
  // R4: src-module classification returns "" otherwise.
  CheckIncludeLayering(path, lexed, d, findings);
  // R6: parallel merges live in src/ (benches drive them through it).
  if (tree == Tree::kSrc) {
    CheckFloatAccumulation(path, t, d, findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.rule) < static_cast<int>(b.rule);
            });
  return findings;
}

}  // namespace updlrm::lint
