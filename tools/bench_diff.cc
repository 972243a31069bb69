// bench_diff: compare two BENCH_*.json files and fail on regression.
//
// Usage:
//   bench_diff [--rel-tol=0.05] [--abs-tol=1e-9] [--show-all]
//              BASELINE CURRENT
//
// Both files are flattened to dotted numeric paths ("workloads.clo
// .fleets[0].methods.CA.max_sustainable_qps") and compared metric by
// metric. Every metric gets a noise band — max(rel-tol x |baseline|,
// abs-tol) — and a direction, read from its leaf key's unit suffix
// (after a trailing "_per_<noun>" is dropped, so "push_bytes_per_batch"
// reads as bytes and "us_per_batch" as us):
//
//   higher-better  (..._qps, speedup, reduction, hits, ...): a drop
//                  past the band is a regression;
//   lower-better   (..._us, ..._ns, ..._bytes, shed, violations, ...):
//                  a rise past the band is a regression;
//   neutral        everything else: changes are reported, never fatal
//                  (counts and configuration echoes move legitimately).
//
// A leaf key with no known suffix takes its parent's direction, so a
// per-method map under "max_sustainable_qps" is higher-better.
//
// Optimizer picks ("nc", "replicas") are identities: a row measured at
// another tile shape is another configuration, so a changed pick is a
// regression, whatever the numbers beside it did.
//
// String and bool leaves (plan and method names, "slo_met", ...) are
// identities: they say which configuration a row measured and whether
// it met its SLO, so any change to one is a regression — rows measured
// under a different plan must not be compared number by number as if
// nothing moved.
//
// Host-noise paths (host wall time, thread counts, trace buffer
// accounting) are ignored entirely — simulated results are the
// contract, wall clock is the weather. A metric or identity present in
// the baseline but missing from the current file is a regression (a
// bench silently dropping a measurement is exactly what this tool
// exists to catch); new ones are informational.
//
// Exit status: 0 = no regression, 1 = regression(s), 2 = usage/parse
// error. CI's bench-regression job runs the smoke benches and diffs
// the emitted files against the committed bench/baselines/*.json.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.h"
#include "telemetry/json.h"

namespace updlrm {
namespace {

enum class Direction { kHigherBetter, kLowerBetter, kNeutral };

/// Substrings that make a path ignored outright (host-noise).
const char* const kIgnore[] = {"wall_seconds", "host.", "trace.",
                               "threads"};

/// Unit suffixes of a leaf key: the whole key, or its tail after '_'.
const char* const kHigherBetter[] = {
    "qps",       "speedup", "reduction",  "hits",     "hit_rate",
    "hit_share", "jaccard", "throughput", "completed"};
const char* const kLowerBetter[] = {
    "us",   "ns",         "ms",    "bytes", "latency",   "p50",
    "p95",  "p99",        "p999",  "shed",  "imbalance", "stddev",
    "burn", "violations", "drops", "stragglers"};

/// Numeric leaves that name an optimizer's pick, compared as identities.
const char* const kPicks[] = {"nc", "replicas"};

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool ContainsAny(const std::string& path, const char* const* patterns,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (path.find(patterns[i]) != std::string::npos) return true;
  }
  return false;
}

/// True when `key` is `unit` or ends in "_" + `unit`.
bool HasUnit(std::string_view key, std::string_view unit) {
  if (key == unit) return true;
  return key.size() > unit.size() && key.ends_with(unit) &&
         key[key.size() - unit.size() - 1] == '_';
}

bool HasAnyUnit(std::string_view key, const char* const* units,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (HasUnit(key, units[i])) return true;
  }
  return false;
}

/// One key's direction: its unit suffix, ignoring a "_per_<noun>" tail.
Direction ClassifyKey(std::string_view key) {
  if (const std::size_t per = key.rfind("_per_");
      per != std::string_view::npos && per > 0) {
    key = key.substr(0, per);
  }
  if (HasAnyUnit(key, kHigherBetter, std::size(kHigherBetter))) {
    return Direction::kHigherBetter;
  }
  if (HasAnyUnit(key, kLowerBetter, std::size(kLowerBetter))) {
    return Direction::kLowerBetter;
  }
  return Direction::kNeutral;
}

/// The object keys of a dotted path, leaf last ("rows[2].p99_us" ->
/// {"rows", "p99_us"}).
std::vector<std::string> KeysOf(const std::string& path) {
  std::vector<std::string> keys;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    std::size_t end = path.find('.', begin);
    if (end == std::string::npos) end = path.size();
    std::string key = path.substr(begin, end - begin);
    key = key.substr(0, key.find('['));
    if (!key.empty()) keys.push_back(Lower(key));
    begin = end + 1;
  }
  return keys;
}

/// The leaf key's direction, or the nearest ancestor key's when the leaf
/// has no known unit.
Direction Classify(const std::string& path) {
  const std::vector<std::string> keys = KeysOf(path);
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    const Direction dir = ClassifyKey(*it);
    if (dir != Direction::kNeutral) return dir;
  }
  return Direction::kNeutral;
}

bool IsPick(const std::string& path) {
  const std::vector<std::string> keys = KeysOf(path);
  if (keys.empty()) return false;
  for (const char* pick : kPicks) {
    if (keys.back() == pick) return true;
  }
  return false;
}

/// A bench file's leaves by dotted path: numbers, and string/bool
/// identities (strings quoted, so "true" and true stay distinct).
struct Leaves {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> identities;
};

/// Depth-first flatten of number, string and bool leaves into dotted
/// paths. Nulls (non-finite numbers) are skipped.
void Flatten(const telemetry::JsonValue& value, const std::string& path,
             Leaves& out) {
  if (ContainsAny(Lower(path), kIgnore, std::size(kIgnore))) return;
  if (value.is_number() && IsPick(path)) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value.AsNumber());
    out.identities[path] = text;
  } else if (value.is_number()) {
    out.numbers[path] = value.AsNumber();
  } else if (value.is_string()) {
    out.identities[path] = "\"" + value.AsString() + "\"";
  } else if (value.is_bool()) {
    out.identities[path] = value.AsBool() ? "true" : "false";
  } else if (value.is_object()) {
    for (const auto& [key, child] : value.AsObject()) {
      Flatten(child, path.empty() ? key : path + "." + key, out);
    }
  } else if (value.is_array()) {
    const telemetry::JsonArray& array = value.AsArray();
    for (std::size_t i = 0; i < array.size(); ++i) {
      Flatten(array[i], path + "[" + std::to_string(i) + "]", out);
    }
  }
}

Result<Leaves> LoadLeaves(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = telemetry::ParseJson(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   parsed.status().ToString());
  }
  Leaves leaves;
  Flatten(*parsed, "", leaves);
  return leaves;
}

int Run(int argc, char** argv) {
  auto cli = CommandLine::Parse(argc, argv);
  if (!cli.ok()) {
    std::fprintf(stderr, "bench_diff: %s\n",
                 cli.status().ToString().c_str());
    return 2;
  }
  const double rel_tol = cli->GetDouble("rel-tol", 0.05);
  const double abs_tol = cli->GetDouble("abs-tol", 1e-9);
  const bool show_all = cli->GetBool("show-all", false);
  const std::vector<std::string> unused = cli->UnusedFlags();
  if (!unused.empty()) {
    for (const std::string& flag : unused) {
      std::fprintf(stderr, "bench_diff: unknown flag --%s\n",
                   flag.c_str());
    }
    return 2;
  }
  if (cli->positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff [--rel-tol=F] [--abs-tol=F] "
                 "[--show-all] BASELINE CURRENT\n");
    return 2;
  }
  const std::string& base_path = cli->positional()[0];
  const std::string& cur_path = cli->positional()[1];
  auto base = LoadLeaves(base_path);
  auto cur = LoadLeaves(cur_path);
  if (!base.ok() || !cur.ok()) {
    std::fprintf(stderr, "bench_diff: %s\n",
                 (!base.ok() ? base : cur).status().ToString().c_str());
    return 2;
  }

  std::size_t compared = 0;
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t changed_neutral = 0;
  for (const auto& [key, was] : base->identities) {
    const auto it = cur->identities.find(key);
    if (it == cur->identities.end()) {
      std::printf("REGRESSION %s: present in baseline, missing now\n",
                  key.c_str());
      ++regressions;
      continue;
    }
    ++compared;
    if (it->second != was) {
      std::printf("REGRESSION %s: %s -> %s\n", key.c_str(), was.c_str(),
                  it->second.c_str());
      ++regressions;
    } else if (show_all) {
      std::printf("ok         %s: %s\n", key.c_str(), was.c_str());
    }
  }
  for (const auto& [key, was] : base->numbers) {
    const auto it = cur->numbers.find(key);
    if (it == cur->numbers.end()) {
      std::printf("REGRESSION %s: present in baseline, missing now\n",
                  key.c_str());
      ++regressions;
      continue;
    }
    ++compared;
    const double now = it->second;
    const double band = std::max(rel_tol * std::fabs(was), abs_tol);
    const double delta = now - was;
    if (std::fabs(delta) <= band) {
      if (show_all) {
        std::printf("ok         %s: %g -> %g\n", key.c_str(), was, now);
      }
      continue;
    }
    const Direction dir = Classify(key);
    const bool worse =
        (dir == Direction::kHigherBetter && delta < 0.0) ||
        (dir == Direction::kLowerBetter && delta > 0.0);
    const char* label = dir == Direction::kNeutral
                            ? "changed   "
                            : (worse ? "REGRESSION" : "improved  ");
    std::printf("%s %s: %g -> %g (%+.2f%%, band %.2f%%)\n", label,
                key.c_str(), was, now,
                was != 0.0 ? 100.0 * delta / std::fabs(was) : 0.0,
                100.0 * rel_tol);
    if (dir == Direction::kNeutral) {
      ++changed_neutral;
    } else if (worse) {
      ++regressions;
    } else {
      ++improvements;
    }
  }
  std::size_t added = 0;
  for (const auto& [key, now] : cur->numbers) {
    if (base->numbers.find(key) == base->numbers.end()) {
      if (show_all) std::printf("new        %s: %g\n", key.c_str(), now);
      ++added;
    }
  }
  for (const auto& [key, now] : cur->identities) {
    if (base->identities.find(key) == base->identities.end()) {
      if (show_all) {
        std::printf("new        %s: %s\n", key.c_str(), now.c_str());
      }
      ++added;
    }
  }

  std::printf(
      "bench_diff: %zu metric(s) compared (%s vs %s): %zu "
      "regression(s), %zu improvement(s), %zu neutral change(s), %zu "
      "new\n",
      compared, base_path.c_str(), cur_path.c_str(), regressions,
      improvements, changed_neutral, added);
  return regressions == 0 ? 0 : 1;
}

}  // namespace
}  // namespace updlrm

int main(int argc, char** argv) { return updlrm::Run(argc, argv); }
