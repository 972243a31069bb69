#include "updlrm_lint/lexer.h"

#include <cctype>

namespace updlrm::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-char punctuators the rules care about matching as one token
// (`::`, `->`, `+=`, `-=`). Everything else is one char per token —
// the rules only ever match exact punctuator strings, so splitting
// `<<` into two `<` tokens is harmless.
std::size_t PunctLen(std::string_view s) {
  if (s.size() >= 2) {
    const std::string_view two = s.substr(0, 2);
    if (two == "::" || two == "->" || two == "+=" || two == "-=" ||
        two == "==" || two == "!=" || two == "<=" || two == ">=" ||
        two == "&&" || two == "||" || two == "++" || two == "--") {
      return 2;
    }
  }
  return 1;
}

}  // namespace

LexedFile Lex(std::string source) {
  LexedFile out;
  out.source = std::move(source);
  const std::string_view s = out.source;

  int line = 1;
  std::size_t i = 0;
  const std::size_t n = s.size();

  auto at_line_start_directive = [&](std::size_t pos) {
    // True when the only characters between the last newline and `pos`
    // are horizontal whitespace (so `#` starts a directive).
    while (pos > 0) {
      const char c = s[pos - 1];
      if (c == '\n') return true;
      if (c != ' ' && c != '\t') return false;
      --pos;
    }
    return true;
  };

  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }

    // Line comment.
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      const std::size_t start = i + 2;
      std::size_t end = start;
      while (end < n && s[end] != '\n') ++end;
      out.comments.push_back({s.substr(start, end - start), line});
      i = end;
      continue;
    }
    // Block comment (may span lines).
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      const int start_line = line;
      const std::size_t start = i + 2;
      std::size_t end = start;
      while (end + 1 < n && !(s[end] == '*' && s[end + 1] == '/')) {
        if (s[end] == '\n') ++line;
        ++end;
      }
      out.comments.push_back({s.substr(start, end - start), start_line});
      i = end + 2 <= n ? end + 2 : n;
      continue;
    }

    // Preprocessor directive: record #include targets; keep the rest of
    // the directive's tokens (rules want to see X-macro bodies, and
    // `#define` lines lex fine as ordinary tokens).
    if (c == '#' && at_line_start_directive(i)) {
      std::size_t j = i + 1;
      while (j < n && (s[j] == ' ' || s[j] == '\t')) ++j;
      if (s.substr(j, 7) == "include") {
        j += 7;
        while (j < n && (s[j] == ' ' || s[j] == '\t')) ++j;
        if (j < n && (s[j] == '"' || s[j] == '<')) {
          const bool system = s[j] == '<';
          const char close = system ? '>' : '"';
          const std::size_t p0 = j + 1;
          std::size_t p1 = p0;
          while (p1 < n && s[p1] != close && s[p1] != '\n') ++p1;
          out.includes.push_back({s.substr(p0, p1 - p0), line, system});
          i = p1 < n && s[p1] == close ? p1 + 1 : p1;
          continue;
        }
      }
      ++i;  // other directives: fall through to normal lexing
      continue;
    }

    // String / char literal (handles escapes; raw strings get a
    // best-effort scan to the closing delimiter).
    if (c == '"' || c == '\'') {
      // R"delim( ... )delim"
      if (c == '"' && i >= 1 && s[i - 1] == 'R') {
        std::size_t j = i + 1;
        std::size_t d0 = j;
        while (j < n && s[j] != '(') ++j;
        std::string delim = ")";
        delim += s.substr(d0, j - d0);
        delim += '"';
        const std::size_t body = j + 1;
        const std::size_t close = s.find(delim, body);
        const std::size_t end = close == std::string_view::npos
                                    ? n
                                    : close + delim.size();
        for (std::size_t k = i; k < end && k < n; ++k) {
          if (s[k] == '\n') ++line;
        }
        out.tokens.push_back({TokenKind::kString,
                              s.substr(i, end - i), line});
        i = end;
        continue;
      }
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && s[j] != quote) {
        if (s[j] == '\\' && j + 1 < n) ++j;
        if (s[j] == '\n') ++line;  // unterminated: degrade gracefully
        ++j;
      }
      out.tokens.push_back(
          {TokenKind::kString, s.substr(i + 1, j - (i + 1)), line});
      i = j < n ? j + 1 : n;
      continue;
    }

    if (IsIdentStart(c)) {
      std::size_t j = i + 1;
      while (j < n && IsIdentChar(s[j])) ++j;
      out.tokens.push_back(
          {TokenKind::kIdentifier, s.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < n && (IsIdentChar(s[j]) || s[j] == '.' ||
                       ((s[j] == '+' || s[j] == '-') &&
                        (s[j - 1] == 'e' || s[j - 1] == 'E' ||
                         s[j - 1] == 'p' || s[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back({TokenKind::kNumber, s.substr(i, j - i), line});
      i = j;
      continue;
    }

    const std::size_t len = PunctLen(s.substr(i));
    out.tokens.push_back({TokenKind::kPunct, s.substr(i, len), line});
    i += len;
  }

  return out;
}

}  // namespace updlrm::lint
