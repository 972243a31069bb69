#include "telemetry/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace updlrm::telemetry {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue out;
  out.type_ = Type::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue out;
  out.type_ = Type::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue out;
  out.type_ = Type::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeArray(JsonArray v) {
  JsonValue out;
  out.type_ = Type::kArray;
  out.array_ = std::make_shared<JsonArray>(std::move(v));
  return out;
}

JsonValue JsonValue::MakeObject(JsonObject v) {
  JsonValue out;
  out.type_ = Type::kObject;
  out.object_ = std::make_shared<JsonObject>(std::move(v));
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    auto value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue::MakeString(std::move(s).value());
      }
      case 't':
        return ParseKeyword("true", JsonValue::MakeBool(true));
      case 'f':
        return ParseKeyword("false", JsonValue::MakeBool(false));
      case 'n':
        return ParseKeyword("null", JsonValue::MakeNull());
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseKeyword(std::string_view word, JsonValue value) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("invalid literal");
    }
    pos_ += word.size();
    return value;
  }

  /// Consumes a run of digits; false when there is none.
  bool ConsumeDigits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    Consume('-');
    if (!ConsumeDigits()) return Error("invalid number");
    if (Consume('.') && !ConsumeDigits()) {
      return Error("digits required after decimal point");
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!ConsumeDigits()) return Error("digits required in exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) return Error("number out of range");
    return JsonValue::MakeNumber(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writers; reject them for strictness).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escapes unsupported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<JsonValue> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    JsonArray items;
    SkipWhitespace();
    if (Consume(']')) return JsonValue::MakeArray(std::move(items));
    while (true) {
      auto value = ParseValue();
      if (!value.ok()) return value;
      items.push_back(std::move(value).value());
      SkipWhitespace();
      if (Consume(']')) return JsonValue::MakeArray(std::move(items));
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    JsonObject members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue::MakeObject(std::move(members));
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      auto value = ParseValue();
      if (!value.ok()) return value;
      if (!members.emplace(std::move(key).value(), std::move(value).value())
               .second) {
        return Error("duplicate object key");
      }
      SkipWhitespace();
      if (Consume('}')) return JsonValue::MakeObject(std::move(members));
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

// --- writer -------------------------------------------------------------

namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

/// Appends one value token after the comma its container needs (none
/// for a container's first element or a key's value).
JsonWriter& JsonWriter::Raw(std::string_view token) {
  const bool first =
      stack_.empty() || std::exchange(stack_.back().empty, false);
  if (!std::exchange(after_key_, false) && !first) {
    out_ += stack_.back().lines ? ",\n" : ",";
  }
  out_ += token;
  return *this;
}

JsonWriter& JsonWriter::Open(char open, char close, Layout layout) {
  Raw(std::string_view(&open, 1));
  const bool lines = layout == Layout::kLines;
  if (lines) out_ += '\n';
  stack_.push_back(Frame{close, lines, true});
  return *this;
}

JsonWriter& JsonWriter::Close(char close) {
  UPDLRM_CHECK_MSG(
      !stack_.empty() && stack_.back().close == close && !after_key_,
      "JsonWriter: unbalanced close or dangling key");
  if (stack_.back().lines) out_ += '\n';
  out_ += close;
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  UPDLRM_CHECK_MSG(
      !stack_.empty() && stack_.back().close == '}' && !after_key_,
      "JsonWriter: key outside an object");
  String(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Raw("\"");
  AppendEscaped(out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  if (!std::isfinite(value)) return Null();
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.15g", value);
  return Raw({buf, static_cast<std::size_t>(n)});
}

JsonWriter& JsonWriter::Bool(bool value) {
  return Raw(value ? "true" : "false");
}

JsonWriter& JsonWriter::Null() { return Raw("null"); }

JsonWriter& JsonWriter::Value(const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      return Null();
    case JsonValue::Type::kBool:
      return Bool(value.AsBool());
    case JsonValue::Type::kNumber: {
      const double v = value.AsNumber();
      // -0.0 stays a double so its sign survives.
      const bool exact = std::fabs(v) <= 0x1p53 && v == std::trunc(v) &&
                         !(v == 0.0 && std::signbit(v));
      return exact ? Number(static_cast<std::int64_t>(v)) : Number(v);
    }
    case JsonValue::Type::kString:
      return String(value.AsString());
    case JsonValue::Type::kArray:
      BeginArray();
      for (const JsonValue& item : value.AsArray()) Value(item);
      return EndArray();
    case JsonValue::Type::kObject:
      BeginObject();
      for (const auto& [key, item] : value.AsObject()) Key(key).Value(item);
      return EndObject();
  }
  return *this;
}

JsonWriter& JsonWriter::Newline() {
  UPDLRM_CHECK_MSG(stack_.empty() && !after_key_,
                   "JsonWriter: newline inside an open document");
  out_ += '\n';
  return *this;
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) return Status::InvalidArgument("failed writing " + path);
  return Status::Ok();
}

Status MergeJsonEntry(const std::string& path, const std::string& name,
                      std::string_view payload) {
  JsonObject entries;
  if (std::ifstream in(path, std::ios::binary); in) {
    std::ostringstream existing;
    existing << in.rdbuf();
    auto parsed = ParseJson(existing.str());
    if (!parsed.ok() || !parsed->is_object()) {
      return Status::InvalidArgument(
          path + ": " +
          (parsed.ok() ? "not a JSON object" : parsed.status().message()));
    }
    entries = parsed->AsObject();
  }
  auto entry = ParseJson(payload);
  if (!entry.ok()) {
    return Status::InvalidArgument(path + " entry \"" + name +
                                   "\": " + entry.status().message());
  }
  entries[name] = std::move(entry).value();

  JsonWriter writer;
  writer.BeginObject(JsonWriter::Layout::kLines);
  for (const auto& [key, value] : entries) writer.Key(key).Value(value);
  writer.EndObject().Newline();
  return WriteTextFile(path, writer.str());
}

}  // namespace updlrm::telemetry
