// The repo's one JSON reader and one JSON writer.
//
// ParseJson is a strict recursive-descent parser over the JSON grammar
// — enough to round-trip-check every file JsonWriter emits, not a
// general-purpose JSON library. Duplicate keys are rejected (our
// writers never produce them; catching one means a merge bug).
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace updlrm::telemetry {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// std::map: deterministic iteration for error messages and tests.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const JsonArray& AsArray() const { return *array_; }
  const JsonObject& AsObject() const { return *object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(JsonArray v);
  static JsonValue MakeObject(JsonObject v);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Indirection keeps JsonValue movable/copyable with incomplete
  // recursive containers.
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

/// Streaming JSON writer: the one place JSON is formatted. Escapes
/// '"', '\\', '\n', '\r', '\t' with short escapes and other bytes below
/// 0x20 as \u00XX (UTF-8 passes through); prints doubles as %.15g
/// (non-finite ones, which JSON cannot spell, as null) and integers
/// exactly; keeps the commas and nesting. Output is compact ("k":v); a
/// container opened with Layout::kLines puts one element per line
/// ("[\n" a ",\n" b "\n]"). It appends to one string instead of
/// building a JsonValue tree, so key order is the caller's.
class JsonWriter {
 public:
  enum class Layout { kCompact, kLines };

  JsonWriter& BeginObject(Layout layout = Layout::kCompact) {
    return Open('{', '}', layout);
  }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray(Layout layout = Layout::kCompact) {
    return Open('[', ']', layout);
  }
  JsonWriter& EndArray() { return Close(']'); }
  /// Object member key; the next value written is its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  template <std::integral T>
  JsonWriter& Number(T value) {
    char buf[24];
    return Raw({buf, std::to_chars(buf, buf + sizeof(buf), value).ptr});
  }
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  /// Re-emits a parsed document; numbers that are integers within
  /// +-2^53 print exactly.
  JsonWriter& Value(const JsonValue& value);

  /// Key(key) plus the value, dispatched on its C++ type.
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    Key(key);
    if constexpr (std::is_same_v<T, bool>) {
      return Bool(value);
    } else if constexpr (std::is_arithmetic_v<T>) {
      return Number(value);
    } else {
      return String(value);
    }
  }

  /// Ends a top-level document with '\n' (a JSONL record, or a file).
  JsonWriter& Newline();

  const std::string& str() const { return out_; }

 private:
  struct Frame {
    char close = '}';
    bool lines = false;
    bool empty = true;
  };
  JsonWriter& Raw(std::string_view token);
  JsonWriter& Open(char open, char close, Layout layout);
  JsonWriter& Close(char close);

  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

/// Writes `text` to `path`, replacing the file. Any open or write
/// failure is InvalidArgument.
Status WriteTextFile(const std::string& path, std::string_view text);

/// Sets entry `name` of the JSON object file at `path` (created when
/// missing; one entry per line, in name order) to the JSON `payload`.
/// A file that is not a JSON object, or a payload that does not parse,
/// fails and leaves the file untouched.
Status MergeJsonEntry(const std::string& path, const std::string& name,
                      std::string_view payload);

}  // namespace updlrm::telemetry
