// JsonWriter (escaping, the number rule, layout, comma bookkeeping),
// its round trip through ParseJson, and the BENCH-file entry merge.
#include "telemetry/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/rng.h"

namespace updlrm::telemetry {
namespace {

TEST(JsonWriterTest, CompactLayoutAndCommaBookkeeping) {
  JsonWriter w;
  w.BeginObject()
      .Field("a", 1)
      .Key("b")
      .BeginArray()
      .Number(-2)
      .Bool(true)
      .Null()
      .BeginObject()
      .EndObject()
      .BeginArray()
      .EndArray()
      .EndArray()
      .Field("c", "x")
      .EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[-2,true,null,{},[]],"c":"x"})");
}

TEST(JsonWriterTest, LinesLayoutPutsOneElementPerLine) {
  JsonWriter w;
  w.BeginObject(JsonWriter::Layout::kLines).Field("n", 2);
  w.Key("rows").BeginArray(JsonWriter::Layout::kLines);
  w.BeginObject().Field("k", 1).EndObject();
  w.BeginObject().Field("k", 2).EndObject();
  w.EndArray().EndObject().Newline();
  EXPECT_EQ(w.str(),
            "{\n\"n\":2,\n\"rows\":[\n{\"k\":1},\n{\"k\":2}\n]\n}\n");
}

TEST(JsonWriterTest, NewlineSeparatesJsonlRecords) {
  JsonWriter w;
  w.BeginObject().Field("i", 0).EndObject().Newline();
  w.BeginObject().Field("i", 1).EndObject().Newline();
  EXPECT_EQ(w.str(), "{\"i\":0}\n{\"i\":1}\n");
}

TEST(JsonWriterTest, NumberRule) {
  JsonWriter w;
  w.BeginArray()
      .Number(0.1)
      .Number(1.0 / 3.0)
      .Number(3.0)
      .Number(-0.0)
      .Number(1e-300)
      .Number(1e300)
      .Number(std::numeric_limits<double>::quiet_NaN())
      .Number(std::numeric_limits<double>::infinity())
      .Number(std::numeric_limits<std::int64_t>::min())
      .Number(std::numeric_limits<std::uint64_t>::max())
      .EndArray();
  EXPECT_EQ(w.str(),
            "[0.1,0.333333333333333,3,-0,1e-300,1e+300,null,null,"
            "-9223372036854775808,18446744073709551615]");
}

TEST(JsonWriterTest, FieldDispatchesOnType) {
  const std::string s = "str";
  JsonWriter w;
  w.BeginObject()
      .Field("b", false)
      .Field("i32", std::int32_t{-7})
      .Field("u32", std::uint32_t{7})
      .Field("size", std::size_t{42})
      .Field("d", 2.5)
      .Field("cstr", "lit")
      .Field("s", s)
      .EndObject();
  EXPECT_EQ(w.str(),
            R"({"b":false,"i32":-7,"u32":7,"size":42,"d":2.5,)"
            R"("cstr":"lit","s":"str"})");
}

TEST(JsonWriterTest, EscapesStringsAndKeys) {
  JsonWriter w;
  w.BeginObject()
      .Field("k\"\\", std::string("q\"b\\n\n r\r t\t \x01\x1f\x7f \xc3\xa9"))
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"k\\\"\\\\\":\"q\\\"b\\\\n\\n r\\r t\\t \\u0001\\u001f\x7f "
            "\xc3\xa9\"}");
}

TEST(JsonWriterTest, ValueReemitsParsedDocuments) {
  const std::string text =
      R"({"a":[1,-2.5,true,null,"s\n"],"b":{"big":9007199254740992,)"
      R"("neg0":-0,"tiny":1e-300}})";
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  JsonWriter w;
  w.Value(*parsed);
  EXPECT_EQ(w.str(), text);
}

// --- round-trip property ------------------------------------------------

class TreeGenerator {
 public:
  explicit TreeGenerator(std::uint64_t seed) : rng_(seed) {}

  /// A random tree and the tree ParseJson must return for its written
  /// form: equal, except that doubles become strtod of their %.15g
  /// text (integers within +-2^53 are written exactly).
  std::pair<JsonValue, JsonValue> Tree(int depth) {
    const int kind = Uniform(0, depth >= 4 ? 3 : 5);
    switch (kind) {
      case 0:
        return Same(Uniform(0, 1) == 0 ? JsonValue::MakeNull()
                                       : JsonValue::MakeBool(Uniform(0, 1)));
      case 1:
        return Number();
      case 2:
      case 3:
        return Same(JsonValue::MakeString(RandomString()));
      case 4: {
        JsonArray in, out;
        for (int n = Uniform(0, 4); n > 0; --n) {
          auto [a, b] = Tree(depth + 1);
          in.push_back(std::move(a));
          out.push_back(std::move(b));
        }
        return {JsonValue::MakeArray(std::move(in)),
                JsonValue::MakeArray(std::move(out))};
      }
      default: {
        JsonObject in, out;
        for (int n = Uniform(0, 4); n > 0; --n) {
          const std::string key = RandomString();
          auto [a, b] = Tree(depth + 1);
          in[key] = std::move(a);
          out[key] = std::move(b);
        }
        return {JsonValue::MakeObject(std::move(in)),
                JsonValue::MakeObject(std::move(out))};
      }
    }
  }

 private:
  int Uniform(int lo, int hi) {
    return lo + static_cast<int>(rng_.NextBounded(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  }

  static std::pair<JsonValue, JsonValue> Same(JsonValue v) {
    return {v, v};
  }

  std::pair<JsonValue, JsonValue> Number() {
    constexpr double kTwo53 = 9007199254740992.0;
    double v = 0.0;
    switch (Uniform(0, 9)) {
      case 0: v = 0.0; break;
      case 1: v = kTwo53; break;
      case 2: v = -kTwo53; break;
      case 3: v = -0.0; break;
      case 4: v = Uniform(0, 1) == 0 ? 1e-300 : 1e300; break;
      case 5:
        // Uniform integer in [-2^53, 2^53], subtracted before the cast.
        v = static_cast<double>(
            static_cast<std::int64_t>(
                rng_.NextBounded((std::uint64_t{1} << 54) + 1)) -
            (std::int64_t{1} << 53));
        break;
      default:
        // Any sign, 17 random significant digits, exponent +-300.
        v = rng_.NextDouble(-10.0, 10.0) * std::pow(10.0, Uniform(-300, 299));
        break;
    }
    const bool exact = std::fabs(v) <= kTwo53 && v == std::trunc(v) &&
                       !(v == 0.0 && std::signbit(v));
    double expected = v;
    if (!exact) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.15g", v);
      expected = std::strtod(buf, nullptr);
    }
    return {JsonValue::MakeNumber(v), JsonValue::MakeNumber(expected)};
  }

  /// Random bytes 0x01-0x7f mixed with valid multi-byte UTF-8.
  std::string RandomString() {
    static const char* const kUtf8[] = {"\xc3\xa9", "\xdf\xbf",
                                        "\xe2\x82\xac", "\xef\xbf\xbd",
                                        "\xf0\x9f\x98\x80"};
    std::string s;
    for (int n = Uniform(0, 12); n > 0; --n) {
      if (Uniform(0, 4) == 0) {
        s += kUtf8[Uniform(0, 4)];
      } else {
        s += static_cast<char>(Uniform(0x01, 0x7f));
      }
    }
    return s;
  }

  Rng rng_;
};

/// Structural equality with numbers compared bit for bit (so -0.0 and
/// 0.0 differ).
bool BitEqual(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.AsBool() == b.AsBool();
    case JsonValue::Type::kNumber:
      return std::bit_cast<std::uint64_t>(a.AsNumber()) ==
             std::bit_cast<std::uint64_t>(b.AsNumber());
    case JsonValue::Type::kString:
      return a.AsString() == b.AsString();
    case JsonValue::Type::kArray: {
      const JsonArray& x = a.AsArray();
      const JsonArray& y = b.AsArray();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!BitEqual(x[i], y[i])) return false;
      }
      return true;
    }
    case JsonValue::Type::kObject: {
      const JsonObject& x = a.AsObject();
      const JsonObject& y = b.AsObject();
      if (x.size() != y.size()) return false;
      for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j) {
        if (i->first != j->first || !BitEqual(i->second, j->second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

TEST(JsonWriterTest, RandomTreesRoundTripThroughParseJson) {
  TreeGenerator gen(0x5eed'15'0f'1eULL);
  for (int i = 0; i < 1500; ++i) {
    const auto [tree, expected] = gen.Tree(0);
    JsonWriter w;
    w.Value(tree);
    auto parsed = ParseJson(w.str());
    ASSERT_TRUE(parsed.ok())
        << "tree " << i << ": " << parsed.status().ToString() << "\n"
        << w.str();
    ASSERT_TRUE(BitEqual(*parsed, expected)) << "tree " << i << "\n"
                                             << w.str();
    // Written text is a fixed point: parse + write reproduces it.
    JsonWriter again;
    again.Value(*parsed);
    ASSERT_EQ(again.str(), w.str()) << "tree " << i;
  }
}

// --- file merge ---------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class MergeJsonEntryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "merge_json_entry_test.json";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void Seed(const std::string& text) const {
    ASSERT_TRUE(WriteTextFile(path_, text).ok());
  }

  std::string path_;
};

TEST_F(MergeJsonEntryTest, InsertsEntriesInNameOrder) {
  ASSERT_TRUE(MergeJsonEntry(path_, "zeta", R"({"x": 1})").ok());
  ASSERT_TRUE(MergeJsonEntry(path_, "alpha", "[1, 2.5]").ok());
  EXPECT_EQ(ReadFile(path_), "{\n\"alpha\":[1,2.5],\n\"zeta\":{\"x\":1}\n}\n");
}

TEST_F(MergeJsonEntryTest, ReplacesAnEntryInAHandEditedFile) {
  // Pretty-printed, multi-line entries: a line-based merger would
  // have produced invalid JSON here.
  Seed("{\n  \"keep\": {\n    \"a\": 1,\n    \"b\": [\n      2\n    ]\n"
       "  },\n  \"mine\": {\"old\": true}\n}\n");
  ASSERT_TRUE(MergeJsonEntry(path_, "mine", R"({"new":0.5})").ok());
  EXPECT_EQ(ReadFile(path_),
            "{\n\"keep\":{\"a\":1,\"b\":[2]},\n\"mine\":{\"new\":0.5}\n}\n");
}

TEST_F(MergeJsonEntryTest, RejectsAMalformedFileAndLeavesItUntouched) {
  const std::string truncated = "{\n  \"keep\": {\"a\": 1},\n";
  Seed(truncated);
  const Status merged = MergeJsonEntry(path_, "mine", "{}");
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.message().find(path_), std::string::npos)
      << merged.ToString();
  EXPECT_NE(merged.message().find("JSON parse error"), std::string::npos)
      << merged.ToString();
  EXPECT_EQ(ReadFile(path_), truncated);

  Seed("[1, 2]");
  EXPECT_FALSE(MergeJsonEntry(path_, "mine", "{}").ok());  // not an object
}

TEST_F(MergeJsonEntryTest, RejectsAMalformedPayload) {
  ASSERT_TRUE(MergeJsonEntry(path_, "keep", "1").ok());
  const Status merged = MergeJsonEntry(path_, "mine", "{\"x\": nan}");
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.message().find("mine"), std::string::npos);
  EXPECT_EQ(ReadFile(path_), "{\n\"keep\":1\n}\n");
}

TEST(WriteTextFileTest, UnwritablePathIsInvalidArgument) {
  const Status status =
      WriteTextFile(::testing::TempDir() + "no/such/dir/file.json", "{}");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace updlrm::telemetry
