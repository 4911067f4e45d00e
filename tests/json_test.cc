#include "common/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"

namespace idebench {
namespace {

TEST(JsonTest, DefaultIsNull) {
  JsonValue v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.Dump(), "null");
}

TEST(JsonTest, Scalars) {
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(-7).Dump(), "-7");
  EXPECT_EQ(JsonValue(3.5).Dump(), "3.5");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, StringEscaping) {
  JsonValue v(std::string("a\"b\\c\nd\te"));
  EXPECT_EQ(v.Dump(), "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(JsonTest, ArrayBuildAndAccess) {
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append("two");
  arr.Append(JsonValue::Array());
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(0).AsInt(), 1);
  EXPECT_EQ(arr.at(1).AsString(), "two");
  EXPECT_TRUE(arr.at(2).is_array());
  EXPECT_TRUE(arr.at(99).is_null());  // out of range -> null
  EXPECT_EQ(arr.Dump(), "[1,\"two\",[]]");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zeta", 1);
  obj.Set("alpha", 2);
  EXPECT_EQ(obj.Dump(), "{\"zeta\":1,\"alpha\":2}");
}

TEST(JsonTest, ObjectSetOverwrites) {
  JsonValue obj = JsonValue::Object();
  obj.Set("k", 1);
  obj.Set("k", 2);
  EXPECT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj.Get("k").AsInt(), 2);
}

TEST(JsonTest, TypedGettersWithDefaults) {
  JsonValue obj = JsonValue::Object();
  obj.Set("d", 1.5);
  obj.Set("i", 7);
  obj.Set("b", true);
  obj.Set("s", "text");
  EXPECT_DOUBLE_EQ(obj.GetDouble("d", 0.0), 1.5);
  EXPECT_EQ(obj.GetInt("i", 0), 7);
  EXPECT_TRUE(obj.GetBool("b", false));
  EXPECT_EQ(obj.GetString("s", ""), "text");
  // Missing or mistyped keys return the fallback.
  EXPECT_DOUBLE_EQ(obj.GetDouble("missing", 9.0), 9.0);
  EXPECT_EQ(obj.GetInt("s", -1), -1);
  EXPECT_FALSE(obj.GetBool("i", false));
  EXPECT_EQ(obj.GetString("d", "fb"), "fb");
}

TEST(JsonTest, ParseRoundTrip) {
  const std::string text =
      R"({"name":"wf","count":3,"ratio":0.25,"flag":true,"none":null,)"
      R"("items":[1,2,{"k":"v"}]})";
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(JsonTest, ParsePrettyOutput) {
  JsonValue obj = JsonValue::Object();
  obj.Set("a", 1);
  auto reparsed = JsonValue::Parse(obj.DumpPretty());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, obj);
}

TEST(JsonTest, ParseWhitespaceTolerant) {
  auto parsed = JsonValue::Parse("  {\n \"a\" :\t[ 1 , 2 ]\r\n}  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("a").size(), 2u);
}

TEST(JsonTest, ParseEscapes) {
  auto parsed = JsonValue::Parse(R"("a\n\t\"\\A")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "a\n\t\"\\A");
}

TEST(JsonTest, ParseNegativeAndScientificNumbers) {
  auto parsed = JsonValue::Parse("[-1.5e3, 2E-2, -0]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->at(0).AsDouble(), -1500.0);
  EXPECT_DOUBLE_EQ(parsed->at(1).AsDouble(), 0.02);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("1 trailing").ok());
}

TEST(JsonTest, DeepNestingRejected) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  JsonValue v(std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.Dump(), "null");
}

TEST(JsonTest, EqualityIsStructural) {
  auto a = JsonValue::Parse(R"({"x":[1,2],"y":"s"})");
  auto b = JsonValue::Parse(R"({"x":[1,2],"y":"s"})");
  auto c = JsonValue::Parse(R"({"x":[1,3],"y":"s"})");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(*a == *c);
}

TEST(JsonTest, LargeIntegersKeepPrecision) {
  JsonValue v(int64_t{123456789012345});
  EXPECT_EQ(v.Dump(), "123456789012345");
}

TEST(JsonTest, NegativeZeroKeepsSign) {
  EXPECT_EQ(JsonValue(-0.0).Dump(), "-0");
  EXPECT_EQ(JsonValue(0.0).Dump(), "0");
  auto parsed = JsonValue::Parse(JsonValue(-0.0).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsDouble(), 0.0);
  EXPECT_TRUE(std::signbit(parsed->AsDouble()));
  // Non-finite values are still null: JSON has no number for them.
  EXPECT_EQ(JsonValue(std::nan("")).Dump(), "null");
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).Dump(),
            "null");
}

/// What AppendJsonNumber promises for a finite value: printf's "%lld"
/// for integral values below 1e15 in magnitude, "%.17g" otherwise.
std::string PrintfNumber(double d) {
  char buf[40];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  return buf;
}

TEST(JsonTest, NumbersMatchPrintfFormats) {
  const auto check = [](double d) {
    std::string out;
    AppendJsonNumber(d, &out);
    ASSERT_EQ(out, PrintfNumber(d)) << "bits of " << out;
  };
  for (const double d :
       {0.0, 1.0, -1.0, 0.1, 0.5, -2.75, 123.456, 1e-7, 1e15, -1e15,
        1e15 + 1, 999999999999999.0, -999999999999999.0, 999999999999999.5,
        9007199254740993.0, 1e21, 1e300, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon()}) {
    check(d);
  }
  Rng rng(1307);
  for (int i = 0; i < 20000; ++i) {
    // Every finite bit pattern (all exponents, subnormals included),
    // then integers on both sides of the 1e15 switch.
    const uint64_t bits = rng.Next();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    if (std::isfinite(d) && d != 0.0) check(d);
    check(static_cast<double>(rng.UniformInt(-(int64_t{1} << 53),
                                             int64_t{1} << 53)));
    check(static_cast<double>(rng.UniformInt(-2'000'000, 2'000'000)));
    check(rng.Uniform(-1e6, 1e6));
  }
}

}  // namespace
}  // namespace idebench
