/// \file net_protocol_test.cc
/// Wire differential of the update-frame writer (net/protocol.h): over
/// seeded random updates, AppendUpdateFrame -> FrameDecoder ->
/// UpdateFromJson must give back a bit-identical ProgressiveUpdate, and
/// the frame must be byte-identical to the same message built as a
/// JsonValue tree.  The cases cover what a JSON number or string can
/// get wrong: empty and 1-3-aggregate bins, negative and >= 2^40 bin
/// keys, integral doubles at and above the 1e15 format switch,
/// subnormals, -0.0, and viz names with quotes, backslashes and
/// control characters.

#include "net/protocol.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/frame.h"

namespace idebench::net {
namespace {

bool SameBits(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

/// A finite double from one of the classes the number writer treats
/// differently.
double RandomDouble(Rng* rng) {
  switch (rng->UniformInt(0, 6)) {
    case 0:
      return rng->Uniform(-1e6, 1e6);
    case 1:  // integral, at and above the "%lld" -> "%.17g" switch
      return std::copysign(
          1e15 + static_cast<double>(rng->UniformInt(0, int64_t{1} << 40)),
          rng->Uniform(-1.0, 1.0));
    case 2: {  // subnormal, either sign
      const uint64_t bits = (rng->Next() & 0x800FFFFFFFFFFFFFull) | 1;
      double d = 0.0;
      std::memcpy(&d, &bits, sizeof(d));
      return d;
    }
    case 3:
      return rng->UniformInt(0, 1) == 0 ? -0.0 : 0.0;
    case 4:  // integral, below the switch
      return static_cast<double>(rng->UniformInt(-999'999'999'999'999,
                                                 999'999'999'999'999));
    case 5: {  // any finite bit pattern
      double d = std::nan("");
      while (!std::isfinite(d)) {
        const uint64_t bits = rng->Next();
        std::memcpy(&d, &bits, sizeof(d));
      }
      return d;
    }
    default:
      return rng->Uniform(0.0, 1.0);
  }
}

/// An integer field or bin key; every such value travels as a JSON
/// number, so it stays within the doubles' exact-integer range.
int64_t RandomInt(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return rng->UniformInt(-1000, 1000);
    case 1:
      return rng->UniformInt(-(int64_t{1} << 52), -1);
    case 2:  // >= 2^40
      return rng->UniformInt(int64_t{1} << 40, int64_t{1} << 52);
    default:
      return rng->UniformInt(0, int64_t{1} << 40);
  }
}

std::string RandomVizName(Rng* rng) {
  static const char kAlphabet[] = {'v', 'i', 'z', '_', '0', '9', ' ',
                                   '"', '\\', '\n', '\t', '\x01', '\x1f',
                                   '/', '\x7f'};
  std::string name;
  const int64_t length = rng->UniformInt(0, 12);
  for (int64_t i = 0; i < length; ++i) {
    const int64_t last = static_cast<int64_t>(sizeof(kAlphabet)) - 1;
    name.push_back(kAlphabet[rng->UniformInt(0, last)]);
  }
  return name;
}

session::ProgressiveUpdate RandomUpdate(Rng* rng) {
  session::ProgressiveUpdate u;
  u.session_id = RandomInt(rng);
  u.query_id = RandomInt(rng);
  u.interaction_id = RandomInt(rng);
  u.viz_name = RandomVizName(rng);
  u.confidence = RandomDouble(rng);
  u.progress = RandomDouble(rng);
  u.virtual_time = RandomInt(rng);
  u.consumed = RandomInt(rng);
  u.budget = RandomInt(rng);
  u.final_update = rng->UniformInt(0, 1) == 1;
  u.completed = rng->UniformInt(0, 1) == 1;
  u.cancelled = rng->UniformInt(0, 1) == 1;
  u.unsupported = rng->UniformInt(0, 1) == 1;
  u.failed = rng->UniformInt(0, 1) == 1;
  query::QueryResult& r = u.result;
  r.available = rng->UniformInt(0, 1) == 1;
  r.exact = rng->UniformInt(0, 1) == 1;
  r.progress = RandomDouble(rng);
  r.rows_processed = RandomInt(rng);
  const int64_t bins = rng->UniformInt(0, 3) == 0 ? 0 : rng->UniformInt(1, 40);
  const int64_t aggregates = rng->UniformInt(1, 3);
  for (int64_t b = 0; b < bins; ++b) {
    query::BinResult bin;
    for (int64_t a = 0; a < aggregates; ++a) {
      bin.values.push_back({RandomDouble(rng), RandomDouble(rng)});
    }
    r.bins[RandomInt(rng)] = std::move(bin);  // a repeated key overwrites
  }
  return u;
}

/// The update message as a JsonValue tree, in the member order the
/// protocol documents (the shape AppendUpdateFrame writes directly).
JsonValue UpdateTree(const session::ProgressiveUpdate& u) {
  JsonValue j = JsonValue::Object();
  j.Set("type", "update");
  j.Set("session", u.session_id);
  j.Set("query", u.query_id);
  j.Set("interaction", u.interaction_id);
  j.Set("viz", u.viz_name);
  j.Set("confidence", u.confidence);
  j.Set("progress", u.progress);
  j.Set("virtual_time", u.virtual_time);
  j.Set("consumed", u.consumed);
  j.Set("budget", u.budget);
  j.Set("final", u.final_update);
  j.Set("completed", u.completed);
  j.Set("cancelled", u.cancelled);
  j.Set("unsupported", u.unsupported);
  j.Set("failed", u.failed);
  j.Set("result", QueryResultToJson(u.result));
  return j;
}

void ExpectBitIdentical(const session::ProgressiveUpdate& want,
                        const session::ProgressiveUpdate& got) {
  EXPECT_EQ(got.session_id, want.session_id);
  EXPECT_EQ(got.query_id, want.query_id);
  EXPECT_EQ(got.interaction_id, want.interaction_id);
  EXPECT_EQ(got.viz_name, want.viz_name);
  EXPECT_TRUE(SameBits(got.confidence, want.confidence));
  EXPECT_TRUE(SameBits(got.progress, want.progress));
  EXPECT_EQ(got.virtual_time, want.virtual_time);
  EXPECT_EQ(got.consumed, want.consumed);
  EXPECT_EQ(got.budget, want.budget);
  EXPECT_EQ(got.final_update, want.final_update);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.cancelled, want.cancelled);
  EXPECT_EQ(got.unsupported, want.unsupported);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.result.available, want.result.available);
  EXPECT_EQ(got.result.exact, want.result.exact);
  EXPECT_TRUE(SameBits(got.result.progress, want.result.progress));
  EXPECT_EQ(got.result.rows_processed, want.result.rows_processed);
  ASSERT_EQ(got.result.bins.size(), want.result.bins.size());
  for (const auto& [key, bin] : want.result.bins) {
    const auto it = got.result.bins.find(key);
    ASSERT_NE(it, got.result.bins.end()) << "missing bin " << key;
    ASSERT_EQ(it->second.values.size(), bin.values.size());
    for (size_t v = 0; v < bin.values.size(); ++v) {
      EXPECT_TRUE(SameBits(it->second.values[v].estimate,
                           bin.values[v].estimate))
          << "bin " << key << " value " << v;
      EXPECT_TRUE(
          SameBits(it->second.values[v].margin, bin.values[v].margin))
          << "bin " << key << " value " << v;
    }
  }
}

TEST(NetProtocolTest, UpdateFramesRoundTripBitIdentical) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const session::ProgressiveUpdate update = RandomUpdate(&rng);

    std::string frame = "prefix";  // appends: earlier bytes stay intact
    AppendUpdateFrame(update, &frame);
    ASSERT_EQ(frame.compare(0, 6, "prefix"), 0);
    frame.erase(0, 6);

    // The payload is the tree's compact dump, byte for byte, and its
    // result member is QueryResultToJson's.
    const std::string payload = frame.substr(kFrameHeaderBytes);
    EXPECT_EQ(payload, UpdateTree(update).Dump());
    const std::string result_tail =
        ",\"result\":" + QueryResultToJson(update.result).Dump() + "}";
    ASSERT_GE(payload.size(), result_tail.size());
    EXPECT_EQ(payload.compare(payload.size() - result_tail.size(),
                              result_tail.size(), result_tail),
              0);

    FrameDecoder decoder;
    decoder.Feed(frame);
    JsonValue message;
    auto next = decoder.Next(&message);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(*next);
    EXPECT_EQ(decoder.buffered(), 0u);
    EXPECT_EQ(MessageType(message), "update");
    auto decoded = UpdateFromJson(message);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectBitIdentical(update, *decoded);
  }
}

TEST(NetProtocolTest, EdgeValuesRoundTripBitIdentical) {
  session::ProgressiveUpdate u;
  u.viz_name = std::string("q\"b\\s\x01\x1f\n", 8);
  u.confidence = -0.0;
  u.progress = 5e-324;  // smallest subnormal
  u.virtual_time = int64_t{1} << 52;
  u.result.available = true;
  u.result.progress = 1e15;
  u.result.bins[-(int64_t{1} << 45)].values = {{-0.0, 1e15 + 2},
                                               {2.2250738585072009e-308, 1e300},
                                               {999999999999999.0, 0.1}};
  u.result.bins[int64_t{1} << 40].values = {{-1e15, 0.0}, {1.0, -1.0},
                                            {0.5, 1e-300}};
  std::string frame;
  AppendUpdateFrame(u, &frame);
  FrameDecoder decoder;
  decoder.Feed(frame);
  JsonValue message;
  auto next = decoder.Next(&message);
  ASSERT_TRUE(next.ok() && *next);
  auto decoded = UpdateFromJson(message);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitIdentical(u, *decoded);
  EXPECT_TRUE(std::signbit(decoded->confidence));
  EXPECT_TRUE(std::signbit(
      decoded->result.bins.at(-(int64_t{1} << 45)).values[0].estimate));
}

TEST(NetProtocolTest, MalformedResultsAreRejected) {
  const auto reject = [](const char* text) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_FALSE(QueryResultFromJson(*parsed).ok()) << text;
  };
  reject("[]");
  reject(R"({"available":true})");
  reject(R"({"bins":[[1]]})");
  reject(R"({"bins":[["k",[]]]})");
  reject(R"({"bins":[[1,[[1]]]]})");
  reject(R"({"bins":[[1,[[1,"m"]]]]})");

  auto not_update = JsonValue::Parse(R"({"type":"pong","id":1})");
  ASSERT_TRUE(not_update.ok());
  EXPECT_FALSE(UpdateFromJson(*not_update).ok());
  auto bad_result =
      JsonValue::Parse(R"({"type":"update","result":{"bins":7}})");
  ASSERT_TRUE(bad_result.ok());
  EXPECT_FALSE(UpdateFromJson(*bad_result).ok());
}

}  // namespace
}  // namespace idebench::net
