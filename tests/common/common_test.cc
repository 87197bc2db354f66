#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/bytes.h"
#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace cheetah {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::NotFound("missing object");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing object");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Timeout("slow");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  // "123456789" -> 0xe3069283 is the canonical CRC-32C check value.
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data);
  uint32_t split = Crc32cExtend(Crc32c(data.substr(0, 17)), data.substr(17));
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, DifferentDataDifferentCrc) {
  EXPECT_NE(Crc32c("object-a"), Crc32c("object-b"));
}

TEST(BytesTest, Empty) {
  const Bytes none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.view(), "");
  EXPECT_EQ(none.ToString(), "");
  EXPECT_TRUE(Bytes(std::string()).empty());
  EXPECT_TRUE(Bytes("abc").Slice(3, 0).empty());
}

TEST(BytesTest, SliceOfSliceStaysInBounds) {
  const Bytes whole("0123456789");
  const Bytes mid = whole.Slice(2, 6);
  EXPECT_EQ(mid.view(), "234567");
  const Bytes inner = mid.Slice(1, 4);
  EXPECT_EQ(inner.view(), "3456");
  EXPECT_EQ(inner.data(), whole.data() + 3);
  EXPECT_EQ(mid.Slice(0, mid.size()).view(), mid.view());
  EXPECT_EQ(mid.Slice(5, 1).view(), "7");
  EXPECT_TRUE(mid.Slice(6, 0).empty());
}

TEST(BytesTest, CopiesShareStorage) {
  Bytes original(std::string(1000, 'a'));
  const char* const bytes = original.data();
  const Bytes copy = original;
  const Bytes slice = original.Slice(10, 20);
  EXPECT_EQ(copy.data(), bytes);
  EXPECT_EQ(slice.data(), bytes + 10);
  original = Bytes();  // the buffer lives on in the other handles
  EXPECT_EQ(copy.view(), std::string(1000, 'a'));
  EXPECT_EQ(slice.view(), std::string(20, 'a'));
}

TEST(BytesTest, ToStringCopiesUnlessSoleOwner) {
  Bytes payload(std::string(1000, 'b'));
  const char* const bytes = payload.data();
  EXPECT_NE(payload.ToString().data(), bytes);
  {
    const Bytes other = payload;
    const std::string copied = std::move(payload).ToString();  // shared: copies
    EXPECT_NE(copied.data(), bytes);
    EXPECT_EQ(other.view(), copied);
    payload = other;
  }
  const std::string partial = payload.Slice(1, 10).ToString();
  EXPECT_EQ(partial, std::string(10, 'b'));
  const std::string stolen = std::move(payload).ToString();  // sole owner: moves
  EXPECT_EQ(stolen.data(), bytes);
  EXPECT_EQ(stolen, std::string(1000, 'b'));
}

TEST(BytesTest, Crc32cOverView) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const Bytes payload(text);
  EXPECT_EQ(Crc32c(payload.view()), Crc32c(text));
  EXPECT_EQ(Crc32c(payload.Slice(4, 11).view()), Crc32c(text.substr(4, 11)));
}

TEST(HashTest, CrushHashDeterministic) {
  EXPECT_EQ(CrushHash32_2(17, 42), CrushHash32_2(17, 42));
  EXPECT_NE(CrushHash32_2(17, 42), CrushHash32_2(17, 43));
  EXPECT_NE(CrushHash32(0), CrushHash32(1));
}

TEST(HashTest, Fnv1a64Spread) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(Fnv1a64("object-" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xdeadbeefu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0x0123456789abcdefull);
}

TEST(CodingTest, VarintRoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32, ~0ull}) {
    std::string buf;
    PutVarint64(&buf, v);
    std::string_view input = buf;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&input, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(input.empty());
  }
}

TEST(CodingTest, VarintTruncated) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  std::string_view input = buf;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint64(&input, &out));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, "world!");
  std::string_view input = buf;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&input, &a));
  ASSERT_TRUE(GetLengthPrefixed(&input, &b));
  ASSERT_TRUE(GetLengthPrefixed(&input, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, "world!");
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, LengthPrefixedTruncated) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(3);
  std::string_view input = buf;
  std::string_view out;
  EXPECT_FALSE(GetLengthPrefixed(&input, &out));
}

TEST(RngTest, Deterministic) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.Next() == b.Next());
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.3);
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(Micros(1), 1000u);
  EXPECT_EQ(Millis(1), 1000000u);
  EXPECT_EQ(Seconds(1), 1000000000u);
  EXPECT_DOUBLE_EQ(ToMillisF(Millis(5)), 5.0);
  EXPECT_EQ(KiB(8), 8192u);
}

}  // namespace
}  // namespace cheetah
