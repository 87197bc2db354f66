// The sweep seed-list parser behind CHEETAH_SWEEP_SEEDS.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/chaos/sweep.h"

namespace cheetah::chaos {
namespace {

TEST(SweepSeedsTest, ParsesCommaSeparatedList) {
  auto seeds = ParseSeedList("1,2, 30,,18446744073709551615");
  ASSERT_TRUE(seeds.ok()) << seeds.status().ToString();
  EXPECT_EQ(*seeds, (std::vector<uint64_t>{1, 2, 30, 18446744073709551615ull}));
}

TEST(SweepSeedsTest, EmptySpecIsAnEmptyList) {
  auto seeds = ParseSeedList("");
  ASSERT_TRUE(seeds.ok());
  EXPECT_TRUE(seeds->empty());
  seeds = ParseSeedList(",");
  ASSERT_TRUE(seeds.ok());
  EXPECT_TRUE(seeds->empty());
}

TEST(SweepSeedsTest, RejectsMalformedToken) {
  for (const char* spec : {"1,x", "1,2x", "-3", "1.5", "0x10", "18446744073709551616"}) {
    auto seeds = ParseSeedList(spec);
    EXPECT_FALSE(seeds.ok()) << spec;
    EXPECT_EQ(seeds.status().code(), ErrorCode::kInvalidArgument) << spec;
  }
}

}  // namespace
}  // namespace cheetah::chaos
