#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/alloc/bitmap_allocator.h"
#include "src/common/crc32c.h"
#include "src/common/random.h"

namespace cheetah::alloc {
namespace {

constexpr uint32_t kBlock = 4096;

TEST(BitmapAllocatorTest, AllocatesContiguous) {
  BitmapAllocator alloc(1024, kBlock);
  auto ext = alloc.Allocate(10 * kBlock);
  ASSERT_TRUE(ext.ok());
  ASSERT_EQ(ext->size(), 1u);
  EXPECT_EQ((*ext)[0].count, 10u);
  EXPECT_EQ(alloc.used_blocks(), 10u);
}

TEST(BitmapAllocatorTest, RoundsUpPartialBlocks) {
  BitmapAllocator alloc(1024, kBlock);
  auto ext = alloc.Allocate(kBlock + 1);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ((*ext)[0].count, 2u);
}

TEST(BitmapAllocatorTest, RejectsZeroBytes) {
  BitmapAllocator alloc(16, kBlock);
  EXPECT_FALSE(alloc.Allocate(0).ok());
}

TEST(BitmapAllocatorTest, ExhaustsAndReports) {
  BitmapAllocator alloc(8, kBlock);
  ASSERT_TRUE(alloc.Allocate(8 * kBlock).ok());
  auto more = alloc.Allocate(kBlock);
  EXPECT_EQ(more.status().code(), ErrorCode::kResourceExhausted);
}

TEST(BitmapAllocatorTest, FreeMakesSpaceImmediatelyReusable) {
  // The property behind Cheetah's compaction-free delete (§4.3.3).
  BitmapAllocator alloc(16, kBlock);
  auto a = alloc.Allocate(16 * kBlock);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(alloc.Allocate(kBlock).ok());
  alloc.Free(*a);
  EXPECT_EQ(alloc.free_blocks(), 16u);
  EXPECT_TRUE(alloc.Allocate(16 * kBlock).ok());
}

TEST(BitmapAllocatorTest, FragmentedAllocationSpansHoles) {
  BitmapAllocator alloc(16, kBlock);
  // Occupy all, free two disjoint 3-block holes.
  auto all = alloc.Allocate(16 * kBlock);
  ASSERT_TRUE(all.ok());
  alloc.Free({Extent(2, 3)});
  alloc.Free({Extent(9, 3)});
  auto ext = alloc.Allocate(6 * kBlock);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(ext->size(), 2u);
  uint64_t total = 0;
  for (const auto& e : *ext) {
    total += e.count;
  }
  EXPECT_EQ(total, 6u);
  EXPECT_EQ(alloc.free_blocks(), 0u);
}

TEST(BitmapAllocatorTest, NoDoubleAllocation) {
  BitmapAllocator alloc(256, kBlock);
  Rng rng(42);
  std::set<uint64_t> owned;
  std::vector<std::vector<Extent>> live;
  for (int round = 0; round < 200; ++round) {
    if (rng.Bernoulli(0.6) || live.empty()) {
      auto ext = alloc.Allocate(rng.UniformRange(1, 8) * kBlock);
      if (!ext.ok()) {
        continue;
      }
      for (const auto& e : *ext) {
        for (uint64_t b = e.block; b < e.block + e.count; ++b) {
          EXPECT_TRUE(owned.insert(b).second) << "block " << b << " double-allocated";
        }
      }
      live.push_back(std::move(*ext));
    } else {
      const size_t idx = rng.Uniform(live.size());
      for (const auto& e : live[idx]) {
        for (uint64_t b = e.block; b < e.block + e.count; ++b) {
          owned.erase(b);
        }
      }
      alloc.Free(live[idx]);
      live.erase(live.begin() + idx);
    }
    EXPECT_EQ(alloc.used_blocks(), owned.size());
  }
}

TEST(BitmapAllocatorTest, MarkAllocatedForRecovery) {
  BitmapAllocator alloc(64, kBlock);
  alloc.MarkAllocated({Extent(10, 5)});
  EXPECT_EQ(alloc.used_blocks(), 5u);
  EXPECT_TRUE(alloc.IsAllocated(12));
  EXPECT_FALSE(alloc.IsAllocated(15));
  // New allocations avoid the recovered extents.
  auto ext = alloc.Allocate(64 * kBlock - 5 * kBlock);
  ASSERT_TRUE(ext.ok());
  for (const auto& e : *ext) {
    EXPECT_TRUE(e.block + e.count <= 10 || e.block >= 15);
  }
}

TEST(BitmapAllocatorTest, SerializeRoundTrip) {
  BitmapAllocator alloc(128, kBlock);
  (void)alloc.Allocate(7 * kBlock);
  alloc.MarkAllocated({Extent(100, 4)});
  auto restored = BitmapAllocator::Deserialize(alloc.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->total_blocks(), 128u);
  EXPECT_EQ(restored->used_blocks(), 11u);
  for (uint64_t b = 0; b < 128; ++b) {
    EXPECT_EQ(restored->IsAllocated(b), alloc.IsAllocated(b)) << "block " << b;
  }
}

// The serialized bitmap format is frozen, and its size is what the log-clean
// cycle charges as §5.2's bitmap sync (SerializedSize). Size and CRC32C were
// recorded from the word-at-a-time encoder this one replaced.
TEST(BitmapAllocatorTest, SerializedBytesAreGolden) {
  BitmapAllocator alloc(100'003, kBlock);
  for (uint64_t i = 1; i <= 40; ++i) {
    ASSERT_TRUE(alloc.Allocate(i * 37 * kBlock + i).ok());
  }
  alloc.Free({Extent(5, 300), Extent(9'000, 1'234), Extent(50'000, 77)});
  alloc.MarkAllocated({Extent(99'990, 13), Extent(64, 64)});
  ASSERT_EQ(alloc.used_blocks(), 28'923u);
  const std::string bytes = alloc.Serialize();
  EXPECT_EQ(bytes.size(), 12'509u);
  EXPECT_EQ(alloc.SerializedSize(), bytes.size());
  EXPECT_EQ(bytes.capacity(), bytes.size());
  EXPECT_EQ(Crc32c(bytes), 529'792'594u);
  auto restored = BitmapAllocator::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->used_blocks(), alloc.used_blocks());
  EXPECT_EQ(restored->Serialize(), bytes);
}

TEST(BitmapAllocatorTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(BitmapAllocator::Deserialize("nonsense").ok());
  EXPECT_FALSE(BitmapAllocator::Deserialize("").ok());
}

TEST(BitmapAllocatorTest, FragmentationMetric) {
  BitmapAllocator alloc(64, kBlock);
  EXPECT_DOUBLE_EQ(alloc.Fragmentation(), 0.0);  // one big run
  auto all = alloc.Allocate(64 * kBlock);
  ASSERT_TRUE(all.ok());
  // Free alternating single blocks: maximal fragmentation.
  std::vector<Extent> holes;
  for (uint64_t b = 0; b < 64; b += 2) {
    holes.emplace_back(b, 1);
  }
  alloc.Free(holes);
  EXPECT_GT(alloc.Fragmentation(), 0.9);
}

TEST(BitmapAllocatorTest, CursorSpreadsAllocations) {
  BitmapAllocator alloc(1024, kBlock);
  auto a = alloc.Allocate(4 * kBlock);
  auto b = alloc.Allocate(4 * kBlock);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)[0].block, (*b)[0].block);
}

}  // namespace
}  // namespace cheetah::alloc
