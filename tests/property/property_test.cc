// Parameterized property sweeps: each suite states an invariant and checks
// it across a grid of configurations and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/alloc/bitmap_allocator.h"
#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/core/pg_state.h"
#include "src/crush/crush.h"
#include "src/kv/db.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "tests/test_util.h"

namespace cheetah {
namespace {

// ---- Allocator: no double allocation, exact accounting, full reuse ----

// The param structs of this file have no padding: gtest prints a param's
// raw bytes into its test name, so a padding byte would put uninitialised
// memory into the names ctest lists. Hence the 64-bit fields below.
struct AllocParam {
  uint64_t total_blocks;
  uint64_t block_size;
  uint64_t seed;
};

class AllocatorProperty : public ::testing::TestWithParam<AllocParam> {};

TEST_P(AllocatorProperty, NeverDoubleAllocatesAndFullyReuses) {
  const AllocParam p = GetParam();
  alloc::BitmapAllocator allocator(p.total_blocks, static_cast<uint32_t>(p.block_size));
  Rng rng(p.seed);
  std::set<uint64_t> owned;
  std::vector<std::vector<alloc::Extent>> live;
  for (int round = 0; round < 500; ++round) {
    if (rng.Bernoulli(0.55) || live.empty()) {
      const uint64_t bytes = rng.UniformRange(1, 12 * p.block_size);
      auto extents = allocator.Allocate(bytes);
      if (!extents.ok()) {
        continue;  // full is fine; corruption is not
      }
      uint64_t got_blocks = 0;
      for (const auto& e : *extents) {
        got_blocks += e.count;
        for (uint64_t b = e.block; b < e.block + e.count; ++b) {
          ASSERT_LT(b, p.total_blocks);
          ASSERT_TRUE(owned.insert(b).second) << "double allocation of block " << b;
        }
      }
      ASSERT_GE(got_blocks * p.block_size, bytes);
      live.push_back(std::move(*extents));
    } else {
      const size_t victim = rng.Uniform(live.size());
      for (const auto& e : live[victim]) {
        for (uint64_t b = e.block; b < e.block + e.count; ++b) {
          owned.erase(b);
        }
      }
      allocator.Free(live[victim]);
      live.erase(live.begin() + victim);
    }
    ASSERT_EQ(allocator.used_blocks(), owned.size());
  }
  // Free everything: the allocator must be able to hand out one max run.
  for (const auto& extents : live) {
    allocator.Free(extents);
  }
  EXPECT_EQ(allocator.free_blocks(), p.total_blocks);
  EXPECT_TRUE(allocator.Allocate(p.total_blocks * p.block_size).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocatorProperty,
    ::testing::Values(AllocParam{64, 4096, 1}, AllocParam{256, 4096, 2},
                      AllocParam{1024, 512, 3}, AllocParam{1024, 65536, 4},
                      AllocParam{4096, 4096, 5}, AllocParam{100, 4096, 6},
                      AllocParam{333, 8192, 7}, AllocParam{2048, 4096, 8}));

class AllocatorSerializeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorSerializeProperty, RoundTripPreservesEveryBit) {
  Rng rng(GetParam());
  alloc::BitmapAllocator allocator(777, 4096);
  for (int i = 0; i < 50; ++i) {
    (void)allocator.Allocate(rng.UniformRange(1, 8) * 4096);
  }
  auto restored = alloc::BitmapAllocator::Deserialize(allocator.Serialize());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->total_blocks(), allocator.total_blocks());
  ASSERT_EQ(restored->used_blocks(), allocator.used_blocks());
  for (uint64_t b = 0; b < allocator.total_blocks(); ++b) {
    ASSERT_EQ(restored->IsAllocated(b), allocator.IsAllocated(b)) << "block " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorSerializeProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---- Allocator: the paged bitmap chooses what one flat bitmap chooses ----

// The reference: one bit per block in a flat vector, scanned block by block
// with the allocator's documented policy (first fitting run from a rotating
// cursor, wrapping once; else greedy fragments from block 0).
class FlatBitmap {
 public:
  FlatBitmap(uint64_t total, uint32_t block_size)
      : total_(total), block_size_(block_size), free_(total), used_(total) {}

  uint64_t free_blocks() const { return free_; }
  bool IsAllocated(uint64_t b) const { return used_[b]; }

  void Set(const std::vector<alloc::Extent>& extents, bool used) {
    for (const auto& e : extents) {
      for (uint64_t b = e.block; b < e.block + e.count; ++b) {
        if (used_[b] != used) {
          used_[b] = used;
          used ? --free_ : ++free_;
        }
      }
    }
  }

  Result<std::vector<alloc::Extent>> Allocate(uint64_t bytes) {
    const uint64_t want = (bytes + block_size_ - 1) / block_size_;
    if (want == 0) {
      return Status::InvalidArgument("zero-byte allocation");
    }
    if (want > free_) {
      return Status::ResourceExhausted("volume full");
    }
    auto scan = [&](uint64_t from, uint64_t to) -> uint64_t {
      uint64_t run = 0;
      for (uint64_t b = from; b < to; ++b) {
        run = used_[b] ? 0 : run + 1;
        if (run >= want) {
          return b + 1 - run;
        }
      }
      return total_;
    };
    uint64_t start = scan(cursor_, total_);
    if (start == total_ && cursor_ > 0) {
      start = scan(0, std::min(cursor_ + want, total_));
    }
    std::vector<alloc::Extent> extents;
    if (start != total_) {
      extents.emplace_back(start, want);
    } else {
      uint64_t remaining = want;
      for (uint64_t b = 0; b < total_ && remaining > 0;) {
        if (used_[b]) {
          ++b;
          continue;
        }
        uint64_t end = b;
        while (end < total_ && !used_[end]) {
          ++end;
        }
        extents.emplace_back(b, std::min(end - b, remaining));
        remaining -= extents.back().count;
        b = end;
      }
      if (remaining > 0) {
        return Status::ResourceExhausted("volume full (fragmented)");
      }
    }
    Set(extents, true);
    cursor_ = (extents.back().block + extents.back().count) % total_;
    return extents;
  }

  double Fragmentation() const {
    if (free_ == 0) {
      return 0.0;
    }
    uint64_t largest = 0;
    uint64_t run = 0;
    for (uint64_t b = 0; b < total_; ++b) {
      run = used_[b] ? 0 : run + 1;
      largest = std::max(largest, run);
    }
    return 1.0 - static_cast<double>(largest) / static_cast<double>(free_);
  }

  // varint total | varint block size | one fixed64 per 64 blocks.
  std::string Serialize() const {
    std::string out;
    PutVarint64(&out, total_);
    PutVarint64(&out, block_size_);
    for (uint64_t w = 0; w < (total_ + 63) / 64; ++w) {
      uint64_t word = 0;
      for (uint64_t b = w * 64; b < std::min(total_, w * 64 + 64); ++b) {
        word |= static_cast<uint64_t>(used_[b]) << (b % 64);
      }
      PutFixed64(&out, word);
    }
    return out;
  }

 private:
  uint64_t total_;
  uint32_t block_size_;
  uint64_t free_;
  uint64_t cursor_ = 0;
  std::vector<bool> used_;
};

struct AllocModelParam {
  uint64_t total_blocks;
  uint64_t max_request_blocks;
  int steps;
  int full_check_every;  // Fragmentation and Serialize are O(volume) here
  uint64_t seed;
};

class AllocatorModelProperty : public ::testing::TestWithParam<AllocModelParam> {};

TEST_P(AllocatorModelProperty, PagedBitmapMatchesAFlatModel) {
  const AllocModelParam p = GetParam();
  constexpr uint32_t kBlock = 4096;
  alloc::BitmapAllocator allocator(p.total_blocks, kBlock);
  FlatBitmap model(p.total_blocks, kBlock);
  Rng rng(p.seed);
  std::vector<std::vector<alloc::Extent>> live;
  std::vector<uint64_t> probes;  // blocks next to what each step touched
  constexpr uint64_t kPage = alloc::BitmapAllocator::kPageBlocks;
  auto random_extent = [&] {
    const uint64_t count = rng.UniformRange(1, std::min(p.max_request_blocks, p.total_blocks));
    uint64_t start = rng.Uniform(p.total_blocks - count + 1);
    if (p.total_blocks > kPage && rng.Bernoulli(0.5)) {
      // Straddle a page edge, where a range leaves one page for the next.
      const uint64_t edge = kPage * rng.UniformRange(1, (p.total_blocks - 1) / kPage);
      start = std::min(edge - std::min(edge, rng.Uniform(count)), p.total_blocks - count);
    }
    return alloc::Extent(start, count);
  };
  auto note = [&](const std::vector<alloc::Extent>& extents) {
    for (const auto& e : extents) {
      for (uint64_t b : {e.block, e.block + e.count - 1, e.block + e.count}) {
        probes.push_back(std::min(b, p.total_blocks - 1));
      }
      if (e.block > 0) {
        probes.push_back(e.block - 1);
      }
    }
  };
  uint64_t fragmented = 0;
  for (int step = 0; step < p.steps; ++step) {
    probes.clear();
    const double dice = rng.NextDouble();
    if (dice < 0.45 || live.empty()) {
      const uint64_t bytes = rng.UniformRange(1, p.max_request_blocks * kBlock);
      auto got = allocator.Allocate(bytes);
      auto want = model.Allocate(bytes);
      ASSERT_EQ(got.status().code(), want.status().code()) << "step " << step;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << "step " << step << ": " << bytes << " bytes";
        fragmented += got->size() > 1 ? 1 : 0;
        note(*got);
        live.push_back(std::move(*got));
      }
    } else if (dice < 0.7) {
      const size_t victim = rng.Uniform(live.size());
      allocator.Free(live[victim]);
      model.Set(live[victim], false);
      note(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      // Recovery re-marks, or a stray free of blocks that may already be
      // free or owned by a live allocation: both must agree either way.
      const std::vector<alloc::Extent> extents = {random_extent()};
      if (rng.Bernoulli(0.6)) {
        allocator.MarkAllocated(extents);
        model.Set(extents, true);
      } else {
        allocator.Free(extents);
        model.Set(extents, false);
      }
      note(extents);
    }
    ASSERT_EQ(allocator.free_blocks(), model.free_blocks()) << "step " << step;
    for (int i = 0; i < 16; ++i) {
      probes.push_back(rng.Uniform(p.total_blocks));
    }
    for (uint64_t b : probes) {
      ASSERT_EQ(allocator.IsAllocated(b), model.IsAllocated(b)) << "step " << step << " block " << b;
    }
    if (step % p.full_check_every == 0 || step + 1 == p.steps) {
      ASSERT_EQ(allocator.Fragmentation(), model.Fragmentation()) << "step " << step;
      const std::string bytes = allocator.Serialize();
      ASSERT_EQ(bytes, model.Serialize()) << "step " << step;
      auto restored = alloc::BitmapAllocator::Deserialize(bytes);
      ASSERT_TRUE(restored.ok());
      ASSERT_EQ(restored->free_blocks(), model.free_blocks());
      ASSERT_EQ(restored->Serialize(), bytes);
    }
  }
  if (p.total_blocks < 200'000) {
    EXPECT_GT(fragmented, 0u) << "the fragmented path never ran";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocatorModelProperty,
    ::testing::Values(AllocModelParam{300, 24, 1500, 1, 1},        // one partial page
                      AllocModelParam{300, 24, 1500, 1, 2},
                      AllocModelParam{3 * alloc::BitmapAllocator::kPageBlocks + 100, 4000,
                                      1200, 10, 3},               // pages fill and drain
                      AllocModelParam{3 * alloc::BitmapAllocator::kPageBlocks + 100, 4000,
                                      1200, 10, 4},
                      AllocModelParam{(8ull << 30) / 4096, 40'000, 400, 50, 5},  // 8 GiB LV
                      AllocModelParam{(8ull << 30) / 4096, 40'000, 400, 50, 6}));

TEST(AllocatorPagesTest, SequentialAllocationsOnAn8GiBVolumeStayInTwoPages) {
  alloc::BitmapAllocator allocator((8ull << 30) / 4096, 4096);
  EXPECT_EQ(allocator.resident_pages(), 0u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(allocator.Allocate(8 * 4096).ok());
  }
  EXPECT_EQ(allocator.used_blocks(), 8000u);
  EXPECT_LE(allocator.resident_pages(), 2u);
  // Freeing everything releases the pages again.
  allocator.Free({alloc::Extent(0, 8000)});
  EXPECT_EQ(allocator.resident_pages(), 0u);
}

// ---- CRUSH: determinism, distinctness, minimal remap across sizes ----

struct CrushParam {
  int servers;
  uint32_t replicas;
};

class CrushProperty : public ::testing::TestWithParam<CrushParam> {};

TEST_P(CrushProperty, DistinctDeterministicMinimalRemap) {
  const CrushParam p = GetParam();
  crush::Map map;
  for (int i = 0; i < p.servers; ++i) {
    map.AddItem(100 + i);
  }
  for (uint32_t pg = 0; pg < 512; ++pg) {
    auto a = map.Select(pg, p.replicas);
    auto b = map.Select(pg, p.replicas);
    ASSERT_EQ(a, b) << "nondeterministic selection for pg " << pg;
    std::set<crush::ItemId> unique(a.begin(), a.end());
    ASSERT_EQ(unique.size(), a.size()) << "duplicate replica for pg " << pg;
    ASSERT_EQ(a.size(), std::min<size_t>(p.replicas, p.servers));
  }
  // Adding one server must never shuffle a PG between two old servers.
  crush::Map bigger = map;
  bigger.AddItem(999);
  int moved = 0;
  for (uint32_t pg = 0; pg < 512; ++pg) {
    const crush::ItemId before = map.Primary(pg);
    const crush::ItemId after = bigger.Primary(pg);
    if (before != after) {
      ++moved;
      ASSERT_EQ(after, 999u) << "pg " << pg << " moved between pre-existing servers";
    }
  }
  // Expected movement ~ 512/(n+1); allow a generous band.
  const double expected = 512.0 / (p.servers + 1);
  EXPECT_LT(moved, expected * 2.5);
  if (p.servers < 24) {
    EXPECT_GT(moved, expected * 0.3);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrushProperty,
                         ::testing::Values(CrushParam{3, 3}, CrushParam{4, 3},
                                           CrushParam{6, 3}, CrushParam{9, 3},
                                           CrushParam{12, 3}, CrushParam{9, 1},
                                           CrushParam{9, 5}, CrushParam{30, 3}));

// ---- KV store: acked writes survive any power-loss instant ----

struct KvParam {
  uint64_t memtable_bytes;
  int64_t trigger;
  Nanos cut_after;
  uint64_t seed;
};

class KvDurabilityProperty : public ::testing::TestWithParam<KvParam> {};

TEST_P(KvDurabilityProperty, AckedWritesSurvivePowerLoss) {
  const KvParam p = GetParam();
  sim::EventLoop loop;
  sim::Actor actor(loop);
  sim::Storage storage(loop, sim::DiskParams{});

  // Writer records exactly which keys were acked before the cut.
  auto acked = std::make_shared<std::map<std::string, std::string>>();
  auto deleted = std::make_shared<std::set<std::string>>();
  actor.Spawn([](sim::Storage* storage, kv::Options opts, uint64_t seed,
                 std::shared_ptr<std::map<std::string, std::string>> acked,
                 std::shared_ptr<std::set<std::string>> deleted) -> sim::Task<> {
    auto db = co_await kv::DB::Open(std::move(opts), storage);
    if (!db.ok()) {
      co_return;
    }
    Rng rng(seed);
    for (int i = 0; i < 3000; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(400));
      if (rng.Bernoulli(0.8)) {
        const std::string value = "v" + std::to_string(i);
        if ((co_await (*db)->Put(key, value)).ok()) {
          (*acked)[key] = value;
          deleted->erase(key);
        }
      } else {
        if ((co_await (*db)->Delete(key)).ok()) {
          acked->erase(key);
          deleted->insert(key);
        }
      }
    }
  }(&storage, [&] {
      kv::Options o;
      o.memtable_bytes = p.memtable_bytes;
      o.l0_compaction_trigger = static_cast<int>(p.trigger);
      return o;
    }(), p.seed, acked, deleted));

  loop.RunFor(p.cut_after);  // power fails mid-stream
  actor.Kill();
  storage.PowerLoss();
  actor.Revive();

  // Reopen and verify every acked write (and no resurrections).
  auto checked = std::make_shared<bool>(false);
  actor.Spawn([](sim::Storage* storage,
                 std::shared_ptr<std::map<std::string, std::string>> acked,
                 std::shared_ptr<std::set<std::string>> deleted,
                 std::shared_ptr<bool> checked) -> sim::Task<> {
    auto db = co_await kv::DB::Open(kv::Options{}, storage);
    CO_ASSERT_OK(db);
    for (const auto& [key, value] : *acked) {
      auto got = co_await (*db)->Get(key);
      if (!got.ok()) {
        ADD_FAILURE() << "acked key lost: " << key;
        continue;
      }
      EXPECT_EQ(*got, value) << key;
    }
    for (const auto& key : *deleted) {
      auto got = co_await (*db)->Get(key);
      EXPECT_TRUE(got.status().IsNotFound()) << "deleted key resurrected: " << key;
    }
    *checked = true;
  }(&storage, acked, deleted, checked));
  loop.Run();
  EXPECT_TRUE(*checked);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KvDurabilityProperty,
    ::testing::Values(KvParam{4096, 3, Millis(3), 1}, KvParam{4096, 3, Millis(11), 2},
                      KvParam{2048, 2, Millis(7), 3}, KvParam{16384, 4, Millis(5), 4},
                      KvParam{MiB(64), 4, Millis(9), 5}, KvParam{1024, 1, Millis(13), 6},
                      KvParam{8192, 2, Millis(2), 7}, KvParam{4096, 3, Millis(40), 8}));

// ---- KV store: matches a std::map model through flush, compaction, crash ----

struct KvModelParam {
  uint64_t memtable_bytes;
  int64_t trigger;
  uint64_t seed;
};

class KvModelProperty : public ::testing::TestWithParam<KvModelParam> {};

using KvModel = std::map<std::string, std::string>;

// Every Get, Scan and CountLiveEntries answer of `db` agrees with `model`.
sim::Task<> CheckAgainstModel(kv::DB* db, const KvModel* model, int keys) {
  for (int k = 0; k < keys; ++k) {
    for (const char* prefix : {"a/", "b/"}) {
      const std::string key = prefix + std::to_string(k);
      auto got = co_await db->Get(key);
      auto want = model->find(key);
      if (want == model->end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key << " resurrected";
      } else {
        EXPECT_EQ(got.value_or("<missing>"), want->second) << key;
      }
    }
  }
  for (const std::string prefix : {"", "a/", "b/1"}) {
    auto scan = co_await db->Scan(prefix, 0);
    CO_ASSERT_OK(scan);
    KvModel want;
    for (const auto& [k, v] : *model) {
      if (k.starts_with(prefix)) {
        want.emplace(k, v);
      }
    }
    EXPECT_EQ(KvModel(scan->begin(), scan->end()), want) << "scan '" << prefix << "'";
    EXPECT_TRUE(std::is_sorted(scan->begin(), scan->end()));
  }
  auto limited = co_await db->Scan("a/", 3);
  CO_ASSERT_OK(limited);
  EXPECT_EQ(limited->size(), std::min<size_t>(3, std::count_if(model->begin(), model->end(),
                                                               [](const auto& kv) {
                                                                 return kv.first.starts_with("a/");
                                                               })));
  EXPECT_EQ(db->CountLiveEntries(), model->size());
}

TEST_P(KvModelProperty, GetScanAndCountMatchAMapModel) {
  const KvModelParam p = GetParam();
  constexpr int kKeys = 24;  // per prefix: overwrites and deletes are common
  constexpr int kRounds = 4;
  constexpr int kStepsPerRound = 120;
  sim::EventLoop loop;
  sim::Actor actor(loop);
  sim::Storage storage(loop, sim::DiskParams{});
  kv::Options options;
  options.memtable_bytes = p.memtable_bytes;
  options.l0_compaction_trigger = static_cast<int>(p.trigger);
  KvModel model;
  Rng rng(p.seed);
  uint64_t compactions = 0;
  std::unique_ptr<kv::DB> db;

  for (int round = 0; round < kRounds; ++round) {
    bool done = false;
    actor.Spawn([](sim::Storage* storage, kv::Options options, std::unique_ptr<kv::DB>* db,
                   KvModel* model, Rng* rng, uint64_t* compactions, bool* done) -> sim::Task<> {
      auto opened = co_await kv::DB::Open(options, storage);
      CO_ASSERT_OK(opened);
      *db = std::move(*opened);
      // Everything acked before the power loss is back.
      co_await CheckAgainstModel(db->get(), model, kKeys);
      auto key = [rng] {
        return (rng->Bernoulli(0.5) ? "a/" : "b/") + std::to_string(rng->Uniform(kKeys));
      };
      auto value = [rng](int step) {
        const uint64_t len = rng->Bernoulli(0.1) ? 0 : rng->UniformRange(1, 300);
        return std::to_string(step) + std::string(len, static_cast<char>('a' + step % 26));
      };
      for (int step = 0; step < kStepsPerRound; ++step) {
        kv::WriteBatch batch;
        KvModel next = *model;
        const int ops = rng->Bernoulli(0.3) ? static_cast<int>(rng->UniformRange(2, 5)) : 1;
        for (int op = 0; op < ops; ++op) {
          // A batch may touch one key twice; its last op wins.
          const std::string k = key();
          if (rng->Bernoulli(0.7)) {
            const std::string v = value(step);
            batch.Put(k, v);
            next[k] = v;
          } else {
            batch.Delete(k);
            next.erase(k);
          }
        }
        EXPECT_TRUE((co_await (*db)->Write(std::move(batch))).ok());
        *model = std::move(next);
        co_await CheckAgainstModel(db->get(), model, kKeys);
      }
      *compactions += (*db)->stats().compactions.value();
      *done = true;
    }(&storage, options, &db, &model, &rng, &compactions, &done));
    while (!done && loop.RunOne()) {
    }
    ASSERT_TRUE(done);
    // Power fails, maybe mid-flush or mid-compaction.
    db.reset();
    actor.Kill();
    storage.PowerLoss();
    actor.Revive();
  }
  // Tiny memtables: flushes, compactions and the L1 fold (which drops
  // tombstones) all ran.
  EXPECT_GE(compactions, 9u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KvModelProperty,
                         ::testing::Values(KvModelParam{512, 2, 1}, KvModelParam{1024, 1, 2},
                                           KvModelParam{768, 3, 3}, KvModelParam{2048, 2, 4},
                                           KvModelParam{512, 1, 5}, KvModelParam{1024, 2, 6}));

// ---- PgState: ticketed pending-put transitions against a map model ----

class PgStateModelProperty : public ::testing::TestWithParam<uint64_t> {};

using core::PendingPut;
using core::PgState;
using core::PutState;
using core::ReqId;

// What the model expects of one pending put.
struct ModelPut {
  std::string name;
  uint64_t generation = 0;
  PutState state = PutState::kAllocated;
  PgState::Placement placement;
};

bool Uncommitted(PutState s) { return s == PutState::kAllocated || s == PutState::kPersisted; }
bool Committed(PutState s) { return s == PutState::kCommitted || s == PutState::kSettled; }

// Random interleavings of alloc, persisted, commit, RE-DATA relocate,
// verify-complete, begin/finish-revoke, forget, retire and rebuild-insert on
// one PgState, each applied through a randomly stale ticket, must match a
// plain map model: a stale ticket changes nothing, a committed put is never
// revoked, the name index holds exactly the uncommitted puts, and every
// block is freed at most once per allocation (two small volumes reuse freed
// blocks at once, so a second free would release a live put's blocks).
TEST_P(PgStateModelProperty, TicketedTransitionsMatchAMapModel) {
  cluster::TopologyMap topo;
  topo.pg_count = 1;
  for (cluster::LvId id : {1u, 2u}) {
    cluster::LogicalVolume lv;
    lv.id = id;
    lv.capacity_bytes = 24 * 4096;
    topo.lvs[id] = lv;
    topo.vgs[0].push_back(id);
  }
  PgState state(topo, /*no_volume_groups=*/false);
  Rng rng(GetParam());
  std::map<ReqId, ModelPut> model;
  std::vector<PgState::Ticket> issued;  // every ticket handed out, most stale
  std::set<std::pair<ReqId, uint64_t>> ever_committed;  // (reqid, generation)
  const std::vector<std::string> names = {"a", "b", "c", "d", "e"};
  ReqId next_reqid = 1;
  int applied = 0;
  int refused = 0;

  auto live = [&](PgState::Ticket t) -> ModelPut* {
    auto it = model.find(t.reqid);
    return it != model.end() && it->second.generation == t.generation ? &it->second : nullptr;
  };
  auto held_by = [&](const std::string& name) -> const ModelPut* {
    for (const auto& [reqid, m] : model) {
      if (m.name == name && !Committed(m.state)) {
        return &m;
      }
    }
    return nullptr;
  };
  // Half the time the current ticket of a live put, else any ticket issued.
  auto random_ticket = [&]() -> PgState::Ticket {
    if (!model.empty() && rng.Bernoulli(0.5)) {
      auto it = std::next(model.begin(), static_cast<long>(rng.Uniform(model.size())));
      return {it->first, it->second.generation};
    }
    return issued.empty() ? PgState::Ticket{} : issued[rng.Uniform(issued.size())];
  };
  auto allocate = [&]() { return state.Allocate(0, rng.UniformRange(1, 3) * 4096); };
  auto add = [&](ReqId reqid, const std::string& name, PgState::Placement placement) {
    PendingPut p;
    p.reqid = reqid;
    p.name = name;
    p.meta.lvid = placement.first;
    p.meta.extents = placement.second;
    return p;
  };
  auto check = [&](int step) {
    ASSERT_EQ(state.pending().size(), model.size()) << "step " << step;
    std::map<cluster::LvId, uint64_t> held;
    for (const auto& [reqid, m] : model) {
      const PendingPut* p = state.Find(reqid);
      ASSERT_NE(p, nullptr) << "step " << step << " reqid " << reqid;
      EXPECT_EQ(p->name, m.name);
      EXPECT_EQ(p->generation, m.generation);
      EXPECT_EQ(p->state, m.state) << "step " << step << " reqid " << reqid;
      EXPECT_EQ(p->meta.lvid, m.placement.first);
      EXPECT_EQ(p->meta.extents, m.placement.second);
      for (const alloc::Extent& e : m.placement.second) {
        held[m.placement.first] += e.count;
        for (uint64_t b = e.block; b < e.block + e.count; ++b) {
          ASSERT_TRUE(state.AllocatorFor(m.placement.first)->IsAllocated(b))
              << "step " << step << ": block " << b << " of live put " << reqid << " is free";
        }
      }
    }
    for (cluster::LvId lv : {1u, 2u}) {
      EXPECT_EQ(state.AllocatorFor(lv)->used_blocks(), held[lv]) << "step " << step;
    }
    for (const std::string& name : names) {
      const ModelPut* want = held_by(name);
      const PendingPut* got = state.FindByName(name);
      ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step << " name " << name;
      if (got != nullptr) {
        EXPECT_EQ(got->generation, want->generation) << "step " << step << " name " << name;
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const PgState::Ticket t = random_ticket();
    ModelPut* m = live(t);
    bool expect = false;
    bool got = false;
    switch (rng.Uniform(10)) {
      case 0:
      case 1: {  // PutAlloc: a fresh put of a name no uncommitted put holds
        const std::string& name = names[rng.Uniform(names.size())];
        auto placement = allocate();
        if (held_by(name) != nullptr || !placement.ok()) {
          if (placement.ok()) {
            state.Free(placement->first, placement->second);
          }
          continue;
        }
        const PgState::Ticket fresh = state.Add(add(next_reqid, name, *placement));
        model[next_reqid++] = {name, fresh.generation, PutState::kAllocated, *placement};
        issued.push_back(fresh);
        expect = got = true;
        break;
      }
      case 2: {  // MetaX persist finished (or failed)
        const bool ok = rng.Bernoulli(0.8);
        expect = m != nullptr && m->state != PutState::kRevoking;
        got = state.SetPersisted(t, ok);
        if (expect) {
          m->state = Committed(m->state) ? (ok ? PutState::kSettled : PutState::kCommitted)
                                         : (ok ? PutState::kPersisted : PutState::kAllocated);
        }
        break;
      }
      case 3: {  // the proxy's commit, by reqid only
        auto it = model.find(t.reqid);
        expect = it != model.end() && it->second.state != PutState::kRevoking;
        got = state.Commit(t.reqid);
        if (expect && Uncommitted(it->second.state)) {
          it->second.state = it->second.state == PutState::kPersisted ? PutState::kSettled
                                                                      : PutState::kCommitted;
        }
        break;
      }
      case 4: {  // RE-DATA moves an uncommitted put
        auto placement = allocate();
        if (!placement.ok()) {
          continue;
        }
        expect = m != nullptr && Uncommitted(m->state);
        auto moved = state.Relocate(t, *placement);
        got = moved.has_value();
        if (expect) {
          m->placement = *placement;
          m->generation = moved->generation;
          issued.push_back(*moved);
        } else {
          state.Free(placement->first, placement->second);
        }
        break;
      }
      case 5: {  // verification found the data in place
        expect = m != nullptr && Uncommitted(m->state);
        got = state.Complete(t);
        if (expect) {
          m->state = m->state == PutState::kPersisted ? PutState::kSettled : PutState::kCommitted;
        }
        break;
      }
      case 6: {  // verification found no data: revoke, maybe finishing later
        expect = m != nullptr && Uncommitted(m->state);
        got = state.BeginRevoke(t) != nullptr;
        if (expect) {
          m->state = PutState::kRevoking;
        }
        break;
      }
      case 7: {  // a revoke's tombstone persisted: free and erase
        expect = m != nullptr && m->state == PutState::kRevoking;
        auto erased = state.FinishRevoke(t);
        got = erased.has_value();
        if (got) {
          EXPECT_FALSE(ever_committed.contains({t.reqid, t.generation}))
              << "committed put " << t.reqid << " was revoked";
        }
        if (expect) {
          model.erase(t.reqid);
        }
        break;
      }
      case 8: {  // verify found no record (forget), or the cleaner retires
        if (rng.Bernoulli(0.5)) {
          expect = m != nullptr && Uncommitted(m->state);
          got = state.Forget(t);
          if (expect) {
            state.Free(m->placement.first, m->placement.second);  // its record is gone
            model.erase(t.reqid);
          }
        } else {
          expect = m != nullptr && Committed(m->state);
          got = state.Retire(t).has_value();
          if (expect) {
            state.Free(m->placement.first, m->placement.second);  // a later delete
            model.erase(t.reqid);
          }
        }
        break;
      }
      case 9: {  // a PG rebuild re-inserts a put from its log record
        const ReqId reqid = rng.Bernoulli(0.5) && !issued.empty() ? t.reqid : next_reqid;
        const std::string& name = names[rng.Uniform(names.size())];
        auto placement = allocate();  // the scan marked the record's blocks
        if (!placement.ok()) {
          continue;
        }
        expect = !model.contains(reqid) && held_by(name) == nullptr;
        got = state.AddRecovered(add(reqid, name, *placement));
        if (expect) {
          const PendingPut* p = state.Find(reqid);
          ASSERT_NE(p, nullptr);
          EXPECT_TRUE(p->recovered);
          model[reqid] = {name, p->generation, PutState::kPersisted, *placement};
          issued.push_back(PgState::TicketOf(*p));
          next_reqid = std::max(next_reqid, reqid + 1);
        } else {
          state.Free(placement->first, placement->second);
        }
        break;
      }
    }
    ASSERT_EQ(got, expect) << "step " << step << " ticket " << t.reqid << "@" << t.generation;
    (got ? applied : refused)++;
    for (const auto& [reqid, mp] : model) {
      if (Committed(mp.state)) {
        ever_committed.insert({reqid, mp.generation});
      }
    }
    check(step);
  }
  // Both sides of the rules were exercised.
  EXPECT_GT(applied, 400) << refused;
  EXPECT_GT(refused, 400) << applied;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PgStateModelProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- Deterministic RNG and zipf-free distributions ----

class RngProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngProperty, UniformIsUnbiasedAcrossBuckets) {
  Rng rng(GetParam());
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    buckets[rng.Uniform(10)]++;
  }
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b] / static_cast<double>(n), 0.1, 0.01) << "bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngProperty, ::testing::Values(1, 7, 42, 1337, 0xdead));

}  // namespace
}  // namespace cheetah
