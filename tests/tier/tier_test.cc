// Storage-class tiering (src/tier): inline small objects, background
// demotion of cold replica objects to K+M erasure-coded stripes, degraded
// reads with reconstruction repair, and demotion racing foreground ops.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/crc32c.h"
#include "src/common/random.h"
#include "src/core/scrubber.h"
#include "src/core/testbed.h"
#include "src/tier/engine.h"
#include "src/tier/policy.h"
#include "src/tier/striper.h"

namespace cheetah::core {
namespace {

std::string RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (auto& c : out) {
    c = static_cast<char>(rng.Uniform(256));
  }
  return out;
}

// Enough PVs for 8 replica LVs (3 PVs each) plus 8 RS(2,1) stripes (3 PVs
// each): 4 machines x 2 disks x 6 PVs = 48.
TestbedConfig EcConfig() {
  TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 2;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 6;
  config.lv_capacity_bytes = MiB(128);
  config.options.tier.ec_k = 2;
  config.options.tier.ec_m = 1;
  config.options.tier.min_ec_object_bytes = 4096;
  config.options.tier.demote_after = Millis(200);
  return config;
}

void TierAllNow(Testbed& bed) {
  auto pending = std::make_shared<int>(bed.num_meta());
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.meta_machine(i).actor().Spawn(
        [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->TierNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  while (*pending > 0 && bed.loop().RunOne()) {
  }
}

void ScrubAllNow(Testbed& bed) {
  auto pending = std::make_shared<int>(bed.num_meta());
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.meta_machine(i).actor().Spawn(
        [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->ScrubNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  while (*pending > 0 && bed.loop().RunOne()) {
  }
}

struct TierTotals {
  uint64_t demotions = 0;
  uint64_t bytes_demoted = 0;
};
TierTotals TierStats(Testbed& bed) {
  TierTotals sum;
  for (int i = 0; i < bed.num_meta(); ++i) {
    const auto& s = bed.meta(i).tier_engine().stats();
    sum.demotions += s.demotions.value();
    sum.bytes_demoted += s.bytes_demoted.value();
  }
  return sum;
}

uint64_t DataWrites(Testbed& bed) {
  uint64_t writes = 0;
  for (int i = 0; i < bed.num_data(); ++i) {
    writes += bed.data(i).stats().writes.value();
  }
  return writes;
}

TEST(TierPolicyTest, ClassAndDemotionRules) {
  TierOptions t;
  t.inline_threshold = 1024;
  t.ec_k = 4;
  t.ec_m = 2;
  t.min_ec_object_bytes = 8192;
  t.demote_after = Seconds(1);
  EXPECT_EQ(tier::ChooseClass(t, 100), StorageClass::kInline);
  EXPECT_EQ(tier::ChooseClass(t, 1024), StorageClass::kInline);
  EXPECT_EQ(tier::ChooseClass(t, 1025), StorageClass::kReplica);
  t.inline_threshold = 0;
  EXPECT_EQ(tier::ChooseClass(t, 100), StorageClass::kReplica);

  EXPECT_FALSE(tier::EligibleForDemotion(t, 8192, Nanos{0}, Millis(500)));  // hot
  EXPECT_TRUE(tier::EligibleForDemotion(t, 8192, Nanos{0}, Seconds(2)));
  EXPECT_FALSE(tier::EligibleForDemotion(t, 8191, Nanos{0}, Seconds(2)));  // small
  t.ec_k = 0;
  EXPECT_FALSE(tier::EligibleForDemotion(t, 8192, Nanos{0}, Seconds(2)));  // no EC
}

TEST(TierTest, InlinePutServedFromMetaXWithoutDataWrites) {
  TestbedConfig config = EcConfig();
  config.options.tier.inline_threshold = 2048;
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());

  const std::string payload = RandomData(777, 11);
  const uint64_t writes_before = DataWrites(bed);
  ASSERT_TRUE(bed.PutObject(0, "tiny", payload).ok());
  EXPECT_EQ(DataWrites(bed), writes_before) << "inline put touched the data plane";
  EXPECT_EQ(bed.proxy(0).stats().inline_puts.value(), 1u);

  // Both the putting proxy (cache hit) and a cold proxy (GetMeta carries the
  // payload) read it back byte-identically.
  for (int p = 0; p < 2; ++p) {
    auto got = bed.GetObject(p, "tiny");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, payload);
  }
  EXPECT_EQ(DataWrites(bed), writes_before);

  // Above the threshold the replica path still runs.
  ASSERT_TRUE(bed.PutObject(0, "big", RandomData(8192, 12)).ok());
  EXPECT_GT(DataWrites(bed), writes_before);
  EXPECT_EQ(bed.proxy(0).stats().inline_puts.value(), 1u);

  // Inline objects survive settle + scrub + delete like any other.
  bed.RunFor(Seconds(2));
  ScrubAllNow(bed);
  auto got = bed.GetObject(1, "tiny");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  ASSERT_TRUE(bed.DeleteObject(0, "tiny").ok());
  EXPECT_TRUE(bed.GetObject(1, "tiny").status().IsNotFound());
}

TEST(TierTest, ColdObjectDemotesToEcAndReadsBack) {
  Testbed bed(EcConfig());
  ASSERT_TRUE(bed.Boot().ok());

  const std::string payload = RandomData(65536, 21);
  ASSERT_TRUE(bed.PutObject(0, "cold", payload).ok());
  bed.RunFor(Seconds(2));  // settle, and age past demote_after

  TierAllNow(bed);
  auto ts = TierStats(bed);
  EXPECT_EQ(ts.demotions, 1u);
  EXPECT_EQ(ts.bytes_demoted, payload.size());

  // Reads are byte-identical from both proxies: the putter's stale cached
  // replica metadata falls back to the authoritative EC record, and the cold
  // proxy reads the stripe directly.
  for (int p = 0; p < 2; ++p) {
    for (int trial = 0; trial < 3; ++trial) {
      auto got = bed.GetObject(p, "cold");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, payload);
    }
  }
  EXPECT_EQ(bed.proxy(1).stats().ec_degraded_reads.value(), 0u) << "healthy stripe read degraded";

  // A demoted object is not re-demoted, and the scrubber audits the stripe.
  TierAllNow(bed);
  EXPECT_EQ(TierStats(bed).demotions, 1u);
  ScrubAllNow(bed);
  uint64_t corrupt = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  EXPECT_EQ(corrupt, 0u);

  // Delete of an EC object sticks.
  ASSERT_TRUE(bed.DeleteObject(1, "cold").ok());
  EXPECT_TRUE(bed.GetObject(0, "cold").status().IsNotFound());
}

TEST(TierTest, DegradedReadReconstructsAndRepairsChunk) {
  Testbed bed(EcConfig());
  ASSERT_TRUE(bed.Boot().ok());

  const std::string payload = RandomData(65536, 31);
  ASSERT_TRUE(bed.PutObject(0, "striped", payload).ok());
  bed.RunFor(Seconds(2));
  TierAllNow(bed);
  ASSERT_EQ(TierStats(bed).demotions, 1u);

  // Corrupt every extent of exactly one stripe chunk (one PV of an ec_stripe
  // LV that actually holds data).
  const auto& topo = bed.meta(0).topology();
  int corrupted_chunks = 0;
  for (const auto& [lv_id, lv] : topo.lvs) {
    if (!lv.ec_stripe || corrupted_chunks > 0) {
      continue;
    }
    for (cluster::PvId pv_id : lv.replicas) {
      const cluster::PhysicalVolume* pv = topo.FindPv(pv_id);
      ASSERT_NE(pv, nullptr);
      for (int d = 0; d < bed.num_data(); ++d) {
        auto& machine = bed.data_machine(d);
        if (pv->data_server != machine.node_id()) {
          continue;
        }
        auto extents = machine.disk(pv->disk_index).ListVolumeExtents(pv->DeviceName());
        if (extents.empty()) {
          continue;
        }
        for (const auto& info : extents) {
          ASSERT_TRUE(machine.disk(pv->disk_index).CorruptExtent(pv->DeviceName(), info.offset));
        }
        ++corrupted_chunks;
        break;
      }
      if (corrupted_chunks > 0) {
        break;
      }
    }
  }
  ASSERT_EQ(corrupted_chunks, 1) << "no stripe chunk found to damage";

  // The get still returns the exact bytes (reconstruction from the k healthy
  // chunks) and spawns the background chunk rewrite.
  auto got = bed.GetObject(1, "striped");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
  const uint64_t degraded_first = bed.proxy(1).stats().ec_degraded_reads.value();
  // The damaged chunk might be parity, in which case the fast path never saw
  // it; scrub it out below either way. If a data chunk was hit, the read was
  // degraded and repaired.
  if (degraded_first > 0) {
    EXPECT_GT(bed.proxy(1).stats().corrupt_replica_reads.value(), 0u);
    bed.RunFor(Seconds(1));  // fire-and-forget repair lands
    EXPECT_GT(bed.proxy(1).stats().ec_chunk_repairs.value(), 0u);
    auto again = bed.GetObject(1, "striped");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, payload);
    EXPECT_EQ(bed.proxy(1).stats().ec_degraded_reads.value(), degraded_first)
        << "chunk repair did not stick";
  }

  // The scrubber rebuilds whatever the reads did not touch; a second pass is
  // clean.
  ScrubAllNow(bed);
  bed.RunFor(Seconds(1));
  ScrubAllNow(bed);
  uint64_t corrupt_last = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt_last += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  ScrubAllNow(bed);
  uint64_t corrupt_final = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt_final += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  EXPECT_EQ(corrupt_final, corrupt_last);
  auto final_got = bed.GetObject(0, "striped");
  ASSERT_TRUE(final_got.ok());
  EXPECT_EQ(*final_got, payload);
}

// Demotion racing a delete: whichever side wins the metadata swap, the name
// ends up deleted, no reader ever sees foreign bytes, and the name is
// immediately reusable (mirrors ScrubRaceTest.ReadRepairRacingDeleteStaysConsistent).
TEST(TierRaceTest, DemotionRacingDeleteStaysConsistent) {
  Testbed bed(EcConfig());
  ASSERT_TRUE(bed.Boot().ok());

  const std::string payload = RandomData(65536, 41);
  ASSERT_TRUE(bed.PutObject(0, "victim", payload).ok());
  bed.RunFor(Seconds(2));

  // Kick the demotion scan and delete the object while the stripe build is
  // in flight; a reader hammers the name throughout.
  auto pending = std::make_shared<int>(bed.num_meta());
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.meta_machine(i).actor().Spawn(
        [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->TierNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  auto done = std::make_shared<int>(0);
  auto wrong_bytes = std::make_shared<int>(0);
  bed.RunOnProxy(0, [payload, done, wrong_bytes](ClientProxy& proxy) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      auto r = co_await proxy.Get("victim");
      if (r.ok() && *r != payload) {
        ++*wrong_bytes;  // silent corruption — never allowed
      }
      co_await sim::SleepFor(Millis(1));
    }
    ++*done;
  }, Nanos{0});
  bed.RunOnProxy(1, [done](ClientProxy& proxy) -> sim::Task<> {
    co_await sim::SleepFor(Millis(2));
    Status s = co_await proxy.Delete("victim");
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    ++*done;
  }, Nanos{0});
  const Nanos deadline = bed.loop().Now() + Seconds(60);
  while ((*done < 2 || *pending > 0) && bed.loop().Now() < deadline && bed.loop().RunOne()) {
  }
  ASSERT_EQ(*done, 2);
  ASSERT_EQ(*pending, 0);
  EXPECT_EQ(*wrong_bytes, 0);
  bed.RunFor(Seconds(2));  // stragglers (revokes, repairs) land

  // The delete sticks everywhere.
  EXPECT_TRUE(bed.GetObject(0, "victim").status().IsNotFound());
  EXPECT_TRUE(bed.GetObject(1, "victim").status().IsNotFound());

  // The name is reusable and the new bytes win.
  const std::string reborn = RandomData(32768, 42);
  ASSERT_TRUE(bed.PutObject(1, "victim", reborn).ok());
  for (int p = 0; p < 2; ++p) {
    auto got = bed.GetObject(p, "victim");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, reborn);
  }

  // Converged: two scrub passes, the second finds nothing new.
  bed.RunFor(Seconds(2));
  ScrubAllNow(bed);
  uint64_t corrupt_before = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt_before += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  ScrubAllNow(bed);
  uint64_t corrupt_after = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt_after += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  EXPECT_EQ(corrupt_after, corrupt_before);
}

// Demotion racing delete + recreate of the same name: the swap's re-check
// (checksum/reqid/lvid) or the post-persist audit must notice the recreate,
// so the new object's bytes always win and the stale stripe is revoked.
TEST(TierRaceTest, DemotionRacingRecreateKeepsNewBytes) {
  Testbed bed(EcConfig());
  ASSERT_TRUE(bed.Boot().ok());

  const std::string v1 = RandomData(65536, 51);
  const std::string v2 = RandomData(32768, 52);
  ASSERT_TRUE(bed.PutObject(0, "obj", v1).ok());
  bed.RunFor(Seconds(2));

  auto pending = std::make_shared<int>(bed.num_meta());
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.meta_machine(i).actor().Spawn(
        [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->TierNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  auto done = std::make_shared<int>(0);
  bed.RunOnProxy(1, [&v2, done](ClientProxy& proxy) -> sim::Task<> {
    co_await sim::SleepFor(Millis(2));
    Status del = co_await proxy.Delete("obj");
    EXPECT_TRUE(del.ok() || del.IsNotFound()) << del.ToString();
    Status put = co_await proxy.Put("obj", v2);
    EXPECT_TRUE(put.ok()) << put.ToString();
    ++*done;
  }, Nanos{0});
  const Nanos deadline = bed.loop().Now() + Seconds(60);
  while ((*done < 1 || *pending > 0) && bed.loop().Now() < deadline && bed.loop().RunOne()) {
  }
  ASSERT_EQ(*done, 1);
  ASSERT_EQ(*pending, 0);
  bed.RunFor(Seconds(2));

  // v2 is what every proxy reads, repeatedly (random replica choice).
  for (int p = 0; p < 2; ++p) {
    for (int trial = 0; trial < 4; ++trial) {
      auto got = bed.GetObject(p, "obj");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, v2);
    }
  }

  // Let v2 go cold and demote it too: the pipeline works end-to-end on a
  // name that went through the race.
  bed.RunFor(Seconds(1));
  TierAllNow(bed);
  auto got = bed.GetObject(0, "obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);

  ScrubAllNow(bed);
  uint64_t corrupt_before = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt_before += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  ScrubAllNow(bed);
  uint64_t corrupt_after = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt_after += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  EXPECT_EQ(corrupt_after, corrupt_before);
}

// The periodic driver: with tier_scan_interval set, cold objects demote with
// no manual kick.
TEST(TierTest, PeriodicScanDemotesWhenEnabled) {
  TestbedConfig config = EcConfig();
  config.options.tier.tier_scan_interval = Millis(500);
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());

  const std::string payload = RandomData(65536, 61);
  ASSERT_TRUE(bed.PutObject(0, "auto-cold", payload).ok());
  bed.RunFor(Seconds(4));
  EXPECT_GE(TierStats(bed).demotions, 1u);
  auto got = bed.GetObject(1, "auto-cold");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
}

}  // namespace
}  // namespace cheetah::core
