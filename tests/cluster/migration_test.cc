// Planned decommission: live PG migration (Prepare -> DoubleWrite -> Catchup
// -> Cutover -> Release) driven by the manager, the proxy's fast redirect on
// stale-owner NACKs, migration state in the replicated topology, and the
// epoch guards that keep background maintenance (tiering, scrubbing) off PGs
// that are mid-migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/client_proxy.h"
#include "src/core/scrubber.h"
#include "src/core/testbed.h"
#include "src/tier/engine.h"
#include "tests/test_util.h"

namespace cheetah::cluster {
namespace {

using core::ClientProxy;
using core::Testbed;
using core::TestbedConfig;

// Four meta machines so a drained node always has a CRUSH destination for
// its PGs among the survivors (replication 3 of the remaining 3).
TestbedConfig MigrateConfig() {
  TestbedConfig config;
  config.meta_machines = 4;
  config.data_machines = 4;
  config.proxies = 2;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(64);
  return config;
}

uint64_t TotalDrains(Testbed& bed) {
  uint64_t sum = 0;
  for (int i = 0; i < bed.num_managers(); ++i) {
    sum += bed.manager(i).drains_completed();
  }
  return sum;
}

std::string PayloadFor(int i) {
  return "obj-" + std::to_string(i) + "|" + std::string(4096, static_cast<char>('a' + i % 26));
}

TEST(MigrationTest, DrainRetiresNodeAndKeepsEveryObject) {
  Testbed bed(MigrateConfig());
  ASSERT_TRUE(bed.Boot().ok());
  constexpr int kKeys = 16;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(bed.PutObject(0, "obj-" + std::to_string(i), PayloadFor(i)).ok());
  }
  const sim::NodeId victim = bed.meta_node(1);
  const uint64_t view_before = bed.manager(bed.LeaderManager()).view();

  Status s = bed.DrainMetaMachine(1);
  ASSERT_TRUE(s.ok()) << s.ToString();

  const TopologyMap& topo = bed.manager(bed.LeaderManager()).topology();
  EXPECT_TRUE(topo.IsRetired(victim));
  EXPECT_FALSE(topo.meta_crush.HasItem(victim));
  EXPECT_FALSE(topo.IsDraining(victim));
  EXPECT_TRUE(topo.migrations.empty()) << "cutover left migration entries behind";
  EXPECT_GT(topo.view, view_before);
  EXPECT_GE(TotalDrains(bed), 1u);

  // Every object reads back byte-identically — including through proxy 1,
  // which never refreshed and must chase the stale-owner NACK to the new
  // primaries.
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    auto got = bed.GetObject(1, key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, PayloadFor(i)) << key;
  }
  // The shrunk cluster still takes writes and deletes.
  ASSERT_TRUE(bed.PutObject(0, "post-drain", std::string(4096, 'p')).ok());
  ASSERT_TRUE(bed.DeleteObject(0, "obj-0").ok());
  EXPECT_TRUE(bed.GetObject(1, "obj-0").status().IsNotFound());

  // The retired node is still alive and heartbeating; the re-admission sweep
  // must NOT pull a decommissioned server back into the map.
  bed.RunFor(Seconds(3));
  const TopologyMap& after = bed.manager(bed.LeaderManager()).topology();
  EXPECT_FALSE(after.meta_crush.HasItem(victim)) << "retired node rejoined";
  EXPECT_TRUE(after.IsRetired(victim));
}

// A proxy holding a pre-cutover topology sends to the old owner, receives a
// stale-view NACK carrying the server's view, and must chase it — re-pull
// the topology and retry immediately — instead of a backoff cycle.
TEST(MigrationTest, StaleProxyChasesNewOwnerWithoutBackoff) {
  Testbed bed(MigrateConfig());
  ASSERT_TRUE(bed.Boot().ok());
  const sim::NodeId victim = bed.meta_node(1);
  // A key whose PG the victim owns, chosen before the drain so the put below
  // (from a stale proxy) is guaranteed to target the old primary.
  const TopologyMap before = bed.manager(bed.LeaderManager()).topology();
  std::string key;
  for (int k = 0; k < 256 && key.empty(); ++k) {
    const std::string candidate = "redir-" + std::to_string(k);
    if (before.PrimaryOf(before.PgOf(candidate)) == victim) {
      key = candidate;
    }
  }
  ASSERT_FALSE(key.empty()) << "victim owns no PG as primary";

  // The manager pushes each new topology to proxies as well, so to hold a
  // genuinely pre-cutover view the proxy must miss those pushes: partition it
  // from the managers for the duration of the drain, then heal and operate
  // before any background refresh catches it up.
  for (int m = 0; m < bed.num_managers(); ++m) {
    bed.Partition(bed.proxy_node(1), bed.manager_node(m));
  }
  ASSERT_TRUE(bed.DrainMetaMachine(1).ok());
  ASSERT_EQ(bed.proxy(1).stats().fast_redirects.value(), 0u);
  ASSERT_LT(bed.proxy(1).view(), bed.manager(bed.LeaderManager()).view());
  bed.Heal();
  ASSERT_TRUE(bed.PutObject(1, key, std::string(4096, 'r')).ok());
  EXPECT_GE(bed.proxy(1).stats().fast_redirects.value(), 1u)
      << "stale-owner NACK did not take the fast-redirect path";
  auto got = bed.GetObject(0, key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, std::string(4096, 'r'));
}

TEST(MigrationTest, StaleViewHintParsing) {
  EXPECT_EQ(ClientProxy::StaleViewHint(Status::StaleView("server at view 17")), 17u);
  EXPECT_EQ(ClientProxy::StaleViewHint(
                Status::StaleView("pg pull below catchup floor; server at view 203")),
            203u);
  EXPECT_EQ(ClientProxy::StaleViewHint(Status::StaleView("view mismatch")), 0u);
  EXPECT_EQ(ClientProxy::StaleViewHint(Status::StaleView("")), 0u);
  EXPECT_EQ(ClientProxy::StaleViewHint(Status::StaleView("server at view ")), 0u);
}

// Foreground traffic keeps succeeding while the drain runs underneath it.
TEST(MigrationTest, OpsDuringDrainAllSucceed) {
  Testbed bed(MigrateConfig());
  ASSERT_TRUE(bed.Boot().ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(bed.PutObject(0, "obj-" + std::to_string(i), PayloadFor(i)).ok());
  }
  ASSERT_TRUE(bed.BeginDrainMetaMachine(2));

  auto failures = std::make_shared<int>(0);
  auto done = std::make_shared<int>(0);
  constexpr int kWorkers = 2;
  for (int w = 0; w < kWorkers; ++w) {
    bed.RunOnProxy(w, [w, failures, done](ClientProxy& proxy) -> sim::Task<> {
      Rng rng(7001 + static_cast<uint64_t>(w));
      for (int i = 0; i < 12; ++i) {
        const std::string key = "live-w" + std::to_string(w) + "-" + std::to_string(i);
        const std::string value = key + std::string(2048, 'v');
        if (!(co_await proxy.Put(key, value)).ok()) {
          ++*failures;
        }
        auto got = co_await proxy.Get(key);
        if (!got.ok() || *got != value) {
          ++*failures;
        }
        co_await sim::SleepFor(Millis(30) + rng.Uniform(Millis(70)));
      }
      ++*done;
    }, Nanos{0});
  }
  const sim::NodeId victim = bed.meta_node(2);
  const Nanos deadline = bed.loop().Now() + Seconds(90);
  while (bed.loop().Now() < deadline) {
    const int leader = bed.LeaderManager();
    const bool retired = leader >= 0 && bed.manager(leader).topology().IsRetired(victim);
    if (*done == kWorkers && retired) {
      break;
    }
    bed.RunFor(Millis(50));
  }
  EXPECT_EQ(*done, kWorkers) << "workers hung during drain";
  EXPECT_EQ(*failures, 0) << "foreground ops failed during a planned drain";
  EXPECT_TRUE(bed.manager(bed.LeaderManager()).topology().IsRetired(victim));
  // Post-drain audit of the preloaded keys from the other (stale) proxy.
  for (int i = 0; i < 8; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    auto got = bed.GetObject(1, key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, PayloadFor(i));
  }
}

TEST(MigrationTest, TopologySerializationRoundTripsMigrationState) {
  TopologyMap map;
  map.view = 42;
  map.pg_count = 8;
  map.replication = 3;
  map.meta_crush.AddItem(11, 1.0);
  map.meta_crush.AddItem(12, 1.0);
  map.meta_crush.AddItem(13, 1.0);
  PgMigration m1;
  m1.phase = MigrationPhase::kDoubleWrite;
  m1.source = 11;
  m1.destination = 13;
  map.migrations[3] = m1;
  PgMigration m2;
  m2.phase = MigrationPhase::kCatchup;
  m2.source = 11;
  m2.destination = 12;
  map.migrations[5] = m2;
  map.draining_metas.push_back(11);
  map.retired_metas.push_back(99);

  auto round = TopologyMap::Deserialize(map.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(map.SameShape(*round));
  ASSERT_EQ(round->migrations.size(), 2u);
  const PgMigration* r1 = round->MigrationOf(3);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->phase, MigrationPhase::kDoubleWrite);
  EXPECT_EQ(r1->source, 11u);
  EXPECT_EQ(r1->destination, 13u);
  const PgMigration* r2 = round->MigrationOf(5);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->phase, MigrationPhase::kCatchup);
  EXPECT_TRUE(round->IsDraining(11));
  EXPECT_FALSE(round->IsDraining(12));
  EXPECT_TRUE(round->IsRetired(99));
  EXPECT_FALSE(round->IsRetired(11));
  EXPECT_EQ(round->MigrationOf(7), nullptr);
}

// ---- epoch guards: background maintenance vs live migration ----

// EC-tier geometry on the 4-meta migrate cluster (see tier_test's EcConfig).
TestbedConfig MigrateEcConfig() {
  TestbedConfig config = MigrateConfig();
  config.data_machines = 4;
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
        [](core::MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
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
        [](core::MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->ScrubNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  while (*pending > 0 && bed.loop().RunOne()) {
  }
}

uint64_t TotalDemotions(Testbed& bed) {
  uint64_t sum = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    sum += bed.meta(i).tier_engine().stats().demotions.value();
  }
  return sum;
}

// Regression: while a PG is mid-migration, the tiering engine must NOT
// demote its objects (a demotion started against the pre-cutover owner could
// commit an EC record the destination's catchup never sees), and the
// scrubber must skip it likewise. Once the migration completes the demotion
// proceeds normally.
TEST(MigrationTest, DemoteDuringMigrateIsDeferred) {
  Testbed bed(MigrateEcConfig());
  ASSERT_TRUE(bed.Boot().ok());

  Rng rng(77);
  std::string payload(65536, '\0');
  for (auto& c : payload) {
    c = static_cast<char>(rng.Uniform(256));
  }
  ASSERT_TRUE(bed.PutObject(0, "cold", payload).ok());
  bed.RunFor(Seconds(2));  // settle and age past demote_after

  // Geometry: the PG's primary is the drain target; with 4 metas and
  // replication 3, the single meta outside the PG's replica set is
  // necessarily the migration destination.
  const TopologyMap topo = bed.manager(bed.LeaderManager()).topology();
  const PgId pg = topo.PgOf("cold");
  const sim::NodeId primary = topo.PrimaryOf(pg);
  const std::vector<sim::NodeId> members = topo.MetaServersOf(pg);
  int victim_idx = -1;
  int outsider_idx = -1;
  for (int i = 0; i < bed.num_meta(); ++i) {
    const sim::NodeId node = bed.meta_node(i);
    if (node == primary) {
      victim_idx = i;
    }
    if (std::find(members.begin(), members.end(), node) == members.end()) {
      outsider_idx = i;
    }
  }
  ASSERT_GE(victim_idx, 0);
  ASSERT_GE(outsider_idx, 0);

  // Stall the destination's meta disk so catchup cannot complete: the
  // migration entry stays in the topology while we probe the guards.
  sim::GrayFailure gray;
  gray.latency_multiplier = 50.0;
  gray.fsync_stuck_for = Seconds(10);
  bed.meta_machine(outsider_idx).SetGrayFailure(gray);

  ASSERT_TRUE(bed.BeginDrainMetaMachine(victim_idx));
  const Nanos probe_deadline = bed.loop().Now() + Seconds(5);
  bool in_flight = false;
  while (bed.loop().Now() < probe_deadline) {
    const int leader = bed.LeaderManager();
    if (leader >= 0 && bed.manager(leader).topology().MigrationOf(pg) != nullptr) {
      in_flight = true;
      break;
    }
    bed.RunFor(Millis(10));
  }
  ASSERT_TRUE(in_flight) << "migration never became visible in the topology";

  // The guards: a full tiering pass and a full scrub pass while the PG is
  // mid-migration must leave it alone.
  TierAllNow(bed);
  EXPECT_EQ(TotalDemotions(bed), 0u) << "object demoted while its PG was migrating";
  ScrubAllNow(bed);
  uint64_t corrupt = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  EXPECT_EQ(corrupt, 0u);

  // Unstall, let the drain finish, and verify the demotion now goes through.
  bed.meta_machine(outsider_idx).ClearGrayFailure();
  const Nanos drain_deadline = bed.loop().Now() + Seconds(60);
  while (bed.loop().Now() < drain_deadline) {
    const int leader = bed.LeaderManager();
    if (leader >= 0 && bed.manager(leader).topology().IsRetired(primary)) {
      break;
    }
    bed.RunFor(Millis(50));
  }
  ASSERT_TRUE(bed.manager(bed.LeaderManager()).topology().IsRetired(primary))
      << "drain did not complete after the destination recovered";
  bed.RunFor(Seconds(1));

  TierAllNow(bed);
  EXPECT_EQ(TotalDemotions(bed), 1u) << "deferred demotion did not run post-cutover";
  for (int p = 0; p < 2; ++p) {
    auto got = bed.GetObject(p, "cold");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, payload);
  }
}

}  // namespace
}  // namespace cheetah::cluster
