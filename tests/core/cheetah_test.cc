// End-to-end tests of the Cheetah object store on the simulated cluster:
// the normal put/get/delete paths, the paper's consistency guarantees, and
// every §5.3 recovery scenario (meta/data/proxy/manager crashes, power loss,
// expansion).
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>
#include <string>

#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace cheetah::core {
namespace {

TestbedConfig SmallConfig() {
  TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 2;
  config.pg_count = 8;  // 4*2*3 = 24 PVs -> 8 LVs, one per PG
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(64);
  return config;
}

std::string Payload(size_t n, char seed) { return std::string(n, seed); }

class CheetahTest : public ::testing::Test {
 public:
  void Boot(TestbedConfig config) {
    bed_ = std::make_unique<Testbed>(std::move(config));
    Status s = bed_->Boot();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  Testbed& bed() { return *bed_; }

 private:
  std::unique_ptr<Testbed> bed_;
};

TEST_F(CheetahTest, BootBringsUpCluster) {
  Boot(SmallConfig());
  EXPECT_GE(bed().LeaderManager(), 0);
  for (int i = 0; i < bed().num_meta(); ++i) {
    EXPECT_TRUE(bed().meta(i).HasLease());
    EXPECT_GT(bed().meta(i).view(), 0u);
  }
}

TEST_F(CheetahTest, PutGetRoundTrip) {
  Boot(SmallConfig());
  ASSERT_TRUE(bed().PutObject(0, "photo-1", Payload(8192, 'a')).ok());
  auto got = bed().GetObject(0, "photo-1");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(8192, 'a'));
}

TEST_F(CheetahTest, GetFromDifferentProxy) {
  Boot(SmallConfig());
  ASSERT_TRUE(bed().PutObject(0, "shared-obj", Payload(4096, 'x')).ok());
  auto got = bed().GetObject(1, "shared-obj");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->size(), 4096u);
}

TEST_F(CheetahTest, GetMissingObject) {
  Boot(SmallConfig());
  EXPECT_TRUE(bed().GetObject(0, "never-put").status().IsNotFound());
}

TEST_F(CheetahTest, DeleteRemovesObject) {
  Boot(SmallConfig());
  ASSERT_TRUE(bed().PutObject(0, "doomed", Payload(8192, 'd')).ok());
  ASSERT_TRUE(bed().DeleteObject(0, "doomed").ok());
  EXPECT_TRUE(bed().GetObject(0, "doomed").status().IsNotFound());
  EXPECT_TRUE(bed().GetObject(1, "doomed").status().IsNotFound());
}

TEST_F(CheetahTest, DeleteMissingIsNotFound) {
  Boot(SmallConfig());
  EXPECT_TRUE(bed().DeleteObject(0, "ghost").IsNotFound());
}

TEST_F(CheetahTest, ImmutabilityRejectsSecondPut) {
  Boot(SmallConfig());
  ASSERT_TRUE(bed().PutObject(0, "fixed", Payload(1024, '1')).ok());
  Status s = bed().PutObject(1, "fixed", Payload(1024, '2'));
  EXPECT_EQ(s.code(), ErrorCode::kAlreadyExists);
  auto got = bed().GetObject(0, "fixed");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Payload(1024, '1'));  // original data intact
}

TEST_F(CheetahTest, DeleteThenReputSameName) {
  // §4.3.1: "an object can be updated by deleting it and then putting a new
  // one with the same name".
  Boot(SmallConfig());
  ASSERT_TRUE(bed().PutObject(0, "versioned", Payload(2048, 'v')).ok());
  ASSERT_TRUE(bed().DeleteObject(0, "versioned").ok());
  ASSERT_TRUE(bed().PutObject(0, "versioned", Payload(2048, 'w')).ok());
  auto got = bed().GetObject(1, "versioned");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Payload(2048, 'w'));
}

TEST_F(CheetahTest, ManyObjectsManySizes) {
  Boot(SmallConfig());
  for (int i = 0; i < 60; ++i) {
    const size_t size = 512 + (i * 977) % 65536;
    ASSERT_TRUE(
        bed().PutObject(i % 2, "obj-" + std::to_string(i), Payload(size, 'a' + i % 26)).ok())
        << "object " << i;
  }
  for (int i = 0; i < 60; ++i) {
    const size_t size = 512 + (i * 977) % 65536;
    auto got = bed().GetObject((i + 1) % 2, "obj-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "object " << i << ": " << got.status().ToString();
    EXPECT_EQ(got->size(), size);
    EXPECT_EQ((*got)[0], static_cast<char>('a' + i % 26));
  }
}

TEST_F(CheetahTest, SpaceIsReusedAfterDelete) {
  // §4.3.3: immediate reclamation without compaction. Fill a small cluster,
  // delete everything, and fill it again.
  TestbedConfig config = SmallConfig();
  config.data_machines = 3;
  config.disks_per_data_machine = 1;
  config.pvs_per_disk = 3;
  config.pg_count = 3;  // 3 LVs
  config.lv_capacity_bytes = MiB(1);
  Boot(config);
  const size_t obj_size = 64 * 1024;
  int fit = 0;
  while (fit < 200) {
    Status s = bed().PutObject(0, "fill-" + std::to_string(fit), Payload(obj_size, 'f'));
    if (!s.ok()) {
      EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted);
      break;
    }
    ++fit;
  }
  ASSERT_GT(fit, 5);
  for (int i = 0; i < fit; ++i) {
    ASSERT_TRUE(bed().DeleteObject(0, "fill-" + std::to_string(i)).ok());
  }
  // The same objects must fit again (same names -> same PG distribution),
  // with no compaction.
  for (int i = 0; i < fit; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "fill-" + std::to_string(i), Payload(obj_size, 'r')).ok())
        << "refill " << i << " of " << fit;
  }
}

TEST_F(CheetahTest, OrderedWritesVariantStillCorrect) {
  TestbedConfig config = SmallConfig();
  config.options.ordered_writes = true;
  Boot(config);
  ASSERT_TRUE(bed().PutObject(0, "ow-obj", Payload(8192, 'o')).ok());
  auto got = bed().GetObject(1, "ow-obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 8192u);
}

TEST_F(CheetahTest, FsBackedVariantStillCorrect) {
  TestbedConfig config = SmallConfig();
  config.options.fs_backed_data = true;
  Boot(config);
  ASSERT_TRUE(bed().PutObject(0, "fs-obj", Payload(8192, 'f')).ok());
  auto got = bed().GetObject(0, "fs-obj");
  ASSERT_TRUE(got.ok());
}

TEST_F(CheetahTest, ReadCacheServesRepeatGets) {
  Boot(SmallConfig());
  ASSERT_TRUE(bed().PutObject(0, "hot", Payload(8192, 'h')).ok());
  for (int i = 0; i < 5; ++i) {
    auto got = bed().GetObject(0, "hot");
    ASSERT_TRUE(got.ok());
  }
  EXPECT_GT(bed().proxy(0).stats().cache_hits.value(), 0u);
}

TEST_F(CheetahTest, MetaxKvsCleanedAfterCommit) {
  Boot(SmallConfig());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "clean-" + std::to_string(i), Payload(1024, 'c')).ok());
  }
  bed().RunFor(Seconds(2));  // cleaner interval
  uint64_t pending = 0;
  uint64_t cleaned = 0;
  for (int i = 0; i < bed().num_meta(); ++i) {
    pending += bed().meta(i).pending_puts();
    cleaned += bed().meta(i).stats().logs_cleaned.value();
  }
  EXPECT_EQ(pending, 0u);
  EXPECT_GE(cleaned, 10u);
}

// ---- §5.3 crash scenarios ----

TEST_F(CheetahTest, MetaServerCrashIsRecovered) {
  // Four meta machines with 3-way replication: each PG lives on 3 of the 4,
  // so the post-crash remap forces actual PG pulls.
  TestbedConfig config = SmallConfig();
  config.meta_machines = 4;
  Boot(config);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "pre-" + std::to_string(i), Payload(4096, 'p')).ok());
  }
  const uint64_t view_before = bed().proxy(0).view();
  bed().CrashMetaMachine(0, /*power_loss=*/false);
  bed().RunFor(Seconds(3));  // detection + view change + PG pulls

  // All old objects still readable, new puts land.
  for (int i = 0; i < 20; ++i) {
    auto got = bed().GetObject(0, "pre-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "object " << i << ": " << got.status().ToString();
  }
  ASSERT_TRUE(bed().PutObject(1, "post-crash", Payload(4096, 'q')).ok());
  EXPECT_GT(bed().proxy(0).view(), view_before);
  // The surviving servers pulled the dead server's PGs.
  uint64_t recovered = 0;
  for (int i = 1; i < bed().num_meta(); ++i) {
    recovered += bed().meta(i).stats().recovered_kvs.value();
  }
  EXPECT_GT(recovered, 0u);
}

TEST_F(CheetahTest, MetaServerPowerLossDurability) {
  // MetaX is synced before the ack, so a power failure after commit loses
  // nothing once the server's PGs move to the survivors.
  Boot(SmallConfig());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "durable-" + std::to_string(i), Payload(2048, 'd')).ok());
  }
  bed().CrashMetaMachine(1, /*power_loss=*/true);
  bed().RunFor(Seconds(3));
  for (int i = 0; i < 10; ++i) {
    auto got = bed().GetObject(0, "durable-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
}

TEST_F(CheetahTest, DataServerCrashReplicasServeReads) {
  Boot(SmallConfig());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "rep-" + std::to_string(i), Payload(8192, 'r')).ok());
  }
  bed().CrashDataMachine(0, /*power_loss=*/false);
  bed().RunFor(Millis(200));
  // Reads keep working off the surviving replicas even before recovery.
  for (int i = 0; i < 15; ++i) {
    auto got = bed().GetObject(0, "rep-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
}

TEST_F(CheetahTest, DataServerCrashVolumesRecovered) {
  Boot(SmallConfig());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "vol-" + std::to_string(i), Payload(8192, 'v')).ok());
  }
  bed().CrashDataMachine(0, /*power_loss=*/false);
  bed().RunFor(Seconds(4));  // detection + replacement + parallel pulls
  uint64_t recovered = 0;
  for (int i = 1; i < bed().num_data(); ++i) {
    recovered += bed().data(i).stats().volumes_recovered.value();
  }
  EXPECT_GT(recovered, 0u);
  // Writes proceed and all data remains readable after recovery.
  ASSERT_TRUE(bed().PutObject(0, "after-data-crash", Payload(8192, 'a')).ok());
  for (int i = 0; i < 15; ++i) {
    auto got = bed().GetObject(1, "vol-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
}

TEST_F(CheetahTest, ProxyCrashMidPutLeavesNoOrphans) {
  Boot(SmallConfig());
  // Start a put on proxy 0 and kill the proxy shortly after it begins.
  bed().RunOnProxy(0, [](ClientProxy& p) -> sim::Task<> {
    (void)co_await p.Put("orphan-candidate", std::string(262144, 'z'));
  }, Micros(200));  // budget expires long before the put resolves
  bed().CrashProxy(0);
  // The cleaner verifies the pending put and completes or revokes it.
  bed().RunFor(Seconds(4));
  auto got = bed().GetObject(1, "orphan-candidate");
  if (got.ok()) {
    EXPECT_EQ(got->size(), 262144u);  // completed: full data visible
  } else {
    EXPECT_TRUE(got.status().IsNotFound());  // revoked: no trace
  }
  // Either way no pending entries linger.
  uint64_t pending = 0;
  for (int i = 0; i < bed().num_meta(); ++i) {
    pending += bed().meta(i).pending_puts();
  }
  EXPECT_EQ(pending, 0u);
}

TEST_F(CheetahTest, ManagerLeaderCrashClusterContinues) {
  Boot(SmallConfig());
  ASSERT_TRUE(bed().PutObject(0, "before-mgr-crash", Payload(4096, 'm')).ok());
  const int leader = bed().LeaderManager();
  ASSERT_GE(leader, 0);
  bed().CrashManager(leader, /*power_loss=*/false);
  bed().RunFor(Seconds(2));  // new raft leader; leases renew
  ASSERT_TRUE(bed().PutObject(0, "after-mgr-crash", Payload(4096, 'n')).ok());
  auto got = bed().GetObject(1, "before-mgr-crash");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
}

// Crash(node)/Restart(node) find the node's role themselves. For one node of
// each role: a crash kills the machine and a second crash is a no-op; a
// restart revives it with a fresh server and a second restart is a no-op.
TEST_F(CheetahTest, CrashAndRestartByNodeCoverEveryRole) {
  Boot(SmallConfig());
  ASSERT_TRUE(bed().PutObject(0, "before-crashes", Payload(4096, 'b')).ok());
  struct Target {
    const char* role;
    sim::NodeId node;
    sim::Machine* machine;
    std::function<const void*()> server;
  };
  const std::vector<Target> targets = {
      {"manager", bed().manager_node(1), &bed().manager_machine(1),
       [this] { return &bed().manager(1); }},
      {"meta", bed().meta_node(0), &bed().meta_machine(0), [this] { return &bed().meta(0); }},
      {"data", bed().data_node(0), &bed().data_machine(0), [this] { return &bed().data(0); }},
      {"proxy", bed().proxy_node(0), &bed().proxy_machine(0),
       [this] { return &bed().proxy(0); }},
  };
  for (const Target& t : targets) {
    SCOPED_TRACE(t.role);
    const void* before = t.server();
    bed().Crash(t.node, /*power_loss=*/true);
    EXPECT_FALSE(t.machine->alive());
    const uint64_t epoch = t.machine->actor().epoch();
    bed().Crash(t.node, /*power_loss=*/true);
    EXPECT_EQ(t.machine->actor().epoch(), epoch);  // not killed twice
    bed().RunFor(Millis(100));

    bed().Restart(t.node);
    EXPECT_TRUE(t.machine->alive());
    const void* restarted = t.server();
    EXPECT_NE(restarted, before);
    bed().Restart(t.node);
    EXPECT_EQ(t.server(), restarted);  // no second server built
    bed().RunFor(Seconds(1));
  }
  ASSERT_TRUE(bed().PutObject(0, "after-restarts", Payload(4096, 'a')).ok());
  auto got = bed().GetObject(0, "after-restarts");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(4096, 'a'));
  got = bed().GetObject(0, "before-crashes");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
}

TEST_F(CheetahTest, WholeClusterPowerLoss) {
  // §5.3 "If a power loss causes all servers/clients down".
  Boot(SmallConfig());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "survivor-" + std::to_string(i), Payload(4096, 's')).ok());
  }
  bed().RunFor(Seconds(2));  // let logs clean
  for (int i = 0; i < 3; ++i) {
    bed().CrashManager(i, /*power_loss=*/true);
  }
  for (int i = 0; i < bed().num_meta(); ++i) {
    bed().CrashMetaMachine(i, /*power_loss=*/true);
  }
  for (int i = 0; i < bed().num_data(); ++i) {
    bed().CrashDataMachine(i, /*power_loss=*/true);
  }
  bed().RunFor(Millis(100));
  for (int i = 0; i < 3; ++i) {
    bed().RestartManager(i);
  }
  for (int i = 0; i < bed().num_meta(); ++i) {
    bed().RestartMetaMachine(i);
  }
  for (int i = 0; i < bed().num_data(); ++i) {
    bed().RestartDataMachine(i);
  }
  bed().RunFor(Seconds(5));  // elections, topology dissemination, leases
  for (int i = 0; i < 12; ++i) {
    auto got = bed().GetObject(0, "survivor-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "object " << i << ": " << got.status().ToString();
    EXPECT_EQ(got->size(), 4096u);
  }
}

// ---- expansion (§4.2 / §6.3) ----

TEST_F(CheetahTest, DataExpansionIsMigrationFree) {
  Boot(SmallConfig());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "old-" + std::to_string(i), Payload(8192, 'o')).ok());
  }
  auto added = bed().AddDataMachine(2, 3);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  bed().RunFor(Seconds(1));
  // No recovery/migration traffic hit any data server.
  for (int i = 0; i < bed().num_data(); ++i) {
    EXPECT_EQ(bed().data(i).stats().recovery_bytes.value(), 0u);
  }
  // Old objects unaffected; new puts work (and can land on new volumes).
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bed().GetObject(0, "old-" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "new-" + std::to_string(i), Payload(8192, 'n')).ok());
  }
}

TEST_F(CheetahTest, MetaExpansionMovesMetadataNotData) {
  Boot(SmallConfig());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "pin-" + std::to_string(i), Payload(8192, 'p')).ok());
  }
  bed().RunFor(Seconds(2));  // clean logs so stats are quiescent
  uint64_t writes_before = 0;
  for (int i = 0; i < bed().num_data(); ++i) {
    writes_before += bed().data(i).stats().writes.value();
  }
  auto added = bed().AddMetaMachine();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  bed().RunFor(Seconds(2));
  // Metadata moved to the new server (CRUSH remap)...
  EXPECT_GT(bed().meta(*added).stats().recovered_kvs.value(), 0u);
  // ...but not a single byte of object data.
  uint64_t writes_after = 0;
  for (int i = 0; i < bed().num_data(); ++i) {
    writes_after += bed().data(i).stats().writes.value();
  }
  EXPECT_EQ(writes_after, writes_before);
  uint64_t migrated = 0;
  for (int i = 0; i < bed().num_meta(); ++i) {
    migrated += bed().meta(i).stats().migrated_objects.value();
  }
  EXPECT_EQ(migrated, 0u);
  // Everything still readable.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(bed().GetObject(1, "pin-" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(CheetahTest, NoVgVariantMigratesOnMetaExpansion) {
  TestbedConfig config = SmallConfig();
  config.options.no_volume_groups = true;
  Boot(config);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(bed().PutObject(0, "novg-" + std::to_string(i), Payload(8192, 'x')).ok());
  }
  auto added = bed().AddMetaMachine();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  bed().RunFor(Seconds(5));  // migration traffic
  uint64_t migrated = 0;
  for (int i = 0; i < bed().num_meta(); ++i) {
    migrated += bed().meta(i).stats().migrated_objects.value();
  }
  EXPECT_GT(migrated, 0u);
  for (int i = 0; i < 30; ++i) {
    auto got = bed().GetObject(1, "novg-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "object " << i << ": " << got.status().ToString();
  }
}

// Meta expansion under Cheetah-NoVG moves object data to the volumes its PG
// now owns. Deletes racing that migration must win: the migration re-reads
// the record under the relocation guard before it publishes the moved copy,
// so an acked delete is never undone by a stale record written over its
// tombstone.
TEST_F(CheetahTest, NoVgMigrationDoesNotResurrectDeletedObjects) {
  TestbedConfig config = SmallConfig();
  config.options.no_volume_groups = true;
  Boot(config);
  constexpr int kObjects = 200;
  auto name = [](int i) { return "novg-del-" + std::to_string(i); };
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(bed().PutObject(0, name(i), Payload(8192, 'a' + i % 26)).ok()) << i;
  }
  auto added = bed().AddMetaMachine(/*settle=*/false);
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  // Two proxies delete every object while the migration copies them.
  auto acked = std::make_shared<int>(0);
  auto done = std::make_shared<int>(0);
  for (int p = 0; p < 2; ++p) {
    bed().RunOnProxy(p, [p, name, acked, done](ClientProxy& proxy) -> sim::Task<> {
      for (int i = p; i < kObjects; i += 2) {
        Status s = co_await proxy.Delete(name(i));
        *acked += s.ok() ? 1 : 0;
      }
      ++*done;
    }, Nanos{0});
  }
  const Nanos deadline = bed().loop().Now() + Seconds(60);
  while (*done < 2 && bed().loop().Now() < deadline) {
    if (!bed().loop().RunOne()) {
      break;
    }
  }
  ASSERT_EQ(*done, 2);
  EXPECT_EQ(*acked, kObjects);
  bed().RunFor(Seconds(5));  // let the migration finish
  uint64_t migrated = 0;
  for (int i = 0; i < bed().num_meta(); ++i) {
    migrated += bed().meta(i).stats().migrated_objects.value();
  }
  EXPECT_GT(migrated, 0u) << "no migration overlapped the deletes";
  for (int i = 0; i < kObjects; ++i) {
    auto got = bed().GetObject(1, name(i));
    EXPECT_TRUE(got.status().IsNotFound()) << name(i) << " came back after its delete";
  }
}

TEST_F(CheetahTest, ConcurrentClientsDistinctObjects) {
  Boot(SmallConfig());
  // Drive both proxies concurrently on one loop.
  auto done = std::make_shared<int>(0);
  for (int p = 0; p < 2; ++p) {
    bed().RunOnProxy(p, [p, done](ClientProxy& proxy) -> sim::Task<> {
      for (int i = 0; i < 20; ++i) {
        Status s = co_await proxy.Put("c" + std::to_string(p) + "-" + std::to_string(i),
                                      std::string(4096, 'c'));
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
      ++*done;
    }, Nanos{0});  // don't drive the loop yet
  }
  const Nanos deadline = bed().loop().Now() + Seconds(60);
  while (*done < 2 && bed().loop().Now() < deadline) {
    if (!bed().loop().RunOne()) {
      break;
    }
  }
  ASSERT_EQ(*done, 2);
  for (int p = 0; p < 2; ++p) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          bed().GetObject(1 - p, "c" + std::to_string(p) + "-" + std::to_string(i)).ok());
    }
  }
}

}  // namespace
}  // namespace cheetah::core
