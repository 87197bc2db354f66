// System-specific behaviors of the baselines — the mechanisms their
// performance characteristics come from, asserted directly.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/ceph.h"
#include "src/baselines/haystack.h"
#include "src/baselines/tectonic.h"
#include "tests/test_util.h"

namespace cheetah::baselines {
namespace {

template <typename Cluster, typename Fn>
void Drive(Cluster& cluster, int client, Fn body, Nanos budget = Seconds(30)) {
  auto done = std::make_shared<bool>(false);
  cluster.client_actor(client).Spawn(
      [](Fn body, workload::ObjectStore* store, std::shared_ptr<bool> done) -> sim::Task<> {
        co_await body(*store);
        *done = true;
      }(std::move(body), &cluster.client(client), done));
  const Nanos deadline = cluster.loop().Now() + budget;
  while (!*done && cluster.loop().Now() < deadline && cluster.loop().RunOne()) {
  }
  ASSERT_TRUE(*done);
}

TEST(HaystackBehaviorTest, AsyncCheckpointLagsWrites) {
  sim::EventLoop loop;
  HaystackConfig config;
  config.store_machines = 3;
  config.client_machines = 1;
  config.volumes_per_store = 2;
  config.checkpoint_interval = Millis(200);
  HaystackCluster cluster(loop, config);
  ASSERT_TRUE(cluster.Boot().ok());
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE((co_await store.Put("n" + std::to_string(i), std::string(4096, 'n'))).ok());
    }
  });
  // Writes finished; the on-disk index is still stale (§2.2's criticism)...
  uint64_t checkpoints = 0;
  for (int s = 0; s < cluster.num_stores(); ++s) {
    checkpoints += cluster.store(s).stats().checkpoints.value();
  }
  // ...until the asynchronous checkpointer catches up.
  cluster.loop().RunFor(Millis(600));
  uint64_t later = 0;
  for (int s = 0; s < cluster.num_stores(); ++s) {
    later += cluster.store(s).stats().checkpoints.value();
  }
  EXPECT_GT(later, checkpoints);
}

TEST(HaystackBehaviorTest, CompactionRewritesOnlyLiveBytes) {
  sim::EventLoop loop;
  HaystackConfig config;
  config.store_machines = 3;
  config.client_machines = 1;
  config.volumes_per_store = 1;
  HaystackCluster cluster(loop, config);
  ASSERT_TRUE(cluster.Boot().ok());
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    for (int i = 0; i < 20; ++i) {
      (void)co_await store.Put("x" + std::to_string(i), std::string(10000, 'x'));
    }
    for (int i = 0; i < 15; ++i) {
      (void)co_await store.Delete("x" + std::to_string(i));
    }
  });
  cluster.TriggerCompactionAll();
  cluster.loop().RunFor(Seconds(3));
  uint64_t compacted = 0;
  for (int s = 0; s < cluster.num_stores(); ++s) {
    compacted += cluster.store(s).stats().compacted_bytes.value();
  }
  // 5 live objects x 10000 bytes x 3 replicas rewritten, not the 20 written.
  EXPECT_EQ(compacted, 5u * 10000u * 3u);
}

// Runs every op in `ops` concurrently, op i on client i mod clients, and
// drives the loop until all of them return.
void RunConcurrently(HaystackCluster& cluster,
                     std::vector<std::function<sim::Task<>(workload::ObjectStore&)>> ops) {
  auto done = std::make_shared<size_t>(0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const int client = static_cast<int>(i) % cluster.num_clients();
    cluster.client_actor(client).Spawn(
        [](std::function<sim::Task<>(workload::ObjectStore&)> op, workload::ObjectStore* store,
           std::shared_ptr<size_t> done) -> sim::Task<> {
          co_await op(*store);
          ++*done;
        }(std::move(ops[i]), &cluster.client(client), done));
  }
  const size_t want = ops.size();
  const Nanos deadline = cluster.loop().Now() + Seconds(30);
  while (*done < want && cluster.loop().Now() < deadline && cluster.loop().RunOne()) {
  }
  ASSERT_EQ(*done, want);
}

std::string HaystackPayload(int i, size_t size) {
  std::string out = "needle-" + std::to_string(i) + "|";
  out.resize(size, static_cast<char>('a' + i % 26));
  return out;
}

uint64_t Compactions(HaystackCluster& cluster) {
  uint64_t total = 0;
  for (int s = 0; s < cluster.num_stores(); ++s) {
    total += cluster.store(s).stats().compactions.value();
  }
  return total;
}

HaystackConfig OneVolumePerStore() {
  HaystackConfig config;
  config.store_machines = 3;
  config.client_machines = 1;
  config.volumes_per_store = 1;
  return config;
}

// Concurrent appends to one volume each get their own offset: eight clients
// put 1 MiB needles at once into three volumes, so appends to each volume
// overlap on its stores, and every needle reads back intact.
TEST(HaystackBehaviorTest, ConcurrentWritesToOneVolumeAllReadBack) {
  sim::EventLoop loop;
  HaystackConfig config = OneVolumePerStore();
  config.client_machines = 8;
  HaystackCluster cluster(loop, config);
  ASSERT_TRUE(cluster.Boot().ok());
  std::vector<std::function<sim::Task<>(workload::ObjectStore&)>> puts;
  for (int i = 0; i < 8; ++i) {
    puts.push_back([i](workload::ObjectStore& store) -> sim::Task<> {
      EXPECT_TRUE((co_await store.Put("c" + std::to_string(i), HaystackPayload(i, MiB(1)))).ok());
    });
  }
  RunConcurrently(cluster, std::move(puts));
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    for (int i = 0; i < 8; ++i) {
      auto r = co_await store.Get("c" + std::to_string(i));
      CO_ASSERT_TRUE(r.ok());
      EXPECT_TRUE(*r == HaystackPayload(i, MiB(1))) << "needle " << i << " holds other bytes";
    }
  });
}

// Reads sent while every volume is being compacted all succeed with the
// right bytes, whether they land before, during or after the index swap.
TEST(HaystackBehaviorTest, ReadsRacingCompactionSucceed) {
  sim::EventLoop loop;
  HaystackCluster cluster(loop, OneVolumePerStore());
  ASSERT_TRUE(cluster.Boot().ok());
  constexpr int kObjects = 30;
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    for (int i = 0; i < kObjects; ++i) {
      EXPECT_TRUE((co_await store.Put("r" + std::to_string(i), HaystackPayload(i, KiB(32)))).ok());
    }
    for (int i = 0; i < kObjects; i += 3) {
      EXPECT_TRUE((co_await store.Delete("r" + std::to_string(i))).ok());
    }
  });
  cluster.TriggerCompactionAll();
  int rounds = 0;
  while (Compactions(cluster) < 9 && rounds < 50) {  // 3 stores x 3 volumes
    ++rounds;
    std::vector<std::function<sim::Task<>(workload::ObjectStore&)>> reads;
    for (int i = 1; i < kObjects; i += 3) {
      reads.push_back([i](workload::ObjectStore& store) -> sim::Task<> {
        auto r = co_await store.Get("r" + std::to_string(i));
        CO_ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r, HaystackPayload(i, KiB(32))) << i;
      });
    }
    RunConcurrently(cluster, std::move(reads));
  }
  EXPECT_GT(rounds, 1) << "compaction finished before the first reads returned";
  EXPECT_EQ(Compactions(cluster), 9u);
}

// A needle written while its volume is compacting is still indexed, and
// readable, after the compaction swaps in the new volume file.
TEST(HaystackBehaviorTest, WriteDuringCompactionSurvivesSwap) {
  sim::EventLoop loop;
  HaystackCluster cluster(loop, OneVolumePerStore());
  ASSERT_TRUE(cluster.Boot().ok());
  constexpr int kObjects = 60;
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    for (int i = 0; i < kObjects; ++i) {
      EXPECT_TRUE((co_await store.Put("w" + std::to_string(i), HaystackPayload(i, KiB(64)))).ok());
    }
  });
  cluster.TriggerCompactionAll();
  std::vector<std::function<sim::Task<>(workload::ObjectStore&)>> puts;
  for (int i = 100; i < 106; ++i) {
    puts.push_back([i](workload::ObjectStore& store) -> sim::Task<> {
      EXPECT_TRUE((co_await store.Put("w" + std::to_string(i), HaystackPayload(i, KiB(4)))).ok());
    });
  }
  RunConcurrently(cluster, std::move(puts));
  EXPECT_EQ(Compactions(cluster), 0u) << "the puts did not overlap the compaction";
  cluster.loop().RunFor(Seconds(3));
  ASSERT_EQ(Compactions(cluster), 9u);  // 3 stores x 3 volumes
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    for (int i = 100; i < 106; ++i) {
      auto r = co_await store.Get("w" + std::to_string(i));
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, HaystackPayload(i, KiB(4))) << i;
    }
    for (int i = 0; i < kObjects; ++i) {
      auto r = co_await store.Get("w" + std::to_string(i));
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, HaystackPayload(i, KiB(64))) << i;
    }
  });
}

TEST(CephBehaviorTest, SmallObjectsDoubleWriteThroughJournal) {
  sim::EventLoop loop;
  CephConfig config;
  config.osd_machines = 3;
  config.client_machines = 1;
  config.pg_count = 8;
  CephCluster cluster(loop, config);
  ASSERT_TRUE(cluster.Boot().ok());
  auto journal_bytes = [&cluster] {
    uint64_t total = 0;
    for (int i = 0; i < cluster.num_osds(); ++i) {
      total += cluster.osd(i).stats().journal_bytes.value();
    }
    return total;
  };
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    EXPECT_TRUE((co_await store.Put("small", std::string(KiB(8), 's'))).ok());
  });
  const uint64_t after_small = journal_bytes();
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    EXPECT_TRUE((co_await store.Put("large", std::string(KiB(256), 'l'))).ok());
  });
  const uint64_t after_large = journal_bytes();
  // The small object's payload went through the journal on all 3 replicas;
  // the large object only journaled its header.
  EXPECT_GE(after_small, 3u * KiB(8));
  EXPECT_LT(after_large - after_small, 3u * KiB(8));
}

TEST(CephBehaviorTest, PgLockSerializesSamePgOps) {
  sim::EventLoop loop;
  CephConfig config;
  config.osd_machines = 3;
  config.client_machines = 1;
  config.pg_count = 1;  // every op contends on one PG
  config.osd_op_cpu = Millis(2);
  CephCluster cluster(loop, config);
  ASSERT_TRUE(cluster.Boot().ok());
  // Two concurrent gets of a preloaded object must serialize (~2x one).
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    (void)co_await store.Put("obj", std::string(4096, 'o'));
  });
  auto done = std::make_shared<int>(0);
  const Nanos t0 = cluster.loop().Now();
  for (int i = 0; i < 2; ++i) {
    cluster.client_actor(0).Spawn(
        [](workload::ObjectStore* store, std::shared_ptr<int> done) -> sim::Task<> {
          (void)co_await store->Get("obj");
          ++*done;
        }(&cluster.client(0), done));
  }
  while (*done < 2 && cluster.loop().RunOne()) {
  }
  // One get costs ~>= 2ms (CPU) under the lock; two must cost >= ~4ms.
  EXPECT_GE(cluster.loop().Now() - t0, Millis(4));
}

TEST(TectonicBehaviorTest, DeleteClearsAllThreeLayers) {
  sim::EventLoop loop;
  TectonicConfig config;
  config.store_machines = 3;
  config.client_machines = 1;
  TectonicCluster cluster(loop, config);
  ASSERT_TRUE(cluster.Boot().ok());
  Drive(cluster, 0, [](workload::ObjectStore& store) -> sim::Task<> {
    EXPECT_TRUE((co_await store.Put("layered", std::string(8192, 'L'))).ok());
    EXPECT_TRUE((co_await store.Get("layered")).ok());
    EXPECT_TRUE((co_await store.Delete("layered")).ok());
    // Every layer rejects the name now — and the name can be recreated.
    EXPECT_TRUE((co_await store.Get("layered")).status().IsNotFound());
    EXPECT_TRUE((co_await store.Put("layered", std::string(100, 'M'))).ok());
    auto again = co_await store.Get("layered");
    CO_ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->size(), 100u);
  });
}

TEST(TectonicBehaviorTest, PutCostsMoreRpcHopsThanGet) {
  // The recursive-RPC structure: a put walks name -> file -> block -> chunk
  // -> seal (5 hops incl. data), a get walks name -> file -> block -> chunk.
  // With near-free disks, latency is pure hops x RTT, so put > get.
  sim::EventLoop loop;
  TectonicConfig config;
  config.store_machines = 3;
  config.client_machines = 1;
  config.disk = sim::DiskParams::RamDisk();
  TectonicCluster cluster(loop, config);
  ASSERT_TRUE(cluster.Boot().ok());
  Nanos put_cost = 0, get_cost = 0;
  Drive(cluster, 0, [&](workload::ObjectStore& store) -> sim::Task<> {
    sim::Actor* actor = co_await sim::CurrentActor{};
    Nanos t0 = actor->Now();
    (void)co_await store.Put("hops", std::string(1024, 'h'));
    put_cost = actor->Now() - t0;
    t0 = actor->Now();
    (void)co_await store.Get("hops");
    get_cost = actor->Now() - t0;
  });
  EXPECT_GT(put_cost, get_cost);
  EXPECT_GE(put_cost, 5 * 2 * Micros(100));  // >= 5 round trips of base latency
}

}  // namespace
}  // namespace cheetah::baselines
