// Correctness tests for the three comparison systems. Each baseline must be
// a faithful object store (round trips, immutability, delete semantics)
// before its performance numbers mean anything.
#include <gtest/gtest.h>

#include <memory>

#include "src/baselines/ceph.h"
#include "src/baselines/haystack.h"
#include "src/baselines/tectonic.h"
#include "src/workload/runner.h"
#include "tests/test_util.h"

namespace cheetah::baselines {
namespace {

// Drives a client coroutine to completion on the shared loop.
template <typename Cluster, typename Fn>
bool RunOnClient(Cluster& cluster, int i, Fn body, Nanos budget = Seconds(30)) {
  auto done = std::make_shared<bool>(false);
  cluster.client_actor(i).Spawn(
      [](Fn body, workload::ObjectStore* store, std::shared_ptr<bool> done) -> sim::Task<> {
        co_await body(*store);
        *done = true;
      }(std::move(body), &cluster.client(i), done));
  const Nanos deadline = cluster.loop().Now() + budget;
  while (!*done && cluster.loop().Now() < deadline) {
    if (!cluster.loop().RunOne()) {
      break;
    }
  }
  return *done;
}

template <typename Cluster>
Status PutObj(Cluster& cluster, int client, std::string name, std::string data) {
  auto result = std::make_shared<Status>(Status::Internal("unresolved"));
  RunOnClient(cluster, client,
              [name = std::move(name), data = std::move(data),
               result](workload::ObjectStore& store) -> sim::Task<> {
                *result = co_await store.Put(name, data);
              });
  return *result;
}

template <typename Cluster>
Result<std::string> GetObj(Cluster& cluster, int client, std::string name) {
  auto result = std::make_shared<Result<std::string>>(Status::Internal("unresolved"));
  RunOnClient(cluster, client,
              [name = std::move(name), result](workload::ObjectStore& store) -> sim::Task<> {
                *result = co_await store.Get(name);
              });
  return *result;
}

template <typename Cluster>
Status DeleteObj(Cluster& cluster, int client, std::string name) {
  auto result = std::make_shared<Status>(Status::Internal("unresolved"));
  RunOnClient(cluster, client,
              [name = std::move(name), result](workload::ObjectStore& store) -> sim::Task<> {
                *result = co_await store.Delete(name);
              });
  return *result;
}

// Shared conformance suite: every baseline must pass identical semantics.
template <typename Cluster>
void RunConformance(Cluster& cluster) {
  // Round trip.
  ASSERT_TRUE(PutObj(cluster, 0, "obj-1", std::string(8192, 'a')).ok());
  auto got = GetObj(cluster, 1 % cluster.num_clients(), "obj-1");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, std::string(8192, 'a'));

  // Missing object.
  EXPECT_TRUE(GetObj(cluster, 0, "missing").status().IsNotFound());

  // Immutability.
  EXPECT_EQ(PutObj(cluster, 0, "obj-1", "other").code(), ErrorCode::kAlreadyExists);

  // Delete.
  ASSERT_TRUE(DeleteObj(cluster, 0, "obj-1").ok());
  EXPECT_TRUE(GetObj(cluster, 0, "obj-1").status().IsNotFound());
  EXPECT_TRUE(DeleteObj(cluster, 0, "obj-1").IsNotFound());

  // Delete + re-put (the update idiom).
  ASSERT_TRUE(PutObj(cluster, 0, "obj-2", std::string(4096, 'x')).ok());
  ASSERT_TRUE(DeleteObj(cluster, 0, "obj-2").ok());
  ASSERT_TRUE(PutObj(cluster, 0, "obj-2", std::string(4096, 'y')).ok());
  auto v2 = GetObj(cluster, 0, "obj-2");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ((*v2)[0], 'y');

  // A batch of objects with varied sizes.
  for (int i = 0; i < 30; ++i) {
    const size_t size = 1024 + (i * 3571) % 65536;
    ASSERT_TRUE(
        PutObj(cluster, i % cluster.num_clients(), "batch-" + std::to_string(i),
               std::string(size, static_cast<char>('a' + i % 26)))
            .ok())
        << i;
  }
  for (int i = 0; i < 30; ++i) {
    const size_t size = 1024 + (i * 3571) % 65536;
    auto r = GetObj(cluster, (i + 1) % cluster.num_clients(), "batch-" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    EXPECT_EQ(r->size(), size);
  }
}

HaystackConfig SmallHaystack() {
  HaystackConfig config;
  config.store_machines = 4;
  config.client_machines = 2;
  config.volumes_per_store = 2;
  config.volume_capacity = MiB(64);
  return config;
}

TEST(HaystackTest, Conformance) {
  sim::EventLoop loop;
  HaystackCluster cluster(loop, SmallHaystack());
  ASSERT_TRUE(cluster.Boot().ok());
  RunConformance(cluster);
}

TEST(HaystackTest, DeleteDoesNotReclaimUntilCompaction) {
  sim::EventLoop loop;
  HaystackCluster cluster(loop, SmallHaystack());
  ASSERT_TRUE(cluster.Boot().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(PutObj(cluster, 0, "n-" + std::to_string(i), std::string(8192, 'n')).ok());
  }
  uint64_t live = 0, total = 0;
  for (int s = 0; s < cluster.num_stores(); ++s) {
    live += cluster.store(s).live_bytes();
    total += cluster.store(s).total_bytes();
  }
  EXPECT_EQ(live, total);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(DeleteObj(cluster, 0, "n-" + std::to_string(i)).ok());
  }
  live = total = 0;
  for (int s = 0; s < cluster.num_stores(); ++s) {
    live += cluster.store(s).live_bytes();
    total += cluster.store(s).total_bytes();
  }
  EXPECT_LT(live, total);  // dead needles still occupy space
  cluster.TriggerCompactionAll();
  cluster.loop().RunFor(Seconds(5));
  live = total = 0;
  uint64_t compactions = 0;
  for (int s = 0; s < cluster.num_stores(); ++s) {
    live += cluster.store(s).live_bytes();
    total += cluster.store(s).total_bytes();
    compactions += cluster.store(s).stats().compactions.value();
  }
  EXPECT_GT(compactions, 0u);
  EXPECT_EQ(live, total);  // space reclaimed
  // Survivors still readable post-compaction.
  for (int i = 10; i < 20; ++i) {
    EXPECT_TRUE(GetObj(cluster, 0, "n-" + std::to_string(i)).ok()) << i;
  }
}

TEST(TectonicTest, Conformance) {
  sim::EventLoop loop;
  TectonicConfig config;
  config.store_machines = 4;
  config.client_machines = 2;
  TectonicCluster cluster(loop, config);
  ASSERT_TRUE(cluster.Boot().ok());
  RunConformance(cluster);
}

CephConfig SmallCeph() {
  CephConfig config;
  config.osd_machines = 4;
  config.client_machines = 2;
  config.pg_count = 16;
  return config;
}

TEST(CephTest, Conformance) {
  sim::EventLoop loop;
  CephCluster cluster(loop, SmallCeph());
  ASSERT_TRUE(cluster.Boot().ok());
  RunConformance(cluster);
}

TEST(CephTest, ExpansionTriggersBackfill) {
  sim::EventLoop loop;
  CephCluster cluster(loop, SmallCeph());
  ASSERT_TRUE(cluster.Boot().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(PutObj(cluster, 0, "pre-" + std::to_string(i), std::string(8192, 'p')).ok());
  }
  cluster.AddOsd();
  cluster.loop().RunFor(Seconds(5));
  EXPECT_GT(cluster.osd(cluster.num_osds() - 1).stats().backfilled_objects.value(), 0u)
      << "adding an OSD must migrate remapped PGs' objects";
  // Objects remain readable after the remap (new primaries have the data).
  int readable = 0;
  for (int i = 0; i < 40; ++i) {
    readable += GetObj(cluster, 0, "pre-" + std::to_string(i)).ok();
  }
  EXPECT_EQ(readable, 40);
}

}  // namespace
}  // namespace cheetah::baselines
