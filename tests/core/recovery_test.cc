// Recovery regressions for the chaos PR:
//  * a partitioned-then-healed meta primary must not make in-flight puts
//    exhaust their retries — the RE-META path (§5.3) finishes them on the
//    post-view-change primary;
//  * crashing the meta server that is itself mid-way through pulling PGs
//    (crash during view change) must still converge to a view where every
//    acknowledged object is readable;
//  * a PG rebuild on view adoption must keep the extents of a put whose
//    MetaX write has not reached the memtable yet.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace cheetah::core {
namespace {

TestbedConfig SmallConfig() {
  TestbedConfig config;
  config.meta_machines = 4;
  config.data_machines = 4;
  config.proxies = 2;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  return config;
}

TEST(Recovery, HealedMetaPartitionCompletesInflightPutsViaReMeta) {
  Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());

  // Cut one meta machine off from the whole cluster, then immediately start
  // puts. Names spread across all PGs, so some target the isolated primary;
  // those must ride RE-META onto the post-view-change primary instead of
  // burning all retries against the black hole.
  bed.Isolate(bed.meta_node(0));
  auto oks = std::make_shared<int>(0);
  auto fails = std::make_shared<int>(0);
  auto done = std::make_shared<int>(0);
  constexpr int kPuts = 16;
  bed.RunOnProxy(0, [oks, fails, done](ClientProxy& proxy) -> sim::Task<> {
    for (int i = 0; i < kPuts; ++i) {
      Status s = co_await proxy.Put("inflight-" + std::to_string(i),
                                    std::string(4096, static_cast<char>('a' + i % 26)));
      if (s.ok()) {
        ++*oks;
      } else {
        ++*fails;
      }
    }
    ++*done;
  }, Nanos{0});
  const Nanos deadline = bed.loop().Now() + Seconds(60);
  while (*done < 1 && bed.loop().Now() < deadline) {
    if (!bed.loop().RunOne()) {
      break;
    }
  }
  ASSERT_EQ(*done, 1) << "puts hung";
  EXPECT_EQ(*fails, 0) << "puts exhausted retries during the partition";
  EXPECT_EQ(*oks, kPuts);

  // Heal; the evicted meta rejoins as the topology dictates, and the data
  // stays readable afterwards.
  bed.Heal();
  bed.RunFor(Seconds(2));
  for (int i = 0; i < kPuts; ++i) {
    auto got = bed.GetObject(1, "inflight-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got->size(), 4096u);
  }
}

TEST(Recovery, CrashDuringViewChangeConvergesWithoutLoss) {
  TestbedConfig config = SmallConfig();
  config.meta_machines = 5;  // survive two dead metas with replication 3
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());

  // Seed enough objects that the post-crash PG pulls do real work.
  std::map<std::string, char> acked;
  for (int i = 0; i < 48; ++i) {
    const std::string name = "vc-" + std::to_string(i);
    const char fill = static_cast<char>('a' + i % 26);
    ASSERT_TRUE(bed.PutObject(0, name, std::string(2048, fill)).ok()) << name;
    acked[name] = fill;
  }

  // First crash forces a view change; catch a surviving meta mid-adoption
  // (actively pulling PGs) and kill it too.
  bed.CrashMetaMachine(0, /*power_loss=*/false);
  int second_victim = -1;
  const Nanos hunt_deadline = bed.loop().Now() + Seconds(5);
  while (second_victim < 0 && bed.loop().Now() < hunt_deadline) {
    if (!bed.loop().RunOne()) {
      break;
    }
    for (int i = 1; i < bed.num_meta(); ++i) {
      if (bed.meta_machine(i).alive() && bed.meta(i).adopting()) {
        second_victim = i;
        break;
      }
    }
  }
  ASSERT_GE(second_victim, 0) << "never observed a meta mid-adoption";
  bed.CrashMetaMachine(second_victim, /*power_loss=*/true);

  // The next view must converge on the three remaining metas.
  bed.RunFor(Seconds(3));
  for (int i = 0; i < bed.num_meta(); ++i) {
    if (!bed.meta_machine(i).alive()) {
      continue;
    }
    EXPECT_TRUE(bed.meta(i).HasLease()) << "meta " << i;
    EXPECT_GT(bed.meta(i).view(), 1u) << "meta " << i;
  }

  // No acknowledged object lost, reading through the survivors...
  for (const auto& [name, fill] : acked) {
    auto got = bed.GetObject(0, name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    ASSERT_EQ(got->size(), 2048u) << name;
    EXPECT_EQ((*got)[0], fill) << name;
  }

  // ...and still none after both casualties return and re-adopt.
  bed.RestartMetaMachine(0);
  bed.RestartMetaMachine(second_victim);
  bed.RunFor(Seconds(3));
  for (const auto& [name, fill] : acked) {
    auto got = bed.GetObject(1, name);
    ASSERT_TRUE(got.ok()) << name << " after restarts: " << got.status().ToString();
    EXPECT_EQ((*got)[0], fill) << name;
  }
}

// Every view adoption rebuilds the primary's allocators from the OBMETA rows
// in its KV. A put's MetaX batch reaches the memtable only after its WAL
// fsync, so a rebuild in that window used to free the put's blocks and hand
// them to the next put in the PG, which then overwrote the first object.
TEST(Recovery, PgRebuildKeepsExtentsOfPutsStillPersisting) {
  Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());

  // Two names in one PG other than 0 (an added data server's volume joins
  // PG 0's group, which would give the second put a fresh volume).
  const cluster::TopologyMap& topo = bed.meta(0).topology();
  std::string first;
  std::string second;
  for (int i = 0; second.empty() && i < 1000; ++i) {
    const std::string name = "rebuild-" + std::to_string(i);
    if (topo.PgOf(name) == 0) {
      continue;
    }
    if (first.empty()) {
      first = name;
    } else if (topo.PgOf(name) == topo.PgOf(first)) {
      second = name;
    }
  }
  ASSERT_FALSE(second.empty());
  const cluster::PgId pg = topo.PgOf(first);
  int primary = -1;
  for (int m = 0; m < bed.num_meta(); ++m) {
    if (bed.meta_node(m) == topo.PrimaryOf(pg)) {
      primary = m;
    }
  }
  ASSERT_GE(primary, 0);
  const uint64_t view_before = bed.meta(primary).view();

  // Hold the primary's fsyncs so the first put's MetaX write stays between
  // its WAL append and the memtable.
  bed.meta_machine(primary).SetGrayFailure(sim::GrayFailure{.fsync_stuck_for = Millis(300)});
  auto first_status = std::make_shared<Status>(Status::Internal("pending"));
  auto second_status = std::make_shared<Status>(Status::Internal("pending"));
  bed.RunOnProxy(0, [first, first_status](ClientProxy& proxy) -> sim::Task<> {
    *first_status = co_await proxy.Put(first, std::string(8192, 'a'));
  }, Nanos{0});
  bed.RunFor(Millis(5));
  ASSERT_EQ(bed.meta(primary).pending_puts(), 1u);

  // A view change: the primary rebuilds the PG while the first put persists.
  bed.BeginAddDataMachine(1, 1);
  const Nanos deadline = bed.loop().Now() + Millis(250);
  while (bed.loop().Now() < deadline &&
         !(bed.meta(primary).view() > view_before && bed.meta(primary).IsReady(pg) &&
           !bed.meta(primary).adopting())) {
    ASSERT_TRUE(bed.loop().RunOne());
  }
  ASSERT_GT(bed.meta(primary).view(), view_before) << "no view change in the window";
  ASSERT_EQ(first_status->code(), ErrorCode::kInternal) << "the first put already finished";

  bed.RunOnProxy(1, [second, second_status](ClientProxy& proxy) -> sim::Task<> {
    *second_status = co_await proxy.Put(second, std::string(8192, 'b'));
  }, Nanos{0});
  const Nanos settle = bed.loop().Now() + Seconds(10);
  while (bed.loop().Now() < settle && (first_status->code() == ErrorCode::kInternal ||
                                       second_status->code() == ErrorCode::kInternal)) {
    ASSERT_TRUE(bed.loop().RunOne());
  }
  bed.meta_machine(primary).ClearGrayFailure();
  ASSERT_TRUE(first_status->ok()) << first_status->ToString();
  ASSERT_TRUE(second_status->ok()) << second_status->ToString();

  // Disjoint extents, as the primary records them...
  auto metas = std::make_shared<std::vector<Result<GetMetaReply>>>();
  auto done = std::make_shared<bool>(false);
  bed.proxy_machine(0).actor().Spawn(
      [](rpc::Node* node, Testbed* bed, std::vector<std::string> names,
         std::shared_ptr<std::vector<Result<GetMetaReply>>> metas,
         std::shared_ptr<bool> done) -> sim::Task<> {
        for (const std::string& name : names) {
          const cluster::TopologyMap& now = bed->meta(0).topology();
          GetMetaRequest req;
          req.view = now.view;
          req.name = name;
          metas->push_back(co_await node->Call(now.PrimaryOf(now.PgOf(name)), std::move(req),
                                               Millis(200)));
        }
        *done = true;
      }(&bed.proxy_rpc(0), &bed, {first, second}, metas, done));
  while (!*done && bed.loop().RunOne()) {
  }
  ASSERT_EQ(metas->size(), 2u);
  ASSERT_TRUE((*metas)[0].ok()) << (*metas)[0].status().ToString();
  ASSERT_TRUE((*metas)[1].ok()) << (*metas)[1].status().ToString();
  const ObMeta& a = (*metas)[0]->meta;
  const ObMeta& b = (*metas)[1]->meta;
  if (a.lvid == b.lvid) {
    for (const alloc::Extent& ea : a.extents) {
      for (const alloc::Extent& eb : b.extents) {
        EXPECT_TRUE(ea.block + ea.count <= eb.block || eb.block + eb.count <= ea.block)
            << "lv " << a.lvid << ": blocks " << ea.block << "+" << ea.count << " and "
            << eb.block << "+" << eb.count << " overlap";
      }
    }
  }
  // ...and both objects read back intact.
  auto got_first = bed.GetObject(0, first);
  ASSERT_TRUE(got_first.ok()) << got_first.status().ToString();
  EXPECT_EQ(*got_first, std::string(8192, 'a'));
  auto got_second = bed.GetObject(1, second);
  ASSERT_TRUE(got_second.ok()) << got_second.status().ToString();
  EXPECT_EQ(*got_second, std::string(8192, 'b'));
}

}  // namespace
}  // namespace cheetah::core
