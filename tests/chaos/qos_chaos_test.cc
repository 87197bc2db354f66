// Chaos with QoS enabled: a nemesis schedule (crashes, partitions, link
// faults) runs against a cluster whose schedulers are live, while an explicit
// background PG-pull storm keeps the low classes busy. Asserts that
//   (1) every per-key history is linearizable — admission control and
//       retry-after bounces never break client semantics,
//   (2) no foreground request was shed anywhere while background classes
//       were actively dispatched — the shed ladder stops above foreground,
//   (3) the whole run replays byte-for-byte (history serialization equality
//       across identical runs on the timer wheel and the heap engine).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/chaos/sweep.h"
#include "src/core/messages.h"
#include "src/core/testbed.h"
#include "src/obs/metrics.h"
#include "src/qos/qos.h"

namespace cheetah::chaos {
namespace {

using core::Testbed;
using core::TestbedConfig;

// Sums every "qos@<node>#<instance>.<field>" counter in the global registry.
// Schedulers are recreated (with fresh Scope instances) on every restart, so
// the per-run total has to be collected from the registry rather than from
// the testbed's current scheduler objects.
uint64_t SumQosCounters(const std::string& field) {
  const std::string json = obs::Registry::Global().ToJson();
  const std::string needle = "." + field + "\":";
  uint64_t total = 0;
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    const size_t key_start = json.rfind('"', pos);
    if (key_start != std::string::npos &&
        json.compare(key_start + 1, 4, "qos@") == 0) {
      total += std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
    }
    pos += needle.size();
  }
  return total;
}

// Keeps the background class busy for the whole run: pull PGs from the meta
// servers in a loop, honoring retry-after pushback like a polite scrubber.
sim::Task<> BgPuller(rpc::Node* rpc, Testbed* bed, std::shared_ptr<bool> stop,
                     int idx) {
  uint32_t pg = static_cast<uint32_t>(idx);
  while (!*stop) {
    core::PgPullRequest req;
    req.pg = pg++ % bed->config().pg_count;
    req.limit = 64;
    const int meta = static_cast<int>(pg) % bed->num_meta();
    auto r = co_await rpc->Call(bed->meta_node(meta), std::move(req), Millis(300));
    if (!r.ok() && r.status().IsOverloaded()) {
      co_await sim::SleepFor(qos::RetryAfterOf(r.status(), Millis(20)));
    }
    co_await sim::SleepFor(Millis(10));
  }
}

struct QosChaosResult {
  SweepReport report;
  uint64_t fg_sheds = 0;
  uint64_t bg_dispatched = 0;
};

// Pure function of `seed` (modulo obs instance numbering, which the history
// comparison deliberately ignores).
QosChaosResult RunQosChaos(uint64_t seed) {
  QosChaosResult result;
  TestbedConfig config = SweepTestbed();
  config.options.qos.enabled = true;
  const int meta_count = config.meta_machines;
  const int data_count = config.data_machines;
  Testbed bed(std::move(config));
  if (!bed.Boot().ok()) {
    ADD_FAILURE() << "boot failed";
    return result;
  }

  const uint64_t fg_sheds_before = SumQosCounters("shed.foreground");
  const uint64_t bg_dispatched_before = SumQosCounters("dispatched.background");

  Sweep sweep(bed, seed);
  bed.network().SeedFaults(seed * 7919 + 42);
  sweep.Install(StandardSchedules(seed, meta_count, data_count, Seconds(4)).back());  // Combined

  auto stop_pullers = std::make_shared<bool>(false);
  for (int i = 0; i < 2; ++i) {
    bed.proxy_machine(2).actor().Spawn(
        BgPuller(&bed.proxy_rpc(2), &bed, stop_pullers, i));
  }

  // Three workers over eight shared keys, mixed put/get/delete.
  WorkloadSpec spec;
  spec.rounds = 12;
  sweep.RunWorkload(spec);

  // Restore, settle, audit every key into the same history.
  *stop_pullers = true;
  RestoreAndSettle(bed, Seconds(5));
  sweep.AuditReads(spec.AllKeys());
  result.report = sweep.Report();

  result.fg_sheds = SumQosCounters("shed.foreground") - fg_sheds_before;
  result.bg_dispatched =
      SumQosCounters("dispatched.background") - bg_dispatched_before;
  return result;
}

TEST(QosChaosTest, CombinedNemesisWithQosStaysLinearizableAndNeverShedsForeground) {
  QosChaosResult r = RunQosChaos(1);
  const std::string replay = r.report.Replay(
      "qos_chaos_test", "CombinedNemesisWithQosStaysLinearizableAndNeverShedsForeground");
  EXPECT_TRUE(r.report.workers_done) << "workload hung\n" << replay;
  EXPECT_GT(r.report.coverage.events_during_workload, 0)
      << "no fault hit the workload\n" << replay;
  auto violations = CheckLinearizable(r.report.history);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations) << replay;
  // Background traffic (explicit pullers + crash-recovery PG pulls) must
  // actually have flowed through the schedulers...
  EXPECT_GT(r.bg_dispatched, 0u) << replay;
  // ...while foreground was never shed: the ladder stops above it, and the
  // chaos workload is far below any foreground queue bound.
  EXPECT_EQ(r.fg_sheds, 0u) << replay;
}

TEST(QosChaosTest, QosChaosRunIsDeterministic) {
  bool all_done = true;
  EXPECT_EQ(ReplayMismatch([&all_done] {
              QosChaosResult r = RunQosChaos(2);
              all_done = all_done && r.report.workers_done;
              return r.report.schedule + r.report.history.Serialize() +
                     "fg_sheds=" + std::to_string(r.fg_sheds);
            }),
            "");
  EXPECT_TRUE(all_done);
}

}  // namespace
}  // namespace cheetah::chaos
