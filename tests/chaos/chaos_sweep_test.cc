// Randomized chaos sweep: Cheetah variants x nemesis schedules x seeds, with
// every client operation recorded and each per-key history checked for
// linearizability afterwards. Any failure prints the seed + schedule, which
// reproduce the run byte-for-byte (the whole simulator is deterministic).
//
// Seed policy: CHEETAH_SWEEP_SEEDS is a comma-separated list (default
// "1,2,3" — the fixed CI set; scripts/chaos.sh passes larger sets for local
// hunts). The same seed drives the workload RNG, the network fault RNG, and
// the schedule composition, so one integer pins the entire run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/chaos/sweep.h"
#include "src/common/random.h"
#include "src/core/testbed.h"
#include "src/sim/actor.h"

namespace cheetah::chaos {
namespace {

using core::ClientProxy;
using core::Testbed;
using core::TestbedConfig;

enum class Variant { kBase, kOrderedWrites, kFsBacked };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kBase: return "Base";
    case Variant::kOrderedWrites: return "OW";
    case Variant::kFsBacked: return "FS";
  }
  return "?";
}

constexpr const char* kScheduleNames[] = {
    "MetaCrashRestartLoop", "MetaPowerFailViewChange", "PartitionHealMeta",
    "GrayDataDisk",         "NetChaos",                "Combined",
};

// Three workers over eight shared keys, mixed put/get/delete.
const WorkloadSpec kWorkload;

TestbedConfig ChaosConfig(Variant variant) {
  TestbedConfig config = SweepTestbed();
  config.options.ordered_writes = variant == Variant::kOrderedWrites;
  config.options.fs_backed_data = variant == Variant::kFsBacked;
  return config;
}

// One full chaos run. Everything inside is a pure function of
// (variant, schedule_idx, seed) — the determinism test relies on it.
SweepReport RunSweep(Variant variant, int schedule_idx, uint64_t seed) {
  TestbedConfig config = ChaosConfig(variant);
  const int meta_count = config.meta_machines;
  const int data_count = config.data_machines;
  Testbed bed(std::move(config));
  if (!bed.Boot().ok()) {
    ADD_FAILURE() << "boot failed";
    return {};
  }
  Sweep sweep(bed, seed);
  bed.network().SeedFaults(seed * 7919 + static_cast<uint64_t>(schedule_idx));
  sweep.Install(StandardSchedules(seed, meta_count, data_count, Seconds(4)).at(schedule_idx));
  sweep.RunWorkload(kWorkload);
  // Restore everything (schedules end restorative, this is belt-and-braces),
  // let recovery and the cleaner settle, then audit every key: the final
  // reads join the history like any other ops.
  RestoreAndSettle(bed, Seconds(5));
  sweep.AuditReads(kWorkload.AllKeys());
  return sweep.Report();
}

struct Param {
  Variant variant;
  int schedule;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  return std::string(VariantName(info.param.variant)) +
         kScheduleNames[info.param.schedule] + "Seed" +
         std::to_string(info.param.seed);
}

class ChaosSweep : public ::testing::TestWithParam<Param> {};

TEST_P(ChaosSweep, HistoriesAreLinearizable) {
  const Param p = GetParam();
  SweepReport r = RunSweep(p.variant, p.schedule, p.seed);
  // ctest only knows the default-seed test names, so replay goes through the
  // binary: the filter name embeds the seed and the env re-registers it.
  const std::string replay = r.Replay("chaos_sweep_test", ParamName({p, 0}));
  r.PrintHistoryHash("chaos_sweep_test", ParamName({p, 0}));
  EXPECT_TRUE(r.workers_done) << "workload hung\n" << replay;
  EXPECT_TRUE(r.audit_healthy) << "cluster unhealthy at audit time\n" << replay;
  EXPECT_GT(r.coverage.events_during_workload, 0) << "no fault hit the workload\n" << replay;
  auto violations = CheckLinearizable(r.history);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations) << replay;
}

std::vector<Param> MakeParams() {
  std::vector<Param> out;
  for (uint64_t seed : SweepSeeds("1,2,3")) {
    // Base gets the full battery; the ablation variants get the heaviest
    // schedules (power-fail view change, combined) to bound suite runtime.
    for (int sched = 0; sched < 6; ++sched) {
      out.push_back({Variant::kBase, sched, seed});
    }
    for (int sched : {1, 5}) {
      out.push_back({Variant::kOrderedWrites, sched, seed});
      out.push_back({Variant::kFsBacked, sched, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ChaosSweep, ::testing::ValuesIn(MakeParams()),
                         ParamName);

// Same (variant, schedule, seed), same schedule and history — twice on the
// timer wheel and once on the reference heap engine. This is what makes a
// printed seed+schedule a full reproduction.
TEST(ChaosDeterminism, SameSeedSameHistory) {
  EXPECT_EQ(ReplayMismatch([] {
              SweepReport r = RunSweep(Variant::kBase, /*schedule=*/5, /*seed=*/1);
              return r.schedule + r.history.Serialize();
            }),
            "");
}

// The checker must catch a real consistency bug: with the persist-ack wait
// skipped (options.unsafe_skip_persist_wait), an acked put whose MetaX has
// not reached any replica's WAL dies with a cluster-wide meta power failure.
// Slow meta disks widen that window from microseconds to milliseconds so a
// scripted power failure reliably lands inside it.
TEST(ChaosInjectedBug, SkippedPersistWaitIsCaught) {
  auto run_with_bug_schedule = [](uint64_t seed, bool bug) {
    TestbedConfig config = ChaosConfig(Variant::kBase);
    config.options.unsafe_skip_persist_wait = bug;
    const int meta_count = config.meta_machines;
    Testbed bed(std::move(config));
    EXPECT_TRUE(bed.Boot().ok());
    bed.network().SeedFaults(seed);

    NemesisSchedule schedule;
    schedule.Add(Millis(150), "gray ALL meta disks x25",
                 [meta_count](Testbed& b) {
                   sim::GrayFailure g;
                   g.latency_multiplier = 100.0;
                   for (int i = 0; i < meta_count; ++i) {
                     b.meta_machine(i).SetGrayFailure(g);
                   }
                 });
    schedule.Add(Millis(650), "power-fail ALL meta machines",
                 [meta_count](Testbed& b) {
                   for (int i = 0; i < meta_count; ++i) {
                     b.Crash(b.meta_node(i), /*power_loss=*/true);
                   }
                 });
    schedule.Add(Millis(1300), "restore meta disks",
                 [meta_count](Testbed& b) {
                   for (int i = 0; i < meta_count; ++i) {
                     b.meta_machine(i).ClearGrayFailure();
                   }
                 });
    schedule.Add(Millis(1350), "restart ALL meta machines",
                 [meta_count](Testbed& b) {
                   for (int i = 0; i < meta_count; ++i) {
                     b.Restart(b.meta_node(i));
                   }
                 });
    Sweep sweep(bed, seed);
    sweep.Install(std::move(schedule));

    // Every put goes to a fresh key. No op-count cap below the time cutoff:
    // the workers must still be putting when the scripted power failure
    // lands, or the vulnerable ack-before-persist window is empty and the
    // bug never manifests.
    const bool done = sweep.RunWorkers(
        3, [seed](ClientProxy& proxy, int w, History& history) -> sim::Task<> {
          Rng rng(seed * 31 + static_cast<uint64_t>(w));
          sim::Actor* self = co_await sim::CurrentActor{};
          const Nanos start = self->Now();
          for (int i = 0; i < 100000; ++i) {
            const std::string key = "bug-w" + std::to_string(w) + "-" + std::to_string(i);
            (void)co_await RecordedPut(proxy, history, w, key, TaggedPayload(w, i, key));
            if (self->Now() > start + Millis(800)) {
              break;  // past the interesting window; stop early
            }
            co_await sim::SleepFor(Millis(2) + rng.Uniform(Millis(4)));
          }
        });
    EXPECT_TRUE(done) << "bug workload hung";
    bed.RunFor(Seconds(5));
    // Audit every key the workers touched.
    std::vector<std::string> keys;
    int acked = 0;
    for (const Op& op : sweep.history().ops()) {
      if (op.type == OpType::kPut) {
        keys.push_back(op.key);
        acked += op.outcome == Outcome::kOk ? 1 : 0;
      }
    }
    EXPECT_GT(acked, 0) << "no put was ever acked";
    sweep.AuditReads(keys);
    return CheckLinearizable(sweep.history());
  };

  // The checker must flag the bug under at least one seed...
  bool caught = false;
  uint64_t caught_seed = 0;
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    auto violations = run_with_bug_schedule(seed, /*bug=*/true);
    if (!violations.empty()) {
      caught = true;
      caught_seed = seed;
      break;
    }
  }
  EXPECT_TRUE(caught) << "injected persist-wait bug escaped the checker";
  // ...and the identical schedule with the bug reverted must be clean.
  auto control = run_with_bug_schedule(caught ? caught_seed : 1, /*bug=*/false);
  EXPECT_TRUE(control.empty()) << FormatViolations(control);
}

}  // namespace
}  // namespace cheetah::chaos
