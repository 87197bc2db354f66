// Resize-under-fire chaos: a planned drain runs mid-workload while a nemesis
// attacks a different leg of the live-migration state machine — the source
// dies mid-DoubleWrite, the destination dies mid-Catchup, or the manager
// leader is partitioned around Cutover. Every client operation is recorded
// and each per-key history is checked for linearizability; the final audit
// proves no lost or ghost objects. Any failure prints the seed + schedule,
// which reproduce the run byte-for-byte.
//
// Seed policy mirrors the chaos sweep: CHEETAH_SWEEP_SEEDS is a
// comma-separated list (default "1,2,3" — the fixed CI set; pass larger sets
// for local hunts, scripts/chaos.sh style).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/chaos/sweep.h"
#include "src/core/testbed.h"

namespace cheetah::chaos {
namespace {

using core::Testbed;
using core::TestbedConfig;

constexpr const char* kFaultNames[] = {"CrashSource", "CrashDestination",
                                       "PartitionLeader"};

// Three workers over eight shared keys, mixed put/get/delete.
const WorkloadSpec kWorkload;

struct MigrationResult {
  SweepReport report;
  bool migrations_settled = false;  // no in-flight migration after the run
};

// One full run: pure function of (fault_idx, seed) — the determinism test
// relies on it.
MigrationResult RunSweep(int fault_idx, uint64_t seed) {
  MigrationResult result;
  // Four meta machines: a drained node needs a destination among the
  // survivors (replication 3 of the remaining 3).
  TestbedConfig config = SweepTestbed();
  const int meta_count = config.meta_machines;
  Testbed bed(std::move(config));
  if (!bed.Boot().ok()) {
    ADD_FAILURE() << "boot failed";
    return result;
  }
  Sweep sweep(bed, seed);
  bed.network().SeedFaults(seed * 7919 + static_cast<uint64_t>(fault_idx));
  sweep.Install(MigrationSchedules(seed, meta_count, Seconds(4)).at(fault_idx));
  sweep.RunWorkload(kWorkload);

  // Heal, restart, settle. A drain may legitimately still be running (the
  // schedules re-issue one late); give it room to finish, then require that
  // no migration entry is stuck in the topology.
  RestoreAndSettle(bed, Seconds(5));
  const Nanos settle_deadline = bed.loop().Now() + Seconds(30);
  while (bed.loop().Now() < settle_deadline) {
    const int leader = bed.LeaderManager();
    if (leader >= 0 && bed.manager(leader).topology().migrations.empty() &&
        !bed.manager(leader).drain_running()) {
      result.migrations_settled = true;
      break;
    }
    bed.RunFor(Millis(100));
  }

  // Audit every key: the final reads join the history like any other ops.
  sweep.AuditReads(kWorkload.AllKeys());
  result.report = sweep.Report();
  return result;
}

struct Param {
  int fault;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  return std::string(kFaultNames[info.param.fault]) + "Seed" +
         std::to_string(info.param.seed);
}

class MigrationSweep : public ::testing::TestWithParam<Param> {};

TEST_P(MigrationSweep, HistoriesAreLinearizable) {
  const Param p = GetParam();
  MigrationResult m = RunSweep(p.fault, p.seed);
  const SweepReport& r = m.report;
  const std::string replay = r.Replay("migration_sweep_test", ParamName({p, 0}));
  r.PrintHistoryHash("migration_sweep_test", ParamName({p, 0}));
  EXPECT_TRUE(r.workers_done) << "workload hung\n" << replay;
  EXPECT_TRUE(r.audit_healthy) << "cluster unhealthy at audit time\n" << replay;
  EXPECT_TRUE(m.migrations_settled)
      << "migration state stuck in the topology after the run\n" << replay;
  EXPECT_GT(r.coverage.events_during_workload, 0) << "no fault hit the workload\n" << replay;
  auto violations = CheckLinearizable(r.history);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations) << replay;
}

std::vector<Param> MakeParams() {
  std::vector<Param> out;
  for (uint64_t seed : SweepSeeds("1,2,3")) {
    for (int fault = 0; fault < 3; ++fault) {
      out.push_back({fault, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, MigrationSweep, ::testing::ValuesIn(MakeParams()),
                         ParamName);

// Same (fault, seed), same schedule and history on both engines — this is
// what makes a printed seed+schedule a full reproduction.
TEST(MigrationDeterminism, SameSeedSameHistory) {
  EXPECT_EQ(ReplayMismatch([] {
              SweepReport r = RunSweep(/*fault_idx=*/0, /*seed=*/1).report;
              return r.schedule + r.history.Serialize();
            }),
            "");
}

}  // namespace
}  // namespace cheetah::chaos
