// Erasure-coding chaos sweep: the full tiering pipeline — inline puts,
// replica puts, background demotion to RS(k,m) stripes — under chunk loss
// (a crashed data machine), at-rest bit rot, and a gray-corrupting disk,
// while writers and deleters race the demotion engine. Invariants, per seed:
//
//   1. Client histories stay linearizable under create-once register
//      semantics: demotion is invisible to clients except as availability.
//   2. Zero corrupt payload bytes are ever acked — degraded reads
//      reconstruct, they never guess.
//   3. Damage is repaired within a fixed virtual-time budget after the fault
//      window closes: a final scrub pass finds nothing left.
//   4. The whole run is a pure function of the seed (replayable).
//
// Seed policy mirrors the other sweeps: CHEETAH_SWEEP_SEEDS is a comma-
// separated list (default "1,2"); failures print the seed + schedule for replay.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/chaos/sweep.h"
#include "src/common/crc32c.h"
#include "src/common/random.h"
#include "src/core/testbed.h"
#include "src/tier/engine.h"

namespace cheetah::chaos {
namespace {

using core::Testbed;
using core::TestbedConfig;

// RS(2,1) stripes next to 3-way replica LVs: 4 machines x 2 disks x 6 PVs.
// Byte-for-byte payload storage so reconstruction is actually checked.
TestbedConfig EcChaosConfig() {
  TestbedConfig config = SweepTestbed();
  config.meta_machines = 3;
  config.pvs_per_disk = 6;
  config.options.qos.enabled = true;  // tier/scrub I/O rides maintenance
  config.options.scrub_interval = Millis(250);
  config.options.tier.inline_threshold = 512;
  config.options.tier.ec_k = 2;
  config.options.tier.ec_m = 1;
  config.options.tier.min_ec_object_bytes = 4096;
  config.options.tier.demote_after = Millis(150);
  config.options.tier.tier_scan_interval = Millis(300);
  return config;
}

// Payload sizes cycle through the three storage classes: inline (<= 512),
// replica-for-now (2KB, below min_ec_object_bytes), and demotion candidates
// (16KB). Deterministic bytes per (seed, key, version).
std::string Payload(uint64_t seed, const std::string& key, int version) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + Crc32c(key) + static_cast<uint64_t>(version));
  const size_t sizes[] = {256, 2048, 16384};
  std::string out = key + "#" + std::to_string(version) + "|";
  const size_t target = sizes[rng.Uniform(3)];
  while (out.size() < target) {
    out += static_cast<char>('a' + rng.Uniform(26));
  }
  return out;
}

// Three workers over eight keys: 25% recreates with a fresh version (racing
// demotion's swap phase), 55% gets, 20% deletes.
WorkloadSpec EcWorkload(uint64_t seed) {
  WorkloadSpec spec;
  spec.key_prefix = "ec-";
  spec.rounds = 12;
  spec.put_pct = 25;
  spec.get_pct = 55;
  spec.payload = [seed](int w, int i, const std::string& key) {
    return Payload(seed, key, w * 1000 + i + 1);
  };
  return spec;
}

struct EcSweepResult {
  SweepReport report;
  uint64_t demotions = 0;
  uint64_t inline_puts = 0;
  uint64_t ec_degraded_reads = 0;
  uint64_t corrupt_acked = 0;     // OK gets whose bytes were not a put value
  uint64_t residual_corrupt = 0;  // probe failures in the final audit pass
  std::string fingerprint;
};

// One full EC chaos run; a pure function of the seed.
EcSweepResult RunEcSweep(uint64_t seed) {
  EcSweepResult result;
  TestbedConfig config = EcChaosConfig();
  const int data_count = config.data_machines;
  Testbed bed(std::move(config));
  if (!bed.Boot().ok()) {
    ADD_FAILURE() << "boot failed";
    return result;
  }
  const WorkloadSpec spec = EcWorkload(seed);
  Sweep sweep(bed, seed);

  // Phase 1: populate every key (version 0), then let the cleaner settle the
  // puts and the first demotion waves run — the chaos arrives with stripes
  // already on disk.
  sweep.Populate(spec, [&](int k) { return Payload(seed, spec.Key(k), 0); });
  bed.RunFor(Seconds(2));

  // Phase 2: chunk loss + rot + wild writes while workers mutate and read.
  bed.network().SeedFaults(seed * 7919);
  sweep.Install(EcChunkChaos(seed, data_count, Seconds(3)));
  sweep.RunWorkload(spec);

  // Phase 3: restore, give scrub + tier a fixed repair budget, then audit.
  RestoreAndSettle(bed, Seconds(4), Restore::kDisksOnly);
  ScrubAllOnce(bed);
  bed.RunFor(Millis(500));
  result.residual_corrupt = ScrubAudit(bed);

  // Final reads join the history; the checker then owns end-state validity.
  sweep.AuditReads(spec.AllKeys());
  result.report = sweep.Report();
  const History& history = result.report.history;
  result.corrupt_acked = CorruptAcked(history);

  for (int i = 0; i < bed.num_meta(); ++i) {
    result.demotions += bed.meta(i).tier_engine().stats().demotions.value();
  }
  for (int w = 0; w < spec.workers; ++w) {
    result.inline_puts += bed.proxy(w).stats().inline_puts.value();
    result.ec_degraded_reads += bed.proxy(w).stats().ec_degraded_reads.value();
  }
  std::ostringstream fp;
  fp << "hist=" << Crc32c(history.Serialize()) << " demotions=" << result.demotions
     << " inline=" << result.inline_puts << " degraded=" << result.ec_degraded_reads
     << " corrupt_acked=" << result.corrupt_acked
     << " residual=" << result.residual_corrupt;
  result.fingerprint = fp.str();
  return result;
}

class EcSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcSweep, LinearizableAndRepairedUnderChunkLoss) {
  const uint64_t seed = GetParam();
  EcSweepResult r = RunEcSweep(seed);
  const std::string replay =
      r.report.Replay("ec_sweep_test", "Seed" + std::to_string(seed));
  r.report.PrintHistoryHash("ec_sweep_test", "Seed" + std::to_string(seed));
  EXPECT_TRUE(r.report.workers_done) << "workload hung\n" << replay;
  EXPECT_GT(r.report.coverage.events_during_workload, 0)
      << "no fault hit the workload\n" << replay;
  // The tiering pipeline actually ran: objects were demoted to stripes and
  // small objects rode inline.
  EXPECT_GT(r.demotions, 0u) << "no object was ever demoted to EC\n" << replay;
  EXPECT_GT(r.inline_puts, 0u) << "no put ever went inline\n" << replay;
  // Invariant 2: no invented bytes, ever.
  EXPECT_EQ(r.corrupt_acked, 0u) << replay;
  // Invariant 3: the repair budget sufficed; the audit scrub is clean.
  EXPECT_EQ(r.residual_corrupt, 0u) << replay;
  // Invariant 1: the client-visible history is linearizable.
  auto violations = CheckLinearizable(r.report.history);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations) << replay;
}

std::string SeedName(const ::testing::TestParamInfo<uint64_t>& info) {
  return "Seed" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Matrix, EcSweep, ::testing::ValuesIn(SweepSeeds("1,2")), SeedName);

// Invariant 4: replayability — same seed, same schedule, same history, same
// repair stats, on both engines.
TEST(EcDeterminism, SameSeedSameRun) {
  EXPECT_EQ(ReplayMismatch([] {
              EcSweepResult r = RunEcSweep(1);
              return r.report.schedule + r.fingerprint;
            }),
            "");
}

}  // namespace
}  // namespace cheetah::chaos
