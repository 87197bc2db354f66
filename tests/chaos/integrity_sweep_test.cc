// Integrity chaos sweep: at-rest bit rot, latent sector errors, and a
// gray-corrupting disk against a cluster with verified reads, read-repair,
// and the background scrubber. The invariants, per seed:
//
//   1. Zero corrupt payload bytes are ever acked to a client — a damaged
//      replica may cost latency or an error, never wrong data.
//   2. Every injected at-rest fault is detected and repaired within the
//      fixed virtual-time budget after the fault window closes: a final
//      explicit scrub pass finds nothing left to fix, and every object reads
//      back byte-identical.
//   3. The whole run is a pure function of the seed (replayable).
//
// Seed policy mirrors the chaos sweep: CHEETAH_SWEEP_SEEDS is a
// comma-separated list (default "1,2" — the fixed CI set); the failure
// message prints the seed + schedule, which reproduce the run byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/nemesis.h"
#include "src/chaos/sweep.h"
#include "src/common/crc32c.h"
#include "src/common/random.h"
#include "src/core/scrubber.h"
#include "src/core/testbed.h"

namespace cheetah::chaos {
namespace {

using core::Testbed;
using core::TestbedConfig;

constexpr Nanos kSpan = Seconds(3);

// Two readers, 30 gets each over 24 objects, spread across the fault window.
WorkloadSpec IntegrityWorkload() {
  WorkloadSpec spec;
  spec.workers = 2;
  spec.key_prefix = "int-";
  spec.keys = 24;
  spec.rounds = 30;
  spec.put_pct = 0;
  spec.get_pct = 100;
  spec.think_min = kSpan / spec.rounds / 2;
  spec.think_jitter = kSpan / spec.rounds;
  return spec;
}

TestbedConfig IntegrityConfig(bool scrub_on) {
  TestbedConfig config = SweepTestbed();
  config.meta_machines = 3;
  config.proxies = 2;
  config.options.qos.enabled = true;  // repair rides the maintenance class
  if (scrub_on) {
    config.options.scrub_interval = Millis(250);
  }
  return config;
}

// Deterministic ~2KB payload, unique per (seed, object).
std::string ExpectedPayload(uint64_t seed, int k) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(k));
  std::string out = "obj" + std::to_string(k) + "|";
  while (out.size() < 2048) {
    out += static_cast<char>('a' + rng.Uniform(26));
  }
  return out;
}

struct IntegrityResult {
  SweepReport report;
  uint64_t corrupt_acked = 0;     // gets that returned wrong bytes — must be 0
  uint64_t failed_gets = 0;       // gets that errored mid-chaos (allowed)
  uint64_t ok_gets = 0;
  uint64_t injected = 0;          // bit-rot + LSE + gray-corrupted writes
  uint64_t read_repairs = 0;
  uint64_t scrub_repairs = 0;
  uint64_t residual_corrupt = 0;  // probe failures in the final audit pass
  uint64_t final_mismatches = 0;  // audit reads that failed or diverged
  std::vector<Nanos> get_lat;     // successful foreground get latencies
  std::string fingerprint;        // determinism: stats + final payload CRCs
};

// One full integrity run; a pure function of (seed, with_nemesis, scrub_on).
IntegrityResult RunIntegrity(uint64_t seed, bool with_nemesis, bool scrub_on) {
  IntegrityResult result;
  TestbedConfig config = IntegrityConfig(scrub_on);
  const int data_count = config.data_machines;
  Testbed bed(std::move(config));
  if (!bed.Boot().ok()) {
    ADD_FAILURE() << "boot failed";
    return result;
  }
  const WorkloadSpec spec = IntegrityWorkload();
  Sweep sweep(bed, seed);

  // Phase 1: populate, and let the cleaner settle the puts so the scrubber
  // covers every object.
  if (!sweep.Populate(spec, [seed](int k) { return ExpectedPayload(seed, k); })) {
    ADD_FAILURE() << "populate failed";
    return result;
  }
  bed.RunFor(Seconds(2));

  // Phase 2: damage arrives while readers hammer the objects.
  if (with_nemesis) {
    bed.network().SeedFaults(seed * 7919);
    sweep.Install(IntegrityChaos(seed, data_count, kSpan));
  }
  sweep.RunWorkload(spec);
  result.corrupt_acked = CorruptAcked(sweep.history());
  for (const Op& op : sweep.history().ops()) {
    if (op.type != OpType::kGet) {
      continue;
    }
    if (op.outcome == Outcome::kOk) {
      ++result.ok_gets;
      result.get_lat.push_back(op.ret - op.invoke);
    } else {
      ++result.failed_gets;
    }
  }

  // Phase 3: the repair budget. The fault window is closed (IntegrityChaos
  // clears its own gray failure); the periodic scrubber gets a fixed slice
  // of virtual time, then one explicit pass mops up anything it missed.
  RestoreAndSettle(bed, Seconds(3), Restore::kDisksOnly);
  ScrubAllOnce(bed);
  bed.RunFor(Millis(500));

  // Audit pass: a fresh scrub must find nothing left to repair, and every
  // object must read back byte-identical.
  result.residual_corrupt = ScrubAudit(bed);
  std::ostringstream fp;
  const auto reads = sweep.AuditReads(spec.AllKeys());
  for (int k = 0; k < spec.keys; ++k) {
    const auto& r = reads[k];
    if (!r.ok() || *r != ExpectedPayload(seed, k)) {
      ++result.final_mismatches;
      fp << "k" << k << "=BAD ";
    } else {
      fp << "k" << k << "=" << Crc32c(*r) << " ";
    }
  }
  result.report = sweep.Report();

  for (int i = 0; i < bed.num_data(); ++i) {
    auto& m = bed.data_machine(i);
    for (uint32_t di = 0; di < m.num_disks(); ++di) {
      result.injected += m.disk(di).bitrot_extents() + m.disk(di).lse_extents() +
                         m.disk(di).writes_corrupted();
    }
  }
  for (int i = 0; i < bed.num_meta(); ++i) {
    result.scrub_repairs += bed.meta(i).scrubber().stats().repairs.value();
  }
  for (int w = 0; w < spec.workers; ++w) {
    result.read_repairs += bed.proxy(w).stats().read_repairs.value();
  }
  fp << "| injected=" << result.injected << " scrub_repairs=" << result.scrub_repairs
     << " read_repairs=" << result.read_repairs
     << " corrupt_acked=" << result.corrupt_acked
     << " ok=" << result.ok_gets << " failed=" << result.failed_gets;
  result.fingerprint = fp.str();
  return result;
}

Nanos P99(std::vector<Nanos> lat) {
  if (lat.empty()) {
    return 0;
  }
  std::sort(lat.begin(), lat.end());
  return lat[std::min(lat.size() - 1, (lat.size() * 99) / 100)];
}

class IntegritySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntegritySweep, NoCorruptionAckedAndAllDamageRepaired) {
  const uint64_t seed = GetParam();
  IntegrityResult r = RunIntegrity(seed, /*with_nemesis=*/true, /*scrub_on=*/true);
  const std::string replay =
      r.report.Replay("integrity_sweep_test", "Seed" + std::to_string(seed));
  r.report.PrintHistoryHash("integrity_sweep_test", "Seed" + std::to_string(seed));
  EXPECT_TRUE(r.report.workers_done) << "reader workload hung\n" << replay;
  EXPECT_GT(r.report.coverage.events_during_workload, 0)
      << "no fault hit the workload\n" << replay;
  EXPECT_GT(r.injected, 0u) << "nemesis injected no damage\n" << replay;
  EXPECT_GT(r.ok_gets, 0u) << "no get ever succeeded\n" << replay;
  // Invariant 1: never wrong bytes, no matter what rotted underneath.
  EXPECT_EQ(r.corrupt_acked, 0u) << replay;
  // Invariant 2: within the fixed post-fault budget, the scrubber has found
  // and fixed everything — the audit pass has nothing left to flag, and the
  // cluster serves every object byte-identical again.
  EXPECT_EQ(r.residual_corrupt, 0u) << replay;
  EXPECT_EQ(r.final_mismatches, 0u) << replay;
  // The pipeline was actually exercised: something repaired the damage.
  EXPECT_GT(r.scrub_repairs + r.read_repairs, 0u) << replay;
}

std::string SeedName(const ::testing::TestParamInfo<uint64_t>& info) {
  return "Seed" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Matrix, IntegritySweep, ::testing::ValuesIn(SweepSeeds("1,2")),
                         SeedName);

// Invariant 3: replayability. Runs of the same seed produce identical
// schedules, stats, and final payload checksums on both engines.
TEST(IntegrityDeterminism, SameSeedSameRun) {
  EXPECT_EQ(ReplayMismatch([] {
              IntegrityResult r = RunIntegrity(1, /*with_nemesis=*/true, /*scrub_on=*/true);
              return r.report.schedule + r.fingerprint;
            }),
            "");
}

// Scrub overhead: with no faults at all, foreground get p99 with the
// periodic scrubber active stays within 2x of the scrub-off baseline — the
// maintenance QoS class keeps audit I/O out of the foreground's way.
TEST(IntegrityScrubOverhead, ForegroundP99Bounded) {
  IntegrityResult off = RunIntegrity(1, /*with_nemesis=*/false, /*scrub_on=*/false);
  IntegrityResult on = RunIntegrity(1, /*with_nemesis=*/false, /*scrub_on=*/true);
  ASSERT_TRUE(off.report.workers_done);
  ASSERT_TRUE(on.report.workers_done);
  EXPECT_EQ(off.corrupt_acked, 0u);
  EXPECT_EQ(on.corrupt_acked, 0u);
  EXPECT_EQ(off.failed_gets, 0u);
  EXPECT_EQ(on.failed_gets, 0u);
  const Nanos p99_off = P99(off.get_lat);
  const Nanos p99_on = P99(on.get_lat);
  EXPECT_GT(p99_off, 0);
  EXPECT_LE(p99_on, 2 * p99_off)
      << "get p99 " << p99_on << "ns with scrub vs " << p99_off << "ns without";
}

}  // namespace
}  // namespace cheetah::chaos
