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
// Seed policy mirrors the chaos sweep: CHEETAH_INTEGRITY_SEEDS is a
// comma-separated list (default "1,2" — the fixed CI set); the failure
// message prints the seed + schedule, which reproduce the run byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/nemesis.h"
#include "src/common/crc32c.h"
#include "src/core/scrubber.h"
#include "src/core/testbed.h"
#include "src/sim/event_loop.h"
#include "tests/test_util.h"

namespace cheetah::chaos {
namespace {

using core::ClientProxy;
using core::MetaServer;
using core::Testbed;
using core::TestbedConfig;

constexpr int kObjects = 24;
constexpr int kWorkers = 2;
constexpr int kRounds = 30;

std::vector<uint64_t> IntegritySeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("CHEETAH_INTEGRITY_SEEDS");
  std::string spec = env != nullptr ? env : "1,2";
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) {
      seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    }
  }
  if (seeds.empty()) {
    seeds.push_back(1);
  }
  return seeds;
}

TestbedConfig IntegrityConfig(bool scrub_on) {
  TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = kWorkers;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  config.options.qos.enabled = true;  // repair rides the maintenance class
  if (scrub_on) {
    config.options.scrub_interval = Millis(250);
  }
  return config;
}

std::string ObjName(int k) { return "int-" + std::to_string(k); }

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
  std::string schedule_str;
  bool workers_done = false;
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

void ScrubAllOnce(Testbed& bed) {
  auto pending = std::make_shared<int>(bed.num_meta());
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.meta_machine(i).actor().Spawn(
        [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->ScrubNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  while (*pending > 0 && bed.loop().RunOne()) {
  }
}

uint64_t TotalCorruptFound(Testbed& bed) {
  uint64_t total = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    total += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  return total;
}

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

  // Phase 1: populate, and let the cleaner settle the puts so the scrubber
  // covers every object.
  for (int k = 0; k < kObjects; ++k) {
    Status s = bed.PutObject(0, ObjName(k), ExpectedPayload(seed, k));
    if (!s.ok()) {
      ADD_FAILURE() << "put failed: " << s.ToString();
      return result;
    }
  }
  bed.RunFor(Seconds(2));

  // Phase 2: damage arrives while readers hammer the objects.
  const Nanos span = Seconds(3);
  if (with_nemesis) {
    bed.network().SeedFaults(seed * 7919);
    NemesisSchedule schedule = IntegrityChaos(seed, data_count, span);
    result.schedule_str = schedule.ToString();
    schedule.Install(bed);
  }
  auto shared = std::make_shared<IntegrityResult>();
  auto done_workers = std::make_shared<int>(0);
  for (int w = 0; w < kWorkers; ++w) {
    bed.RunOnProxy(w, [w, seed, shared, done_workers, span,
                       &loop = bed.loop()](ClientProxy& proxy) -> sim::Task<> {
      Rng rng(seed * 1000003 + static_cast<uint64_t>(w));
      for (int i = 0; i < kRounds; ++i) {
        const int k = static_cast<int>(rng.Uniform(kObjects));
        const Nanos begin = loop.Now();
        auto r = co_await proxy.Get(ObjName(k));
        if (r.ok()) {
          ++shared->ok_gets;
          shared->get_lat.push_back(loop.Now() - begin);
          if (*r != ExpectedPayload(seed, k)) {
            ++shared->corrupt_acked;  // silent corruption reached a client
          }
        } else {
          ++shared->failed_gets;
        }
        co_await sim::SleepFor(span / kRounds / 2 + rng.Uniform(span / kRounds));
      }
      ++*done_workers;
    }, Nanos{0});
  }
  const Nanos deadline = bed.loop().Now() + Seconds(120);
  while (*done_workers < kWorkers && bed.loop().Now() < deadline) {
    if (!bed.loop().RunOne()) {
      break;
    }
  }
  result = std::move(*shared);
  result.workers_done = *done_workers == kWorkers;
  if (with_nemesis) {
    NemesisSchedule schedule = IntegrityChaos(seed, data_count, span);
    result.schedule_str = schedule.ToString();
  }

  // Phase 3: the repair budget. The fault window is closed (IntegrityChaos
  // clears its own gray failure); the periodic scrubber gets a fixed slice
  // of virtual time, then one explicit pass mops up anything it missed.
  for (int i = 0; i < bed.num_data(); ++i) {
    bed.data_machine(i).ClearGrayFailure();
  }
  bed.RunFor(Seconds(3));
  ScrubAllOnce(bed);
  bed.RunFor(Millis(500));

  // Audit pass: a fresh scrub must find nothing left to repair, and every
  // object must read back byte-identical.
  const uint64_t corrupt_before_audit = TotalCorruptFound(bed);
  ScrubAllOnce(bed);
  result.residual_corrupt = TotalCorruptFound(bed) - corrupt_before_audit;
  std::ostringstream fp;
  for (int k = 0; k < kObjects; ++k) {
    auto r = bed.GetObject(0, ObjName(k));
    if (!r.ok() || *r != ExpectedPayload(seed, k)) {
      ++result.final_mismatches;
      fp << "k" << k << "=BAD ";
    } else {
      fp << "k" << k << "=" << Crc32c(*r) << " ";
    }
  }

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
  for (int w = 0; w < kWorkers; ++w) {
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
      "replay: CHEETAH_INTEGRITY_SEEDS=" + std::to_string(seed) +
      " ./build/tests/integrity_sweep_test --gtest_filter='*Seed" +
      std::to_string(seed) + "'\nschedule:\n" + r.schedule_str;
  EXPECT_TRUE(r.workers_done) << "reader workload hung\n" << replay;
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

INSTANTIATE_TEST_SUITE_P(Matrix, IntegritySweep,
                         ::testing::ValuesIn(IntegritySeeds()), SeedName);

// Invariant 3: replayability. Two runs of the same seed produce identical
// schedules, stats, and final payload checksums.
TEST(IntegrityDeterminism, SameSeedSameRun) {
  IntegrityResult a = RunIntegrity(1, /*with_nemesis=*/true, /*scrub_on=*/true);
  IntegrityResult b = RunIntegrity(1, /*with_nemesis=*/true, /*scrub_on=*/true);
  EXPECT_EQ(a.schedule_str, b.schedule_str);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_FALSE(a.fingerprint.empty());
  // Cross-engine guard: the reference heap engine must replay the identical
  // run byte for byte — the timer wheel is only allowed to be faster, never
  // different.
  sim::EventLoop::OverrideDefaultEngine(sim::EventLoop::Engine::kHeap);
  IntegrityResult c = RunIntegrity(1, /*with_nemesis=*/true, /*scrub_on=*/true);
  sim::EventLoop::OverrideDefaultEngine(std::nullopt);
  EXPECT_EQ(a.schedule_str, c.schedule_str);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
}

// Scrub overhead: with no faults at all, foreground get p99 with the
// periodic scrubber active stays within 2x of the scrub-off baseline — the
// maintenance QoS class keeps audit I/O out of the foreground's way.
TEST(IntegrityScrubOverhead, ForegroundP99Bounded) {
  IntegrityResult off = RunIntegrity(1, /*with_nemesis=*/false, /*scrub_on=*/false);
  IntegrityResult on = RunIntegrity(1, /*with_nemesis=*/false, /*scrub_on=*/true);
  ASSERT_TRUE(off.workers_done);
  ASSERT_TRUE(on.workers_done);
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
