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
// Seed policy mirrors the other sweeps: CHEETAH_EC_SEEDS is a comma-separated
// list (default "1,2"); failures print the seed + schedule for replay.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/common/crc32c.h"
#include "src/core/scrubber.h"
#include "src/core/testbed.h"
#include "src/sim/event_loop.h"
#include "src/tier/engine.h"

namespace cheetah::chaos {
namespace {

using core::ClientProxy;
using core::MetaServer;
using core::Testbed;
using core::TestbedConfig;

constexpr int kKeys = 8;
constexpr int kWorkers = 3;
constexpr int kRounds = 12;

std::vector<uint64_t> EcSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("CHEETAH_EC_SEEDS");
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

// RS(2,1) stripes next to 3-way replica LVs: 4 machines x 2 disks x 6 PVs.
// Byte-for-byte payload storage so reconstruction is actually checked.
TestbedConfig EcChaosConfig() {
  TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = kWorkers;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 6;
  config.lv_capacity_bytes = MiB(128);
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

struct EcSweepResult {
  std::string schedule_str;
  bool workers_done = false;
  History history;
  uint64_t demotions = 0;
  uint64_t inline_puts = 0;
  uint64_t ec_degraded_reads = 0;
  uint64_t corrupt_acked = 0;     // OK gets whose bytes were not a put value
  uint64_t residual_corrupt = 0;  // probe failures in the final audit pass
  std::string fingerprint;
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

  // Phase 1: populate every key (version 0), then let the cleaner settle the
  // puts and the first demotion waves run — the chaos arrives with stripes
  // already on disk.
  auto history = std::make_shared<History>();
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "ec-" + std::to_string(k);
    const std::string value = Payload(seed, key, 0);
    const uint64_t id = history->Invoke(98, OpType::kPut, key, value, bed.loop().Now());
    Status s = bed.PutObject(0, key, value);
    history->Return(id, s.ok() ? Outcome::kOk : Outcome::kAmbiguous, "",
                    bed.loop().Now());
  }
  bed.RunFor(Seconds(2));

  // Phase 2: chunk loss + rot + wild writes while workers mutate and read.
  const Nanos span = Seconds(3);
  bed.network().SeedFaults(seed * 7919);
  NemesisSchedule schedule = EcChunkChaos(seed, data_count, span);
  result.schedule_str = schedule.ToString();
  schedule.Install(bed);

  auto done_workers = std::make_shared<int>(0);
  for (int w = 0; w < kWorkers; ++w) {
    bed.RunOnProxy(w, [w, seed, history, done_workers,
                       &loop = bed.loop()](ClientProxy& proxy) -> sim::Task<> {
      Rng rng(seed * 1000003 + static_cast<uint64_t>(w));
      for (int i = 0; i < kRounds; ++i) {
        const std::string key = "ec-" + std::to_string(rng.Uniform(kKeys));
        const uint64_t dice = rng.Uniform(100);
        if (dice < 25) {
          // Recreate with a fresh version: races demotion's swap phase.
          const std::string value =
              Payload(seed, key, w * 1000 + i + 1);
          const uint64_t id = history->Invoke(w, OpType::kPut, key, value, loop.Now());
          Status s = co_await proxy.Put(key, value);
          Outcome out = Outcome::kAmbiguous;
          if (s.ok()) {
            out = Outcome::kOk;
          } else if (s.code() == ErrorCode::kAlreadyExists ||
                     s.code() == ErrorCode::kResourceExhausted) {
            out = Outcome::kNoEffect;
          }
          history->Return(id, out, "", loop.Now());
        } else if (dice < 80) {
          const uint64_t id = history->Invoke(w, OpType::kGet, key, "", loop.Now());
          auto r = co_await proxy.Get(key);
          if (r.ok()) {
            history->Return(id, Outcome::kOk, *r, loop.Now());
          } else if (r.status().IsNotFound()) {
            history->Return(id, Outcome::kNotFound, "", loop.Now());
          } else {
            history->Return(id, Outcome::kNoEffect, "", loop.Now());
          }
        } else {
          const uint64_t id = history->Invoke(w, OpType::kDelete, key, "", loop.Now());
          Status s = co_await proxy.Delete(key);
          Outcome out = Outcome::kAmbiguous;
          if (s.ok()) {
            out = Outcome::kOk;
          } else if (s.IsNotFound()) {
            out = Outcome::kNotFound;
          }
          history->Return(id, out, "", loop.Now());
        }
        co_await sim::SleepFor(Millis(40) + rng.Uniform(Millis(160)));
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
  result.workers_done = *done_workers == kWorkers;

  // Phase 3: restore, give scrub + tier a fixed repair budget, then audit.
  for (int i = 0; i < bed.num_data(); ++i) {
    bed.data_machine(i).ClearGrayFailure();
  }
  bed.RunFor(Seconds(4));
  ScrubAllOnce(bed);
  bed.RunFor(Millis(500));

  const uint64_t corrupt_before_audit = TotalCorruptFound(bed);
  ScrubAllOnce(bed);
  result.residual_corrupt = TotalCorruptFound(bed) - corrupt_before_audit;

  // Final reads join the history; the checker then owns end-state validity.
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "ec-" + std::to_string(k);
    const uint64_t id = history->Invoke(99, OpType::kGet, key, "", bed.loop().Now());
    auto r = bed.GetObject(0, key);
    if (r.ok()) {
      history->Return(id, Outcome::kOk, *r, bed.loop().Now());
    } else if (r.status().IsNotFound()) {
      history->Return(id, Outcome::kNotFound, "", bed.loop().Now());
    } else {
      history->Return(id, Outcome::kNoEffect, "", bed.loop().Now());
    }
  }

  // Every acked get must be byte-identical to some version actually written
  // to that key — reconstruction may never hand back invented bytes.
  for (const Op& op : history->ops()) {
    if (op.type != OpType::kGet || op.outcome != Outcome::kOk) {
      continue;
    }
    bool known = false;
    for (const Op& put : history->ops()) {
      if (put.type == OpType::kPut && put.key == op.key && put.value == op.value) {
        known = true;
        break;
      }
    }
    if (!known) {
      ++result.corrupt_acked;
    }
  }

  for (int i = 0; i < bed.num_meta(); ++i) {
    result.demotions += bed.meta(i).tier_engine().stats().demotions.value();
  }
  for (int w = 0; w < kWorkers; ++w) {
    result.inline_puts += bed.proxy(w).stats().inline_puts.value();
    result.ec_degraded_reads += bed.proxy(w).stats().ec_degraded_reads.value();
  }
  result.history = *history;
  std::ostringstream fp;
  fp << "hist=" << Crc32c(history->Serialize()) << " demotions=" << result.demotions
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
      "replay: CHEETAH_EC_SEEDS=" + std::to_string(seed) +
      " ./build/tests/ec_sweep_test --gtest_filter='*Seed" + std::to_string(seed) +
      "'\nschedule:\n" + r.schedule_str;
  EXPECT_TRUE(r.workers_done) << "workload hung\n" << replay;
  // The tiering pipeline actually ran: objects were demoted to stripes and
  // small objects rode inline.
  EXPECT_GT(r.demotions, 0u) << "no object was ever demoted to EC\n" << replay;
  EXPECT_GT(r.inline_puts, 0u) << "no put ever went inline\n" << replay;
  // Invariant 2: no invented bytes, ever.
  EXPECT_EQ(r.corrupt_acked, 0u) << replay;
  // Invariant 3: the repair budget sufficed; the audit scrub is clean.
  EXPECT_EQ(r.residual_corrupt, 0u) << replay;
  // Invariant 1: the client-visible history is linearizable.
  auto violations = CheckLinearizable(r.history);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations) << replay;
}

std::string SeedName(const ::testing::TestParamInfo<uint64_t>& info) {
  return "Seed" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Matrix, EcSweep, ::testing::ValuesIn(EcSeeds()), SeedName);

// Invariant 4: replayability — same seed, same schedule, same history, same
// repair stats.
TEST(EcDeterminism, SameSeedSameRun) {
  EcSweepResult a = RunEcSweep(1);
  EcSweepResult b = RunEcSweep(1);
  EXPECT_EQ(a.schedule_str, b.schedule_str);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_FALSE(a.fingerprint.empty());
  // Cross-engine guard: the reference heap engine must replay the identical
  // run byte for byte — the timer wheel is only allowed to be faster, never
  // different.
  sim::EventLoop::OverrideDefaultEngine(sim::EventLoop::Engine::kHeap);
  EcSweepResult c = RunEcSweep(1);
  sim::EventLoop::OverrideDefaultEngine(std::nullopt);
  EXPECT_EQ(a.schedule_str, c.schedule_str);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
}

}  // namespace
}  // namespace cheetah::chaos
