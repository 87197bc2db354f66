#include "src/chaos/nemesis.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/random.h"

namespace cheetah::chaos {

namespace {

std::string Secs(Nanos t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << static_cast<double>(t) / 1e9 << "s";
  return os.str();
}

// One wave of at-rest damage on every disk of data[victim]; draws the rot
// and LSE probabilities, the wave seed and the hit time, in that order.
void AddRotWave(NemesisSchedule& s, Rng& rng, int victim, int wave, int waves, Nanos span) {
  const double rot_prob = 0.05 + 0.05 * static_cast<double>(rng.Uniform(4));
  const double lse_prob = 0.02 + 0.02 * static_cast<double>(rng.Uniform(3));
  const uint64_t wave_seed = rng.Next();
  const Nanos hit = span / 6 + (wave * span) / (2 * waves) + rng.Uniform(span / 12);
  std::ostringstream d;
  d << "bit-rot data[" << victim << "] rot=" << rot_prob << " lse=" << lse_prob
    << " wave_seed=" << wave_seed;
  s.Add(hit, d.str(), [victim, rot_prob, lse_prob, wave_seed](core::Testbed& bed) {
    sim::Machine& m = bed.data_machine(victim);
    for (uint32_t di = 0; di < m.num_disks(); ++di) {
      m.disk(di).InjectBitRot(rot_prob, wave_seed ^ di);
      m.disk(di).InjectLatentSectorErrors(lse_prob, wave_seed ^ di);
    }
  });
}

// data[victim]'s disks silently corrupt a fraction of incoming writes from
// `hit` for `held`.
void AddCorruptWindow(NemesisSchedule& s, int victim, double corrupt, Nanos hit, Nanos held) {
  std::ostringstream d;
  d << "gray-corrupt data[" << victim << "] write_corrupt=" << corrupt;
  s.Add(hit, d.str(), [victim, corrupt](core::Testbed& bed) {
    sim::GrayFailure g;
    g.write_corrupt_prob = corrupt;
    bed.data_machine(victim).SetGrayFailure(g);
  });
  s.Add(hit + held, "restore data[" + std::to_string(victim) + "]",
        [victim](core::Testbed& bed) { bed.data_machine(victim).ClearGrayFailure(); });
}

}  // namespace

void NemesisSchedule::Install(core::Testbed& bed) const {
  const Nanos base = bed.loop().Now();
  for (const NemesisEvent& e : events_) {
    bed.loop().ScheduleAt(base + e.at, [&bed, action = e.action]() { action(bed); });
  }
}

std::string NemesisSchedule::ToString() const {
  std::ostringstream os;
  for (const NemesisEvent& e : events_) {
    os << "  +" << Secs(e.at) << " " << e.describe << "\n";
  }
  return os.str();
}

NemesisSchedule MetaCrashRestartLoop(uint64_t seed, int meta_count, Nanos span,
                                     bool power_fail) {
  Rng rng(seed ^ 0xc7a5ull);
  NemesisSchedule s;
  Nanos t = span / 8 + rng.Uniform(span / 8);
  while (true) {
    const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(meta_count)));
    const Nanos down = Millis(700) + rng.Uniform(Millis(300));
    if (t + down + Millis(500) > (span * 3) / 4) {
      break;
    }
    s.Add(t, std::string(power_fail ? "power-fail" : "crash") + " meta[" +
                 std::to_string(victim) + "]",
          [victim, power_fail](core::Testbed& bed) {
            bed.Crash(bed.meta_node(victim), power_fail);
          });
    s.Add(t + down, "restart meta[" + std::to_string(victim) + "]",
          [victim](core::Testbed& bed) { bed.Restart(bed.meta_node(victim)); });
    t += down + Millis(600) + rng.Uniform(Millis(400));
  }
  return s;
}

NemesisSchedule MetaPowerFailViewChange(uint64_t seed, int meta_count, Nanos span) {
  Rng rng(seed ^ 0xbadf00dull);
  NemesisSchedule s;
  const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(meta_count)));
  // Land the power failure in the thick of the workload so some put is
  // inside its data-written-but-not-yet-persisted window; keep it down past
  // the failure detector (450ms) so a view change runs without it.
  const Nanos hit = span / 4 + rng.Uniform(span / 4);
  s.Add(hit, "power-fail meta[" + std::to_string(victim) + "]",
        [victim](core::Testbed& bed) { bed.Crash(bed.meta_node(victim), true); });
  s.Add(hit + Millis(1200), "restart meta[" + std::to_string(victim) + "]",
        [victim](core::Testbed& bed) { bed.Restart(bed.meta_node(victim)); });
  return s;
}

NemesisSchedule PartitionHealMeta(uint64_t seed, int meta_count, Nanos span) {
  Rng rng(seed ^ 0x9a27ull);
  NemesisSchedule s;
  const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(meta_count)));
  const Nanos hit = span / 5 + rng.Uniform(span / 5);
  const Nanos held = Millis(800) + rng.Uniform(Millis(400));
  s.Add(hit, "isolate meta[" + std::to_string(victim) + "]",
        [victim](core::Testbed& bed) { bed.Isolate(bed.meta_node(victim)); });
  s.Add(hit + held, "heal all partitions",
        [](core::Testbed& bed) { bed.Heal(); });
  return s;
}

NemesisSchedule GrayDataDisk(uint64_t seed, int data_count, Nanos span) {
  Rng rng(seed ^ 0x6a4ull);
  NemesisSchedule s;
  const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(data_count)));
  const double mult = 4.0 + static_cast<double>(rng.Uniform(8));
  const Nanos stuck = Millis(40) + rng.Uniform(Millis(80));
  const Nanos hit = span / 6 + rng.Uniform(span / 4);
  const Nanos held = Millis(900) + rng.Uniform(Millis(600));
  std::ostringstream d;
  d << "gray data[" << victim << "] x" << mult << " fsync-stuck " << Secs(stuck);
  s.Add(hit, d.str(), [victim, mult, stuck](core::Testbed& bed) {
    sim::GrayFailure g;
    g.latency_multiplier = mult;
    g.fsync_stuck_for = stuck;
    bed.data_machine(victim).SetGrayFailure(g);
  });
  s.Add(hit + held, "restore data[" + std::to_string(victim) + "]",
        [victim](core::Testbed& bed) { bed.data_machine(victim).ClearGrayFailure(); });
  return s;
}

NemesisSchedule NetChaos(uint64_t seed, Nanos span) {
  Rng rng(seed ^ 0x2e7ull);
  NemesisSchedule s;
  sim::LinkFaults f;
  f.drop_prob = 0.005 + 0.005 * static_cast<double>(rng.Uniform(4));
  f.dup_prob = 0.01 + 0.005 * static_cast<double>(rng.Uniform(4));
  f.delay_prob = 0.02 + 0.01 * static_cast<double>(rng.Uniform(4));
  f.max_extra_delay = Millis(1) + rng.Uniform(Millis(3));
  const Nanos hit = span / 8 + rng.Uniform(span / 8);
  const Nanos held = span / 2;
  std::ostringstream d;
  d << "lossy net drop=" << f.drop_prob << " dup=" << f.dup_prob
    << " delay=" << f.delay_prob << " max_extra=" << Secs(f.max_extra_delay);
  s.Add(hit, d.str(), [f](core::Testbed& bed) { bed.network().SetDefaultLinkFaults(f); });
  s.Add(hit + held, "clear link faults",
        [](core::Testbed& bed) { bed.network().ClearLinkFaults(); });
  return s;
}

NemesisSchedule BitRot(uint64_t seed, int data_count, Nanos span) {
  Rng rng(seed ^ 0xb17207ull);
  NemesisSchedule s;
  // Waves of at-rest damage spread over the middle of the run, each hitting
  // one machine's disks. The last wave lands by 3/4 span so the scrubber has
  // the rest of the window to find and repair everything before the audit.
  const int waves = 2 + static_cast<int>(rng.Uniform(3));
  for (int w = 0; w < waves; ++w) {
    const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(data_count)));
    AddRotWave(s, rng, victim, w, waves, span);
  }
  return s;
}

NemesisSchedule IntegrityChaos(uint64_t seed, int data_count, Nanos span) {
  // Independent sub-seeds, same idiom as Combined().
  NemesisSchedule out = BitRot(seed * 3 + 1, data_count, span);
  Rng rng(seed ^ 0xfee1badull);
  const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(data_count)));
  const double corrupt = 0.1 + 0.1 * static_cast<double>(rng.Uniform(3));
  AddCorruptWindow(out, victim, corrupt, span / 5 + rng.Uniform(span / 5), span / 4);
  return out;
}

NemesisSchedule EcChunkChaos(uint64_t seed, int data_count, Nanos span) {
  Rng rng(seed ^ 0xecc0deull);
  NemesisSchedule out;
  // Helper: draw a machine index outside the already-claimed fault domains
  // (falls back to overlapping when the cluster is too narrow to separate).
  auto pick_outside = [&rng, data_count](std::vector<int> taken) {
    std::vector<int> candidates;
    for (int i = 0; i < data_count; ++i) {
      if (std::find(taken.begin(), taken.end(), i) == taken.end()) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      return static_cast<int>(rng.Uniform(static_cast<uint64_t>(data_count)));
    }
    return candidates[rng.Uniform(candidates.size())];
  };
  // At-rest rot stays pinned to ONE machine for the whole run. Stripe carving
  // places every chunk of an RS(k,m) LV on a distinct server, so one rotted
  // domain damages at most one chunk per stripe — always reconstructible.
  // Waves on independent machines could rot two chunks of the same stripe,
  // which is real data loss for m=1, not a repair bug.
  const int rotted = static_cast<int>(rng.Uniform(static_cast<uint64_t>(data_count)));
  const int waves = 2 + static_cast<int>(rng.Uniform(3));
  for (int w = 0; w < waves; ++w) {
    AddRotWave(out, rng, rotted, w, waves, span);
  }
  // Whole-machine chunk loss: crash a second domain. Chunks there are only
  // unavailable, not damaged — they come back intact on restart.
  const int crashed = pick_outside({rotted});
  const Nanos hit = span / 5 + rng.Uniform(span / 5);
  const Nanos down = Millis(800) + rng.Uniform(Millis(500));
  out.Add(hit, "crash data[" + std::to_string(crashed) + "]",
          [crashed](core::Testbed& bed) { bed.CrashDataMachine(crashed, false); });
  out.Add(hit + down, "restart data[" + std::to_string(crashed) + "]",
          [crashed](core::Testbed& bed) { bed.RestartDataMachine(crashed); });
  // Gray-corrupt a third domain: acked writes land flipped on media. The
  // demotion read-back audit must catch these before a stripe goes live.
  const int corrupter = pick_outside({rotted, crashed});
  const double corrupt = 0.1 + 0.1 * static_cast<double>(rng.Uniform(3));
  AddCorruptWindow(out, corrupter, corrupt, span / 4 + rng.Uniform(span / 5), span / 5);
  return out;
}

NemesisSchedule MigrationChaos(uint64_t seed, int meta_count, Nanos span,
                               MigrationFault fault) {
  Rng rng(seed ^ 0xd2a10ull);
  NemesisSchedule s;
  const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(meta_count)));
  const Nanos start = span / 6 + rng.Uniform(span / 6);
  s.Add(start, "begin drain meta[" + std::to_string(victim) + "]",
        [victim](core::Testbed& bed) { (void)bed.BeginDrainMetaMachine(victim); });
  // The fault lands a beat after the drain starts, inside the
  // DoubleWrite/Catchup/Cutover window (phases are tens of ms apart, so the
  // seed decides exactly which leg takes the hit).
  const Nanos hit = start + Millis(20) + rng.Uniform(Millis(100));
  switch (fault) {
    case MigrationFault::kCrashSource: {
      const Nanos down = Millis(800) + rng.Uniform(Millis(400));
      s.Add(hit, "crash drain source meta[" + std::to_string(victim) + "]",
            [victim](core::Testbed& bed) {
              bed.Crash(bed.meta_node(victim), /*power_loss=*/false);
            });
      s.Add(hit + down, "restart meta[" + std::to_string(victim) + "]",
            [victim](core::Testbed& bed) { bed.Restart(bed.meta_node(victim)); });
      break;
    }
    case MigrationFault::kCrashDestination: {
      // The destination is CRUSH's choice at drain time, unknown when the
      // schedule is composed; the action reads it out of the replicated
      // migration state at fire time (still deterministic per run).
      const Nanos down = Millis(800) + rng.Uniform(Millis(400));
      s.Add(hit, "crash first catchup destination (from migration state)",
            [](core::Testbed& bed) {
              const int leader = bed.LeaderManager();
              if (leader < 0) {
                return;
              }
              for (const auto& [pg, mig] :
                   bed.manager(leader).topology().migrations) {
                if (mig.destination != sim::kInvalidNode) {
                  bed.Crash(mig.destination, /*power_loss=*/false);
                  return;
                }
              }
            });
      s.Add(hit + down, "restart any dead meta machine",
            [](core::Testbed& bed) {
              for (int i = 0; i < bed.num_meta(); ++i) {
                if (!bed.meta_machine(i).alive()) {
                  bed.RestartMetaMachine(i);
                }
              }
            });
      break;
    }
    case MigrationFault::kPartitionLeader: {
      const Nanos held = Millis(900) + rng.Uniform(Millis(500));
      s.Add(hit, "isolate manager leader (cutover window)",
            [](core::Testbed& bed) {
              const int leader = bed.LeaderManager();
              if (leader >= 0) {
                bed.Isolate(bed.manager_node(leader));
              }
            });
      s.Add(hit + held, "heal all partitions",
            [](core::Testbed& bed) { bed.Heal(); });
      break;
    }
  }
  // Re-issue the drain late in the window: a drain aborted by the fault above
  // is retried and must complete; a drain that already cut over answers
  // NotFound (the node is gone from the CRUSH map) and this is a no-op.
  s.Add((span * 3) / 5, "re-issue drain meta[" + std::to_string(victim) + "]",
        [victim](core::Testbed& bed) { (void)bed.BeginDrainMetaMachine(victim); });
  return s;
}

std::vector<NemesisSchedule> MigrationSchedules(uint64_t seed, int meta_count,
                                                Nanos span) {
  std::vector<NemesisSchedule> out;
  out.push_back(MigrationChaos(seed, meta_count, span, MigrationFault::kCrashSource));
  out.push_back(
      MigrationChaos(seed, meta_count, span, MigrationFault::kCrashDestination));
  out.push_back(
      MigrationChaos(seed, meta_count, span, MigrationFault::kPartitionLeader));
  return out;
}

NemesisSchedule Combined(uint64_t seed, int meta_count, int data_count, Nanos span) {
  // Independent sub-seeds so each ingredient draws its own fault sequence.
  NemesisSchedule out = NetChaos(seed * 3 + 1, span);
  out.Append(MetaCrashRestartLoop(seed * 3 + 2, meta_count, span,
                                  /*power_fail=*/(seed % 2) == 0));
  out.Append(GrayDataDisk(seed * 3 + 3, data_count, span));
  return out;
}

std::vector<NemesisSchedule> StandardSchedules(uint64_t seed, int meta_count,
                                               int data_count, Nanos span) {
  std::vector<NemesisSchedule> out;
  out.push_back(MetaCrashRestartLoop(seed, meta_count, span, /*power_fail=*/true));
  out.push_back(MetaPowerFailViewChange(seed, meta_count, span));
  out.push_back(PartitionHealMeta(seed, meta_count, span));
  out.push_back(GrayDataDisk(seed, data_count, span));
  out.push_back(NetChaos(seed, span));
  out.push_back(Combined(seed, meta_count, data_count, span));
  return out;
}

}  // namespace cheetah::chaos
