// Nemesis: scripted fault schedules against a core::Testbed.
//
// A schedule is a list of (virtual time, fault action) events; Install()
// registers them on the testbed's event loop, so faults fire while the
// workload runs without any test-side bookkeeping. All randomness used to
// *compose* a schedule comes from one seed, and every action is itself
// deterministic, so printing {seed, schedule} is a complete reproduction
// recipe — replaying the same seed and schedule yields a byte-identical run.
//
// Schedules end with the restorative actions (heal, restart, restore) so a
// test can always settle the cluster and run its final audit reads.
#ifndef SRC_CHAOS_NEMESIS_H_
#define SRC_CHAOS_NEMESIS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/core/testbed.h"

namespace cheetah::chaos {

struct NemesisEvent {
  Nanos at = 0;             // relative to Install() time
  std::string describe;     // replay documentation, e.g. "crash meta[1]"
  std::function<void(core::Testbed&)> action;
};

class NemesisSchedule {
 public:
  NemesisSchedule() = default;

  void Add(Nanos at, std::string describe, std::function<void(core::Testbed&)> action) {
    events_.push_back({at, std::move(describe), std::move(action)});
  }

  // Concatenates another schedule's events (composition). Events fire by
  // their scheduled time, so insertion order does not affect execution.
  void Append(const NemesisSchedule& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  }

  // Registers every event on the testbed's loop at now + event.at.
  void Install(core::Testbed& bed) const;

  // One line per event: "+1.250s crash meta[1]". This, plus the seed, is the
  // replay recipe printed on failure.
  std::string ToString() const;

  const std::vector<NemesisEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

 private:
  std::vector<NemesisEvent> events_;
};

// ---- schedule builders -----------------------------------------------------
// All builders take the testbed config implicitly through role counts and a
// seed; they never consult wall-clock randomness. `span` is the window the
// workload runs in; restorative events land inside it so the cluster is
// healthy again before the post-workload audit.

// Crash (or power-fail) one meta machine, restart it, repeat.
NemesisSchedule MetaCrashRestartLoop(uint64_t seed, int meta_count, Nanos span,
                                     bool power_fail);

// Power-fail the meta primary mid-workload; the view change runs while it is
// down; restart late. Aimed at the put persist-wait window.
NemesisSchedule MetaPowerFailViewChange(uint64_t seed, int meta_count, Nanos span);

// Partition one meta machine from everything, let a view change evict it,
// then heal. Exercises RE-META and stale-view recovery.
NemesisSchedule PartitionHealMeta(uint64_t seed, int meta_count, Nanos span);

// Degrade one data machine's disks (slow + briefly stuck fsync), restore.
NemesisSchedule GrayDataDisk(uint64_t seed, int data_count, Nanos span);

// Lossy network: probabilistic drop/dup/delay on all links for a stretch.
NemesisSchedule NetChaos(uint64_t seed, Nanos span);

// At-rest damage: several waves of silent bit rot plus latent sector errors
// across the data machines' disks. Each wave's damage set is a pure function
// of (disk contents at fire time, wave seed), so the whole schedule replays
// byte-identically. Restorative by design: damage is repaired by verified
// reads and the scrubber, not by a heal event.
NemesisSchedule BitRot(uint64_t seed, int data_count, Nanos span);

// The integrity battery: bit rot + latent sector errors + a window where one
// data machine's disks silently corrupt a fraction of incoming writes
// (write_corrupt_prob gray failure), cleared before the audit.
NemesisSchedule IntegrityChaos(uint64_t seed, int data_count, Nanos span);

// Composition of the above picked by seed: crash + gray disk + lossy net.
NemesisSchedule Combined(uint64_t seed, int meta_count, int data_count, Nanos span);

// Erasure-coding battery over three disjoint fault domains: at-rest bit-rot
// waves pinned to one data machine, a crash-restart of a second (its chunks
// go dark mid-run, forcing degraded reads), and a gray-corrupting-writes
// window on a third. Stripe chunks live on distinct servers, so at most one
// chunk per stripe is ever damaged at rest — within m, always repairable —
// while the crash adds transient unavailability on top.
NemesisSchedule EcChunkChaos(uint64_t seed, int data_count, Nanos span);

// ---- membership lifecycle chaos ----
// Each schedule begins a planned drain of one meta machine mid-workload and
// then attacks a different leg of the live-migration state machine. A drain
// resumes from replicated state across manager leader changes and aborts
// cleanly (eviction instead of retirement) when the drain target itself
// dies, so correctness — linearizability plus no lost/ghost objects — must
// hold whether or not the drain completes. A late re-issued drain exercises
// the full Prepare -> DoubleWrite -> Catchup -> Cutover path even on the
// aborting flavors.
enum class MigrationFault {
  kCrashSource = 0,       // kill the draining node mid-DoubleWrite
  kCrashDestination = 1,  // kill a catchup destination mid-Catchup
  kPartitionLeader = 2,   // isolate the manager leader around Cutover
};
NemesisSchedule MigrationChaos(uint64_t seed, int meta_count, Nanos span,
                               MigrationFault fault);

// The migration sweep's battery: one schedule per fault flavor.
std::vector<NemesisSchedule> MigrationSchedules(uint64_t seed, int meta_count,
                                                Nanos span);

// The sweep's standard battery for a given seed.
std::vector<NemesisSchedule> StandardSchedules(uint64_t seed, int meta_count,
                                               int data_count, Nanos span);

}  // namespace cheetah::chaos

#endif  // SRC_CHAOS_NEMESIS_H_
