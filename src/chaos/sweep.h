// Chaos-sweep harness: the phases every fault sweep is composed from.
//
// A sweep run boots a Testbed, installs a nemesis schedule, drives recorded
// client workers until they finish, restores and settles the cluster, and
// audits the end state. Each step is a small phase here; a suite calls the
// phases it needs in order and asserts on the SweepReport. The phases draw
// random numbers in a fixed order, so {seed, schedule} still reproduces a
// run byte for byte.
#ifndef SRC_CHAOS_SWEEP_H_
#define SRC_CHAOS_SWEEP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/core/testbed.h"
#include "src/sim/task.h"

namespace cheetah::chaos {

// Parses "1,2,3". Empty tokens are skipped; any other token must be an
// unsigned decimal number, or the list is rejected (kInvalidArgument).
Result<std::vector<uint64_t>> ParseSeedList(std::string_view spec);

// The seeds a sweep registers: the list in CHEETAH_SWEEP_SEEDS, else
// `default_spec`; an empty list means seed 1. A malformed list exits the
// process with a message.
std::vector<uint64_t> SweepSeeds(const char* default_spec);

// The sweeps' base cluster: 4 meta, 4 data (2 disks x 3 PVs), 3 proxies,
// 8 PGs, 128 MiB LVs. Suites adjust it.
core::TestbedConfig SweepTestbed();

// The one Status -> Outcome mapping the linearizability checker relies on.
Outcome PutOutcome(const Status& s);
Outcome GetOutcome(const Status& s);
Outcome DeleteOutcome(const Status& s);

// One op through `proxy`, recorded in `history` as `client`.
sim::Task<Status> RecordedPut(core::ClientProxy& proxy, History& history, int client,
                              std::string key, std::string value);
sim::Task<Result<std::string>> RecordedGet(core::ClientProxy& proxy, History& history,
                                           int client, std::string key);
sim::Task<Status> RecordedDelete(core::ClientProxy& proxy, History& history, int client,
                                 std::string key);

// History clients of the ops the harness sends itself.
constexpr int kPopulateClient = 98;
constexpr int kAuditClient = 99;

// ~1 KiB payload unique per (worker, round).
std::string TaggedPayload(int worker, int round, const std::string& key);

// Worker w runs on proxy w as history client w with Rng(seed * 1000003 + w).
// Each round draws a key, then the op dice, runs the op, and sleeps
// think_min + Uniform(think_jitter). Dice below put_pct put, below
// put_pct + get_pct get, else delete; the read-only mix {0, 100} draws no
// dice.
struct WorkloadSpec {
  int workers = 3;
  std::string key_prefix = "obj-";
  int keys = 8;
  int rounds = 14;
  int put_pct = 50;
  int get_pct = 30;
  std::function<std::string(int worker, int round, const std::string& key)> payload =
      TaggedPayload;
  Nanos think_min = Millis(40);
  Nanos think_jitter = Millis(160);

  std::string Key(int k) const { return key_prefix + std::to_string(k); }
  std::vector<std::string> AllKeys() const;
};

// A custom worker: (proxy, worker index, history).
using WorkerBody = std::function<sim::Task<>(core::ClientProxy&, int, History&)>;

// How many nemesis events hit live traffic.
struct Coverage {
  int events_during_workload = 0;     // fired between worker start and finish
  int events_with_ops_in_flight = 0;  // fired while a recorded op was open
};

// What a finished run leaves for the assertions; outlives the Testbed.
struct SweepReport {
  uint64_t seed = 0;
  std::string schedule;       // NemesisSchedule::ToString()
  History history;
  bool workers_done = false;  // every worker returned before the time limit
  bool audit_healthy = true;  // every audit read got a value or NotFound
  Coverage coverage;

  // Replay command for `test` in tests/`binary`, then the coverage counts
  // and the schedule: the tail of every failure message.
  std::string Replay(std::string_view binary, std::string_view test) const;

  // Prints "sweep=<binary>/<test> seed=<n> history=<hash>" on stdout, the
  // hash a 64-bit FNV-1a of the schedule and History::Serialize() (what the
  // determinism tests compare). scripts/chaos.sh collects these lines, so
  // two builds' hunts compare with one diff.
  void PrintHistoryHash(std::string_view binary, std::string_view test) const;
};

// One run's recorded state on a booted Testbed. Call the phases in run
// order, then Report().
class Sweep {
 public:
  Sweep(core::Testbed& bed, uint64_t seed) : bed_(bed), seed_(seed) {}

  // Installs `schedule` now; coverage counts its events.
  void Install(NemesisSchedule schedule);

  // Puts spec.Key(k) = value(k) for every key through proxy 0, recorded as
  // kPopulateClient. False if any put failed.
  bool Populate(const WorkloadSpec& spec, const std::function<std::string(int k)>& value);

  // Spawns `workers` copies of `body`, worker w on proxy w, and runs the
  // loop until all return or 120 s of virtual time pass. False on timeout.
  bool RunWorkers(int workers, WorkerBody body);
  bool RunWorkload(const WorkloadSpec& spec);

  // Reads every key through proxy 0 into the history as kAuditClient.
  std::vector<Result<std::string>> AuditReads(const std::vector<std::string>& keys);

  const History& history() const { return *history_; }
  SweepReport Report() const;

 private:
  core::Testbed& bed_;
  uint64_t seed_;
  std::shared_ptr<History> history_ = std::make_shared<History>();
  NemesisSchedule schedule_;
  Nanos installed_at_ = 0;
  Nanos workload_start_ = 0;
  Nanos workload_end_ = 0;
  bool workers_done_ = false;
  bool audit_healthy_ = true;
};

enum class Restore {
  kAll,        // heal partitions and links, clear gray disks, restart the dead
  kDisksOnly,  // clear gray disks; the schedule's own restarts stay on time
};

// Restores the cluster, then runs `settle` of virtual time.
void RestoreAndSettle(core::Testbed& bed, Nanos settle, Restore what = Restore::kAll);

// One scrub pass on every meta server, waiting for all of them.
void ScrubAllOnce(core::Testbed& bed);

// One more scrub pass; returns the corrupt replicas it found (0 = clean).
uint64_t ScrubAudit(core::Testbed& bed);

// OK gets whose bytes no put to that key ever carried.
uint64_t CorruptAcked(const History& history);

// Runs `run` twice on the timer wheel and once on the reference heap
// engine. Returns "" when the three fingerprints are equal and non-empty,
// else where they first differ.
std::string ReplayMismatch(const std::function<std::string()>& run);

}  // namespace cheetah::chaos

#endif  // SRC_CHAOS_SWEEP_H_
