// Engine microbenchmark: events/sec through the simulator core, before vs
// after.
//
//   legacy — the pre-wheel event loop, reproduced verbatim: one global
//            std::priority_queue ordered by (time, seq) holding std::function
//            callbacks (every capture > 16 bytes heap-allocates), popped via
//            the const_cast-move workaround.
//   heap   — EventLoop's reference engine: same global-heap algorithm, but
//            InlineFn callbacks and a movable top slot.
//   wheel  — EventLoop's default hierarchical timer wheel.
//
// All three drive the identical self-rescheduling timer workload (a seeded
// Rng; mixed near/far delays shaped like RPC + timeout traffic) and must
// produce bit-identical firing-order fingerprints — the wheel is only allowed
// to be faster, never different.
//
// A second, RPC-shaped workload runs on heap and wheel only (the legacy
// engine cannot cancel): every call arms a far-future timeout and schedules
// its reply, and the reply cancels the timeout — the pattern of every
// simulated RPC. A small share of replies is lost, so those calls end on
// their timeout. Both engines must fire it with identical fingerprints.
//
// The binary asserts the fingerprints, that the RPC workload both cancelled
// and fired timeouts, that its cancelled timeouts never left the overflow
// heap holding more than 2 x live + kOverflowSlack keys (printed as
// "overflow keys"), and a conservative speedup floor, so it doubles as a
// regression test; the `perf` tier of scripts/check.sh runs it with
// CHEETAH_BENCH_SMOKE=1 for a reduced event count that still covers both
// workloads. The floor compares medians of kSpeedReps legacy and wheel runs,
// interleaved (and alternating which goes first), so one run slowed by a
// neighbour on a shared host does not decide it.
//
// Emits BENCH_sim_engine.json with the measured rates.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <fstream>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/sim/event_loop.h"

namespace {

using cheetah::Mix64;
using cheetah::Nanos;
using cheetah::Rng;
using cheetah::sim::EventLoop;

struct Params {
  uint64_t total_events = 4'000'000;
  int actors = 8192;
  int callers = 1024;  // RPC workload: concurrent callers, one call each
  uint64_t seed = 0x5eedc4a7;
};

// Delay distribution shaped like simulator traffic: mostly sub-horizon gaps
// (network/disk completions), a slice of multi-horizon gaps, and a tail of
// far-future timeouts that exercises the overflow path.
Nanos NextDelay(Rng& rng) {
  const uint64_t pick = rng.Uniform(100);
  if (pick < 80) {
    return rng.UniformRange(100, 30'000);  // within one wheel horizon
  }
  if (pick < 95) {
    return rng.UniformRange(30'000, 3'000'000);  // a few rotations out
  }
  return rng.UniformRange(3'000'000, 400'000'000);  // timeout-scale
}

struct RunResult {
  uint64_t fingerprint = 0;
  double events_per_sec = 0;
  uint64_t timeouts_fired = 0;      // RPC workload only
  uint64_t timeouts_cancelled = 0;  // RPC workload only
  size_t max_overflow_keys = 0;     // RPC workload only
  bool overflow_bound_held = true;  // RPC workload only
};

// ---- legacy engine: the event loop as it was before this change ----------

class LegacyLoop {
 public:
  Nanos Now() const { return now_; }

  void ScheduleAt(Nanos time, std::function<void()> fn) {
    queue_.push(Event{time, next_seq_++, std::move(fn)});
  }
  void ScheduleAfter(Nanos delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  bool RunOne() {
    if (queue_.empty()) {
      return false;
    }
    // The historical workaround: priority_queue::top() is const, so the event
    // was moved out through a const_cast before pop.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ev.fn();
    return true;
  }

  void Run() {
    while (RunOne()) {
    }
  }

 private:
  struct Event {
    Nanos time;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// The workload: `actors` self-rescheduling timers, every firing drawing its
// next delay from the shared seeded Rng, until `total_events` have fired. The
// fingerprint chains (virtual time, actor id) in firing order, so any
// deviation in schedule order changes it.
template <typename Loop>
RunResult Drive(Loop& loop, const Params& p) {
  struct State {
    Loop* loop;
    Rng rng;
    uint64_t fired = 0;
    uint64_t fingerprint = 0;
    uint64_t total;
    explicit State(Loop* l, uint64_t seed, uint64_t total)
        : loop(l), rng(seed), total(total) {}
  };
  State st(&loop, p.seed, p.total_events);

  // Fixed-size capture [State*, id] stays inside InlineFn's inline buffer and
  // inside libstdc++'s std::function SBO alike, so the comparison measures
  // queue mechanics, not capture allocation differences.
  struct Tick {
    State* st;
    uint32_t id;
    void operator()() const {
      State& s = *st;
      s.fingerprint = Mix64(s.fingerprint ^ (static_cast<uint64_t>(s.loop->Now()) + id));
      if (++s.fired < s.total) {
        s.loop->ScheduleAfter(NextDelay(s.rng), Tick{st, id});
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < p.actors; ++i) {
    loop.ScheduleAfter(NextDelay(st.rng), Tick{&st, static_cast<uint32_t>(i)});
  }
  loop.Run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return RunResult{st.fingerprint, static_cast<double>(st.fired) / secs};
}

// ---- RPC-shaped workload: every call arms a timeout its reply cancels ----

constexpr Nanos kRpcTimeout = 30'000'000;  // beyond the wheel horizon

// Reply latency: mostly one network hop plus service, sometimes a disk or a
// queue; always well inside the timeout.
Nanos ReplyDelay(Rng& rng) {
  if (rng.Uniform(100) < 80) {
    return rng.UniformRange(2'000, 30'000);
  }
  return rng.UniformRange(30'000, 3'000'000);
}

// `callers` callers each keep one call outstanding until `total_events`
// calls have completed. One reply in 100 is lost and its call ends on the
// timeout. The fingerprint chains (virtual time, caller, outcome) in
// completion order. After every completion the overflow heap, where the
// cancelled timeouts' keys sit, must hold at most
// 2 * pending_events() + kOverflowSlack keys.
RunResult DriveRpc(EventLoop& loop, const Params& p) {
  struct State {
    EventLoop* loop;
    Rng rng;
    uint64_t total;
    uint64_t completed = 0;
    RunResult result;
    std::vector<EventLoop::Handle> timeouts;  // by caller
    State(EventLoop* l, const Params& params)
        : loop(l),
          rng(params.seed),
          total(params.total_events),
          timeouts(static_cast<size_t>(params.callers)) {}
  };
  struct Call {
    State* st;
    uint32_t id;

    void Issue() const {
      State& s = *st;
      s.timeouts[id] = s.loop->ScheduleAfter(kRpcTimeout, [c = *this] { c.Complete(2); });
      if (s.rng.Uniform(100) != 0) {
        s.loop->ScheduleAfter(ReplyDelay(s.rng), [c = *this] {
          c.st->loop->Cancel(c.st->timeouts[c.id]);
          ++c.st->result.timeouts_cancelled;
          c.Complete(1);
        });
      }
    }
    void Complete(uint64_t outcome) const {
      State& s = *st;
      if (outcome == 2) {
        ++s.result.timeouts_fired;
      }
      const size_t keys = s.loop->overflow_keys();
      s.result.max_overflow_keys = std::max(s.result.max_overflow_keys, keys);
      s.result.overflow_bound_held =
          s.result.overflow_bound_held &&
          keys <= 2 * s.loop->pending_events() + EventLoop::kOverflowSlack;
      s.result.fingerprint =
          Mix64(s.result.fingerprint ^
                ((static_cast<uint64_t>(s.loop->Now()) << 2) + (uint64_t{id} << 40) + outcome));
      if (++s.completed < s.total) {
        Issue();
      }
    }
  };
  State st(&loop, p);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < p.callers; ++i) {
    Call{&st, static_cast<uint32_t>(i)}.Issue();
  }
  loop.Run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  st.result.events_per_sec = static_cast<double>(st.completed) / secs;
  return st.result;
}

// Median events/sec of `runs` (an odd count).
double MedianRate(std::vector<RunResult> runs) {
  std::nth_element(runs.begin(), runs.begin() + runs.size() / 2, runs.end(),
                   [](const RunResult& a, const RunResult& b) {
                     return a.events_per_sec < b.events_per_sec;
                   });
  return runs[runs.size() / 2].events_per_sec;
}

constexpr int kSpeedReps = 3;

}  // namespace

int main() {
  Params p;
  const bool smoke = cheetah::bench::Smoke();
  if (smoke) {
    p.total_events = 400'000;
  }

  std::vector<RunResult> legacy_runs;
  std::vector<RunResult> wheel_runs;
  for (int rep = 0; rep < kSpeedReps; ++rep) {
    auto run_legacy = [&] {
      LegacyLoop legacy;
      legacy_runs.push_back(Drive(legacy, p));
    };
    auto run_wheel = [&] {
      EventLoop wheel_loop(EventLoop::Engine::kWheel);
      wheel_runs.push_back(Drive(wheel_loop, p));
    };
    if (rep % 2 == 0) {
      run_legacy();
      run_wheel();
    } else {
      run_wheel();
      run_legacy();
    }
  }
  RunResult before = legacy_runs.front();
  before.events_per_sec = MedianRate(legacy_runs);
  RunResult wheel = wheel_runs.front();
  wheel.events_per_sec = MedianRate(wheel_runs);

  EventLoop heap_loop(EventLoop::Engine::kHeap);
  const RunResult heap = Drive(heap_loop, p);

  EventLoop rpc_heap_loop(EventLoop::Engine::kHeap);
  const RunResult rpc_heap = DriveRpc(rpc_heap_loop, p);

  EventLoop rpc_wheel_loop(EventLoop::Engine::kWheel);
  const RunResult rpc_wheel = DriveRpc(rpc_wheel_loop, p);

  const double wheel_vs_legacy = wheel.events_per_sec / before.events_per_sec;
  const double heap_vs_legacy = heap.events_per_sec / before.events_per_sec;

  std::printf("=== sim engine speed: %llu events, %d timers (legacy, wheel: median of %d) ===\n",
              static_cast<unsigned long long>(p.total_events), p.actors, kSpeedReps);
  std::printf("%-22s %12.0f events/sec   fingerprint %016llx\n", "legacy pq+function",
              before.events_per_sec, static_cast<unsigned long long>(before.fingerprint));
  std::printf("%-22s %12.0f events/sec   fingerprint %016llx   (%.2fx)\n", "heap (reference)",
              heap.events_per_sec, static_cast<unsigned long long>(heap.fingerprint),
              heap_vs_legacy);
  std::printf("%-22s %12.0f events/sec   fingerprint %016llx   (%.2fx)\n", "wheel (default)",
              wheel.events_per_sec, static_cast<unsigned long long>(wheel.fingerprint),
              wheel_vs_legacy);
  std::printf("=== rpc-shaped: %llu calls, %d callers, timeout cancelled on reply ===\n",
              static_cast<unsigned long long>(p.total_events), p.callers);
  std::printf("%-22s %12.0f events/sec   fingerprint %016llx\n", "heap (reference)",
              rpc_heap.events_per_sec, static_cast<unsigned long long>(rpc_heap.fingerprint));
  std::printf("%-22s %12.0f events/sec   fingerprint %016llx   (%.2fx heap)\n",
              "wheel (default)", rpc_wheel.events_per_sec,
              static_cast<unsigned long long>(rpc_wheel.fingerprint),
              rpc_wheel.events_per_sec / rpc_heap.events_per_sec);
  std::printf("%-22s %llu cancelled, %llu fired\n", "timeouts",
              static_cast<unsigned long long>(rpc_wheel.timeouts_cancelled),
              static_cast<unsigned long long>(rpc_wheel.timeouts_fired));
  std::printf("%-22s max %zu queued (bound 2 x live + %zu %s)\n", "overflow keys",
              rpc_wheel.max_overflow_keys, EventLoop::kOverflowSlack,
              rpc_wheel.overflow_bound_held ? "held" : "BROKEN");

  {
    std::ofstream out("BENCH_sim_engine.json");
    out << "{\n"
        << "  \"events\": " << p.total_events << ",\n"
        << "  \"timers\": " << p.actors << ",\n"
        << "  \"legacy_events_per_sec\": " << static_cast<uint64_t>(before.events_per_sec)
        << ",\n"
        << "  \"heap_events_per_sec\": " << static_cast<uint64_t>(heap.events_per_sec) << ",\n"
        << "  \"wheel_events_per_sec\": " << static_cast<uint64_t>(wheel.events_per_sec)
        << ",\n"
        << "  \"wheel_vs_legacy\": " << wheel_vs_legacy << ",\n"
        << "  \"rpc_callers\": " << p.callers << ",\n"
        << "  \"rpc_heap_events_per_sec\": " << static_cast<uint64_t>(rpc_heap.events_per_sec)
        << ",\n"
        << "  \"rpc_wheel_events_per_sec\": " << static_cast<uint64_t>(rpc_wheel.events_per_sec)
        << ",\n"
        << "  \"rpc_max_overflow_keys\": " << rpc_wheel.max_overflow_keys << ",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << "\n"
        << "}\n";
  }
  std::printf("[bench] wrote BENCH_sim_engine.json\n");

  // Self-assertions. Determinism: every run of all three engines must fire
  // the identical schedule. Speed: the wheel's median must not regress below
  // a conservative floor of the legacy engine's median throughput (observed
  // ratios run well above this; the floor only catches real regressions,
  // not scheduler jitter).
  auto same = [&](const RunResult& r) { return r.fingerprint == before.fingerprint; };
  if (!std::all_of(legacy_runs.begin(), legacy_runs.end(), same) ||
      !std::all_of(wheel_runs.begin(), wheel_runs.end(), same) || !same(heap)) {
    std::fprintf(stderr, "FAIL: engine or repetition fingerprints diverge (legacy %016llx "
                         "heap %016llx wheel %016llx)\n",
                 static_cast<unsigned long long>(before.fingerprint),
                 static_cast<unsigned long long>(heap.fingerprint),
                 static_cast<unsigned long long>(wheel.fingerprint));
    return 1;
  }
  if (rpc_heap.fingerprint != rpc_wheel.fingerprint) {
    std::fprintf(stderr, "FAIL: rpc-shaped fingerprints diverge (heap %016llx wheel %016llx)\n",
                 static_cast<unsigned long long>(rpc_heap.fingerprint),
                 static_cast<unsigned long long>(rpc_wheel.fingerprint));
    return 1;
  }
  if (rpc_wheel.timeouts_cancelled == 0 || rpc_wheel.timeouts_fired == 0) {
    std::fprintf(stderr, "FAIL: rpc-shaped run must both cancel and fire timeouts\n");
    return 1;
  }
  if (!rpc_wheel.overflow_bound_held) {
    std::fprintf(stderr, "FAIL: cancelled timeouts overran the overflow bound (max %zu keys)\n",
                 rpc_wheel.max_overflow_keys);
    return 1;
  }
  const double floor = smoke ? 0.8 : 1.0;
  if (wheel_vs_legacy < floor) {
    std::fprintf(stderr, "FAIL: wheel engine %.2fx of legacy, floor %.2fx\n", wheel_vs_legacy,
                 floor);
    return 1;
  }
  std::printf("OK: fingerprints identical, wheel %.2fx legacy (floor %.2fx)\n", wheel_vs_legacy,
              floor);
  return 0;
}
