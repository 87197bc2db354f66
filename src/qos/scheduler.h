// Per-node request scheduler: admission control + weighted-fair dispatch.
//
// rpc::Node hands every class-tagged inbound request to Submit() instead of
// spawning its handler directly. The scheduler either rejects it immediately
// (token bucket empty, per-class queue full, or the CoDel detector says this
// node is overloaded and the class is shed at the current level) with a
// retry-after hint, or queues it in the weighted-fair queue and dispatches up
// to `max_concurrency` handlers at a time in virtual-time fair order.
//
// Determinism: dispatch order is a pure function of arrival order, costs, and
// the event-loop clock; ties break by sequence number. Reset() (on node
// detach/crash) bumps an epoch so completion callbacks from killed handlers
// can't double-free concurrency slots.
#ifndef SRC_QOS_SCHEDULER_H_
#define SRC_QOS_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <functional>

#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/qos/codel.h"
#include "src/qos/qos.h"
#include "src/qos/token_bucket.h"
#include "src/qos/wfq.h"
#include "src/sim/event_loop.h"

namespace cheetah::qos {

class Scheduler {
 public:
  // `run(done)` starts the handler; the handler (or its teardown path) must
  // invoke `done` exactly once to release the concurrency slot.
  using RunFn = std::function<void(std::function<void()> done)>;
  // Called instead of `run` on rejection; null means drop silently
  // (fire-and-forget traffic has nobody to tell).
  using RejectFn = std::function<void(Nanos retry_after)>;

  Scheduler(sim::EventLoop& loop, uint32_t node, const QosParams& params);

  void Submit(TrafficClass cls, size_t bytes, RunFn run, RejectFn reject);

  // Drops all queued work and forgets in-flight handlers (they were killed
  // with the node's actor); stale `done` callbacks become no-ops.
  void Reset();

  const QosParams& params() const { return params_; }
  int active() const { return active_; }
  size_t depth(TrafficClass cls) const { return queue_.depth(cls); }
  uint64_t submitted(TrafficClass cls) const { return submitted_[Ord(cls)]->value(); }
  uint64_t dispatched(TrafficClass cls) const { return dispatched_[Ord(cls)]->value(); }
  uint64_t sheds(TrafficClass cls) const { return sheds_[Ord(cls)]->value(); }
  int shed_level() const;

 private:
  static int Ord(TrafficClass cls) { return static_cast<int>(cls); }
  // Cost unit: KiB of wire bytes, min 1 — shared by the WFQ (finish tags) and
  // the token buckets (rate caps).
  static double CostOf(size_t bytes) {
    const double kib = static_cast<double>(bytes) / 1024.0;
    return kib > 1.0 ? kib : 1.0;
  }

  void RejectWith(TrafficClass cls, obs::Counter* reason, Nanos retry_after,
                  const RejectFn& reject);
  void TryDispatch();
  void OnComplete();

  struct Pending {
    TrafficClass cls;
    double cost;
    Nanos enqueued;
    RunFn run;
  };

  sim::EventLoop& loop_;
  QosParams params_;
  WeightedFairQueue<Pending> queue_;
  std::array<TokenBucket, kNumClasses> buckets_;
  CodelDetector codel_;
  int active_ = 0;
  uint64_t epoch_ = 0;

  obs::Scope scope_;
  std::array<obs::Counter*, kNumClasses> submitted_;
  std::array<obs::Counter*, kNumClasses> dispatched_;
  std::array<obs::Counter*, kNumClasses> sheds_;
  obs::Counter* shed_rate_ = scope_.counter("shed_reason.rate");
  obs::Counter* shed_overload_ = scope_.counter("shed_reason.overload");
  obs::Counter* shed_queue_full_ = scope_.counter("shed_reason.queue_full");
  std::array<obs::Gauge*, kNumClasses> depth_gauge_;
  std::array<obs::Histogram*, kNumClasses> sojourn_hist_;
  obs::Gauge* active_gauge_;
  obs::Gauge* shed_level_gauge_;
};

}  // namespace cheetah::qos

#endif  // SRC_QOS_SCHEDULER_H_
