#include "src/qos/scheduler.h"

#include <cassert>
#include <string>
#include <utility>

namespace cheetah::qos {

Scheduler::Scheduler(sim::EventLoop& loop, uint32_t node, const QosParams& params)
    : loop_(loop),
      params_(params),
      queue_(params.weights),
      codel_(params.codel_target, params.codel_interval),
      scope_("qos@" + std::to_string(node)) {
  for (int c = 0; c < kNumClasses; ++c) {
    buckets_[c] = TokenBucket(params_.rate_per_sec[c], params_.burst_cost);
    const std::string name = TrafficClassName(static_cast<TrafficClass>(c));
    submitted_[c] = scope_.counter("submitted." + name);
    dispatched_[c] = scope_.counter("dispatched." + name);
    sheds_[c] = scope_.counter("shed." + name);
    depth_gauge_[c] = scope_.gauge("depth." + name);
    sojourn_hist_[c] = scope_.histogram("sojourn_ns." + name);
  }
  active_gauge_ = scope_.gauge("active");
  shed_level_gauge_ = scope_.gauge("shed_level");
}

int Scheduler::shed_level() const {
  const int level = codel_.shed_level(loop_.Now());
  return level < params_.max_shed_level ? level : params_.max_shed_level;
}

void Scheduler::RejectWith(TrafficClass cls, obs::Counter* reason,
                           Nanos retry_after, const RejectFn& reject) {
  sheds_[Ord(cls)]->Add();
  reason->Add();
  if (reject) {
    reject(retry_after);
  }
}

void Scheduler::Submit(TrafficClass cls, size_t bytes, RunFn run,
                       RejectFn reject) {
  assert(cls != TrafficClass::kControl &&
         "control traffic bypasses the scheduler");
  const Nanos now = loop_.Now();
  const int c = Ord(cls);
  const double cost = CostOf(bytes);
  submitted_[c]->Add();

  // Admission checks, cheapest signal first. Each rejection carries the
  // earliest time at which retrying could plausibly succeed.
  if (!buckets_[c].TryTake(cost, now)) {
    RejectWith(cls, shed_rate_, buckets_[c].NextAvailable(cost, now) - now, reject);
    return;
  }
  const int level = shed_level();
  shed_level_gauge_->Set(level);
  if (level > 0 && c >= kNumClasses - level) {
    RejectWith(cls, shed_overload_, params_.codel_interval, reject);
    return;
  }
  if (params_.queue_limit[c] > 0 && queue_.depth(cls) >= params_.queue_limit[c]) {
    RejectWith(cls, shed_queue_full_, params_.codel_interval, reject);
    return;
  }

  queue_.Push(cls, cost, Pending{cls, cost, now, std::move(run)});
  depth_gauge_[c]->Set(static_cast<int64_t>(queue_.depth(cls)));
  TryDispatch();
}

void Scheduler::TryDispatch() {
  const Nanos now = loop_.Now();
  while (active_ < params_.max_concurrency && !queue_.empty()) {
    Pending p = queue_.Pop();
    const int c = Ord(p.cls);
    depth_gauge_[c]->Set(static_cast<int64_t>(queue_.depth(p.cls)));
    const Nanos sojourn = now - p.enqueued;
    sojourn_hist_[c]->Record(static_cast<uint64_t>(sojourn));
    // Only latency-sensitive classes drive the overload verdict: a long
    // maintenance sojourn is the scheduler working as intended, not a signal
    // that foreground service is degraded.
    if (p.cls == TrafficClass::kForeground || p.cls == TrafficClass::kReplication) {
      codel_.Record(sojourn, now);
    }
    dispatched_[c]->Add();
    ++active_;
    active_gauge_->Set(active_);
    p.run([this, epoch = epoch_] {
      if (epoch == epoch_) {
        OnComplete();
      }
    });
  }
}

void Scheduler::OnComplete() {
  assert(active_ > 0);
  --active_;
  active_gauge_->Set(active_);
  if (active_ == 0 && queue_.empty()) {
    codel_.NoteIdle();
    shed_level_gauge_->Set(0);
  }
  TryDispatch();
}

void Scheduler::Reset() {
  queue_.Clear();
  active_ = 0;
  ++epoch_;
  codel_.NoteIdle();
  active_gauge_->Set(0);
  shed_level_gauge_->Set(0);
  for (int c = 0; c < kNumClasses; ++c) {
    depth_gauge_[c]->Set(0);
  }
}

}  // namespace cheetah::qos
