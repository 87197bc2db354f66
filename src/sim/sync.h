// Coroutine synchronization primitives for the simulator: one-shot events
// (with timed waits), countdown latches, mailboxes, and a parallel-join
// helper. All are single-threaded and epoch-guarded against actor kills.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/actor.h"
#include "src/sim/task.h"

namespace cheetah::sim {

// One-shot event. Waiters suspended before Set() resume when it fires; waits
// after Set() complete immediately. TimedWait resolves to false on timeout;
// when the event fires first, Set() cancels the wait's timer.
class Event {
 public:
  bool is_set() const { return set_; }

  void Set() {
    if (set_) {
      return;
    }
    set_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& w : waiters) {
      if (w.state && w.state->settled) {
        continue;
      }
      if (w.state) {
        w.state->settled = true;
        w.state->event_fired = true;
        w.actor->loop().Cancel(w.timer);
      }
      // Resume in the waiter's op context (captured at suspension), not the
      // setter's: the setter may be working on an unrelated operation.
      w.actor->ResumeSoon(w.handle, w.epoch, w.ctx);
    }
  }

  struct TimedState {
    bool settled = false;
    bool event_fired = false;
    obs::OpContext ctx{};  // waiter's op context; lives here, not in the
                           // timeout capture, to keep the callback inline
  };

  struct WaitAwaiter {
    Event& event;
    Actor* actor = nullptr;

    void SetActor(Actor* a) { actor = a; }
    bool await_ready() const noexcept { return event.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(actor && "Event::Wait outside an actor coroutine");
      event.waiters_.push_back({actor, actor->epoch(), h, nullptr, obs::ThisContext(), {}});
    }
    void await_resume() const noexcept {}
  };

  struct TimedWaitAwaiter {
    Event& event;
    Nanos timeout;
    Actor* actor = nullptr;
    std::shared_ptr<TimedState> state;

    void SetActor(Actor* a) { actor = a; }
    bool await_ready() const noexcept { return event.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(actor && "Event::TimedWait outside an actor coroutine");
      state = std::allocate_shared<TimedState>(PoolAllocator<TimedState>());
      state->ctx = obs::ThisContext();
      const EventLoop::Handle timer =
          actor->loop().ScheduleAfter(timeout, [a = actor, e = actor->epoch(), h, s = state] {
        if (s->settled) {
          return;
        }
        s->settled = true;
        s->event_fired = false;
        if (a->AliveAt(e)) {
          obs::ContextGuard guard(s->ctx);
          h.resume();
        }
      });
      event.waiters_.push_back({actor, actor->epoch(), h, state, state->ctx, timer});
    }
    bool await_resume() const noexcept { return state ? state->event_fired : true; }
  };

  // `co_await event.Wait()`
  WaitAwaiter Wait() { return WaitAwaiter{*this}; }
  // `bool fired = co_await event.TimedWait(timeout)`
  TimedWaitAwaiter TimedWait(Nanos timeout) {
    return TimedWaitAwaiter{*this, timeout, nullptr, nullptr};
  }

 private:
  struct Waiter {
    Actor* actor;
    uint64_t epoch;
    std::coroutine_handle<> handle;
    std::shared_ptr<TimedState> state;  // null for untimed waits
    obs::OpContext ctx;                 // waiter's op context at suspension
    EventLoop::Handle timer;            // the timed wait's timeout event
  };

  bool set_ = false;
  std::vector<Waiter> waiters_;
};

// Countdown latch: fires its event when `count` completions arrive.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {
    if (remaining_ <= 0) {
      done_.Set();
    }
  }

  void CountDown() {
    if (--remaining_ <= 0) {
      done_.Set();
    }
  }

  Event::WaitAwaiter Wait() { return done_.Wait(); }
  Event::TimedWaitAwaiter TimedWait(Nanos timeout) { return done_.TimedWait(timeout); }

 private:
  int remaining_;
  Event done_;
};

// Unbounded multi-producer multi-consumer mailbox.
template <typename T>
class Queue {
 public:
  void Push(T value) {
    items_.push_back(std::move(value));
    if (!waiters_.empty()) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      w.actor->ResumeSoon(w.handle, w.epoch, w.ctx);
    }
  }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

  struct PopAwaiter {
    Queue& queue;
    Actor* actor = nullptr;

    void SetActor(Actor* a) { actor = a; }
    bool await_ready() const noexcept { return !queue.items_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      assert(actor && "Queue::Pop outside an actor coroutine");
      queue.waiters_.push_back({actor, actor->epoch(), h, obs::ThisContext()});
    }
    T await_resume() {
      // A racing consumer may have taken the item; in the single-threaded
      // simulator this only happens if two waiters were resumed for one push,
      // which Push() never does, so the queue is non-empty here.
      assert(!queue.items_.empty());
      T value = std::move(queue.items_.front());
      queue.items_.pop_front();
      return value;
    }
  };

  // `T v = co_await queue.Pop()`
  PopAwaiter Pop() { return PopAwaiter{*this}; }

 private:
  struct Waiter {
    Actor* actor;
    uint64_t epoch;
    std::coroutine_handle<> handle;
    obs::OpContext ctx;
  };

  std::deque<T> items_;
  std::deque<Waiter> waiters_;
};

// Runs all tasks concurrently on the current actor and returns their results
// in order. The tasks become independent coroutine trees of the same actor,
// so a Kill() tears everything down coherently.
template <typename T>
Task<std::vector<T>> WhenAll(std::vector<Task<T>> tasks) {
  Actor* actor = co_await CurrentActor{};
  const size_t n = tasks.size();
  struct State {
    std::vector<T> results;
    Latch latch;
    explicit State(size_t n) : results(n), latch(static_cast<int>(n)) {}
  };
  auto state = std::allocate_shared<State>(PoolAllocator<State>(), n);
  for (size_t i = 0; i < n; ++i) {
    actor->Spawn([](std::shared_ptr<State> s, size_t idx, Task<T> t) -> Task<> {
      s->results[idx] = co_await std::move(t);
      s->latch.CountDown();
    }(state, i, std::move(tasks[i])));
  }
  co_await state->latch.Wait();
  co_return std::move(state->results);
}

// Void overload.
Task<> WhenAllVoid(std::vector<Task<>> tasks);

// WhenAll over fallible tasks: the first failure in task order, or OK.
Task<Status> WhenAllOk(std::vector<Task<Status>> tasks);

}  // namespace cheetah::sim

#endif  // SRC_SIM_SYNC_H_
