// Simulator engine internals: the hierarchical timer wheel vs the reference
// heap engine, event cancellation and overflow compaction, InlineFn
// small-buffer callbacks, the slab-pool Arena, and the AnyMsg arena-backed
// message box.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/inline_fn.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/sim/any_msg.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"

namespace cheetah::sim {
namespace {

// ---- timer wheel vs reference heap ---------------------------------------

// Ties at one timestamp must fire in schedule order, including when the
// events were inserted across a bucket-staging boundary (some before the
// slot was staged into the active heap, some after).
TEST(TimerWheel, SeqTieBreakAcrossBucketBoundary) {
  EventLoop loop(EventLoop::Engine::kWheel);
  std::vector<int> order;
  const Nanos t = 3 * 4096 + 7;  // mid-slot, a few buckets out
  loop.ScheduleAt(t, [&] { order.push_back(0); });
  loop.ScheduleAt(t, [&] { order.push_back(1); });
  // An earlier event whose firing schedules two more ties at t: by then t's
  // bucket may already be staged, so these take the tick<=active insert path.
  loop.ScheduleAt(t - 1, [&loop, &order, t] {
    loop.ScheduleAt(t, [&] { order.push_back(2); });
    loop.ScheduleAt(t, [&] { order.push_back(3); });
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Events beyond the wheel horizon park in the overflow heap and are promoted
// when their tick comes up, interleaved correctly with in-wheel events.
TEST(TimerWheel, FarFutureOverflowPromotion) {
  EventLoop loop(EventLoop::Engine::kWheel);
  std::vector<int> order;
  const Nanos horizon = 4096 * 4096;  // kSlots << kSlotBits
  loop.ScheduleAt(3 * horizon + 5, [&] { order.push_back(2); });      // overflow
  loop.ScheduleAt(3 * horizon + 4, [&] { order.push_back(1); });      // overflow
  loop.ScheduleAt(100, [&loop, &order, horizon] {                     // in-wheel
    order.push_back(0);
    loop.ScheduleAt(3 * horizon + 6, [&] { order.push_back(3); });    // overflow again
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.pending_events(), 0u);
}

// A randomized schedule (mixed near/far/tied timestamps, reschedules from
// inside callbacks) must fire in the identical order on both engines, and
// RunUntil must drain exactly the same prefix at every deadline.
TEST(TimerWheel, RandomizedScheduleMatchesReferenceHeap) {
  auto drive = [](EventLoop::Engine engine) {
    EventLoop loop(engine);
    std::vector<std::pair<Nanos, int>> fired;
    Rng rng(0xfeedu);
    struct Ctx {
      EventLoop* loop;
      std::vector<std::pair<Nanos, int>>* fired;
      Rng* rng;
      int next_id = 1000;
    } ctx{&loop, &fired, &rng};
    for (int i = 0; i < 200; ++i) {
      const Nanos t = rng.Uniform(50'000'000);  // spans ~3000 wheel ticks
      loop.ScheduleAt(t, [&ctx, i] {
        ctx.fired->emplace_back(ctx.loop->Now(), i);
        if (ctx.fired->size() % 3 == 0) {  // reschedule churn from callbacks
          const int id = ctx.next_id++;
          ctx.loop->ScheduleAfter(ctx.rng->Uniform(20'000'000),
                                  [&ctx, id] { ctx.fired->emplace_back(ctx.loop->Now(), id); });
        }
      });
    }
    // Drain in uneven RunUntil steps, then finish with Run(); the clock must
    // land exactly on each deadline even when the queue is briefly empty.
    loop.RunUntil(10'000'000);
    EXPECT_EQ(loop.Now(), 10'000'000);
    const size_t after_first = fired.size();
    loop.RunUntil(10'000'000);  // idempotent: nothing left at/below deadline
    EXPECT_EQ(fired.size(), after_first);
    loop.RunUntil(31'234'567);
    EXPECT_EQ(loop.Now(), 31'234'567);
    loop.Run();
    return fired;
  };
  const auto wheel = drive(EventLoop::Engine::kWheel);
  const auto heap = drive(EventLoop::Engine::kHeap);
  EXPECT_EQ(wheel, heap);
  EXPECT_GT(wheel.size(), 200u);
}

// Random schedules with cancels interleaved must fire the identical
// (time, id) sequence on both engines. Delays are drawn so cancels land in
// the tick being drained, in wheel slots and in the overflow heap, and half
// of the cancels are issued from inside callbacks. Ids are assigned in
// schedule order, so they stand in for sequence numbers.
TEST(TimerWheel, RandomizedCancelsMatchReferenceHeap) {
  struct Run {
    std::vector<std::pair<Nanos, int>> fired;
    std::vector<size_t> pending;  // pending_events() at each checkpoint
    int cancels_hit = 0;
  };
  auto drive = [](EventLoop::Engine engine) {
    EventLoop loop(engine);
    const uint64_t fired_base = loop.events_fired();
    Run run;
    Rng rng(0xc0ffeeu);
    std::vector<EventLoop::Handle> handles;
    std::vector<bool> live;
    struct Ctx {
      EventLoop* loop;
      Run* run;
      Rng* rng;
      std::vector<EventLoop::Handle>* handles;
      std::vector<bool>* live;

      Nanos Delay() {
        const uint64_t pick = rng->Uniform(4);
        if (pick == 0) {
          return static_cast<Nanos>(rng->Uniform(4096));  // the active tick
        }
        if (pick == 3) {
          return static_cast<Nanos>(rng->UniformRange(20'000'000, 200'000'000));  // overflow
        }
        return static_cast<Nanos>(rng->UniformRange(5'000, 16'000'000));  // a wheel slot
      }
      void Schedule() {
        const int id = static_cast<int>(handles->size());
        live->push_back(true);
        handles->push_back(loop->ScheduleAfter(Delay(), [this, id] {
          run->fired.emplace_back(loop->Now(), id);
          (*live)[static_cast<size_t>(id)] = false;
          if (rng->Uniform(3) != 0) {
            Schedule();
          }
          CancelOne();
        }));
      }
      // Cancels a random recent event; it may already have fired or been
      // cancelled, which must be a no-op.
      void CancelOne() {
        const size_t n = handles->size();
        const size_t id = n - 1 - rng->Uniform(std::min<size_t>(n, 64));
        if ((*live)[id]) {
          (*live)[id] = false;
          ++run->cancels_hit;
        }
        loop->Cancel((*handles)[id]);
      }
    } ctx{&loop, &run, &rng, &handles, &live};

    for (int i = 0; i < 300; ++i) {
      ctx.Schedule();
    }
    for (Nanos deadline = 0; deadline < 400'000'000; deadline += 7'654'321) {
      loop.RunUntil(deadline);
      for (int i = 0; i < 4; ++i) {
        ctx.Schedule();
      }
      ctx.CancelOne();
      ctx.CancelOne();
      const auto live_count = static_cast<size_t>(std::count(live.begin(), live.end(), true));
      EXPECT_EQ(loop.pending_events(), live_count);
      run.pending.push_back(loop.pending_events());
    }
    loop.Run();
    EXPECT_EQ(loop.pending_events(), 0u);
    EXPECT_EQ(loop.events_fired() - fired_base, run.fired.size());
    EXPECT_EQ(std::count(live.begin(), live.end(), true), 0);
    return run;
  };
  const Run wheel = drive(EventLoop::Engine::kWheel);
  const Run heap = drive(EventLoop::Engine::kHeap);
  EXPECT_EQ(wheel.fired, heap.fired);
  EXPECT_EQ(wheel.pending, heap.pending);
  EXPECT_EQ(wheel.cancels_hit, heap.cancels_hit);
  EXPECT_GT(wheel.cancels_hit, 100);
  EXPECT_GT(wheel.fired.size(), 300u);
}

// Mass cancels of far-future timers (RPC timeouts retired by their replies)
// must not pile up dead keys in the overflow heap: after every cancel, fire
// and schedule it holds at most 2 * live + kOverflowSlack keys, and the
// survivors still fire in order.
TEST(TimerWheel, OverflowCompactsCancelledTimeouts) {
  EventLoop loop(EventLoop::Engine::kWheel);
  const auto within_bound = [&loop] {
    return loop.overflow_keys() <= 2 * loop.pending_events() + EventLoop::kOverflowSlack;
  };
  std::vector<int> order;
  std::vector<EventLoop::Handle> timeouts;
  for (int i = 0; i < 20'000; ++i) {
    timeouts.push_back(
        loop.ScheduleAt(Seconds(10) + i, [&order, i] { order.push_back(i); }));
  }
  EXPECT_EQ(loop.overflow_keys(), 20'000u);
  for (int i = 0; i < 20'000; ++i) {
    if (i % 2'000 != 0) {
      loop.Cancel(timeouts[static_cast<size_t>(i)]);
      ASSERT_TRUE(within_bound()) << "after cancel " << i;
    }
  }
  EXPECT_EQ(loop.pending_events(), 10u);
  EXPECT_LE(loop.overflow_keys(), 2 * 10 + EventLoop::kOverflowSlack);
  // RPC-shaped churn: each call arms a 500ms timeout that its reply cancels.
  for (int i = 0; i < 50'000; ++i) {
    const auto timeout = loop.ScheduleAfter(Millis(500), [] { ADD_FAILURE(); });
    ASSERT_TRUE(within_bound());
    loop.ScheduleAfter(Micros(20), [&loop, timeout] { loop.Cancel(timeout); });
    loop.RunFor(Micros(30));
    ASSERT_TRUE(within_bound()) << "after call " << i;
  }
  EXPECT_EQ(loop.pending_events(), 10u);
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2'000, 4'000, 6'000, 8'000, 10'000, 12'000, 14'000,
                                     16'000, 18'000}));
  EXPECT_EQ(loop.overflow_keys(), 0u);
}

// Randomized schedule/cancel churn heavy enough to compact the overflow heap
// many times must fire the identical (time, id) sequence as the reference
// heap engine, which never compacts.
TEST(TimerWheel, OverflowCompactionKeepsReferenceOrder) {
  struct Run {
    std::vector<std::pair<Nanos, int>> fired;
    size_t max_overflow = 0;
    bool bound_held = true;
  };
  auto drive = [](EventLoop::Engine engine) {
    EventLoop loop(engine);
    Run run;
    Rng rng(0xd00du);
    std::vector<EventLoop::Handle> handles;
    std::vector<int> live;  // ids of events not yet fired or cancelled
    std::vector<bool> pending;
    auto schedule = [&](Nanos delay) {
      const int id = static_cast<int>(handles.size());
      pending.push_back(true);
      live.push_back(id);
      handles.push_back(loop.ScheduleAfter(delay, [&run, &loop, &pending, id] {
        run.fired.emplace_back(loop.Now(), id);
        pending[static_cast<size_t>(id)] = false;
      }));
    };
    for (int step = 0; step < 4'000; ++step) {
      for (int k = 0; k < 3; ++k) {
        schedule(rng.Uniform(4) == 0
                     ? static_cast<Nanos>(rng.UniformRange(1'000, 5'000'000))
                     : static_cast<Nanos>(rng.UniformRange(20'000'000, 600'000'000)));
      }
      // Cancel most far timers soon after arming them, as replies do.
      for (int k = 0; k < 3 && !live.empty(); ++k) {
        const size_t at = live.size() - 1 - rng.Uniform(std::min<size_t>(live.size(), 8));
        const int id = live[at];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        if (pending[static_cast<size_t>(id)] && rng.Uniform(10) != 0) {
          pending[static_cast<size_t>(id)] = false;
          loop.Cancel(handles[static_cast<size_t>(id)]);
        }
      }
      loop.RunFor(rng.UniformRange(10'000, 200'000));
      run.max_overflow = std::max(run.max_overflow, loop.overflow_keys());
      run.bound_held = run.bound_held && loop.overflow_keys() <=
                                             2 * loop.pending_events() +
                                                 EventLoop::kOverflowSlack;
    }
    loop.Run();
    EXPECT_EQ(loop.pending_events(), 0u);
    return run;
  };
  const Run wheel = drive(EventLoop::Engine::kWheel);
  const Run heap = drive(EventLoop::Engine::kHeap);
  EXPECT_EQ(wheel.fired, heap.fired);
  EXPECT_GT(wheel.fired.size(), 1'000u);
  EXPECT_TRUE(wheel.bound_held);
  // Without compaction the overflow heap peaks at about 6000 keys, most of
  // them cancelled; with it, at about 2200.
  EXPECT_LT(wheel.max_overflow, 4'000u);
}

// A cancelled event never fires and its key, dropped when it surfaces, does
// not move the clock — whether it sat in the tick being drained, a wheel
// slot or the overflow heap, and whether the cancel came from outside the
// loop or from a callback.
TEST(TimerWheel, CancelInEveryQueue) {
  for (const auto engine : {EventLoop::Engine::kWheel, EventLoop::Engine::kHeap}) {
    EventLoop loop(engine);
    std::vector<int> order;
    const Nanos horizon = 4096 * 4096;
    const auto in_active = loop.ScheduleAt(10, [&] { order.push_back(-1); });
    const auto in_slot = loop.ScheduleAt(50'000, [&] { order.push_back(-2); });
    const auto in_overflow = loop.ScheduleAt(3 * horizon, [&] { order.push_back(-3); });
    EventLoop::Handle from_callback;
    loop.ScheduleAt(20, [&] {
      order.push_back(1);
      loop.Cancel(from_callback);  // same tick, already staged
    });
    from_callback = loop.ScheduleAt(30, [&] { order.push_back(-4); });
    loop.ScheduleAt(60'000, [&] { order.push_back(2); });
    const auto late = loop.ScheduleAt(4 * horizon, [&] { order.push_back(-5); });
    loop.ScheduleAt(2 * horizon, [&] {
      order.push_back(3);
      loop.Cancel(late);  // in the overflow heap
    });
    loop.Cancel(in_active);
    loop.Cancel(in_slot);
    loop.Cancel(in_overflow);
    EXPECT_EQ(loop.pending_events(), 5u);
    loop.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.Now(), 2 * horizon);
    EXPECT_EQ(loop.pending_events(), 0u);
  }
}

// A handle names one event only: cancelling after it fired, after it was
// cancelled, or after its slot went to a newer event is ignored.
TEST(TimerWheel, StaleCancelIsIgnored) {
  EventLoop loop;
  int fired = 0;
  const auto first = loop.ScheduleAfter(5, [&] { ++fired; });
  loop.Run();
  ASSERT_EQ(fired, 1);
  // The freed slot is reused by the next schedule.
  loop.ScheduleAfter(5, [&] { fired += 10; });
  loop.Cancel(first);
  loop.Cancel(EventLoop::Handle{});
  EXPECT_EQ(loop.pending_events(), 1u);
  const auto twice = loop.ScheduleAfter(7, [&] { fired += 100; });
  loop.Cancel(twice);
  loop.Cancel(twice);
  loop.ScheduleAfter(9, [&] { fired += 1000; });
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.Run();
  EXPECT_EQ(fired, 1011);
}

// A default handle names no event, even while slot 0 is free: freeing that
// slot a second time would hand it to two later events and lose one.
TEST(TimerWheel, DefaultHandleCancelsNothing) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAfter(1, [&] { ++fired; });
  loop.Run();
  loop.Cancel(EventLoop::Handle{});
  loop.ScheduleAfter(1, [&] { fired += 10; });
  loop.ScheduleAfter(2, [&] { fired += 100; });
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.Run();
  EXPECT_EQ(fired, 111);
}

// Cancelled events leave the live counts at once, and once only cancelled
// keys remain the loop quiesces: the arena resets.
TEST(TimerWheel, CancelledEventsAreNotCountedAndArenaQuiesces) {
  EventLoop loop;
  const uint64_t fired_base = loop.events_fired();
  const uint64_t resets_base = loop.arena().resets();
  EventLoop::Handle timeout =
      loop.ScheduleAfter(Millis(500), [] { ADD_FAILURE() << "cancelled timeout fired"; });
  auto rec = MakeArenaPtr<std::string>(loop.arena(), "reply");
  loop.ScheduleAfter(Micros(3), [&loop, &timeout, r = std::move(rec)] {
    (void)*r;
    loop.Cancel(timeout);
  });
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.RunUntil(Micros(5));
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.arena().live(), 0u);
  EXPECT_EQ(loop.arena().resets(), resets_base + 1);
  loop.Run();
  EXPECT_EQ(loop.events_fired() - fired_base, 1u);
  EXPECT_EQ(loop.Now(), Micros(5));
}

TEST(TimerWheel, RunUntilAdvancesClockOnEmptyQueue) {
  EventLoop loop;
  loop.RunUntil(Millis(5));
  EXPECT_EQ(loop.Now(), Millis(5));
  bool fired = false;
  loop.ScheduleAfter(Micros(1), [&] { fired = true; });
  loop.RunFor(Micros(2));
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.Now(), Millis(5) + Micros(2));
}

TEST(TimerWheel, EnvAndOverrideSelectEngine) {
  EventLoop::OverrideDefaultEngine(EventLoop::Engine::kHeap);
  EventLoop as_heap;
  EXPECT_EQ(as_heap.engine(), EventLoop::Engine::kHeap);
  EventLoop::OverrideDefaultEngine(std::nullopt);
  EventLoop as_default;
  EXPECT_EQ(as_default.engine(), EventLoop::Engine::kWheel);
}

// ---- callback lifecycle (the old priority_queue::top() const-cast bug) ----

// A callback must be moved out of the queue and destroyed exactly once after
// firing — never copied. Tracks every special member; with the old
// std::function-based queue a copyable callable could be silently copied by
// the const_cast-move workaround's fallback paths.
struct LifecycleProbe {
  int* copies;
  int* destroys;
  LifecycleProbe(int* c, int* d) : copies(c), destroys(d) {}
  LifecycleProbe(const LifecycleProbe& o) : copies(o.copies), destroys(o.destroys) {
    ++*copies;
  }
  LifecycleProbe(LifecycleProbe&& o) noexcept : copies(o.copies), destroys(o.destroys) {
    o.copies = nullptr;
    o.destroys = nullptr;
  }
  ~LifecycleProbe() {
    if (destroys != nullptr) {
      ++*destroys;
    }
  }
};

TEST(CallbackLifecycle, FiredCallbackIsNeverCopied) {
  int copies = 0;
  int destroys = 0;
  {
    EventLoop loop;
    loop.ScheduleAfter(10, [p = LifecycleProbe(&copies, &destroys)] { (void)p; });
    loop.Run();
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(destroys, 1);  // destroyed right after firing, not at loop teardown
  }
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(destroys, 1);
}

TEST(CallbackLifecycle, UnfiredCallbackDestroyedAtTeardown) {
  int copies = 0;
  int destroys = 0;
  {
    EventLoop loop;
    loop.ScheduleAfter(10, [p = LifecycleProbe(&copies, &destroys)] { (void)p; });
    // Never run: teardown must destroy the pending callback exactly once.
  }
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(destroys, 1);
}

TEST(CallbackLifecycle, CancelledCaptureDestroyedAtCancel) {
  int copies = 0;
  int destroys = 0;
  EventLoop loop;
  const auto handle =
      loop.ScheduleAfter(10, [p = LifecycleProbe(&copies, &destroys)] { (void)p; });
  EXPECT_EQ(destroys, 0);
  loop.Cancel(handle);
  EXPECT_EQ(destroys, 1);  // at Cancel, not when the key surfaces or at teardown
  loop.Run();
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(destroys, 1);
}

// Move-only captures must compile and work (std::function required copyable).
TEST(CallbackLifecycle, MoveOnlyCapture) {
  EventLoop loop;
  auto owned = std::make_unique<int>(42);
  int got = 0;
  loop.ScheduleAfter(5, [o = std::move(owned), &got] { got = *o; });
  loop.Run();
  EXPECT_EQ(got, 42);
}

// ---- InlineFn -------------------------------------------------------------

TEST(InlineFn, SmallCaptureStaysInline) {
  int x = 7;
  InlineFn<int()> fn([&x] { return x + 1; });
  EXPECT_FALSE(fn.heap_allocated());
  EXPECT_EQ(fn(), 8);
}

TEST(InlineFn, LargeCaptureFallsBackToHeap) {
  struct Big {
    char bytes[96];
  } big{};
  big.bytes[0] = 3;
  InlineFn<int()> fn([big] { return static_cast<int>(big.bytes[0]); });
  EXPECT_TRUE(fn.heap_allocated());
  EXPECT_EQ(fn(), 3);
}

TEST(InlineFn, MoveTransfersOwnership) {
  auto owned = std::make_unique<std::string>("hello");
  InlineFn<size_t()> a([o = std::move(owned)] { return o->size(); });
  InlineFn<size_t()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move emptiness is the contract
  ASSERT_TRUE(b);
  EXPECT_EQ(b(), 5u);
  InlineFn<size_t()> c;
  c = std::move(b);
  EXPECT_EQ(c(), 5u);
}

TEST(InlineFn, ArgumentsArePassedThrough) {
  InlineFn<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 40), 42);
}

// ---- Arena ----------------------------------------------------------------

TEST(Arena, RecyclesFreedBlocksBySizeClass) {
  Arena arena;
  void* a = arena.Alloc(48);
  arena.Free(a, 48);
  void* b = arena.Alloc(40);  // same 48-byte class: must reuse the block
  EXPECT_EQ(a, b);
  arena.Free(b, 40);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(Arena, NewDeleteRunConstructorsAndRecycle) {
  Arena arena;
  auto* s = arena.New<std::string>("arena-backed string long enough to heap-allocate");
  EXPECT_EQ(s->substr(0, 5), "arena");
  arena.Delete(s);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.allocs(), 1u);
}

TEST(Arena, OversizedAllocationsPassThrough) {
  Arena arena;
  void* big = arena.Alloc(5000);
  EXPECT_EQ(arena.oversized_allocs(), 1u);
  arena.Free(big, 5000);
  EXPECT_EQ(arena.live(), 0u);
}

// Reset frees every slab but the first, and the next allocation reuses that
// kept slab instead of taking a fresh one.
TEST(Arena, ResetRewindsAndKeepsOneChunk) {
  Arena arena;
  std::vector<void*> blocks;
  for (int i = 0; i < 3'000; ++i) {
    blocks.push_back(arena.Alloc(64));  // forces several slabs
  }
  EXPECT_GT(arena.bytes_reserved(), 2 * Arena::kSlabBytes);
  for (void* b : blocks) {
    arena.Free(b, 64);
  }
  arena.Reset();
  EXPECT_EQ(arena.bytes_reserved(), Arena::kSlabBytes);
  EXPECT_EQ(arena.resets(), 1u);
  const auto slab_of = [](void* p) {
    return reinterpret_cast<uintptr_t>(p) & ~uintptr_t{Arena::kSlabBytes - 1};
  };
  void* again = arena.Alloc(200);  // another class: still the kept slab
  EXPECT_EQ(slab_of(again), slab_of(blocks.front()));
  EXPECT_EQ(arena.bytes_reserved(), Arena::kSlabBytes);
  arena.Free(again, 200);
}

// A slab whose blocks were all freed in one size class serves another class
// instead of staying reserved for the first.
TEST(Arena, EmptiedSlabIsReusedByAnotherClass) {
  Arena arena;
  std::vector<void*> small;
  for (int i = 0; i < 10'000; ++i) {
    small.push_back(arena.Alloc(32));
  }
  const size_t peak = arena.bytes_reserved();
  EXPECT_GE(peak, 10'000u * 32);
  for (void* b : small) {
    arena.Free(b, 32);
  }
  // 300 KiB takes as many slabs as were freed: all of them but the one the
  // small class keeps, and one fresh.
  std::vector<void*> large;
  for (int i = 0; i < 600; ++i) {
    large.push_back(arena.Alloc(512));
  }
  EXPECT_EQ(arena.bytes_reserved(), peak + Arena::kSlabBytes);
  for (void* b : large) {
    arena.Free(b, 512);
  }
  EXPECT_EQ(arena.live(), 0u);
}

// Freed blocks are handed out again, in any order of frees, and live blocks
// never overlap.
TEST(Arena, FreedBlocksAreReusedAndNeverOverlap) {
  Arena arena;
  Rng rng(5);
  std::vector<std::pair<unsigned char*, size_t>> held;
  for (int step = 0; step < 20'000; ++step) {
    if (held.empty() || rng.Uniform(3) != 0) {
      const size_t size = 1 + rng.Uniform(Arena::kMaxPooled);
      auto* p = static_cast<unsigned char*>(arena.Alloc(size));
      std::fill(p, p + size, static_cast<unsigned char>(step));
      held.emplace_back(p, size);
    } else {
      const size_t at = rng.Uniform(held.size());
      std::swap(held[at], held.back());
      const auto [p, size] = held.back();
      for (size_t i = 0; i < size; ++i) {
        ASSERT_EQ(p[i], p[0]) << "block overwritten by a neighbour";
      }
      arena.Free(p, size);
      held.pop_back();
    }
  }
  for (const auto& [p, size] : held) {
    arena.Free(p, size);
  }
  EXPECT_EQ(arena.live(), 0u);
}

// Phases of single-size bursts, each freed before the next: the reserve
// stays within one slab per class of the peak live bytes, where a pool that
// kept each class's blocks forever would reserve the sum of every class's
// peak. Live bytes are scaled by 16/15 first: a slab's header and unused
// tail (less than one block of at most 1 KiB) leave 15/16 of it usable.
TEST(Arena, ReserveStaysNearPeakLiveBytes) {
  Arena arena;
  Rng rng(9);
  size_t live_bytes = 0;
  size_t peak_live = 0;
  size_t classes_used = 0;
  size_t sum_of_class_peaks = 0;
  for (size_t size = Arena::kGranule; size <= Arena::kMaxPooled; size += 5 * Arena::kGranule) {
    ++classes_used;
    const size_t count = 400'000 / size + rng.Uniform(1'000);
    std::vector<void*> blocks;
    for (size_t i = 0; i < count; ++i) {
      blocks.push_back(arena.Alloc(size));
      live_bytes += size;
      peak_live = std::max(peak_live, live_bytes);
    }
    sum_of_class_peaks += count * size;
    // Free in a shuffled order, as event completions do.
    for (size_t i = blocks.size(); i > 1; --i) {
      std::swap(blocks[i - 1], blocks[rng.Uniform(i)]);
    }
    for (void* b : blocks) {
      arena.Free(b, size);
      live_bytes -= size;
    }
  }
  EXPECT_LE(arena.bytes_reserved(), peak_live * 16 / 15 + classes_used * Arena::kSlabBytes);
  EXPECT_LT(arena.bytes_reserved(), sum_of_class_peaks / 4);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(Arena, ArenaPtrOwnsAndReleasesOnDestruction) {
  Arena arena;
  {
    ArenaPtr<std::string> p = MakeArenaPtr<std::string>(arena, "owned");
    EXPECT_EQ(*p, "owned");
    EXPECT_EQ(arena.live(), 1u);
  }
  EXPECT_EQ(arena.live(), 0u);
}

// The loop's arena resets at quiescent points, so steady-state runs stop
// growing: schedule-fire cycles that allocate via the arena reconverge.
TEST(Arena, LoopArenaQuiescesBetweenBursts) {
  EventLoop loop;
  for (int burst = 0; burst < 3; ++burst) {
    for (int i = 0; i < 100; ++i) {
      auto rec = MakeArenaPtr<std::string>(loop.arena(), "payload");
      loop.ScheduleAfter(i + 1, [r = std::move(rec)] { (void)*r; });
    }
    loop.Run();
    EXPECT_EQ(loop.arena().live(), 0u);
    EXPECT_EQ(loop.arena().bytes_reserved(), Arena::kSlabBytes);
  }
  EXPECT_GE(loop.arena().resets(), 3u);
}

// ---- AnyMsg ---------------------------------------------------------------

TEST(AnyMsg, RoundTripsValueThroughArena) {
  Arena arena;
  AnyMsg m = AnyMsg::Make<std::string>(arena, "message body");
  EXPECT_TRUE(m.has_value());
  EXPECT_TRUE(m.Is<std::string>());
  EXPECT_FALSE(m.Is<int>());
  EXPECT_EQ(m.Take<std::string>(), "message body");
  EXPECT_FALSE(m.has_value());
  EXPECT_EQ(arena.live(), 0u);
}

TEST(AnyMsg, MoveOnlyPayloadsWork) {
  Arena arena;
  AnyMsg m = AnyMsg::Make<std::unique_ptr<int>>(arena, std::make_unique<int>(9));
  AnyMsg n = std::move(m);
  EXPECT_FALSE(m.has_value());  // NOLINT(bugprone-use-after-move)
  auto p = n.Take<std::unique_ptr<int>>();
  EXPECT_EQ(*p, 9);
}

TEST(AnyMsg, DeepCopyForChaosDuplication) {
  Arena arena;
  AnyMsg m = AnyMsg::Make<std::string>(arena, "dup me");
  AnyMsg copy = m;  // the chaos-dup path
  EXPECT_EQ(m.Take<std::string>(), "dup me");
  EXPECT_EQ(copy.Take<std::string>(), "dup me");
  EXPECT_EQ(arena.live(), 0u);
}

TEST(AnyMsg, DroppedMessageReleasesSlot) {
  Arena arena;
  {
    AnyMsg m = AnyMsg::Make<std::string>(arena, "never delivered");
    EXPECT_EQ(arena.live(), 1u);
  }
  EXPECT_EQ(arena.live(), 0u);
}

// ---- Network fault-free fast path -----------------------------------------

TEST(NetworkFastPath, SkipsFaultLookupUntilFaultsRegistered) {
  EventLoop loop;
  Network net(loop, NetParams{});
  int delivered = 0;
  net.Register(1, [](auto...) {});
  net.Register(2, [&](NodeId, AnyMsg, size_t) { ++delivered; });

  net.Send(1, 2, std::string("clean"), 100);
  loop.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.fault_free_fast_path(), 1u);
  EXPECT_FALSE(net.dup_faults_possible());

  // Registering any active fault disables the fast path for later sends.
  LinkFaults f;
  f.dup_prob = 1.0;
  f.max_extra_delay = 10;
  net.SeedFaults(7);
  net.SetDefaultLinkFaults(f);
  net.Send(1, 2, std::string("dup me"), 100);
  loop.Run();
  EXPECT_EQ(delivered, 3);  // original + duplicated copy
  EXPECT_EQ(net.fault_free_fast_path(), 1u);  // unchanged: slow path taken
  EXPECT_EQ(net.messages_duplicated(), 1u);

  // dup_faults_possible is sticky across ClearLinkFaults: in-flight
  // duplicates must still be caught by rpc dedup after faults are cleared.
  net.ClearLinkFaults();
  EXPECT_TRUE(net.dup_faults_possible());
  net.Send(1, 2, std::string("clean again"), 100);
  loop.Run();
  EXPECT_EQ(net.fault_free_fast_path(), 2u);  // inactive faults: fast again
}

}  // namespace
}  // namespace cheetah::sim
