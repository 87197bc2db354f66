#include "src/sim/event_loop.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/obs/context.h"

namespace cheetah::sim {

namespace {
std::optional<EventLoop::Engine> g_engine_override;
}  // namespace

void EventLoop::OverrideDefaultEngine(std::optional<Engine> engine) {
  g_engine_override = engine;
}

EventLoop::Engine EventLoop::DefaultEngine() {
  if (g_engine_override.has_value()) {
    return *g_engine_override;
  }
  if (const char* env = std::getenv("CHEETAH_SIM_ENGINE")) {
    if (std::strcmp(env, "heap") == 0) {
      return Engine::kHeap;
    }
  }
  return Engine::kWheel;
}

EventLoop::EventLoop(Engine engine)
    : engine_(engine),
      scope_("sim.loop"),
      events_fired_(scope_.counter("events_fired")),
      callbacks_inline_(scope_.counter("callbacks_inline")),
      callbacks_heap_(scope_.counter("callbacks_heap")),
      overflow_promotions_(scope_.counter("overflow_promotions")),
      arena_bytes_(scope_.gauge("arena_bytes_reserved")),
      arena_live_(scope_.gauge("arena_live")),
      arena_resets_(scope_.counter("arena_resets")) {
  if (engine_ == Engine::kWheel) {
    slots_.resize(kSlots);
  }
}

EventLoop::Handle EventLoop::ScheduleAt(Nanos time, Callback fn) {
  assert(time >= now_ && "cannot schedule in the past");
  assert(next_seq_ <= kMaxSeq && "event sequence numbers exhausted");
  if (fn.heap_allocated()) {
    callbacks_heap_->Add();
  } else {
    callbacks_inline_->Add();
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    if (fns_.size() > kSlotTagMask) {
      // Checked in every build: a wrapped slot index would alias two events.
      std::fprintf(stderr, "EventLoop: more than %llu pending events\n",
                   static_cast<unsigned long long>(kSlotTagMask + 1));
      std::abort();
    }
    slot = static_cast<uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
    tags_.push_back(kFreeTag);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  }
  const Key key{time, (next_seq_++ << kSlotTagBits) | slot};
  tags_[slot] = key.tag;
  if (engine_ == Engine::kHeap) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return Handle(key.tag);
  }
  const uint64_t tick = TickOf(time);
  if (tick <= active_tick_) {
    // The tick currently being drained (or one that became reachable after a
    // RunUntil fast-forward): must participate in ordered dispatch now.
    active_.push_back(key);
    std::push_heap(active_.begin(), active_.end(), Later{});
  } else if (tick - active_tick_ < kSlots) {
    slots_[tick & kSlotMask].push_back(key);
    occupied_[(tick & kSlotMask) >> 6] |= uint64_t{1} << (tick & 63);
    ++wheel_count_;
  } else {
    overflow_.push_back(key);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
  return Handle(key.tag);
}

void EventLoop::Cancel(Handle handle) {
  const uint32_t slot = SlotOf(handle.tag_);
  if (handle.tag_ == kFreeTag || slot >= tags_.size() || tags_[slot] != handle.tag_) {
    return;  // already fired or cancelled (the slot may hold a newer event)
  }
  // Free the slot before the capture's destructor runs, so a destructor that
  // schedules or cancels sees a consistent slab.
  Callback fn = std::move(fns_[slot]);
  FreeSlot(slot);
}

void EventLoop::FreeSlot(uint32_t slot) {
  tags_[slot] = kFreeTag;
  free_slots_.push_back(slot);
  // Only a cancel or a fire lowers the live count, so this is the one place
  // the overflow bound can be crossed. A compaction leaves at most the live
  // count behind, so the next needs that many fires or cancels again: each
  // costs O(1) amortised. Only dead keys leave, so firing order is unchanged.
  if (overflow_.size() > 2 * pending_events() + kOverflowSlack) {
    std::erase_if(overflow_, [this](const Key& key) { return !Live(key); });
    std::make_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

uint64_t EventLoop::NextOccupiedTick() const {
  if (wheel_count_ == 0) {
    return kNoTick;
  }
  // Circular scan over the occupancy bitmap starting just after the active
  // tick. Any occupied slot within the window maps back to a unique tick.
  const uint64_t start = (active_tick_ + 1) & kSlotMask;
  size_t word = start >> 6;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (start & 63));
  for (size_t scanned = 0; scanned <= kSlots / 64; ++scanned) {
    if (bits != 0) {
      const uint64_t pos = (word << 6) | static_cast<uint64_t>(std::countr_zero(bits));
      const uint64_t delta = ((pos - start) & kSlotMask) + 1;
      return active_tick_ + delta;
    }
    word = (word + 1) & ((kSlots / 64) - 1);
    bits = occupied_[word];
  }
  return kNoTick;
}

bool EventLoop::Advance() {
  // Ticks whose keys were all cancelled stage nothing; move on past them.
  while (active_.empty()) {
    const uint64_t wheel_tick = NextOccupiedTick();
    const uint64_t over_tick = overflow_.empty() ? kNoTick : TickOf(overflow_.front().time);
    const uint64_t next = std::min(wheel_tick, over_tick);
    if (next == kNoTick) {
      return false;
    }
    active_tick_ = next;
    if (wheel_tick == next) {
      auto& slot = slots_[next & kSlotMask];
      wheel_count_ -= slot.size();
      occupied_[(next & kSlotMask) >> 6] &= ~(uint64_t{1} << (next & 63));
      active_.swap(slot);  // recycles both vectors' capacity
      std::erase_if(active_, [this](const Key& key) { return !Live(key); });
    }
    while (!overflow_.empty() && TickOf(overflow_.front().time) == next) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      if (Live(overflow_.back())) {
        active_.push_back(overflow_.back());
        overflow_promotions_->Add();
      }
      overflow_.pop_back();
    }
    std::make_heap(active_.begin(), active_.end(), Later{});
  }
  return true;
}

std::vector<EventLoop::Key>* EventLoop::Staged() {
  if (engine_ == Engine::kHeap) {
    return heap_.empty() ? nullptr : &heap_;
  }
  return Advance() ? &active_ : nullptr;
}

const EventLoop::Key* EventLoop::NextLive() {
  for (std::vector<Key>* queue = Staged(); queue != nullptr; queue = Staged()) {
    if (Live(queue->front())) {
      return &queue->front();
    }
    std::pop_heap(queue->begin(), queue->end(), Later{});
    queue->pop_back();
  }
  return nullptr;
}

void EventLoop::FireNext() {
  std::vector<Key>& queue = engine_ == Engine::kHeap ? heap_ : active_;
  std::pop_heap(queue.begin(), queue.end(), Later{});
  const Key key = queue.back();
  queue.pop_back();
  // Move the callback out before calling it: a reschedule from inside may
  // grow the slab, and the freed slot may be reused at once.
  const uint32_t slot = SlotOf(key.tag);
  Callback fn = std::move(fns_[slot]);
  FreeSlot(slot);
  now_ = key.time;
  events_fired_->Add();
  // Each event starts with a clean op context; events that resume a
  // coroutine on behalf of an operation install its context themselves.
  obs::SetContext({});
  fn();
  // `fn` is destroyed here, before the caller's quiesce check: it may hold
  // the last live arena object (e.g. an ArenaPtr).
}

void EventLoop::MaybeQuiesce() {
  if (pending_events() == 0 && arena_.live() == 0) {
    arena_.Reset();
    arena_resets_->Add();
    PublishArenaStats();
  }
}

void EventLoop::PublishArenaStats() {
  arena_bytes_->Set(static_cast<int64_t>(arena_.bytes_reserved()));
  arena_live_->Set(static_cast<int64_t>(arena_.live()));
}

bool EventLoop::RunOne() {
  if (NextLive() == nullptr) {
    return false;
  }
  FireNext();
  MaybeQuiesce();
  return true;
}

void EventLoop::Run() {
  while (RunOne()) {
  }
  PublishArenaStats();
}

void EventLoop::RunUntil(Nanos deadline) {
  for (const Key* next = NextLive(); next != nullptr && next->time <= deadline;
       next = NextLive()) {
    FireNext();
    MaybeQuiesce();
  }
  now_ = std::max(now_, deadline);
  PublishArenaStats();
}

}  // namespace cheetah::sim
