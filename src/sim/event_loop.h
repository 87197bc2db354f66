// Deterministic discrete-event loop with a virtual clock.
//
// All simulated activity — network delivery, disk completion, timers — is a
// callback scheduled at a virtual timestamp. Ties are broken by insertion
// order (a global sequence number), so a given seed always produces the
// identical execution.
//
// Callbacks live in a slab: ScheduleAt moves the InlineFn once into a slot
// taken from a free list, and every queue below orders only 16-byte keys
// {time, tag}, where tag packs the event's sequence number (high 40 bits)
// above its slot index (low 24 bits). Sifts therefore move keys, never
// captures. Tags order like sequence numbers because each seq is unique.
//
// Two interchangeable engines produce the exact same (time, seq) firing
// order:
//
//  * kWheel (default): a hierarchical timer wheel. Near-future keys land in
//    one of 4096 slots of 4.096us each (~16.8ms horizon) with O(1) insertion;
//    far-future keys (RPC timeouts, heartbeats, scrub intervals) go to an
//    overflow heap and are promoted when their slot comes up. Only the slot
//    currently being drained is kept heap-ordered, so the common
//    schedule-then-fire pair costs O(1) + O(log k) for tiny k instead of the
//    global O(log n) of a single priority queue.
//  * kHeap: the reference single binary heap of the same keys, kept as the
//    determinism oracle — tests and the sim_engine_speed bench run both
//    engines and require byte-identical schedules.
//
// Cancel(handle) destroys a pending callback at once and frees its slot; the
// key stays queued and is dropped when it surfaces (a slot whose tag no
// longer matches). A dropped key is not fired or counted and does not move
// the clock. This is what lets a timed wait retire its timeout the moment
// the awaited event fires, instead of leaving it queued for its full delay.
// Keys in the wheel surface within one horizon, but an overflow key (a
// cancelled 500ms RPC timeout) would sit for its whole delay, so the
// overflow heap is compacted whenever it holds more than
// 2 * pending_events() + kOverflowSlack keys: its size stays proportional to
// live state however many timeouts are cancelled.
//
// Callbacks are InlineFn (48-byte small-buffer captures, no malloc on the
// common path) and the loop owns a slab-pool Arena (src/common/arena.h) that
// network/RPC layers use for envelopes and delivery records; the arena resets
// at quiescent points (no live event, nothing live in the arena).
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/inline_fn.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"

namespace cheetah::sim {

class EventLoop {
 public:
  using Callback = InlineFn<void()>;

  enum class Engine { kWheel, kHeap };

  EventLoop() : EventLoop(DefaultEngine()) {}
  explicit EventLoop(Engine engine);
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Process-wide default-engine override (tests and the determinism guard);
  // falls back to the CHEETAH_SIM_ENGINE env var ("heap" selects the
  // reference engine), then to the wheel.
  static void OverrideDefaultEngine(std::optional<Engine> engine);
  static Engine DefaultEngine();

  Engine engine() const { return engine_; }
  Nanos Now() const { return now_; }

  // Transient-object arena for events in flight (RPC envelopes, delivery
  // records). Reset automatically when the loop quiesces.
  Arena& arena() { return arena_; }

  // Identifies one scheduled event for Cancel. A default handle, or one
  // whose event already fired or was cancelled, names nothing.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class EventLoop;
    explicit Handle(uint64_t tag) : tag_(tag) {}
    uint64_t tag_ = 0;
  };

  Handle ScheduleAt(Nanos time, Callback fn);
  Handle ScheduleAfter(Nanos delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Destroys the event's callback now and frees its slot, so it never fires.
  // Ignored for a handle whose event already fired or was cancelled.
  void Cancel(Handle handle);

  // Runs a single event; returns false if no live event remains.
  bool RunOne();

  // Runs until no events remain.
  void Run();

  // Runs events with timestamp <= deadline; advances the clock to `deadline`
  // even if the queue drains earlier (so periodic loads can be layered).
  void RunUntil(Nanos deadline);
  void RunFor(Nanos duration) { RunUntil(now_ + duration); }

  // Scheduled events that will still fire (cancelled ones excluded).
  size_t pending_events() const { return fns_.size() - free_slots_.size(); }

  // Keys queued in the overflow heap, cancelled ones included. Never above
  // 2 * pending_events() + kOverflowSlack.
  size_t overflow_keys() const { return overflow_.size(); }
  static constexpr size_t kOverflowSlack = 1024;

  uint64_t events_fired() const { return events_fired_->value(); }

 private:
  // Wheel geometry: 4096 slots of 2^12 ns. An event `time` maps to tick
  // `time >> kSlotBits`; ticks within (active_tick_, active_tick_ + kSlots)
  // live in slot `tick & kSlotMask`, which is collision-free because the
  // window is narrower than one full rotation.
  static constexpr int kSlotBits = 12;
  static constexpr int kWheelBits = 12;
  static constexpr size_t kSlots = size_t{1} << kWheelBits;
  static constexpr uint64_t kSlotMask = kSlots - 1;
  static constexpr uint64_t kNoTick = ~uint64_t{0};

  // Tag layout: seq << kSlotTagBits | slot. Seqs start at 1, so no live tag
  // equals kFreeTag, the marker of an unused slab slot.
  static constexpr int kSlotTagBits = 24;
  static constexpr uint64_t kSlotTagMask = (uint64_t{1} << kSlotTagBits) - 1;
  static constexpr uint64_t kMaxSeq = (uint64_t{1} << (64 - kSlotTagBits)) - 1;
  static constexpr uint64_t kFreeTag = 0;

  struct Key {
    Nanos time;
    uint64_t tag;
  };
  static_assert(sizeof(Key) == 16);
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.tag > b.tag;
    }
  };

  static uint64_t TickOf(Nanos time) { return static_cast<uint64_t>(time) >> kSlotBits; }

  static uint32_t SlotOf(uint64_t tag) { return static_cast<uint32_t>(tag & kSlotTagMask); }
  bool Live(const Key& key) const { return tags_[SlotOf(key.tag)] == key.tag; }
  void FreeSlot(uint32_t slot);

  // Stages the next non-empty tick into active_; returns false if drained.
  bool Advance();
  // Next occupied wheel tick strictly after active_tick_, or kNoTick.
  uint64_t NextOccupiedTick() const;
  // The queue the next key pops from: heap_, or active_ after Advance().
  std::vector<Key>* Staged();
  // Earliest key of a live event, dropping the cancelled keys that surface
  // ahead of it; null when no live event remains.
  const Key* NextLive();
  // Pops the key NextLive() returned and runs its callback.
  void FireNext();
  void MaybeQuiesce();
  void PublishArenaStats();

  Engine engine_;
  Nanos now_ = 0;
  uint64_t next_seq_ = 1;

  // Declared before the callback slab so arena-backed captures (network
  // deliveries, RPC envelopes) are destroyed before the arena itself when a
  // loop is torn down with events still queued.
  Arena arena_;

  // The callback slab. fns_[i] holds a pending callback while tags_[i] is
  // its event's tag, and is empty while tags_[i] == kFreeTag; free slot
  // indices are recycled LIFO from free_slots_.
  std::vector<Callback> fns_;
  std::vector<uint64_t> tags_;
  std::vector<uint32_t> free_slots_;

  // kWheel state. active_ is a binary heap (Later) holding every queued key
  // with tick == active_tick_; slots hold later in-horizon ticks unsorted;
  // overflow_ is a binary heap of beyond-horizon keys.
  uint64_t active_tick_ = 0;
  std::vector<Key> active_;
  std::vector<std::vector<Key>> slots_;
  std::array<uint64_t, kSlots / 64> occupied_{};
  size_t wheel_count_ = 0;
  std::vector<Key> overflow_;

  // kHeap state: one global binary heap of keys.
  std::vector<Key> heap_;

  obs::Scope scope_;
  obs::Counter* events_fired_;
  obs::Counter* callbacks_inline_;
  obs::Counter* callbacks_heap_;
  obs::Counter* overflow_promotions_;
  obs::Gauge* arena_bytes_;
  obs::Gauge* arena_live_;
  obs::Counter* arena_resets_;
};

}  // namespace cheetah::sim

#endif  // SRC_SIM_EVENT_LOOP_H_
