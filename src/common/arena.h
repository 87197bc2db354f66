// Arena: a slab pool with size-class recycling for the simulator's transient
// objects (event captures, RPC envelopes, delivery records, coroutine frames).
//
// Blocks are carved from 16 KiB slabs, each serving one size class. A slab
// keeps its own free list: freeing pushes the block there and allocation pops
// from the class's first slab with room, both O(1) with no malloc. A slab
// whose blocks are all free again goes to a shared list that any class can
// take, so memory tracks the peak of live bytes rather than each class's own
// peak: a burst of one size no longer strands its blocks once the mix moves
// on. Each class keeps its last slab even when empty, so an alloc/free pair
// at a slab boundary does not bounce a slab through the shared list. The
// reserve is thus the live peak, plus free blocks inside partly used slabs,
// plus at most one kept slab per class; slabs are small so that this
// per-class slack stays small (64 KiB slabs cost put_storm 1.9 MiB more).
// Each slab is its own 16 KiB-aligned allocation, so a block finds its slab
// header by masking its address. Reset() — legal only at quiescent points,
// when nothing is live — frees every slab but one.
//
// Single-threaded, like everything else in the simulator. Blocks larger than
// kMaxPooled bytes pass through to operator new (counted, so oversized hot
// paths are visible in stats).
#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace cheetah {

class Arena {
 public:
  static constexpr size_t kGranule = 16;
  static constexpr size_t kMaxPooled = 1024;
  static constexpr size_t kSlabBytes = 16 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    for (Slab* slab : slabs_) {
      ::operator delete(slab, std::align_val_t{kSlabBytes});
    }
  }

  void* Alloc(size_t size) {
    ++allocs_;
    ++live_;
    if (size > kMaxPooled) {
      ++oversized_;
      return ::operator new(size);
    }
    const size_t cls = ClassOf(size);
    Slab* slab = avail_[cls];
    if (slab == nullptr) {
      slab = TakeSlab(cls);
    }
    void* p;
    if (FreeNode* node = slab->free) {
      slab->free = node->next;
      p = node;
    } else {
      p = reinterpret_cast<unsigned char*>(slab) + slab->bump;
      slab->bump += static_cast<uint32_t>(BlockBytes(cls));
    }
    if (++slab->live == slab->capacity) {
      Unlink(slab);  // full: no longer a place to allocate
    }
    return p;
  }

  void Free(void* p, size_t size) {
    assert(live_ > 0);
    --live_;
    if (size > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    Slab* slab = SlabOf(p);
    auto* node = static_cast<FreeNode*>(p);
    node->next = slab->free;
    slab->free = node;
    if (slab->live-- == slab->capacity) {
      Link(slab);  // was full: has room again
    } else if (slab->live == 0 && (avail_[slab->cls] != slab || slab->next != nullptr)) {
      // Empty and not its class's last slab: any class may take it.
      Unlink(slab);
      slab->next = empty_;
      empty_ = slab;
    }
  }

  template <typename T, typename... A>
  T* New(A&&... args) {
    static_assert(alignof(T) <= kGranule, "over-aligned type in arena");
    return ::new (Alloc(sizeof(T))) T(std::forward<A>(args)...);
  }

  template <typename T>
  void Delete(T* p) {
    p->~T();
    Free(p, sizeof(T));
  }

  // Frees every slab but the first, which becomes the only empty one. Only
  // legal when nothing is live.
  void Reset() {
    assert(live_ == 0 && "arena reset with live allocations");
    for (auto& head : avail_) {
      head = nullptr;
    }
    empty_ = nullptr;
    for (size_t i = 1; i < slabs_.size(); ++i) {
      ::operator delete(slabs_[i], std::align_val_t{kSlabBytes});
    }
    if (!slabs_.empty()) {
      slabs_.resize(1);
      empty_ = slabs_[0];
      empty_->next = nullptr;
    }
    ++resets_;
  }

  size_t live() const { return live_; }
  uint64_t allocs() const { return allocs_; }
  uint64_t oversized_allocs() const { return oversized_; }
  uint64_t resets() const { return resets_; }
  // Slabs held (in use or on the shared list), in bytes.
  size_t bytes_reserved() const { return slabs_.size() * kSlabBytes; }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static_assert(sizeof(FreeNode) <= kGranule);

  // Header at the start of every slab; blocks follow it.
  struct Slab {
    FreeNode* free;  // freed blocks of this slab
    Slab* prev;      // neighbours in avail_[cls] (next also links empty_)
    Slab* next;
    uint32_t bump;      // offset of the first never-used block
    uint32_t live;      // blocks handed out and not freed
    uint32_t capacity;  // blocks that fit
    uint32_t cls;
  };
  static constexpr size_t kHeaderBytes = (sizeof(Slab) + kGranule - 1) / kGranule * kGranule;
  static constexpr size_t kClasses = kMaxPooled / kGranule;

  static size_t ClassOf(size_t size) { return (size + kGranule - 1) / kGranule - (size > 0); }
  static size_t BlockBytes(size_t cls) { return (cls + 1) * kGranule; }
  static Slab* SlabOf(void* p) {
    return reinterpret_cast<Slab*>(reinterpret_cast<uintptr_t>(p) & ~(kSlabBytes - 1));
  }

  // Puts `slab` first in its class's list of slabs with room.
  void Link(Slab* slab) {
    Slab*& head = avail_[slab->cls];
    slab->prev = nullptr;
    slab->next = head;
    if (head != nullptr) {
      head->prev = slab;
    }
    head = slab;
  }

  void Unlink(Slab* slab) {
    if (slab->prev != nullptr) {
      slab->prev->next = slab->next;
    } else {
      avail_[slab->cls] = slab->next;
    }
    if (slab->next != nullptr) {
      slab->next->prev = slab->prev;
    }
    slab->prev = slab->next = nullptr;
  }

  // A slab for `cls`: an emptied one from any class, else a fresh one.
  Slab* TakeSlab(size_t cls) {
    Slab* slab = empty_;
    if (slab != nullptr) {
      empty_ = slab->next;
    } else {
      slab = static_cast<Slab*>(::operator new(kSlabBytes, std::align_val_t{kSlabBytes}));
      slabs_.push_back(slab);
    }
    slab->free = nullptr;
    slab->bump = kHeaderBytes;
    slab->live = 0;
    slab->capacity = static_cast<uint32_t>((kSlabBytes - kHeaderBytes) / BlockBytes(cls));
    slab->cls = static_cast<uint32_t>(cls);
    Link(slab);
    return slab;
  }

  Slab* avail_[kClasses] = {};  // per class: slabs with a free or unused block
  Slab* empty_ = nullptr;       // emptied slabs, any class may take
  std::vector<Slab*> slabs_;    // every slab held, for Reset and teardown
  size_t live_ = 0;
  uint64_t allocs_ = 0;
  uint64_t oversized_ = 0;
  uint64_t resets_ = 0;
};

// Owning handle to an arena-allocated object: destroys and recycles the slot
// on destruction. Move-only, two words — small enough to live inline in an
// InlineFn capture, which is how event callbacks carry arena objects without
// leaking them when an event loop is torn down with events still queued.
template <typename T>
class ArenaPtr {
 public:
  ArenaPtr() = default;
  ArenaPtr(Arena& arena, T* p) : arena_(&arena), p_(p) {}
  ArenaPtr(ArenaPtr&& o) noexcept
      : arena_(std::exchange(o.arena_, nullptr)), p_(std::exchange(o.p_, nullptr)) {}
  ArenaPtr& operator=(ArenaPtr&& o) noexcept {
    if (this != &o) {
      Reset();
      arena_ = std::exchange(o.arena_, nullptr);
      p_ = std::exchange(o.p_, nullptr);
    }
    return *this;
  }
  ArenaPtr(const ArenaPtr&) = delete;
  ArenaPtr& operator=(const ArenaPtr&) = delete;
  ~ArenaPtr() { Reset(); }

  T* get() const { return p_; }
  T* operator->() const { return p_; }
  T& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  void Reset() {
    if (p_ != nullptr) {
      arena_->Delete(p_);
      p_ = nullptr;
    }
  }

  Arena* arena_ = nullptr;
  T* p_ = nullptr;
};

template <typename T, typename... A>
ArenaPtr<T> MakeArenaPtr(Arena& arena, A&&... args) {
  return ArenaPtr<T>(arena, arena.New<T>(std::forward<A>(args)...));
}

// Process-wide pool for allocations that are small, frequent, and paired with
// the simulated event that made them — coroutine frames, timed-wait state,
// QoS envelope boxes. Unlike per-loop arenas it is never Reset; steady state
// is pure free-list recycling with no malloc traffic.
inline Arena& GlobalPool() {
  static Arena pool;
  return pool;
}

// Out-of-line GlobalPool() entry points for coroutine frame pooling (see
// arena.cc for why these are not inline).
void* PoolAlloc(size_t size);
void PoolFree(void* p, size_t size) noexcept;

// Minimal std allocator over GlobalPool(), for allocate_shared and friends.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(google-explicit-constructor)
  T* allocate(size_t n) { return static_cast<T*>(GlobalPool().Alloc(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { GlobalPool().Free(p, n * sizeof(T)); }
  bool operator==(const PoolAllocator&) const { return true; }
};

}  // namespace cheetah

#endif  // SRC_COMMON_ARENA_H_
