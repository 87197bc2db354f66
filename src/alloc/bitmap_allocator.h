// Bitmap block allocator in the style of Ceph BlueStore's Allocator (the
// paper adopts it for Cheetah's raw data storage, §4.3.1).
//
// One bit per fixed-size block. Allocation returns a list of extents
// (offset, length in blocks) satisfying the request, preferring a single
// contiguous extent and falling back to fragments; freeing clears bits so the
// space is immediately reusable — the property behind Cheetah's
// compaction-free delete (§4.3.3).
//
// The bitmap serializes to a compact byte string so meta servers can persist
// it and resynchronize the in-memory copy after PG-log cleaning (§5.2).
//
// In memory the bitmap is split into 4 KiB pages, and a page exists only
// while one of its bits is set: an absent page reads as all-free, and scans
// step over it in one move. A volume therefore costs host memory in
// proportion to its used blocks, not its capacity (an empty 8 GiB volume
// of 4 KiB blocks is 64 page pointers, not a 256 KiB bitmap). Allocation
// choices and the serialized bytes are those of one flat bitmap.
#ifndef SRC_ALLOC_BITMAP_ALLOCATOR_H_
#define SRC_ALLOC_BITMAP_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace cheetah::alloc {

struct Extent {
  Extent() = default;
  Extent(uint64_t block, uint64_t count) : block(block), count(count) {}
  uint64_t block = 0;  // first block index
  uint64_t count = 0;  // number of blocks

  friend bool operator==(const Extent&, const Extent&) = default;
};

class BitmapAllocator {
 public:
  BitmapAllocator(uint64_t total_blocks, uint32_t block_size);

  uint64_t total_blocks() const { return total_blocks_; }
  uint32_t block_size() const { return block_size_; }
  uint64_t free_blocks() const { return free_blocks_; }
  uint64_t used_blocks() const { return total_blocks_ - free_blocks_; }
  double Fragmentation() const;  // 1 - (largest free run / free blocks)

  // Allocates `bytes` worth of blocks. Returns kResourceExhausted when the
  // volume cannot satisfy the request even fragmented.
  Result<std::vector<Extent>> Allocate(uint64_t bytes);

  // Clears the extents' bits (idempotent for already-free blocks).
  void Free(const std::vector<Extent>& extents);

  // Marks blocks used (recovery: replaying extents recorded in MetaX).
  void MarkAllocated(const std::vector<Extent>& extents);

  bool IsAllocated(uint64_t block) const;

  // Bitmap pages held in memory (each covers kPageBlocks blocks).
  size_t resident_pages() const;

  // Persistence.
  std::string Serialize() const;
  // Serialize().size(), without building the string.
  uint64_t SerializedSize() const;
  static Result<BitmapAllocator> Deserialize(std::string_view data);

  static constexpr uint64_t kPageWords = 512;  // 4 KiB
  static constexpr uint64_t kPageBlocks = kPageWords * 64;

 private:
  struct Page {
    std::array<uint64_t, kPageWords> words{};  // 1 = used
    uint64_t used = 0;  // set bits; the page is released when this drops to 0
  };

  uint64_t BlocksFor(uint64_t bytes) const {
    return (bytes + block_size_ - 1) / block_size_;
  }
  // Finds the first free run of exactly-or-more `want` blocks starting the
  // search at cursor_; returns run start or total_blocks_ if none.
  uint64_t FindRun(uint64_t want) const;
  // The first block in [from, to) whose state is `used`, or `to` if there
  // is none. Every scan walks the free runs with this.
  uint64_t Next(uint64_t from, uint64_t to, bool used) const;
  void SetRange(uint64_t start, uint64_t count, bool used);

  uint64_t total_blocks_;
  uint32_t block_size_;
  uint64_t free_blocks_;
  uint64_t cursor_ = 0;  // rotating search start to spread allocations
  std::vector<std::unique_ptr<Page>> pages_;  // null = every block free
};

}  // namespace cheetah::alloc

#endif  // SRC_ALLOC_BITMAP_ALLOCATOR_H_
