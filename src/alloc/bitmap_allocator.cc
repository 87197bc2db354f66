#include "src/alloc/bitmap_allocator.h"

#include <algorithm>
#include <cassert>

#include "src/common/coding.h"

namespace cheetah::alloc {

namespace {
constexpr uint64_t kWordBits = 64;
}

BitmapAllocator::BitmapAllocator(uint64_t total_blocks, uint32_t block_size)
    : total_blocks_(total_blocks),
      block_size_(block_size),
      free_blocks_(total_blocks),
      bits_((total_blocks + kWordBits - 1) / kWordBits, 0) {
  assert(block_size > 0 && total_blocks > 0);
}

bool BitmapAllocator::IsAllocated(uint64_t block) const {
  assert(block < total_blocks_);
  return (bits_[block / kWordBits] >> (block % kWordBits)) & 1;
}

void BitmapAllocator::SetRange(uint64_t start, uint64_t count, bool used) {
  for (uint64_t b = start; b < start + count; ++b) {
    const uint64_t word = b / kWordBits;
    const uint64_t mask = 1ull << (b % kWordBits);
    const bool was_used = bits_[word] & mask;
    if (used && !was_used) {
      bits_[word] |= mask;
      --free_blocks_;
    } else if (!used && was_used) {
      bits_[word] &= ~mask;
      ++free_blocks_;
    }
  }
}

uint64_t BitmapAllocator::FindRun(uint64_t want) const {
  // Two passes: from the cursor to the end, then from 0 to the cursor.
  auto scan = [&](uint64_t from, uint64_t to) -> uint64_t {
    uint64_t run = 0;
    uint64_t run_start = from;
    for (uint64_t b = from; b < to; ++b) {
      if (IsAllocated(b)) {
        run = 0;
        run_start = b + 1;
      } else if (++run >= want) {
        return run_start;
      }
    }
    return total_blocks_;
  };
  uint64_t found = scan(cursor_, total_blocks_);
  if (found == total_blocks_ && cursor_ > 0) {
    found = scan(0, std::min(cursor_ + want, total_blocks_));
  }
  return found;
}

Result<std::vector<Extent>> BitmapAllocator::Allocate(uint64_t bytes) {
  const uint64_t want = BlocksFor(bytes);
  if (want == 0) {
    return Status::InvalidArgument("zero-byte allocation");
  }
  if (want > free_blocks_) {
    return Status::ResourceExhausted("volume full");
  }
  std::vector<Extent> extents;
  // Fast path: one contiguous run.
  uint64_t start = FindRun(want);
  if (start != total_blocks_) {
    SetRange(start, want, true);
    cursor_ = (start + want) % total_blocks_;
    extents.emplace_back(start, want);
    return extents;
  }
  // Fragmented path: greedily take free runs.
  uint64_t remaining = want;
  uint64_t run_start = 0;
  uint64_t run = 0;
  for (uint64_t b = 0; b < total_blocks_ && remaining > 0; ++b) {
    if (IsAllocated(b)) {
      if (run > 0) {
        const uint64_t take = std::min(run, remaining);
        extents.emplace_back(run_start, take);
        remaining -= take;
      }
      run = 0;
    } else {
      if (run == 0) {
        run_start = b;
      }
      ++run;
    }
  }
  if (remaining > 0 && run > 0) {
    const uint64_t take = std::min(run, remaining);
    extents.emplace_back(run_start, take);
    remaining -= take;
  }
  if (remaining > 0) {
    return Status::ResourceExhausted("volume full (fragmented)");
  }
  for (const Extent& e : extents) {
    SetRange(e.block, e.count, true);
  }
  if (!extents.empty()) {
    cursor_ = (extents.back().block + extents.back().count) % total_blocks_;
  }
  return extents;
}

void BitmapAllocator::Free(const std::vector<Extent>& extents) {
  for (const Extent& e : extents) {
    SetRange(e.block, e.count, false);
  }
}

void BitmapAllocator::MarkAllocated(const std::vector<Extent>& extents) {
  for (const Extent& e : extents) {
    SetRange(e.block, e.count, true);
  }
}

double BitmapAllocator::Fragmentation() const {
  if (free_blocks_ == 0) {
    return 0.0;
  }
  uint64_t largest = 0;
  uint64_t run = 0;
  for (uint64_t b = 0; b < total_blocks_; ++b) {
    if (IsAllocated(b)) {
      run = 0;
    } else {
      largest = std::max(largest, ++run);
    }
  }
  return 1.0 - static_cast<double>(largest) / static_cast<double>(free_blocks_);
}

std::string BitmapAllocator::Serialize() const {
  // Sized once, then every word encoded in place: the file plane keeps this
  // string as written, so spare capacity would sit in memory with it.
  const size_t header = VarintLength(total_blocks_) + VarintLength(block_size_);
  std::string out;
  out.reserve(header + bits_.size() * 8);
  PutVarint64(&out, total_blocks_);
  PutVarint64(&out, block_size_);
  out.resize(header + bits_.size() * 8);
  char* p = out.data() + header;
  for (uint64_t word : bits_) {
    EncodeFixed64(p, word);
    p += 8;
  }
  return out;
}

Result<BitmapAllocator> BitmapAllocator::Deserialize(std::string_view data) {
  uint64_t total = 0, bs = 0;
  if (!GetVarint64(&data, &total) || !GetVarint64(&data, &bs) || bs == 0 || total == 0) {
    return Status::Corruption("bitmap header");
  }
  BitmapAllocator alloc(total, static_cast<uint32_t>(bs));
  const uint64_t words = alloc.bits_.size();
  if (data.size() < words * 8) {
    return Status::Corruption("bitmap truncated");
  }
  uint64_t used = 0;
  const char* p = data.data();
  for (uint64_t& word : alloc.bits_) {
    word = DecodeFixed64(p);
    p += 8;
    used += static_cast<uint64_t>(__builtin_popcountll(word));
  }
  alloc.free_blocks_ = total - used;
  return alloc;
}

}  // namespace cheetah::alloc
