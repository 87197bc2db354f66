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
      pages_((total_blocks + kPageBlocks - 1) / kPageBlocks) {
  assert(block_size > 0 && total_blocks > 0);
}

bool BitmapAllocator::IsAllocated(uint64_t block) const {
  assert(block < total_blocks_);
  const Page* page = pages_[block / kPageBlocks].get();
  return page != nullptr &&
         ((page->words[block % kPageBlocks / kWordBits] >> (block % kWordBits)) & 1);
}

size_t BitmapAllocator::resident_pages() const {
  return static_cast<size_t>(
      std::count_if(pages_.begin(), pages_.end(), [](const auto& p) { return p != nullptr; }));
}

uint64_t BitmapAllocator::Next(uint64_t from, uint64_t to, bool used) const {
  uint64_t b = from;
  while (b < to) {
    const Page* page = pages_[b / kPageBlocks].get();
    const uint64_t page_end = std::min(to, (b / kPageBlocks + 1) * kPageBlocks);
    if (page == nullptr) {
      if (!used) {
        return b;
      }
      b = page_end;  // an absent page has no used block
      continue;
    }
    while (b < page_end) {
      const uint64_t word = page->words[b % kPageBlocks / kWordBits];
      const uint64_t hits = (used ? word : ~word) >> (b % kWordBits);
      if (hits != 0) {
        return std::min(to, b + static_cast<uint64_t>(__builtin_ctzll(hits)));
      }
      b = (b / kWordBits + 1) * kWordBits;
    }
  }
  return to;
}

void BitmapAllocator::SetRange(uint64_t start, uint64_t count, bool used) {
  const uint64_t end = start + count;
  assert(end <= pages_.size() * kPageBlocks);
  for (uint64_t b = start; b < end;) {
    std::unique_ptr<Page>& page = pages_[b / kPageBlocks];
    const uint64_t page_end = std::min(end, (b / kPageBlocks + 1) * kPageBlocks);
    if (page == nullptr) {
      if (!used) {
        b = page_end;  // already free
        continue;
      }
      page = std::make_unique<Page>();
    }
    for (; b < page_end; b = (b / kWordBits + 1) * kWordBits) {
      const uint64_t shift = b % kWordBits;
      const uint64_t n = std::min(kWordBits - shift, page_end - b);
      const uint64_t mask = (n == kWordBits ? ~0ull : (1ull << n) - 1) << shift;
      uint64_t& word = page->words[b % kPageBlocks / kWordBits];
      const uint64_t flips = mask & (used ? ~word : word);
      const auto changed = static_cast<uint64_t>(__builtin_popcountll(flips));
      word ^= flips;
      if (used) {
        page->used += changed;
        free_blocks_ -= changed;
      } else {
        page->used -= changed;
        free_blocks_ += changed;
      }
    }
    if (page->used == 0) {
      page.reset();
    }
    b = page_end;
  }
}

uint64_t BitmapAllocator::FindRun(uint64_t want) const {
  // Two passes: from the cursor to the end, then from 0 to the cursor.
  // A run only has to reach `want` blocks, so the search for its end stops
  // there.
  auto scan = [&](uint64_t from, uint64_t to) -> uint64_t {
    for (uint64_t b = Next(from, to, false); b < to;) {
      const uint64_t run_end = Next(b, std::min(to, b + want), true);
      if (run_end - b >= want) {
        return b;
      }
      b = Next(run_end, to, false);
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
  // Fragmented path: greedily take free runs from the start of the volume.
  uint64_t remaining = want;
  for (uint64_t b = Next(0, total_blocks_, false); b < total_blocks_ && remaining > 0;) {
    const uint64_t run_end = Next(b, total_blocks_, true);
    const uint64_t take = std::min(run_end - b, remaining);
    extents.emplace_back(b, take);
    remaining -= take;
    b = Next(run_end, total_blocks_, false);
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
  for (uint64_t b = Next(0, total_blocks_, false); b < total_blocks_;) {
    const uint64_t run_end = Next(b, total_blocks_, true);
    largest = std::max(largest, run_end - b);
    b = Next(run_end, total_blocks_, false);
  }
  return 1.0 - static_cast<double>(largest) / static_cast<double>(free_blocks_);
}

uint64_t BitmapAllocator::SerializedSize() const {
  const uint64_t words = (total_blocks_ + kWordBits - 1) / kWordBits;
  return VarintLength(total_blocks_) + VarintLength(block_size_) + words * 8;
}

std::string BitmapAllocator::Serialize() const {
  // The flat bitmap's bytes: zeros, with the resident pages' words encoded
  // over them.
  const uint64_t words = (total_blocks_ + kWordBits - 1) / kWordBits;
  const size_t header = VarintLength(total_blocks_) + VarintLength(block_size_);
  const uint64_t size = SerializedSize();
  std::string out;
  out.reserve(size);
  PutVarint64(&out, total_blocks_);
  PutVarint64(&out, block_size_);
  out.resize(size);
  for (size_t i = 0; i < pages_.size(); ++i) {
    if (pages_[i] == nullptr) {
      continue;
    }
    const uint64_t first = i * kPageWords;
    char* p = out.data() + header + first * 8;
    for (uint64_t w = first; w < std::min(words, first + kPageWords); ++w, p += 8) {
      EncodeFixed64(p, pages_[i]->words[w - first]);
    }
  }
  return out;
}

Result<BitmapAllocator> BitmapAllocator::Deserialize(std::string_view data) {
  uint64_t total = 0, bs = 0;
  if (!GetVarint64(&data, &total) || !GetVarint64(&data, &bs) || bs == 0 || total == 0) {
    return Status::Corruption("bitmap header");
  }
  BitmapAllocator alloc(total, static_cast<uint32_t>(bs));
  const uint64_t words = (total + kWordBits - 1) / kWordBits;
  if (data.size() < words * 8) {
    return Status::Corruption("bitmap truncated");
  }
  for (uint64_t w = 0; w < words; ++w) {
    const uint64_t word = DecodeFixed64(data.data() + w * 8);
    if (word == 0) {
      continue;
    }
    std::unique_ptr<Page>& page = alloc.pages_[w / kPageWords];
    if (page == nullptr) {
      page = std::make_unique<Page>();
    }
    page->words[w % kPageWords] = word;
    const auto used = static_cast<uint64_t>(__builtin_popcountll(word));
    page->used += used;
    alloc.free_blocks_ -= used;
  }
  return alloc;
}

}  // namespace cheetah::alloc
