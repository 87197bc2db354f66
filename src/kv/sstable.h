// Sorted string table: the immutable on-disk unit of the LSM tree.
//
// The file is a sequence of self-contained blocks, each framed as
// crc32(body) | fixed64 len | body, where a body is a varint entry count
// followed by (tag, key[, value]) entries. Per-block CRCs localize media
// damage: a load skips a bad block by its declared length and salvages
// every other block, instead of discarding the whole table on one flipped
// bit. A legacy single-block file is exactly a one-block sequence, so old
// tables parse unchanged.
//
// In memory a table is its encoded file plus a sorted index of views into
// it; the index is built while encoding (Build) or parsing (Load), and no
// key or value is copied out of the buffer. The file is a refcounted Bytes
// buffer, the same one the simulated disk stores for the table's file: a
// flush or compaction writes the handle, and Open loads the handle it
// reads. Disk reads are *charged* to the simulated device when the table is
// consulted, which is what the experiments measure.
#ifndef SRC_KV_SSTABLE_H_
#define SRC_KV_SSTABLE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"

namespace cheetah::kv {

// One key's state in a sorted run (a memtable snapshot, a table's index or
// a merge's output). The views point into whatever buffer holds the run.
struct Entry {
  std::string_view key;
  std::optional<std::string_view> value;  // nullopt = tombstone
};

class Table;
using TablePtr = std::shared_ptr<const Table>;

class Table {
 public:
  // Encode targets ~kBlockBytes of entry payload per block so one damaged
  // block loses a bounded key range.
  static constexpr size_t kBlockBytes = 4096;

  // Encodes `entries` (sorted by key, no duplicates) into a new table. The
  // table owns its bytes, so `entries` may view any buffer.
  static TablePtr Build(std::string file_name, std::span<const Entry> entries);

  // Salvaging load of a table file: indexes every block whose CRC verifies
  // and skips damaged ones. blocks()/bad_blocks() report what was lost so
  // recovery can tell a clean load from a partial salvage. A block header
  // too mangled to skip past loses the rest of the file (counted as one bad
  // block).
  static TablePtr Load(std::string file_name, Bytes file);

  const std::string& file_name() const { return file_name_; }
  // The encoded file.
  const Bytes& file() const { return file_; }
  std::span<const Entry> entries() const { return index_; }
  uint64_t blocks() const { return blocks_; }
  uint64_t bad_blocks() const { return bad_blocks_; }

  bool MayContain(std::string_view key) const {
    return !index_.empty() && key >= index_.front().key && key <= index_.back().key;
  }

  // Returns the entry (possibly a tombstone) or nullptr if absent.
  const Entry* Find(std::string_view key) const;

  // All entries whose key starts with `prefix`, in order.
  std::span<const Entry> PrefixRange(std::string_view prefix) const;

 private:
  explicit Table(std::string file_name) : file_name_(std::move(file_name)) {}

  std::string file_name_;
  Bytes file_;
  std::vector<Entry> index_;  // views into file_
  uint64_t blocks_ = 0;
  uint64_t bad_blocks_ = 0;
};

// Newest-wins k-way merge of sorted runs without duplicate keys, runs[0]
// the newest. Calls emit(entry) once per distinct key, in key order, with
// the newest run's entry for it (tombstones included). Compaction, Scan and
// CountLiveEntries all read the LSM tree through this.
template <typename Emit>
void MergeRuns(std::span<const std::span<const Entry>> runs, Emit&& emit) {
  struct Cursor {
    const Entry* at;
    const Entry* end;
    size_t run;
  };
  // Heap order: smallest key on top, and of equal keys the newest run.
  auto after = [](const Cursor& a, const Cursor& b) {
    const int c = a.at->key.compare(b.at->key);
    return c != 0 ? c > 0 : a.run > b.run;
  };
  std::vector<Cursor> heap;
  heap.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].empty()) {
      heap.push_back(Cursor{runs[i].data(), runs[i].data() + runs[i].size(), i});
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);
  // Moves the top cursor past its entry.
  auto advance_top = [&heap, &after] {
    std::pop_heap(heap.begin(), heap.end(), after);
    if (++heap.back().at == heap.back().end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), after);
    }
  };
  while (!heap.empty()) {
    const Entry& newest = *heap.front().at;
    emit(newest);
    advance_top();
    while (!heap.empty() && heap.front().at->key == newest.key) {
      advance_top();  // an older version of the same key
    }
  }
}

}  // namespace cheetah::kv

#endif  // SRC_KV_SSTABLE_H_
