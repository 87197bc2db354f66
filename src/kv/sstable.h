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
// In memory a table is its encoded file plus an index of 4-byte file
// offsets, one per entry in key order; an entry's tag, key and value are
// decoded from the file when read, so no key or value is copied out of the
// buffer and the index costs 4 bytes an entry. The index is built while
// encoding (Build) or parsing (Load). The file is a refcounted Bytes
// buffer, the same one the simulated disk stores for the table's file: a
// flush or compaction writes the handle, and Open loads the handle it
// reads. Disk reads are *charged* to the simulated device when the table is
// consulted, which is what the experiments measure.
#ifndef SRC_KV_SSTABLE_H_
#define SRC_KV_SSTABLE_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
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

// A sorted run without duplicate keys, read by position: a span of entries
// (a memtable snapshot) or a range of a table's index, whose entries are
// decoded on access. Valid while the viewed entries or table are.
class RunView {
 public:
  RunView(std::span<const Entry> entries)  // NOLINT(google-explicit-constructor)
      : entries_(entries.data()), size_(entries.size()) {}
  RunView(const Table& table, size_t begin, size_t end)
      : table_(&table), begin_(begin), size_(end - begin) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Entry operator[](size_t i) const;

 private:
  const Entry* entries_ = nullptr;
  const Table* table_ = nullptr;
  size_t begin_ = 0;
  size_t size_ = 0;
};

class Table {
 public:
  // Encode targets ~kBlockBytes of entry payload per block so one damaged
  // block loses a bounded key range.
  static constexpr size_t kBlockBytes = 4096;

  // Encodes a sorted run (by key, no duplicates) into a new table by
  // streaming it twice: produce(emit) must call emit(const Entry&) once per
  // entry, in order, and yield the same run on both calls. The first pass
  // cuts blocks and sizes the file, the second writes it into a buffer
  // reserved to that size. The table owns its bytes, so the entries may
  // view any buffer that outlives the call.
  template <typename Produce>
    requires std::invocable<Produce&, void (*)(const Entry&)>
  static TablePtr Build(std::string file_name, Produce&& produce);
  // The same, for a run already in memory.
  static TablePtr Build(std::string file_name, std::span<const Entry> entries) {
    return Build(std::move(file_name), [entries](auto&& emit) {
      for (const Entry& e : entries) {
        emit(e);
      }
    });
  }

  // Salvaging load of a table file: indexes every block whose CRC verifies
  // and skips damaged ones. blocks()/bad_blocks() report what was lost so
  // recovery can tell a clean load from a partial salvage. A block header
  // too mangled to skip past loses the rest of the file (counted as one bad
  // block).
  static TablePtr Load(std::string file_name, Bytes file);

  const std::string& file_name() const { return file_name_; }
  // The encoded file.
  const Bytes& file() const { return file_; }
  RunView entries() const { return RunView(*this, 0, index_.size()); }
  uint64_t blocks() const { return blocks_; }
  uint64_t bad_blocks() const { return bad_blocks_; }

  // The i-th entry in key order, decoded from the file.
  Entry At(size_t i) const;

  bool MayContain(std::string_view key) const {
    return !index_.empty() && key >= first_key_ && key <= last_key_;
  }

  // Returns the entry (possibly a tombstone) or nullopt if absent.
  std::optional<Entry> Find(std::string_view key) const;

  // All entries whose key starts with `prefix`, in order.
  RunView PrefixRange(std::string_view prefix) const;

 private:
  // The two passes behind Build: Plan sees every entry and cuts blocks,
  // Reserve sizes the buffer, Add encodes and indexes every entry again,
  // Finish hands over the table.
  class Builder {
   public:
    explicit Builder(std::string file_name);
    void Plan(const Entry& e);
    void Reserve();
    void Add(const Entry& e);
    TablePtr Finish();

   private:
    void CutBlock();
    void OpenBlock();
    void CloseBlock();

    std::shared_ptr<Table> table_;
    std::string out_;
    std::vector<uint64_t> block_counts_;  // entries per block
    uint64_t entries_ = 0;
    uint64_t total_ = 0;  // file bytes of the blocks cut so far
    uint64_t open_count_ = 0;  // the open block's entries
    uint64_t open_body_ = 0;   // and their encoded bytes
    uint64_t open_payload_ = 0;  // and their payload, against kBlockBytes
    size_t block_ = 0;  // the block Add is writing
    size_t header_at_ = 0;
  };

  explicit Table(std::string file_name) : file_name_(std::move(file_name)) {}

  // The entry whose tag byte is at `offset`, and its key.
  Entry EntryAt(uint32_t offset) const;
  std::string_view KeyAt(uint32_t offset) const;
  // The position of the first entry whose key is not below `key`.
  size_t LowerBound(std::string_view key) const;
  // Records the first and last keys for MayContain.
  void SetBounds();

  std::string file_name_;
  Bytes file_;
  std::vector<uint32_t> index_;  // file offset of each entry's tag byte
  std::string_view first_key_;   // views into file_
  std::string_view last_key_;
  uint64_t blocks_ = 0;
  uint64_t bad_blocks_ = 0;
};

template <typename Produce>
  requires std::invocable<Produce&, void (*)(const Entry&)>
TablePtr Table::Build(std::string file_name, Produce&& produce) {
  Builder builder(std::move(file_name));
  produce([&builder](const Entry& e) { builder.Plan(e); });
  builder.Reserve();
  produce([&builder](const Entry& e) { builder.Add(e); });
  return builder.Finish();
}

inline Entry RunView::operator[](size_t i) const {
  return table_ != nullptr ? table_->At(begin_ + i) : entries_[i];
}

// Newest-wins k-way merge of sorted runs without duplicate keys, runs[0]
// the newest. Calls emit(entry) once per distinct key, in key order, with
// the newest run's entry for it (tombstones included). Compaction, Scan and
// CountLiveEntries all read the LSM tree through this.
template <typename Emit>
void MergeRuns(std::span<const RunView> runs, Emit&& emit) {
  struct Cursor {
    Entry entry;  // runs[run][at]
    size_t at;
    size_t run;
  };
  // Heap order: smallest key on top, and of equal keys the newest run.
  auto after = [](const Cursor& a, const Cursor& b) {
    const int c = a.entry.key.compare(b.entry.key);
    return c != 0 ? c > 0 : a.run > b.run;
  };
  std::vector<Cursor> heap;
  heap.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].empty()) {
      heap.push_back(Cursor{runs[i][0], 0, i});
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);
  // Moves the top cursor past its entry.
  auto advance_top = [&heap, &after, runs] {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& c = heap.back();
    if (++c.at == runs[c.run].size()) {
      heap.pop_back();
    } else {
      c.entry = runs[c.run][c.at];
      std::push_heap(heap.begin(), heap.end(), after);
    }
  };
  while (!heap.empty()) {
    const Entry newest = heap.front().entry;
    emit(newest);
    advance_top();
    while (!heap.empty() && heap.front().entry.key == newest.key) {
      advance_top();  // an older version of the same key
    }
  }
}

}  // namespace cheetah::kv

#endif  // SRC_KV_SSTABLE_H_
