// An atomic group of puts/deletes. The batch is the unit of WAL logging and
// of crash atomicity: after recovery either every operation of a batch is
// visible or none is. Cheetah relies on this to write the three MetaX KVs of
// a put atomically (Table 1 of the paper).
//
// A batch is its own encoded WAL payload: Put/Delete append to one buffer
// laid out exactly as the WAL record body (varint count, then per op a tag
// byte, the length-prefixed key and, for a put, the length-prefixed value).
// Copies share that buffer through a reference count, so one batch built by
// a MetaX primary backs its own WAL append, every backup's replication
// request and the memtables that pin it. A shared batch is immutable: Put or
// Delete on a copy first gives that copy a buffer of its own.
#ifndef SRC_KV_WRITE_BATCH_H_
#define SRC_KV_WRITE_BATCH_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace cheetah::kv {

class WriteBatch {
 public:
  WriteBatch() = default;

  void Put(std::string_view key, std::string_view value);
  void Delete(std::string_view key);

  bool empty() const { return size() == 0; }
  size_t size() const { return rep_ ? rep_->count : 0; }
  size_t put_count() const { return rep_ ? rep_->puts : 0; }
  size_t delete_count() const { return size() - put_count(); }
  // Sum of every op's key and value sizes.
  uint64_t key_value_bytes() const { return rep_ ? rep_->key_value_bytes : 0; }

  // Approximate bytes this batch adds to the memtable.
  uint64_t ByteSize() const { return key_value_bytes() + 24 * size(); }

  // WAL record payload (without the record header). Valid while this batch
  // or a copy of it lives.
  std::string_view payload() const;

  // Rebuilds the batch `payload` encodes into a buffer of its own;
  // Corruption if it does not parse.
  static Result<WriteBatch> Decode(std::string_view payload);

  // One op, viewing the batch's buffer.
  struct Op {
    std::string_view key;
    std::optional<std::string_view> value;  // nullopt = tombstone
  };

  // Ops in the order they were added.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Op;
    using difference_type = std::ptrdiff_t;
    using pointer = const Op*;
    using reference = const Op&;

    Iterator() = default;
    const Op& operator*() const { return op_; }
    const Op* operator->() const { return &op_; }
    Iterator& operator++() {
      Parse();
      return *this;
    }
    bool operator==(const Iterator& o) const { return op_.key.data() == o.op_.key.data(); }

   private:
    friend class WriteBatch;
    explicit Iterator(std::string_view rest) : rest_(rest) { Parse(); }
    void Parse();

    std::string_view rest_;  // unparsed ops
    Op op_;                  // key.data() == nullptr at the end
  };
  Iterator begin() const;
  Iterator end() const { return Iterator(); }

 private:
  // The varint count is written right-aligned into the buffer's first
  // kCountRoom bytes, so the payload is always the contiguous tail
  // buf[start, end) and adding an op never moves the ops already encoded.
  static constexpr size_t kCountRoom = 10;

  struct Rep {
    std::string buf;
    size_t start = kCountRoom;
    uint32_t count = 0;
    uint32_t puts = 0;
    uint64_t key_value_bytes = 0;
  };

  // The buffer, unshared, ready for one more op.
  Rep& Mutable();
  void Added(Rep& rep);

  std::shared_ptr<Rep> rep_;
};

}  // namespace cheetah::kv

#endif  // SRC_KV_WRITE_BATCH_H_
