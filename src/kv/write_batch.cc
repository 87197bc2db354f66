#include "src/kv/write_batch.h"

#include <cstring>

#include "src/common/arena.h"
#include "src/common/coding.h"

namespace cheetah::kv {

WriteBatch::Rep& WriteBatch::Mutable() {
  if (rep_ == nullptr) {
    rep_ = std::allocate_shared<Rep>(PoolAllocator<Rep>());
    rep_->buf.assign(kCountRoom, '\0');
  } else if (rep_.use_count() > 1) {
    rep_ = std::allocate_shared<Rep>(PoolAllocator<Rep>(), *rep_);
  }
  return *rep_;
}

void WriteBatch::Added(Rep& rep) {
  ++rep.count;
  std::string count;
  PutVarint64(&count, rep.count);
  rep.start = kCountRoom - count.size();
  std::memcpy(rep.buf.data() + rep.start, count.data(), count.size());
}

void WriteBatch::Put(std::string_view key, std::string_view value) {
  Rep& rep = Mutable();
  rep.buf.push_back('P');
  PutLengthPrefixed(&rep.buf, key);
  PutLengthPrefixed(&rep.buf, value);
  ++rep.puts;
  rep.key_value_bytes += key.size() + value.size();
  Added(rep);
}

void WriteBatch::Delete(std::string_view key) {
  Rep& rep = Mutable();
  rep.buf.push_back('D');
  PutLengthPrefixed(&rep.buf, key);
  rep.key_value_bytes += key.size();
  Added(rep);
}

std::string_view WriteBatch::payload() const {
  if (rep_ == nullptr) {
    return std::string_view("\0", 1);  // varint 0
  }
  return std::string_view(rep_->buf).substr(rep_->start);
}

WriteBatch::Iterator WriteBatch::begin() const {
  std::string_view rest = payload();
  uint64_t count = 0;
  GetVarint64(&rest, &count);
  return Iterator(rest);
}

void WriteBatch::Iterator::Parse() {
  if (rest_.empty()) {
    op_ = Op();
    return;
  }
  const char tag = rest_.front();
  rest_.remove_prefix(1);
  GetLengthPrefixed(&rest_, &op_.key);
  op_.value.reset();
  if (tag == 'P') {
    std::string_view value;
    GetLengthPrefixed(&rest_, &value);
    op_.value = value;
  }
}

Result<WriteBatch> WriteBatch::Decode(std::string_view payload) {
  WriteBatch batch;
  uint64_t count = 0;
  if (!GetVarint64(&payload, &count)) {
    return Status::Corruption("batch header");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (payload.empty()) {
      return Status::Corruption("batch truncated");
    }
    const char tag = payload.front();
    payload.remove_prefix(1);
    std::string_view key;
    if (!GetLengthPrefixed(&payload, &key)) {
      return Status::Corruption("batch key");
    }
    if (tag == 'P') {
      std::string_view value;
      if (!GetLengthPrefixed(&payload, &value)) {
        return Status::Corruption("batch value");
      }
      batch.Put(key, value);
    } else if (tag == 'D') {
      batch.Delete(key);
    } else {
      return Status::Corruption("batch tag");
    }
  }
  return batch;
}

}  // namespace cheetah::kv
