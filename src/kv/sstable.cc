#include "src/kv/sstable.h"

#include <cassert>

#include "src/common/coding.h"
#include "src/common/crc32c.h"

namespace cheetah::kv {

namespace {

auto KeyLess = [](const Entry& e, std::string_view k) { return e.key < k; };

size_t EncodedSize(const Entry& e) {
  size_t n = 1 + VarintLength(e.key.size()) + e.key.size();
  if (e.value) {
    n += VarintLength(e.value->size()) + e.value->size();
  }
  return n;
}

// Parses one CRC-verified block body, appending views into it to `index`.
// Returns false (leaving any partially-appended entries removed) if the body
// is malformed.
bool IndexBlockBody(std::string_view body, std::vector<Entry>* index) {
  const size_t restore = index->size();
  uint64_t count = 0;
  if (!GetVarint64(&body, &count)) {
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (body.empty()) {
      index->resize(restore);
      return false;
    }
    const char tag = body.front();
    body.remove_prefix(1);
    Entry e;
    if (!GetLengthPrefixed(&body, &e.key)) {
      index->resize(restore);
      return false;
    }
    if (tag == 'P') {
      std::string_view value;
      if (!GetLengthPrefixed(&body, &value)) {
        index->resize(restore);
        return false;
      }
      e.value = value;
    } else if (tag != 'D') {
      index->resize(restore);
      return false;
    }
    index->push_back(e);
  }
  return true;
}

}  // namespace

TablePtr Table::Build(std::string file_name, std::span<const Entry> entries) {
  std::shared_ptr<Table> t(new Table(std::move(file_name)));
  // A new block starts whenever the accumulated entry payload passes
  // kBlockBytes; every block stays independently decodable. The first pass
  // finds the blocks and the exact file size, so the second writes into a
  // buffer that never moves and can index it as it goes.
  std::vector<size_t> block_ends;  // one past each block's last entry
  size_t total = 0;
  size_t begin = 0;
  size_t body = 0;
  size_t acc = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    body += EncodedSize(entries[i]);
    acc += entries[i].key.size() + (entries[i].value ? entries[i].value->size() : 0) + 8;
    if (acc >= kBlockBytes || i + 1 == entries.size()) {
      total += 12 + VarintLength(i + 1 - begin) + body;
      block_ends.push_back(i + 1);
      begin = i + 1;
      body = 0;
      acc = 0;
    }
  }
  if (entries.empty()) {
    total = 12 + VarintLength(0);
    block_ends.push_back(0);  // one empty block
  }

  std::string out;
  out.reserve(total);
  t->index_.reserve(entries.size());
  begin = 0;
  for (size_t end : block_ends) {
    const size_t header_at = out.size();
    out.append(12, '\0');  // crc | len, filled in once the body is written
    const size_t body_at = out.size();
    PutVarint64(&out, end - begin);
    for (size_t i = begin; i < end; ++i) {
      const Entry& e = entries[i];
      out.push_back(e.value ? 'P' : 'D');
      PutLengthPrefixed(&out, e.key);
      Entry indexed{std::string_view(out).substr(out.size() - e.key.size()), std::nullopt};
      if (e.value) {
        PutLengthPrefixed(&out, *e.value);
        indexed.value = std::string_view(out).substr(out.size() - e.value->size());
      }
      t->index_.push_back(indexed);
    }
    std::string header;
    PutFixed32(&header, Crc32c(std::string_view(out).substr(body_at)));
    PutFixed64(&header, out.size() - body_at);
    out.replace(header_at, header.size(), header);
    begin = end;
  }
  assert(out.size() == total);
  t->blocks_ = block_ends.size();
  // Adopting the buffer keeps its address, except that a string short
  // enough to live inline moves: the index then follows it.
  const char* built_at = out.data();
  t->file_ = Bytes(std::move(out));
  if (t->file_.data() != built_at) {
    for (Entry& e : t->index_) {
      e.key = std::string_view(t->file_.data() + (e.key.data() - built_at), e.key.size());
      if (e.value) {
        e.value = std::string_view(t->file_.data() + (e.value->data() - built_at), e.value->size());
      }
    }
  }
  return t;
}

TablePtr Table::Load(std::string file_name, Bytes file) {
  std::shared_ptr<Table> t(new Table(std::move(file_name)));
  t->file_ = std::move(file);
  std::string_view input = t->file_.view();
  while (!input.empty()) {
    uint32_t crc = 0;
    uint64_t len = 0;
    ++t->blocks_;
    if (!GetFixed32(&input, &crc) || !GetFixed64(&input, &len) || input.size() < len) {
      // Header too mangled to even skip past: the rest of the file is lost.
      ++t->bad_blocks_;
      break;
    }
    std::string_view body = input.substr(0, len);
    input.remove_prefix(len);
    if (Crc32c(body) != crc || !IndexBlockBody(body, &t->index_)) {
      ++t->bad_blocks_;  // skip this block, keep salvaging the next ones
    }
  }
  return t;
}

const Entry* Table::Find(std::string_view key) const {
  auto it = std::lower_bound(index_.begin(), index_.end(), key, KeyLess);
  if (it == index_.end() || it->key != key) {
    return nullptr;
  }
  return &*it;
}

std::span<const Entry> Table::PrefixRange(std::string_view prefix) const {
  auto first = std::lower_bound(index_.begin(), index_.end(), prefix, KeyLess);
  auto last = first;
  while (last != index_.end() && last->key.starts_with(prefix)) {
    ++last;
  }
  return {first, last};
}

}  // namespace cheetah::kv
