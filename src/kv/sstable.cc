#include "src/kv/sstable.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/common/coding.h"
#include "src/common/crc32c.h"

namespace cheetah::kv {

namespace {

constexpr uint64_t kMaxOffset = std::numeric_limits<uint32_t>::max();

size_t EncodedSize(const Entry& e) {
  size_t n = 1 + VarintLength(e.key.size()) + e.key.size();
  if (e.value) {
    n += VarintLength(e.value->size()) + e.value->size();
  }
  return n;
}

// Decodes the entry at the front of `*in` (tag byte, length-prefixed key,
// and for a 'P' entry a length-prefixed value) and moves `*in` past it.
// Returns false if the entry is malformed.
bool DecodeEntry(std::string_view* in, Entry* e) {
  if (in->empty()) {
    return false;
  }
  const char tag = in->front();
  in->remove_prefix(1);
  if (!GetLengthPrefixed(in, &e->key)) {
    return false;
  }
  if (tag == 'D') {
    e->value.reset();
    return true;
  }
  return tag == 'P' && GetLengthPrefixed(in, &e->value.emplace());
}

// Parses one CRC-verified block body of the file at `base`, appending each
// entry's file offset to `index`. Returns false (leaving any
// partially-appended entries removed) if the body is malformed, or lies
// past what a 4-byte offset reaches.
bool IndexBlockBody(const char* base, std::string_view body, std::vector<uint32_t>* index) {
  const size_t restore = index->size();
  uint64_t count = 0;
  if (!GetVarint64(&body, &count)) {
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    const char* at = body.data();
    Entry e;
    if (static_cast<uint64_t>(at - base) > kMaxOffset || !DecodeEntry(&body, &e)) {
      index->resize(restore);
      return false;
    }
    index->push_back(static_cast<uint32_t>(at - base));
  }
  return true;
}

}  // namespace

Table::Builder::Builder(std::string file_name) : table_(new Table(std::move(file_name))) {}

// A new block starts whenever the accumulated entry payload passes
// kBlockBytes; every block stays independently decodable.
void Table::Builder::Plan(const Entry& e) {
  ++entries_;
  ++open_count_;
  open_body_ += EncodedSize(e);
  open_payload_ += e.key.size() + (e.value ? e.value->size() : 0) + 8;
  if (open_payload_ >= kBlockBytes) {
    CutBlock();
  }
}

void Table::Builder::CutBlock() {
  total_ += 12 + VarintLength(open_count_) + open_body_;
  block_counts_.push_back(open_count_);
  open_count_ = 0;
  open_body_ = 0;
  open_payload_ = 0;
}

void Table::Builder::Reserve() {
  if (open_count_ > 0 || block_counts_.empty()) {
    CutBlock();  // the last block, or an empty table's one empty block
  }
  if (total_ > kMaxOffset) {
    // Checked in every build: index entries are 4-byte file offsets.
    std::fprintf(stderr, "kv::Table: %llu-byte table exceeds 4 GiB\n",
                 static_cast<unsigned long long>(total_));
    std::abort();
  }
  out_.reserve(total_);
  table_->index_.reserve(entries_);
}

void Table::Builder::Add(const Entry& e) {
  assert(block_ < block_counts_.size());
  if (open_count_ == 0) {
    OpenBlock();
  }
  table_->index_.push_back(static_cast<uint32_t>(out_.size()));
  out_.push_back(e.value ? 'P' : 'D');
  PutLengthPrefixed(&out_, e.key);
  if (e.value) {
    PutLengthPrefixed(&out_, *e.value);
  }
  if (++open_count_ == block_counts_[block_]) {
    CloseBlock();
  }
}

void Table::Builder::OpenBlock() {
  header_at_ = out_.size();
  out_.append(12, '\0');  // crc | len, filled in once the body is written
  PutVarint64(&out_, block_counts_[block_]);
}

void Table::Builder::CloseBlock() {
  const size_t body_at = header_at_ + 12;
  EncodeFixed32(out_.data() + header_at_, Crc32c(std::string_view(out_).substr(body_at)));
  EncodeFixed64(out_.data() + header_at_ + 4, out_.size() - body_at);
  ++block_;
  open_count_ = 0;
}

TablePtr Table::Builder::Finish() {
  if (entries_ == 0) {
    OpenBlock();
    CloseBlock();
  }
  assert(block_ == block_counts_.size() && out_.size() == total_);
  table_->blocks_ = block_counts_.size();
  table_->file_ = Bytes(std::move(out_));
  table_->SetBounds();
  return std::move(table_);
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
    if (Crc32c(body) != crc || !IndexBlockBody(t->file_.data(), body, &t->index_)) {
      ++t->bad_blocks_;  // skip this block, keep salvaging the next ones
    }
  }
  t->SetBounds();
  return t;
}

// Build and Load index only entries that parse, so decoding cannot fail.
std::string_view Table::KeyAt(uint32_t offset) const {
  return EntryAt(offset).key;
}

Entry Table::EntryAt(uint32_t offset) const {
  std::string_view in = file_.view().substr(offset);
  Entry e;
  DecodeEntry(&in, &e);
  return e;
}

Entry Table::At(size_t i) const { return EntryAt(index_[i]); }

void Table::SetBounds() {
  if (!index_.empty()) {
    first_key_ = KeyAt(index_.front());
    last_key_ = KeyAt(index_.back());
  }
}

size_t Table::LowerBound(std::string_view key) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [this](uint32_t offset, std::string_view k) { return KeyAt(offset) < k; });
  return it - index_.begin();
}

std::optional<Entry> Table::Find(std::string_view key) const {
  const size_t i = LowerBound(key);
  if (i == index_.size() || KeyAt(index_[i]) != key) {
    return std::nullopt;
  }
  return At(i);
}

RunView Table::PrefixRange(std::string_view prefix) const {
  const size_t first = LowerBound(prefix);
  size_t last = first;
  while (last != index_.size() && KeyAt(index_[last]).starts_with(prefix)) {
    ++last;
  }
  return RunView(*this, first, last);
}

}  // namespace cheetah::kv
