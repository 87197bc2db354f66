#include "src/sim/storage.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"

namespace cheetah::sim {

namespace {

// Metadata-only reads return a window of one run of filler bytes, replaced
// by a longer run when a longer read arrives (slices of the old run keep it
// alive), so a read allocates nothing.
Bytes SyntheticContent(uint64_t length) {
  thread_local Bytes filler;
  if (filler.size() < length) {
    filler = Bytes(std::string(std::max<uint64_t>(length, 2 * filler.size()), 'x'));
  }
  return filler.Slice(0, length);
}

}  // namespace

void Storage::RecordIo(const char* what, uint64_t bytes, Nanos done) {
  ops_->Add();
  io_bytes_->Add(bytes);
  auto& tracer = obs::Tracer::Global();
  if (tracer.enabled()) {
    const uint64_t span =
        tracer.Begin(obs::SpanKind::kDisk, what, node_id_, Now(), bytes);
    tracer.End(span, done);
  }
}

Task<Status> Storage::Append(std::string name, std::string data, bool sync) {
  co_await ChargeFileWrite(data.size());
  File& f = files_[name];
  f.data.append(data);
  if (!sync) {
    co_return Status::Ok();
  }
  const uint64_t end = f.data.size();
  co_await ChargeFsync();
  co_return FinishSync(name, end);
}

Task<Status> Storage::WriteFile(std::string name, std::string data, bool sync) {
  co_await ChargeFileWrite(data.size());
  File& f = files_[name];
  f.data = std::move(data);
  f.synced_len = std::min<uint64_t>(f.synced_len, f.data.size());
  if (!sync) {
    co_return Status::Ok();
  }
  const uint64_t end = f.data.size();
  co_await ChargeFsync();
  co_return FinishSync(name, end);
}

Status Storage::FinishSync(const std::string& name, uint64_t len) {
  auto it = files_.find(name);
  if (it == files_.end() || it->second.data.size() < len) {
    return Status::IoError("sync: " + name + " was deleted or cut during the sync");
  }
  it->second.synced_len = it->second.data.size();
  it->second.ever_synced = true;
  return Status::Ok();
}

Task<Result<std::string>> Storage::ReadFile(std::string name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    co_return Status::NotFound("read: no such file " + name);
  }
  co_await ChargeFileRead(it->second.data.size());
  it = files_.find(name);
  if (it == files_.end()) {
    co_return Status::NotFound("read: " + name + " was deleted during the read");
  }
  co_return it->second.data;
}

Task<Result<std::string>> Storage::ReadAt(std::string name, uint64_t offset, uint64_t length) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    co_return Status::NotFound("read: no such file " + name);
  }
  if (offset + length > it->second.data.size()) {
    co_return Status::InvalidArgument("read past end of " + name);
  }
  co_await ChargeFileRead(length);
  it = files_.find(name);
  if (it == files_.end() || offset + length > it->second.data.size()) {
    co_return Status::NotFound("read: " + name + " was deleted or cut during the read");
  }
  co_return it->second.data.substr(offset, length);
}

Status Storage::DeleteFile(const std::string& name) {
  files_.erase(name);
  return Status::Ok();
}

uint64_t Storage::FileSize(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.data.size();
}

std::vector<std::string> Storage::ListFiles(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, file] : files_) {
    if (name.starts_with(prefix)) {
      out.push_back(name);
    }
  }
  return out;
}

Task<Status> Storage::WriteBlocks(std::string volume, uint64_t offset, Bytes data,
                                  uint32_t checksum) {
  const uint64_t length = data.size();
  co_await ChargeWrite(length);
  co_await ChargeFsync();
  Volume& vol = volumes_[volume];
  auto it = vol.extents.find(offset);
  if (it != vol.extents.end()) {
    vol.bytes_used -= it->second.length;
    vol.extents.erase(it);
  }
  // Flaky media: the write acks clean but what lands on the platter differs
  // from what the checksum covers, so later reads/probes reject the extent.
  // Flipping the stored checksum (not recomputing over flipped bytes) models
  // this in both full-content and metadata-only modes. A rewrite always
  // clears a latent sector error (remapped sector).
  Extent ext{store_volume_content_ ? std::move(data) : Bytes(), checksum, length};
  if (gray_.write_corrupt_prob > 0 && fault_rng_.Bernoulli(gray_.write_corrupt_prob)) {
    writes_corrupted_->Add();
    FlipExtent(ext);
  }
  vol.extents.emplace(offset, std::move(ext));
  vol.bytes_used += length;
  co_return Status::Ok();
}

void Storage::FlipExtent(Extent& e) {
  e.checksum ^= 0x5eedbad0u;
  if (!e.data.empty()) {
    std::string flipped = e.data.ToString();
    flipped[0] = static_cast<char>(flipped[0] ^ 0x40);
    e.data = Bytes(std::move(flipped));
  }
}

uint64_t Storage::InjectBitRot(double prob, uint64_t seed) {
  Rng rng(seed ^ 0xb17207ull);
  std::vector<std::string> names;
  names.reserve(volumes_.size());
  for (const auto& [name, vol] : volumes_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  uint64_t hit = 0;
  for (const auto& name : names) {
    for (auto& [offset, extent] : volumes_[name].extents) {
      if (extent.unreadable || !rng.Bernoulli(prob)) {
        continue;
      }
      FlipExtent(extent);
      ++hit;
    }
  }
  bitrot_extents_->Add(hit);
  return hit;
}

uint64_t Storage::InjectLatentSectorErrors(double prob, uint64_t seed) {
  Rng rng(seed ^ 0x15e0ull);
  std::vector<std::string> names;
  names.reserve(volumes_.size());
  for (const auto& [name, vol] : volumes_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  uint64_t hit = 0;
  for (const auto& name : names) {
    for (auto& [offset, extent] : volumes_[name].extents) {
      if (extent.unreadable || !rng.Bernoulli(prob)) {
        continue;
      }
      extent.unreadable = true;
      ++hit;
    }
  }
  lse_extents_->Add(hit);
  return hit;
}

const Storage::Extent* Storage::FindExtent(const std::string& volume, uint64_t offset) const {
  auto vit = volumes_.find(volume);
  if (vit == volumes_.end()) {
    return nullptr;
  }
  auto eit = vit->second.extents.find(offset);
  return eit == vit->second.extents.end() ? nullptr : &eit->second;
}

bool Storage::CorruptExtent(const std::string& volume, uint64_t offset) {
  auto vit = volumes_.find(volume);
  if (vit == volumes_.end()) {
    return false;
  }
  auto eit = vit->second.extents.find(offset);
  if (eit == vit->second.extents.end()) {
    return false;
  }
  FlipExtent(eit->second);
  bitrot_extents_->Add();
  return true;
}

Task<Result<Bytes>> Storage::ReadBlocks(std::string volume, uint64_t offset,
                                        uint64_t length) {
  if (!volumes_.contains(volume)) {
    co_return Status::NotFound("no such volume " + volume);
  }
  const Extent* found = FindExtent(volume, offset);
  if (found == nullptr || found->length != length) {
    co_return Status::NotFound("no extent at requested offset");
  }
  // The extent as the transfer started. A write or discard of this offset
  // during the transfer frees the map node; the read then completes with
  // the blocks it started on, and otherwise with the extent as it stands at
  // completion (damage injected mid-transfer is seen).
  const Extent started = *found;
  co_await ChargeRead(length);
  found = FindExtent(volume, offset);
  const Extent& e = found != nullptr && found->length == length ? *found : started;
  if (e.unreadable) {
    co_return Status::IoError("latent sector error at " + volume + "+" +
                              std::to_string(offset));
  }
  if (!store_volume_content_) {
    co_return SyntheticContent(length);
  }
  co_return e.data;
}

std::optional<uint32_t> Storage::PeekChecksum(const std::string& volume,
                                              uint64_t offset) const {
  const Extent* e = FindExtent(volume, offset);
  if (e == nullptr || e->unreadable) {
    return std::nullopt;
  }
  return e->checksum;
}

std::vector<Storage::ExtentInfo> Storage::ListVolumeExtents(const std::string& volume) const {
  std::vector<ExtentInfo> out;
  auto it = volumes_.find(volume);
  if (it == volumes_.end()) {
    return out;
  }
  out.reserve(it->second.extents.size());
  for (const auto& [offset, extent] : it->second.extents) {
    out.push_back(ExtentInfo{offset, extent.length, extent.checksum});
  }
  return out;
}

Task<Result<uint32_t>> Storage::ProbeChecksum(std::string volume, uint64_t offset) {
  if (!volumes_.contains(volume)) {
    co_return Status::NotFound("no such volume " + volume);
  }
  const Extent* found = FindExtent(volume, offset);
  if (found == nullptr) {
    co_return Status::NotFound("no extent at requested offset");
  }
  const Extent started = *found;  // same rule as ReadBlocks
  co_await ChargeRead(4096);  // checksum probe reads a header, not the payload
  found = FindExtent(volume, offset);
  const Extent& e = found != nullptr ? *found : started;
  if (e.unreadable) {
    co_return Status::IoError("latent sector error at " + volume + "+" +
                              std::to_string(offset));
  }
  co_return e.checksum;
}

void Storage::DiscardBlocks(const std::string& volume, uint64_t offset) {
  auto vit = volumes_.find(volume);
  if (vit == volumes_.end()) {
    return;
  }
  auto eit = vit->second.extents.find(offset);
  if (eit != vit->second.extents.end()) {
    vit->second.bytes_used -= eit->second.length;
    vit->second.extents.erase(eit);
  }
}

uint64_t Storage::VolumeBytesUsed(const std::string& volume) const {
  auto it = volumes_.find(volume);
  return it == volumes_.end() ? 0 : it->second.bytes_used;
}

void Storage::PowerLoss() {
  for (auto it = files_.begin(); it != files_.end();) {
    File& f = it->second;
    if (!f.ever_synced) {
      it = files_.erase(it);
      continue;
    }
    f.data.resize(f.synced_len);
    ++it;
  }
}

void Storage::DestroyMedia() {
  files_.clear();
  volumes_.clear();
}

uint64_t Storage::TotalFileBytes() const {
  uint64_t total = 0;
  for (const auto& [name, f] : files_) {
    total += f.data.size();
  }
  return total;
}

}  // namespace cheetah::sim
