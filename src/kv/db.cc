#include "src/kv/db.h"

#include <algorithm>
#include <cassert>

#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"
#include "src/sim/actor.h"

namespace cheetah::kv {

namespace {

// WAL record framing: crc32(payload) | fixed64 length | payload.
std::string FrameWalRecord(const std::string& payload) {
  std::string out;
  PutFixed32(&out, Crc32c(payload));
  PutFixed64(&out, payload.size());
  out += payload;
  return out;
}

}  // namespace

std::string DB::WalName(uint64_t seq) const {
  return options_.name + ".wal_" + std::to_string(seq);
}

std::string DB::SstName(uint64_t file_no) const {
  return options_.name + ".sst_" + std::to_string(file_no);
}

std::string DB::EncodeManifest() const {
  std::string body;
  PutVarint64(&body, next_file_no_);
  PutVarint64(&body, l0_.size());
  for (const auto& t : l0_) {
    PutLengthPrefixed(&body, t->file_name());
  }
  PutVarint64(&body, l1_.size());
  for (const auto& t : l1_) {
    PutLengthPrefixed(&body, t->file_name());
  }
  std::string out;
  PutFixed32(&out, Crc32c(body));
  out += body;
  return out;
}

Status DB::ApplyManifest(std::string_view data) {
  uint32_t crc = 0;
  if (!GetFixed32(&data, &crc) || Crc32c(data) != crc) {
    return Status::Corruption("manifest checksum");
  }
  uint64_t next_file = 0, n0 = 0, n1 = 0;
  if (!GetVarint64(&data, &next_file) || !GetVarint64(&data, &n0)) {
    return Status::Corruption("manifest header");
  }
  next_file_no_ = next_file;
  manifest_l0_.clear();
  manifest_l1_.clear();
  for (uint64_t i = 0; i < n0; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(&data, &name)) {
      return Status::Corruption("manifest l0");
    }
    manifest_l0_.emplace_back(name);
  }
  if (!GetVarint64(&data, &n1)) {
    return Status::Corruption("manifest l1 count");
  }
  for (uint64_t i = 0; i < n1; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(&data, &name)) {
      return Status::Corruption("manifest l1");
    }
    manifest_l1_.emplace_back(name);
  }
  return Status::Ok();
}

sim::Task<Result<std::unique_ptr<DB>>> DB::Open(Options options, sim::Storage* storage) {
  std::unique_ptr<DB> db(new DB(std::move(options), storage));

  // Load the manifest if one exists.
  if (storage->FileExists(db->ManifestName())) {
    auto manifest = co_await storage->ReadFile(db->ManifestName());
    if (!manifest.ok()) {
      co_return manifest.status();
    }
    Status s = db->ApplyManifest(*manifest);
    if (!s.ok()) {
      co_return s;
    }
  }

  // Load live tables; anything else with our sst prefix is an orphan from an
  // interrupted flush/compaction and is deleted.
  auto load = [&](const std::string& name) -> sim::Task<Result<TablePtr>> {
    auto file = co_await storage->ReadFile(name);
    if (!file.ok()) {
      co_return file.status();
    }
    // Salvaging load: a CRC-bad block loses its own key range only. The
    // missing rows surface as NotFound, which MetaX's verification and
    // re-pull paths treat like any other lost replica state; refusing to
    // open the whole store would turn one flipped bit into a dead server.
    Table::DecodeResult r = Table::DecodeBlocks(*file);
    if (r.bad_blocks > 0) {
      LOG_WARN << "kv " << name << ": salvaged " << (r.blocks - r.bad_blocks)
               << "/" << r.blocks << " blocks";
      db->counters_.sst_blocks_bad.Add(r.bad_blocks);
    }
    co_return TablePtr(std::make_shared<Table>(name, std::move(r.entries)));
  };
  for (const auto& name : db->manifest_l0_) {
    auto t = co_await load(name);
    if (!t.ok()) {
      co_return t.status();
    }
    db->l0_.push_back(std::move(*t));
  }
  for (const auto& name : db->manifest_l1_) {
    auto t = co_await load(name);
    if (!t.ok()) {
      co_return t.status();
    }
    db->l1_.push_back(std::move(*t));
  }
  for (const auto& name : storage->ListFiles(db->options_.name + ".sst_")) {
    const bool live =
        std::find(db->manifest_l0_.begin(), db->manifest_l0_.end(), name) !=
            db->manifest_l0_.end() ||
        std::find(db->manifest_l1_.begin(), db->manifest_l1_.end(), name) !=
            db->manifest_l1_.end();
    if (!live) {
      (void)storage->DeleteFile(name);
    }
  }

  // Replay surviving WALs in sequence order into the memtable.
  std::vector<std::string> wals = storage->ListFiles(db->options_.name + ".wal_");
  std::vector<std::pair<uint64_t, std::string>> ordered;
  for (const auto& name : wals) {
    const uint64_t seq = std::stoull(name.substr(name.rfind('_') + 1));
    ordered.emplace_back(seq, name);
  }
  std::sort(ordered.begin(), ordered.end());
  uint64_t max_seq = 0;
  for (const auto& [seq, name] : ordered) {
    max_seq = std::max(max_seq, seq);
    auto file = co_await storage->ReadFile(name);
    if (!file.ok()) {
      co_return file.status();
    }
    // Paranoid replay. Three distinct endings, reported separately:
    //  - clean tail: the input ran out exactly at a record boundary;
    //  - torn tail: an incomplete record at EOF — the benign signature of a
    //    power loss mid-append (nothing after it can exist);
    //  - corrupt record: a full-length record whose CRC or decode fails —
    //    media damage, not truncation. Replay skips it by its framed length
    //    and keeps salvaging the records that follow (MetaX rows are
    //    independent KVs; the skipped batch's loss is caught by the put
    //    verification / scrub paths, while stopping here would silently
    //    discard every later record too).
    std::string_view input = *file;
    bool damage_seen = false;
    while (!input.empty()) {
      uint32_t crc = 0;
      uint64_t len = 0;
      if (!GetFixed32(&input, &crc) || !GetFixed64(&input, &len) || input.size() < len) {
        db->counters_.wal_torn_tail.Add();
        break;
      }
      std::string_view payload = input.substr(0, len);
      input.remove_prefix(len);
      Result<WriteBatch> batch = Status::Corruption("wal record crc");
      if (Crc32c(payload) == crc) {
        batch = WriteBatch::Decode(payload);
      }
      if (!batch.ok()) {
        damage_seen = true;
        db->counters_.wal_corrupt_records.Add();
        continue;
      }
      db->ApplyToMem(*batch);
      ++db->wal_records_replayed_;
      if (damage_seen) {
        db->counters_.wal_salvaged_records.Add();
      }
    }
    // Consolidate: older WALs' contents now live in the memtable; keep
    // appending to the newest WAL file.
    if (seq != ordered.back().first) {
      (void)storage->DeleteFile(name);
    }
  }
  db->mem_wal_seq_ = std::max<uint64_t>(max_seq, 1);

  co_return db;
}

void DB::ApplyToMem(const WriteBatch& batch) {
  for (const auto& op : batch.ops()) {
    mem_bytes_ += op.key.size() + (op.value ? op.value->size() : 0) + 24;
    mem_[op.key] = op.value;
  }
}

sim::Task<Status> DB::Write(WriteBatch batch) {
  if (batch.empty()) {
    co_return Status::Ok();
  }
  auto& tracer = obs::Tracer::Global();
  const uint64_t span = tracer.enabled()
                            ? tracer.Begin(obs::SpanKind::kKv, "kv.write",
                                           storage_->node_id(), storage_->Now())
                            : 0;
  // A pending freeze wants a quiescent WAL; let it switch memtables first.
  while (freeze_pending_) {
    co_await sim::SleepFor(Micros(5));
  }
  // Counted until applied, queued or not, so a freeze (which waits for zero)
  // never splits a group across two WAL files.
  ++in_flight_writes_;
  Writer self;
  self.batch = &batch;
  self.record = FrameWalRecord(batch.Encode());
  counters_.wal_bytes.Add(self.record.size());
  if (commits_in_flight_ < storage_->params().channels) {
    ++commits_in_flight_;
  } else {
    writers_.push_back(&self);
    co_await self.wake.Wait();
  }
  if (!self.done) {
    // Holding a commit slot: lead a group of this batch and everything
    // queued behind it.
    std::vector<Writer*> group{&self};
    group.insert(group.end(), writers_.begin(), writers_.end());
    writers_.clear();
    std::string data = std::move(self.record);
    for (size_t i = 1; i < group.size(); ++i) {
      data += group[i]->record;
    }
    const Status s =
        co_await storage_->Append(WalName(mem_wal_seq_), std::move(data), options_.sync_wal);
    counters_.wal_commits.Add();
    for (Writer* w : group) {
      if (s.ok()) {
        ApplyToMem(*w->batch);
        counters_.writes.Add();
      }
      w->status = s;
      w->done = true;
      --in_flight_writes_;
      w->wake.Set();
    }
    if (writers_.empty()) {
      --commits_in_flight_;
    } else {
      writers_.front()->wake.Set();  // hand the slot over
      writers_.pop_front();
    }
  }
  if (self.status.ok()) {
    co_await MaybeScheduleFlush();
  }
  tracer.End(span, storage_->Now(), self.status.ok());
  co_return self.status;
}

sim::Task<Status> DB::Put(std::string key, std::string value) {
  WriteBatch batch;
  batch.Put(std::move(key), std::move(value));
  return Write(std::move(batch));
}

sim::Task<Status> DB::Delete(std::string key) {
  WriteBatch batch;
  batch.Delete(std::move(key));
  return Write(std::move(batch));
}

sim::Task<> DB::MaybeScheduleFlush() {
  if (mem_bytes_ < options_.memtable_bytes || flushing_ || freeze_pending_) {
    co_return;
  }
  sim::Actor* actor = co_await sim::CurrentActor{};
  flushing_ = true;
  freeze_pending_ = true;
  actor->Spawn(FlushTask());
}

sim::Task<> DB::FlushTask() {
  auto& tracer = obs::Tracer::Global();
  const uint64_t span = tracer.enabled()
                            ? tracer.Begin(obs::SpanKind::kKv, "kv.flush",
                                           storage_->node_id(), storage_->Now())
                            : 0;
  // Wait for in-flight WAL appends so every record in the old WAL is also in
  // the frozen memtable (otherwise deleting the WAL could lose them).
  while (in_flight_writes_ > 0) {
    co_await sim::SleepFor(Micros(5));
  }
  imm_ = std::move(mem_);
  mem_.clear();
  mem_bytes_ = 0;
  has_imm_ = true;
  imm_wal_seq_ = mem_wal_seq_;
  ++mem_wal_seq_;
  freeze_pending_ = false;

  // Build and persist the level-0 table.
  std::vector<Table::Entry> entries;
  entries.reserve(imm_.size());
  for (auto& [key, value] : imm_) {
    entries.push_back(Table::Entry{key, value});
  }
  const std::string file_name = SstName(next_file_no_++);
  auto table = std::make_shared<Table>(file_name, std::move(entries));
  Status s = co_await storage_->WriteFile(file_name, table->Encode(), /*sync=*/true);
  if (s.ok()) {
    l0_.insert(l0_.begin(), table);  // newest first
    s = co_await PersistManifest();
  }
  if (s.ok()) {
    (void)storage_->DeleteFile(WalName(imm_wal_seq_));
    has_imm_ = false;
    imm_.clear();
    counters_.flushes.Add();
  } else {
    LOG_WARN << "kv flush failed: " << s.ToString();
  }
  tracer.End(span, storage_->Now(), s.ok());
  flushing_ = false;

  if (static_cast<int>(l0_.size()) >= options_.l0_compaction_trigger && !compacting_) {
    compacting_ = true;
    sim::Actor* actor = co_await sim::CurrentActor{};
    actor->Spawn(CompactTask());
  }
}

sim::Task<> DB::CompactTask() {
  // Tiered compaction: merge the current level-0 runs into one new level-1
  // run, prepended to the L1 list (newest first). Tombstones are retained —
  // older L1 runs may still hold the deleted key — so write amplification
  // stays bounded regardless of how aggressive the trigger is (the property
  // behind the paper's Fig. 11 finding that flush/merge rates barely matter).
  // Old L1 runs are folded in only when the L1 list itself grows long.
  auto& tracer = obs::Tracer::Global();
  const uint64_t span = tracer.enabled()
                            ? tracer.Begin(obs::SpanKind::kKv, "kv.compact",
                                           storage_->node_id(), storage_->Now())
                            : 0;
  std::vector<TablePtr> input_l0 = l0_;
  std::vector<TablePtr> input_l1;
  const bool fold_l1 = l1_.size() + 1 > kMaxL1Runs;
  if (fold_l1) {
    input_l1 = l1_;
  }

  // Merge newest-to-oldest so the first writer of a key wins.
  std::map<std::string, std::optional<std::string>> merged;
  auto absorb = [&merged](const TablePtr& t) {
    for (const auto& e : t->entries()) {
      merged.emplace(e.key, e.value);  // emplace keeps the newest
    }
  };
  for (const auto& t : input_l0) {
    absorb(t);
  }
  for (const auto& t : input_l1) {
    absorb(t);
  }
  std::vector<Table::Entry> entries;
  entries.reserve(merged.size());
  for (auto& [key, value] : merged) {
    if (value || !fold_l1) {
      entries.push_back(Table::Entry{key, value});
    }
    // When folding the whole L1 (fold_l1), this run becomes the bottom level
    // and tombstones can finally be dropped.
  }

  const std::string file_name = SstName(next_file_no_++);
  auto table = std::make_shared<Table>(file_name, std::move(entries));
  Status s = co_await storage_->WriteFile(file_name, table->Encode(), /*sync=*/true);
  if (s.ok()) {
    // Remove exactly the consumed inputs (new flushes may have prepended).
    auto consumed_l0 = [&](const TablePtr& t) {
      return std::find(input_l0.begin(), input_l0.end(), t) != input_l0.end();
    };
    l0_.erase(std::remove_if(l0_.begin(), l0_.end(), consumed_l0), l0_.end());
    if (fold_l1) {
      l1_.clear();
    }
    l1_.insert(l1_.begin(), table);  // newest first
    s = co_await PersistManifest();
  }
  if (s.ok()) {
    for (const auto& t : input_l0) {
      (void)storage_->DeleteFile(t->file_name());
    }
    for (const auto& t : input_l1) {
      (void)storage_->DeleteFile(t->file_name());
    }
    counters_.compactions.Add();
  } else {
    LOG_WARN << "kv compaction failed: " << s.ToString();
  }
  tracer.End(span, storage_->Now(), s.ok());
  compacting_ = false;
}

sim::Task<Status> DB::PersistManifest() {
  return storage_->WriteFile(ManifestName(), EncodeManifest(), /*sync=*/true);
}

std::optional<std::optional<std::string>> DB::LookupInMemory(std::string_view key,
                                                             uint64_t* charged_bytes) const {
  std::string k(key);
  if (auto it = mem_.find(k); it != mem_.end()) {
    return it->second;
  }
  if (has_imm_) {
    if (auto it = imm_.find(k); it != imm_.end()) {
      return it->second;
    }
  }
  for (const auto& t : l0_) {
    if (!t->MayContain(key)) {
      continue;
    }
    *charged_bytes += 4096;
    if (const Table::Entry* e = t->Find(key)) {
      *charged_bytes += e->value ? e->value->size() : 0;
      return e->value;
    }
  }
  for (const auto& t : l1_) {
    if (!t->MayContain(key)) {
      continue;
    }
    *charged_bytes += 4096;
    if (const Table::Entry* e = t->Find(key)) {
      *charged_bytes += e->value ? e->value->size() : 0;
      return e->value;
    }
  }
  return std::nullopt;
}

sim::Task<Result<std::string>> DB::Get(std::string key) {
  counters_.gets.Add();
  uint64_t charged = 0;
  auto found = LookupInMemory(key, &charged);
  if (charged > 0) {
    co_await storage_->ChargeRead(charged);
  }
  if (!found || !*found) {
    co_return Status::NotFound("kv: " + key);
  }
  co_return **found;
}

sim::Task<Result<std::vector<std::pair<std::string, std::string>>>> DB::Scan(std::string prefix,
                                                                             size_t limit) {
  // Build the merged view oldest-to-newest so later levels override.
  std::map<std::string, std::optional<std::string>> merged;
  uint64_t charged = 0;
  for (auto it = l1_.rbegin(); it != l1_.rend(); ++it) {
    for (const Table::Entry* e : (*it)->PrefixRange(prefix)) {
      charged += e->key.size() + (e->value ? e->value->size() : 0);
      merged[e->key] = e->value;
    }
  }
  for (auto it = l0_.rbegin(); it != l0_.rend(); ++it) {  // oldest L0 first
    for (const Table::Entry* e : (*it)->PrefixRange(prefix)) {
      charged += e->key.size() + (e->value ? e->value->size() : 0);
      merged[e->key] = e->value;
    }
  }
  auto absorb_mem = [&merged, &prefix](const MemTable& m) {
    for (auto it = m.lower_bound(prefix);
         it != m.end() && std::string_view(it->first).starts_with(prefix); ++it) {
      merged[it->first] = it->second;
    }
  };
  if (has_imm_) {
    absorb_mem(imm_);
  }
  absorb_mem(mem_);
  if (charged > 0) {
    co_await storage_->ChargeRead(charged);
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (auto& [key, value] : merged) {
    if (value) {
      out.emplace_back(key, *value);
      if (limit != 0 && out.size() >= limit) {
        break;
      }
    }
  }
  co_return out;
}

uint64_t DB::CountLiveEntries() const {
  std::map<std::string, std::optional<std::string>> merged;
  for (auto it = l1_.rbegin(); it != l1_.rend(); ++it) {
    for (const auto& e : (*it)->entries()) {
      merged[e.key] = e.value;
    }
  }
  for (auto it = l0_.rbegin(); it != l0_.rend(); ++it) {
    for (const auto& e : (*it)->entries()) {
      merged[e.key] = e.value;
    }
  }
  if (has_imm_) {
    for (const auto& [k, v] : imm_) {
      merged[k] = v;
    }
  }
  for (const auto& [k, v] : mem_) {
    merged[k] = v;
  }
  uint64_t count = 0;
  for (const auto& [k, v] : merged) {
    count += v.has_value();
  }
  return count;
}

sim::Task<> DB::WaitForMaintenance() {
  while (flushing_ || compacting_ || freeze_pending_) {
    co_await sim::SleepFor(Micros(50));
  }
}

}  // namespace cheetah::kv
