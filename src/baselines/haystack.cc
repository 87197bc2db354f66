#include "src/baselines/haystack.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/sim/sync.h"

namespace cheetah::baselines {

namespace {

constexpr int kDirectoryMachines = 3;  // one primary + synchronous replicas
constexpr Nanos kRpcTimeout = Millis(500);
// Per-request directory processing cost (§7: "the centralized directory
// service becomes a significant bottleneck when numerous clients ... access
// object storage in parallel").
constexpr Nanos kDirOpCpu = Micros(150);
constexpr uint64_t kFsOverheadBytes = 4096;  // XFS metadata per needle op

std::string EncodeDirEntry(uint32_t volume) {
  std::string out;
  PutVarint64(&out, volume);
  return out;
}

Result<uint32_t> DecodeDirEntry(std::string_view data) {
  uint64_t v = 0;
  if (!GetVarint64(&data, &v)) {
    return Status::Corruption("dir entry");
  }
  return static_cast<uint32_t>(v);
}

}  // namespace

// ---- directory ----

HaystackDirectory::HaystackDirectory(rpc::Node& rpc, bool primary,
                                     std::vector<sim::NodeId> dir_peers)
    : rpc_(rpc), primary_(primary), dir_peers_(std::move(dir_peers)) {}

sim::Task<Status> HaystackDirectory::Start() {
  kv::Options opts;
  opts.name = "hsdir";
  auto db = co_await kv::DB::Open(std::move(opts), &rpc_.machine().disk(0));
  if (!db.ok()) {
    co_return db.status();
  }
  db_ = std::move(*db);
  rpc_.Serve<HsAssignRequest, &HaystackDirectory::HandleAssign>(this);
  rpc_.Serve<HsLookupRequest, &HaystackDirectory::HandleLookup>(this);
  rpc_.Serve<HsDirDeleteRequest, &HaystackDirectory::HandleDelete>(this);
  rpc_.Serve<HsDirReplicateRequest, &HaystackDirectory::HandleReplicate>(this);
  co_return Status::Ok();
}

sim::Task<Status> HaystackDirectory::ReplicateToPeers(std::string key, std::string value) {
  std::vector<sim::Task<Status>> tasks;
  for (sim::NodeId peer : dir_peers_) {
    if (peer == rpc_.id()) {
      continue;
    }
    HsDirReplicateRequest rep;
    rep.key = key;
    rep.value = value;
    tasks.push_back(rpc_.CallStatus(peer, std::move(rep), kRpcTimeout));
  }
  co_return co_await sim::WhenAllOk(std::move(tasks));
}

sim::Task<Result<HsAssignReply>> HaystackDirectory::HandleAssign(sim::NodeId src,
                                                                 HsAssignRequest req) {
  if (!primary_ || db_ == nullptr) {
    co_return Status::Unavailable("not the primary directory");
  }
  co_await rpc_.machine().cpu().Use(kDirOpCpu);
  // Immutability: reject a second put of a live name.
  auto existing = co_await db_->Get("V_" + req.name);
  if (existing.ok()) {
    co_return Status::AlreadyExists("object exists (immutable)");
  }
  // Round-robin over volumes with room.
  VolumeInfo* chosen = nullptr;
  for (size_t i = 0; i < volumes_.size(); ++i) {
    VolumeInfo& v = volumes_[(assign_cursor_ + i) % volumes_.size()];
    if (v.assigned_bytes + req.size <= v.capacity) {
      chosen = &v;
      assign_cursor_ = (assign_cursor_ + i + 1) % volumes_.size();
      break;
    }
  }
  if (chosen == nullptr) {
    co_return Status::ResourceExhausted("all volumes full");
  }
  chosen->assigned_bytes += req.size;
  // Persist the volume metadata Mv before replying (Fig. 1 step (3)); the
  // reply may not precede persistence or a failed put could orphan data.
  const std::string key = "V_" + req.name;
  const std::string value = EncodeDirEntry(chosen->id);
  std::vector<sim::Task<Status>> tasks;
  tasks.push_back(db_->Put(key, value));
  tasks.push_back(ReplicateToPeers(key, value));
  CO_RETURN_IF_ERROR(co_await sim::WhenAllOk(std::move(tasks)));
  HsAssignReply reply;
  reply.volume = chosen->id;
  reply.stores = chosen->stores;
  co_return reply;
}

sim::Task<Result<HsLookupReply>> HaystackDirectory::HandleLookup(sim::NodeId src,
                                                                 HsLookupRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  co_await rpc_.machine().cpu().Use(kDirOpCpu);
  auto value = co_await db_->Get("V_" + req.name);
  if (!value.ok()) {
    co_return value.status();
  }
  auto volume = DecodeDirEntry(*value);
  if (!volume.ok()) {
    co_return volume.status();
  }
  HsLookupReply reply;
  reply.volume = *volume;
  for (const auto& v : volumes_) {
    if (v.id == *volume) {
      reply.stores = v.stores;
      break;
    }
  }
  co_return reply;
}

sim::Task<Result<HsDirDeleteReply>> HaystackDirectory::HandleDelete(sim::NodeId src,
                                                                    HsDirDeleteRequest req) {
  if (!primary_ || db_ == nullptr) {
    co_return Status::Unavailable("not the primary directory");
  }
  co_await rpc_.machine().cpu().Use(kDirOpCpu);
  auto existing = co_await db_->Get("V_" + req.name);
  if (!existing.ok()) {
    co_return existing.status();
  }
  std::vector<sim::Task<Status>> tasks;
  tasks.push_back(db_->Delete("V_" + req.name));
  tasks.push_back(ReplicateToPeers("V_" + req.name, ""));
  CO_RETURN_IF_ERROR(co_await sim::WhenAllOk(std::move(tasks)));
  co_return HsDirDeleteReply{};
}

sim::Task<Result<HsDirReplicateReply>> HaystackDirectory::HandleReplicate(
    sim::NodeId src, HsDirReplicateRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  // Note: two separate statements — GCC 12 miscompiles co_await inside a
  // conditional expression.
  Status s;
  if (req.value.empty()) {
    s = co_await db_->Delete(req.key);
  } else {
    s = co_await db_->Put(req.key, req.value);
  }
  if (!s.ok()) {
    co_return s;
  }
  co_return HsDirReplicateReply{};
}

// ---- store ----

HaystackStore::HaystackStore(rpc::Node& rpc, const HaystackConfig& config)
    : rpc_(rpc),
      config_(config),
      counters_{obs::Scope("haystack@" + std::to_string(rpc.id()))} {}

void HaystackStore::Start() {
  rpc_.Serve<HsWriteRequest, &HaystackStore::HandleWrite>(this);
  rpc_.Serve<HsReadRequest, &HaystackStore::HandleRead>(this);
  rpc_.Serve<HsFlagRequest, &HaystackStore::HandleFlag>(this);
  rpc_.Serve<HsCompactRequest, &HaystackStore::HandleCompact>(this);
  rpc_.machine().actor().Spawn(CheckpointLoop());
}

sim::Task<Result<HsWriteReply>> HaystackStore::HandleWrite(sim::NodeId src,
                                                           HsWriteRequest req) {
  sim::Storage& disk = rpc_.machine().disk(0);
  Volume& vol = volumes_[req.volume];  // std::map: stable across inserts
  // Reserve the needle's slot before the first wait, so concurrent appends
  // to one volume never share an offset.
  const uint64_t size = req.data.size();
  const uint64_t offset = vol.tail;
  const uint32_t generation = vol.generation;
  vol.tail += size;
  // Appending through the filesystem costs a metadata update per needle.
  co_await disk.ChargeWrite(kFsOverheadBytes);
  Status s = co_await disk.WriteBlocks(DeviceName(req.volume, generation), offset,
                                       std::move(req.data), req.checksum);
  if (!s.ok()) {
    co_return s;
  }
  vol.index[req.name] = Needle{offset, size, req.checksum, false, generation};
  ++vol.dirty;  // Mo lives in memory; the on-disk index lags (§2.2)
  live_bytes_ += size;
  total_bytes_ += size;
  counters_.writes.Add();
  HsWriteReply reply;
  reply.offset = offset;
  co_return reply;
}

const HaystackStore::Needle* HaystackStore::FindLive(uint32_t volume,
                                                     const std::string& name) const {
  auto vit = volumes_.find(volume);
  if (vit == volumes_.end()) {
    return nullptr;
  }
  auto nit = vit->second.index.find(name);
  return nit == vit->second.index.end() || nit->second.deleted ? nullptr : &nit->second;
}

sim::Task<Result<HsReadReply>> HaystackStore::HandleRead(sim::NodeId src, HsReadRequest req) {
  if (FindLive(req.volume, req.name) == nullptr) {
    co_return Status::NotFound("needle absent or deleted");
  }
  sim::Storage& disk = rpc_.machine().disk(0);
  // Read in-volume filesystem metadata, then the needle (§6.1's explanation
  // of the get gap).
  co_await disk.ChargeRead(kFsOverheadBytes);
  const Needle* needle = FindLive(req.volume, req.name);
  if (needle == nullptr) {
    co_return Status::NotFound("needle deleted during the read");
  }
  // A read that has started completes with the blocks it started on, even
  // if the needle is flagged or compacted away meanwhile.
  const uint32_t checksum = needle->checksum;
  auto data = co_await disk.ReadBlocks(DeviceName(req.volume, needle->generation),
                                       needle->offset, needle->size);
  if (!data.ok()) {
    co_return data.status();
  }
  counters_.reads.Add();
  HsReadReply reply;
  reply.data = std::move(*data);
  reply.checksum = checksum;
  co_return reply;
}

sim::Task<Result<HsFlagReply>> HaystackStore::HandleFlag(sim::NodeId src, HsFlagRequest req) {
  if (FindLive(req.volume, req.name) == nullptr) {
    co_return Status::NotFound("needle absent");
  }
  // Persist the deletion flag (a small synchronous write into the volume).
  sim::Storage& disk = rpc_.machine().disk(0);
  co_await disk.ChargeWrite(kFsOverheadBytes);
  co_await disk.ChargeFsync();
  Volume& vol = volumes_.at(req.volume);
  auto nit = vol.index.find(req.name);
  if (nit == vol.index.end() || nit->second.deleted) {
    co_return Status::NotFound("needle deleted meanwhile");
  }
  nit->second.deleted = true;
  vol.dead_bytes += nit->second.size;
  live_bytes_ -= nit->second.size;
  ++vol.dirty;
  counters_.flags.Add();
  co_return HsFlagReply{};
}

sim::Task<Result<HsCompactReply>> HaystackStore::HandleCompact(sim::NodeId src,
                                                               HsCompactRequest req) {
  auto vit = volumes_.find(req.volume);
  if (vit == volumes_.end()) {
    co_return Status::NotFound("no such volume");
  }
  Volume& vol = vit->second;
  sim::Storage& disk = rpc_.machine().disk(0);
  // Rewrite live needles into a fresh volume file (next generation): read +
  // write every live byte — the I/O amplification §4.3.3 describes. Writes
  // and flags keep landing in vol.index meanwhile, so the loop walks a
  // snapshot, and the old copies stay readable until the swap.
  const std::vector<std::pair<std::string, Needle>> snapshot(vol.index.begin(),
                                                             vol.index.end());
  const uint32_t new_gen = vol.generation + 1;
  const std::string new_dev = DeviceName(req.volume, new_gen);
  uint64_t new_tail = 0;
  uint64_t rewritten = 0;
  std::unordered_map<std::string, Needle> new_index;
  std::vector<std::pair<std::string, uint64_t>> discards;  // (file, offset)
  for (const auto& [name, needle] : snapshot) {
    const std::string dev = DeviceName(req.volume, needle.generation);
    if (needle.deleted) {
      discards.emplace_back(dev, needle.offset);
      continue;
    }
    auto data = co_await disk.ReadBlocks(dev, needle.offset, needle.size);
    if (!data.ok()) {
      continue;
    }
    discards.emplace_back(dev, needle.offset);
    co_await disk.ChargeWrite(kFsOverheadBytes);
    (void)co_await disk.WriteBlocks(new_dev, new_tail, std::move(*data), needle.checksum);
    new_index[name] = Needle{new_tail, needle.size, needle.checksum, false, new_gen};
    new_tail += needle.size;
    rewritten += needle.size;
  }
  // Carry over what changed during the rewrite: needles written meanwhile
  // keep their bytes in the old file; a rewritten needle flagged meanwhile
  // is dropped (its bytes are already counted dead).
  std::unordered_map<std::string, const Needle*> before;
  for (const auto& [name, needle] : snapshot) {
    before[name] = &needle;
  }
  for (const auto& [name, needle] : vol.index) {
    auto bit = before.find(name);
    const bool unchanged = bit != before.end() &&
                           bit->second->generation == needle.generation &&
                           bit->second->offset == needle.offset;
    if (!unchanged) {
      new_index[name] = needle;
    } else if (needle.deleted && !bit->second->deleted) {
      auto nit = new_index.find(name);
      if (nit != new_index.end()) {
        discards.emplace_back(new_dev, nit->second.offset);
        new_index.erase(nit);
      }
    }
  }
  for (const auto& [dev, offset] : discards) {
    disk.DiscardBlocks(dev, offset);
  }
  total_bytes_ -= vol.dead_bytes;
  vol.index = std::move(new_index);
  vol.tail = new_tail;
  vol.dead_bytes = 0;
  vol.generation = new_gen;
  ++vol.dirty;
  counters_.compactions.Add();
  counters_.compacted_bytes.Add(rewritten);
  HsCompactReply reply;
  reply.bytes_rewritten = rewritten;
  co_return reply;
}

sim::Task<> HaystackStore::CheckpointLoop() {
  // Asynchronous checkpoint of the in-memory index (§2.2: effective for
  // read-heavy loads, but under write-heavy loads the on-disk index lags).
  for (;;) {
    co_await sim::SleepFor(config_.checkpoint_interval);
    sim::Storage& disk = rpc_.machine().disk(0);
    for (auto& [id, vol] : volumes_) {
      if (vol.dirty == 0) {
        continue;
      }
      const uint64_t bytes = vol.index.size() * 64 + 1024;
      (void)co_await disk.WriteFile(IndexFile(id), Bytes(std::string(1, 'i')), /*sync=*/true);
      co_await disk.ChargeWrite(bytes);
      vol.dirty = 0;
      counters_.checkpoints.Add();
    }
  }
}

// ---- client ----

HaystackClient::HaystackClient(rpc::Node& rpc, sim::NodeId primary_dir, uint64_t seed)
    : rpc_(rpc), primary_dir_(primary_dir), rng_(seed) {}

sim::Task<Status> HaystackClient::Put(std::string name, std::string data) {
  const uint32_t checksum = Crc32c(data);
  // (1) Write-ahead meta-log Ml on the client's own disk (Fig. 1 step 1).
  const std::string log_entry = name + "|" + std::to_string(checksum);
  CO_RETURN_IF_ERROR(
      co_await rpc_.machine().disk(0).Append("hs_mlog", log_entry, /*sync=*/true));
  // (2) Directory assigns and persists Mv, then replies.
  HsAssignRequest assign;
  assign.name = name;
  assign.size = data.size();
  auto assigned = co_await rpc_.Call(primary_dir_, std::move(assign), kRpcTimeout);
  if (!assigned.ok()) {
    co_return assigned.status();
  }
  // (3) Write the needle to all n stores in parallel; each persists data+Mo.
  const Bytes payload(std::move(data));
  std::vector<sim::Task<Status>> tasks;
  for (sim::NodeId store : assigned->stores) {
    HsWriteRequest write;
    write.volume = assigned->volume;
    write.name = name;
    write.data = payload;
    write.checksum = checksum;
    tasks.push_back(rpc_.CallStatus(store, std::move(write), kRpcTimeout));
  }
  co_return co_await sim::WhenAllOk(std::move(tasks));
}

sim::Task<Result<std::string>> HaystackClient::Get(std::string name) {
  HsLookupRequest lookup;
  lookup.name = name;
  auto found = co_await rpc_.Call(primary_dir_, std::move(lookup), kRpcTimeout);
  if (!found.ok()) {
    co_return found.status();
  }
  if (found->stores.empty()) {
    co_return Status::Internal("volume without stores");
  }
  const sim::NodeId store = found->stores[rng_.Uniform(found->stores.size())];
  HsReadRequest read;
  read.volume = found->volume;
  read.name = std::move(name);
  auto r = co_await rpc_.Call(store, std::move(read), kRpcTimeout);
  if (!r.ok()) {
    co_return r.status();
  }
  co_return std::move(r->data).ToString();
}

sim::Task<Status> HaystackClient::Delete(std::string name) {
  // §2.2's three steps: query the directory, update every store's offset
  // metadata, update the directory.
  HsLookupRequest lookup;
  lookup.name = name;
  auto found = co_await rpc_.Call(primary_dir_, std::move(lookup), kRpcTimeout);
  if (!found.ok()) {
    co_return found.status();
  }
  std::vector<sim::Task<Status>> tasks;
  for (sim::NodeId store : found->stores) {
    HsFlagRequest flag;
    flag.volume = found->volume;
    flag.name = name;
    tasks.push_back(rpc_.CallStatus(store, std::move(flag), kRpcTimeout));
  }
  CO_RETURN_IF_ERROR(co_await sim::WhenAllOk(std::move(tasks)));
  HsDirDeleteRequest del;
  del.name = std::move(name);
  co_return co_await rpc_.CallStatus(primary_dir_, std::move(del), kRpcTimeout);
}

// ---- cluster ----

HaystackCluster::HaystackCluster(sim::EventLoop& loop, HaystackConfig config)
    : loop_(loop), config_(std::move(config)), net_(loop, config_.net) {
  sim::NodeId next_id = 1000;
  std::vector<sim::NodeId> dir_nodes;
  for (int i = 0; i < kDirectoryMachines; ++i) {
    dir_nodes.push_back(next_id + i);
  }
  sim::MachineParams params;
  params.disk = config_.disk;
  for (int i = 0; i < kDirectoryMachines; ++i) {
    auto& h = dirs_.emplace_back(loop_, net_, dir_nodes[i], "hsdir" + std::to_string(i), params);
    h.server = std::make_unique<HaystackDirectory>(*h.node, i == 0, dir_nodes);
  }
  next_id += kDirectoryMachines;
  for (int i = 0; i < config_.store_machines; ++i) {
    auto& h = stores_.emplace_back(loop_, net_, next_id + i, "hstore" + std::to_string(i), params);
    h.machine->disk(0).set_store_volume_content(config_.store_volume_content);
    h.server = std::make_unique<HaystackStore>(*h.node, config_);
  }
  next_id += config_.store_machines;
  for (int i = 0; i < config_.client_machines; ++i) {
    auto& h =
        clients_.emplace_back(loop_, net_, next_id + i, "hsclient" + std::to_string(i), params);
    h.server = std::make_unique<HaystackClient>(*h.node, dir_nodes[0], 0xba5e + i);
  }

  // Logical volumes: anchor `volumes_per_store` per store, replicas on the
  // next n-1 stores round-robin.
  uint32_t vol_id = 1;
  for (int s = 0; s < config_.store_machines; ++s) {
    for (uint32_t v = 0; v < config_.volumes_per_store; ++v) {
      HaystackDirectory::VolumeInfo info;
      info.id = vol_id++;
      info.capacity = config_.volume_capacity;
      for (uint32_t r = 0; r < config_.replication; ++r) {
        info.stores.push_back(stores_[(s + r) % config_.store_machines].id());
      }
      volumes_.push_back(std::move(info));
    }
  }
}

HaystackCluster::~HaystackCluster() = default;

Status HaystackCluster::Boot() {
  for (auto& d : dirs_) {
    d.server->InstallVolumes(volumes_);
  }
  for (auto& s : stores_) {
    s.server->Start();
  }
  return rpc::StartAll(loop_, dirs_) ? Status::Ok()
                                     : Status::Internal("directory failed to start");
}

void HaystackCluster::TriggerCompactionAll() {
  for (auto& s : stores_) {
    for (const auto& vol : volumes_) {
      if (std::find(vol.stores.begin(), vol.stores.end(), s.id()) != vol.stores.end()) {
        HsCompactRequest req;
        req.volume = vol.id;
        clients_[0].node->Notify(s.id(), std::move(req));
      }
    }
  }
}

}  // namespace cheetah::baselines
