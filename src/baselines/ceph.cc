#include "src/baselines/ceph.h"

#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/sim/sync.h"

namespace cheetah::baselines {

namespace {
constexpr const char* kDevice = "bluestore";
constexpr Nanos kRpcTimeout = Millis(500);
constexpr uint64_t kJournalThreshold = KiB(32);  // objects <= this are double-written

std::string EncodeObjInfo(uint64_t offset, uint64_t size, uint32_t crc) {
  std::string out;
  PutVarint64(&out, offset);
  PutVarint64(&out, size);
  PutFixed32(&out, crc);
  return out;
}
}  // namespace

// ---- OSD ----

CephOsd::CephOsd(rpc::Node& rpc, const CephConfig& config)
    : rpc_(rpc),
      config_(config),
      counters_{obs::Scope("ceph@" + std::to_string(rpc.id()))} {}

sim::Task<Status> CephOsd::Start() {
  kv::Options opts;
  opts.name = "bluekv";
  auto db = co_await kv::DB::Open(std::move(opts), &rpc_.machine().disk(0));
  if (!db.ok()) {
    co_return db.status();
  }
  db_ = std::move(*db);
  rpc_.Serve<CWriteRequest, &CephOsd::HandleWrite>(this);
  rpc_.Serve<CRepWriteRequest, &CephOsd::HandleRepWrite>(this);
  rpc_.Serve<CReadRequest, &CephOsd::HandleRead>(this);
  rpc_.Serve<CDeleteRequest, &CephOsd::HandleDelete>(this);
  rpc_.Serve<CBackfillRequest, &CephOsd::HandleBackfill>(this);
  co_return Status::Ok();
}

void CephOsd::InstallMap(crush::Map map, uint64_t epoch,
                         const std::map<uint32_t, sim::NodeId>& previous_primaries) {
  const crush::Map old = std::move(map_);
  map_ = std::move(map);
  epoch_ = epoch;
  if (previous_primaries.empty()) {
    return;  // initial map; nothing to backfill
  }
  // PGs whose acting set now includes this OSD but did not before are pulled
  // from the previous primary (backfill). A freshly-added OSD has no old map
  // at all, so every acting PG of its counts as newly acquired.
  for (uint32_t pg = 0; pg < config_.pg_count; ++pg) {
    auto now = map_.Select(pg, config_.replication);
    const bool mine_now =
        std::find(now.begin(), now.end(), rpc_.id()) != now.end();
    bool mine_before = false;
    if (old.size() > 0) {
      auto before = old.Select(pg, config_.replication);
      mine_before = std::find(before.begin(), before.end(), rpc_.id()) != before.end();
    }
    if (mine_now && !mine_before) {
      auto it = previous_primaries.find(pg);
      if (it != previous_primaries.end() && it->second != rpc_.id()) {
        rpc_.machine().actor().Spawn(BackfillPg(pg, it->second));
      }
    }
  }
}

sim::Task<> CephOsd::LockPg(uint32_t pg) {
  PgLock& lock = pg_locks_[pg];
  if (!lock.held) {
    lock.held = true;
    co_return;
  }
  auto waiter = std::make_shared<sim::Event>();
  lock.waiters.push_back(waiter);
  co_await waiter->Wait();  // ownership transferred by UnlockPg
}

void CephOsd::UnlockPg(uint32_t pg) {
  PgLock& lock = pg_locks_[pg];
  if (lock.waiters.empty()) {
    lock.held = false;
    return;
  }
  auto next = lock.waiters.front();
  lock.waiters.pop_front();
  next->Set();
}

sim::Task<Status> CephOsd::LocalWrite(const std::string& name, Bytes data,
                                      uint32_t checksum) {
  sim::Storage& disk = rpc_.machine().disk(0);
  const uint64_t size = data.size();
  // Local ordering: journal first (small objects carry their data in the
  // journal — the double write), then data blocks, then the metadata KV.
  const uint64_t journal_bytes = size <= kJournalThreshold ? size + 512 : 512;
  CO_RETURN_IF_ERROR(co_await disk.Append("journal", std::string(1, 'j'), /*sync=*/false));
  co_await disk.ChargeWrite(journal_bytes);
  co_await disk.ChargeFsync();
  counters_.journal_bytes.Add(journal_bytes);
  const uint64_t offset = tail_;
  CO_RETURN_IF_ERROR(co_await disk.WriteBlocks(kDevice, offset, std::move(data), checksum));
  CO_RETURN_IF_ERROR(co_await db_->Put("O_" + name, EncodeObjInfo(offset, size, checksum)));
  objects_[name] = ObjInfo{offset, size, checksum};
  tail_ += size;
  counters_.writes.Add();
  co_return Status::Ok();
}

sim::Task<Result<CWriteReply>> CephOsd::HandleWrite(sim::NodeId, CWriteRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  co_await LockPg(req.pg);
  struct Unlocker {
    CephOsd* osd;
    uint32_t pg;
    ~Unlocker() { osd->UnlockPg(pg); }
  } unlocker{this, req.pg};
  co_await rpc_.machine().cpu().Use(config_.osd_op_cpu);
  if (objects_.contains(req.name)) {
    co_return Status::AlreadyExists("object exists (immutable)");
  }
  // Replicate to the secondaries in parallel with the local write.
  auto acting = map_.Select(req.pg, config_.replication);
  std::vector<sim::Task<Status>> tasks;
  tasks.push_back(LocalWrite(req.name, req.data, req.checksum));
  for (crush::ItemId peer : acting) {
    if (peer == rpc_.id()) {
      continue;
    }
    CRepWriteRequest rep;
    rep.epoch = req.epoch;
    rep.pg = req.pg;
    rep.name = req.name;
    rep.data = req.data;
    rep.checksum = req.checksum;
    tasks.push_back(
        rpc_.CallStatus(static_cast<sim::NodeId>(peer), std::move(rep), kRpcTimeout));
  }
  CO_RETURN_IF_ERROR(co_await sim::WhenAllOk(std::move(tasks)));
  co_return CWriteReply{};
}

sim::Task<Result<CRepWriteReply>> CephOsd::HandleRepWrite(sim::NodeId, CRepWriteRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  co_await LockPg(req.pg);
  struct Unlocker {
    CephOsd* osd;
    uint32_t pg;
    ~Unlocker() { osd->UnlockPg(pg); }
  } unlocker{this, req.pg};
  co_await rpc_.machine().cpu().Use(config_.osd_op_cpu);
  CO_RETURN_IF_ERROR(co_await LocalWrite(req.name, std::move(req.data), req.checksum));
  co_return CRepWriteReply{};
}

sim::Task<Result<CReadReply>> CephOsd::HandleRead(sim::NodeId, CReadRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  co_await LockPg(req.pg);
  struct Unlocker {
    CephOsd* osd;
    uint32_t pg;
    ~Unlocker() { osd->UnlockPg(pg); }
  } unlocker{this, req.pg};
  co_await rpc_.machine().cpu().Use(config_.osd_op_cpu);
  auto it = objects_.find(req.name);
  if (it == objects_.end()) {
    co_return Status::NotFound("no such object");
  }
  sim::Storage& disk = rpc_.machine().disk(0);
  // BlueStore reads metadata from its KV, then the data blocks — the get
  // "needs to read both metadata and data on data servers" (§6.1).
  auto meta = co_await db_->Get("O_" + req.name);
  if (!meta.ok()) {
    co_return meta.status();
  }
  co_await disk.ChargeRead(4096);  // cold metadata block
  auto data = co_await disk.ReadBlocks(kDevice, it->second.offset, it->second.size);
  if (!data.ok()) {
    co_return data.status();
  }
  counters_.reads.Add();
  CReadReply reply;
  reply.data = std::move(*data);
  reply.checksum = it->second.checksum;
  co_return reply;
}

sim::Task<Result<CDeleteReply>> CephOsd::HandleDelete(sim::NodeId, CDeleteRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  co_await LockPg(req.pg);
  struct Unlocker {
    CephOsd* osd;
    uint32_t pg;
    ~Unlocker() { osd->UnlockPg(pg); }
  } unlocker{this, req.pg};
  co_await rpc_.machine().cpu().Use(config_.osd_op_cpu);
  auto it = objects_.find(req.name);
  if (it == objects_.end()) {
    co_return Status::NotFound("no such object");
  }
  rpc_.machine().disk(0).DiscardBlocks(kDevice, it->second.offset);
  CO_RETURN_IF_ERROR(co_await db_->Delete("O_" + req.name));
  objects_.erase(it);
  if (req.replicate) {
    auto acting = map_.Select(req.pg, config_.replication);
    std::vector<sim::Task<Status>> tasks;
    for (crush::ItemId peer : acting) {
      if (peer == rpc_.id()) {
        continue;
      }
      CDeleteRequest rep = req;
      rep.replicate = false;
      tasks.push_back(
          rpc_.CallStatus(static_cast<sim::NodeId>(peer), std::move(rep), kRpcTimeout));
    }
    auto results = co_await sim::WhenAll(std::move(tasks));
    for (const Status& s : results) {
      if (!s.ok() && !s.IsNotFound()) {
        co_return s;
      }
    }
  }
  co_return CDeleteReply{};
}

sim::Task<Result<CBackfillReply>> CephOsd::HandleBackfill(sim::NodeId, CBackfillRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  CBackfillReply reply;
  sim::Storage& disk = rpc_.machine().disk(0);
  for (const auto& [name, info] : objects_) {
    if (crush::Map::NameToPg(name, config_.pg_count) != req.pg) {
      continue;
    }
    auto data = co_await disk.ReadBlocks(kDevice, info.offset, info.size);
    if (!data.ok()) {
      continue;
    }
    CBackfillReply::Obj obj;
    obj.name = name;
    obj.data = std::move(*data);
    obj.checksum = info.checksum;
    reply.total_bytes += info.size;
    reply.objects.push_back(std::move(obj));
  }
  co_return reply;
}

sim::Task<> CephOsd::BackfillPg(uint32_t pg, sim::NodeId source) {
  CBackfillRequest req;
  req.pg = pg;
  auto pulled = co_await rpc_.Call(source, std::move(req), Seconds(120));
  if (!pulled.ok()) {
    co_return;
  }
  for (auto& obj : pulled->objects) {
    if (objects_.contains(obj.name)) {
      continue;
    }
    (void)co_await LocalWrite(obj.name, std::move(obj.data), obj.checksum);
    counters_.backfilled_objects.Add();
  }
  counters_.backfill_bytes.Add(pulled->total_bytes);
}

// ---- client ----

CephClient::CephClient(rpc::Node& rpc, const CephConfig& config, uint64_t seed)
    : rpc_(rpc), config_(config), rng_(seed) {}

sim::Task<Status> CephClient::Put(std::string name, std::string data) {
  const uint32_t pg = crush::Map::NameToPg(name, config_.pg_count);
  const sim::NodeId primary = static_cast<sim::NodeId>(map_.Primary(pg));
  CWriteRequest req;
  req.epoch = epoch_;
  req.pg = pg;
  req.checksum = Crc32c(data);
  req.name = std::move(name);
  req.data = Bytes(std::move(data));
  co_return co_await rpc_.CallStatus(primary, std::move(req), kRpcTimeout);
}

sim::Task<Result<std::string>> CephClient::Get(std::string name) {
  const uint32_t pg = crush::Map::NameToPg(name, config_.pg_count);
  const sim::NodeId primary = static_cast<sim::NodeId>(map_.Primary(pg));
  CReadRequest req;
  req.epoch = epoch_;
  req.pg = pg;
  req.name = std::move(name);
  auto r = co_await rpc_.Call(primary, std::move(req), kRpcTimeout);
  if (!r.ok()) {
    co_return r.status();
  }
  co_return std::move(r->data).ToString();
}

sim::Task<Status> CephClient::Delete(std::string name) {
  const uint32_t pg = crush::Map::NameToPg(name, config_.pg_count);
  const sim::NodeId primary = static_cast<sim::NodeId>(map_.Primary(pg));
  CDeleteRequest req;
  req.epoch = epoch_;
  req.pg = pg;
  req.name = std::move(name);
  co_return co_await rpc_.CallStatus(primary, std::move(req), kRpcTimeout);
}

// ---- cluster ----

CephCluster::CephCluster(sim::EventLoop& loop, CephConfig config)
    : loop_(loop), config_(std::move(config)), net_(loop, config_.net) {
  for (int i = 0; i < config_.osd_machines; ++i) {
    AddOsdHost();
  }
  sim::MachineParams params;
  params.disk = config_.disk;
  for (int i = 0; i < config_.client_machines; ++i) {
    auto& h = clients_.emplace_back(loop_, net_, 3500 + i, "cclient" + std::to_string(i), params);
    h.server = std::make_unique<CephClient>(*h.node, config_, 0xcef + i);
  }
}

CephCluster::~CephCluster() = default;

void CephCluster::AddOsdHost() {
  sim::MachineParams params;
  params.disk = config_.disk;
  auto& h =
      osds_.emplace_back(loop_, net_, next_osd_id_, "osd" + std::to_string(osds_.size()), params);
  h.machine->disk(0).set_store_volume_content(config_.store_volume_content);
  h.server = std::make_unique<CephOsd>(*h.node, config_);
  map_.AddItem(next_osd_id_);
  ++next_osd_id_;
}

Status CephCluster::Boot() {
  const bool started = rpc::StartAll(loop_, osds_);
  DisseminateMap({});
  return started ? Status::Ok() : Status::Internal("osd failed to start");
}

void CephCluster::DisseminateMap(const std::map<uint32_t, sim::NodeId>& previous_primaries) {
  for (auto& o : osds_) {
    if (o.machine->alive()) {
      o.server->InstallMap(map_, epoch_, previous_primaries);
    }
  }
  for (auto& c : clients_) {
    c.server->InstallMap(map_, epoch_);
  }
}

void CephCluster::FailOsd(int i) {
  std::map<uint32_t, sim::NodeId> previous_primaries;
  const sim::NodeId dead = osds_.at(i).id();
  for (uint32_t pg = 0; pg < config_.pg_count; ++pg) {
    // Backfill sources must be survivors: pick the first acting member that
    // is not the dead OSD.
    for (crush::ItemId member : map_.Select(pg, config_.replication)) {
      if (static_cast<sim::NodeId>(member) != dead) {
        previous_primaries[pg] = static_cast<sim::NodeId>(member);
        break;
      }
    }
  }
  osds_[i].Crash(/*power_loss=*/false);
  map_.RemoveItem(dead);
  ++epoch_;
  DisseminateMap(previous_primaries);
}

void CephCluster::AddOsd() {
  std::map<uint32_t, sim::NodeId> previous_primaries;
  for (uint32_t pg = 0; pg < config_.pg_count; ++pg) {
    previous_primaries[pg] = static_cast<sim::NodeId>(map_.Primary(pg));
  }
  AddOsdHost();
  auto started = std::make_shared<bool>(false);
  osds_.back().machine->actor().Spawn(
      [](CephOsd* osd, std::shared_ptr<bool> started) -> sim::Task<> {
        (void)co_await osd->Start();
        *started = true;
      }(osds_.back().server.get(), started));
  ++epoch_;
  while (!*started && loop_.RunOne()) {
  }
  DisseminateMap(previous_primaries);
}

}  // namespace cheetah::baselines
