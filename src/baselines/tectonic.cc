#include "src/baselines/tectonic.h"

#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/sim/sync.h"

namespace cheetah::baselines {

namespace {

constexpr Nanos kRpcTimeout = Millis(500);
constexpr uint64_t kFsOverheadBytes = 4096;  // chunk-file metadata per data op

std::string NameKey(const std::string& name) { return "N_" + name; }
std::string FileKey(uint64_t id) { return "F_" + std::to_string(id); }
std::string BlockKey(uint64_t id) { return "B_" + std::to_string(id); }

std::string EncodeU64(uint64_t v) {
  std::string out;
  PutVarint64(&out, v);
  return out;
}
uint64_t DecodeU64(std::string_view data) {
  uint64_t v = 0;
  GetVarint64(&data, &v);
  return v;
}

}  // namespace

// ---- meta server ----

TectonicMetaServer::TectonicMetaServer(rpc::Node& rpc, const TectonicConfig& config,
                                       std::vector<sim::NodeId> stores, uint64_t seed)
    : rpc_(rpc), config_(config), stores_(std::move(stores)), next_id_(seed << 32 | 1) {}

sim::Task<Status> TectonicMetaServer::Start() {
  kv::Options opts;
  opts.name = "tnmeta";
  auto db = co_await kv::DB::Open(std::move(opts), &rpc_.machine().disk(0));
  if (!db.ok()) {
    co_return db.status();
  }
  db_ = std::move(*db);
  rpc_.Serve<TnCreateNameRequest, &TectonicMetaServer::HandleCreate>(this);
  rpc_.Serve<TnLookupNameRequest, &TectonicMetaServer::HandleLookup>(this);
  rpc_.Serve<TnDeleteNameRequest, &TectonicMetaServer::HandleDeleteName>(this);
  rpc_.Serve<TnFileOpRequest, &TectonicMetaServer::HandleFileOp>(this);
  rpc_.Serve<TnBlockOpRequest, &TectonicMetaServer::HandleBlockOp>(this);
  co_return Status::Ok();
}

sim::Task<Result<TnCreateNameReply>> TectonicMetaServer::HandleCreate(
    sim::NodeId, TnCreateNameRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  auto existing = co_await db_->Get(NameKey(req.name));
  if (existing.ok()) {
    co_return Status::AlreadyExists("name exists (immutable)");
  }
  const uint64_t file_id = next_id_++;
  CO_RETURN_IF_ERROR(co_await db_->Put(NameKey(req.name), EncodeU64(file_id)));
  TnCreateNameReply reply;
  reply.file_id = file_id;
  co_return reply;
}

sim::Task<Result<TnLookupNameReply>> TectonicMetaServer::HandleLookup(
    sim::NodeId, TnLookupNameRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  auto value = co_await db_->Get(NameKey(req.name));
  if (!value.ok()) {
    co_return value.status();
  }
  TnLookupNameReply reply;
  reply.file_id = DecodeU64(*value);
  co_return reply;
}

sim::Task<Result<TnDeleteNameReply>> TectonicMetaServer::HandleDeleteName(
    sim::NodeId, TnDeleteNameRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  auto value = co_await db_->Get(NameKey(req.name));
  if (!value.ok()) {
    co_return value.status();
  }
  CO_RETURN_IF_ERROR(co_await db_->Delete(NameKey(req.name)));
  co_return TnDeleteNameReply{};
}

sim::Task<Result<TnFileOpReply>> TectonicMetaServer::HandleFileOp(sim::NodeId,
                                                                  TnFileOpRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  TnFileOpReply reply;
  switch (req.op) {
    case 0: {  // append a block to the file
      const uint64_t block_id = next_id_++;
      CO_RETURN_IF_ERROR(co_await db_->Put(FileKey(req.file_id), EncodeU64(block_id)));
      reply.block_id = block_id;
      co_return reply;
    }
    case 1: {  // lookup
      auto value = co_await db_->Get(FileKey(req.file_id));
      if (!value.ok()) {
        co_return value.status();
      }
      reply.block_id = DecodeU64(*value);
      co_return reply;
    }
    case 2: {  // remove
      CO_RETURN_IF_ERROR(co_await db_->Delete(FileKey(req.file_id)));
      co_return reply;
    }
    default:
      co_return Status::InvalidArgument("file op");
  }
}

sim::Task<Result<TnBlockOpReply>> TectonicMetaServer::HandleBlockOp(sim::NodeId,
                                                                    TnBlockOpRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  TnBlockOpReply reply;
  switch (req.op) {
    case 0: {  // allocate: choose n chunk stores round-robin, persist
      const uint64_t chunk_id = next_id_++;
      std::string value;
      PutVarint64(&value, chunk_id);
      PutVarint64(&value, config_.replication);
      for (uint32_t r = 0; r < config_.replication; ++r) {
        const sim::NodeId store = stores_[(store_cursor_ + r) % stores_.size()];
        PutVarint64(&value, store);
        reply.stores.push_back(store);
      }
      store_cursor_ = (store_cursor_ + 1) % stores_.size();
      CO_RETURN_IF_ERROR(co_await db_->Put(BlockKey(req.block_id), value));
      reply.chunk_id = chunk_id;
      co_return reply;
    }
    case 1: {  // lookup
      auto value = co_await db_->Get(BlockKey(req.block_id));
      if (!value.ok()) {
        co_return value.status();
      }
      std::string_view data = *value;
      uint64_t chunk = 0, n = 0;
      GetVarint64(&data, &chunk);
      GetVarint64(&data, &n);
      reply.chunk_id = chunk;
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t s = 0;
        GetVarint64(&data, &s);
        reply.stores.push_back(static_cast<sim::NodeId>(s));
      }
      co_return reply;
    }
    case 2: {  // seal (persist the commit record)
      CO_RETURN_IF_ERROR(
          co_await db_->Put(BlockKey(req.block_id) + "_sealed", "1"));
      co_return reply;
    }
    case 3: {  // remove
      kv::WriteBatch batch;
      batch.Delete(BlockKey(req.block_id));
      batch.Delete(BlockKey(req.block_id) + "_sealed");
      CO_RETURN_IF_ERROR(co_await db_->Write(std::move(batch)));
      co_return reply;
    }
    default:
      co_return Status::InvalidArgument("block op");
  }
}

// ---- store server ----

void TectonicStoreServer::Start() {
  rpc_.Serve<TnChunkWriteRequest>(
      [this](sim::NodeId, TnChunkWriteRequest req) -> sim::Task<Result<TnChunkWriteReply>> {
        sim::Storage& disk = rpc_.machine().disk(0);
        co_await disk.ChargeWrite(kFsOverheadBytes);  // chunk-file metadata
        const uint64_t offset = tail_;
        const uint64_t size = req.data.size();
        Status s = co_await disk.WriteBlocks("tchunks", offset, std::move(req.data),
                                             req.checksum);
        if (!s.ok()) {
          co_return s;
        }
        chunk_offsets_[req.chunk_id] = {offset, size};
        tail_ += size;
        co_return TnChunkWriteReply{};
      });
  rpc_.Serve<TnChunkReadRequest>(
      [this](sim::NodeId, TnChunkReadRequest req) -> sim::Task<Result<TnChunkReadReply>> {
        auto it = chunk_offsets_.find(req.chunk_id);
        if (it == chunk_offsets_.end()) {
          co_return Status::NotFound("no such chunk");
        }
        sim::Storage& disk = rpc_.machine().disk(0);
        co_await disk.ChargeRead(kFsOverheadBytes);
        auto data = co_await disk.ReadBlocks("tchunks", it->second.first, it->second.second);
        if (!data.ok()) {
          co_return data.status();
        }
        TnChunkReadReply reply;
        reply.data = std::move(*data);
        if (auto crc = disk.PeekChecksum("tchunks", it->second.first)) {
          reply.checksum = *crc;
        }
        co_return reply;
      });
  rpc_.Serve<TnChunkDropRequest>(
      [this](sim::NodeId, TnChunkDropRequest req) -> sim::Task<Result<TnChunkDropReply>> {
        auto it = chunk_offsets_.find(req.chunk_id);
        if (it != chunk_offsets_.end()) {
          rpc_.machine().disk(0).DiscardBlocks("tchunks", it->second.first);
          chunk_offsets_.erase(it);
        }
        co_return TnChunkDropReply{};
      });
}

// ---- client ----

TectonicClient::TectonicClient(rpc::Node& rpc, std::vector<sim::NodeId> meta_nodes,
                               uint64_t seed)
    : rpc_(rpc), meta_nodes_(std::move(meta_nodes)), rng_(seed) {}

sim::Task<Status> TectonicClient::Put(std::string name, std::string data) {
  const uint32_t checksum = Crc32c(data);
  // Layer walk, each hop persisting before replying (recursive RPCs).
  TnCreateNameRequest create;
  create.name = name;
  auto created = co_await rpc_.Call(ShardForName(name), std::move(create),
                                    kRpcTimeout);
  if (!created.ok()) {
    co_return created.status();
  }
  TnFileOpRequest file_op;
  file_op.file_id = created->file_id;
  file_op.op = 0;
  auto block = co_await rpc_.Call(ShardFor(created->file_id), std::move(file_op),
                                  kRpcTimeout);
  if (!block.ok()) {
    co_return block.status();
  }
  TnBlockOpRequest alloc;
  alloc.block_id = block->block_id;
  alloc.size = data.size();
  alloc.op = 0;
  auto placed = co_await rpc_.Call(ShardFor(block->block_id), std::move(alloc),
                                   kRpcTimeout);
  if (!placed.ok()) {
    co_return placed.status();
  }
  // Chunk writes go to the n stores in parallel.
  const Bytes payload(std::move(data));
  std::vector<sim::Task<Status>> tasks;
  for (sim::NodeId store : placed->stores) {
    TnChunkWriteRequest write;
    write.chunk_id = placed->chunk_id;
    write.data = payload;
    write.checksum = checksum;
    tasks.push_back(rpc_.CallStatus(store, std::move(write), kRpcTimeout));
  }
  CO_RETURN_IF_ERROR(co_await sim::WhenAllOk(std::move(tasks)));
  // Seal/commit.
  TnBlockOpRequest seal;
  seal.block_id = block->block_id;
  seal.op = 2;
  auto sealed = co_await rpc_.Call(ShardFor(block->block_id), std::move(seal),
                                   kRpcTimeout);
  co_return sealed.ok() ? Status::Ok() : sealed.status();
}

sim::Task<Result<std::string>> TectonicClient::Get(std::string name) {
  TnLookupNameRequest lookup;
  lookup.name = name;
  auto found = co_await rpc_.Call(ShardForName(name), std::move(lookup),
                                  kRpcTimeout);
  if (!found.ok()) {
    co_return found.status();
  }
  TnFileOpRequest file_op;
  file_op.file_id = found->file_id;
  file_op.op = 1;
  auto block = co_await rpc_.Call(ShardFor(found->file_id), std::move(file_op),
                                  kRpcTimeout);
  if (!block.ok()) {
    co_return block.status();
  }
  TnBlockOpRequest block_op;
  block_op.block_id = block->block_id;
  block_op.op = 1;
  auto placed = co_await rpc_.Call(ShardFor(block->block_id), std::move(block_op),
                                   kRpcTimeout);
  if (!placed.ok()) {
    co_return placed.status();
  }
  if (placed->stores.empty()) {
    co_return Status::Internal("block without stores");
  }
  TnChunkReadRequest read;
  read.chunk_id = placed->chunk_id;
  const sim::NodeId store = placed->stores[rng_.Uniform(placed->stores.size())];
  auto data = co_await rpc_.Call(store, std::move(read), kRpcTimeout);
  if (!data.ok()) {
    co_return data.status();
  }
  co_return std::move(data->data).ToString();
}

sim::Task<Status> TectonicClient::Delete(std::string name) {
  const sim::NodeId name_shard = ShardForName(name);
  TnLookupNameRequest lookup;
  lookup.name = name;
  auto found = co_await rpc_.Call(name_shard, std::move(lookup), kRpcTimeout);
  if (!found.ok()) {
    co_return found.status();
  }
  TnFileOpRequest file_op;
  file_op.file_id = found->file_id;
  file_op.op = 1;
  auto block = co_await rpc_.Call(ShardFor(found->file_id), std::move(file_op),
                                  kRpcTimeout);
  if (!block.ok()) {
    co_return block.status();
  }
  TnBlockOpRequest block_op;
  block_op.block_id = block->block_id;
  block_op.op = 1;
  auto placed = co_await rpc_.Call(ShardFor(block->block_id), std::move(block_op),
                                   kRpcTimeout);

  TnDeleteNameRequest del;
  del.name = std::move(name);
  auto deleted = co_await rpc_.Call(name_shard, std::move(del), kRpcTimeout);
  if (!deleted.ok()) {
    co_return deleted.status();
  }
  TnFileOpRequest remove_file;
  remove_file.file_id = found->file_id;
  remove_file.op = 2;
  (void)co_await rpc_.Call(ShardFor(found->file_id), std::move(remove_file),
                           kRpcTimeout);
  TnBlockOpRequest remove_block;
  remove_block.block_id = block->block_id;
  remove_block.op = 3;
  (void)co_await rpc_.Call(ShardFor(block->block_id), std::move(remove_block),
                           kRpcTimeout);
  if (placed.ok()) {
    for (sim::NodeId store : placed->stores) {
      TnChunkDropRequest drop;
      drop.chunk_id = placed->chunk_id;
      rpc_.Notify(store, std::move(drop));
    }
  }
  co_return Status::Ok();
}

// ---- cluster ----

TectonicCluster::TectonicCluster(sim::EventLoop& loop, TectonicConfig config)
    : loop_(loop), config_(std::move(config)), net_(loop, config_.net) {
  sim::NodeId next_id = 2000;
  std::vector<sim::NodeId> meta_nodes;
  std::vector<sim::NodeId> store_nodes;
  for (int i = 0; i < config_.meta_machines; ++i) {
    meta_nodes.push_back(next_id++);
  }
  for (int i = 0; i < config_.store_machines; ++i) {
    store_nodes.push_back(next_id++);
  }
  sim::MachineParams params;
  params.disk = config_.disk;
  for (int i = 0; i < config_.meta_machines; ++i) {
    auto& h = metas_.emplace_back(loop_, net_, meta_nodes[i], "tnmeta" + std::to_string(i), params);
    h.server = std::make_unique<TectonicMetaServer>(*h.node, config_, store_nodes, i + 1);
  }
  for (int i = 0; i < config_.store_machines; ++i) {
    auto& h =
        stores_.emplace_back(loop_, net_, store_nodes[i], "tnstore" + std::to_string(i), params);
    h.machine->disk(0).set_store_volume_content(config_.store_volume_content);
    h.server = std::make_unique<TectonicStoreServer>(*h.node);
  }
  for (int i = 0; i < config_.client_machines; ++i) {
    auto& h =
        clients_.emplace_back(loop_, net_, next_id + i, "tnclient" + std::to_string(i), params);
    h.server = std::make_unique<TectonicClient>(*h.node, meta_nodes, 0x7ec70 + i);
  }
}

TectonicCluster::~TectonicCluster() = default;

Status TectonicCluster::Boot() {
  for (auto& s : stores_) {
    s.server->Start();
  }
  return rpc::StartAll(loop_, metas_) ? Status::Ok()
                                      : Status::Internal("tectonic meta failed to start");
}

}  // namespace cheetah::baselines
