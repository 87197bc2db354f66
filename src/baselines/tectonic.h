// Tectonic baseline (Pan et al., FAST'21), as characterized in §6 of the
// Cheetah paper: filesystem metadata disaggregated into Name, File, and
// Block layers, each hash-sharded over metadata servers and stored in a KV
// store; object data lives in chunks on store machines.
//
// A put walks the layers with sequential, individually-persisted RPCs
// (name -> file -> block -> chunk write -> seal) — the "multiple recursive
// RPCs" the paper blames for Tectonic's highest put latency; a get resolves
// the same chain before touching data.
#ifndef SRC_BASELINES_TECTONIC_H_
#define SRC_BASELINES_TECTONIC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/kv/db.h"
#include "src/rpc/host.h"
#include "src/rpc/node.h"
#include "src/workload/object_store.h"

namespace cheetah::baselines {

struct TectonicConfig {
  TectonicConfig() = default;
  int meta_machines = 3;   // host all three layers' shards
  int store_machines = 9;
  int client_machines = 3;
  uint32_t replication = 3;
  sim::NetParams net;
  sim::DiskParams disk;
  bool store_volume_content = true;
};

// ---- layer messages (one request type per layer hop) ----

struct TnCreateNameReply {
  TnCreateNameReply() = default;
  uint64_t file_id = 0;
  size_t wire_size() const { return 16; }
};
struct TnCreateNameRequest {
  using Response = TnCreateNameReply;
  TnCreateNameRequest() = default;
  std::string name;
  size_t wire_size() const { return 16 + name.size(); }
};

struct TnLookupNameReply {
  TnLookupNameReply() = default;
  uint64_t file_id = 0;
  size_t wire_size() const { return 16; }
};
struct TnLookupNameRequest {
  using Response = TnLookupNameReply;
  TnLookupNameRequest() = default;
  std::string name;
  size_t wire_size() const { return 16 + name.size(); }
};

struct TnDeleteNameReply {
  TnDeleteNameReply() = default;
  size_t wire_size() const { return 8; }
};
struct TnDeleteNameRequest {
  using Response = TnDeleteNameReply;
  TnDeleteNameRequest() = default;
  std::string name;
  size_t wire_size() const { return 16 + name.size(); }
};

struct TnFileOpReply {
  TnFileOpReply() = default;
  uint64_t block_id = 0;
  size_t wire_size() const { return 16; }
};
struct TnFileOpRequest {  // op: 0 = append block, 1 = lookup, 2 = remove
  using Response = TnFileOpReply;
  TnFileOpRequest() = default;
  uint64_t file_id = 0;
  int op = 0;
  size_t wire_size() const { return 24; }
};

struct TnBlockOpReply {
  TnBlockOpReply() = default;
  std::vector<sim::NodeId> stores;
  uint64_t chunk_id = 0;
  size_t wire_size() const { return 24 + stores.size() * 8; }
};
struct TnBlockOpRequest {  // op: 0 = allocate, 1 = lookup, 2 = seal, 3 = remove
  using Response = TnBlockOpReply;
  TnBlockOpRequest() = default;
  uint64_t block_id = 0;
  uint64_t size = 0;
  int op = 0;
  size_t wire_size() const { return 32; }
};

struct TnChunkWriteReply {
  TnChunkWriteReply() = default;
  size_t wire_size() const { return 8; }
};
struct TnChunkWriteRequest {
  using Response = TnChunkWriteReply;
  TnChunkWriteRequest() = default;
  uint64_t chunk_id = 0;
  Bytes data;
  uint32_t checksum = 0;
  size_t wire_size() const { return 24 + data.size(); }
};

struct TnChunkReadReply {
  TnChunkReadReply() = default;
  Bytes data;
  uint32_t checksum = 0;
  size_t wire_size() const { return 16 + data.size(); }
};
struct TnChunkReadRequest {
  using Response = TnChunkReadReply;
  TnChunkReadRequest() = default;
  uint64_t chunk_id = 0;
  size_t wire_size() const { return 16; }
};

struct TnChunkDropReply {
  TnChunkDropReply() = default;
  size_t wire_size() const { return 8; }
};
struct TnChunkDropRequest {
  using Response = TnChunkDropReply;
  TnChunkDropRequest() = default;
  uint64_t chunk_id = 0;
  size_t wire_size() const { return 16; }
};

// ---- servers ----

// One per meta machine; serves the shards of all three layers that hash to it.
class TectonicMetaServer {
 public:
  TectonicMetaServer(rpc::Node& rpc, const TectonicConfig& config,
                     std::vector<sim::NodeId> stores, uint64_t seed);
  sim::Task<Status> Start();

 private:
  sim::Task<Result<TnCreateNameReply>> HandleCreate(sim::NodeId, TnCreateNameRequest);
  sim::Task<Result<TnLookupNameReply>> HandleLookup(sim::NodeId, TnLookupNameRequest);
  sim::Task<Result<TnDeleteNameReply>> HandleDeleteName(sim::NodeId, TnDeleteNameRequest);
  sim::Task<Result<TnFileOpReply>> HandleFileOp(sim::NodeId, TnFileOpRequest);
  sim::Task<Result<TnBlockOpReply>> HandleBlockOp(sim::NodeId, TnBlockOpRequest);

  rpc::Node& rpc_;
  TectonicConfig config_;
  std::vector<sim::NodeId> stores_;
  std::unique_ptr<kv::DB> db_;
  uint64_t next_id_;
  uint32_t store_cursor_ = 0;
};

class TectonicStoreServer {
 public:
  explicit TectonicStoreServer(rpc::Node& rpc) : rpc_(rpc) {}
  void Start();

 private:
  rpc::Node& rpc_;
  uint64_t tail_ = 0;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> chunk_offsets_;  // id -> (off, len)
};

class TectonicClient : public workload::ObjectStore {
 public:
  TectonicClient(rpc::Node& rpc, std::vector<sim::NodeId> meta_nodes, uint64_t seed);

  sim::Task<Status> Put(std::string name, std::string data) override;
  sim::Task<Result<std::string>> Get(std::string name) override;
  sim::Task<Status> Delete(std::string name) override;

 private:
  sim::NodeId ShardFor(uint64_t key) const {
    return meta_nodes_[Mix64(key) % meta_nodes_.size()];
  }
  sim::NodeId ShardForName(const std::string& name) const {
    return meta_nodes_[Fnv1a64(name) % meta_nodes_.size()];
  }

  rpc::Node& rpc_;
  std::vector<sim::NodeId> meta_nodes_;
  Rng rng_;
};

class TectonicCluster {
 public:
  TectonicCluster(sim::EventLoop& loop, TectonicConfig config);
  ~TectonicCluster();

  Status Boot();

  int num_clients() const { return static_cast<int>(clients_.size()); }
  TectonicClient& client(int i) { return *clients_.at(i).server; }
  sim::Actor& client_actor(int i) { return clients_.at(i).machine->actor(); }
  sim::EventLoop& loop() { return loop_; }

 private:
  sim::EventLoop& loop_;
  TectonicConfig config_;
  sim::Network net_;
  std::vector<rpc::Host<TectonicMetaServer>> metas_;
  std::vector<rpc::Host<TectonicStoreServer>> stores_;
  std::vector<rpc::Host<TectonicClient>> clients_;
};

}  // namespace cheetah::baselines

#endif  // SRC_BASELINES_TECTONIC_H_
