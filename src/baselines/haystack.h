// Haystack baseline (Beaver et al., OSDI'10), as characterized in §2.2/§2.3
// of the Cheetah paper: a directory service holds the volume metadata Mv; the
// store machines append needles to large volume files, keeping the offset
// metadata Mo in an in-memory index that is checkpointed asynchronously.
//
// The put path enforces the paper's Fig. 1 distributed write ordering:
//   (1) the client persists a write-ahead meta-log Ml on its own disk, then
//   (2) the directory persists Mv (replicated synchronously) and replies, then
//   (3) the n stores persist needle data + Mo and reply.
// Each arrow is a wait on persistence — the serialization Cheetah removes.
//
// delete is the three-step §2.2 sequence: query the directory, flag the
// needle on every store, update the directory. Space comes back only via
// compaction (Fig. 19), which rewrites a volume's live needles.
#ifndef SRC_BASELINES_HAYSTACK_H_
#define SRC_BASELINES_HAYSTACK_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/kv/db.h"
#include "src/obs/metrics.h"
#include "src/rpc/host.h"
#include "src/rpc/node.h"
#include "src/workload/object_store.h"

namespace cheetah::baselines {

struct HaystackConfig {
  HaystackConfig() = default;
  int store_machines = 9;
  int client_machines = 3;
  uint32_t replication = 3;          // store replicas per logical volume
  uint32_t volumes_per_store = 8;    // logical volumes anchored per store
  uint64_t volume_capacity = GiB(4);
  Nanos checkpoint_interval = Millis(500);  // async index checkpoint cadence
  sim::NetParams net;
  sim::DiskParams disk;
  bool store_volume_content = true;
};

// ---- messages ----

struct HsAssignReply {
  HsAssignReply() = default;
  uint32_t volume = 0;
  std::vector<sim::NodeId> stores;
  size_t wire_size() const { return 24 + stores.size() * 8; }
};
struct HsAssignRequest {
  using Response = HsAssignReply;
  HsAssignRequest() = default;
  std::string name;
  uint64_t size = 0;
  size_t wire_size() const { return 24 + name.size(); }
};

struct HsLookupReply {
  HsLookupReply() = default;
  uint32_t volume = 0;
  std::vector<sim::NodeId> stores;
  size_t wire_size() const { return 24 + stores.size() * 8; }
};
struct HsLookupRequest {
  using Response = HsLookupReply;
  HsLookupRequest() = default;
  std::string name;
  size_t wire_size() const { return 16 + name.size(); }
};

struct HsDirDeleteReply {
  HsDirDeleteReply() = default;
  size_t wire_size() const { return 8; }
};
struct HsDirDeleteRequest {
  using Response = HsDirDeleteReply;
  HsDirDeleteRequest() = default;
  std::string name;
  size_t wire_size() const { return 16 + name.size(); }
};

struct HsDirReplicateReply {
  HsDirReplicateReply() = default;
  size_t wire_size() const { return 8; }
};
struct HsDirReplicateRequest {
  using Response = HsDirReplicateReply;
  HsDirReplicateRequest() = default;
  std::string key;
  std::string value;  // empty = delete
  size_t wire_size() const { return 16 + key.size() + value.size(); }
};

struct HsWriteReply {
  HsWriteReply() = default;
  uint64_t offset = 0;
  size_t wire_size() const { return 16; }
};
struct HsWriteRequest {
  using Response = HsWriteReply;
  HsWriteRequest() = default;
  uint32_t volume = 0;
  std::string name;
  Bytes data;
  uint32_t checksum = 0;
  size_t wire_size() const { return 32 + name.size() + data.size(); }
};

struct HsReadReply {
  HsReadReply() = default;
  Bytes data;
  uint32_t checksum = 0;
  size_t wire_size() const { return 16 + data.size(); }
};
struct HsReadRequest {
  using Response = HsReadReply;
  HsReadRequest() = default;
  uint32_t volume = 0;
  std::string name;
  size_t wire_size() const { return 24 + name.size(); }
};

struct HsFlagReply {
  HsFlagReply() = default;
  size_t wire_size() const { return 8; }
};
struct HsFlagRequest {
  using Response = HsFlagReply;
  HsFlagRequest() = default;
  uint32_t volume = 0;
  std::string name;
  size_t wire_size() const { return 24 + name.size(); }
};

struct HsCompactReply {
  HsCompactReply() = default;
  uint64_t bytes_rewritten = 0;
  size_t wire_size() const { return 16; }
};
struct HsCompactRequest {
  using Response = HsCompactReply;
  HsCompactRequest() = default;
  uint32_t volume = 0;
  size_t wire_size() const { return 16; }
};

// ---- servers ----

class HaystackDirectory {
 public:
  HaystackDirectory(rpc::Node& rpc, bool primary, std::vector<sim::NodeId> dir_peers);
  sim::Task<Status> Start();

  // Volume layout is installed at boot by the cluster builder.
  struct VolumeInfo {
    uint32_t id = 0;
    std::vector<sim::NodeId> stores;
    uint64_t assigned_bytes = 0;
    uint64_t capacity = 0;
  };
  void InstallVolumes(std::vector<VolumeInfo> volumes) { volumes_ = std::move(volumes); }

 private:
  sim::Task<Result<HsAssignReply>> HandleAssign(sim::NodeId src, HsAssignRequest req);
  sim::Task<Result<HsLookupReply>> HandleLookup(sim::NodeId src, HsLookupRequest req);
  sim::Task<Result<HsDirDeleteReply>> HandleDelete(sim::NodeId src, HsDirDeleteRequest req);
  sim::Task<Result<HsDirReplicateReply>> HandleReplicate(sim::NodeId src,
                                                         HsDirReplicateRequest req);
  sim::Task<Status> ReplicateToPeers(std::string key, std::string value);

  rpc::Node& rpc_;
  bool primary_;
  std::vector<sim::NodeId> dir_peers_;
  std::unique_ptr<kv::DB> db_;
  std::vector<VolumeInfo> volumes_;
  uint32_t assign_cursor_ = 0;
};

class HaystackStore {
 public:
  HaystackStore(rpc::Node& rpc, const HaystackConfig& config);
  void Start();

  // Live registry counters ("haystack@<node>#<i>.*").
  struct Counters {
    obs::Scope scope;
    obs::Counter& writes = *scope.counter("writes");
    obs::Counter& reads = *scope.counter("reads");
    obs::Counter& flags = *scope.counter("flags");
    obs::Counter& checkpoints = *scope.counter("checkpoints");
    obs::Counter& compactions = *scope.counter("compactions");
    obs::Counter& compacted_bytes = *scope.counter("compacted_bytes");
  };
  const Counters& stats() const { return counters_; }

  // Bytes of live vs total needle data (storage efficiency, Fig. 18).
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  struct Needle {
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t checksum = 0;
    bool deleted = false;
    uint32_t generation = 0;  // volume file holding the bytes
  };
  struct Volume {
    uint64_t tail = 0;  // next free offset in the current generation
    uint64_t dead_bytes = 0;
    uint32_t generation = 0;  // bumped by compaction (new volume file)
    std::unordered_map<std::string, Needle> index;  // the in-memory Mo KV
    uint64_t dirty = 0;  // index mutations since the last checkpoint
  };

  // The live needle `name` of `volume`, or null. Handlers look it up again
  // after every disk wait: a finishing compaction replaces the whole index.
  const Needle* FindLive(uint32_t volume, const std::string& name) const;

  std::string DeviceName(uint32_t volume, uint32_t generation) const {
    return "hvol_" + std::to_string(volume) + "_g" + std::to_string(generation);
  }
  std::string IndexFile(uint32_t volume) const {
    return "hidx_" + std::to_string(volume);
  }

  sim::Task<Result<HsWriteReply>> HandleWrite(sim::NodeId src, HsWriteRequest req);
  sim::Task<Result<HsReadReply>> HandleRead(sim::NodeId src, HsReadRequest req);
  sim::Task<Result<HsFlagReply>> HandleFlag(sim::NodeId src, HsFlagRequest req);
  sim::Task<Result<HsCompactReply>> HandleCompact(sim::NodeId src, HsCompactRequest req);
  sim::Task<> CheckpointLoop();

  rpc::Node& rpc_;
  HaystackConfig config_;
  std::map<uint32_t, Volume> volumes_;
  uint64_t live_bytes_ = 0;
  uint64_t total_bytes_ = 0;
  Counters counters_;
};

// ---- client ----

class HaystackClient : public workload::ObjectStore {
 public:
  HaystackClient(rpc::Node& rpc, sim::NodeId primary_dir, uint64_t seed);

  sim::Task<Status> Put(std::string name, std::string data) override;
  sim::Task<Result<std::string>> Get(std::string name) override;
  sim::Task<Status> Delete(std::string name) override;

 private:
  rpc::Node& rpc_;
  sim::NodeId primary_dir_;
  Rng rng_;
  uint64_t next_log_ = 0;
};

// ---- cluster builder ----

class HaystackCluster {
 public:
  HaystackCluster(sim::EventLoop& loop, HaystackConfig config);
  ~HaystackCluster();

  Status Boot();

  int num_clients() const { return static_cast<int>(clients_.size()); }
  HaystackClient& client(int i) { return *clients_.at(i).server; }
  sim::Actor& client_actor(int i) { return clients_.at(i).machine->actor(); }
  HaystackStore& store(int i) { return *stores_.at(i).server; }
  int num_stores() const { return static_cast<int>(stores_.size()); }

  // Triggers compaction of every volume on every store (Fig. 19) and returns
  // once all compaction RPCs are issued (they proceed in the background).
  void TriggerCompactionAll();

  sim::EventLoop& loop() { return loop_; }

 private:
  sim::EventLoop& loop_;
  HaystackConfig config_;
  sim::Network net_;
  std::vector<rpc::Host<HaystackDirectory>> dirs_;
  std::vector<rpc::Host<HaystackStore>> stores_;
  std::vector<rpc::Host<HaystackClient>> clients_;
  std::vector<HaystackDirectory::VolumeInfo> volumes_;
};

}  // namespace cheetah::baselines

#endif  // SRC_BASELINES_HAYSTACK_H_
