// Ceph-like baseline (Weil et al., OSDI'06; BlueStore), as characterized in
// §6.1 of the Cheetah paper: hash-based placement (CRUSH maps objects' PGs
// straight onto OSDs), a layered OSD pipeline whose processing cost hurts
// latency, local write ordering on the data path (journal before data for
// small objects — the "write logs for small (<=32KB) objects"), and
// expansion-triggered backfill migration (Fig. 14's "Ceph in migration").
//
// The primary OSD coordinates: it journals + writes locally and replicates
// to the n-1 secondaries, acking the client only after every replica
// persisted. get/delete also go through the primary.
#ifndef SRC_BASELINES_CEPH_H_
#define SRC_BASELINES_CEPH_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/crush/crush.h"
#include "src/kv/db.h"
#include "src/obs/metrics.h"
#include "src/rpc/host.h"
#include "src/rpc/node.h"
#include "src/sim/sync.h"
#include "src/workload/object_store.h"

namespace cheetah::baselines {

struct CephConfig {
  CephConfig() = default;
  int osd_machines = 9;
  int client_machines = 3;
  uint32_t pg_count = 64;
  uint32_t replication = 3;
  // Per-op OSD pipeline cost (transaction build, queue hops, crc): the
  // layered-design overhead §6.1 attributes Ceph's latency to.
  Nanos osd_op_cpu = Micros(250);
  sim::NetParams net;
  sim::DiskParams disk;
  bool store_volume_content = true;
};

// ---- messages ----

struct CWriteReply {
  CWriteReply() = default;
  size_t wire_size() const { return 8; }
};
struct CWriteRequest {
  using Response = CWriteReply;
  CWriteRequest() = default;
  uint64_t epoch = 0;
  uint32_t pg = 0;
  std::string name;
  Bytes data;
  uint32_t checksum = 0;
  size_t wire_size() const { return 40 + name.size() + data.size(); }
};

struct CRepWriteReply {
  CRepWriteReply() = default;
  size_t wire_size() const { return 8; }
};
struct CRepWriteRequest {
  using Response = CRepWriteReply;
  CRepWriteRequest() = default;
  uint64_t epoch = 0;
  uint32_t pg = 0;
  std::string name;
  Bytes data;
  uint32_t checksum = 0;
  size_t wire_size() const { return 40 + name.size() + data.size(); }
};

struct CReadReply {
  CReadReply() = default;
  Bytes data;
  uint32_t checksum = 0;
  size_t wire_size() const { return 16 + data.size(); }
};
struct CReadRequest {
  using Response = CReadReply;
  CReadRequest() = default;
  uint64_t epoch = 0;
  uint32_t pg = 0;
  std::string name;
  size_t wire_size() const { return 32 + name.size(); }
};

struct CDeleteReply {
  CDeleteReply() = default;
  size_t wire_size() const { return 8; }
};
struct CDeleteRequest {
  using Response = CDeleteReply;
  CDeleteRequest() = default;
  uint64_t epoch = 0;
  uint32_t pg = 0;
  std::string name;
  bool replicate = true;  // false on the secondary hop
  size_t wire_size() const { return 32 + name.size(); }
};

// Backfill: the new acting member pulls a PG's objects from a veteran.
struct CBackfillReply {
  CBackfillReply() = default;
  struct Obj {
    Obj() = default;
    std::string name;
    Bytes data;
    uint32_t checksum = 0;
  };
  std::vector<Obj> objects;
  uint64_t total_bytes = 0;
  size_t wire_size() const { return 16 + total_bytes + objects.size() * 32; }
};
struct CBackfillRequest {
  using Response = CBackfillReply;
  CBackfillRequest() = default;
  uint32_t pg = 0;
  size_t wire_size() const { return 16; }
};

// ---- OSD ----

class CephOsd {
 public:
  CephOsd(rpc::Node& rpc, const CephConfig& config);
  sim::Task<Status> Start();

  // Installs a new OSD map; backfill of newly-acquired PGs starts in the
  // background against `veteran_of` (the previous acting primary).
  void InstallMap(crush::Map map, uint64_t epoch,
                  const std::map<uint32_t, sim::NodeId>& previous_primaries);

  // Live registry counters ("ceph@<node>#<i>.*").
  struct Counters {
    obs::Scope scope;
    obs::Counter& writes = *scope.counter("writes");
    obs::Counter& reads = *scope.counter("reads");
    obs::Counter& journal_bytes = *scope.counter("journal_bytes");
    obs::Counter& backfilled_objects = *scope.counter("backfilled_objects");
    obs::Counter& backfill_bytes = *scope.counter("backfill_bytes");
  };
  const Counters& stats() const { return counters_; }

 private:
  struct ObjInfo {
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t checksum = 0;
  };

  // FIFO async mutex: Ceph serializes all ops within a PG (the PG lock).
  struct PgLock {
    bool held = false;
    std::deque<std::shared_ptr<sim::Event>> waiters;
  };
  sim::Task<> LockPg(uint32_t pg);
  void UnlockPg(uint32_t pg);

  sim::Task<Status> LocalWrite(const std::string& name, Bytes data,
                               uint32_t checksum);
  sim::Task<Result<CWriteReply>> HandleWrite(sim::NodeId, CWriteRequest req);
  sim::Task<Result<CRepWriteReply>> HandleRepWrite(sim::NodeId, CRepWriteRequest req);
  sim::Task<Result<CReadReply>> HandleRead(sim::NodeId, CReadRequest req);
  sim::Task<Result<CDeleteReply>> HandleDelete(sim::NodeId, CDeleteRequest req);
  sim::Task<Result<CBackfillReply>> HandleBackfill(sim::NodeId, CBackfillRequest req);
  sim::Task<> BackfillPg(uint32_t pg, sim::NodeId source);

  rpc::Node& rpc_;
  CephConfig config_;
  crush::Map map_;
  uint64_t epoch_ = 0;
  std::unique_ptr<kv::DB> db_;  // BlueStore's RocksDB (object metadata)
  std::unordered_map<std::string, ObjInfo> objects_;
  std::map<uint32_t, PgLock> pg_locks_;
  uint64_t tail_ = 0;
  Counters counters_;
};

// ---- client ----

class CephClient : public workload::ObjectStore {
 public:
  CephClient(rpc::Node& rpc, const CephConfig& config, uint64_t seed);

  void InstallMap(crush::Map map, uint64_t epoch) {
    map_ = std::move(map);
    epoch_ = epoch;
  }

  sim::Task<Status> Put(std::string name, std::string data) override;
  sim::Task<Result<std::string>> Get(std::string name) override;
  sim::Task<Status> Delete(std::string name) override;

 private:
  rpc::Node& rpc_;
  CephConfig config_;
  crush::Map map_;
  uint64_t epoch_ = 0;
  Rng rng_;
};

// ---- cluster ----

class CephCluster {
 public:
  CephCluster(sim::EventLoop& loop, CephConfig config);
  ~CephCluster();

  Status Boot();

  int num_clients() const { return static_cast<int>(clients_.size()); }
  CephClient& client(int i) { return *clients_.at(i).server; }
  sim::Actor& client_actor(int i) { return clients_.at(i).machine->actor(); }
  CephOsd& osd(int i) { return *osds_.at(i).server; }
  int num_osds() const { return static_cast<int>(osds_.size()); }
  sim::EventLoop& loop() { return loop_; }

  // Expansion: adds an OSD machine, bumps the map epoch, and kicks off
  // backfill of the remapped PGs (the Fig. 14 migration scenario).
  void AddOsd();

  // Failure: removes OSD i from the map (and kills its machine); the new
  // acting members re-replicate its PGs from the surviving replicas
  // (the §6.3 disk-failure recovery comparison).
  void FailOsd(int i);

 private:
  // Wires the next OSD machine, builds its server (not started) and adds it
  // to the map.
  void AddOsdHost();

  void DisseminateMap(const std::map<uint32_t, sim::NodeId>& previous_primaries);

  sim::EventLoop& loop_;
  CephConfig config_;
  sim::Network net_;
  crush::Map map_;
  uint64_t epoch_ = 1;
  sim::NodeId next_osd_id_ = 3000;
  std::vector<rpc::Host<CephOsd>> osds_;
  std::vector<rpc::Host<CephClient>> clients_;
};

}  // namespace cheetah::baselines

#endif  // SRC_BASELINES_CEPH_H_
