// The topology map: the manager-maintained global state every server and
// client proxy must agree on (§5.1).
//
// It holds (i) meta/data server membership, (ii) the logical volumes of each
// PG's volume group and the logical-to-physical volume mapping, and (iii) the
// view number, incremented on every change. Requests carry the sender's view
// number; servers reject mismatches with kStaleView, which is how a lagging
// party learns to refresh.
#ifndef SRC_CLUSTER_TOPOLOGY_H_
#define SRC_CLUSTER_TOPOLOGY_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crush/crush.h"
#include "src/sim/network.h"

namespace cheetah::cluster {

using PgId = uint32_t;
using LvId = uint32_t;
using PvId = uint32_t;

struct PhysicalVolume {
  PhysicalVolume() = default;
  PvId id = 0;
  sim::NodeId data_server = sim::kInvalidNode;
  uint32_t disk_index = 0;
  bool healthy = true;

  // Name of the raw block volume on the data server's disk.
  std::string DeviceName() const { return "pv_" + std::to_string(id); }
};

struct LogicalVolume {
  LogicalVolume() = default;
  LvId id = 0;
  std::vector<PvId> replicas;  // n physical volumes holding identical data
  bool writable = true;
  uint64_t capacity_bytes = 0;
  uint32_t block_size = 4096;
  // EC stripe LV (src/tier): `replicas` holds K+M physical volumes that each
  // store a *different* Reed-Solomon chunk at the same extent offsets, so one
  // allocation of shard-sized extents reserves the range on the whole stripe.
  // capacity_bytes is the per-chunk (per-PV) capacity.
  bool ec_stripe = false;

  uint64_t TotalBlocks() const { return capacity_bytes / block_size; }
};

// One PV of a logical volume as a data-plane request addresses it, copied out
// of the map: a topology push move-assigns the map while a coroutine is
// suspended, so no LogicalVolume/PhysicalVolume pointer may be held across a
// co_await.
struct ReplicaTarget {
  std::string device;
  uint32_t disk_index = 0;
  sim::NodeId node = sim::kInvalidNode;
};

// A logical volume's block size and its replica (or EC chunk) targets, in
// `replicas` order.
struct LvTargets {
  uint32_t block_size = 4096;
  std::vector<ReplicaTarget> targets;
};

// Which PVs TopologyMap::TargetsOf keeps.
enum class PvFilter : uint8_t {
  kSkipMissing,    // drop PVs absent from the map
  kSkipUnhealthy,  // also drop PVs marked unhealthy
  kRequireAll,     // any absent PV fails the lookup (EC stripes: j-th PV = chunk j)
};

// Live PG migration phases for a planned drain (Prepare -> DoubleWrite ->
// Catchup -> Cutover -> Release). Only the first three are *states* in the
// topology: Cutover is the atomic view bump that removes the draining node
// from the CRUSH map and erases the migration entries, and Release is the
// post-cutover cleanup (the drained node is retired, forwarding stops because
// the entries are gone).
enum class MigrationPhase : uint8_t {
  kPrepare = 0,     // destination chosen, published; no traffic forwarded yet
  kDoubleWrite = 1, // source additionally replicates every write to the dest
  kCatchup = 2,     // dest is pulling the PG's history; double-write continues
};

// One PG's in-flight migration, replicated in the topology so every server
// and proxy agrees on who forwards where at each view.
struct PgMigration {
  PgMigration() = default;
  MigrationPhase phase = MigrationPhase::kPrepare;
  sim::NodeId source = sim::kInvalidNode;       // current primary being drained
  sim::NodeId destination = sim::kInvalidNode;  // post-cutover owner
};

struct TopologyMap {
  TopologyMap() = default;

  uint64_t view = 0;
  uint32_t pg_count = 0;
  uint32_t replication = 3;

  crush::Map meta_crush;                 // meta servers, keyed by NodeId
  std::vector<sim::NodeId> data_servers;
  std::map<PvId, PhysicalVolume> pvs;
  std::map<LvId, LogicalVolume> lvs;
  std::map<PgId, std::vector<LvId>> vgs;  // each PG's volume group
  // Each PG's pool of EC stripe LVs, disjoint from `vgs` so replica
  // allocation never lands on a stripe (and vice versa). Empty when the EC
  // tier is disabled.
  std::map<PgId, std::vector<LvId>> ec_vgs;
  // In-flight planned migrations, keyed by PG. Non-empty only while a drain
  // is running; cutover erases every entry in the same view bump that removes
  // the drained node from the CRUSH map.
  std::map<PgId, PgMigration> migrations;
  // Meta servers mid-drain (still CRUSH members, shedding primaries) and
  // retired ones (drained + removed; the re-admission sweep must skip them or
  // a decommissioned node would instantly rejoin on its next heartbeat).
  std::vector<sim::NodeId> draining_metas;
  std::vector<sim::NodeId> retired_metas;

  // --- derived lookups ---
  PgId PgOf(std::string_view object_name) const {
    return crush::Map::NameToPg(object_name, pg_count);
  }
  std::vector<sim::NodeId> MetaServersOf(PgId pg) const {
    return meta_crush.Select(pg, replication);
  }
  sim::NodeId PrimaryOf(PgId pg) const {
    return meta_crush.size() == 0 ? sim::kInvalidNode : meta_crush.Primary(pg);
  }

  const LogicalVolume* FindLv(LvId id) const {
    auto it = lvs.find(id);
    return it == lvs.end() ? nullptr : &it->second;
  }
  const PhysicalVolume* FindPv(PvId id) const {
    auto it = pvs.find(id);
    return it == pvs.end() ? nullptr : &it->second;
  }
  // Snapshots `lv`'s block size and targets; nullopt if the LV is unknown or,
  // under kRequireAll, one of its PVs is.
  std::optional<LvTargets> TargetsOf(LvId lv, PvFilter filter) const;
  const PgMigration* MigrationOf(PgId pg) const {
    auto it = migrations.find(pg);
    return it == migrations.end() ? nullptr : &it->second;
  }
  bool IsDraining(sim::NodeId node) const {
    return std::find(draining_metas.begin(), draining_metas.end(), node) !=
           draining_metas.end();
  }
  bool IsRetired(sim::NodeId node) const {
    return std::find(retired_metas.begin(), retired_metas.end(), node) !=
           retired_metas.end();
  }

  // PGs for which `node` is in the replica set / is primary.
  std::vector<PgId> PgsOf(sim::NodeId node) const;
  std::vector<PgId> PrimaryPgsOf(sim::NodeId node) const;

  std::string Serialize() const;
  static Result<TopologyMap> Deserialize(std::string_view data);

  // Structural equality used by tests.
  bool SameShape(const TopologyMap& other) const;
};

}  // namespace cheetah::cluster

#endif  // SRC_CLUSTER_TOPOLOGY_H_
