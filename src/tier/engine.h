// Background promotion/demotion engine for storage-class tiering.
//
// A meta-server-resident actor, like the Scrubber. It sees MetaServer only
// through its public interface: ForEachSettledObject walks every PG this
// server is primary for, SwapObjectRecord publishes a new record, and the
// PgState allocates and frees stripe space. Each pass demotes settled, cold
// replica objects to K+M erasure-coded stripes. All movement I/O rides the
// maintenance QoS class (RepairRead/RepairWrite), so a demotion wave never
// contends with foreground puts/gets.
//
// Demotion state machine per object:
//   1. allocate shard-sized extents on one of the PG's EC stripe LVs
//      (RE-DATA-style: the allocation is revoked in full on any failure);
//   2. verified-read the payload from a healthy replica, encode k+m chunks,
//      write chunk j to stripe PV j with its own CRC32C as the stored
//      checksum — the chunks are invisible until the metadata swap, so this
//      whole phase needs no exclusion against foreground ops;
//   3. swap (MetaServer::SwapObjectRecord): under the per-name relocation
//      guard (puts/deletes answer kUnavailable and retry), re-read the
//      ObMeta and abort if the object changed underneath (tombstoned,
//      recreated, or pending again), persist the EC record through the
//      normal replication path, then free + discard the old replica extents.
// A delete that slipped past the guard before the swap persisted is caught
// by a post-persist re-read; the stripe is then revoked like any failure.
#ifndef SRC_TIER_ENGINE_H_
#define SRC_TIER_ENGINE_H_

#include <map>
#include <string>
#include <vector>

#include "src/cluster/topology.h"
#include "src/core/data_plane.h"
#include "src/core/metax.h"
#include "src/core/options.h"
#include "src/obs/metrics.h"
#include "src/rpc/node.h"

namespace cheetah::core {
class MetaServer;
}  // namespace cheetah::core

namespace cheetah::tier {

class TierEngine {
 public:
  TierEngine(core::MetaServer& ms, rpc::Node& rpc, const core::CheetahOptions& options);

  // Periodic driver: sleeps options.tier.tier_scan_interval between passes.
  // Spawned by MetaServer::Init when the engine is enabled.
  sim::Task<> Loop();

  // One full demotion scan of every ready PG this server is primary for.
  sim::Task<> TierAll();

  // Live registry counters ("tier@<node>#<i>.*").
  struct Counters {
    obs::Scope scope;
    obs::Counter& scanned = *scope.counter("scanned");  // settled replica objects considered
    obs::Counter& demotions = *scope.counter("demotions");  // objects swapped to the EC class
    obs::Counter& demote_aborts = *scope.counter("demote_aborts");  // object changed underneath
    obs::Counter& demote_failures = *scope.counter("demote_failures");  // I/O or persist errors
    obs::Counter& bytes_demoted = *scope.counter("bytes_demoted");  // now living as EC stripes
  };
  const Counters& stats() const { return counters_; }

  // Access recency for the demotion policy: a get keeps the object hot.
  void NoteAccess(const std::string& name, Nanos at) { last_access_[name] = at; }
  void ForgetAccess(const std::string& name) { last_access_.erase(name); }

 private:
  // Demotes `meta` if it is a cold replica object.
  sim::Task<> ConsiderObject(cluster::PgId pg, std::string name, core::ObMeta meta);
  sim::Task<> DemoteObject(cluster::PgId pg, std::string name, core::ObMeta meta);

  core::MetaServer& ms_;
  rpc::Node& rpc_;
  const core::CheetahOptions& options_;
  core::DataPlane data_{rpc_};
  // Last get time per object name (MetaServer reports gets and deletes).
  std::map<std::string, Nanos> last_access_;

  Counters counters_;
};

}  // namespace cheetah::tier

#endif  // SRC_TIER_ENGINE_H_
