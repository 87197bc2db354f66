// Cheetah meta server: the rich meta service (§3.1).
//
// Maintains MetaX (volume metadata Mv + offset metadata Mo + meta-log Ml) in
// an embedded KV store, written atomically per put (§5.2, Table 1). The
// primary of a PG allocates logical volumes from the PG's VG and in-volume
// blocks with a bitmap allocator, replies to the proxy *before* persistence
// (the paper's removal of distributed ordering, Fig. 4), replicates MetaX to
// the backups, and later notifies the proxy when everything is persisted.
//
// Recovery duties (§5.3):
//  - On a view change it pulls newly-responsible PGs from surviving replicas
//    and rebuilds per-LV allocators and per-PG opseq/pending state by
//    scanning the PG's key range.
//  - A cleaner loop deletes the logs of committed puts (syncing the on-disk
//    bitmaps, §5.2), and verifies stale uncommitted puts against the data
//    servers — completing them if the data landed, revoking them otherwise.
//  - Gets on pending objects trigger the same verification synchronously
//    (§4.3.2).
#ifndef SRC_CORE_META_SERVER_H_
#define SRC_CORE_META_SERVER_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/messages.h"
#include "src/core/data_plane.h"
#include "src/core/messages.h"
#include "src/core/metax.h"
#include "src/core/options.h"
#include "src/core/pg_state.h"
#include "src/kv/db.h"
#include "src/obs/metrics.h"
#include "src/rpc/node.h"

namespace cheetah::tier {
class TierEngine;
}  // namespace cheetah::tier

namespace cheetah::core {

class Scrubber;

class MetaServer {
 public:
  MetaServer(rpc::Node& rpc, CheetahOptions options,
             std::vector<sim::NodeId> manager_nodes, uint64_t seed);
  ~MetaServer();  // out of line: scrubber_/tier_ own incomplete types here

  // Registers handlers and spawns init/heartbeat/cleaner loops.
  void Start();

  // Live registry counters ("meta@<node>#<i>.*"); scrub counts live in
  // scrubber().stats().
  struct Counters {
    obs::Scope scope;
    obs::Counter& put_allocs = *scope.counter("put_allocs");
    obs::Counter& gets = *scope.counter("gets");
    obs::Counter& deletes = *scope.counter("deletes");
    obs::Counter& replications = *scope.counter("replications");
    obs::Counter& pg_pulls_served = *scope.counter("pg_pulls_served");
    obs::Counter& recovered_kvs = *scope.counter("recovered_kvs");  // pulled in on adoption
    obs::Counter& completed_puts = *scope.counter("completed_puts");  // §5.3 verified-complete
    obs::Counter& revoked_puts = *scope.counter("revoked_puts");
    obs::Counter& logs_cleaned = *scope.counter("logs_cleaned");
    obs::Counter& migrated_objects = *scope.counter("migrated_objects");  // Cheetah-NoVG only
  };
  const Counters& stats() const { return counters_; }

  const cluster::TopologyMap& topology() const { return topo_; }
  uint64_t view() const { return topo_.view; }
  bool HasLease() const;
  bool IsReady(cluster::PgId pg) const { return ready_pgs_.contains(pg); }
  // True while this server is adopting a view (pulling PGs); chaos tests use
  // it to aim crashes at the middle of a view change.
  bool adopting() const { return adopting_; }
  size_t pending_puts() const { return pgs_.pending().size(); }
  // Pending puts, allocators and dirty bitmaps of this server's PGs.
  PgState& pg_state() { return pgs_; }

  // Audits every primary PG once (also runs periodically if
  // options.scrub_interval > 0). Delegates to the Scrubber.
  sim::Task<> ScrubNow();
  Scrubber& scrubber() { return *scrubber_; }
  // Runs one tiering (demotion) pass immediately (also runs periodically if
  // options.tier.tier_scan_interval > 0). Delegates to the TierEngine.
  sim::Task<> TierNow();
  tier::TierEngine& tier_engine() { return *tier_; }

  // Calls `visit` for every settled object of every PG this server is the
  // ready primary of and that is not migrating, skipping PGs `scan_pg`
  // rejects. Objects with a pending put or under the relocation guard are
  // skipped; a view change or a migration starting mid-scan ends that PG's
  // scan.
  using ObjectVisitor = std::function<sim::Task<>(cluster::PgId, std::string, ObMeta)>;
  sim::Task<> ForEachSettledObject(std::function<bool(cluster::PgId)> scan_pg,
                                   ObjectVisitor visit);
  // Replaces name's record `expected` by `replacement` under the relocation
  // guard (puts and deletes bounce for the one persist round it takes).
  // kAborted if the record changed first (deleted, recreated, moved, or
  // pending again) or a delete already past the guard overwrote the swap;
  // another error if the persist failed.
  sim::Task<Status> SwapObjectRecord(cluster::PgId pg, std::string name, ObMeta expected,
                                     ObMeta replacement);
  // Frees extents of `lv`, marks its bitmap dirty and discards the blocks on
  // the data servers.
  void ReleaseExtents(cluster::LvId lv, const std::vector<alloc::Extent>& extents);

 private:
  sim::Task<> Init();
  sim::Task<> HeartbeatLoop();
  sim::Task<> CleanerLoop();
  sim::Task<> CleanLogs();

  // Pulls newly-responsible PGs, rebuilds allocators/opseq/pending.
  sim::Task<> AdoptTopology(cluster::TopologyMap next);
  // Rebuilds pg's allocators from its records and its opseq and recovered
  // pending puts from its PG log.
  sim::Task<> RebuildPgState(cluster::PgId pg);
  // The LVs a primary of pg allocates from: its VG and its EC stripe LVs.
  std::set<cluster::LvId> PrimaryLvs(cluster::PgId pg) const;
  sim::Task<> MigratePgData(cluster::PgId pg);  // Cheetah-NoVG
  // Pulls pg from `source` page by page, persisting each page as it lands
  // (so Fig. 15's recovery curve tracks transfer progress); returns the
  // records merged.
  sim::Task<Result<uint64_t>> PullPg(sim::NodeId source, cluster::PgId pg, uint64_t min_view);

  Status CheckRequest(uint64_t view, cluster::PgId pg, bool need_primary) const;
  bool IsPrimary(cluster::PgId pg) const;

  // Persists the batch locally and on all backups in parallel; returns OK
  // only if every replica persisted. Every replica's write shares the
  // batch's one buffer.
  sim::Task<Status> PersistAndReplicate(cluster::PgId pg, kv::WriteBatch batch);
  // Waits briefly for an in-flight put's commit notification to land.
  sim::Task<> WaitPendingResolved(const std::string& name, Nanos budget);
  // Verifies a pending put against the data servers; completes or revokes
  // it unless it changed while the probes were out.
  sim::Task<Status> VerifyPending(ReqId reqid);
  // Tombstones an uncommitted put and frees its extents; false (nothing
  // done) if the ticket went stale.
  sim::Task<bool> RevokePut(PgState::Ticket ticket);

  sim::Task<Result<PutAllocReply>> HandlePutAlloc(sim::NodeId src, PutAllocRequest req);
  sim::Task<Result<PutCommitAck>> HandleCommit(sim::NodeId src, PutCommitNotify req);
  sim::Task<Result<GetMetaReply>> HandleGet(sim::NodeId src, GetMetaRequest req);
  sim::Task<Result<DeleteReply>> HandleDelete(sim::NodeId src, DeleteRequest req);
  // HandleDelete's part under the name's guard: reads the record and
  // persists its tombstone; returns the retired record.
  sim::Task<Result<ObMeta>> DeleteGuarded(cluster::PgId pg, const DeleteRequest& req);
  sim::Task<Result<ReplicateMetaXReply>> HandleReplicate(sim::NodeId src,
                                                         ReplicateMetaXRequest req);
  sim::Task<Result<PgPullReply>> HandlePgPull(sim::NodeId src, PgPullRequest req);
  // Migration catchup: this server is the destination; pull the PG from the
  // drain source and merge it (maintenance QoS class).
  sim::Task<Result<cluster::MigratePgReply>> HandleMigratePg(sim::NodeId src,
                                                             cluster::MigratePgRequest req);
  sim::Task<Result<cluster::TopologyPushReply>> HandleTopologyPush(sim::NodeId src,
                                                                   cluster::TopologyPush req);

  rpc::Node& rpc_;
  CheetahOptions options_;
  std::vector<sim::NodeId> manager_nodes_;
  uint64_t seed_;

  std::unique_ptr<kv::DB> db_;
  cluster::TopologyMap topo_;
  Nanos lease_until_ = 0;
  bool adopting_ = false;
  std::optional<cluster::TopologyMap> pending_topo_;

  std::set<cluster::PgId> ready_pgs_;
  PgState pgs_{topo_, options_.no_volume_groups};
  DataPlane data_{rpc_};

  std::unique_ptr<Scrubber> scrubber_;
  std::unique_ptr<tier::TierEngine> tier_;

  Counters counters_;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_META_SERVER_H_
