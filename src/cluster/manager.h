// The system manager (§5.1): an odd number of manager processes running Raft
// as one reliable central manager. It owns the topology map (server
// membership, VG/LV/PV layout, view number) and the lease clock, detects
// failures from missed heartbeats, and coordinates replacement + recovery.
//
// Every topology change is a Raft proposal carrying the full serialized map
// (the map is small — a few hundred volumes); each manager applies committed
// maps to its local TopologyStateMachine. Only the Raft leader runs the
// failure detector and answers heartbeats with leases.
//
// Timing invariant (a static_assert in manager.cc): the 450 ms failure
// timeout exceeds the 300 ms lease duration, so by the time the leader
// declares a server dead and activates a view without it, any lease that
// server held has already expired (§5.1's "a new topology map becomes
// effective with the next lease").
#ifndef SRC_CLUSTER_MANAGER_H_
#define SRC_CLUSTER_MANAGER_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/messages.h"
#include "src/cluster/topology.h"
#include "src/raft/raft.h"
#include "src/rpc/node.h"

namespace cheetah::cluster {

// Phi-accrual suspicion level for a heartbeat gap against the observed mean
// inter-arrival: phi = -log10(P(gap)) under an exponential arrival model,
// i.e. 0.4343 * gap / mean. Exposed as a free function for unit tests.
double PhiSuspicion(Nanos gap, Nanos mean_interarrival);

// Initial cluster layout for Bootstrap().
struct BootstrapSpec {
  BootstrapSpec() = default;
  uint32_t pg_count = 64;
  uint32_t replication = 3;
  std::vector<sim::NodeId> meta_servers;
  std::vector<sim::NodeId> data_servers;
  uint32_t disks_per_data_server = 1;
  uint32_t pvs_per_disk = 4;
  uint64_t pv_capacity_bytes = 0;  // derived from lv capacity below if 0
  uint64_t lv_capacity_bytes = GiB(1);
  uint32_t block_size = 4096;
  // EC tier geometry (src/tier): when ec_k > 0, Bootstrap also carves up to
  // pg_count stripe LVs of width ec_k + ec_m (assigned to ec_vgs round-robin)
  // before grouping the replica LVs.
  uint32_t ec_k = 0;
  uint32_t ec_m = 0;
};

class Manager {
 public:
  Manager(rpc::Node& rpc, sim::Storage& storage, raft::Config raft_config, uint64_t seed);

  sim::Task<Status> Start();

  bool is_raft_leader() const { return raft_->is_leader(); }
  const TopologyMap& topology() const { return sm_.current; }
  uint64_t view() const { return sm_.current.view; }

  // Creates the initial topology (leader only).
  sim::Task<Status> Bootstrap(BootstrapSpec spec);

  // Expansion (leader only). AddMetaServer triggers CRUSH PG remapping (but
  // no data migration thanks to VGs); AddDataServer carves new PVs/LVs and
  // appends them to existing VGs round-robin.
  sim::Task<Status> AddMetaServer(sim::NodeId node);
  sim::Task<Status> AddDataServer(sim::NodeId node, uint32_t disks, uint32_t pvs_per_disk);

  // Planned decommission (leader only): live-migrates every PG the node
  // serves (Prepare -> DoubleWrite -> Catchup), then cuts the node out of the
  // CRUSH map in one atomic view bump and retires it. Returns once the drain
  // completes or aborts. One drain at a time. A leader elected mid-drain
  // resumes it from the replicated migration state.
  sim::Task<Status> DrainMetaServer(sim::NodeId node);

  // Test hook: force the failure check now.
  sim::Task<> CheckFailuresNow() { return CheckFailures(); }

  // Exposed for observability in benches/tests.
  uint64_t topology_changes() const { return topology_changes_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t flap_suppressions() const { return flap_suppressions_; }
  uint64_t drains_completed() const { return drains_completed_; }
  bool drain_running() const { return drain_running_; }

 private:
  struct TopologyStateMachine : raft::StateMachine {
    void Apply(uint64_t index, const std::string& command) override {
      auto map = TopologyMap::Deserialize(command);
      if (map.ok()) {
        current = std::move(*map);
      }
    }
    TopologyMap current;
  };

  // Serialized topology read-modify-write: runs `fn` on a copy of the current
  // map under an async lock, then commits it via Raft with view+1.
  sim::Task<Status> MutateTopology(std::function<Status(TopologyMap&)> fn);
  sim::Task<> LeaderLoop();
  sim::Task<> CheckFailures();
  sim::Task<> HandleMetaFailure(sim::NodeId node);
  sim::Task<> HandleDataFailure(sim::NodeId node);
  void PushTopologyToAll();

  // Drain state machine body (shared by DrainMetaServer and the mid-drain
  // leader-change resumption in LeaderLoop).
  sim::Task<Status> RunDrain(sim::NodeId node);
  // Effective eviction timeout for one server, flap damping applied.
  Nanos EffectiveFailTimeout(uint32_t flaps) const;

  sim::Task<Result<HeartbeatReply>> HandleHeartbeat(sim::NodeId src, HeartbeatRequest req);
  sim::Task<Result<GetTopologyReply>> HandleGetTopology(sim::NodeId src,
                                                        GetTopologyRequest req);
  sim::Task<Result<ReportFailureReply>> HandleReport(sim::NodeId src,
                                                     ReportFailureRequest req);
  sim::Task<Result<RecoveryDoneReply>> HandleRecoveryDone(sim::NodeId src,
                                                          RecoveryDoneRequest req);

  rpc::Node& rpc_;
  TopologyStateMachine sm_;
  std::unique_ptr<raft::RaftNode> raft_;

  struct Liveness {
    ServerKind kind = ServerKind::kMetaServer;
    Nanos last_seen = 0;
    // Phi-accrual inter-arrival window. `prev_arrival` is 0 until the first
    // heartbeat after creation (or a leader-change grace reset), so a stale
    // epoch never pollutes the sample stream.
    std::deque<Nanos> intervals;
    Nanos prev_arrival = 0;
    // Flap damping: near-evictions that healed, decayed after quiet time.
    uint32_t flaps = 0;
    Nanos last_flap = 0;
  };
  std::map<sim::NodeId, Liveness> liveness_;
  std::set<sim::NodeId> handling_failure_;  // avoid double-handling
  bool mutating_ = false;
  bool drain_running_ = false;
  PvId next_pv_id_ = 1;
  LvId next_lv_id_ = 1;
  uint64_t topology_changes_ = 0;
  uint64_t evictions_ = 0;
  uint64_t flap_suppressions_ = 0;
  uint64_t drains_completed_ = 0;
};

}  // namespace cheetah::cluster

#endif  // SRC_CLUSTER_MANAGER_H_
