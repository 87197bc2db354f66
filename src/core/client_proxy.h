// Cheetah client proxy: the application's portal (§4.1).
//
// Put runs the paper's parallel pipeline (Pseudocode 1 / Fig. 4): after the
// primary meta server returns the allocation, the proxy streams object data
// to the n data servers while MetaX persists on the n meta servers; the put
// commits once both complete, and the proxy fire-and-forgets the commit
// notification. Failures surface as RE-META / RE-DATA retries (§5.3), and
// kStaleView replies trigger a topology refresh.
//
// The §7 read optimization: the proxy caches (lvid, extents, checksum) of
// objects it recently put or fetched, and on a cache hit issues the metadata
// lookup and the data read in parallel.
#ifndef SRC_CORE_CLIENT_PROXY_H_
#define SRC_CORE_CLIENT_PROXY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/messages.h"
#include "src/common/random.h"
#include "src/core/data_plane.h"
#include "src/core/messages.h"
#include "src/core/options.h"
#include "src/obs/metrics.h"
#include "src/qos/aimd.h"
#include "src/rpc/node.h"
#include "src/sim/sync.h"

namespace cheetah::core {

class ClientProxy {
 public:
  ClientProxy(rpc::Node& rpc, CheetahOptions options,
              std::vector<sim::NodeId> manager_nodes, uint32_t proxy_id);

  void Start();

  // Blocking object operations (complete when committed / data verified).
  // Each is the root of a traced operation: the obs::Tracer records a kOp
  // span whose children (RPCs, disk I/O, persistence waits) reconstruct the
  // critical path — bench/fig6_decomposition.cc derives the paper's latency
  // breakdown from these instead of hand-placed timers. Put takes the
  // caller's string over as the one shared payload buffer every replica
  // write uses; Get builds its returned string once, on the way out.
  sim::Task<Status> Put(std::string name, std::string data);
  sim::Task<Result<std::string>> Get(std::string name);
  sim::Task<Status> Delete(std::string name);

  // Live registry counters ("proxy@<node>#<i>.*").
  struct Counters {
    obs::Scope scope;
    obs::Counter& puts = *scope.counter("puts");
    obs::Counter& gets = *scope.counter("gets");
    obs::Counter& deletes = *scope.counter("deletes");
    obs::Counter& retries = *scope.counter("retries");
    obs::Counter& failures = *scope.counter("failures");
    obs::Counter& cache_hits = *scope.counter("cache_hits");
    obs::Counter& corrupt_replica_reads = *scope.counter("corrupt_replica_reads");  // rejected
    obs::Counter& read_repairs = *scope.counter("read_repairs");  // damaged replicas rewritten
    obs::Counter& inline_puts = *scope.counter("inline_puts");  // stored in the MetaX record
    obs::Counter& ec_degraded_reads = *scope.counter("ec_degraded_reads");  // reconstructed
    obs::Counter& ec_chunk_repairs = *scope.counter("ec_chunk_repairs");  // rewritten after get
    obs::Counter& fast_redirects = *scope.counter("fast_redirects");  // NACKs chased sans backoff
  };
  const Counters& stats() const { return counters_; }

  uint64_t view() const { return topo_.view; }
  const cluster::TopologyMap& topology() const { return topo_; }
  uint32_t proxy_id() const { return proxy_id_; }

  // Stale-view NACKs from meta servers carry the server's view number
  // ("server at view N"); returns it, or 0 when the message has no hint.
  // Public (and static) so the parsing contract is unit-testable.
  static uint64_t StaleViewHint(const Status& s);

 private:
  struct PersistWait {
    sim::Event done;
    bool ok = false;
  };

  // Op bodies; the public wrappers open/close the root trace span.
  sim::Task<Status> PutImpl(std::string name, Bytes data);
  sim::Task<Result<Bytes>> GetImpl(std::string name);
  sim::Task<Status> DeleteImpl(std::string name);

  // Meta-server RPC with proxy-side admission: under QoS every call toward a
  // meta server passes through that server's AIMD window, so pushback
  // (kOverloaded or timeout) shrinks this proxy's concurrency toward the
  // node instead of hammering it with retries. Member template so both the
  // put/delete and get paths share it; `req` arrives as an xvalue of a named
  // object (see the GCC 12 coroutine-argument caution in rpc/node.h).
  template <rpc::RpcRequest Req>
  sim::Task<Result<typename Req::Response>> CallMeta(sim::NodeId dst, Req req) {
    if (!options_.qos.enabled) {
      co_return co_await rpc_.Call(dst, std::move(req), kRpcTimeout);
    }
    MetaWindow& mw = WindowFor(dst);
    co_await mw.win.Acquire();
    Result<typename Req::Response> r =
        co_await rpc_.Call(dst, std::move(req), kRpcTimeout);
    if (r.ok()) {
      mw.win.Release(qos::AimdWindow::Signal::kSuccess);
    } else if (r.status().IsOverloaded() || r.status().IsTimeout()) {
      mw.win.Release(qos::AimdWindow::Signal::kPushback);
    } else {
      mw.win.Release(qos::AimdWindow::Signal::kNeutral);
    }
    mw.window_gauge->Set(static_cast<int64_t>(mw.win.window()));
    co_return r;
  }

  sim::Task<Status> EnsureTopology();
  sim::Task<Status> RefreshTopology();
  void ReportSuspect(sim::NodeId node);
  sim::Task<> BackoffAndRefresh(int attempt);

  // Fast redirect: chase the managers for a topology at least as fresh as the
  // NACK's view hint, retrying immediately instead of entering the
  // decorrelated-jitter backoff cycle. Used after a migration cutover bumps
  // the view: the proxy re-pulls and re-sends to the new owner right away.
  sim::Task<> ChaseStaleView(const Status& s);
  // Waits before retrying after `s`: chases a stale view, honors an overload
  // pushback's retry-after, else backs off and refreshes the topology.
  sim::Task<> WaitToRetry(const Status& s, int attempt);

  // One full put attempt; the caller loops on retryable failures.
  sim::Task<Status> PutAttempt(const std::string& name, const Bytes& data, uint32_t checksum,
                               ReqId reqid, bool re_meta, bool re_data);
  // Verified read of a replica or EC object; damaged replicas it passes over
  // get a fire-and-forget read-repair.
  sim::Task<Result<Bytes>> ReadData(const ObMeta& meta);
  // EC stripe read: verified reads of the k data chunks (systematic layout);
  // on damage, pulls parity and reconstructs from any k of k+m. Degraded
  // successes fire-and-forget a rewrite of the damaged chunks.
  sim::Task<Result<Bytes>> ReadEcData(const ObMeta& meta);
  struct StripeState {
    std::vector<std::optional<Bytes>> chunks;  // verified survivors
    std::vector<size_t> damaged;  // chunks with positive evidence of damage
  };
  // Verified read of stripe chunk j from `t` into st->chunks[j]; a damaged
  // chunk is listed in st->damaged.
  sim::Task<> ReadChunk(cluster::ReplicaTarget t, size_t j, uint32_t block_size,
                        std::vector<alloc::Extent> extents, uint64_t shard_bytes, uint32_t crc,
                        std::shared_ptr<StripeState> st);
  // Notes a failed replica read: reports a timed-out server; counts and
  // returns true for positive evidence of damage.
  bool NoteFailedRead(const cluster::ReplicaTarget& t, const Status& s);

  sim::Task<Result<MetaPersistedAck>> HandlePersisted(sim::NodeId src,
                                                      MetaPersistedNotify req);
  sim::Task<Result<cluster::TopologyPushReply>> HandleTopologyPush(sim::NodeId src,
                                                                   cluster::TopologyPush req);
  sim::Task<> HeartbeatLoop();

  struct MetaWindow {
    explicit MetaWindow(const qos::AimdParams& params) : win(params) {}
    qos::AimdWindow win;
    obs::Gauge* window_gauge = nullptr;
  };
  MetaWindow& WindowFor(sim::NodeId dst);

  rpc::Node& rpc_;
  DataPlane data_{rpc_};
  CheetahOptions options_;
  std::vector<sim::NodeId> manager_nodes_;
  uint32_t proxy_id_;
  Rng rng_;
  Nanos backoff_ = 0;  // previous retry sleep (decorrelated jitter state)
  std::map<sim::NodeId, std::unique_ptr<MetaWindow>> windows_;

  cluster::TopologyMap topo_;
  uint64_t next_req_ = 1;
  std::map<ReqId, std::shared_ptr<PersistWait>> persist_waits_;
  std::unordered_map<std::string, ObMeta> meta_cache_;

  Counters counters_;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_CLIENT_PROXY_H_
