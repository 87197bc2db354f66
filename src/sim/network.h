// Simulated datacenter network.
//
// Each registered node has a full-duplex NIC modeled as a pair of k-lane
// resources: a message serializes on the sender's transmit lanes, propagates
// for the base one-way latency, then occupies the receiver's receive lanes
// for its own serialization time before it is handed to the receiver's
// handler (which typically spawns a coroutine on the receiver's actor). The
// receive-side occupancy is what makes concurrent bulk transfers into one
// node contend: two simultaneous large sends from different sources take ~2x
// the wall-clock of one, instead of overlapping for free. An uncontended
// message arrives at exactly departed + base_latency, same as before the
// receive side was modeled. Messages to dead or partitioned nodes are
// silently dropped — callers recover via RPC timeouts, exactly as the
// paper's servers do.
//
// Hot-path layout: endpoints live in a flat vector indexed by NodeId (ids are
// small and dense), payloads travel as arena-backed AnyMsg boxes instead of
// std::any, the delivery callback captures one arena pointer so it stays
// inside the event loop's inline-callback budget, and per-link fault state is
// an xxhash-keyed flat map that is consulted only when some fault is actually
// registered — a fault-free run pays a single branch per send.
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/sim/any_msg.h"
#include "src/sim/event_loop.h"
#include "src/sim/resource.h"

namespace cheetah::sim {

using NodeId = uint32_t;
constexpr NodeId kInvalidNode = 0xffffffffu;

struct NetParams {
  Nanos base_latency = Micros(100);         // one-way wire + RPC stack software
  Nanos loopback_latency = Micros(5);       // same-machine delivery
  double bw_bytes_per_sec = 3.1e9;          // 25 GbE per NIC (shared)
  int nic_lanes = 1;  // the wire serializes; lanes model nothing extra
};

// Probabilistic per-link fault injection for chaos runs. Every draw comes
// from the network's seeded RNG, consumed in deterministic send order, so a
// given seed replays the identical fault sequence. Loopback traffic is
// exempt. Note the wire may duplicate a message (modeling retransmission);
// rpc::Node discards duplicate *requests* on receive, the way a real RPC
// stack's TCP sequencing does — drop and reorder are the faults protocols
// must genuinely tolerate.
struct LinkFaults {
  double drop_prob = 0.0;    // message vanishes after paying its NIC time
  double dup_prob = 0.0;     // a second copy arrives with extra delay
  double delay_prob = 0.0;   // message is held back (breaks per-link FIFO)
  Nanos max_extra_delay = 0; // uniform extra delay for delayed/dup copies

  bool active() const { return drop_prob > 0 || dup_prob > 0 || delay_prob > 0; }
};

class Network {
 public:
  using Handler = std::function<void(NodeId src, AnyMsg msg, size_t bytes)>;

  Network(EventLoop& loop, NetParams params)
      : loop_(loop),
        params_(params) {}

  void Register(NodeId id, Handler handler);
  void Unregister(NodeId id);
  bool IsRegistered(NodeId id) const {
    return id < endpoints_.size() && endpoints_[id].registered;
  }

  // Fire-and-forget send; delivery is scheduled on the event loop.
  void Send(NodeId src, NodeId dst, AnyMsg msg, size_t bytes);

  // Convenience overload boxing any payload type into the loop's arena.
  template <typename T>
    requires(!std::is_same_v<std::remove_cvref_t<T>, AnyMsg>)
  void Send(NodeId src, NodeId dst, T msg, size_t bytes) {
    Send(src, dst, AnyMsg::Make<T>(loop_.arena(), std::move(msg)), bytes);
  }

  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  void ClearPartitions() { partitions_.clear(); }
  bool Partitioned(NodeId a, NodeId b) const {
    if (a == b || partitions_.empty()) {
      return false;
    }
    return partitions_.contains(LinkKey(a, b));
  }

  // --- chaos fault injection -------------------------------------------
  // Faults apply to non-loopback sends only. Per-link settings (normalized
  // unordered pair) override the default. When no faults are active the send
  // path consumes no randomness and never touches the fault table, so
  // enabling chaos never perturbs the deterministic schedule of a fault-free
  // run.
  void SeedFaults(uint64_t seed) { fault_rng_ = Rng(seed); }
  void SetDefaultLinkFaults(const LinkFaults& f) {
    default_faults_ = f;
    NoteFaults(f);
  }
  void SetLinkFaults(NodeId a, NodeId b, const LinkFaults& f) {
    link_faults_[LinkKey(a, b)] = f;
    NoteFaults(f);
  }
  void ClearLinkFaults() {
    default_faults_ = LinkFaults{};
    link_faults_.clear();
  }

  // True once any duplication fault has ever been configured this run.
  // rpc::Node consults this to skip duplicate-request bookkeeping entirely on
  // fault-free runs (sticky: in-flight duplicates must still be caught after
  // faults are cleared).
  bool dup_faults_possible() const { return dup_faults_seen_; }

  uint64_t messages_sent() const { return sent_->value(); }
  uint64_t messages_dropped() const { return dropped_->value(); }
  uint64_t messages_fault_dropped() const { return fault_dropped_->value(); }
  uint64_t messages_duplicated() const { return fault_duplicated_->value(); }
  uint64_t messages_delayed() const { return fault_delayed_->value(); }
  uint64_t fault_free_fast_path() const { return fault_fast_path_->value(); }

 private:
  struct Endpoint {
    bool registered = false;
    Handler handler;
    std::unique_ptr<Resource> nic;  // transmit lanes
    std::unique_ptr<Resource> rx;   // receive lanes (full duplex)
  };

  // In-flight delivery record, arena-allocated so the event-loop callback
  // only captures two pointers.
  struct Delivery {
    NodeId src;
    NodeId dst;
    size_t bytes;
    obs::OpContext ctx;
    AnyMsg msg;
  };

  static uint64_t LinkKey(NodeId a, NodeId b) {
    const auto [lo, hi] = std::minmax(a, b);
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }
  void NoteFaults(const LinkFaults& f) {
    if (f.dup_prob > 0) {
      dup_faults_seen_ = true;
    }
  }
  bool faults_possible() const { return default_faults_.active() || !link_faults_.empty(); }
  const LinkFaults& FaultsFor(NodeId a, NodeId b) const;
  void ScheduleDelivery(NodeId src, NodeId dst, AnyMsg msg, size_t bytes,
                        Nanos arrive, obs::OpContext ctx, uint64_t wire_span);

  EventLoop& loop_;
  NetParams params_;
  obs::Scope scope_{"sim.net"};
  obs::Counter* sent_ = scope_.counter("messages_sent");
  obs::Counter* dropped_ = scope_.counter("messages_dropped");
  obs::Counter* bytes_ = scope_.counter("bytes");
  obs::Counter* fault_dropped_ = scope_.counter("fault_dropped");
  obs::Counter* fault_duplicated_ = scope_.counter("fault_duplicated");
  obs::Counter* fault_delayed_ = scope_.counter("fault_delayed");
  obs::Counter* fault_fast_path_ = scope_.counter("fault_free_fast_path");
  std::vector<Endpoint> endpoints_;  // indexed by NodeId (ids are dense)
  std::unordered_set<uint64_t, XxU64Hash> partitions_;  // LinkKey(a, b)
  Rng fault_rng_{0xc4a05u};
  LinkFaults default_faults_;
  std::unordered_map<uint64_t, LinkFaults, XxU64Hash> link_faults_;  // LinkKey
  bool dup_faults_seen_ = false;
};

}  // namespace cheetah::sim

#endif  // SRC_SIM_NETWORK_H_
