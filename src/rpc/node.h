// Typed asynchronous RPC between simulated nodes.
//
// A request type declares its reply type and wire size:
//
//   struct PingRequest {
//     using Response = PingReply;
//     uint64_t nonce;
//     size_t wire_size() const { return 16; }
//   };
//
// Servers register coroutine handlers with Serve<Req>(); clients issue
// Call<Req>() with a timeout. Crashes surface as timeouts: messages to dead
// or partitioned nodes are dropped by the network, and a server that dies
// mid-handler simply never replies.
//
// Hot-path layout: every request type gets a process-wide dense id
// (MsgTypeIdOf<Req>()), so handler dispatch is a flat vector index instead of
// a type_index hash lookup; envelopes and payloads travel in arena-backed
// AnyMsg boxes instead of std::any (no malloc per message); duplicate-request
// bookkeeping — only needed when the chaos network can actually duplicate —
// is skipped entirely on fault-free runs.
#ifndef SRC_RPC_NODE_H_
#define SRC_RPC_NODE_H_

#include <cassert>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/qos/qos.h"
#include "src/qos/scheduler.h"
#include "src/rpc/recent_ids.h"
#include "src/sim/any_msg.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace cheetah::rpc {

// Message types must NOT be aggregates: GCC 12 bitwise-copies braced
// aggregate temporaries into coroutine frames (see the toolchain caution in
// src/sim/task.h), which corrupts any non-trivial member. Declaring a
// defaulted default constructor (`Msg() = default;`) is enough to make the
// type a non-aggregate, whose temporaries are compiled correctly.
template <typename Req>
concept RpcRequest = requires(const Req r) {
  typename Req::Response;
  { r.wire_size() } -> std::convertible_to<size_t>;
} && !std::is_aggregate_v<Req> && !std::is_aggregate_v<typename Req::Response>;

// Process-wide dense message-type ids, assigned on first use. Deterministic
// for a given binary and schedule (first-touch order is part of the
// deterministic execution), and small enough that per-node handler tables are
// flat vectors.
inline uint32_t& MsgTypeCounter() {
  static uint32_t n = 0;
  return n;
}
template <typename Req>
uint32_t MsgTypeIdOf() {
  static const uint32_t id = MsgTypeCounter()++;
  return id;
}

class Node {
 public:
  Node(sim::Machine& machine, sim::Network& net)
      : machine_(machine),
        net_(net),
        late_replies_(obs::Registry::Global().counter("rpc.late_replies_dropped")) {}
  ~Node() { Detach(); }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  sim::NodeId id() const { return machine_.node_id(); }
  sim::Machine& machine() { return machine_; }
  sim::Network& network() { return net_; }

  void Attach() {
    net_.Register(machine_.node_id(), [this](sim::NodeId src, sim::AnyMsg msg, size_t bytes) {
      OnMessage(src, std::move(msg), bytes);
    });
    attached_ = true;
  }

  void Detach() {
    if (attached_) {
      net_.Unregister(machine_.node_id());
      attached_ = false;
    }
    // Pending-call records live in their caller coroutines' frames. A crash
    // kills those frames (Machine::CrashProcess) in the same synchronous step
    // as this Detach, so dropping the pointers here is what keeps them from
    // dangling.
    pending_.clear();
    if (scheduler_ != nullptr) {
      // Queued-but-undispatched requests die with the process; in-flight
      // handlers were killed with the actor and will never call done.
      scheduler_->Reset();
    }
  }

  bool attached() const { return attached_; }

  // Installs a per-node QoS scheduler (owned by the caller, must outlive this
  // node). Requests whose handler was registered with a non-control traffic
  // class go through Submit() instead of dispatching immediately; rejected
  // calls get a kOverloaded reply carrying the retry-after hint.
  void SetScheduler(qos::Scheduler* scheduler) { scheduler_ = scheduler; }
  qos::Scheduler* scheduler() { return scheduler_; }

  // CPU service time charged on this machine per handled request: a base
  // cost plus kHandlerNsPerByte of the request and reply. Handlers aren't
  // free even in simulation, or offered load could never exceed capacity and
  // overload would be unobservable.
  void SetHandlerBaseCost(Nanos base) { handler_base_cost_ = base; }

  template <RpcRequest Req>
  void Serve(std::function<sim::Task<Result<typename Req::Response>>(sim::NodeId, Req)> fn,
             qos::TrafficClass cls = qos::TrafficClass::kControl) {
    const uint32_t tid = MsgTypeIdOf<Req>();
    if (handlers_.size() <= tid) {
      handlers_.resize(tid + 1);
    }
    handlers_[tid] =
        Handler{true, cls,
                [this, fn = std::move(fn)](sim::NodeId src, Envelope env, size_t bytes,
                                           std::function<void()> done) {
                  machine_.actor().Spawn(
                      HandleOne<Req>(fn, src, std::move(env), bytes, std::move(done)));
                }};
  }

  // Serves Req with `self`'s member Handler, which may take a base of Req
  // (the Repair* data requests share their foreground twins' handlers).
  // Handler is a template argument so the stored function holds only `self`
  // and copies (once per request) without allocating.
  template <RpcRequest Req, auto Handler, typename Self>
  void Serve(Self* self, qos::TrafficClass cls = qos::TrafficClass::kControl) {
    Serve<Req>([self](sim::NodeId src, Req req) { return (self->*Handler)(src, std::move(req)); },
               cls);
  }

  // NOTE: Call is deliberately a plain function that moves its argument into
  // the CallImpl coroutine. GCC 12 miscompiles braced aggregate prvalues
  // passed directly as by-value coroutine parameters (the parameter is
  // bitwise-copied into the frame, leaving self-referential members dangling);
  // routing through a non-coroutine wrapper turns the argument into an xvalue
  // of a named object, which is compiled correctly. See tests/rpc/rpc_test.cc.
  template <RpcRequest Req>
  sim::Task<Result<typename Req::Response>> Call(sim::NodeId dst, Req req, Nanos timeout) {
    return CallImpl<Req>(dst, std::move(req), timeout);
  }

  // Call for its outcome only.
  template <RpcRequest Req>
  sim::Task<Status> CallStatus(sim::NodeId dst, Req req, Nanos timeout) {
    return StatusOf(CallImpl<Req>(dst, std::move(req), timeout));
  }

  // Number of calls still awaiting a reply (test/diagnostic hook).
  size_t pending_calls() const { return pending_.size(); }

 private:
  static constexpr uint32_t kReplyType = 0xffffffffu;

  struct Envelope {
    Envelope() = default;  // non-aggregate; see the coroutine caution above
    uint64_t call_id = 0;
    uint32_t type = kReplyType;  // MsgTypeIdOf<Req>() for requests
    bool is_reply = false;
    bool fire_and_forget = false;
    Status status;
    sim::AnyMsg payload;
    obs::OpContext ctx{};  // caller's operation; remote handler spans join it
  };

  struct PendingCall {
    sim::Event done;
    Status status;
    sim::AnyMsg reply;
  };

  Arena& arena() { return machine_.loop().arena(); }

  template <typename T>
  static sim::Task<Status> StatusOf(sim::Task<Result<T>> call) {
    Result<T> r = co_await std::move(call);
    co_return r.status();
  }

  template <RpcRequest Req>
  sim::Task<Result<typename Req::Response>> CallImpl(sim::NodeId dst, Req req, Nanos timeout) {
    // One set of metric handles per request type, looked up once.
    static const std::string kName = obs::ShortTypeName(typeid(Req));
    static obs::Histogram* const lat =
        obs::Registry::Global().histogram("rpc." + kName + ".latency");
    static obs::Counter* const calls =
        obs::Registry::Global().counter("rpc." + kName + ".calls");
    static obs::Counter* const timeouts =
        obs::Registry::Global().counter("rpc." + kName + ".timeouts");
    static obs::Counter* const bytes_sent =
        obs::Registry::Global().counter("rpc." + kName + ".bytes_sent");

    const uint64_t call_id = next_call_id_++;
    // The pending record lives in this coroutine frame; pending_ only holds a
    // pointer. The frame always outlives the map entry: the normal path
    // erases below, and crashes destroy the frame in the same synchronous
    // step as the Detach() that clears the map.
    PendingCall state;
    pending_[call_id] = &state;
    const size_t bytes = req.wire_size() + kHeaderBytes;
    calls->Add();
    bytes_sent->Add(bytes);
    const Nanos t0 = machine_.loop().Now();
    auto& tracer = obs::Tracer::Global();
    const obs::OpContext caller = obs::ThisContext();
    const uint64_t span =
        tracer.enabled()
            ? tracer.Begin(obs::SpanKind::kRpc, "rpc." + kName, id(), t0, bytes)
            : 0;
    Envelope env;
    env.call_id = call_id;
    env.type = MsgTypeIdOf<Req>();
    env.payload = sim::AnyMsg::Make<Req>(arena(), std::move(req));
    // The envelope carries the caller's operation with the rpc span as
    // parent, so the remote handler's spans nest under this call.
    env.ctx = obs::OpContext{caller.op, span != 0 ? span : caller.span};
    {
      obs::ContextGuard guard(env.ctx);  // wire span nests under the rpc span
      net_.Send(id(), dst, std::move(env), bytes);
    }
    const bool fired = co_await state.done.TimedWait(timeout);
    pending_.erase(call_id);
    const Nanos t1 = machine_.loop().Now();
    lat->Record(t1 - t0);
    if (!fired) {
      timeouts->Add();
      tracer.End(span, t1, /*ok=*/false);
      co_return Status::Timeout("rpc timeout");
    }
    tracer.End(span, t1, state.status.ok());
    if (!state.status.ok()) {
      co_return state.status;
    }
    co_return state.reply.template Take<typename Req::Response>();
  }

 public:
  // Fire-and-forget notification (no reply expected).
  template <RpcRequest Req>
  void Notify(sim::NodeId dst, Req req) {
    static const std::string kName = obs::ShortTypeName(typeid(Req));
    static obs::Counter* const notifies =
        obs::Registry::Global().counter("rpc." + kName + ".notifies");
    static obs::Counter* const bytes_sent =
        obs::Registry::Global().counter("rpc." + kName + ".bytes_sent");
    const size_t bytes = req.wire_size() + kHeaderBytes;
    notifies->Add();
    bytes_sent->Add(bytes);
    Envelope env;
    env.call_id = next_call_id_++;
    env.type = MsgTypeIdOf<Req>();
    env.payload = sim::AnyMsg::Make<Req>(arena(), std::move(req));
    env.fire_and_forget = true;
    env.ctx = obs::ThisContext();  // handler joins the notifier's operation
    net_.Send(id(), dst, std::move(env), bytes);
  }

 private:
  static constexpr size_t kHeaderBytes = 64;
  static constexpr double kHandlerNsPerByte = 0.05;  // ~20 GB/s of (de)serialization

  template <RpcRequest Req>
  sim::Task<> HandleOne(
      std::function<sim::Task<Result<typename Req::Response>>(sim::NodeId, Req)> fn,
      sim::NodeId src, Envelope env, size_t req_bytes, std::function<void()> done) {
    static const std::string kName = obs::ShortTypeName(typeid(Req));
    static obs::Histogram* const handle_lat =
        obs::Registry::Global().histogram("rpc." + kName + ".handle_latency");
    Req req = env.payload.Take<Req>();
    const bool fire_and_forget = env.fire_and_forget;
    const Nanos t0 = machine_.loop().Now();
    auto& tracer = obs::Tracer::Global();
    const uint64_t span =
        tracer.enabled()
            ? tracer.BeginWith(env.ctx, obs::SpanKind::kHandler, "handle." + kName, id(), t0)
            : 0;
    // Run the handler inside the caller's operation so its disk/kv/nested-rpc
    // spans chain under this handler span.
    obs::SetContext(obs::OpContext{env.ctx.op, span != 0 ? span : env.ctx.span});
    // Deserialization + request processing occupy a CPU core.
    co_await machine_.cpu().Use(
        handler_base_cost_ +
        static_cast<Nanos>(static_cast<double>(req_bytes) * kHandlerNsPerByte));
    Result<typename Req::Response> result = co_await fn(src, std::move(req));
    const Nanos t1 = machine_.loop().Now();
    handle_lat->Record(t1 - t0);
    tracer.End(span, t1, result.ok());
    if (fire_and_forget) {
      if (done) {
        done();
      }
      co_return;
    }
    Envelope reply;
    reply.call_id = env.call_id;
    reply.is_reply = true;
    reply.status = result.ok() ? Status::Ok() : result.status();
    reply.ctx = env.ctx;
    size_t bytes = kHeaderBytes;
    if (result.ok()) {
      bytes += result.value().wire_size();
      reply.payload = sim::AnyMsg::Make<typename Req::Response>(arena(), std::move(result).value());
    }
    // Reply serialization is CPU work too (matters for large GET replies).
    co_await machine_.cpu().Use(
        static_cast<Nanos>(static_cast<double>(bytes) * kHandlerNsPerByte));
    net_.Send(id(), src, std::move(reply), bytes);
    if (done) {
      done();
    }
  }

  void OnMessage(sim::NodeId src, sim::AnyMsg msg, size_t wire_bytes) {
    Envelope env = msg.Take<Envelope>();
    if (env.is_reply) {
      auto it = pending_.find(env.call_id);
      if (it == pending_.end()) {
        late_replies_->Add();
        return;  // caller gave up or restarted
      }
      PendingCall* state = it->second;
      state->status = env.status;
      state->reply = std::move(env.payload);
      state->done.Set();
      return;
    }
    // Duplicate request suppression. The chaos network may deliver a second
    // copy of a message (retransmission); a real RPC stack's transport
    // sequencing discards it before the application sees it. call_ids are
    // per-(src node) monotonic, so a bounded recent-id window per peer
    // (RecentIds: an ascending deque of 4096 ids over a floor, 8 bytes an id)
    // suffices. Replies need no dedup: a duplicate reply lands on an
    // already-erased pending call and is dropped above. The whole check is
    // skipped — no window bookkeeping at all — unless the network has ever
    // been configured to duplicate.
    if (net_.dup_faults_possible()) {
      if (seen_requests_[src].SeenBefore(env.call_id)) {
        dup_requests_->Add();
        return;
      }
    } else {
      dedup_skipped_->Add();
    }
    if (env.type >= handlers_.size() || !handlers_[env.type].registered) {
      return;  // no such service here; drop (caller times out)
    }
    Handler& handler = handlers_[env.type];
    if (scheduler_ == nullptr || handler.cls == qos::TrafficClass::kControl) {
      handler.dispatch(src, std::move(env), wire_bytes, nullptr);
      return;
    }
    // Data-plane request under QoS: queue it (span makes the wait visible in
    // traces) or bounce it with a retry-after hint.
    auto& tracer = obs::Tracer::Global();
    const uint64_t qspan =
        tracer.enabled()
            ? tracer.BeginWith(env.ctx, obs::SpanKind::kQueue,
                               std::string("qos.queue.") + qos::TrafficClassName(handler.cls),
                               id(), machine_.loop().Now(), wire_bytes)
            : 0;
    const bool fire_and_forget = env.fire_and_forget;
    const uint64_t call_id = env.call_id;
    const obs::OpContext ctx = env.ctx;
    auto env_ptr = std::allocate_shared<Envelope>(PoolAllocator<Envelope>(), std::move(env));
    qos::Scheduler::RejectFn reject;
    if (fire_and_forget) {
      // Nobody to tell; the notification just evaporates under overload.
      reject = [this, qspan](Nanos) {
        obs::Tracer::Global().End(qspan, machine_.loop().Now(), /*ok=*/false);
      };
    } else {
      reject = [this, src, call_id, ctx, qspan](Nanos retry_after) {
        obs::Tracer::Global().End(qspan, machine_.loop().Now(), /*ok=*/false);
        Envelope bounce;
        bounce.call_id = call_id;
        bounce.is_reply = true;
        bounce.status = qos::OverloadedStatus(retry_after);
        bounce.ctx = ctx;
        net_.Send(id(), src, std::move(bounce), kHeaderBytes);
      };
    }
    scheduler_->Submit(
        handler.cls, wire_bytes,
        [this, hp = &handler, src, env_ptr, wire_bytes, qspan](std::function<void()> done) {
          obs::Tracer::Global().End(qspan, machine_.loop().Now(), /*ok=*/true);
          hp->dispatch(src, std::move(*env_ptr), wire_bytes, std::move(done));
        },
        std::move(reject));
  }

  struct Handler {
    bool registered = false;
    qos::TrafficClass cls = qos::TrafficClass::kControl;
    std::function<void(sim::NodeId, Envelope, size_t, std::function<void()>)> dispatch;
  };

  sim::Machine& machine_;
  sim::Network& net_;
  obs::Counter* late_replies_;
  obs::Counter* dup_requests_ =
      obs::Registry::Global().counter("rpc.duplicate_requests_dropped");
  obs::Counter* dedup_skipped_ =
      obs::Registry::Global().counter("rpc.dedup_fast_path");
  bool attached_ = false;
  uint64_t next_call_id_ = 1;
  qos::Scheduler* scheduler_ = nullptr;
  Nanos handler_base_cost_ = Micros(2);
  std::vector<Handler> handlers_;  // indexed by MsgTypeIdOf<Req>()
  std::unordered_map<sim::NodeId, RecentIds> seen_requests_;
  std::unordered_map<uint64_t, PendingCall*, XxU64Hash> pending_;
};

}  // namespace cheetah::rpc

#endif  // SRC_RPC_NODE_H_
