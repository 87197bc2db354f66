// Host: one simulated server machine and the process running on it — the
// sim::Machine, its optional QoS scheduler, its rpc::Node and the server
// object. Every cluster builder (core::Testbed and the baseline clusters)
// wires, crashes and restarts its servers through this one type.
//
// Ids, names, seeds and the server's constructor arguments stay the caller's:
// a Host only fixes the order of the wiring.
#ifndef SRC_RPC_HOST_H_
#define SRC_RPC_HOST_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/qos/scheduler.h"
#include "src/rpc/node.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"

namespace cheetah::rpc {

template <typename Server>
struct Host {
  // Builds machine -> scheduler (when `qos` is non-null) -> node, attaches
  // the node to `net`, and leaves `server` for the caller to construct.
  // `qos` must outlive the host: Restart() builds a fresh scheduler from it.
  Host(sim::EventLoop& loop, sim::Network& net, sim::NodeId id, std::string name,
       const sim::MachineParams& params, const qos::QosParams* qos = nullptr)
      : machine(std::make_unique<sim::Machine>(loop, id, std::move(name), params)), qos_(qos) {
    if (qos_ != nullptr) {
      sched = std::make_unique<qos::Scheduler>(loop, id, *qos_);
    }
    node = std::make_unique<Node>(*machine, net);
    node->SetScheduler(sched.get());
    node->Attach();
  }

  sim::NodeId id() const { return machine->node_id(); }
  bool alive() const { return machine->alive(); }

  // Kills the process (and, on power loss, unsynced disk data) and takes the
  // node off the network. The server object stays until Restart()'s caller
  // replaces it.
  void Crash(bool power_loss) {
    if (power_loss) {
      machine->PowerFailure();
    } else {
      machine->CrashProcess();
    }
    node->Detach();
  }

  // Revives the machine with a fresh scheduler and re-attaches the node. The
  // caller then constructs and starts the new server.
  void Restart() {
    machine->Restart();
    if (qos_ != nullptr) {
      sched = std::make_unique<qos::Scheduler>(machine->loop(), id(), *qos_);
      node->SetScheduler(sched.get());
    }
    node->Attach();
  }

  // Members are destroyed in reverse order: the server first, then the node
  // (~Node calls Scheduler::Reset(), so the scheduler must outlive it), then
  // the scheduler and the machine.
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<qos::Scheduler> sched;
  std::unique_ptr<Node> node;
  std::unique_ptr<Server> server;

 private:
  const qos::QosParams* qos_;
};

// Boots a group of servers whose Start() is a sim::Task<Status>: spawns every
// start on its host's actor, runs `loop` until all have resolved, then lets
// the cluster settle for 10 ms. Returns false if any start failed.
template <typename Server>
bool StartAll(sim::EventLoop& loop, std::vector<Host<Server>>& hosts) {
  auto pending = std::make_shared<size_t>(hosts.size());
  auto failed = std::make_shared<bool>(false);
  for (auto& h : hosts) {
    h.machine->actor().Spawn([](Server* server, std::shared_ptr<size_t> pending,
                                std::shared_ptr<bool> failed) -> sim::Task<> {
      Status s = co_await server->Start();
      if (!s.ok()) {
        *failed = true;
      }
      --*pending;
    }(h.server.get(), pending, failed));
  }
  while (*pending > 0 && loop.RunOne()) {
  }
  loop.RunFor(Millis(10));
  return !*failed;
}

}  // namespace cheetah::rpc

#endif  // SRC_RPC_HOST_H_
