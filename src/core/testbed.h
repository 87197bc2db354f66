// Testbed: wires a complete Cheetah cluster inside one simulator — manager
// machines running Raft, meta machines, data machines, and client proxies —
// mirroring the paper's fifteen-machine setup at configurable scale. Used by
// the integration tests, every benchmark, and the examples.
#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/manager.h"
#include "src/core/client_proxy.h"
#include "src/core/data_server.h"
#include "src/core/meta_server.h"
#include "src/core/options.h"
#include "src/qos/scheduler.h"
#include "src/rpc/node.h"

namespace cheetah::core {

struct TestbedConfig {
  TestbedConfig() = default;

  int managers = 3;
  int meta_machines = 3;
  int data_machines = 9;
  int proxies = 3;

  uint32_t pg_count = 64;
  uint32_t replication = 3;
  uint32_t disks_per_data_machine = 4;
  uint32_t pvs_per_disk = 6;  // must yield >= pg_count logical volumes
  uint64_t lv_capacity_bytes = GiB(4);
  uint32_t block_size = 4096;

  CheetahOptions options;

  // Overload-bench knobs: cap meta-server CPU cores (0 = MachineParams
  // default) and set per-request handler CPU costs on every rpc node, so a
  // benchmark can place the saturation point where it wants it.
  int meta_cpu_cores = 0;
  rpc::Node::HandlerCosts handler_costs;

  sim::NetParams net;
  sim::DiskParams data_disk;
  sim::DiskParams meta_disk;
  cluster::ManagerConfig manager;

  // Store object payloads byte-for-byte (tests) or metadata-only (benches).
  bool store_volume_content = true;

  // Virtual time Boot() runs to let elections/bootstrap/leases settle.
  Nanos boot_warmup = Seconds(3);
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Elects a manager leader, bootstraps the topology, starts all servers,
  // and runs until meta servers hold leases and PGs are ready.
  Status Boot();

  sim::EventLoop& loop() { return loop_; }
  sim::Network& network() { return net_; }

  int num_proxies() const { return static_cast<int>(proxies_.size()); }
  int num_meta() const { return static_cast<int>(metas_.size()); }
  int num_data() const { return static_cast<int>(datas_.size()); }
  int num_managers() const { return static_cast<int>(managers_.size()); }
  ClientProxy& proxy(int i) { return *proxies_.at(i).proxy; }
  MetaServer& meta(int i) { return *metas_.at(i).server; }
  DataServer& data(int i) { return *datas_.at(i).server; }
  cluster::Manager& manager(int i) { return *managers_.at(i).manager; }
  sim::Machine& meta_machine(int i) { return *metas_.at(i).machine; }
  sim::Machine& data_machine(int i) { return *datas_.at(i).machine; }
  sim::Machine& proxy_machine(int i) { return *proxies_.at(i).machine; }
  sim::Machine& manager_machine(int i) { return *managers_.at(i).machine; }
  rpc::Node& proxy_rpc(int i) { return *proxies_.at(i).rpc; }  // protocol tests
  rpc::Node& meta_rpc(int i) { return *metas_.at(i).rpc; }
  rpc::Node& data_rpc(int i) { return *datas_.at(i).rpc; }

  // Null when options.qos.enabled is false.
  qos::Scheduler* meta_scheduler(int i) { return metas_.at(i).sched.get(); }
  qos::Scheduler* data_scheduler(int i) { return datas_.at(i).sched.get(); }

  // Node ids, for schedule/partition composition by role + index.
  sim::NodeId meta_node(int i) const { return metas_.at(i).machine->node_id(); }
  sim::NodeId data_node(int i) const { return datas_.at(i).machine->node_id(); }
  sim::NodeId manager_node(int i) const { return manager_nodes_.at(i); }
  sim::NodeId proxy_node(int i) const { return proxies_.at(i).machine->node_id(); }
  std::vector<sim::NodeId> AllNodes() const;

  // Returns the current Raft-leader manager, or -1.
  int LeaderManager() const;

  // ---- blocking convenience operations (drive the loop until done) ----
  Status PutObject(int proxy, std::string name, std::string data);
  Result<std::string> GetObject(int proxy, std::string name);
  Status DeleteObject(int proxy, std::string name);

  // Spawns `task` on proxy i's actor and runs the loop until it resolves or
  // `budget` virtual time elapses. Returns false on budget exhaustion.
  bool RunOnProxy(int i, std::function<sim::Task<>(ClientProxy&)> body,
                  Nanos budget = Seconds(30));

  // Runs the loop for `d` of virtual time (background activity continues).
  void RunFor(Nanos d) { loop_.RunFor(d); }

  // ---- failure injection ----
  void CrashMetaMachine(int i, bool power_loss);
  void RestartMetaMachine(int i);
  void CrashDataMachine(int i, bool power_loss);
  void RestartDataMachine(int i);
  void CrashProxy(int i);
  void RestartProxy(int i);
  void CrashManager(int i, bool power_loss);
  void RestartManager(int i);

  // Role-agnostic conveniences keyed by node id, so nemesis schedules and
  // tests compose faults declaratively without tracking bundle indices.
  void Partition(sim::NodeId a, sim::NodeId b) { net_.SetPartitioned(a, b, true); }
  void Isolate(sim::NodeId node);   // partition `node` from every other node
  void Heal() { net_.ClearPartitions(); }
  void Crash(sim::NodeId node, bool power_loss = false);
  void Restart(sim::NodeId node);

  // ---- expansion (§6.3 / Fig. 14) ----
  // Adds a fresh meta machine+server and maps it via CRUSH. Returns its
  // index. With settle=false the call returns as soon as the view change
  // commits, so callers can measure while adoption/migration is in flight.
  Result<int> AddMetaMachine(bool settle = true);
  Result<int> AddDataMachine(uint32_t disks, uint32_t pvs_per_disk);

  // ---- membership lifecycle (non-blocking variants) ----
  // The blocking helpers above drive the event loop internally, so they can't
  // be called from inside the loop (a nemesis callback, a workload coroutine,
  // or a bench that is already pumping the loop). These Begin* variants wire
  // any new hardware synchronously, spawn the manager-side mutation on the
  // current Raft leader's actor, and return immediately; callers observe the
  // result through the topology (view bump / retired_metas).
  int BeginAddMetaMachine();
  int BeginAddDataMachine(uint32_t disks, uint32_t pvs_per_disk);
  // Starts a planned drain of meta machine i on the current leader. The drain
  // itself survives leader changes (it is resumed from replicated state), so
  // one successful Begin is enough. Returns false when no leader is up.
  bool BeginDrainMetaMachine(int i);
  // Blocking drain: begins the drain and drives the loop until the node is
  // retired from the topology or `budget` virtual time elapses.
  Status DrainMetaMachine(int i, Nanos budget = Seconds(60));

  const TestbedConfig& config() const { return config_; }
  std::vector<sim::NodeId> manager_nodes() const { return manager_nodes_; }

 private:
  struct ManagerBundle {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<rpc::Node> rpc;
    std::unique_ptr<cluster::Manager> manager;
  };
  // `sched` is declared before `rpc`: ~Node calls Scheduler::Reset(), so the
  // scheduler must be destroyed after the node.
  struct MetaBundle {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<qos::Scheduler> sched;
    std::unique_ptr<rpc::Node> rpc;
    std::unique_ptr<MetaServer> server;
  };
  struct DataBundle {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<qos::Scheduler> sched;
    std::unique_ptr<rpc::Node> rpc;
    std::unique_ptr<DataServer> server;
  };
  struct ProxyBundle {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<rpc::Node> rpc;
    std::unique_ptr<ClientProxy> proxy;
  };

  MetaBundle MakeMetaBundle(sim::NodeId id, int seed);
  DataBundle MakeDataBundle(sim::NodeId id, uint32_t disks);

  // Runs a leader-only manager action, retrying across leader changes.
  Status RunManagerAction(std::function<sim::Task<Status>(cluster::Manager&)> action);
  // Fire-and-forget variant: spawns the action on the current leader's actor
  // without driving the loop. Returns false when no leader is known.
  bool SpawnManagerAction(std::function<sim::Task<Status>(cluster::Manager&)> action);

  TestbedConfig config_;
  sim::EventLoop loop_;
  sim::Network net_;
  std::vector<sim::NodeId> manager_nodes_;
  std::vector<ManagerBundle> managers_;
  std::vector<MetaBundle> metas_;
  std::vector<DataBundle> datas_;
  std::vector<ProxyBundle> proxies_;
  sim::NodeId next_meta_id_ = 100;
  sim::NodeId next_data_id_ = 200;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_TESTBED_H_
