// Testbed: wires a complete Cheetah cluster inside one simulator — manager
// machines running Raft, meta machines, data machines, and client proxies —
// mirroring the paper's fifteen-machine setup at configurable scale. Used by
// the integration tests, every benchmark, and the examples.
#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/manager.h"
#include "src/core/client_proxy.h"
#include "src/core/data_server.h"
#include "src/core/meta_server.h"
#include "src/core/options.h"
#include "src/qos/scheduler.h"
#include "src/rpc/host.h"
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
  // default) and raise the per-request handler CPU base cost on every rpc
  // node (0 = rpc::Node's default), so a benchmark can place the saturation
  // point where it wants it.
  int meta_cpu_cores = 0;
  Nanos handler_base_cost = 0;

  sim::NetParams net;
  sim::DiskParams data_disk;
  sim::DiskParams meta_disk;

  // Store object payloads byte-for-byte (tests) or metadata-only (benches).
  bool store_volume_content = true;
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
  ClientProxy& proxy(int i) { return *proxies_.at(i).server; }
  MetaServer& meta(int i) { return *metas_.at(i).server; }
  DataServer& data(int i) { return *datas_.at(i).server; }
  cluster::Manager& manager(int i) { return *managers_.at(i).server; }
  sim::Machine& meta_machine(int i) { return *metas_.at(i).machine; }
  sim::Machine& data_machine(int i) { return *datas_.at(i).machine; }
  sim::Machine& proxy_machine(int i) { return *proxies_.at(i).machine; }
  sim::Machine& manager_machine(int i) { return *managers_.at(i).machine; }
  rpc::Node& proxy_rpc(int i) { return *proxies_.at(i).node; }  // protocol tests
  rpc::Node& data_rpc(int i) { return *datas_.at(i).node; }

  // Null when options.qos.enabled is false.
  qos::Scheduler* meta_scheduler(int i) { return metas_.at(i).sched.get(); }

  // Node ids, for schedule/partition composition by role + index.
  sim::NodeId meta_node(int i) const { return metas_.at(i).id(); }
  sim::NodeId data_node(int i) const { return datas_.at(i).id(); }
  sim::NodeId manager_node(int i) const { return manager_nodes_.at(i); }
  sim::NodeId proxy_node(int i) const { return proxies_.at(i).id(); }
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
  // A restart builds a fresh server process on the revived machine. A proxy
  // crash is always a process crash.
  void CrashMetaMachine(int i, bool power_loss) { metas_.at(i).Crash(power_loss); }
  void RestartMetaMachine(int i) { RestartHost(metas_.at(i), i); }
  void CrashDataMachine(int i, bool power_loss) { datas_.at(i).Crash(power_loss); }
  void RestartDataMachine(int i) { RestartHost(datas_.at(i), i); }
  void CrashProxy(int i) { proxies_.at(i).Crash(/*power_loss=*/false); }
  void RestartProxy(int i) { RestartHost(proxies_.at(i), i); }
  void CrashManager(int i, bool power_loss) { managers_.at(i).Crash(power_loss); }
  void RestartManager(int i) { RestartHost(managers_.at(i), i); }

  // Role-agnostic conveniences keyed by node id, so nemesis schedules and
  // tests compose faults declaratively without tracking host indices. Crash
  // of a dead node and Restart of a live one are no-ops.
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
  using ManagerHost = rpc::Host<cluster::Manager>;
  using MetaHost = rpc::Host<MetaServer>;
  using DataHost = rpc::Host<DataServer>;
  using ProxyHost = rpc::Host<ClientProxy>;
  using ManagerAction = std::function<sim::Task<Status>(cluster::Manager&)>;

  // Appends a wired host to `hosts`, with a QoS scheduler when `qos` is set
  // and QoS is on.
  template <typename Server>
  rpc::Host<Server>& Wire(std::vector<rpc::Host<Server>>& hosts, sim::NodeId id,
                          std::string name, const sim::MachineParams& params, bool qos);
  // Wires a new meta or data machine and builds its server (not started).
  // Returns its index.
  int AddMetaHost();
  int AddDataHost(uint32_t disks);

  // One factory per role: builds host i's server, with the role's first-boot
  // or restart seed. StartServer starts it the way Boot() does.
  void NewServer(ManagerHost& host, int i, bool restarted);
  void NewServer(MetaHost& host, int i, bool restarted);
  void NewServer(DataHost& host, int i, bool restarted);
  void NewServer(ProxyHost& host, int i, bool restarted);
  void StartServer(ManagerHost& host);
  template <typename Server>
  void StartServer(rpc::Host<Server>& host) {
    host.server->Start();
  }
  template <typename Server>
  void RestartHost(rpc::Host<Server>& host, int i) {
    host.Restart();
    NewServer(host, i, /*restarted=*/true);
    StartServer(host);
  }
  // Calls fn(host, index) on the host with node id `node`, whatever its role.
  template <typename Fn>
  void VisitHost(sim::NodeId node, Fn fn);

  // Runs a leader-only manager action, retrying across leader changes.
  Status RunManagerAction(const ManagerAction& action);
  // Fire-and-forget variant: spawns the action on the current leader's actor
  // without driving the loop. Returns false when no leader is known.
  bool SpawnManagerAction(ManagerAction action);
  // Spawns `action` on manager `i`'s actor; its status lands in `*out`.
  void SpawnOnManager(int i, ManagerAction action,
                      std::shared_ptr<std::optional<Status>> out);

  TestbedConfig config_;
  sim::EventLoop loop_;
  sim::Network net_;
  std::vector<sim::NodeId> manager_nodes_;
  std::vector<ManagerHost> managers_;
  std::vector<MetaHost> metas_;
  std::vector<DataHost> datas_;
  std::vector<ProxyHost> proxies_;
  sim::NodeId next_meta_id_ = 100;
  sim::NodeId next_data_id_ = 200;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_TESTBED_H_
