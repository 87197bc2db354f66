#include "src/core/testbed.h"

#include <type_traits>

#include "src/common/logging.h"

namespace cheetah::core {

namespace {
constexpr sim::NodeId kManagerBase = 1;
constexpr sim::NodeId kProxyBase = 300;
// Virtual time Boot() runs to let elections, bootstrap and leases settle.
constexpr Nanos kBootWarmup = Seconds(3);
}  // namespace

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)), net_(loop_, config_.net) {
  // Managers (the paper co-locates them with the clients; node identity is
  // what matters here).
  for (int i = 0; i < config_.managers; ++i) {
    manager_nodes_.push_back(kManagerBase + i);
  }
  sim::MachineParams params;
  params.disk = config_.meta_disk;
  for (int i = 0; i < config_.managers; ++i) {
    NewServer(Wire(managers_, manager_nodes_[i], "manager" + std::to_string(i), params, false), i,
              /*restarted=*/false);
  }
  for (int i = 0; i < config_.meta_machines; ++i) {
    AddMetaHost();
  }
  for (int i = 0; i < config_.data_machines; ++i) {
    AddDataHost(config_.disks_per_data_machine);
  }
  for (int i = 0; i < config_.proxies; ++i) {
    NewServer(Wire(proxies_, kProxyBase + i, "proxy" + std::to_string(i), params, false), i,
              /*restarted=*/false);
  }
}

Testbed::~Testbed() = default;

template <typename Server>
rpc::Host<Server>& Testbed::Wire(std::vector<rpc::Host<Server>>& hosts, sim::NodeId id,
                                 std::string name, const sim::MachineParams& params, bool qos) {
  auto& host = hosts.emplace_back(loop_, net_, id, std::move(name), params,
                                  qos && config_.options.qos.enabled ? &config_.options.qos
                                                                     : nullptr);
  if (config_.handler_base_cost > 0) {
    host.node->SetHandlerBaseCost(config_.handler_base_cost);
  }
  return host;
}

int Testbed::AddMetaHost() {
  const int i = num_meta();
  const sim::NodeId id = next_meta_id_++;
  sim::MachineParams params;
  params.num_disks = 1;
  params.disk = config_.meta_disk;
  if (config_.meta_cpu_cores > 0) {
    params.cpu_cores = config_.meta_cpu_cores;
  }
  NewServer(Wire(metas_, id, "meta" + std::to_string(id), params, true), i, /*restarted=*/false);
  return i;
}

int Testbed::AddDataHost(uint32_t disks) {
  const int i = num_data();
  const sim::NodeId id = next_data_id_++;
  sim::MachineParams params;
  params.num_disks = static_cast<int>(disks);
  params.disk = config_.data_disk;
  DataHost& host = Wire(datas_, id, "data" + std::to_string(id), params, true);
  for (size_t d = 0; d < host.machine->num_disks(); ++d) {
    host.machine->disk(d).set_store_volume_content(config_.store_volume_content);
  }
  NewServer(host, i, /*restarted=*/false);
  return i;
}

void Testbed::NewServer(ManagerHost& host, int i, bool restarted) {
  raft::Config raft_config;
  raft_config.members = manager_nodes_;
  host.server = std::make_unique<cluster::Manager>(*host.node, host.machine->disk(), raft_config,
                                                   (restarted ? 0xbeef : 0xa11ce) + i);
}

void Testbed::NewServer(MetaHost& host, int i, bool restarted) {
  host.server = std::make_unique<MetaServer>(*host.node, config_.options, manager_nodes_,
                                             (restarted ? 0xfeed : 0x5eed) + i);
}

void Testbed::NewServer(DataHost& host, int /*i*/, bool /*restarted*/) {
  host.server = std::make_unique<DataServer>(*host.node, config_.options, manager_nodes_);
}

void Testbed::NewServer(ProxyHost& host, int i, bool /*restarted*/) {
  host.server = std::make_unique<ClientProxy>(*host.node, config_.options, manager_nodes_,
                                              static_cast<uint32_t>(i + 1));
}

void Testbed::StartServer(ManagerHost& host) {
  host.machine->actor().Spawn([](cluster::Manager* mgr) -> sim::Task<> {
    Status s = co_await mgr->Start();
    if (!s.ok()) {
      LOG_ERROR << "manager start failed: " << s.ToString();
    }
  }(host.server.get()));
}

template <typename Fn>
void Testbed::VisitHost(sim::NodeId node, Fn fn) {
  auto visit = [node, &fn](auto& hosts) {
    for (size_t i = 0; i < hosts.size(); ++i) {
      if (hosts[i].id() == node) {
        fn(hosts[i], static_cast<int>(i));
        return true;
      }
    }
    return false;
  };
  (void)(visit(metas_) || visit(datas_) || visit(managers_) || visit(proxies_));
}

int Testbed::LeaderManager() const {
  for (size_t i = 0; i < managers_.size(); ++i) {
    if (managers_[i].alive() && managers_[i].server->is_raft_leader()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Testbed::SpawnOnManager(int i, ManagerAction action,
                             std::shared_ptr<std::optional<Status>> out) {
  managers_[i].machine->actor().Spawn(
      [](cluster::Manager* m, ManagerAction action,
         std::shared_ptr<std::optional<Status>> out) -> sim::Task<> {
        Status s = co_await action(*m);
        if (!s.ok()) {
          LOG_DEBUG << "manager action: " << s.ToString();
        }
        *out = std::move(s);
      }(managers_[i].server.get(), std::move(action), std::move(out)));
}

Status Testbed::RunManagerAction(const ManagerAction& action) {
  for (int round = 0; round < 10; ++round) {
    int leader = LeaderManager();
    if (leader < 0) {
      loop_.RunFor(Millis(200));
      continue;
    }
    auto result = std::make_shared<std::optional<Status>>();
    SpawnOnManager(leader, action, result);
    const Nanos deadline = loop_.Now() + Seconds(10);
    while (!result->has_value() && loop_.Now() < deadline) {
      if (!loop_.RunOne()) {
        break;
      }
    }
    if (!result->has_value()) {
      return Status::Internal("manager action did not resolve");
    }
    if (!(*result)->IsUnavailable()) {
      return **result;
    }
    loop_.RunFor(Millis(200));  // leader moved; retry
  }
  return Status::Unavailable("manager action failed across retries");
}

bool Testbed::SpawnManagerAction(ManagerAction action) {
  const int leader = LeaderManager();
  if (leader < 0) {
    return false;
  }
  SpawnOnManager(leader, std::move(action), std::make_shared<std::optional<Status>>());
  return true;
}

Status Testbed::Boot() {
  for (auto& m : managers_) {
    StartServer(m);
  }
  // Elect a leader.
  const Nanos deadline = loop_.Now() + Seconds(10);
  while (LeaderManager() < 0 && loop_.Now() < deadline) {
    loop_.RunFor(Millis(50));
  }
  if (LeaderManager() < 0) {
    return Status::Unavailable("no manager leader elected");
  }
  // Bootstrap topology.
  cluster::BootstrapSpec spec;
  spec.pg_count = config_.pg_count;
  spec.replication = config_.replication;
  for (auto& m : metas_) {
    spec.meta_servers.push_back(m.id());
  }
  for (auto& d : datas_) {
    spec.data_servers.push_back(d.id());
  }
  spec.disks_per_data_server = config_.disks_per_data_machine;
  spec.pvs_per_disk = config_.pvs_per_disk;
  spec.lv_capacity_bytes = config_.lv_capacity_bytes;
  spec.block_size = config_.block_size;
  spec.ec_k = config_.options.tier.ec_k;
  spec.ec_m = config_.options.tier.ec_m;
  RETURN_IF_ERROR(RunManagerAction(
      [spec](cluster::Manager& m) { return m.Bootstrap(spec); }));

  // Start the data plane.
  for (auto& m : metas_) {
    m.server->Start();
  }
  for (auto& d : datas_) {
    d.server->Start();
  }
  for (auto& p : proxies_) {
    p.server->Start();
  }
  loop_.RunFor(kBootWarmup);

  for (auto& m : metas_) {
    if (!m.server->HasLease() || m.server->view() == 0) {
      return Status::Unavailable("meta server failed to come up");
    }
  }
  return Status::Ok();
}

bool Testbed::RunOnProxy(int i, std::function<sim::Task<>(ClientProxy&)> body, Nanos budget) {
  auto done = std::make_shared<bool>(false);
  proxies_.at(i).machine->actor().Spawn(
      [](ClientProxy* proxy, std::function<sim::Task<>(ClientProxy&)> body,
         std::shared_ptr<bool> done) -> sim::Task<> {
        co_await body(*proxy);
        *done = true;
      }(proxies_.at(i).server.get(), std::move(body), done));
  const Nanos deadline = loop_.Now() + budget;
  while (!*done && loop_.Now() < deadline) {
    if (!loop_.RunOne()) {
      break;
    }
  }
  return *done;
}

Status Testbed::PutObject(int proxy, std::string name, std::string data) {
  auto result = std::make_shared<Status>(Status::Internal("unresolved"));
  const bool done = RunOnProxy(proxy, [name = std::move(name), data = std::move(data),
                                       result](ClientProxy& p) -> sim::Task<> {
    *result = co_await p.Put(name, data);
  });
  return done ? *result : Status::Timeout("put did not resolve in budget");
}

Result<std::string> Testbed::GetObject(int proxy, std::string name) {
  auto result =
      std::make_shared<Result<std::string>>(Status::Internal("unresolved"));
  const bool done =
      RunOnProxy(proxy, [name = std::move(name), result](ClientProxy& p) -> sim::Task<> {
        *result = co_await p.Get(name);
      });
  if (!done) {
    return Status::Timeout("get did not resolve in budget");
  }
  return *result;
}

Status Testbed::DeleteObject(int proxy, std::string name) {
  auto result = std::make_shared<Status>(Status::Internal("unresolved"));
  const bool done =
      RunOnProxy(proxy, [name = std::move(name), result](ClientProxy& p) -> sim::Task<> {
        *result = co_await p.Delete(name);
      });
  return done ? *result : Status::Timeout("delete did not resolve in budget");
}

std::vector<sim::NodeId> Testbed::AllNodes() const {
  std::vector<sim::NodeId> out;
  auto add = [&out](const auto& hosts) {
    for (const auto& h : hosts) {
      out.push_back(h.id());
    }
  };
  add(managers_);
  add(metas_);
  add(datas_);
  add(proxies_);
  return out;
}

void Testbed::Isolate(sim::NodeId node) {
  for (sim::NodeId other : AllNodes()) {
    if (other != node) {
      net_.SetPartitioned(node, other, true);
    }
  }
}

void Testbed::Crash(sim::NodeId node, bool power_loss) {
  VisitHost(node, [power_loss](auto& host, int) {
    constexpr bool kProxy = std::is_same_v<std::remove_reference_t<decltype(host)>, ProxyHost>;
    if (host.alive()) {
      host.Crash(power_loss && !kProxy);
    }
  });
}

void Testbed::Restart(sim::NodeId node) {
  VisitHost(node, [this](auto& host, int i) {
    if (!host.alive()) {
      RestartHost(host, i);
    }
  });
}

Result<int> Testbed::AddMetaMachine(bool settle) {
  const int i = AddMetaHost();
  metas_[i].server->Start();
  const sim::NodeId id = meta_node(i);
  RETURN_IF_ERROR(RunManagerAction([id](cluster::Manager& m) { return m.AddMetaServer(id); }));
  if (settle) {
    loop_.RunFor(Seconds(1));  // let adoption/pulls settle
  }
  return i;
}

int Testbed::BeginAddMetaMachine() {
  const int i = AddMetaHost();
  metas_[i].server->Start();
  const sim::NodeId id = meta_node(i);
  (void)SpawnManagerAction([id](cluster::Manager& m) { return m.AddMetaServer(id); });
  return i;
}

Result<int> Testbed::AddDataMachine(uint32_t disks, uint32_t pvs_per_disk) {
  const int i = AddDataHost(disks);
  datas_[i].server->Start();
  const sim::NodeId id = data_node(i);
  RETURN_IF_ERROR(RunManagerAction([id, disks, pvs_per_disk](cluster::Manager& m) {
    return m.AddDataServer(id, disks, pvs_per_disk);
  }));
  loop_.RunFor(Seconds(1));
  return i;
}

int Testbed::BeginAddDataMachine(uint32_t disks, uint32_t pvs_per_disk) {
  const int i = AddDataHost(disks);
  datas_[i].server->Start();
  const sim::NodeId id = data_node(i);
  (void)SpawnManagerAction([id, disks, pvs_per_disk](cluster::Manager& m) {
    return m.AddDataServer(id, disks, pvs_per_disk);
  });
  return i;
}

bool Testbed::BeginDrainMetaMachine(int i) {
  const sim::NodeId node = meta_node(i);
  return SpawnManagerAction(
      [node](cluster::Manager& m) { return m.DrainMetaServer(node); });
}

Status Testbed::DrainMetaMachine(int i, Nanos budget) {
  const sim::NodeId node = meta_node(i);
  if (!BeginDrainMetaMachine(i)) {
    return Status::Unavailable("no manager leader to start the drain");
  }
  const Nanos deadline = loop_.Now() + budget;
  while (loop_.Now() < deadline) {
    const int leader = LeaderManager();
    if (leader >= 0) {
      const cluster::TopologyMap& topo = managers_[leader].server->topology();
      if (topo.IsRetired(node)) {
        return Status::Ok();
      }
      // Aborted: the drain target died mid-drain and was evicted instead.
      if (!topo.meta_crush.HasItem(node) && !topo.IsDraining(node)) {
        return Status::Unavailable("drain target evicted before retirement");
      }
    }
    loop_.RunFor(Millis(50));
  }
  return Status::Timeout("drain did not complete in budget");
}

}  // namespace cheetah::core
