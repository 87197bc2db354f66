#include "src/cluster/manager.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/sim/actor.h"

namespace cheetah::cluster {

namespace {

constexpr Nanos kCheckInterval = Millis(100);  // failure-detector cadence
constexpr Nanos kFailTimeout = Millis(450);    // missed-heartbeat threshold
constexpr Nanos kLeaseDuration = Millis(300);
static_assert(kFailTimeout > kLeaseDuration,
              "a dead server's lease must expire before its removal activates");
// Phi-accrual suspicion (on top of the hard kFailTimeout floor): a server is
// only evicted once its silence is kPhiThreshold unlikely given its observed
// heartbeat inter-arrival mean over the last kPhiWindow samples. A node whose
// heartbeats are merely slow (gray network) grows a large mean and is judged
// against it instead of the wall-clock timeout alone.
constexpr double kPhiThreshold = 1.9;
constexpr uint32_t kPhiWindow = 16;
// Flap damping: each near-eviction (a heartbeat gap past kFailTimeout/2 that
// then closed) stretches the node's effective timeout by one extra
// kFailTimeout, capped at kMaxFlapPenalty extras; the count decays to zero
// after kFlapDecay of clean heartbeats.
constexpr uint32_t kMaxFlapPenalty = 3;
constexpr Nanos kFlapDecay = Seconds(10);
// Live drain: per-pull command timeout (a catchup pull pages through a whole
// PG) and the delay between drain retry rounds.
constexpr Nanos kMigrateRpcTimeout = Seconds(2);
constexpr Nanos kDrainRetryDelay = Millis(200);

}  // namespace

double PhiSuspicion(Nanos gap, Nanos mean_interarrival) {
  // Exponential arrival model: P(silence >= gap) = exp(-gap/mean), so
  // phi = -log10 P = gap / (mean * ln 10). The mean is floored to keep a
  // burst of back-to-back heartbeats from making any silence look alarming.
  const double mean = std::max<double>(static_cast<double>(mean_interarrival),
                                       static_cast<double>(Millis(10)));
  return 0.43429448190325176 * static_cast<double>(gap) / mean;
}

Nanos Manager::EffectiveFailTimeout(uint32_t flaps) const {
  const uint64_t penalty = std::min(flaps, kMaxFlapPenalty);
  return kFailTimeout * (1 + penalty);
}

Manager::Manager(rpc::Node& rpc, sim::Storage& storage, raft::Config raft_config, uint64_t seed)
    : rpc_(rpc) {
  raft_ = std::make_unique<raft::RaftNode>(rpc, storage, std::move(raft_config), &sm_, seed);
}

sim::Task<Status> Manager::Start() {
  CO_RETURN_IF_ERROR(co_await raft_->Start());
  rpc_.Serve<HeartbeatRequest, &Manager::HandleHeartbeat>(this);
  rpc_.Serve<GetTopologyRequest, &Manager::HandleGetTopology>(this);
  rpc_.Serve<ReportFailureRequest, &Manager::HandleReport>(this);
  rpc_.Serve<RecoveryDoneRequest, &Manager::HandleRecoveryDone>(this);
  rpc_.machine().actor().Spawn(LeaderLoop());
  co_return Status::Ok();
}

sim::Task<Status> Manager::MutateTopology(std::function<Status(TopologyMap&)> fn) {
  // Serialize read-modify-write cycles: concurrent mutations (e.g. several
  // RecoveryDone notifications landing together) must not clobber each other.
  while (mutating_) {
    co_await sim::SleepFor(Micros(200));
  }
  mutating_ = true;
  TopologyMap next = sm_.current;
  Status s = fn(next);
  if (s.ok()) {
    next.view = sm_.current.view + 1;
    auto r = co_await raft_->Propose(next.Serialize());
    s = r.ok() ? Status::Ok() : r.status();
    if (s.ok()) {
      ++topology_changes_;
      PushTopologyToAll();
    }
  }
  mutating_ = false;
  co_return s;
}

void Manager::PushTopologyToAll() {
  const std::string serialized = sm_.current.Serialize();
  std::set<sim::NodeId> targets;
  for (const auto& item : sm_.current.meta_crush.items()) {
    targets.insert(static_cast<sim::NodeId>(item.id));
  }
  for (sim::NodeId n : sm_.current.data_servers) {
    targets.insert(n);
  }
  for (const auto& [node, live] : liveness_) {
    targets.insert(node);
  }
  for (sim::NodeId n : targets) {
    TopologyPush push;
    push.serialized_map = serialized;
    rpc_.Notify(n, std::move(push));
  }
}

sim::Task<Status> Manager::Bootstrap(BootstrapSpec spec) {
  if (!raft_->is_leader()) {
    co_return Status::Unavailable("not the manager leader");
  }
  TopologyMap map;
  map.pg_count = spec.pg_count;
  map.replication = spec.replication;
  for (sim::NodeId m : spec.meta_servers) {
    map.meta_crush.AddItem(m);
  }
  map.data_servers = spec.data_servers;

  // Carve physical volumes.
  std::map<sim::NodeId, std::vector<PvId>> free_pvs;
  for (sim::NodeId ds : spec.data_servers) {
    for (uint32_t disk = 0; disk < spec.disks_per_data_server; ++disk) {
      for (uint32_t i = 0; i < spec.pvs_per_disk; ++i) {
        PhysicalVolume pv;
        pv.id = next_pv_id_++;
        pv.data_server = ds;
        pv.disk_index = disk;
        map.pvs[pv.id] = pv;
        free_pvs[ds].push_back(pv.id);
      }
    }
  }

  // Greedy replica-LV count for a hypothetical pool state: how many n-wide
  // LVs (distinct servers) the remaining free PVs could still form. Used to
  // keep EC stripe carving from starving the replica tier below pg_count.
  auto replica_lvs_formable = [&spec](std::map<sim::NodeId, std::vector<PvId>> pool) {
    uint32_t count = 0;
    for (;;) {
      std::vector<sim::NodeId> candidates;
      for (auto& [ds, list] : pool) {
        if (!list.empty()) {
          candidates.push_back(ds);
        }
      }
      if (candidates.size() < spec.replication) {
        return count;
      }
      std::sort(candidates.begin(), candidates.end(), [&](sim::NodeId a, sim::NodeId b) {
        return pool[a].size() > pool[b].size();
      });
      for (uint32_t r = 0; r < spec.replication; ++r) {
        pool[candidates[r]].pop_back();
      }
      ++count;
    }
  };

  // EC stripe LVs first (src/tier): width k+m, spread across as many distinct
  // servers as exist (PVs on the same server repeat only when the cluster is
  // narrower than the stripe). Stripes stop as soon as carving one more would
  // leave the replica tier unable to cover every PG.
  const uint32_t stripe_width = spec.ec_k > 0 ? spec.ec_k + spec.ec_m : 0;
  for (uint32_t s = 0; stripe_width > 0 && s < spec.pg_count; ++s) {
    auto pool = free_pvs;
    LogicalVolume lv;
    lv.id = next_lv_id_;
    lv.ec_stripe = true;
    lv.capacity_bytes = spec.lv_capacity_bytes;
    lv.block_size = spec.block_size;
    while (lv.replicas.size() < stripe_width) {
      std::vector<sim::NodeId> candidates;
      for (auto& [ds, list] : pool) {
        if (!list.empty()) {
          candidates.push_back(ds);
        }
      }
      if (candidates.empty()) {
        break;
      }
      std::sort(candidates.begin(), candidates.end(), [&](sim::NodeId a, sim::NodeId b) {
        return pool[a].size() > pool[b].size();
      });
      for (sim::NodeId ds : candidates) {
        if (lv.replicas.size() == stripe_width) {
          break;
        }
        lv.replicas.push_back(pool[ds].back());
        pool[ds].pop_back();
      }
    }
    if (lv.replicas.size() < stripe_width ||
        replica_lvs_formable(pool) < spec.pg_count) {
      break;
    }
    ++next_lv_id_;
    free_pvs = std::move(pool);
    map.ec_vgs[s % spec.pg_count].push_back(lv.id);
    map.lvs[lv.id] = std::move(lv);
  }

  // Group into logical volumes: n replicas on n distinct data servers.
  for (;;) {
    std::vector<sim::NodeId> candidates;
    for (auto& [ds, list] : free_pvs) {
      if (!list.empty()) {
        candidates.push_back(ds);
      }
    }
    if (candidates.size() < spec.replication) {
      break;
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](sim::NodeId a, sim::NodeId b) {
                return free_pvs[a].size() > free_pvs[b].size();
              });
    LogicalVolume lv;
    lv.id = next_lv_id_++;
    lv.capacity_bytes = spec.lv_capacity_bytes;
    lv.block_size = spec.block_size;
    for (uint32_t r = 0; r < spec.replication; ++r) {
      sim::NodeId ds = candidates[r];
      lv.replicas.push_back(free_pvs[ds].back());
      free_pvs[ds].pop_back();
    }
    map.lvs[lv.id] = lv;
  }

  // Every PG needs at least one logical volume in its VG, or its objects
  // would have nowhere to live (VGs are exclusive to their PG, §4.2).
  size_t replica_lvs = 0;
  for (const auto& [id, lv] : map.lvs) {
    replica_lvs += lv.ec_stripe ? 0 : 1;
  }
  if (replica_lvs < map.pg_count) {
    co_return Status::InvalidArgument(
        "bootstrap needs at least pg_count logical volumes (" +
        std::to_string(replica_lvs) + " < " + std::to_string(map.pg_count) + ")");
  }
  // Assign replica logical volumes to VGs round-robin; every PG gets a VG
  // entry. EC stripe LVs were already assigned to ec_vgs above.
  for (PgId pg = 0; pg < map.pg_count; ++pg) {
    map.vgs[pg] = {};
  }
  PgId pg = 0;
  for (const auto& [id, lv] : map.lvs) {
    if (lv.ec_stripe) {
      continue;
    }
    map.vgs[pg % map.pg_count].push_back(id);
    ++pg;
  }
  co_return co_await MutateTopology([&map](TopologyMap& next) {
    next = std::move(map);
    return Status::Ok();
  });
}

sim::Task<Status> Manager::AddMetaServer(sim::NodeId node) {
  if (!raft_->is_leader()) {
    co_return Status::Unavailable("not the manager leader");
  }
  co_return co_await MutateTopology([node](TopologyMap& next) {
    if (next.meta_crush.HasItem(node)) {
      return Status::AlreadyExists("meta server already mapped");
    }
    next.meta_crush.AddItem(node);
    return Status::Ok();
  });
}

sim::Task<Status> Manager::AddDataServer(sim::NodeId node, uint32_t disks,
                                         uint32_t pvs_per_disk) {
  if (!raft_->is_leader()) {
    co_return Status::Unavailable("not the manager leader");
  }
  co_return co_await MutateTopology([this, node, disks, pvs_per_disk](TopologyMap& next) {
  if (std::find(next.data_servers.begin(), next.data_servers.end(), node) ==
      next.data_servers.end()) {
    next.data_servers.push_back(node);
  }
  // Each new LV anchors one fresh PV on the new server plus n-1 fresh PVs on
  // the least-loaded existing servers, and joins a VG round-robin — new
  // objects can land on new volumes while existing objects stay put (§4.2).
  const uint32_t new_lvs = disks * pvs_per_disk;
  uint64_t lv_capacity = GiB(1);
  uint32_t block_size = 4096;
  if (!next.lvs.empty()) {
    lv_capacity = next.lvs.begin()->second.capacity_bytes;
    block_size = next.lvs.begin()->second.block_size;
  }
  std::map<sim::NodeId, size_t> load;
  for (sim::NodeId ds : next.data_servers) {
    load[ds] = 0;
  }
  for (const auto& [id, pv] : next.pvs) {
    ++load[pv.data_server];
  }
  PgId vg_cursor = 0;
  for (uint32_t i = 0; i < new_lvs; ++i) {
    LogicalVolume lv;
    lv.id = next_lv_id_++;
    lv.capacity_bytes = lv_capacity;
    lv.block_size = block_size;
    // Anchor on the new server.
    auto make_pv = [&](sim::NodeId ds, uint32_t disk) {
      PhysicalVolume pv;
      pv.id = next_pv_id_++;
      pv.data_server = ds;
      pv.disk_index = disk;
      next.pvs[pv.id] = pv;
      ++load[ds];
      return pv.id;
    };
    lv.replicas.push_back(make_pv(node, i % std::max(1u, disks)));
    std::vector<sim::NodeId> others;
    for (sim::NodeId ds : next.data_servers) {
      if (ds != node) {
        others.push_back(ds);
      }
    }
    std::sort(others.begin(), others.end(),
              [&](sim::NodeId a, sim::NodeId b) { return load[a] < load[b]; });
    for (uint32_t r = 1; r < next.replication && r - 1 < others.size(); ++r) {
      lv.replicas.push_back(make_pv(others[r - 1], 0));
    }
    if (lv.replicas.size() < next.replication) {
      return Status::InvalidArgument("not enough data servers for replication");
    }
    next.lvs[lv.id] = lv;
    next.vgs[vg_cursor % next.pg_count].push_back(lv.id);
    ++vg_cursor;
  }
  return Status::Ok();
  });
}

sim::Task<Status> Manager::DrainMetaServer(sim::NodeId node) {
  if (!raft_->is_leader()) {
    co_return Status::Unavailable("not the manager leader");
  }
  if (!sm_.current.meta_crush.HasItem(node)) {
    co_return Status::NotFound("not a mapped meta server");
  }
  if (sm_.current.meta_crush.size() <= 1) {
    co_return Status::InvalidArgument("cannot drain the last meta server");
  }
  if (!sm_.current.draining_metas.empty() && !sm_.current.IsDraining(node)) {
    co_return Status::Unavailable("another drain is in progress");
  }
  co_return co_await RunDrain(node);
}

sim::Task<Status> Manager::RunDrain(sim::NodeId node) {
  if (drain_running_) {
    co_return Status::Unavailable("a drain is already running");
  }
  drain_running_ = true;
  Status result = Status::Internal("drain did not converge");
  // Each round re-derives the step from the replicated topology, so the loop
  // is safe to enter at any phase (fresh drain, leader-change resumption, or
  // a replan after a concurrent failure changed the membership mid-drain).
  for (int round = 0; round < 50; ++round) {
    if (!raft_->is_leader()) {
      result = Status::Unavailable("lost manager leadership mid-drain");
      break;
    }
    if (!sm_.current.meta_crush.HasItem(node)) {
      // Gone from the map already: a prior cutover committed (retired) or
      // the failure detector evicted the node mid-drain (drain moot).
      result = sm_.current.IsRetired(node)
                   ? Status::Ok()
                   : Status::Unavailable("drain target evicted mid-drain");
      break;
    }

    // Prepare: publish a migration entry for every PG the node serves whose
    // post-removal replica set gains a member. PGs whose post-set is a subset
    // of today's members need no catchup (the survivors already hold them).
    Status s = co_await MutateTopology([node](TopologyMap& next) {
      if (!next.meta_crush.HasItem(node)) {
        return Status::Unavailable("drain target gone");
      }
      bool changed = false;
      if (!next.IsDraining(node)) {
        next.draining_metas.push_back(node);
        changed = true;
      }
      crush::Map after = next.meta_crush;
      after.RemoveItem(node);
      if (after.size() == 0) {
        return Status::InvalidArgument("cannot drain the last meta server");
      }
      for (PgId pg = 0; pg < next.pg_count; ++pg) {
        auto cur = next.MetaServersOf(pg);
        if (std::find(cur.begin(), cur.end(), node) == cur.end()) {
          continue;
        }
        auto post = after.Select(pg, next.replication);
        sim::NodeId dest = sim::kInvalidNode;
        for (sim::NodeId cand : post) {
          if (std::find(cur.begin(), cur.end(), cand) == cur.end()) {
            dest = cand;
            break;
          }
        }
        if (dest == sim::kInvalidNode) {
          continue;
        }
        auto it = next.migrations.find(pg);
        if (it != next.migrations.end() && it->second.destination == dest) {
          continue;  // entry survives a replan round, phase intact
        }
        PgMigration mig;
        mig.source = next.PrimaryOf(pg);
        mig.destination = dest;
        next.migrations[pg] = mig;
        changed = true;
      }
      return changed ? Status::Ok() : Status::AlreadyExists("no change");
    });
    if (!s.ok() && s.code() != ErrorCode::kAlreadyExists) {
      co_await sim::SleepFor(kDrainRetryDelay);
      continue;
    }

    // DoubleWrite then Catchup: two global phase bumps. From the DoubleWrite
    // view on, the source forwards every write to the destination; catchup
    // pulls are gated on that view so no write can slip between the scan and
    // the forwarding turning on.
    for (MigrationPhase target :
         {MigrationPhase::kDoubleWrite, MigrationPhase::kCatchup}) {
      s = co_await MutateTopology([node, target](TopologyMap& next) {
        if (!next.IsDraining(node)) {
          return Status::Unavailable("drain aborted");
        }
        bool changed = false;
        for (auto& [pg, mig] : next.migrations) {
          if (static_cast<uint8_t>(mig.phase) < static_cast<uint8_t>(target)) {
            mig.phase = target;
            changed = true;
          }
        }
        return changed ? Status::Ok() : Status::AlreadyExists("no change");
      });
      if (!s.ok() && s.code() != ErrorCode::kAlreadyExists) {
        break;
      }
    }
    if (!s.ok() && s.code() != ErrorCode::kAlreadyExists) {
      co_await sim::SleepFor(kDrainRetryDelay);
      continue;
    }

    // Command every destination to pull its PG from the source. Retries ride
    // inside the round; a destination that died mid-catchup loses its entry
    // (HandleMetaFailure) and the next round replans it.
    const uint64_t catchup_view = sm_.current.view;
    const std::map<PgId, PgMigration> entries = sm_.current.migrations;
    std::map<PgId, sim::NodeId> caught;
    bool all_caught = true;
    for (const auto& [pg, mig] : entries) {
      bool done = false;
      for (int attempt = 0; attempt < 5 && !done; ++attempt) {
        const PgMigration* cur = sm_.current.MigrationOf(pg);
        if (cur == nullptr || cur->destination != mig.destination) {
          break;  // entry dropped or replanned; next round handles it
        }
        MigratePgRequest req;
        req.view = catchup_view;
        req.pg = pg;
        req.source = cur->source;
        auto r = co_await rpc_.Call(mig.destination, std::move(req),
                                    kMigrateRpcTimeout);
        if (r.ok()) {
          done = true;
        } else {
          co_await sim::SleepFor(kDrainRetryDelay);
        }
      }
      if (done) {
        caught[pg] = mig.destination;
      } else {
        all_caught = false;
      }
    }
    if (!all_caught) {
      co_await sim::SleepFor(kDrainRetryDelay);
      continue;
    }

    // Cutover: one atomic view bump removes the node from CRUSH, clears the
    // migration entries, and retires it — but only if the entry set is still
    // exactly the set that finished catchup. Any divergence (a concurrent
    // failure replanned an entry under us) restarts the round instead.
    s = co_await MutateTopology([node, &caught](TopologyMap& next) {
      if (!next.meta_crush.HasItem(node) || !next.IsDraining(node)) {
        return Status::Unavailable("drain aborted");
      }
      if (next.migrations.size() != caught.size()) {
        return Status::Unavailable("migration set changed during catchup");
      }
      for (const auto& [pg, dest] : caught) {
        const PgMigration* cur = next.MigrationOf(pg);
        if (cur == nullptr || cur->destination != dest) {
          return Status::Unavailable("migration set changed during catchup");
        }
      }
      next.meta_crush.RemoveItem(node);
      next.migrations.clear();
      next.draining_metas.erase(
          std::remove(next.draining_metas.begin(), next.draining_metas.end(), node),
          next.draining_metas.end());
      if (!next.IsRetired(node)) {
        next.retired_metas.push_back(node);
      }
      return Status::Ok();
    });
    if (s.ok()) {
      ++drains_completed_;
      LOG_INFO << "manager: drain of " << node << " complete, node retired";
      result = Status::Ok();
      break;
    }
    co_await sim::SleepFor(kDrainRetryDelay);
  }
  drain_running_ = false;
  co_return result;
}

sim::Task<> Manager::LeaderLoop() {
  bool was_leader = false;
  for (;;) {
    co_await sim::SleepFor(kCheckInterval);
    const bool leader_now = raft_->is_leader();
    if (leader_now && !was_leader) {
      // Liveness collected while we were a follower (e.g. during boot) is
      // stale; grant every known server a grace period before judging it.
      // prev_arrival resets too so the follower-era gap never enters the
      // phi window as a fake inter-arrival sample.
      const Nanos now = rpc_.machine().loop().Now();
      for (auto& [node, live] : liveness_) {
        live.last_seen = now;
        live.prev_arrival = 0;
      }
      // A drain interrupted by the old leader's fall is replicated state;
      // pick it back up. RunDrain is phase-idempotent (it re-derives the
      // step from the topology), so resumption is safe at any point.
      if (!sm_.current.draining_metas.empty() && !drain_running_) {
        const sim::NodeId draining = sm_.current.draining_metas.front();
        rpc_.machine().actor().Spawn(
            [](Manager* self, sim::NodeId node) -> sim::Task<> {
              (void)co_await self->RunDrain(node);
            }(this, draining));
      }
    }
    was_leader = leader_now;
    if (!leader_now || sm_.current.pg_count == 0) {
      continue;
    }
    co_await CheckFailures();
  }
}

sim::Task<> Manager::CheckFailures() {
  const Nanos now = rpc_.machine().loop().Now();
  std::vector<std::pair<sim::NodeId, ServerKind>> failed;
  for (const auto& [node, live] : liveness_) {
    if (live.kind == ServerKind::kClientProxy) {
      continue;  // proxy crashes are handled by meta servers (§5.3)
    }
    if (handling_failure_.contains(node)) {
      continue;
    }
    const Nanos gap = now - live.last_seen;
    if (gap <= EffectiveFailTimeout(live.flaps)) {
      continue;  // within the (flap-stretched) hard floor
    }
    // Past the floor: consult the accrual detector. With a healthy heartbeat
    // history the phi threshold lands at ~kFailTimeout; a node whose
    // heartbeats were already slow (gray network) has a proportionally larger
    // mean and must stay silent proportionally longer before eviction. Fewer
    // than 3 samples -> no usable distribution, fall back to the plain floor.
    if (live.intervals.size() >= 3) {
      Nanos sum = 0;
      for (Nanos iv : live.intervals) {
        sum += iv;
      }
      const Nanos mean = sum / static_cast<Nanos>(live.intervals.size());
      if (PhiSuspicion(gap, mean) < kPhiThreshold) {
        ++flap_suppressions_;
        continue;  // silence still plausible for this node's cadence
      }
    }
    failed.emplace_back(node, live.kind);
  }
  for (auto [node, kind] : failed) {
    handling_failure_.insert(node);
    LOG_INFO << "manager: declaring " << node << " failed";
    ++evictions_;
    if (kind == ServerKind::kMetaServer) {
      co_await HandleMetaFailure(node);
    } else {
      co_await HandleDataFailure(node);
    }
    liveness_.erase(node);
    handling_failure_.erase(node);
  }

  // Re-admit recovered meta servers: a node absent from the map but
  // heartbeating again has returned from its eviction. Its stale local PG
  // state is safe to bring back — adoption re-pulls across the view gap and
  // merges, with deletes carried as tombstones (core/meta_server.cc).
  // Draining and retired nodes are deliberately absent: re-admitting them
  // would undo a decommission the moment the drained node heartbeats.
  std::vector<sim::NodeId> returned;
  for (const auto& [node, live] : liveness_) {
    if (live.kind == ServerKind::kMetaServer && !handling_failure_.contains(node) &&
        now - live.last_seen <= kFailTimeout &&
        !sm_.current.meta_crush.HasItem(node) && !sm_.current.IsDraining(node) &&
        !sm_.current.IsRetired(node)) {
      returned.push_back(node);
    }
  }
  for (sim::NodeId node : returned) {
    LOG_INFO << "manager: re-admitting meta server " << node;
    (void)co_await MutateTopology([node](TopologyMap& next) {
      if (next.meta_crush.HasItem(node)) {
        return Status::AlreadyExists("meta server already mapped");
      }
      next.meta_crush.AddItem(node);
      return Status::Ok();
    });
  }
}

sim::Task<> Manager::HandleMetaFailure(sim::NodeId node) {
  if (!sm_.current.meta_crush.HasItem(node)) {
    co_return;
  }
  if (sm_.current.meta_crush.size() <= 1) {
    LOG_WARN << "manager: refusing to remove the last meta server " << node;
    co_return;
  }
  (void)co_await MutateTopology([node](TopologyMap& next) {
    if (!next.meta_crush.HasItem(node)) {
      return Status::AlreadyExists("already removed");
    }
    next.meta_crush.RemoveItem(node);
    // Repair any in-flight drain the crash intersects. A dead draining node
    // aborts its own drain (entries cleared, not retired — if it returns it
    // may re-admit); a dead migration *destination* drops just its entries
    // (the drain driver replans them); a dead *source* re-points catchup at
    // the PG's post-removal primary.
    if (next.IsDraining(node)) {
      next.migrations.clear();
      next.draining_metas.erase(
          std::remove(next.draining_metas.begin(), next.draining_metas.end(), node),
          next.draining_metas.end());
    } else {
      for (auto it = next.migrations.begin(); it != next.migrations.end();) {
        if (it->second.destination == node) {
          it = next.migrations.erase(it);
          continue;
        }
        if (it->second.source == node) {
          it->second.source = next.PrimaryOf(it->first);
        }
        ++it;
      }
    }
    return Status::Ok();
  });
  // The new primaries pull their PGs' MetaX from the surviving replicas when
  // they observe the new view (core/meta_server.cc). CRUSH Select always
  // fills the replica set from the remaining members, so the under-replicated
  // window closes as soon as the new members' adoption pulls complete —
  // that re-replication runs as background/maintenance QoS traffic.
}

sim::Task<> Manager::HandleDataFailure(sim::NodeId node) {
  struct Replacement {
    LvId lv;
    PvId source_pv;
    sim::NodeId source_server;
    uint32_t source_disk;
    PvId target_pv;
    sim::NodeId target_server;
    uint32_t target_disk;
  };
  std::vector<Replacement> plans;
  bool known_server = false;

  Status ms = co_await MutateTopology([&](TopologyMap& next) {
  bool hosts_volumes = false;
  known_server =
      std::find(next.data_servers.begin(), next.data_servers.end(), node) !=
      next.data_servers.end();
  std::map<sim::NodeId, size_t> load;
  for (sim::NodeId ds : next.data_servers) {
    if (ds != node) {
      load[ds] = 0;
    }
  }
  for (const auto& [id, pv] : next.pvs) {
    if (pv.data_server != node && load.contains(pv.data_server)) {
      ++load[pv.data_server];
    }
  }

  for (auto& [lv_id, lv] : next.lvs) {
    for (PvId& pv_id : lv.replicas) {
      PhysicalVolume& old_pv = next.pvs[pv_id];
      if (old_pv.data_server != node) {
        continue;
      }
      hosts_volumes = true;
      // Choose the least-loaded server not already hosting this LV.
      sim::NodeId target = sim::kInvalidNode;
      size_t best = SIZE_MAX;
      for (const auto& [ds, l] : load) {
        const bool holds_replica = std::any_of(
            lv.replicas.begin(), lv.replicas.end(), [&](PvId r) {
              return r != pv_id && next.pvs[r].data_server == ds;
            });
        if (!holds_replica && l < best) {
          best = l;
          target = ds;
        }
      }
      if (target == sim::kInvalidNode) {
        lv.writable = false;  // cannot re-replicate; degraded
        continue;
      }
      // Pick a healthy source replica.
      PvId source = 0;
      for (PvId r : lv.replicas) {
        if (r != pv_id && next.pvs[r].healthy && next.pvs[r].data_server != node) {
          source = r;
          break;
        }
      }
      PhysicalVolume fresh;
      fresh.id = next_pv_id_++;
      fresh.data_server = target;
      fresh.disk_index = old_pv.disk_index;
      fresh.healthy = false;  // until recovery completes
      next.pvs[fresh.id] = fresh;
      ++load[target];
      old_pv.healthy = false;
      lv.writable = false;  // readonly until recovered (§5.3)
      if (source != 0) {
        plans.push_back(Replacement{lv_id, source, next.pvs[source].data_server,
                                    next.pvs[source].disk_index, fresh.id, target,
                                    fresh.disk_index});
      }
      pv_id = fresh.id;
    }
  }
  next.data_servers.erase(
      std::remove(next.data_servers.begin(), next.data_servers.end(), node),
      next.data_servers.end());
  if (!hosts_volumes && !known_server) {
    return Status::NotFound("not a data server we know");
  }
  return Status::Ok();
  });
  if (!ms.ok()) {
    co_return;
  }

  // Kick off parallel re-replication on the replacement servers.
  for (const auto& plan : plans) {
    RecoverVolumeRequest req;
    req.view = sm_.current.view;
    req.lv = plan.lv;
    req.source_pv = plan.source_pv;
    req.source_server = plan.source_server;
    req.source_disk = plan.source_disk;
    req.target_pv = plan.target_pv;
    req.target_disk = plan.target_disk;
    rpc_.Notify(plan.target_server, std::move(req));
  }
}

sim::Task<Result<HeartbeatReply>> Manager::HandleHeartbeat(sim::NodeId src,
                                                           HeartbeatRequest req) {
  const Nanos now = rpc_.machine().loop().Now();
  Liveness& live = liveness_[req.node];
  live.kind = req.kind;
  if (live.prev_arrival != 0) {
    live.intervals.push_back(now - live.prev_arrival);
    while (live.intervals.size() > kPhiWindow) {
      live.intervals.pop_front();
    }
    // A gap that crossed half the eviction floor and then healed is a flap:
    // stretch this node's effective timeout so repeated near-death episodes
    // (gray links) don't each race the detector. Quiet time decays it.
    if (now - live.prev_arrival > kFailTimeout / 2) {
      live.flaps = std::min(live.flaps + 1, kMaxFlapPenalty);
      live.last_flap = now;
    } else if (live.flaps > 0 && now - live.last_flap > kFlapDecay) {
      live.flaps = 0;
    }
  }
  live.prev_arrival = now;
  live.last_seen = now;
  HeartbeatReply reply;
  reply.current_view = sm_.current.view;
  reply.is_leader = raft_->is_leader();
  reply.lease_duration = raft_->is_leader() ? kLeaseDuration : 0;
  co_return reply;
}

sim::Task<Result<GetTopologyReply>> Manager::HandleGetTopology(sim::NodeId src,
                                                               GetTopologyRequest req) {
  GetTopologyReply reply;
  if (req.have_view >= sm_.current.view) {
    reply.changed = false;
    co_return reply;
  }
  reply.changed = true;
  reply.serialized_map = sm_.current.Serialize();
  co_return reply;
}

sim::Task<Result<ReportFailureReply>> Manager::HandleReport(sim::NodeId src,
                                                            ReportFailureRequest req) {
  // A report ages the suspect's liveness so the next check acts quickly; the
  // manager still relies on its own heartbeat evidence (§5.3).
  auto it = liveness_.find(req.suspect);
  if (it != liveness_.end()) {
    const Nanos now = rpc_.machine().loop().Now();
    const Nanos aged = now - kFailTimeout / 2;
    it->second.last_seen = std::min(it->second.last_seen, aged);
  }
  co_return ReportFailureReply{};
}

sim::Task<Result<RecoveryDoneReply>> Manager::HandleRecoveryDone(sim::NodeId src,
                                                                 RecoveryDoneRequest req) {
  if (!raft_->is_leader()) {
    co_return Status::Unavailable("not the manager leader");
  }
  Status s = co_await MutateTopology([&req](TopologyMap& next) {
    auto lv_it = next.lvs.find(req.lv);
    if (lv_it == next.lvs.end()) {
      return Status::NotFound("unknown lv");
    }
    auto pv_it = next.pvs.find(req.target_pv);
    if (pv_it != next.pvs.end()) {
      pv_it->second.healthy = true;
    }
    // Writable again once every replica is healthy.
    bool all_healthy = true;
    for (PvId r : lv_it->second.replicas) {
      all_healthy &= next.pvs[r].healthy;
    }
    lv_it->second.writable = all_healthy;
    return Status::Ok();
  });
  if (!s.ok()) {
    co_return s;
  }
  co_return RecoveryDoneReply{};
}

}  // namespace cheetah::cluster
