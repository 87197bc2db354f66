#include "src/cluster/topology.h"

#include <algorithm>

#include "src/common/coding.h"
#include "src/common/crc32c.h"

namespace cheetah::cluster {

std::vector<PgId> TopologyMap::PgsOf(sim::NodeId node) const {
  std::vector<PgId> out;
  for (PgId pg = 0; pg < pg_count; ++pg) {
    auto servers = MetaServersOf(pg);
    if (std::find(servers.begin(), servers.end(), node) != servers.end()) {
      out.push_back(pg);
    }
  }
  return out;
}

std::vector<PgId> TopologyMap::PrimaryPgsOf(sim::NodeId node) const {
  std::vector<PgId> out;
  for (PgId pg = 0; pg < pg_count; ++pg) {
    if (PrimaryOf(pg) == node) {
      out.push_back(pg);
    }
  }
  return out;
}

std::optional<LvTargets> TopologyMap::TargetsOf(LvId lv_id, PvFilter filter) const {
  const LogicalVolume* lv = FindLv(lv_id);
  if (lv == nullptr) {
    return std::nullopt;
  }
  LvTargets out;
  out.block_size = lv->block_size;
  for (PvId pv_id : lv->replicas) {
    const PhysicalVolume* pv = FindPv(pv_id);
    if (pv == nullptr && filter == PvFilter::kRequireAll) {
      return std::nullopt;
    }
    if (pv == nullptr || (filter == PvFilter::kSkipUnhealthy && !pv->healthy)) {
      continue;
    }
    out.targets.push_back({pv->DeviceName(), pv->disk_index, pv->data_server});
  }
  return out;
}

std::string TopologyMap::Serialize() const {
  std::string body;
  PutVarint64(&body, view);
  PutVarint64(&body, pg_count);
  PutVarint64(&body, replication);
  PutVarint64(&body, meta_crush.items().size());
  for (const auto& item : meta_crush.items()) {
    PutVarint64(&body, item.id);
    PutFixed64(&body, static_cast<uint64_t>(item.weight * 1000.0));
  }
  PutVarint64(&body, data_servers.size());
  for (sim::NodeId n : data_servers) {
    PutVarint64(&body, n);
  }
  PutVarint64(&body, pvs.size());
  for (const auto& [id, pv] : pvs) {
    PutVarint64(&body, pv.id);
    PutVarint64(&body, pv.data_server);
    PutVarint64(&body, pv.disk_index);
    body.push_back(pv.healthy ? 1 : 0);
  }
  PutVarint64(&body, lvs.size());
  for (const auto& [id, lv] : lvs) {
    PutVarint64(&body, lv.id);
    PutVarint64(&body, lv.replicas.size());
    for (PvId pv : lv.replicas) {
      PutVarint64(&body, pv);
    }
    body.push_back(lv.writable ? 1 : 0);
    body.push_back(lv.ec_stripe ? 1 : 0);
    PutVarint64(&body, lv.capacity_bytes);
    PutVarint64(&body, lv.block_size);
  }
  PutVarint64(&body, vgs.size());
  for (const auto& [pg, lv_list] : vgs) {
    PutVarint64(&body, pg);
    PutVarint64(&body, lv_list.size());
    for (LvId lv : lv_list) {
      PutVarint64(&body, lv);
    }
  }
  PutVarint64(&body, ec_vgs.size());
  for (const auto& [pg, lv_list] : ec_vgs) {
    PutVarint64(&body, pg);
    PutVarint64(&body, lv_list.size());
    for (LvId lv : lv_list) {
      PutVarint64(&body, lv);
    }
  }
  PutVarint64(&body, migrations.size());
  for (const auto& [pg, mig] : migrations) {
    PutVarint64(&body, pg);
    body.push_back(static_cast<char>(mig.phase));
    PutVarint64(&body, mig.source);
    PutVarint64(&body, mig.destination);
  }
  PutVarint64(&body, draining_metas.size());
  for (sim::NodeId n : draining_metas) {
    PutVarint64(&body, n);
  }
  PutVarint64(&body, retired_metas.size());
  for (sim::NodeId n : retired_metas) {
    PutVarint64(&body, n);
  }
  std::string out;
  PutFixed32(&out, Crc32c(body));
  out += body;
  return out;
}

Result<TopologyMap> TopologyMap::Deserialize(std::string_view data) {
  uint32_t crc = 0;
  if (!GetFixed32(&data, &crc) || Crc32c(data) != crc) {
    return Status::Corruption("topology checksum");
  }
  TopologyMap map;
  uint64_t v = 0;
  auto need = [&](bool ok) { return ok ? Status::Ok() : Status::Corruption("topology"); };
  RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
  map.view = v;
  RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
  map.pg_count = static_cast<uint32_t>(v);
  RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
  map.replication = static_cast<uint32_t>(v);

  uint64_t n = 0;
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0, w = 0;
    RETURN_IF_ERROR(need(GetVarint64(&data, &id) && GetFixed64(&data, &w)));
    map.meta_crush.AddItem(static_cast<crush::ItemId>(id), static_cast<double>(w) / 1000.0);
  }
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
    map.data_servers.push_back(static_cast<sim::NodeId>(v));
  }
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    PhysicalVolume pv;
    uint64_t id = 0, ds = 0, disk = 0;
    RETURN_IF_ERROR(
        need(GetVarint64(&data, &id) && GetVarint64(&data, &ds) && GetVarint64(&data, &disk)));
    if (data.empty()) {
      return Status::Corruption("topology pv flags");
    }
    pv.id = static_cast<PvId>(id);
    pv.data_server = static_cast<sim::NodeId>(ds);
    pv.disk_index = static_cast<uint32_t>(disk);
    pv.healthy = data.front() != 0;
    data.remove_prefix(1);
    map.pvs[pv.id] = pv;
  }
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    LogicalVolume lv;
    uint64_t id = 0, nr = 0;
    RETURN_IF_ERROR(need(GetVarint64(&data, &id) && GetVarint64(&data, &nr)));
    lv.id = static_cast<LvId>(id);
    for (uint64_t r = 0; r < nr; ++r) {
      RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
      lv.replicas.push_back(static_cast<PvId>(v));
    }
    if (data.size() < 2) {
      return Status::Corruption("topology lv flags");
    }
    lv.writable = data.front() != 0;
    data.remove_prefix(1);
    lv.ec_stripe = data.front() != 0;
    data.remove_prefix(1);
    RETURN_IF_ERROR(need(GetVarint64(&data, &lv.capacity_bytes)));
    RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
    lv.block_size = static_cast<uint32_t>(v);
    map.lvs[lv.id] = lv;
  }
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pg = 0, count = 0;
    RETURN_IF_ERROR(need(GetVarint64(&data, &pg) && GetVarint64(&data, &count)));
    std::vector<LvId>& list = map.vgs[static_cast<PgId>(pg)];
    for (uint64_t c = 0; c < count; ++c) {
      RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
      list.push_back(static_cast<LvId>(v));
    }
  }
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pg = 0, count = 0;
    RETURN_IF_ERROR(need(GetVarint64(&data, &pg) && GetVarint64(&data, &count)));
    std::vector<LvId>& list = map.ec_vgs[static_cast<PgId>(pg)];
    for (uint64_t c = 0; c < count; ++c) {
      RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
      list.push_back(static_cast<LvId>(v));
    }
  }
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pg = 0;
    RETURN_IF_ERROR(need(GetVarint64(&data, &pg)));
    if (data.empty()) {
      return Status::Corruption("topology migration phase");
    }
    PgMigration mig;
    mig.phase = static_cast<MigrationPhase>(data.front());
    data.remove_prefix(1);
    uint64_t src = 0, dst = 0;
    RETURN_IF_ERROR(need(GetVarint64(&data, &src) && GetVarint64(&data, &dst)));
    mig.source = static_cast<sim::NodeId>(src);
    mig.destination = static_cast<sim::NodeId>(dst);
    map.migrations[static_cast<PgId>(pg)] = mig;
  }
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
    map.draining_metas.push_back(static_cast<sim::NodeId>(v));
  }
  RETURN_IF_ERROR(need(GetVarint64(&data, &n)));
  for (uint64_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(need(GetVarint64(&data, &v)));
    map.retired_metas.push_back(static_cast<sim::NodeId>(v));
  }
  return map;
}

bool TopologyMap::SameShape(const TopologyMap& other) const {
  return view == other.view && pg_count == other.pg_count &&
         replication == other.replication &&
         meta_crush.items().size() == other.meta_crush.items().size() &&
         data_servers == other.data_servers && pvs.size() == other.pvs.size() &&
         lvs.size() == other.lvs.size() && vgs.size() == other.vgs.size() &&
         ec_vgs.size() == other.ec_vgs.size() &&
         migrations.size() == other.migrations.size() &&
         draining_metas == other.draining_metas &&
         retired_metas == other.retired_metas;
}

}  // namespace cheetah::cluster
