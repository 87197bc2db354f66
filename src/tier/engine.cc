#include "src/tier/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/core/meta_server.h"
#include "src/core/messages.h"
#include "src/sim/actor.h"
#include "src/sim/sync.h"
#include "src/tier/policy.h"
#include "src/tier/striper.h"

namespace cheetah::tier {

TierEngine::TierEngine(core::MetaServer& ms, rpc::Node& rpc,
                       const core::CheetahOptions& options)
    : ms_(ms),
      rpc_(rpc),
      options_(options),
      counters_{obs::Scope("tier@" + std::to_string(rpc.id()))} {}

sim::Task<> TierEngine::Loop() {
  for (;;) {
    co_await sim::SleepFor(options_.tier.tier_scan_interval);
    co_await TierAll();
  }
}

sim::Task<> TierEngine::TierAll() {
  if (ms_.db_ == nullptr || ms_.topo_.view == 0 || options_.tier.ec_k == 0) {
    co_return;
  }
  for (cluster::PgId pg = 0; pg < ms_.topo_.pg_count; ++pg) {
    // Never demote out of a PG mid-migration: the multi-step extent swap
    // races both the catchup scan and the cutover's ownership flip.
    if (ms_.IsPrimary(pg) && ms_.ready_pgs_.contains(pg) &&
        ms_.topo_.MigrationOf(pg) == nullptr) {
      co_await TierPg(pg);
    }
  }
}

sim::Task<> TierEngine::TierPg(cluster::PgId pg) {
  // No stripes carved for this PG -> nothing can be demoted out of it.
  auto ec_it = ms_.topo_.ec_vgs.find(pg);
  if (ec_it == ms_.topo_.ec_vgs.end() || ec_it->second.empty()) {
    co_return;
  }
  const uint64_t scan_view = ms_.topo_.view;
  auto rows = co_await ms_.db_->Scan(core::ObMetaPrefix(pg), 0);
  if (!rows.ok()) {
    co_return;
  }
  for (const auto& [key, value] : *rows) {
    if (ms_.topo_.view != scan_view || !ms_.IsPrimary(pg) ||
        ms_.topo_.MigrationOf(pg) != nullptr) {
      co_return;  // superseded by a view change or an in-flight migration
    }
    cluster::PgId key_pg = 0;
    std::string name;
    if (!core::ParseObMetaKey(key, &key_pg, &name) || ms_.pending_names_.contains(name) ||
        ms_.tiering_names_.contains(name) || core::IsObMetaTombstone(value)) {
      continue;  // unsettled, already moving, or deleted
    }
    auto meta = core::ObMeta::Decode(value);
    if (!meta.ok() || meta->storage_class != core::StorageClass::kReplica) {
      continue;
    }
    counters_.scanned.Add();
    // Access recency: the ObMeta's birth time floors it (survives restarts);
    // gets served since then keep the object hot via last_access_.
    Nanos last = static_cast<Nanos>(meta->born_ns);
    if (auto ait = ms_.last_access_.find(name); ait != ms_.last_access_.end()) {
      last = std::max(last, ait->second);
    }
    if (!EligibleForDemotion(options_.tier, meta->size, last,
                             rpc_.machine().loop().Now())) {
      continue;
    }
    co_await DemoteObject(pg, std::move(name), std::move(*meta));
  }
}

sim::Task<> TierEngine::DemoteObject(cluster::PgId pg, std::string name,
                                     core::ObMeta meta) {
  const uint32_t k = options_.tier.ec_k;
  const uint32_t m = options_.tier.ec_m;
  auto alloc = ms_.AllocateEcStripe(pg, ShardBytes(meta.size, k));
  if (!alloc.ok()) {
    counters_.demote_failures.Add();
    co_return;
  }
  const cluster::LvId stripe_lvid = alloc->first;
  std::vector<alloc::Extent> stripe_extents = std::move(alloc->second);

  // Copy every topology-derived target out before the first co_await: a
  // TopologyPush landing mid-suspend swaps topo_ under this coroutine.
  struct Target {
    std::string device;
    uint32_t disk_index = 0;
    sim::NodeId node = sim::kInvalidNode;
  };
  std::vector<Target> chunk_targets;
  std::vector<Target> source_targets;
  uint32_t stripe_block_size = 4096;
  uint32_t src_block_size = 4096;
  {
    const cluster::LogicalVolume* stripe = ms_.topo_.FindLv(stripe_lvid);
    const cluster::LogicalVolume* src_lv = ms_.topo_.FindLv(meta.lvid);
    if (stripe == nullptr || src_lv == nullptr ||
        stripe->replicas.size() != static_cast<size_t>(k) + m) {
      co_await RevokeStripe(stripe_lvid, std::move(stripe_extents));
      counters_.demote_failures.Add();
      co_return;
    }
    stripe_block_size = stripe->block_size;
    src_block_size = src_lv->block_size;
    for (cluster::PvId pv_id : stripe->replicas) {
      const cluster::PhysicalVolume* pv = ms_.topo_.FindPv(pv_id);
      if (pv == nullptr) {
        co_await RevokeStripe(stripe_lvid, std::move(stripe_extents));
        counters_.demote_failures.Add();
        co_return;
      }
      chunk_targets.push_back(Target{pv->DeviceName(), pv->disk_index, pv->data_server});
    }
    for (cluster::PvId pv_id : src_lv->replicas) {
      const cluster::PhysicalVolume* pv = ms_.topo_.FindPv(pv_id);
      if (pv != nullptr && pv->healthy) {
        source_targets.push_back(Target{pv->DeviceName(), pv->disk_index, pv->data_server});
      }
    }
  }

  // Verified source read (maintenance class): the payload is checked against
  // the object checksum server-side, so a rotted replica can never be the
  // bytes that get striped.
  Bytes payload;
  bool have_payload = false;
  for (const Target& src : source_targets) {
    core::RepairReadRequest read;
    read.device = src.device;
    read.disk_index = src.disk_index;
    read.block_size = src_block_size;
    read.extents = meta.extents;
    read.length = meta.size;
    read.verify = true;
    read.expected_checksum = meta.checksum;
    auto r = co_await rpc_.Call(src.node, std::move(read), options_.rpc_timeout);
    if (r.ok() && r->content_valid) {
      payload = std::move(r->data);
      have_payload = true;
      break;
    }
  }
  if (!have_payload) {
    // Either every replica is damaged/unreachable right now, or the devices
    // run metadata-only (content_valid=false) and there are no real bytes to
    // restripe. Retry on a later pass.
    co_await RevokeStripe(stripe_lvid, std::move(stripe_extents));
    counters_.demote_failures.Add();
    co_return;
  }

  std::vector<std::string> chunks = EncodeChunks(payload.view(), k, m);
  std::vector<uint32_t> crcs = ChunkCrcs(chunks);

  // Chunk fan-out: chunk j to stripe PV j, each stored under its own CRC so
  // data servers can verify-reject individual chunks later. Still invisible:
  // MetaX points at the replicas until the swap below.
  std::vector<sim::Task<Status>> writes;
  for (size_t j = 0; j < chunk_targets.size(); ++j) {
    writes.push_back(
        [](TierEngine* self, Target target, uint32_t block_size,
           std::vector<alloc::Extent> extents, Bytes chunk,
           uint32_t crc) -> sim::Task<Status> {
          core::RepairWriteRequest write;
          write.view = self->ms_.topo_.view;
          write.device = target.device;
          write.disk_index = target.disk_index;
          write.block_size = block_size;
          write.extents = std::move(extents);
          write.data = std::move(chunk);
          write.checksum = crc;
          auto w = co_await self->rpc_.Call(target.node, std::move(write),
                                            self->options_.rpc_timeout);
          co_return w.ok() ? Status::Ok() : w.status();
        }(this, chunk_targets[j], stripe_block_size, stripe_extents,
          Bytes(std::move(chunks[j])), crcs[j]));
  }
  auto results = co_await sim::WhenAll(std::move(writes));
  for (const Status& s : results) {
    if (!s.ok()) {
      co_await RevokeStripe(stripe_lvid, std::move(stripe_extents));
      counters_.demote_failures.Add();
      co_return;
    }
  }

  // Read-back audit: a gray-failing disk acks writes whose media bytes
  // diverge from the CRC just recorded. Probe every chunk's stored checksum
  // before the swap so a born-corrupt stripe is revoked, never published.
  for (size_t j = 0; j < chunk_targets.size(); ++j) {
    core::DataProbeRequest probe;
    probe.device = chunk_targets[j].device;
    probe.disk_index = chunk_targets[j].disk_index;
    probe.block_size = stripe_block_size;
    probe.extents = stripe_extents;
    probe.expected_checksum = crcs[j];
    auto r = co_await rpc_.Call(chunk_targets[j].node, std::move(probe),
                                options_.rpc_timeout);
    if (!r.ok() || !r->present) {
      co_await RevokeStripe(stripe_lvid, std::move(stripe_extents));
      counters_.demote_failures.Add();
      co_return;
    }
  }

  // Swap: guard the name (puts/deletes bounce with kUnavailable for the one
  // persist round this takes), re-check the record, persist the EC ObMeta.
  ms_.tiering_names_.insert(name);
  bool swapped = false;
  bool persist_error = false;
  core::ObMeta old_meta;
  do {
    if (!ms_.IsPrimary(pg) || ms_.pending_names_.contains(name)) {
      break;
    }
    const std::string obkey = core::ObMetaKey(pg, name);
    auto value = co_await ms_.db_->Get(obkey);
    if (!value.ok() || core::IsObMetaTombstone(*value)) {
      break;  // deleted while the stripe was being built
    }
    auto cur = core::ObMeta::Decode(*value);
    if (!cur.ok() || cur->storage_class != core::StorageClass::kReplica ||
        cur->checksum != meta.checksum || cur->reqid != meta.reqid ||
        cur->lvid != meta.lvid) {
      break;  // recreated or moved underneath us
    }
    old_meta = *cur;
    core::ObMeta ec = std::move(*cur);
    ec.lvid = stripe_lvid;
    ec.extents = stripe_extents;
    ec.storage_class = core::StorageClass::kEc;
    ec.ec_k = k;
    ec.ec_m = m;
    ec.chunk_crcs = crcs;
    ec.born_ns = static_cast<uint64_t>(rpc_.machine().loop().Now());
    const std::string encoded = ec.Encode();
    kv::WriteBatch batch;
    batch.Put(obkey, encoded);
    Status ps = co_await ms_.PersistAndReplicate(pg, std::move(batch));
    if (!ps.ok()) {
      persist_error = true;
      break;
    }
    // Post-persist audit: a delete already past its guard check when the
    // guard went up may have tombstoned over the EC record. If the record is
    // not exactly ours, the old extents are someone else's problem (the
    // delete freed them) and the stripe must be revoked.
    auto after = co_await ms_.db_->Get(obkey);
    if (!after.ok() || *after != encoded) {
      break;
    }
    swapped = true;
  } while (false);

  if (!swapped) {
    co_await RevokeStripe(stripe_lvid, std::move(stripe_extents));
    ms_.tiering_names_.erase(name);
    (persist_error ? counters_.demote_failures : counters_.demote_aborts).Add();
    co_return;
  }

  // The object now lives as an EC stripe; retire the replica copies.
  if (alloc::BitmapAllocator* a = ms_.AllocatorFor(old_meta.lvid)) {
    a->Free(old_meta.extents);
  }
  ms_.dirty_bitmaps_.insert(old_meta.lvid);
  ms_.dirty_bitmaps_.insert(stripe_lvid);
  co_await ms_.DiscardData(old_meta);
  ms_.tiering_names_.erase(name);
  counters_.demotions.Add();
  counters_.bytes_demoted.Add(meta.size);
  LOG_DEBUG << "tier " << rpc_.id() << ": demoted " << name << " (" << meta.size
            << "B) to rs(" << k << "," << m << ") lv " << stripe_lvid;
}

sim::Task<> TierEngine::RevokeStripe(cluster::LvId stripe_lvid,
                                     std::vector<alloc::Extent> extents) {
  if (alloc::BitmapAllocator* a = ms_.AllocatorFor(stripe_lvid)) {
    a->Free(extents);
  }
  ms_.dirty_bitmaps_.insert(stripe_lvid);
  core::ObMeta doomed;
  doomed.lvid = stripe_lvid;
  doomed.extents = std::move(extents);
  co_await ms_.DiscardData(doomed);
}

}  // namespace cheetah::tier
