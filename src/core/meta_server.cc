#include "src/core/meta_server.h"

#include <algorithm>

#include "src/common/crc32c.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/core/scrubber.h"
#include "src/qos/qos.h"
#include "src/sim/actor.h"
#include "src/sim/sync.h"
#include "src/tier/engine.h"
#include "src/tier/policy.h"

namespace cheetah::core {

namespace {

std::string BitmapFile(cluster::LvId lv) { return "bitmap_" + std::to_string(lv); }

}  // namespace

MetaServer::MetaServer(rpc::Node& rpc, CheetahOptions options,
                       std::vector<sim::NodeId> manager_nodes, uint64_t seed)
    : rpc_(rpc),
      options_(std::move(options)),
      manager_nodes_(std::move(manager_nodes)),
      seed_(seed),
      counters_{obs::Scope("meta@" + std::to_string(rpc.id()))} {
  scrubber_ = std::make_unique<Scrubber>(*this, rpc_, options_);
  tier_ = std::make_unique<tier::TierEngine>(*this, rpc_, options_);
}

MetaServer::~MetaServer() = default;

void MetaServer::Start() {
  rpc_.Serve<PutAllocRequest>(
      [this](sim::NodeId src, PutAllocRequest req) {
        return HandlePutAlloc(src, std::move(req));
      },
      qos::TrafficClass::kForeground);
  rpc_.Serve<PutCommitNotify>(
      [this](sim::NodeId src, PutCommitNotify req) {
        return HandleCommit(src, std::move(req));
      },
      qos::TrafficClass::kForeground);
  rpc_.Serve<GetMetaRequest>(
      [this](sim::NodeId src, GetMetaRequest req) {
        return HandleGet(src, std::move(req));
      },
      qos::TrafficClass::kForeground);
  rpc_.Serve<DeleteRequest>(
      [this](sim::NodeId src, DeleteRequest req) {
        return HandleDelete(src, std::move(req));
      },
      qos::TrafficClass::kForeground);
  rpc_.Serve<ReplicateMetaXRequest>(
      [this](sim::NodeId src, ReplicateMetaXRequest req) {
        return HandleReplicate(src, std::move(req));
      },
      qos::TrafficClass::kReplication);
  rpc_.Serve<PgPullRequest>(
      [this](sim::NodeId src, PgPullRequest req) {
        return HandlePgPull(src, std::move(req));
      },
      qos::TrafficClass::kBackground);
  rpc_.Serve<cluster::MigratePgRequest>(
      [this](sim::NodeId src, cluster::MigratePgRequest req) {
        return HandleMigratePg(src, std::move(req));
      },
      qos::TrafficClass::kMaintenance);
  rpc_.Serve<cluster::TopologyPush>([this](sim::NodeId src, cluster::TopologyPush req) {
    return HandleTopologyPush(src, std::move(req));
  });
  rpc_.machine().actor().Spawn(Init());
}

sim::Task<> MetaServer::Init() {
  kv::Options kv_opts = options_.metax_kv;
  kv_opts.name = "metax";
  auto db = co_await kv::DB::Open(std::move(kv_opts), &rpc_.machine().disk(0));
  if (!db.ok()) {
    LOG_ERROR << "meta server " << rpc_.id() << ": db open failed: "
              << db.status().ToString();
    co_return;
  }
  db_ = std::move(*db);
  rpc_.machine().actor().Spawn(HeartbeatLoop());
  rpc_.machine().actor().Spawn(CleanerLoop());
  if (options_.scrub_interval > 0) {
    rpc_.machine().actor().Spawn(scrubber_->Loop());
  }
  if (options_.tier.tier_scan_interval > 0 && options_.tier.ec_k > 0) {
    rpc_.machine().actor().Spawn(tier_->Loop());
  }
}

bool MetaServer::HasLease() const {
  return rpc_.machine().loop().Now() < lease_until_;
}

bool MetaServer::IsPrimary(cluster::PgId pg) const {
  return topo_.pg_count > 0 && topo_.PrimaryOf(pg) == rpc_.id();
}

Status MetaServer::CheckRequest(uint64_t view, cluster::PgId pg, bool need_primary) const {
  if (db_ == nullptr || topo_.view == 0) {
    return Status::Unavailable("meta server initializing");
  }
  if (view != topo_.view) {
    return Status::StaleView("server at view " + std::to_string(topo_.view));
  }
  if (!HasLease()) {
    return Status::Unavailable("lease expired");
  }
  if (!ready_pgs_.contains(pg)) {
    return Status::Unavailable("pg not ready");
  }
  if (need_primary && !IsPrimary(pg)) {
    return Status::StaleView("not the primary of this pg");
  }
  return Status::Ok();
}

std::vector<cluster::LvId> MetaServer::EffectiveVg(cluster::PgId pg) const {
  if (!options_.no_volume_groups) {
    auto it = topo_.vgs.find(pg);
    return it == topo_.vgs.end() ? std::vector<cluster::LvId>{} : it->second;
  }
  // Cheetah-NoVG: volumes are partitioned over PGs in an order keyed by the
  // meta membership, so meta expansion reshuffles which volumes belong to
  // which PG and object data must chase its PG's new volumes (Fig. 14).
  uint64_t meta_seed = 0;
  for (const auto& item : topo_.meta_crush.items()) {
    meta_seed = Mix64(meta_seed ^ item.id);
  }
  std::vector<std::pair<uint64_t, cluster::LvId>> shuffled;
  for (const auto& [id, lv] : topo_.lvs) {
    if (lv.ec_stripe) {
      continue;  // stripe LVs never serve replica allocations
    }
    shuffled.emplace_back(Mix64(id * 0x9e3779b97f4a7c15ull ^ meta_seed), id);
  }
  std::sort(shuffled.begin(), shuffled.end());
  std::vector<cluster::LvId> out;
  for (size_t i = 0; i < shuffled.size(); ++i) {
    if (i % topo_.pg_count == pg) {
      out.push_back(shuffled[i].second);
    }
  }
  return out;
}

alloc::BitmapAllocator* MetaServer::AllocatorFor(cluster::LvId lv_id) {
  auto it = allocators_.find(lv_id);
  if (it != allocators_.end()) {
    return &it->second;
  }
  const cluster::LogicalVolume* lv = topo_.FindLv(lv_id);
  if (lv == nullptr) {
    return nullptr;
  }
  auto [nit, inserted] =
      allocators_.emplace(lv_id, alloc::BitmapAllocator(lv->TotalBlocks(), lv->block_size));
  return &nit->second;
}

Result<std::pair<cluster::LvId, std::vector<alloc::Extent>>> MetaServer::AllocateSpace(
    cluster::PgId pg, uint64_t bytes) {
  std::vector<cluster::LvId> candidates = EffectiveVg(pg);
  // Prefer the volume with the most free space (simple load balancing).
  std::sort(candidates.begin(), candidates.end(),
            [this](cluster::LvId a, cluster::LvId b) {
              auto* aa = allocators_.find(a) != allocators_.end() ? &allocators_.at(a) : nullptr;
              auto* bb = allocators_.find(b) != allocators_.end() ? &allocators_.at(b) : nullptr;
              const uint64_t fa = aa ? aa->free_blocks() : ~0ull;
              const uint64_t fb = bb ? bb->free_blocks() : ~0ull;
              return fa > fb;
            });
  for (cluster::LvId lv_id : candidates) {
    const cluster::LogicalVolume* lv = topo_.FindLv(lv_id);
    if (lv == nullptr || !lv->writable) {
      continue;
    }
    alloc::BitmapAllocator* allocator = AllocatorFor(lv_id);
    if (allocator == nullptr) {
      continue;
    }
    auto extents = allocator->Allocate(bytes);
    if (extents.ok()) {
      return std::make_pair(lv_id, std::move(*extents));
    }
  }
  return Status::ResourceExhausted("no writable volume can fit the object");
}

Result<std::pair<cluster::LvId, std::vector<alloc::Extent>>> MetaServer::AllocateEcStripe(
    cluster::PgId pg, uint64_t chunk_bytes) {
  auto it = topo_.ec_vgs.find(pg);
  if (it == topo_.ec_vgs.end() || it->second.empty()) {
    return Status::ResourceExhausted("pg has no ec stripe volumes");
  }
  std::vector<cluster::LvId> candidates = it->second;
  std::sort(candidates.begin(), candidates.end(),
            [this](cluster::LvId a, cluster::LvId b) {
              auto* aa = allocators_.find(a) != allocators_.end() ? &allocators_.at(a) : nullptr;
              auto* bb = allocators_.find(b) != allocators_.end() ? &allocators_.at(b) : nullptr;
              const uint64_t fa = aa ? aa->free_blocks() : ~0ull;
              const uint64_t fb = bb ? bb->free_blocks() : ~0ull;
              return fa > fb;
            });
  for (cluster::LvId lv_id : candidates) {
    const cluster::LogicalVolume* lv = topo_.FindLv(lv_id);
    if (lv == nullptr || !lv->writable || !lv->ec_stripe) {
      continue;
    }
    alloc::BitmapAllocator* allocator = AllocatorFor(lv_id);
    if (allocator == nullptr) {
      continue;
    }
    auto extents = allocator->Allocate(chunk_bytes);
    if (extents.ok()) {
      return std::make_pair(lv_id, std::move(*extents));
    }
  }
  return Status::ResourceExhausted("no ec stripe can fit the chunk");
}

// ---- put ----

sim::Task<Result<PutAllocReply>> MetaServer::HandlePutAlloc(sim::NodeId src,
                                                            PutAllocRequest req) {
  const cluster::PgId pg = topo_.pg_count ? topo_.PgOf(req.name) : 0;
  CO_RETURN_IF_ERROR(CheckRequest(req.view, pg, /*need_primary=*/true));
  if (tiering_names_.contains(req.name)) {
    // Mid-demotion metadata swap (src/tier): bounce for the one persist
    // round the swap takes; the proxy's retry loop absorbs it.
    co_return Status::Unavailable("object is moving between storage classes");
  }
  counters_.put_allocs.Add();

  // A retry may be chasing a put whose effect already came AND went: the
  // first attempt landed, a concurrent delete consumed the object, and only
  // then did the resend arrive. Re-executing would recreate an object the
  // delete was acked for removing. The delete left this op's OpDone marker
  // precisely so the resend can be answered "done" without re-running.
  if ((req.re_meta || req.re_data) &&
      (co_await db_->Get(OpDoneKey(pg, req.proxy_id, req.reqid))).ok()) {
    PutAllocReply reply;
    reply.already_done = true;
    reply.persisted = true;
    co_return reply;
  }

  // Resume path (§5.3 RE-META): the put already allocated — return the same
  // allocation and re-replicate MetaX so the backups converge.
  if (auto it = pending_names_.find(req.name); it != pending_names_.end()) {
    PendingPut& p = pending_[it->second];
    if (p.reqid == req.reqid) {
      if (req.re_data && p.meta.storage_class != StorageClass::kInline) {
        // §5.3 RE-DATA: atomically pick a new volume and revoke the old
        // allocation on the problematic one. Allocate before freeing: if no
        // volume can fit the object the put must be revoked outright —
        // leaving the pending entry (and its replicated MetaX) behind would
        // let the cleaner complete a put the proxy was told failed.
        auto alloc = AllocateSpace(pg, req.size);
        if (!alloc.ok()) {
          PendingPut doomed = p;
          co_await RevokePut(std::move(doomed));
          co_return alloc.status();
        }
        if (alloc::BitmapAllocator* a = AllocatorFor(p.meta.lvid)) {
          a->Free(p.meta.extents);
        }
        co_await DiscardData(p.meta);
        p.meta.lvid = alloc->first;
        p.meta.extents = std::move(alloc->second);
      }
      std::vector<std::pair<std::string, std::string>> puts;
      puts.emplace_back(ObMetaKey(pg, req.name), p.meta.Encode());
      PgLog pglog;
      pglog.name = req.name;
      pglog.pxlogkey = PxLogKey(p.proxy_id, p.reqid);
      puts.emplace_back(PgLogKey(pg, p.opseq), pglog.Encode());
      PxLog pxlog;
      pxlog.name = req.name;
      pxlog.pglogkey = PgLogKey(pg, p.opseq);
      puts.emplace_back(PxLogKey(p.proxy_id, p.reqid), pxlog.Encode());
      Status ps = co_await PersistAndReplicate(pg, std::move(puts), {});
      PutAllocReply reply;
      reply.lvid = p.meta.lvid;
      reply.extents = p.meta.extents;
      reply.opseq = p.opseq;
      reply.persisted = true;
      reply.inline_stored = p.meta.storage_class == StorageClass::kInline;
      if (!ps.ok()) {
        co_return ps;
      }
      p.persisted = true;
      co_return reply;
    }
    co_return Status::AlreadyExists("object has an in-flight put");
  }

  // Immutability: an existing (visible) object cannot be overwritten. A
  // tombstone is not an object — recreating a deleted name is legal and
  // simply overwrites the tombstone.
  {
    auto existing = co_await db_->Get(ObMetaKey(pg, req.name));
    if (existing.ok() && !IsObMetaTombstone(*existing)) {
      // A retry (RE-META or RE-DATA) may be chasing its own success: the
      // first attempt's MetaX survived — or a get-triggered verification
      // (§4.3.2) completed the pending put — but the proxy never saw the
      // ack. For immutable objects the create is idempotent per content, so
      // the same bytes re-put is answered with the original allocation — the
      // proxy re-writes the same extents and completes normally instead of
      // being told AlreadyExists about a put whose effect is visible.
      if (req.re_meta || req.re_data) {
        auto meta = ObMeta::Decode(*existing);
        if (meta.ok() && meta->checksum == req.checksum && meta->size == req.size) {
          PutAllocReply reply;
          reply.lvid = meta->lvid;
          reply.extents = meta->extents;
          reply.persisted = true;
          reply.inline_stored = meta->storage_class == StorageClass::kInline;
          co_return reply;
        }
      }
      co_return Status::AlreadyExists("object exists (immutable)");
    }
  }

  // Inline placement (src/tier): the payload lives in the ObMeta record
  // itself — no allocation, no data servers, and the put is complete once
  // the MetaX triple persists.
  const bool inline_put = req.is_inline && req.inline_data.size() == req.size;
  std::pair<cluster::LvId, std::vector<alloc::Extent>> placement;
  if (!inline_put) {
    auto alloc = AllocateSpace(pg, req.size);
    if (!alloc.ok()) {
      co_return alloc.status();
    }
    placement = std::move(*alloc);
  }
  const uint64_t opseq = ++pg_opseq_[pg];

  PendingPut p;
  p.reqid = req.reqid;
  p.name = req.name;
  p.pg = pg;
  p.opseq = opseq;
  p.proxy_id = req.proxy_id;
  p.proxy_node = req.proxy_node;
  if (inline_put) {
    p.meta.storage_class = StorageClass::kInline;
    p.meta.inline_data = std::move(req.inline_data);
  } else {
    p.meta.lvid = placement.first;
    p.meta.extents = std::move(placement.second);
  }
  p.meta.checksum = req.checksum;
  p.meta.size = req.size;
  p.meta.proxy_id = req.proxy_id;
  p.meta.reqid = req.reqid;
  p.meta.born_ns = static_cast<uint64_t>(rpc_.machine().loop().Now());
  p.born = rpc_.machine().loop().Now();

  std::vector<std::pair<std::string, std::string>> puts;
  puts.emplace_back(ObMetaKey(pg, req.name), p.meta.Encode());
  if (!options_.thin_directory_mode) {
    PgLog pglog;
    pglog.name = req.name;
    pglog.pxlogkey = PxLogKey(req.proxy_id, req.reqid);
    puts.emplace_back(PgLogKey(pg, opseq), pglog.Encode());
    PxLog pxlog;
    pxlog.name = req.name;
    pxlog.pglogkey = PgLogKey(pg, opseq);
    puts.emplace_back(PxLogKey(req.proxy_id, req.reqid), pxlog.Encode());
  }

  PutAllocReply reply;
  reply.lvid = p.meta.lvid;
  reply.extents = p.meta.extents;
  reply.opseq = opseq;
  reply.inline_stored = inline_put;

  pending_[req.reqid] = p;
  pending_names_[req.name] = req.reqid;

  if (options_.ordered_writes) {
    // Cheetah-OW (Fig. 9): restore the ordering constraint — do not reply
    // until MetaX is persisted everywhere.
    Status ps = co_await PersistAndReplicate(pg, std::move(puts), {});
    if (!ps.ok()) {
      PendingPut doomed = pending_[req.reqid];
      co_await RevokePut(std::move(doomed));
      co_return ps;
    }
    if (auto it = pending_.find(req.reqid); it != pending_.end()) {
      it->second.persisted = true;
    }
    reply.persisted = true;
    co_return reply;
  }

  // Full Cheetah: reply NOW; persist + replicate in parallel and notify the
  // proxy when done (Fig. 4 steps (2)(3)).
  rpc_.machine().actor().Spawn(
      [](MetaServer* self, cluster::PgId pg, ReqId reqid, sim::NodeId proxy_node,
         std::vector<std::pair<std::string, std::string>> puts) -> sim::Task<> {
        Status ps = co_await self->PersistAndReplicate(pg, std::move(puts), {});
        if (auto it = self->pending_.find(reqid); it != self->pending_.end()) {
          it->second.persisted = ps.ok();
        }
        MetaPersistedNotify note;
        note.reqid = reqid;
        note.ok = ps.ok();
        self->rpc_.Notify(proxy_node, std::move(note));
      }(this, pg, req.reqid, req.proxy_node, std::move(puts)));
  co_return reply;
}

sim::Task<Status> MetaServer::PersistAndReplicate(
    cluster::PgId pg, std::vector<std::pair<std::string, std::string>> puts,
    std::vector<std::string> deletes) {
  kv::WriteBatch batch;
  for (auto& [k, v] : puts) {
    batch.Put(k, v);
  }
  for (auto& k : deletes) {
    batch.Delete(k);
  }
  std::vector<sim::Task<Status>> tasks;
  tasks.push_back(db_->Write(std::move(batch)));
  std::vector<sim::NodeId> targets = topo_.MetaServersOf(pg);
  // Live migration double-write: from the DoubleWrite phase on, every batch
  // also lands on the migration destination, so anything written after the
  // catchup scan started is already there when cutover makes it the owner.
  if (const cluster::PgMigration* mig = topo_.MigrationOf(pg);
      mig != nullptr && mig->phase >= cluster::MigrationPhase::kDoubleWrite &&
      mig->destination != sim::kInvalidNode &&
      std::find(targets.begin(), targets.end(), mig->destination) == targets.end()) {
    targets.push_back(mig->destination);
  }
  for (sim::NodeId backup : targets) {
    if (backup == rpc_.id()) {
      continue;
    }
    tasks.push_back([](MetaServer* self, sim::NodeId backup, cluster::PgId pg,
                       std::vector<std::pair<std::string, std::string>> puts,
                       std::vector<std::string> deletes) -> sim::Task<Status> {
      ReplicateMetaXRequest rep;
      rep.view = self->topo_.view;
      rep.pg = pg;
      rep.puts = std::move(puts);
      rep.deletes = std::move(deletes);
      auto r = co_await self->rpc_.Call(backup, std::move(rep), self->options_.rpc_timeout);
      co_return r.ok() ? Status::Ok() : r.status();
    }(this, backup, pg, puts, deletes));
  }
  auto results = co_await sim::WhenAll(std::move(tasks));
  for (const Status& s : results) {
    if (!s.ok()) {
      co_return s;
    }
  }
  co_return Status::Ok();
}

sim::Task<Result<ReplicateMetaXReply>> MetaServer::HandleReplicate(
    sim::NodeId src, ReplicateMetaXRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  if (req.view < topo_.view) {
    co_return Status::StaleView("replica at newer view");
  }
  kv::WriteBatch batch;
  for (auto& [k, v] : req.puts) {
    batch.Put(k, v);
  }
  for (auto& k : req.deletes) {
    batch.Delete(k);
  }
  Status s = co_await db_->Write(std::move(batch));
  if (!s.ok()) {
    co_return s;
  }
  counters_.replications.Add();
  co_return ReplicateMetaXReply{};
}

sim::Task<Result<PutCommitAck>> MetaServer::HandleCommit(sim::NodeId src,
                                                         PutCommitNotify req) {
  auto it = pending_.find(req.reqid);
  if (it != pending_.end()) {
    it->second.committed = true;
    pending_names_.erase(it->second.name);  // object becomes visible
  }
  co_return PutCommitAck{};
}

// ---- get ----

sim::Task<Result<GetMetaReply>> MetaServer::HandleGet(sim::NodeId src, GetMetaRequest req) {
  const cluster::PgId pg = topo_.pg_count ? topo_.PgOf(req.name) : 0;
  CO_RETURN_IF_ERROR(CheckRequest(req.view, pg, /*need_primary=*/true));
  counters_.gets.Add();

  if (auto it = pending_names_.find(req.name); it != pending_names_.end()) {
    // A recovered entry will never see its commit notification (see
    // PendingPut::recovered) — waiting for one would make the first get of
    // every adopted object eat the full budget, turning a view change into a
    // visible latency spike. Go straight to verification instead.
    auto pit = pending_.find(it->second);
    if (pit == pending_.end() || !pit->second.recovered) {
      co_await WaitPendingResolved(req.name, Millis(5));
    }
  }
  if (auto it = pending_names_.find(req.name); it != pending_names_.end()) {
    // §4.3.2: a get for a pending object makes the primary check whether the
    // data actually landed on the data servers (the proxy may have died
    // after the data was persisted but before notifying us).
    Status s = co_await VerifyPending(it->second);
    if (!s.ok()) {
      LOG_DEBUG << "get " << req.name << " pending verify: " << s.ToString();
      co_return s;
    }
  }
  auto value = co_await db_->Get(ObMetaKey(pg, req.name));
  if (!value.ok()) {
    co_return value.status();
  }
  if (IsObMetaTombstone(*value)) {
    co_return Status::NotFound("object deleted");
  }
  auto meta = ObMeta::Decode(*value);
  if (!meta.ok()) {
    co_return meta.status();
  }
  // Access recency feeds the demotion policy: a get keeps the object hot.
  last_access_[req.name] = rpc_.machine().loop().Now();
  GetMetaReply reply;
  reply.meta = std::move(*meta);
  co_return reply;
}

sim::Task<> MetaServer::WaitPendingResolved(const std::string& name, Nanos budget) {
  // §4.3.2: "If M encounters a pending get, it will wait." Commit
  // notifications arrive within a network round trip, so a short wait
  // resolves the common case without the proxy-side retry/backoff path.
  const Nanos deadline = rpc_.machine().loop().Now() + budget;
  while (pending_names_.contains(name) && rpc_.machine().loop().Now() < deadline) {
    co_await sim::SleepFor(Micros(200));
  }
}

sim::Task<Status> MetaServer::VerifyPending(ReqId reqid) {
  auto it = pending_.find(reqid);
  if (it == pending_.end()) {
    co_return Status::Ok();
  }
  PendingPut p = it->second;
  // Re-read the authoritative record: a concurrent migration or RE-DATA may
  // have moved the object since this pending entry was built.
  {
    auto value = co_await db_->Get(ObMetaKey(p.pg, p.name));
    if (!value.ok() || IsObMetaTombstone(*value)) {
      pending_names_.erase(p.name);
      pending_.erase(reqid);
      co_return Status::NotFound("put already revoked");
    }
    auto meta = ObMeta::Decode(*value);
    if (meta.ok()) {
      p.meta = std::move(*meta);
      it->second.meta = p.meta;
    }
  }
  if (p.meta.storage_class == StorageClass::kInline) {
    // The payload IS the (already persisted and replicated) MetaX record:
    // there is nothing on the data plane to probe.
    if (auto pit = pending_.find(reqid); pit != pending_.end()) {
      pit->second.committed = true;
      pending_names_.erase(pit->second.name);
    }
    counters_.completed_puts.Add();
    co_return Status::Ok();
  }
  // Snapshot every topology-derived field before the first co_await: a
  // topology push move-assigns topo_ while this coroutine is suspended,
  // invalidating any LogicalVolume/PhysicalVolume pointer held across it.
  struct ProbeTarget {
    std::string device;
    uint32_t disk_index = 0;
    sim::NodeId data_server = sim::kInvalidNode;
  };
  uint32_t block_size = 0;
  std::vector<ProbeTarget> targets;
  {
    const cluster::LogicalVolume* lv = topo_.FindLv(p.meta.lvid);
    if (lv == nullptr) {
      co_return Status::Unavailable("volume missing during verify");
    }
    block_size = lv->block_size;
    for (cluster::PvId pv_id : lv->replicas) {
      const cluster::PhysicalVolume* pv = topo_.FindPv(pv_id);
      if (pv == nullptr) {
        continue;
      }
      targets.push_back({pv->DeviceName(), pv->disk_index, pv->data_server});
    }
  }
  int present = 0;
  int definitive = 0;
  std::vector<const ProbeTarget*> missing;
  const ProbeTarget* good = nullptr;
  for (const ProbeTarget& t : targets) {
    DataProbeRequest probe;
    probe.device = t.device;
    probe.disk_index = t.disk_index;
    probe.block_size = block_size;
    probe.extents = p.meta.extents;
    probe.expected_checksum = p.meta.checksum;
    auto r = co_await rpc_.Call(t.data_server, std::move(probe), options_.rpc_timeout);
    if (!r.ok()) {
      continue;  // indeterminate
    }
    ++definitive;
    if (r->present) {
      ++present;
      good = &t;
    } else {
      missing.push_back(&t);
    }
  }
  if (definitive == 0) {
    LOG_DEBUG << "verify " << p.name << ": no definitive probe";
    co_return Status::Unavailable("data servers unreachable during verify");
  }
  if (present == 0) {
    // The data never landed anywhere: the put is unfinished — revoke (§5.3).
    co_await RevokePut(std::move(p));
    co_return Status::NotFound("put revoked");
  }
  if (!missing.empty() && good != nullptr) {
    // Partially replicated: complete the put by copying from a good replica.
    DataReadRequest read;
    read.device = good->device;
    read.disk_index = good->disk_index;
    read.block_size = block_size;
    read.extents = p.meta.extents;
    read.length = p.meta.size;
    auto data = co_await rpc_.Call(good->data_server, std::move(read), options_.rpc_timeout);
    if (!data.ok()) {
      co_return Status::Unavailable("repair read failed");
    }
    for (const ProbeTarget* t : missing) {
      DataWriteRequest write;
      write.view = topo_.view;
      write.device = t->device;
      write.disk_index = t->disk_index;
      write.block_size = block_size;
      write.extents = p.meta.extents;
      write.data = data->data;
      write.checksum = p.meta.checksum;
      auto w = co_await rpc_.Call(t->data_server, std::move(write), options_.rpc_timeout);
      if (!w.ok()) {
        co_return Status::Unavailable("repair write failed");
      }
    }
  }
  // Complete: the put's effects are fully in place.
  if (auto pit = pending_.find(reqid); pit != pending_.end()) {
    pit->second.committed = true;
    pending_names_.erase(pit->second.name);
  }
  counters_.completed_puts.Add();
  co_return Status::Ok();
}

sim::Task<> MetaServer::RevokePut(PendingPut p) {
  // The ObMeta slot gets a tombstone (a revoked put must not resurrect via a
  // PG pull merge); the per-op log entries are plain removals — a merged-back
  // log entry is harmless, the cleaner re-resolves it against the tombstone.
  std::vector<std::pair<std::string, std::string>> puts;
  puts.emplace_back(ObMetaKey(p.pg, p.name), ObMetaTombstone());
  std::vector<std::string> deletes;
  deletes.push_back(PgLogKey(p.pg, p.opseq));
  deletes.push_back(PxLogKey(p.proxy_id, p.reqid));
  (void)co_await PersistAndReplicate(p.pg, std::move(puts), std::move(deletes));
  if (alloc::BitmapAllocator* a = AllocatorFor(p.meta.lvid)) {
    a->Free(p.meta.extents);
  }
  co_await DiscardData(p.meta);
  pending_names_.erase(p.name);
  pending_.erase(p.reqid);
  counters_.revoked_puts.Add();
}

sim::Task<> MetaServer::DiscardData(const ObMeta& meta) {
  const cluster::LogicalVolume* lv = topo_.FindLv(meta.lvid);
  if (lv == nullptr) {
    co_return;
  }
  for (cluster::PvId pv_id : lv->replicas) {
    const cluster::PhysicalVolume* pv = topo_.FindPv(pv_id);
    if (pv == nullptr) {
      continue;
    }
    DataDiscardRequest req;
    req.device = pv->DeviceName();
    req.disk_index = pv->disk_index;
    req.block_size = lv->block_size;
    req.extents = meta.extents;
    rpc_.Notify(pv->data_server, std::move(req));
  }
}

// ---- delete ----

sim::Task<Result<DeleteReply>> MetaServer::HandleDelete(sim::NodeId src, DeleteRequest req) {
  const cluster::PgId pg = topo_.pg_count ? topo_.PgOf(req.name) : 0;
  CO_RETURN_IF_ERROR(CheckRequest(req.view, pg, /*need_primary=*/true));
  if (tiering_names_.contains(req.name)) {
    // Mid-demotion metadata swap (src/tier): bounce for the one persist
    // round the swap takes; the proxy's retry loop absorbs it.
    co_return Status::Unavailable("object is moving between storage classes");
  }
  // Idempotency: a delete whose first attempt landed but whose ack was lost
  // must not take effect twice — by the time the retry arrives the name may
  // have been recreated, and deleting *that* object would erase an acked put
  // this delete never saw. The marker is written atomically with the
  // tombstone and travels with the PG (pulls transfer the OPDONE range), so
  // any primary the retry reaches recognizes it. The sim keeps markers
  // forever; a real system would GC them past the client retry horizon.
  if (req.reqid != 0) {
    auto marker = co_await db_->Get(OpDoneKey(pg, req.proxy_id, req.reqid));
    if (marker.ok()) {
      co_return DeleteReply{};
    }
  }
  if (auto it = pending_names_.find(req.name); it != pending_names_.end()) {
    auto pit = pending_.find(it->second);
    if (pit != pending_.end() && pit->second.recovered) {
      // No commit notification is coming for a recovered entry; resolve it
      // by probing the data servers rather than waiting out the budget and
      // bouncing the delete.
      (void)co_await VerifyPending(it->second);
    } else {
      co_await WaitPendingResolved(req.name, Millis(5));
    }
    if (pending_names_.contains(req.name)) {
      co_return Status::Unavailable("object has an in-flight put");
    }
  }
  auto value = co_await db_->Get(ObMetaKey(pg, req.name));
  if (!value.ok()) {
    co_return value.status();
  }
  if (IsObMetaTombstone(*value)) {
    co_return Status::NotFound("object deleted");
  }
  auto meta = ObMeta::Decode(*value);
  if (!meta.ok()) {
    co_return meta.status();
  }
  counters_.deletes.Add();
  // §4.3.3: delete = retire the MetaX record and clear the allocator bits —
  // the reclaimed space is immediately reusable; data servers are untouched
  // (the extents are dropped lazily via a discard notification). The record
  // is replaced by a tombstone, not removed: PG pulls merge records, so the
  // delete must survive as a positive fact (see ObMetaTombstone()).
  std::vector<std::pair<std::string, std::string>> puts;
  puts.emplace_back(ObMetaKey(pg, req.name), ObMetaTombstone());
  if (req.reqid != 0) {
    puts.emplace_back(OpDoneKey(pg, req.proxy_id, req.reqid), req.name);
  }
  // The consumed object's creating put is settled too: a late resend of that
  // put must not resurrect what this delete was acked for removing.
  if (meta->reqid != 0) {
    puts.emplace_back(OpDoneKey(pg, meta->proxy_id, meta->reqid), req.name);
  }
  Status s = co_await PersistAndReplicate(pg, std::move(puts), {});
  if (!s.ok()) {
    co_return s;
  }
  if (alloc::BitmapAllocator* a = AllocatorFor(meta->lvid)) {
    a->Free(meta->extents);
  }
  // The in-memory bitmap is updated now (space immediately reusable); the
  // on-disk copy syncs with the next log-clean cycle (§5.2).
  dirty_bitmaps_.insert(meta->lvid);
  last_access_.erase(req.name);
  co_await DiscardData(*meta);
  co_return DeleteReply{};
}

sim::Task<Status> MetaServer::FlushBitmap(cluster::LvId lv) {
  auto it = allocators_.find(lv);
  if (it == allocators_.end()) {
    co_return Status::Ok();
  }
  co_return co_await rpc_.machine().disk(0).WriteFile(BitmapFile(lv),
                                                      it->second.Serialize(),
                                                      /*sync=*/true);
}

// ---- PG pull (recovery / rebalancing) ----

sim::Task<Result<PgPullReply>> MetaServer::HandlePgPull(sim::NodeId src, PgPullRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  if (req.min_view > topo_.view) {
    // Migration catchup: until this server adopts the DoubleWrite view it is
    // not forwarding writes, so serving the scan now could hand the puller a
    // page that a subsequent un-forwarded write silently invalidates.
    co_return Status::StaleView("server at view " + std::to_string(topo_.view));
  }
  PgPullReply reply;
  // Paged OBMETA scan: transferring a PG in bounded chunks keeps any single
  // message (and the puller's memory) bounded during recovery.
  auto obmeta = co_await db_->Scan(ObMetaPrefix(req.pg), 0);
  if (!obmeta.ok()) {
    co_return obmeta.status();
  }
  size_t taken = 0;
  bool exhausted = true;
  for (auto& [key, value] : *obmeta) {
    if (!req.start_after.empty() && key <= req.start_after) {
      continue;
    }
    if (taken >= req.limit) {
      exhausted = false;
      break;
    }
    reply.next_start_after = key;
    reply.kvs.emplace_back(std::move(key), std::move(value));
    ++taken;
  }
  if (exhausted) {
    reply.next_start_after.clear();  // final page: append the PG/PX logs
    auto pglogs = co_await db_->Scan(PgLogPrefix(req.pg), 0);
    if (!pglogs.ok()) {
      co_return pglogs.status();
    }
    for (auto& [key, value] : *pglogs) {
      auto log = PgLog::Decode(value);
      if (log.ok()) {
        auto pxlog = co_await db_->Get(log->pxlogkey);
        if (pxlog.ok()) {
          reply.kvs.emplace_back(log->pxlogkey, std::move(*pxlog));
        }
      }
      reply.kvs.emplace_back(key, std::move(value));
    }
    // Op-finality markers travel with the PG so a newly joined replica
    // recognizes retried puts/deletes whose effect is settled (HandleDelete,
    // HandlePutAlloc).
    auto opdones = co_await db_->Scan(OpDonePrefix(req.pg), 0);
    if (!opdones.ok()) {
      co_return opdones.status();
    }
    for (auto& [key, value] : *opdones) {
      reply.kvs.emplace_back(std::move(key), std::move(value));
    }
    counters_.pg_pulls_served.Add();
  }
  co_return reply;
}

// ---- live migration catchup ----

sim::Task<Result<cluster::MigratePgReply>> MetaServer::HandleMigratePg(
    sim::NodeId src, cluster::MigratePgRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  // This server is the migration destination: it needs the DoubleWrite
  // topology first (so the source is forwarding before the scan runs). The
  // push usually beat this command here; wait briefly if not.
  for (int i = 0; i < 20 && topo_.view < req.view; ++i) {
    co_await sim::SleepFor(Millis(50));
  }
  if (topo_.view < req.view) {
    co_return Status::Unavailable("destination behind the migration view");
  }
  // Pull the PG page by page from the source and merge (pure merge: deletes
  // are tombstone records, keys are only ever added or overwritten). A page
  // scanned before a concurrent write can land after its forwarded copy and
  // briefly regress that key; the destination's adoption pull at cutover
  // re-reads the source's final state, so the regression cannot outlive the
  // migration. What catchup buys is having the bulk of the PG already
  // persisted here, so cutover never depends on the drained node surviving
  // it.
  sim::NodeId source = req.source;
  if (source == rpc_.id() || source == sim::kInvalidNode) {
    co_return Status::InvalidArgument("bad migration source");
  }
  cluster::MigratePgReply reply;
  std::string cursor;
  for (int page = 0; page < 100000; ++page) {
    PgPullRequest pull;
    pull.view = topo_.view;
    pull.pg = req.pg;
    pull.start_after = cursor;
    pull.limit = 512;
    pull.min_view = req.view;
    auto r = co_await rpc_.Call(source, std::move(pull), options_.rpc_timeout);
    if (!r.ok()) {
      co_return r.status();
    }
    kv::WriteBatch batch;
    for (auto& [k, v] : r->kvs) {
      batch.Put(k, v);
    }
    reply.kvs_pulled += r->kvs.size();
    counters_.recovered_kvs.Add(r->kvs.size());
    CO_RETURN_IF_ERROR(co_await db_->Write(std::move(batch)));
    if (r->next_start_after.empty()) {
      co_return reply;
    }
    cursor = r->next_start_after;
  }
  co_return Status::Internal("migration pull did not terminate");
}

// ---- topology adoption ----

sim::Task<Result<cluster::TopologyPushReply>> MetaServer::HandleTopologyPush(
    sim::NodeId src, cluster::TopologyPush req) {
  auto map = cluster::TopologyMap::Deserialize(req.serialized_map);
  if (map.ok() && map->view > topo_.view) {
    rpc_.machine().actor().Spawn(AdoptTopology(std::move(*map)));
  }
  co_return cluster::TopologyPushReply{};
}

sim::Task<> MetaServer::AdoptTopology(cluster::TopologyMap next) {
  if (next.view <= topo_.view) {
    co_return;
  }
  pending_topo_ = std::move(next);
  if (adopting_ || db_ == nullptr) {
    co_return;  // the running adoption will pick up the latest map
  }
  adopting_ = true;
  while (pending_topo_.has_value()) {
    cluster::TopologyMap map = std::move(*pending_topo_);
    pending_topo_.reset();
    cluster::TopologyMap old = topo_;
    topo_ = std::move(map);
    LOG_INFO << "meta " << rpc_.id() << ": adopting view " << topo_.view;

    // Which PGs is this node responsible for now?
    std::set<cluster::PgId> responsible;
    for (cluster::PgId pg = 0; pg < topo_.pg_count; ++pg) {
      auto servers = topo_.MetaServersOf(pg);
      if (std::find(servers.begin(), servers.end(), rpc_.id()) != servers.end()) {
        responsible.insert(pg);
      }
    }
    std::set<cluster::PgId> previously_ready = std::move(ready_pgs_);
    ready_pgs_.clear();

    // A node that skipped intermediate views (partitioned away while the
    // cluster moved on without it) cannot trust its local PG state: writes
    // were acknowledged by views it never saw. Re-pull everything it is
    // responsible for, preferring the current view's owners as sources —
    // its own stale map may name owners that no longer hold the PG.
    const bool view_gap = old.view > 0 && topo_.view > old.view + 1;

    for (cluster::PgId pg : responsible) {
      const bool had_it = !view_gap && previously_ready.contains(pg);
      if (!had_it) {
        // Pull the PG from a surviving replica of the previous view.
        std::vector<sim::NodeId> sources;
        if (old.view > 0) {
          sources = old.MetaServersOf(pg);
        } else {
          sources = topo_.MetaServersOf(pg);
        }
        if (view_gap) {
          std::vector<sim::NodeId> current = topo_.MetaServersOf(pg);
          for (sim::NodeId s : sources) {
            if (std::find(current.begin(), current.end(), s) == current.end()) {
              current.push_back(s);
            }
          }
          sources = std::move(current);
        }
        // Try sources that remain members of the new view first: a node the
        // manager just evicted is usually evicted because it is unreachable,
        // and every page call against it stalls adoption (and every put to
        // this PG) for a full rpc_timeout before we fall to the next source.
        std::stable_partition(sources.begin(), sources.end(), [&](sim::NodeId s) {
          return topo_.meta_crush.HasItem(s);
        });
        // Retry the source list for a few rounds: after a cluster-wide
        // restart every peer races through DB recovery, and a single
        // "initializing" round-trip must not make this node adopt the PG
        // empty and then serve NotFound for data its peers hold. Bail if a
        // newer view lands mid-pull — the outer loop re-adopts from scratch.
        bool pulled = false;
        for (int round = 0; round < 4 && !pulled && !pending_topo_.has_value();
             ++round) {
          if (round > 0) {
            co_await sim::SleepFor(Millis(100));
          }
          for (sim::NodeId source : sources) {
            if (source == rpc_.id()) {
              continue;
            }
            // Pull the PG page by page; each page is persisted as it lands so
            // the recovery curve (Fig. 15) reflects actual transfer progress.
            std::string cursor;
            bool complete = false;
            for (int page = 0; page < 100000; ++page) {
              PgPullRequest pull;
              pull.view = topo_.view;
              pull.pg = pg;
              pull.start_after = cursor;
              pull.limit = 512;
              auto r = co_await rpc_.Call(source, std::move(pull), options_.rpc_timeout);
              if (!r.ok()) {
                break;
              }
              kv::WriteBatch batch;
              for (auto& [k, v] : r->kvs) {
                batch.Put(k, v);
              }
              counters_.recovered_kvs.Add(r->kvs.size());
              (void)co_await db_->Write(std::move(batch));
              if (r->next_start_after.empty()) {
                complete = true;
                break;
              }
              cursor = r->next_start_after;
            }
            if (complete) {
              // The pull is a pure merge: records only ever get added or
              // overwritten, never inferred-deleted. Deletes arrive as
              // tombstone records like any other write, so a replica's local
              // (possibly the only surviving) copy of a PG is never thrown
              // away because a source that adopted the PG empty lacks it.
              pulled = true;
              break;
            }
          }
        }
        if (pending_topo_.has_value()) {
          break;  // restart adoption under the newer map
        }
        LOG_DEBUG << "meta " << rpc_.id() << ": view " << topo_.view << " pg " << pg
                  << (pulled ? " pulled" : " adopted without a complete pull")
                  << " (sources " << sources.size() << ")";
      }
      if (IsPrimary(pg)) {
        co_await RebuildPgState(pg);
      }
      ready_pgs_.insert(pg);
    }

    // Drop allocators for LVs we no longer manage.
    std::set<cluster::LvId> managed;
    for (cluster::PgId pg : responsible) {
      if (IsPrimary(pg)) {
        for (cluster::LvId lv : EffectiveVg(pg)) {
          managed.insert(lv);
        }
        if (auto it = topo_.ec_vgs.find(pg); it != topo_.ec_vgs.end()) {
          for (cluster::LvId lv : it->second) {
            managed.insert(lv);
          }
        }
      }
    }
    for (auto it = allocators_.begin(); it != allocators_.end();) {
      if (!managed.contains(it->first)) {
        it = allocators_.erase(it);
      } else {
        ++it;
      }
    }

    if (options_.no_volume_groups) {
      for (cluster::PgId pg : responsible) {
        if (IsPrimary(pg)) {
          rpc_.machine().actor().Spawn(MigratePgData(pg));
        }
      }
    }
  }
  adopting_ = false;
}

sim::Task<> MetaServer::RebuildPgState(cluster::PgId pg) {
  // Allocators: fresh bitmaps, then mark every extent recorded in OBMETA.
  std::set<cluster::LvId> my_lvs;
  for (cluster::LvId lv : EffectiveVg(pg)) {
    allocators_.erase(lv);
    (void)AllocatorFor(lv);
    my_lvs.insert(lv);
  }
  // The PG's EC stripe LVs are rebuilt the same way: demoted objects record
  // stripe extents in their ObMeta, so the scan below re-marks them.
  if (auto it = topo_.ec_vgs.find(pg); it != topo_.ec_vgs.end()) {
    for (cluster::LvId lv : it->second) {
      allocators_.erase(lv);
      (void)AllocatorFor(lv);
      my_lvs.insert(lv);
    }
  }
  // With VGs a volume's extents are all recorded under its one PG. Without
  // them (Cheetah-NoVG) another PG's not-yet-migrated objects may still live
  // on volumes this mapping hands to us — the exact sharing hazard §4.2
  // describes — so the rebuild must scan every PG's records to avoid
  // allocating over foreign data.
  const std::string scan_prefix =
      options_.no_volume_groups ? std::string("OBMETA_") : ObMetaPrefix(pg);
  auto rows = co_await db_->Scan(scan_prefix, 0);
  if (rows.ok()) {
    std::set<cluster::LvId> reset_this_pass = my_lvs;
    for (const auto& [key, value] : *rows) {
      auto meta = ObMeta::Decode(value);
      if (!meta.ok()) {
        continue;
      }
      if (options_.no_volume_groups && !my_lvs.contains(meta->lvid)) {
        continue;  // foreign volume; its owning PG tracks it
      }
      // An entry may reference a volume outside the current VG (pre-migration
      // leftovers); give it a fresh allocator once, then accumulate marks.
      if (!reset_this_pass.contains(meta->lvid)) {
        allocators_.erase(meta->lvid);
        reset_this_pass.insert(meta->lvid);
      }
      if (alloc::BitmapAllocator* a = AllocatorFor(meta->lvid)) {
        a->MarkAllocated(meta->extents);
      }
    }
  }
  // A put allocated before the scan may not be in it yet: its MetaX batch
  // reaches the memtable only after the WAL fsync. Its extents are still
  // taken; freeing them would hand the same blocks to the next put. (Without
  // VGs, as in the scan, any PG's put on our volumes counts.)
  for (const auto& [reqid, p] : pending_) {
    const bool covered =
        p.pg == pg || (options_.no_volume_groups && my_lvs.contains(p.meta.lvid));
    if (!covered || p.meta.storage_class == StorageClass::kInline) {
      continue;
    }
    if (alloc::BitmapAllocator* a = AllocatorFor(p.meta.lvid)) {
      a->MarkAllocated(p.meta.extents);
    }
  }
  // opseq and pending puts from the PG log.
  uint64_t max_opseq = pg_opseq_[pg];
  auto logs = co_await db_->Scan(PgLogPrefix(pg), 0);
  if (logs.ok()) {
    const Nanos now = rpc_.machine().loop().Now();
    for (const auto& [key, value] : *logs) {
      cluster::PgId parsed_pg = 0;
      uint64_t opseq = 0;
      if (!ParsePgLogKey(key, &parsed_pg, &opseq)) {
        continue;
      }
      max_opseq = std::max(max_opseq, opseq);
      auto log = PgLog::Decode(value);
      if (!log.ok()) {
        continue;
      }
      uint32_t proxy_id = 0;
      ReqId reqid = 0;
      if (!ParsePxLogKey(log->pxlogkey, &proxy_id, &reqid)) {
        continue;
      }
      auto ob = co_await db_->Get(ObMetaKey(pg, log->name));
      if (!ob.ok()) {
        continue;  // already revoked/cleaned
      }
      auto meta = ObMeta::Decode(*ob);
      if (!meta.ok()) {
        continue;
      }
      if (pending_.contains(reqid)) {
        continue;
      }
      PendingPut p;
      p.reqid = reqid;
      p.name = log->name;
      p.pg = pg;
      p.opseq = opseq;
      p.proxy_id = proxy_id;
      p.meta = std::move(*meta);
      p.persisted = true;  // it is in the KV, after all
      p.recovered = true;
      p.born = now;
      pending_[reqid] = p;
      pending_names_[p.name] = reqid;
    }
  }
  pg_opseq_[pg] = max_opseq;
}

sim::Task<> MetaServer::MigratePgData(cluster::PgId pg) {
  // Cheetah-NoVG: objects whose volume fell out of the PG's (hash-derived)
  // volume set must be copied to a volume the new mapping owns (Fig. 14's
  // migration traffic).
  const uint64_t adopted_view = topo_.view;
  std::vector<cluster::LvId> vg = EffectiveVg(pg);
  auto in_vg = [&vg](cluster::LvId lv) {
    return std::find(vg.begin(), vg.end(), lv) != vg.end();
  };
  auto rows = co_await db_->Scan(ObMetaPrefix(pg), 0);
  if (!rows.ok()) {
    co_return;
  }
  for (const auto& [key, value] : *rows) {
    if (topo_.view != adopted_view || !IsPrimary(pg)) {
      co_return;  // superseded
    }
    cluster::PgId key_pg = 0;
    std::string name;
    if (ParseObMetaKey(key, &key_pg, &name) && pending_names_.contains(name)) {
      continue;  // unresolved put; the cleaner settles it first (§5.3)
    }
    auto meta = ObMeta::Decode(value);
    if (!meta.ok() || in_vg(meta->lvid)) {
      continue;
    }
    const cluster::LogicalVolume* old_lv = topo_.FindLv(meta->lvid);
    if (old_lv == nullptr) {
      continue;
    }
    const cluster::PhysicalVolume* source = topo_.FindPv(old_lv->replicas.front());
    if (source == nullptr) {
      continue;
    }
    // Read from the old location.
    DataReadRequest read;
    read.device = source->DeviceName();
    read.disk_index = source->disk_index;
    read.block_size = old_lv->block_size;
    read.extents = meta->extents;
    read.length = meta->size;
    auto data = co_await rpc_.Call(source->data_server, std::move(read),
                                   options_.rpc_timeout);
    if (!data.ok()) {
      continue;
    }
    // Allocate at the new location and write all replicas.
    auto alloc = AllocateSpace(pg, meta->size);
    if (!alloc.ok()) {
      continue;
    }
    const cluster::LogicalVolume* new_lv = topo_.FindLv(alloc->first);
    bool wrote_all = true;
    for (cluster::PvId pv_id : new_lv->replicas) {
      const cluster::PhysicalVolume* pv = topo_.FindPv(pv_id);
      if (pv == nullptr) {
        wrote_all = false;
        break;
      }
      DataWriteRequest write;
      write.view = topo_.view;
      write.device = pv->DeviceName();
      write.disk_index = pv->disk_index;
      write.block_size = new_lv->block_size;
      write.extents = alloc->second;
      write.data = data->data;
      write.checksum = meta->checksum;
      auto w = co_await rpc_.Call(pv->data_server, std::move(write), options_.rpc_timeout);
      wrote_all &= w.ok();
    }
    if (!wrote_all) {
      if (alloc::BitmapAllocator* a = AllocatorFor(alloc->first)) {
        a->Free(alloc->second);
      }
      continue;
    }
    ObMeta updated = *meta;
    const ObMeta old_meta = *meta;
    updated.lvid = alloc->first;
    updated.extents = std::move(alloc->second);
    std::vector<std::pair<std::string, std::string>> puts;
    puts.emplace_back(key, updated.Encode());
    (void)co_await PersistAndReplicate(pg, std::move(puts), {});
    co_await DiscardData(old_meta);
    counters_.migrated_objects.Add();
  }
}

// ---- background loops ----

sim::Task<> MetaServer::HeartbeatLoop() {
  sim::NodeId last_leader = sim::kInvalidNode;
  for (;;) {
    std::vector<sim::NodeId> order = manager_nodes_;
    if (last_leader != sim::kInvalidNode) {
      std::swap(order.front(),
                *std::find(order.begin(), order.end(), last_leader));
    }
    for (sim::NodeId mgr : order) {
      cluster::HeartbeatRequest hb;
      hb.node = rpc_.id();
      hb.kind = cluster::ServerKind::kMetaServer;
      hb.view = topo_.view;
      auto r = co_await rpc_.Call(mgr, std::move(hb), options_.heartbeat_interval / 2);
      if (!r.ok() || !r->is_leader) {
        continue;
      }
      last_leader = mgr;
      lease_until_ = rpc_.machine().loop().Now() + r->lease_duration;
      if (r->current_view > topo_.view) {
        cluster::GetTopologyRequest get;
        get.have_view = topo_.view;
        auto t = co_await rpc_.Call(mgr, std::move(get), options_.rpc_timeout);
        if (t.ok() && t->changed) {
          auto map = cluster::TopologyMap::Deserialize(t->serialized_map);
          if (map.ok()) {
            co_await AdoptTopology(std::move(*map));
          }
        }
      }
      break;
    }
    co_await sim::SleepFor(options_.heartbeat_interval);
  }
}

sim::Task<> MetaServer::ScrubNow() { return scrubber_->ScrubAll(); }

sim::Task<> MetaServer::TierNow() { return tier_->TierAll(); }

sim::Task<> MetaServer::CleanerLoop() {
  for (;;) {
    co_await sim::SleepFor(options_.log_clean_interval);
    co_await CleanLogs();
  }
}

sim::Task<> MetaServer::CleanLogs() {
  if (db_ == nullptr || topo_.view == 0) {
    co_return;
  }
  const Nanos now = rpc_.machine().loop().Now();
  std::vector<ReqId> committed;
  std::vector<ReqId> stale;
  for (const auto& [reqid, p] : pending_) {
    if (!IsPrimary(p.pg) || !ready_pgs_.contains(p.pg)) {
      continue;
    }
    if (p.committed && p.persisted) {
      committed.push_back(reqid);
    } else if (now - p.born > options_.pending_put_timeout) {
      stale.push_back(reqid);
    }
  }
  // §5.3: verify stale uncommitted puts against the data servers.
  for (ReqId reqid : stale) {
    (void)co_await VerifyPending(reqid);
    auto it = pending_.find(reqid);
    if (it != pending_.end() && it->second.committed) {
      committed.push_back(reqid);
    }
  }
  if (committed.empty() && dirty_bitmaps_.empty()) {
    co_return;
  }
  // Clean the logs of committed puts in one batch; sync bitmaps (§5.2).
  std::map<cluster::PgId, std::vector<std::string>> deletes_by_pg;
  std::set<cluster::LvId> touched;
  for (ReqId reqid : committed) {
    auto it = pending_.find(reqid);
    if (it == pending_.end()) {
      continue;
    }
    const PendingPut& p = it->second;
    deletes_by_pg[p.pg].push_back(PgLogKey(p.pg, p.opseq));
    deletes_by_pg[p.pg].push_back(PxLogKey(p.proxy_id, p.reqid));
    touched.insert(p.meta.lvid);
    pending_names_.erase(p.name);
    pending_.erase(it);
    counters_.logs_cleaned.Add();
  }
  for (auto& [pg, deletes] : deletes_by_pg) {
    (void)co_await PersistAndReplicate(pg, {}, std::move(deletes));
  }
  for (cluster::LvId lv : dirty_bitmaps_) {
    touched.insert(lv);
  }
  dirty_bitmaps_.clear();
  for (cluster::LvId lv : touched) {
    (void)co_await FlushBitmap(lv);
  }
}

}  // namespace cheetah::core
