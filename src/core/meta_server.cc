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

// The cleaner's period: it retires the logs of committed puts and syncs the
// dirty bitmaps (§5.2).
constexpr Nanos kLogCleanInterval = Millis(500);
// A put still pending this long is verified against the data servers (§5.3).
constexpr Nanos kPendingPutTimeout = Millis(1500);

// A put's MetaX (§5.2): its ObMeta record, plus the PG-log and proxy-log
// entries that tie it to its op.
kv::WriteBatch MetaXBatch(const PendingPut& p, bool with_logs) {
  kv::WriteBatch batch;
  batch.Put(ObMetaKey(p.pg, p.name), p.meta.Encode());
  if (with_logs) {
    PgLog pglog;
    pglog.name = p.name;
    pglog.pxlogkey = PxLogKey(p.proxy_id, p.reqid);
    batch.Put(PgLogKey(p.pg, p.opseq), pglog.Encode());
    PxLog pxlog;
    pxlog.name = p.name;
    pxlog.pglogkey = PgLogKey(p.pg, p.opseq);
    batch.Put(PxLogKey(p.proxy_id, p.reqid), pxlog.Encode());
  }
  return batch;
}

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
  rpc_.Serve<PutAllocRequest, &MetaServer::HandlePutAlloc>(this, qos::TrafficClass::kForeground);
  rpc_.Serve<PutCommitNotify, &MetaServer::HandleCommit>(this, qos::TrafficClass::kForeground);
  rpc_.Serve<GetMetaRequest, &MetaServer::HandleGet>(this, qos::TrafficClass::kForeground);
  rpc_.Serve<DeleteRequest, &MetaServer::HandleDelete>(this, qos::TrafficClass::kForeground);
  rpc_.Serve<ReplicateMetaXRequest, &MetaServer::HandleReplicate>(
      this, qos::TrafficClass::kReplication);
  rpc_.Serve<PgPullRequest, &MetaServer::HandlePgPull>(this, qos::TrafficClass::kBackground);
  rpc_.Serve<cluster::MigratePgRequest, &MetaServer::HandleMigratePg>(
      this, qos::TrafficClass::kMaintenance);
  rpc_.Serve<cluster::TopologyPush, &MetaServer::HandleTopologyPush>(this);
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

// ---- put ----

sim::Task<Result<PutAllocReply>> MetaServer::HandlePutAlloc(sim::NodeId src,
                                                            PutAllocRequest req) {
  const cluster::PgId pg = topo_.pg_count ? topo_.PgOf(req.name) : 0;
  CO_RETURN_IF_ERROR(CheckRequest(req.view, pg, /*need_primary=*/true));
  if (pgs_.IsGuarded(req.name)) {
    // Mid record swap (demotion or NoVG migration) or mid delete: bounce for
    // the one persist round it takes; the proxy's retry loop absorbs it.
    co_return Status::Unavailable("object is being swapped or deleted");
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
  // allocation and re-replicate MetaX so the backups converge. A concurrent
  // verification may revoke the put, or a second RE-DATA move it, while the
  // persist is out; the ticket then no longer applies and the attempt fails.
  if (const PendingPut* p = pgs_.FindByName(req.name)) {
    if (p->reqid != req.reqid) {
      co_return Status::AlreadyExists("object has an in-flight put");
    }
    if (p->state == PutState::kRevoking) {
      co_return Status::Unavailable("put is being revoked");
    }
    PgState::Ticket ticket = PgState::TicketOf(*p);
    if (req.re_data && p->meta.storage_class != StorageClass::kInline) {
      // §5.3 RE-DATA: atomically pick a new volume and revoke the old
      // allocation on the problematic one. Allocate before freeing: if no
      // volume can fit the object the put must be revoked outright —
      // leaving the pending entry (and its replicated MetaX) behind would
      // let the cleaner complete a put the proxy was told failed.
      auto alloc = pgs_.Allocate(pg, req.size);
      if (!alloc.ok()) {
        co_await RevokePut(ticket);
        co_return alloc.status();
      }
      const ObMeta old_meta = p->meta;
      ticket = *pgs_.Relocate(ticket, std::move(*alloc));
      data_.Discard(topo_, old_meta.lvid, old_meta.extents);
      p = pgs_.Find(ticket);
    }
    PutAllocReply reply;
    reply.lvid = p->meta.lvid;
    reply.extents = p->meta.extents;
    reply.opseq = p->opseq;
    reply.persisted = true;
    reply.inline_stored = p->meta.storage_class == StorageClass::kInline;
    Status ps = co_await PersistAndReplicate(pg, MetaXBatch(*p, /*with_logs=*/true));
    if (!ps.ok()) {
      co_return ps;
    }
    if (!pgs_.SetPersisted(ticket, true)) {
      co_return Status::Unavailable("put revoked during its resume");
    }
    co_return reply;
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
  // Another put of the name may have been allocated during that read.
  if (const PendingPut* p = pgs_.FindByName(req.name)) {
    co_return p->reqid == req.reqid ? Status::Unavailable("put already in flight")
                                    : Status::AlreadyExists("object has an in-flight put");
  }

  // Inline placement (src/tier): the payload lives in the ObMeta record
  // itself — no allocation, no data servers, and the put is complete once
  // the MetaX triple persists.
  const bool inline_put = req.is_inline && req.inline_data.size() == req.size;
  PgState::Placement placement;
  if (!inline_put) {
    auto alloc = pgs_.Allocate(pg, req.size);
    if (!alloc.ok()) {
      co_return alloc.status();
    }
    placement = std::move(*alloc);
  }
  const uint64_t opseq = pgs_.NextOpseq(pg);

  PendingPut p;
  p.reqid = req.reqid;
  p.name = req.name;
  p.pg = pg;
  p.opseq = opseq;
  p.proxy_id = req.proxy_id;
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

  kv::WriteBatch batch = MetaXBatch(p, !options_.thin_directory_mode);

  PutAllocReply reply;
  reply.lvid = p.meta.lvid;
  reply.extents = p.meta.extents;
  reply.opseq = opseq;
  reply.inline_stored = inline_put;

  const PgState::Ticket ticket = pgs_.Add(std::move(p));

  if (options_.ordered_writes) {
    // Cheetah-OW (Fig. 9): restore the ordering constraint — do not reply
    // until MetaX is persisted everywhere.
    Status ps = co_await PersistAndReplicate(pg, std::move(batch));
    if (!ps.ok()) {
      co_await RevokePut(ticket);
      co_return ps;
    }
    pgs_.SetPersisted(ticket, true);
    reply.persisted = true;
    co_return reply;
  }

  // Full Cheetah: reply NOW; persist + replicate in parallel and notify the
  // proxy when done (Fig. 4 steps (2)(3)).
  rpc_.machine().actor().Spawn(
      [](MetaServer* self, cluster::PgId pg, PgState::Ticket ticket, sim::NodeId proxy_node,
         kv::WriteBatch batch) -> sim::Task<> {
        Status ps = co_await self->PersistAndReplicate(pg, std::move(batch));
        self->pgs_.SetPersisted(ticket, ps.ok());
        MetaPersistedNotify note;
        note.reqid = ticket.reqid;
        note.ok = ps.ok();
        self->rpc_.Notify(proxy_node, std::move(note));
      }(this, pg, ticket, req.proxy_node, std::move(batch)));
  co_return reply;
}

sim::Task<Status> MetaServer::PersistAndReplicate(cluster::PgId pg, kv::WriteBatch batch) {
  std::vector<sim::Task<Status>> tasks;
  tasks.push_back(db_->Write(batch));
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
    ReplicateMetaXRequest rep;
    rep.view = topo_.view;
    rep.pg = pg;
    rep.batch = batch;
    tasks.push_back(rpc_.CallStatus(backup, std::move(rep), kRpcTimeout));
  }
  co_return co_await sim::WhenAllOk(std::move(tasks));
}

sim::Task<Result<ReplicateMetaXReply>> MetaServer::HandleReplicate(
    sim::NodeId src, ReplicateMetaXRequest req) {
  if (db_ == nullptr) {
    co_return Status::Unavailable("initializing");
  }
  if (req.view < topo_.view) {
    co_return Status::StaleView("replica at newer view");
  }
  Status s = co_await db_->Write(std::move(req.batch));
  if (!s.ok()) {
    co_return s;
  }
  counters_.replications.Add();
  co_return ReplicateMetaXReply{};
}

sim::Task<Result<PutCommitAck>> MetaServer::HandleCommit(sim::NodeId src,
                                                         PutCommitNotify req) {
  pgs_.Commit(req.reqid);  // the object becomes visible
  co_return PutCommitAck{};
}

// ---- get ----

sim::Task<Result<GetMetaReply>> MetaServer::HandleGet(sim::NodeId src, GetMetaRequest req) {
  const cluster::PgId pg = topo_.pg_count ? topo_.PgOf(req.name) : 0;
  CO_RETURN_IF_ERROR(CheckRequest(req.view, pg, /*need_primary=*/true));
  counters_.gets.Add();

  if (const PendingPut* p = pgs_.FindByName(req.name); p != nullptr && !p->recovered) {
    // A recovered entry will never see its commit notification (see
    // PendingPut::recovered) — waiting for one would make the first get of
    // every adopted object eat the full budget, turning a view change into a
    // visible latency spike. Go straight to verification instead.
    co_await WaitPendingResolved(req.name, Millis(5));
  }
  if (const PendingPut* p = pgs_.FindByName(req.name)) {
    // §4.3.2: a get for a pending object makes the primary check whether the
    // data actually landed on the data servers (the proxy may have died
    // after the data was persisted but before notifying us).
    Status s = co_await VerifyPending(p->reqid);
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
  tier_->NoteAccess(req.name, rpc_.machine().loop().Now());
  GetMetaReply reply;
  reply.meta = std::move(*meta);
  co_return reply;
}

sim::Task<> MetaServer::WaitPendingResolved(const std::string& name, Nanos budget) {
  // §4.3.2: "If M encounters a pending get, it will wait." Commit
  // notifications arrive within a network round trip, so a short wait
  // resolves the common case without the proxy-side retry/backoff path.
  const Nanos deadline = rpc_.machine().loop().Now() + budget;
  while (pgs_.FindByName(name) != nullptr && rpc_.machine().loop().Now() < deadline) {
    co_await sim::SleepFor(Micros(200));
  }
}

sim::Task<Status> MetaServer::VerifyPending(ReqId reqid) {
  const PendingPut* p = pgs_.Find(reqid);
  if (p == nullptr) {
    co_return Status::Ok();
  }
  const PgState::Ticket ticket = PgState::TicketOf(*p);
  // The record must still be there: a revoke or a delete may have
  // tombstoned it since this entry was built.
  {
    auto value = co_await db_->Get(ObMetaKey(p->pg, p->name));
    if (!value.ok() || IsObMetaTombstone(*value)) {
      pgs_.Forget(ticket);
      co_return Status::NotFound("put already revoked");
    }
  }
  // Probe the allocation this ticket names. A verdict lands only if the put
  // is still pending on this ticket when it is reached; otherwise the put
  // was settled, revoked or moved by someone else in the meantime.
  auto moved_on = [this, ticket] {
    const PendingPut* now = pgs_.Find(ticket.reqid);
    if (now == nullptr || now->committed()) {
      return Status::Ok();  // settled: the caller reads the record
    }
    return now->state == PutState::kRevoking ? Status::NotFound("put revoked")
                                             : Status::Unavailable("put moved during verify");
  };
  auto complete = [&] {
    Status s = pgs_.Complete(ticket) ? Status::Ok() : moved_on();
    if (s.ok()) {
      counters_.completed_puts.Add();
    }
    return s;
  };
  p = pgs_.Find(ticket);
  if (p == nullptr) {
    co_return moved_on();
  }
  const ObMeta meta = p->meta;
  if (meta.storage_class == StorageClass::kInline) {
    // The payload IS the (already persisted and replicated) MetaX record:
    // there is nothing on the data plane to probe.
    co_return complete();
  }
  auto lv = topo_.TargetsOf(meta.lvid, cluster::PvFilter::kSkipMissing);
  if (!lv.has_value()) {
    co_return Status::Unavailable("volume missing during verify");
  }
  // An unanswered probe is indeterminate: it counts neither way.
  const DataPlane::Probed probed =
      co_await data_.ProbeAll(*lv, meta.extents, std::vector<uint32_t>(lv->targets.size(),
                                                                      meta.checksum),
                              DataPlane::Fanout::kSerial);
  if (probed.present.empty() && probed.damaged.empty()) {
    LOG_DEBUG << "verify " << reqid << ": no definitive probe";
    co_return Status::Unavailable("data servers unreachable during verify");
  }
  if (probed.present.empty()) {
    // The data never landed anywhere: the put is unfinished — revoke (§5.3).
    const bool revoked = co_await RevokePut(ticket);
    co_return revoked ? Status::NotFound("put revoked") : moved_on();
  }
  if (!probed.damaged.empty()) {
    // Partially replicated: complete the put by copying from a good replica.
    // The copy finishes a client's put, so it rides the foreground class.
    auto data = co_await data_.Read(qos::TrafficClass::kForeground,
                                    lv->targets[probed.present.back()], lv->block_size,
                                    meta.extents, meta.size, std::nullopt);
    if (!data.ok()) {
      co_return Status::Unavailable("repair read failed");
    }
    Status copied = co_await data_.RepairReplicas(
        qos::TrafficClass::kForeground, topo_.view, DataPlane::Pick(*lv, probed.damaged), meta,
        data->data, DataPlane::Fanout::kSerialUntilFailure);
    if (!copied.ok()) {
      co_return Status::Unavailable("repair write failed");
    }
  }
  // Complete: the put's effects are fully in place.
  co_return complete();
}

sim::Task<bool> MetaServer::RevokePut(PgState::Ticket ticket) {
  const PendingPut* p = pgs_.BeginRevoke(ticket);
  if (p == nullptr) {
    co_return false;
  }
  // The ObMeta slot gets a tombstone (a revoked put must not resurrect via a
  // PG pull merge); the per-op log entries are plain removals — a merged-back
  // log entry is harmless, the cleaner re-resolves it against the tombstone.
  const cluster::PgId pg = p->pg;
  kv::WriteBatch batch;
  batch.Put(ObMetaKey(pg, p->name), ObMetaTombstone());
  batch.Delete(PgLogKey(pg, p->opseq));
  batch.Delete(PxLogKey(p->proxy_id, p->reqid));
  (void)co_await PersistAndReplicate(pg, std::move(batch));
  if (auto revoked = pgs_.FinishRevoke(ticket)) {
    data_.Discard(topo_, revoked->meta.lvid, revoked->meta.extents);
  }
  counters_.revoked_puts.Add();
  co_return true;
}

void MetaServer::ReleaseExtents(cluster::LvId lv, const std::vector<alloc::Extent>& extents) {
  pgs_.Free(lv, extents);
  pgs_.MarkDirty(lv);
  data_.Discard(topo_, lv, extents);
}

// ---- delete ----

sim::Task<Result<DeleteReply>> MetaServer::HandleDelete(sim::NodeId src, DeleteRequest req) {
  const cluster::PgId pg = topo_.pg_count ? topo_.PgOf(req.name) : 0;
  CO_RETURN_IF_ERROR(CheckRequest(req.view, pg, /*need_primary=*/true));
  if (pgs_.IsGuarded(req.name)) {
    // Mid record swap (demotion or NoVG migration) or mid delete: bounce for
    // the one persist round it takes; the proxy's retry loop absorbs it.
    co_return Status::Unavailable("object is being swapped or deleted");
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
  if (const PendingPut* p = pgs_.FindByName(req.name)) {
    if (p->recovered) {
      // No commit notification is coming for a recovered entry; resolve it
      // by probing the data servers rather than waiting out the budget and
      // bouncing the delete.
      (void)co_await VerifyPending(p->reqid);
    } else {
      co_await WaitPendingResolved(req.name, Millis(5));
    }
    if (pgs_.FindByName(req.name) != nullptr) {
      co_return Status::Unavailable("object has an in-flight put");
    }
  }
  // The name stays guarded from the record read through the tombstone's
  // persist: an overlapping delete of it bounces (its retry then reads the
  // tombstone and answers NotFound) and a record swap aborts, instead of
  // each acting on the record this delete is retiring.
  if (!pgs_.Guard(req.name)) {
    co_return Status::Unavailable("object is being swapped or deleted");
  }
  Result<ObMeta> meta = co_await DeleteGuarded(pg, req);
  pgs_.Unguard(req.name);
  if (!meta.ok()) {
    co_return meta.status();
  }
  // The in-memory bitmap is updated now (space immediately reusable); the
  // on-disk copy syncs with the next log-clean cycle (§5.2).
  ReleaseExtents(meta->lvid, meta->extents);
  tier_->ForgetAccess(req.name);
  co_return DeleteReply{};
}

sim::Task<Result<ObMeta>> MetaServer::DeleteGuarded(cluster::PgId pg, const DeleteRequest& req) {
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
  kv::WriteBatch batch;
  batch.Put(ObMetaKey(pg, req.name), ObMetaTombstone());
  if (req.reqid != 0) {
    batch.Put(OpDoneKey(pg, req.proxy_id, req.reqid), req.name);
  }
  // The consumed object's creating put is settled too: a late resend of that
  // put must not resurrect what this delete was acked for removing.
  if (meta->reqid != 0) {
    batch.Put(OpDoneKey(pg, meta->proxy_id, meta->reqid), req.name);
  }
  CO_RETURN_IF_ERROR(co_await PersistAndReplicate(pg, std::move(batch)));
  co_return meta;
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
  if (req.source == rpc_.id() || req.source == sim::kInvalidNode) {
    co_return Status::InvalidArgument("bad migration source");
  }
  auto pulled = co_await PullPg(req.source, req.pg, req.view);
  if (!pulled.ok()) {
    co_return pulled.status();
  }
  cluster::MigratePgReply reply;
  reply.kvs_pulled = *pulled;
  co_return reply;
}

sim::Task<Result<uint64_t>> MetaServer::PullPg(sim::NodeId source, cluster::PgId pg,
                                               uint64_t min_view) {
  uint64_t pulled = 0;
  std::string cursor;
  for (int page = 0; page < 100000; ++page) {
    PgPullRequest pull;
    pull.view = topo_.view;
    pull.pg = pg;
    pull.start_after = cursor;
    pull.limit = 512;
    pull.min_view = min_view;
    auto r = co_await rpc_.Call(source, std::move(pull), kRpcTimeout);
    if (!r.ok()) {
      co_return r.status();
    }
    kv::WriteBatch batch;
    for (auto& [k, v] : r->kvs) {
      batch.Put(k, v);
    }
    pulled += r->kvs.size();
    counters_.recovered_kvs.Add(r->kvs.size());
    CO_RETURN_IF_ERROR(co_await db_->Write(std::move(batch)));
    if (r->next_start_after.empty()) {
      co_return pulled;
    }
    cursor = r->next_start_after;
  }
  co_return Status::Internal("pg pull did not terminate");
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
    const std::vector<cluster::PgId> responsible = topo_.PgsOf(rpc_.id());
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
        // this PG) for a full kRpcTimeout before we fall to the next source.
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
            // The pull is a pure merge: records only ever get added or
            // overwritten, never inferred-deleted. Deletes arrive as
            // tombstone records like any other write, so a replica's local
            // (possibly the only surviving) copy of a PG is never thrown
            // away because a source that adopted the PG empty lacks it.
            if (source == rpc_.id()) {
              continue;
            }
            pulled = (co_await PullPg(source, pg, 0)).ok();
            if (pulled) {
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
        std::set<cluster::LvId> lvs = PrimaryLvs(pg);
        managed.insert(lvs.begin(), lvs.end());
      }
    }
    pgs_.RetainAllocators(managed);

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

std::set<cluster::LvId> MetaServer::PrimaryLvs(cluster::PgId pg) const {
  std::vector<cluster::LvId> vg = pgs_.EffectiveVg(pg);
  std::set<cluster::LvId> lvs(vg.begin(), vg.end());
  if (auto it = topo_.ec_vgs.find(pg); it != topo_.ec_vgs.end()) {
    lvs.insert(it->second.begin(), it->second.end());
  }
  return lvs;
}

sim::Task<> MetaServer::RebuildPgState(cluster::PgId pg) {
  // Allocators: fresh bitmaps, then mark every extent recorded in OBMETA.
  // The PG's EC stripe LVs are rebuilt the same way: demoted objects record
  // stripe extents in their ObMeta, so the scan below re-marks them.
  const std::set<cluster::LvId> my_lvs = PrimaryLvs(pg);
  for (cluster::LvId lv : my_lvs) {
    pgs_.ResetAllocator(lv);
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
      if (reset_this_pass.insert(meta->lvid).second) {
        pgs_.ResetAllocator(meta->lvid);
      }
      if (alloc::BitmapAllocator* a = pgs_.AllocatorFor(meta->lvid)) {
        a->MarkAllocated(meta->extents);
      }
    }
  }
  // A put allocated before the scan may not be in it yet: its MetaX batch
  // reaches the memtable only after the WAL fsync. Its extents are still
  // taken; freeing them would hand the same blocks to the next put. (Without
  // VGs, as in the scan, any PG's put on our volumes counts.)
  pgs_.ReservePendingExtents(pg, my_lvs);
  // opseq and pending puts from the PG log.
  auto logs = co_await db_->Scan(PgLogPrefix(pg), 0);
  if (!logs.ok()) {
    co_return;
  }
  const Nanos now = rpc_.machine().loop().Now();
  for (const auto& [key, value] : *logs) {
    cluster::PgId parsed_pg = 0;
    uint64_t opseq = 0;
    if (!ParsePgLogKey(key, &parsed_pg, &opseq)) {
      continue;
    }
    pgs_.RaiseOpseq(pg, opseq);
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
    PendingPut p;
    p.reqid = reqid;
    p.name = log->name;
    p.pg = pg;
    p.opseq = opseq;
    p.proxy_id = proxy_id;
    p.meta = std::move(*meta);
    p.born = now;
    pgs_.AddRecovered(std::move(p));
  }
}

sim::Task<> MetaServer::MigratePgData(cluster::PgId pg) {
  // Cheetah-NoVG: objects whose volume fell out of the PG's (hash-derived)
  // volume set must be copied to a volume the new mapping owns (Fig. 14's
  // migration traffic).
  const uint64_t adopted_view = topo_.view;
  const std::vector<cluster::LvId> vg = pgs_.EffectiveVg(pg);
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
    if (!ParseObMetaKey(key, &key_pg, &name) || pgs_.FindByName(name) != nullptr) {
      continue;  // unresolved put; the cleaner settles it first (§5.3)
    }
    auto meta = ObMeta::Decode(value);
    if (!meta.ok() || std::find(vg.begin(), vg.end(), meta->lvid) != vg.end()) {
      continue;
    }
    auto old_lv = topo_.TargetsOf(meta->lvid, cluster::PvFilter::kRequireAll);
    if (!old_lv.has_value() || old_lv->targets.empty()) {
      continue;
    }
    // Read from the old location.
    auto data = co_await data_.Read(qos::TrafficClass::kForeground, old_lv->targets.front(),
                                    old_lv->block_size, meta->extents, meta->size,
                                    std::nullopt);
    if (!data.ok()) {
      continue;
    }
    // Allocate at the new location and write all replicas.
    auto alloc = pgs_.Allocate(pg, meta->size);
    if (!alloc.ok()) {
      continue;
    }
    auto new_lv = topo_.TargetsOf(alloc->first, cluster::PvFilter::kRequireAll);
    bool wrote_all = false;
    if (new_lv.has_value()) {
      Status s = co_await data_.Write(qos::TrafficClass::kForeground, topo_.view,
                                      new_lv->block_size, alloc->second,
                                      DataPlane::Replicas(*new_lv, data->data, meta->checksum),
                                      DataPlane::Fanout::kSerialUntilFailure);
      wrote_all = s.ok();
    }
    if (!wrote_all) {
      pgs_.Free(alloc->first, alloc->second);
      continue;
    }
    // The swap re-reads the record under the guard: a delete or a re-create
    // that landed while the data was copied wins, and the copy is dropped.
    ObMeta moved = *meta;
    moved.lvid = alloc->first;
    moved.extents = alloc->second;
    Status s = co_await SwapObjectRecord(pg, name, *meta, std::move(moved));
    if (s.ok()) {
      data_.Discard(topo_, meta->lvid, meta->extents);
      counters_.migrated_objects.Add();
    } else if (s.code() == ErrorCode::kAborted) {
      pgs_.Free(alloc->first, alloc->second);
      data_.Discard(topo_, alloc->first, alloc->second);
    }
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
      auto r = co_await rpc_.Call(mgr, std::move(hb), kHeartbeatInterval / 2);
      if (!r.ok() || !r->is_leader) {
        continue;
      }
      last_leader = mgr;
      lease_until_ = rpc_.machine().loop().Now() + r->lease_duration;
      if (r->current_view > topo_.view) {
        cluster::GetTopologyRequest get;
        get.have_view = topo_.view;
        auto t = co_await rpc_.Call(mgr, std::move(get), kRpcTimeout);
        if (t.ok() && t->changed) {
          auto map = cluster::TopologyMap::Deserialize(t->serialized_map);
          if (map.ok()) {
            co_await AdoptTopology(std::move(*map));
          }
        }
      }
      break;
    }
    co_await sim::SleepFor(kHeartbeatInterval);
  }
}

sim::Task<> MetaServer::ScrubNow() { return scrubber_->ScrubAll(); }

sim::Task<> MetaServer::TierNow() { return tier_->TierAll(); }

sim::Task<> MetaServer::CleanerLoop() {
  for (;;) {
    co_await sim::SleepFor(kLogCleanInterval);
    co_await CleanLogs();
  }
}

sim::Task<> MetaServer::CleanLogs() {
  if (db_ == nullptr || topo_.view == 0) {
    co_return;
  }
  const Nanos now = rpc_.machine().loop().Now();
  std::vector<PgState::Ticket> committed;
  std::vector<ReqId> stale;
  for (const auto& [reqid, p] : pgs_.pending()) {
    if (!IsPrimary(p.pg) || !ready_pgs_.contains(p.pg)) {
      continue;
    }
    if (p.state == PutState::kSettled) {
      committed.push_back(PgState::TicketOf(p));
    } else if (now - p.born > kPendingPutTimeout) {
      stale.push_back(reqid);
    }
  }
  // §5.3: verify stale uncommitted puts against the data servers.
  for (ReqId reqid : stale) {
    (void)co_await VerifyPending(reqid);
    if (const PendingPut* p = pgs_.Find(reqid); p != nullptr && p->committed()) {
      committed.push_back(PgState::TicketOf(*p));
    }
  }
  if (committed.empty() && !pgs_.has_dirty()) {
    co_return;
  }
  // Clean the logs of committed puts in one batch; sync bitmaps (§5.2).
  std::map<cluster::PgId, kv::WriteBatch> deletes_by_pg;
  std::set<cluster::LvId> touched;
  for (PgState::Ticket ticket : committed) {
    std::optional<PendingPut> p = pgs_.Retire(ticket);
    if (!p.has_value()) {
      continue;
    }
    deletes_by_pg[p->pg].Delete(PgLogKey(p->pg, p->opseq));
    deletes_by_pg[p->pg].Delete(PxLogKey(p->proxy_id, p->reqid));
    touched.insert(p->meta.lvid);
    counters_.logs_cleaned.Add();
  }
  for (auto& [pg, deletes] : deletes_by_pg) {
    (void)co_await PersistAndReplicate(pg, std::move(deletes));
  }
  // §5.2's bitmap sync: one synced write of each touched LV's flat bitmap
  // on the meta disk. Nothing reads a bitmap back (recovery rebuilds the
  // allocators from MetaX), so its bytes are charged, not kept.
  touched.merge(pgs_.TakeDirty());
  sim::Storage& disk = rpc_.machine().disk(0);
  for (cluster::LvId lv : touched) {
    if (const alloc::BitmapAllocator* a = pgs_.FindAllocator(lv)) {
      co_await disk.ChargeFileWrite(a->SerializedSize());
      co_await disk.ChargeFsync();
    }
  }
}

// ---- narrow interface for the Scrubber and the TierEngine ----

sim::Task<> MetaServer::ForEachSettledObject(std::function<bool(cluster::PgId)> scan_pg,
                                             ObjectVisitor visit) {
  if (db_ == nullptr || topo_.view == 0) {
    co_return;
  }
  auto migrating = [this](cluster::PgId pg) { return topo_.MigrationOf(pg) != nullptr; };
  for (cluster::PgId pg = 0; pg < topo_.pg_count; ++pg) {
    // PGs mid-migration are skipped outright: a repair or a record swap
    // racing the cutover could write through topology targets the next view
    // retires.
    if (!IsPrimary(pg) || !ready_pgs_.contains(pg) || migrating(pg) ||
        (scan_pg && !scan_pg(pg))) {
      continue;
    }
    const uint64_t scan_view = topo_.view;
    auto rows = co_await db_->Scan(ObMetaPrefix(pg), 0);
    if (!rows.ok()) {
      continue;
    }
    for (const auto& [key, value] : *rows) {
      if (topo_.view != scan_view || !IsPrimary(pg) || migrating(pg)) {
        break;  // superseded by a view change or an in-flight migration
      }
      cluster::PgId key_pg = 0;
      std::string name;
      if (!ParseObMetaKey(key, &key_pg, &name) || pgs_.FindByName(name) != nullptr ||
          pgs_.IsGuarded(name)) {
        continue;  // unresolved puts are the cleaner's job; a swap is moving it
      }
      auto meta = ObMeta::Decode(value);
      if (meta.ok()) {
        co_await visit(pg, std::move(name), std::move(*meta));
      }
    }
  }
}

sim::Task<Status> MetaServer::SwapObjectRecord(cluster::PgId pg, std::string name,
                                               ObMeta expected, ObMeta replacement) {
  if (!pgs_.Guard(name)) {
    co_return Status::Aborted("record swap already in flight");
  }
  Status s = Status::Aborted("record changed underneath the swap");
  const std::string key = ObMetaKey(pg, name);
  if (IsPrimary(pg) && pgs_.FindByName(name) == nullptr) {
    auto value = co_await db_->Get(key);
    auto current = value.ok() ? ObMeta::Decode(*value) : Result<ObMeta>(value.status());
    if (current.ok() && *current == expected) {
      const std::string encoded = replacement.Encode();
      kv::WriteBatch batch;
      batch.Put(key, encoded);
      s = co_await PersistAndReplicate(pg, std::move(batch));
      // Post-persist audit: the record must still be the one just written.
      // Deletes hold this guard too, so none can tombstone over it; the
      // check stays for any writer that takes no guard.
      if (s.ok()) {
        auto after = co_await db_->Get(key);
        if (!after.ok() || *after != encoded) {
          s = Status::Aborted("record overwritten during the swap");
        }
      }
    }
  }
  pgs_.Unguard(name);
  co_return s;
}

}  // namespace cheetah::core
