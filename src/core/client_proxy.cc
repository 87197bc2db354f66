#include "src/core/client_proxy.h"

#include <algorithm>

#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"
#include "src/qos/qos.h"
#include "src/sim/actor.h"
#include "src/tier/striper.h"

namespace cheetah::core {

namespace {

// Retry backoff: capped exponential with decorrelated jitter (AWS
// architecture-blog style: sleep = min(cap, rand(base, 3*prev))), so many
// proxies retrying into a recovering cluster don't synchronize into
// thundering herds. Deterministic per proxy seed. kBackoffBase is also the
// retry-after floor of an overload pushback.
constexpr Nanos kBackoffBase = Millis(5);
constexpr Nanos kBackoffCap = Millis(320);
// Attempts per put, get or delete before it fails as unavailable.
constexpr int kMaxRetries = 6;

// Lets an actor own a repair whose outcome its observer already counted.
sim::Task<> Detach(sim::Task<Status> repair) { (void)co_await std::move(repair); }

}  // namespace

ClientProxy::ClientProxy(rpc::Node& rpc, CheetahOptions options,
                         std::vector<sim::NodeId> manager_nodes, uint32_t proxy_id)
    : rpc_(rpc),
      options_(std::move(options)),
      manager_nodes_(std::move(manager_nodes)),
      proxy_id_(proxy_id),
      rng_(0x9c0ffee0ull + proxy_id),
      counters_{obs::Scope("proxy@" + std::to_string(rpc.id()))} {}

ClientProxy::MetaWindow& ClientProxy::WindowFor(sim::NodeId dst) {
  auto it = windows_.find(dst);
  if (it == windows_.end()) {
    auto mw = std::make_unique<MetaWindow>(options_.aimd);
    mw->window_gauge = counters_.scope.gauge("aimd_window." + std::to_string(dst));
    it = windows_.emplace(dst, std::move(mw)).first;
  }
  return *it->second;
}

void ClientProxy::Start() {
  rpc_.Serve<MetaPersistedNotify, &ClientProxy::HandlePersisted>(this);
  rpc_.Serve<cluster::TopologyPush, &ClientProxy::HandleTopologyPush>(this);
  rpc_.machine().actor().Spawn(HeartbeatLoop());
}

sim::Task<Result<MetaPersistedAck>> ClientProxy::HandlePersisted(sim::NodeId src,
                                                                 MetaPersistedNotify req) {
  auto it = persist_waits_.find(req.reqid);
  if (it != persist_waits_.end()) {
    it->second->ok = req.ok;
    it->second->done.Set();
  }
  co_return MetaPersistedAck{};
}

sim::Task<Result<cluster::TopologyPushReply>> ClientProxy::HandleTopologyPush(
    sim::NodeId src, cluster::TopologyPush req) {
  auto map = cluster::TopologyMap::Deserialize(req.serialized_map);
  if (map.ok() && map->view > topo_.view) {
    topo_ = std::move(*map);
    meta_cache_.clear();  // volume assignments may have changed
  }
  co_return cluster::TopologyPushReply{};
}

sim::Task<> ClientProxy::HeartbeatLoop() {
  for (;;) {
    for (sim::NodeId mgr : manager_nodes_) {
      cluster::HeartbeatRequest hb;
      hb.node = rpc_.id();
      hb.kind = cluster::ServerKind::kClientProxy;
      hb.view = topo_.view;
      auto r = co_await rpc_.Call(mgr, std::move(hb), kRpcTimeout);
      if (r.ok() && r->is_leader) {
        if (r->current_view > topo_.view) {
          (void)co_await RefreshTopology();
        }
        break;
      }
    }
    co_await sim::SleepFor(kHeartbeatInterval * 4);
  }
}

sim::Task<Status> ClientProxy::EnsureTopology() {
  if (topo_.view > 0) {
    co_return Status::Ok();
  }
  co_return co_await RefreshTopology();
}

sim::Task<Status> ClientProxy::RefreshTopology() {
  for (sim::NodeId mgr : manager_nodes_) {
    cluster::GetTopologyRequest get;
    get.have_view = 0;  // always fetch the full map
    auto r = co_await rpc_.Call(mgr, std::move(get), kRpcTimeout);
    if (!r.ok() || !r->changed) {
      continue;
    }
    auto map = cluster::TopologyMap::Deserialize(r->serialized_map);
    if (!map.ok()) {
      continue;
    }
    if (map->view > topo_.view) {
      topo_ = std::move(*map);
      meta_cache_.clear();
    }
    co_return Status::Ok();
  }
  co_return Status::Unavailable("no manager answered with a topology");
}

void ClientProxy::ReportSuspect(sim::NodeId node) {
  for (sim::NodeId mgr : manager_nodes_) {
    cluster::ReportFailureRequest report;
    report.suspect = node;
    rpc_.Notify(mgr, std::move(report));
  }
}

sim::Task<> ClientProxy::BackoffAndRefresh(int attempt) {
  // Capped exponential backoff with decorrelated jitter: the sleep is drawn
  // from [floor, min(cap, 3 * previous)], where the floor doubles each
  // attempt. The floor guarantees later retries wait out a view change's
  // adoption window instead of burning all attempts against a server that
  // fast-fails while initializing; the draw (from the proxy's own seeded
  // RNG, so runs stay reproducible) decorrelates proxies so recovery traffic
  // doesn't stampede in lockstep.
  const Nanos floor = std::min(kBackoffCap, kBackoffBase << std::min(attempt, 10));
  const Nanos hi =
      std::max(floor, std::min(kBackoffCap, 3 * std::max(backoff_, kBackoffBase)));
  backoff_ = floor + rng_.Uniform(hi - floor + 1);
  co_await sim::SleepFor(backoff_);
  (void)co_await RefreshTopology();
}

uint64_t ClientProxy::StaleViewHint(const Status& s) {
  const std::string& msg = s.message();
  static constexpr const char kTag[] = "server at view ";
  const size_t pos = msg.rfind(kTag);
  if (pos == std::string::npos) {
    return 0;
  }
  uint64_t view = 0;
  for (size_t i = pos + sizeof(kTag) - 1;
       i < msg.size() && msg[i] >= '0' && msg[i] <= '9'; ++i) {
    view = view * 10 + static_cast<uint64_t>(msg[i] - '0');
  }
  return view;
}

sim::Task<> ClientProxy::ChaseStaleView(const Status& s) {
  const uint64_t hint = StaleViewHint(s);
  if (hint > topo_.view) {
    counters_.fast_redirects.Add();
    // The server is provably ahead: poll the managers until the replicated
    // topology catches up to the hinted view. No jittered sleep between
    // rounds — the view is already committed somewhere, the only latency is
    // Raft apply + push propagation, which the short fixed pause covers.
    for (int round = 0; round < 8 && topo_.view < hint; ++round) {
      (void)co_await RefreshTopology();
      if (topo_.view >= hint) {
        break;
      }
      co_await sim::SleepFor(Millis(5) * (round + 1));
    }
    co_return;
  }
  // No usable hint (e.g. "not the primary of this pg"): plain refresh.
  (void)co_await RefreshTopology();
}

sim::Task<> ClientProxy::WaitToRetry(const Status& s, int attempt) {
  if (s.IsStaleView()) {
    co_await ChaseStaleView(s);
  } else if (s.IsOverloaded()) {
    // Admission-control pushback, not a failure: honor the server's
    // retry-after hint without refreshing views.
    co_await sim::SleepFor(qos::RetryAfterOf(s, kBackoffBase));
  } else {
    co_await BackoffAndRefresh(attempt);
  }
}

// ---- put ----

sim::Task<Status> ClientProxy::Put(std::string name, std::string data) {
  auto& tracer = obs::Tracer::Global();
  const uint64_t op =
      tracer.enabled() ? tracer.BeginOp("put", rpc_.id(), rpc_.machine().loop().Now()) : 0;
  Status s = co_await PutImpl(std::move(name), Bytes(std::move(data)));
  tracer.EndOp(op, rpc_.machine().loop().Now(), s.ok());
  co_return s;
}

sim::Task<Status> ClientProxy::PutImpl(std::string name, Bytes data) {
  CO_RETURN_IF_ERROR(co_await EnsureTopology());
  const uint32_t checksum = Crc32c(data.view());
  const ReqId reqid = (static_cast<uint64_t>(proxy_id_) << 32) | next_req_++;
  bool re_meta = false;
  bool re_data = false;
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    Status s = co_await PutAttempt(name, data, checksum, reqid, re_meta, re_data);
    if (s.ok()) {
      counters_.puts.Add();
      co_return s;
    }
    if (s.code() == ErrorCode::kAlreadyExists ||
        s.code() == ErrorCode::kResourceExhausted) {
      counters_.failures.Add();
      co_return s;  // terminal
    }
    counters_.retries.Add();
    if (s.code() == ErrorCode::kIoError) {
      re_data = true;  // a data server failed us mid-write (§5.3 RE-DATA)
    } else if (!s.IsStaleView() && !s.IsOverloaded()) {
      re_meta = true;  // meta path failed; resume after recovery (§5.3 RE-META)
    }
    co_await WaitToRetry(s, attempt);
  }
  counters_.failures.Add();
  co_return Status::Unavailable("put exhausted retries");
}

sim::Task<Status> ClientProxy::PutAttempt(const std::string& name, const Bytes& data,
                                          uint32_t checksum, ReqId reqid, bool re_meta,
                                          bool re_data) {
  const cluster::PgId pg = topo_.PgOf(name);
  const sim::NodeId primary = topo_.PrimaryOf(pg);

  auto wait = std::make_shared<PersistWait>();
  persist_waits_[reqid] = wait;
  PutAllocRequest alloc;
  alloc.view = topo_.view;
  alloc.name = name;
  alloc.size = data.size();
  alloc.checksum = checksum;
  alloc.reqid = reqid;
  alloc.proxy_id = proxy_id_;
  alloc.proxy_node = rpc_.id();
  alloc.re_meta = re_meta;
  alloc.re_data = re_data;
  // Small objects ride inside the MetaX record itself: one round trip to the
  // meta primary, no data-server writes at all. The primary decides (it may
  // decline, e.g. during recovery), so the reply's inline_stored flag — not
  // the request hint — gates the data fan-out below.
  if (options_.tier.inline_threshold > 0 &&
      data.size() <= options_.tier.inline_threshold) {
    alloc.is_inline = true;
    alloc.inline_data = data.ToString();
  }
  auto reply = co_await CallMeta(primary, std::move(alloc));
  if (!reply.ok()) {
    persist_waits_.erase(reqid);
    if (reply.status().IsTimeout()) {
      ReportSuspect(primary);
    }
    co_return reply.status();
  }

  if (reply->already_done) {
    // An earlier attempt took effect and a delete has since settled it; the
    // extents are gone, so there is no data to (re)write.
    persist_waits_.erase(reqid);
    co_return Status::Ok();
  }
  if (!reply->inline_stored) {
    auto lv = topo_.TargetsOf(reply->lvid, cluster::PvFilter::kRequireAll);
    if (!lv.has_value()) {
      persist_waits_.erase(reqid);
      co_return Status::StaleView("allocated volume unknown to this proxy");
    }
    // Every replica in parallel; a timed-out data server is reported the
    // moment its write gives up.
    Status ws = co_await data_.Write(
        qos::TrafficClass::kForeground, topo_.view, lv->block_size, reply->extents,
        DataPlane::Replicas(*lv, data, checksum), DataPlane::Fanout::kParallel,
        [this](const DataPlane::Piece& piece, const Status& s) {
          if (s.IsTimeout()) {
            ReportSuspect(piece.target.node);
          }
        });
    if (!ws.ok()) {
      persist_waits_.erase(reqid);
      co_return Status::IoError("data write failed: " + ws.ToString());
    }
  } else {
    counters_.inline_puts.Add();
  }

  // Wait for the MetaX-persisted ack (already satisfied in Cheetah-OW). The
  // wait span is what distinguishes a stock put from an OW put in traces —
  // the protocol regression test keys off it. Skipping this wait is the
  // canonical injected bug the chaos suite must catch (see options.h).
  if (!reply->persisted && !options_.unsafe_skip_persist_wait) {
    auto& tracer = obs::Tracer::Global();
    const uint64_t wspan =
        tracer.enabled() ? tracer.Begin(obs::SpanKind::kWait, "put.persist_wait", rpc_.id(),
                                        rpc_.machine().loop().Now())
                         : 0;
    const bool fired = co_await wait->done.TimedWait(kRpcTimeout);
    tracer.End(wspan, rpc_.machine().loop().Now(), fired && wait->ok);
    if (!fired || !wait->ok) {
      persist_waits_.erase(reqid);
      co_return Status::Unavailable("MetaX persistence did not complete");
    }
  }
  persist_waits_.erase(reqid);

  // Committed (Pseudocode 1 line 9); notify the primary (line 10).
  PutCommitNotify commit;
  commit.view = topo_.view;
  commit.name = name;
  commit.reqid = reqid;
  rpc_.Notify(primary, std::move(commit));

  if (options_.enable_read_cache) {
    ObMeta cached;
    if (reply->inline_stored) {
      cached.storage_class = StorageClass::kInline;
      cached.inline_data = data.ToString();
    } else {
      cached.lvid = reply->lvid;
      cached.extents = reply->extents;
    }
    cached.checksum = checksum;
    cached.size = data.size();
    meta_cache_[name] = std::move(cached);
  }
  co_return Status::Ok();
}

// ---- get ----

sim::Task<Result<std::string>> ClientProxy::Get(std::string name) {
  auto& tracer = obs::Tracer::Global();
  const uint64_t op =
      tracer.enabled() ? tracer.BeginOp("get", rpc_.id(), rpc_.machine().loop().Now()) : 0;
  Result<Bytes> r = co_await GetImpl(std::move(name));
  tracer.EndOp(op, rpc_.machine().loop().Now(), r.ok());
  if (!r.ok()) {
    co_return r.status();
  }
  co_return std::move(r).value().ToString();
}

sim::Task<Result<Bytes>> ClientProxy::GetImpl(std::string name) {
  CO_RETURN_IF_ERROR(co_await EnsureTopology());
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    const cluster::PgId pg = topo_.PgOf(name);
    const sim::NodeId primary = topo_.PrimaryOf(pg);

    // §7 read optimization: with cached metadata, overlap the authoritative
    // metadata lookup with the data read.
    auto cached = options_.enable_read_cache ? meta_cache_.find(name) : meta_cache_.end();
    if (cached != meta_cache_.end()) {
      counters_.cache_hits.Add();
      // Concurrent ops on this proxy can mutate meta_cache_ while the
      // parallel lookup below is suspended, invalidating the iterator —
      // work from a copy.
      const ObMeta cached_meta = cached->second;
      struct ParallelGet {
        Result<Bytes> data = Status::Internal("unresolved");
        Result<GetMetaReply> meta = Status::Internal("unresolved");
      };
      auto par = std::make_shared<ParallelGet>();
      std::vector<sim::Task<>> tasks;
      tasks.push_back([](ClientProxy* self, ObMeta m,
                         std::shared_ptr<ParallelGet> par) -> sim::Task<> {
        par->data = co_await self->ReadData(m);
      }(this, cached_meta, par));
      GetMetaRequest req;
      req.view = topo_.view;
      req.name = name;
      tasks.push_back([](ClientProxy* self, sim::NodeId primary, GetMetaRequest req,
                         std::shared_ptr<ParallelGet> par) -> sim::Task<> {
        par->meta = co_await self->CallMeta(primary, std::move(req));
      }(this, primary, std::move(req), par));
      co_await sim::WhenAllVoid(std::move(tasks));
      auto& meta = par->meta;
      auto& data0 = par->data;
      if (meta.ok() && data0.ok() && meta->meta.checksum == cached_meta.checksum) {
        counters_.gets.Add();
        co_return std::move(data0);
      }
      meta_cache_.erase(name);
      if (meta.ok() && !data0.ok()) {
        // Metadata moved (migration/recovery): retry the read at the fresh
        // location using the authoritative metadata.
        auto data = co_await ReadData(par->meta->meta);
        if (data.ok()) {
          counters_.gets.Add();
          co_return data;
        }
      }
      if (!meta.ok() && meta.status().IsNotFound()) {
        co_return meta.status();
      }
      // fall through into the uncached path for error handling
    }

    GetMetaRequest req;
    req.view = topo_.view;
    req.name = name;
    auto meta = co_await CallMeta(primary, std::move(req));
    if (!meta.ok()) {
      if (meta.status().IsNotFound()) {
        co_return meta.status();
      }
      LOG_DEBUG << "proxy " << proxy_id_ << " get " << name << " attempt " << attempt
                << " meta: " << meta.status().ToString();
      counters_.retries.Add();
      if (meta.status().IsTimeout()) {
        ReportSuspect(primary);
      }
      co_await WaitToRetry(meta.status(), attempt);
      continue;
    }
    auto data = co_await ReadData(meta->meta);
    if (data.ok()) {
      if (options_.enable_read_cache) {
        meta_cache_[name] = meta->meta;
      }
      counters_.gets.Add();
      co_return data;
    }
    LOG_DEBUG << "proxy " << proxy_id_ << " get " << name << " attempt " << attempt
              << " data: " << data.status().ToString();
    counters_.retries.Add();
    co_await BackoffAndRefresh(attempt);
  }
  counters_.failures.Add();
  co_return Status::Unavailable("get exhausted retries");
}

sim::Task<Result<Bytes>> ClientProxy::ReadData(const ObMeta& meta) {
  if (meta.storage_class == StorageClass::kInline) {
    // The payload rode inside the MetaX record; nothing on the data plane.
    if (Crc32c(meta.inline_data) != meta.checksum) {
      co_return Status::Corruption("inline payload checksum mismatch");
    }
    co_return Bytes(meta.inline_data);
  }
  if (meta.storage_class == StorageClass::kEc) {
    co_return co_await ReadEcData(meta);
  }
  const cluster::LogicalVolume* lv = topo_.FindLv(meta.lvid);
  if (lv == nullptr) {
    co_return Status::StaleView("volume unknown");
  }
  // Copy what the reads need out of the topology now: a TopologyPush handled
  // while a read below is suspended reassigns topo_, dangling lv (and any pv
  // pointer held across an await).
  const std::vector<cluster::PvId> order = lv->replicas;
  const uint32_t block_size = lv->block_size;
  // Replicas that positively failed verification.
  cluster::LvTargets damaged;
  damaged.block_size = block_size;
  // The lease lets a get read from any one of the n data servers (§5.1).
  const size_t start = rng_.Uniform(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const cluster::PhysicalVolume* pv = topo_.FindPv(order[(start + i) % order.size()]);
    if (pv == nullptr || !pv->healthy) {
      continue;
    }
    const cluster::ReplicaTarget target{pv->DeviceName(), pv->disk_index, pv->data_server};
    auto r = co_await data_.Read(qos::TrafficClass::kForeground, target, block_size,
                                 meta.extents, meta.size, meta.checksum);
    if (!r.ok()) {
      if (NoteFailedRead(target, r.status())) {
        damaged.targets.push_back(target);  // remember the replica for repair
      }
      continue;  // try another replica
    }
    if (!damaged.targets.empty()) {
      // Read-repair, fire-and-forget on the proxy's actor: the get returns
      // without waiting for these maintenance-class rewrites of the damaged
      // replicas. Writing to a deleted object's old extents is benign:
      // visibility is governed by MetaX, and the blocks are either
      // unallocated (the next put to reuse them overwrites the repair) or
      // already reused (the repair is itself overwritten; scrub re-heals if
      // it races in between).
      rpc_.machine().actor().Spawn(Detach(data_.RepairReplicas(
          qos::TrafficClass::kMaintenance, topo_.view, std::move(damaged), meta, r->data,
          DataPlane::Fanout::kSerial, [this](const DataPlane::Piece&, const Status& s) {
            if (s.ok()) {
              counters_.read_repairs.Add();
            }
          })));
    }
    co_return std::move(r->data);
  }
  co_return Status::Unavailable("no data replica answered");
}

sim::Task<Result<Bytes>> ClientProxy::ReadEcData(const ObMeta& meta) {
  const uint32_t k = meta.ec_k;
  const uint32_t m = meta.ec_m;
  // Everything the chunk I/O needs, copied out of the topology before the
  // first co_await (same dangling-pointer hazard as ReadData).
  auto lv = topo_.TargetsOf(meta.lvid, cluster::PvFilter::kRequireAll);
  if (!lv.has_value()) {
    co_return Status::StaleView("stripe volume unknown");
  }
  if (k == 0 || lv->targets.size() != static_cast<size_t>(k) + m ||
      meta.chunk_crcs.size() != lv->targets.size()) {
    co_return Status::Corruption("inconsistent EC stripe metadata");
  }
  const cluster::LvTargets stripe = std::move(*lv);
  const std::vector<cluster::ReplicaTarget>& targets = stripe.targets;
  const uint64_t shard_bytes = tier::ShardBytes(meta.size, k);

  auto st = std::make_shared<StripeState>();
  st->chunks.resize(targets.size());

  // Fast path: the k data chunks in parallel. The code is systematic, so
  // their concatenation (minus padding) is the object — no decode needed.
  std::vector<sim::Task<>> reads;
  for (uint32_t j = 0; j < k; ++j) {
    reads.push_back(ReadChunk(targets[j], j, stripe.block_size, meta.extents, shard_bytes,
                              meta.chunk_crcs[j], st));
  }
  co_await sim::WhenAllVoid(std::move(reads));

  size_t have = 0;
  for (uint32_t j = 0; j < k; ++j) {
    have += st->chunks[j].has_value() ? 1 : 0;
  }
  if (have == k) {
    std::string data;
    data.reserve(static_cast<size_t>(shard_bytes) * k);
    for (uint32_t j = 0; j < k; ++j) {
      data += st->chunks[j]->view();
    }
    data.resize(meta.size);
    co_return Bytes(std::move(data));
  }

  // Degraded: pull parity chunks until any k survive, then decode. Parity is
  // fetched one at a time — the fast path already has most of the stripe, and
  // the sequential tail keeps parity traffic off healthy gets entirely.
  for (size_t j = k; j < targets.size() && have < k; ++j) {
    co_await ReadChunk(targets[j], j, stripe.block_size, meta.extents, shard_bytes,
                       meta.chunk_crcs[j], st);
    have += st->chunks[j].has_value() ? 1 : 0;
  }
  if (have < static_cast<size_t>(k)) {
    co_return Status::Unavailable("stripe lost more than m chunks");
  }
  auto decoded = tier::DecodeChunks(st->chunks, k, m, meta.size);
  if (!decoded.ok()) {
    co_return decoded.status();
  }
  counters_.ec_degraded_reads.Add();

  // Fire-and-forget reconstruction repair of the positively-damaged chunks,
  // maintenance class like a replica read-repair. RepairChunks writes back
  // only chunks whose rebuilt bytes match the CRC recorded in MetaX, so a
  // reconstruction racing a demotion swap can never plant garbage.
  std::sort(st->damaged.begin(), st->damaged.end());  // parallel reads land in any order
  rpc_.machine().actor().Spawn(Detach(data_.RepairChunks(
      qos::TrafficClass::kMaintenance, topo_.view, stripe, meta, st->chunks, st->damaged,
      [this](const DataPlane::Piece&, const Status& s) {
        if (s.ok()) {
          counters_.ec_chunk_repairs.Add();
        }
      })));
  co_return Bytes(std::move(*decoded));
}

sim::Task<> ClientProxy::ReadChunk(cluster::ReplicaTarget t, size_t j, uint32_t block_size,
                                   std::vector<alloc::Extent> extents, uint64_t shard_bytes,
                                   uint32_t crc, std::shared_ptr<StripeState> st) {
  auto r = co_await data_.Read(qos::TrafficClass::kForeground, t, block_size,
                               std::move(extents), shard_bytes, crc);
  if (r.ok()) {
    st->chunks[j] = std::move(r->data);
  } else if (NoteFailedRead(t, r.status())) {
    st->damaged.push_back(j);
  }
}

bool ClientProxy::NoteFailedRead(const cluster::ReplicaTarget& t, const Status& s) {
  if (s.IsTimeout()) {
    ReportSuspect(t.node);
  }
  // A failed verification or an unreadable sector is positive evidence of
  // damage, unlike a timeout or a stale view.
  if (s.code() != ErrorCode::kCorruption && s.code() != ErrorCode::kIoError) {
    return false;
  }
  counters_.corrupt_replica_reads.Add();
  return true;
}

// ---- delete ----

sim::Task<Status> ClientProxy::Delete(std::string name) {
  auto& tracer = obs::Tracer::Global();
  const uint64_t op =
      tracer.enabled() ? tracer.BeginOp("delete", rpc_.id(), rpc_.machine().loop().Now()) : 0;
  Status s = co_await DeleteImpl(std::move(name));
  tracer.EndOp(op, rpc_.machine().loop().Now(), s.ok());
  co_return s;
}

sim::Task<Status> ClientProxy::DeleteImpl(std::string name) {
  CO_RETURN_IF_ERROR(co_await EnsureTopology());
  meta_cache_.erase(name);
  const ReqId reqid = (static_cast<uint64_t>(proxy_id_) << 32) | next_req_++;
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    const cluster::PgId pg = topo_.PgOf(name);
    const sim::NodeId primary = topo_.PrimaryOf(pg);
    DeleteRequest req;
    req.view = topo_.view;
    req.name = name;
    req.reqid = reqid;
    req.proxy_id = proxy_id_;
    auto r = co_await CallMeta(primary, std::move(req));
    if (r.ok()) {
      counters_.deletes.Add();
      co_return Status::Ok();
    }
    if (r.status().IsNotFound()) {
      co_return r.status();
    }
    counters_.retries.Add();
    if (r.status().IsTimeout()) {
      ReportSuspect(primary);
    }
    co_await WaitToRetry(r.status(), attempt);
  }
  counters_.failures.Add();
  co_return Status::Unavailable("delete exhausted retries");
}

}  // namespace cheetah::core
