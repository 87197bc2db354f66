#include "src/tier/engine.h"

#include <algorithm>
#include <optional>
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
  if (options_.tier.ec_k == 0) {
    co_return;
  }
  // No stripes carved for a PG -> nothing can be demoted out of it. Never
  // demote out of a PG mid-migration: the multi-step extent swap races both
  // the catchup scan and the cutover's ownership flip (the scan skips them).
  co_await ms_.ForEachSettledObject(
      [this](cluster::PgId pg) {
        auto it = ms_.topology().ec_vgs.find(pg);
        return it != ms_.topology().ec_vgs.end() && !it->second.empty();
      },
      [this](cluster::PgId pg, std::string name, core::ObMeta meta) {
        return ConsiderObject(pg, std::move(name), std::move(meta));
      });
}

sim::Task<> TierEngine::ConsiderObject(cluster::PgId pg, std::string name, core::ObMeta meta) {
  if (meta.storage_class != core::StorageClass::kReplica) {
    co_return;
  }
  counters_.scanned.Add();
  // Access recency: the ObMeta's birth time floors it (survives restarts);
  // gets served since then keep the object hot via last_access_.
  Nanos last = static_cast<Nanos>(meta.born_ns);
  if (auto it = last_access_.find(name); it != last_access_.end()) {
    last = std::max(last, it->second);
  }
  if (EligibleForDemotion(options_.tier, meta.size, last, rpc_.machine().loop().Now())) {
    co_await DemoteObject(pg, std::move(name), std::move(meta));
  }
}

sim::Task<> TierEngine::DemoteObject(cluster::PgId pg, std::string name,
                                     core::ObMeta meta) {
  const uint32_t k = options_.tier.ec_k;
  const uint32_t m = options_.tier.ec_m;
  auto alloc = ms_.pg_state().AllocateEcStripe(pg, ShardBytes(meta.size, k));
  if (!alloc.ok()) {
    counters_.demote_failures.Add();
    co_return;
  }
  const cluster::LvId stripe_lvid = alloc->first;
  const std::vector<alloc::Extent> stripe_extents = std::move(alloc->second);
  // Revokes the half-built stripe: frees the allocation and drops any chunks
  // already written.
  auto fail = [&] {
    ms_.ReleaseExtents(stripe_lvid, stripe_extents);
    counters_.demote_failures.Add();
  };

  auto stripe = ms_.topology().TargetsOf(stripe_lvid, cluster::PvFilter::kRequireAll);
  auto source = ms_.topology().TargetsOf(meta.lvid, cluster::PvFilter::kSkipUnhealthy);
  if (!stripe.has_value() || !source.has_value() ||
      stripe->targets.size() != static_cast<size_t>(k) + m) {
    fail();
    co_return;
  }
  // Verified source read (maintenance class): the payload is checked against
  // the object checksum server-side, so a rotted replica can never be the
  // bytes that get striped.
  std::optional<Bytes> payload;
  for (const cluster::ReplicaTarget& src : source->targets) {
    auto r = co_await data_.Read(qos::TrafficClass::kMaintenance, src, source->block_size,
                                 meta.extents, meta.size, meta.checksum);
    if (r.ok() && r->content_valid) {
      payload = std::move(r->data);
      break;
    }
  }
  if (!payload.has_value()) {
    // Either every replica is damaged/unreachable right now, or the devices
    // run metadata-only (content_valid=false) and there are no real bytes to
    // restripe. Retry on a later pass.
    fail();
    co_return;
  }

  std::vector<std::string> chunks = EncodeChunks(payload->view(), k, m);
  std::vector<uint32_t> crcs = ChunkCrcs(chunks);

  // Chunk fan-out: chunk j to stripe PV j, each stored under its own CRC so
  // data servers can verify-reject individual chunks later. Still invisible:
  // MetaX points at the replicas until the swap below.
  std::vector<core::DataPlane::Piece> pieces;
  for (size_t j = 0; j < chunks.size(); ++j) {
    pieces.emplace_back(stripe->targets[j], Bytes(std::move(chunks[j])), crcs[j]);
  }
  Status wrote = co_await data_.Write(qos::TrafficClass::kMaintenance, ms_.topology().view,
                                      stripe->block_size, stripe_extents, std::move(pieces),
                                      core::DataPlane::Fanout::kParallel);
  if (!wrote.ok()) {
    fail();
    co_return;
  }

  // Read-back audit: a gray-failing disk acks writes whose media bytes
  // diverge from the CRC just recorded. Probe every chunk's stored checksum
  // before the swap so a born-corrupt stripe is revoked, never published.
  const core::DataPlane::Probed probed = co_await data_.ProbeAll(
      *stripe, stripe_extents, crcs, core::DataPlane::Fanout::kSerialUntilFailure);
  if (probed.present.size() != stripe->targets.size()) {
    fail();
    co_return;
  }

  // Swap: the record must still be exactly `meta`; puts and deletes bounce
  // for the one persist round this takes.
  core::ObMeta ec = meta;
  ec.lvid = stripe_lvid;
  ec.extents = stripe_extents;
  ec.storage_class = core::StorageClass::kEc;
  ec.ec_k = k;
  ec.ec_m = m;
  ec.chunk_crcs = crcs;
  ec.born_ns = static_cast<uint64_t>(rpc_.machine().loop().Now());
  Status swapped = co_await ms_.SwapObjectRecord(pg, name, meta, std::move(ec));
  if (!swapped.ok()) {
    ms_.ReleaseExtents(stripe_lvid, stripe_extents);
    (swapped.code() == ErrorCode::kAborted ? counters_.demote_aborts
                                           : counters_.demote_failures)
        .Add();
    co_return;
  }

  // The object now lives as an EC stripe; retire the replica copies.
  ms_.ReleaseExtents(meta.lvid, meta.extents);
  ms_.pg_state().MarkDirty(stripe_lvid);
  counters_.demotions.Add();
  counters_.bytes_demoted.Add(meta.size);
  LOG_DEBUG << "tier " << rpc_.id() << ": demoted " << name << " (" << meta.size
            << "B) to rs(" << k << "," << m << ") lv " << stripe_lvid;
}

}  // namespace cheetah::tier
