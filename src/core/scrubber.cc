#include "src/core/scrubber.h"

#include <string>
#include <utility>

#include "src/core/meta_server.h"
#include "src/sim/sync.h"
#include "src/tier/striper.h"

namespace cheetah::core {

Scrubber::Scrubber(MetaServer& ms, rpc::Node& rpc, const CheetahOptions& options)
    : ms_(ms),
      options_(options),
      data_(rpc),
      counters_{obs::Scope("scrub@" + std::to_string(rpc.id()))} {}

sim::Task<> Scrubber::Loop() {
  for (;;) {
    co_await sim::SleepFor(options_.scrub_interval);
    co_await ScrubAll();
  }
}

sim::Task<> Scrubber::ScrubAll() {
  return ms_.ForEachSettledObject(nullptr, [this](cluster::PgId, std::string, ObMeta meta) {
    return ScrubObject(std::move(meta));
  });
}

sim::Task<> Scrubber::ScrubObject(ObMeta meta) {
  // Audit: probe each data replica's stored checksum against MetaX; repair
  // divergent replicas from a healthy one. A replica counts as damaged
  // whether the probe sees a checksum mismatch (bit rot, torn write) or an
  // I/O error (latent sector error) — the repair write remaps either way.
  if (meta.storage_class == StorageClass::kInline) {
    // The payload lives in MetaX itself; the KV layer's own block CRCs and
    // WAL recovery audit it. Nothing on the data plane to probe.
    counters_.objects.Add();
    co_return;
  }
  if (meta.storage_class == StorageClass::kEc) {
    co_await ScrubEcObject(std::move(meta));
    co_return;
  }
  auto lv = ms_.topology().TargetsOf(meta.lvid, cluster::PvFilter::kSkipUnhealthy);
  if (!lv.has_value()) {
    co_return;
  }
  const DataPlane::Probed probed = co_await data_.ProbeAll(
      *lv, meta.extents, std::vector<uint32_t>(lv->targets.size(), meta.checksum),
      DataPlane::Fanout::kSerial, CountProbe());
  counters_.objects.Add();
  if (probed.damaged.empty() || probed.present.empty()) {
    co_return;
  }
  // Repair: copy the healthy replica over the divergent ones. The source
  // read is verified against MetaX so a race (probe passed, then the
  // source rotted) can never propagate a damaged payload.
  auto data = co_await data_.Read(qos::TrafficClass::kMaintenance,
                                  lv->targets[probed.present.back()], lv->block_size,
                                  meta.extents, meta.size, meta.checksum);
  if (!data.ok()) {
    counters_.repair_failures.Add();
    co_return;
  }
  (void)co_await data_.RepairReplicas(qos::TrafficClass::kMaintenance, ms_.topology().view,
                                      DataPlane::Pick(*lv, probed.damaged), meta, data->data,
                                      DataPlane::Fanout::kSerial, CountRepair());
}

sim::Task<> Scrubber::ScrubEcObject(ObMeta meta) {
  // Audit each stripe chunk against its recorded CRC32C, then rebuild any
  // damaged chunk from k verified survivors. Same detection rules as the
  // replica path: a checksum mismatch and an I/O error both count as damage.
  auto lv = ms_.topology().TargetsOf(meta.lvid, cluster::PvFilter::kRequireAll);
  if (!lv.has_value() || meta.ec_k == 0 || meta.chunk_crcs.size() != lv->targets.size()) {
    co_return;
  }
  const uint32_t k = meta.ec_k;
  const uint64_t shard_bytes = tier::ShardBytes(meta.size, k);
  const DataPlane::Probed probed = co_await data_.ProbeAll(
      *lv, meta.extents, meta.chunk_crcs, DataPlane::Fanout::kSerial, CountProbe());
  counters_.objects.Add();
  if (probed.damaged.empty()) {
    co_return;
  }
  if (probed.present.size() < k) {
    counters_.repair_failures.Add();  // beyond m losses; nothing to rebuild from
    co_return;
  }
  // Verified reads of k surviving chunks, then Reed-Solomon reconstruction.
  std::vector<std::optional<Bytes>> chunks(k + meta.ec_m);
  uint32_t have = 0;
  for (size_t j : probed.present) {
    if (have == k) {
      break;
    }
    auto r = co_await data_.Read(qos::TrafficClass::kMaintenance, lv->targets[j],
                                 lv->block_size, meta.extents, shard_bytes,
                                 meta.chunk_crcs[j]);
    if (r.ok() && r->content_valid) {
      chunks[j] = std::move(r->data);
      ++have;
    }
  }
  if (have < k) {
    counters_.repair_failures.Add();
    co_return;
  }
  Status rebuilt = co_await data_.RepairChunks(qos::TrafficClass::kMaintenance,
                                               ms_.topology().view, *lv, meta,
                                               std::move(chunks), probed.damaged, CountRepair());
  if (!rebuilt.ok()) {
    counters_.repair_failures.Add();
  }
}

DataPlane::ProbeObserver Scrubber::CountProbe() {
  return [this](const Result<DataProbeReply>& r) {
    if (!r.ok()) {
      counters_.probe_errors.Add();  // indeterminate; next scrub retries
    } else if (!r->present) {
      counters_.corrupt_found.Add();
    }
  };
}

DataPlane::WriteObserver Scrubber::CountRepair() {
  return [this](const DataPlane::Piece& piece, const Status& s) {
    if (s.ok()) {
      counters_.repairs.Add();
      counters_.bytes_repaired.Add(piece.data.size());
    } else {
      counters_.repair_failures.Add();
    }
  };
}

}  // namespace cheetah::core
