#include "src/core/scrubber.h"

#include <string>
#include <utility>

#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/core/meta_server.h"
#include "src/core/messages.h"
#include "src/core/metax.h"
#include "src/sim/sync.h"
#include "src/tier/striper.h"

namespace cheetah::core {

Scrubber::Scrubber(MetaServer& ms, rpc::Node& rpc, const CheetahOptions& options)
    : ms_(ms),
      rpc_(rpc),
      options_(options),
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
  auto [good, bad] = co_await Probe(
      *lv, meta.extents, std::vector<uint32_t>(lv->targets.size(), meta.checksum));
  if (bad.empty() || good.empty()) {
    co_return;
  }
  // Repair: copy the healthy replica over the divergent ones. The source
  // read is verified against MetaX so a race (probe passed, then the
  // source rotted) can never propagate a damaged payload.
  const cluster::ReplicaTarget& source = lv->targets[good.back()];
  RepairReadRequest read;
  read.device = source.device;
  read.disk_index = source.disk_index;
  read.block_size = lv->block_size;
  read.extents = meta.extents;
  read.length = meta.size;
  read.verify = true;
  read.expected_checksum = meta.checksum;
  auto data = co_await rpc_.Call(source.node, std::move(read), options_.rpc_timeout);
  if (!data.ok()) {
    counters_.repair_failures.Add();
    co_return;
  }
  for (size_t j : bad) {
    const cluster::ReplicaTarget& pv = lv->targets[j];
    RepairWriteRequest write;
    write.view = ms_.topology().view;
    write.device = pv.device;
    write.disk_index = pv.disk_index;
    write.block_size = lv->block_size;
    write.extents = meta.extents;
    write.data = data->data;
    write.checksum = meta.checksum;
    const uint64_t repaired_bytes = write.data.size();
    auto w = co_await rpc_.Call(pv.node, std::move(write), options_.rpc_timeout);
    if (w.ok()) {
      counters_.repairs.Add();
      counters_.bytes_repaired.Add(repaired_bytes);
    } else {
      counters_.repair_failures.Add();
    }
  }
}

sim::Task<> Scrubber::ScrubEcObject(ObMeta meta) {
  // Audit each stripe chunk against its recorded CRC32C, then rebuild any
  // damaged chunk from k verified survivors. Same detection rules as the
  // replica path: a checksum mismatch and an I/O error both count as damage.
  auto lv = ms_.topology().TargetsOf(meta.lvid, cluster::PvFilter::kRequireAll);
  if (!lv.has_value() || meta.ec_k == 0 || meta.chunk_crcs.size() != lv->targets.size()) {
    co_return;
  }
  const std::vector<cluster::ReplicaTarget>& targets = lv->targets;
  const uint32_t block_size = lv->block_size;
  const uint32_t k = meta.ec_k;
  const uint32_t total = k + meta.ec_m;
  const uint64_t shard_bytes = (meta.size + k - 1) / k;
  auto [good, bad] = co_await Probe(*lv, meta.extents, meta.chunk_crcs);
  if (bad.empty()) {
    co_return;
  }
  if (good.size() < k) {
    counters_.repair_failures.Add();  // beyond m losses; nothing to rebuild from
    co_return;
  }
  // Verified reads of k surviving chunks, then Reed-Solomon reconstruction.
  std::vector<std::optional<Bytes>> chunks(total);
  uint32_t have = 0;
  for (size_t j : good) {
    if (have == k) {
      break;
    }
    RepairReadRequest read;
    read.device = targets[j].device;
    read.disk_index = targets[j].disk_index;
    read.block_size = block_size;
    read.extents = meta.extents;
    read.length = shard_bytes;
    read.verify = true;
    read.expected_checksum = meta.chunk_crcs[j];
    auto r = co_await rpc_.Call(targets[j].node, std::move(read), options_.rpc_timeout);
    if (r.ok() && r->content_valid) {
      chunks[j] = std::move(r->data);
      ++have;
    }
  }
  if (have < k) {
    counters_.repair_failures.Add();
    co_return;
  }
  auto rebuilt = tier::ReconstructChunks(chunks, k, meta.ec_m);
  if (!rebuilt.ok()) {
    counters_.repair_failures.Add();
    co_return;
  }
  for (size_t j : bad) {
    // Only write back a chunk whose rebuilt bytes match the recorded CRC — a
    // reconstruction from a racing state must never overwrite with garbage.
    if (Crc32c((*rebuilt)[j]) != meta.chunk_crcs[j]) {
      counters_.repair_failures.Add();
      continue;
    }
    RepairWriteRequest write;
    write.view = ms_.topology().view;
    write.device = targets[j].device;
    write.disk_index = targets[j].disk_index;
    write.block_size = block_size;
    write.extents = meta.extents;
    write.data = Bytes(std::move((*rebuilt)[j]));
    write.checksum = meta.chunk_crcs[j];
    const uint64_t repaired_bytes = write.data.size();
    auto w = co_await rpc_.Call(targets[j].node, std::move(write), options_.rpc_timeout);
    if (w.ok()) {
      counters_.repairs.Add();
      counters_.bytes_repaired.Add(repaired_bytes);
    } else {
      counters_.repair_failures.Add();
    }
  }
}

sim::Task<std::pair<std::vector<size_t>, std::vector<size_t>>> Scrubber::Probe(
    const cluster::LvTargets& lv, const std::vector<alloc::Extent>& extents,
    std::vector<uint32_t> expected) {
  std::vector<size_t> good;
  std::vector<size_t> bad;
  for (size_t j = 0; j < lv.targets.size(); ++j) {
    DataProbeRequest probe;
    probe.device = lv.targets[j].device;
    probe.disk_index = lv.targets[j].disk_index;
    probe.block_size = lv.block_size;
    probe.extents = extents;
    probe.expected_checksum = expected[j];
    auto r = co_await rpc_.Call(lv.targets[j].node, std::move(probe), options_.rpc_timeout);
    if (!r.ok()) {
      counters_.probe_errors.Add();
      continue;  // indeterminate; next scrub retries
    }
    if (r->present) {
      good.push_back(j);
    } else {
      counters_.corrupt_found.Add();
      bad.push_back(j);
    }
  }
  counters_.objects.Add();
  co_return std::make_pair(std::move(good), std::move(bad));
}

}  // namespace cheetah::core
