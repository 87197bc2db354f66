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
  if (ms_.db_ == nullptr || ms_.topo_.view == 0) {
    co_return;
  }
  for (cluster::PgId pg = 0; pg < ms_.topo_.pg_count; ++pg) {
    // PGs mid-migration are skipped outright: a scrub repair racing the
    // cutover could write through topology targets the next view retires.
    if (ms_.IsPrimary(pg) && ms_.ready_pgs_.contains(pg) &&
        ms_.topo_.MigrationOf(pg) == nullptr) {
      co_await ScrubPg(pg);
    }
  }
}

sim::Task<> Scrubber::ScrubPg(cluster::PgId pg) {
  // Audit: for every settled object of the PG, probe each data replica's
  // stored checksum against MetaX; repair divergent replicas from a healthy
  // one. A replica counts as damaged whether the probe sees a checksum
  // mismatch (bit rot, torn write) or an I/O error (latent sector error) —
  // the repair write remaps either way.
  const uint64_t scrub_view = ms_.topo_.view;
  auto rows = co_await ms_.db_->Scan(ObMetaPrefix(pg), 0);
  if (!rows.ok()) {
    co_return;
  }
  for (const auto& [key, value] : *rows) {
    if (ms_.topo_.view != scrub_view || !ms_.IsPrimary(pg) ||
        ms_.topo_.MigrationOf(pg) != nullptr) {
      co_return;  // superseded by a view change or an in-flight migration
    }
    cluster::PgId key_pg = 0;
    std::string name;
    if (!ParseObMetaKey(key, &key_pg, &name) || ms_.pending_names_.contains(name)) {
      continue;  // unresolved puts are the cleaner's job
    }
    auto meta = ObMeta::Decode(value);
    if (!meta.ok()) {
      continue;
    }
    if (meta->storage_class == StorageClass::kInline) {
      // The payload lives in MetaX itself; the KV layer's own block CRCs and
      // WAL recovery audit it. Nothing on the data plane to probe.
      counters_.objects.Add();
      continue;
    }
    if (meta->storage_class == StorageClass::kEc) {
      co_await ScrubEcObject(std::move(*meta));
      continue;
    }
    // Copy every topology-derived target before the first co_await: a
    // topology push reassigns topo_ mid-suspension, freeing the LogicalVolume
    // and PhysicalVolume records any held pointer would dangle into.
    struct Target {
      std::string device;
      uint32_t disk_index = 0;
      sim::NodeId node = sim::kInvalidNode;
    };
    std::vector<Target> replicas;
    uint32_t block_size = 4096;
    {
      const cluster::LogicalVolume* lv = ms_.topo_.FindLv(meta->lvid);
      if (lv == nullptr) {
        continue;
      }
      block_size = lv->block_size;
      for (cluster::PvId pv_id : lv->replicas) {
        const cluster::PhysicalVolume* pv = ms_.topo_.FindPv(pv_id);
        if (pv == nullptr || !pv->healthy) {
          continue;
        }
        replicas.push_back(Target{pv->DeviceName(), pv->disk_index, pv->data_server});
      }
    }
    const Target* good = nullptr;
    std::vector<const Target*> bad;
    for (const Target& pv : replicas) {
      DataProbeRequest probe;
      probe.device = pv.device;
      probe.disk_index = pv.disk_index;
      probe.block_size = block_size;
      probe.extents = meta->extents;
      probe.expected_checksum = meta->checksum;
      auto r = co_await rpc_.Call(pv.node, std::move(probe),
                                  options_.rpc_timeout);
      if (!r.ok()) {
        counters_.probe_errors.Add();
        continue;  // indeterminate; next scrub retries
      }
      if (r->present) {
        good = &pv;
      } else {
        counters_.corrupt_found.Add();
        bad.push_back(&pv);
      }
    }
    counters_.objects.Add();
    if (bad.empty() || good == nullptr) {
      continue;
    }
    // Repair: copy the healthy replica over the divergent ones. The source
    // read is verified against MetaX so a race (probe passed, then the
    // source rotted) can never propagate a damaged payload.
    RepairReadRequest read;
    read.device = good->device;
    read.disk_index = good->disk_index;
    read.block_size = block_size;
    read.extents = meta->extents;
    read.length = meta->size;
    read.verify = true;
    read.expected_checksum = meta->checksum;
    auto data = co_await rpc_.Call(good->node, std::move(read),
                                   options_.rpc_timeout);
    if (!data.ok()) {
      counters_.repair_failures.Add();
      continue;
    }
    for (const Target* pv : bad) {
      RepairWriteRequest write;
      write.view = ms_.topo_.view;
      write.device = pv->device;
      write.disk_index = pv->disk_index;
      write.block_size = block_size;
      write.extents = meta->extents;
      write.data = data->data;
      write.checksum = meta->checksum;
      const uint64_t repaired_bytes = write.data.size();
      auto w = co_await rpc_.Call(pv->node, std::move(write),
                                  options_.rpc_timeout);
      if (w.ok()) {
        counters_.repairs.Add();
        counters_.bytes_repaired.Add(repaired_bytes);
      } else {
        counters_.repair_failures.Add();
      }
    }
  }
}

sim::Task<> Scrubber::ScrubEcObject(ObMeta meta) {
  // Audit each stripe chunk against its recorded CRC32C, then rebuild any
  // damaged chunk from k verified survivors. Same detection rules as the
  // replica path: a checksum mismatch and an I/O error both count as damage.
  struct Target {
    std::string device;
    uint32_t disk_index = 0;
    sim::NodeId node = sim::kInvalidNode;
  };
  std::vector<Target> targets;
  uint32_t block_size = 4096;
  {
    const cluster::LogicalVolume* lv = ms_.topo_.FindLv(meta.lvid);
    if (lv == nullptr || meta.ec_k == 0 ||
        meta.chunk_crcs.size() != lv->replicas.size()) {
      co_return;
    }
    block_size = lv->block_size;
    for (cluster::PvId pv_id : lv->replicas) {
      const cluster::PhysicalVolume* pv = ms_.topo_.FindPv(pv_id);
      if (pv == nullptr) {
        co_return;
      }
      targets.push_back(Target{pv->DeviceName(), pv->disk_index, pv->data_server});
    }
  }
  const uint32_t k = meta.ec_k;
  const uint32_t total = k + meta.ec_m;
  const uint64_t shard_bytes = (meta.size + k - 1) / k;
  std::vector<size_t> good;
  std::vector<size_t> bad;
  for (size_t j = 0; j < targets.size(); ++j) {
    DataProbeRequest probe;
    probe.device = targets[j].device;
    probe.disk_index = targets[j].disk_index;
    probe.block_size = block_size;
    probe.extents = meta.extents;
    probe.expected_checksum = meta.chunk_crcs[j];
    auto r = co_await rpc_.Call(targets[j].node, std::move(probe), options_.rpc_timeout);
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
    write.view = ms_.topo_.view;
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

}  // namespace cheetah::core
