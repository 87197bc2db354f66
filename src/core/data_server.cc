#include "src/core/data_server.h"

#include <algorithm>

#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/qos/qos.h"
#include "src/sim/actor.h"

namespace cheetah::core {

DataServer::DataServer(rpc::Node& rpc, CheetahOptions options,
                       std::vector<sim::NodeId> manager_nodes)
    : rpc_(rpc),
      options_(std::move(options)),
      manager_nodes_(std::move(manager_nodes)),
      counters_{obs::Scope("data@" + std::to_string(rpc.id()))} {}

void DataServer::Start() {
  rpc_.Serve<DataWriteRequest, &DataServer::HandleWrite>(this, qos::TrafficClass::kForeground);
  rpc_.Serve<DataReadRequest, &DataServer::HandleRead>(this, qos::TrafficClass::kForeground);
  // Repair traffic shares the read/write handlers (the derived request
  // slices to its base) but rides the maintenance class, so scrub and
  // read-repair I/O never contends with foreground puts/gets for credit.
  rpc_.Serve<RepairReadRequest, &DataServer::HandleRead>(this, qos::TrafficClass::kMaintenance);
  rpc_.Serve<RepairWriteRequest, &DataServer::HandleWrite>(this, qos::TrafficClass::kMaintenance);
  rpc_.Serve<DataProbeRequest, &DataServer::HandleProbe>(this, qos::TrafficClass::kMaintenance);
  rpc_.Serve<DataDiscardRequest, &DataServer::HandleDiscard>(this, qos::TrafficClass::kMaintenance);
  rpc_.Serve<VolumePullRequest, &DataServer::HandlePull>(this, qos::TrafficClass::kBackground);
  rpc_.Serve<cluster::RecoverVolumeRequest, &DataServer::HandleRecover>(
      this, qos::TrafficClass::kBackground);
  rpc_.machine().actor().Spawn(HeartbeatLoop());
}

sim::Task<> DataServer::ChargeFsOverhead(uint32_t disk_index) {
  if (options_.fs_backed_data) {
    // One extra metadata write (journal/inode) per file-backed data op.
    co_await DiskFor(disk_index).ChargeWrite(kFsOverheadBytes);
  }
}

sim::Task<Result<DataWriteReply>> DataServer::HandleWrite(sim::NodeId src,
                                                          DataWriteRequest req) {
  if (req.data.size() > ExtentBytes(req.extents, req.block_size)) {
    co_return Status::InvalidArgument("payload of " + std::to_string(req.data.size()) +
                                      " bytes overflows its extents on " + req.device);
  }
  sim::Storage& disk = DiskFor(req.disk_index);
  co_await ChargeFsOverhead(req.disk_index);
  // Split the object payload across the extents in order; each slice shares
  // the request's buffer. Each stored extent carries the whole-object
  // checksum so probes and metadata-only reads can report it without
  // reassembling the payload.
  uint64_t consumed = 0;
  for (const auto& e : req.extents) {
    const uint64_t extent_bytes = e.count * req.block_size;
    const uint64_t take = std::min<uint64_t>(extent_bytes, req.data.size() - consumed);
    Bytes slice = req.data.Slice(consumed, take);
    consumed += take;
    Status s = co_await disk.WriteBlocks(req.device, e.block * req.block_size,
                                         std::move(slice), req.checksum);
    if (!s.ok()) {
      co_return s;
    }
  }
  counters_.writes.Add();
  counters_.bytes_written.Add(req.data.size());
  DataWriteReply reply;
  reply.checksum = req.checksum;
  co_return reply;
}

sim::Task<Result<DataReadReply>> DataServer::HandleRead(sim::NodeId src,
                                                        DataReadRequest req) {
  if (req.length > ExtentBytes(req.extents, req.block_size)) {
    co_return Status::InvalidArgument("read of " + std::to_string(req.length) +
                                      " bytes overruns its extents on " + req.device);
  }
  sim::Storage& disk = DiskFor(req.disk_index);
  co_await ChargeFsOverhead(req.disk_index);
  DataReadReply reply;
  reply.content_valid = disk.store_volume_content();
  // A single-extent object is answered with the stored extent's own handle;
  // only an object split over several extents is joined into a new buffer.
  std::string joined;
  uint64_t remaining = req.length;
  for (const auto& e : req.extents) {
    const uint64_t offset = e.block * req.block_size;
    const uint64_t extent_bytes = e.count * req.block_size;
    const uint64_t want = std::min<uint64_t>(extent_bytes, remaining);
    auto data = co_await disk.ReadBlocks(req.device, offset, want);
    if (!data.ok()) {
      co_return data.status();
    }
    // All extents of an object store the same whole-object checksum.
    auto crc = disk.PeekChecksum(req.device, offset);
    if (crc) {
      reply.checksum = *crc;
    }
    // Verified read: reject per extent, before any damaged byte is framed
    // into a reply.
    if (req.verify && (!crc || *crc != req.expected_checksum)) {
      counters_.verify_failures.Add();
      co_return Status::Corruption("extent checksum mismatch at " + req.device +
                                   "+" + std::to_string(offset));
    }
    if (req.extents.size() == 1) {
      reply.data = std::move(*data);
    } else {
      joined.append(data->view());
    }
    remaining -= want;
  }
  if (req.extents.size() > 1) {
    reply.data = Bytes(std::move(joined));
  }
  if (req.verify && reply.content_valid &&
      Crc32c(reply.data.view()) != req.expected_checksum) {
    // Belt and suspenders for full-content mode: the payload itself rotted
    // while the stored checksum stayed intact.
    counters_.verify_failures.Add();
    co_return Status::Corruption("payload checksum mismatch on " + req.device);
  }
  counters_.reads.Add();
  counters_.bytes_read.Add(reply.data.size());
  co_return reply;
}

sim::Task<Result<DataProbeReply>> DataServer::HandleProbe(sim::NodeId src,
                                                          DataProbeRequest req) {
  sim::Storage& disk = DiskFor(req.disk_index);
  DataProbeReply reply;
  reply.present = true;
  for (const auto& e : req.extents) {
    auto crc = co_await disk.ProbeChecksum(req.device, e.block * req.block_size);
    if (!crc.ok() || *crc != req.expected_checksum) {
      reply.present = false;
      reply.checksum = crc.ok() ? *crc : 0;
      counters_.probes.Add();
      co_return reply;
    }
    reply.checksum = *crc;
  }
  counters_.probes.Add();
  co_return reply;
}

sim::Task<Result<DataDiscardReply>> DataServer::HandleDiscard(sim::NodeId src,
                                                              DataDiscardRequest req) {
  sim::Storage& disk = DiskFor(req.disk_index);
  for (const auto& e : req.extents) {
    disk.DiscardBlocks(req.device, e.block * req.block_size);
  }
  co_return DataDiscardReply{};
}

sim::Task<Result<VolumePullReply>> DataServer::HandlePull(sim::NodeId src,
                                                          VolumePullRequest req) {
  sim::Storage& disk = DiskFor(req.disk_index);
  VolumePullReply reply;
  for (const auto& info : disk.ListVolumeExtents(req.device)) {
    auto data = co_await disk.ReadBlocks(req.device, info.offset, info.length);
    if (!data.ok()) {
      co_return data.status();
    }
    VolumePullReply::ExtentData extent;
    extent.offset = info.offset;
    extent.data = std::move(*data);
    extent.checksum = info.checksum;
    reply.total_bytes += info.length;
    reply.extents.push_back(std::move(extent));
  }
  co_return reply;
}

sim::Task<Result<cluster::RecoverVolumeReply>> DataServer::HandleRecover(
    sim::NodeId src, cluster::RecoverVolumeRequest req) {
  // Pull the healthy replica's contents and materialize the replacement PV.
  cluster::PhysicalVolume source;
  source.id = req.source_pv;
  VolumePullRequest pull;
  pull.device = source.DeviceName();
  pull.disk_index = req.source_disk;
  auto pulled = co_await rpc_.Call(req.source_server, std::move(pull),
                                   Seconds(60));
  if (!pulled.ok()) {
    co_return pulled.status();
  }
  cluster::PhysicalVolume target;
  target.id = req.target_pv;
  sim::Storage& disk = DiskFor(req.target_disk);
  uint64_t copied = 0;
  for (auto& extent : pulled->extents) {
    const uint64_t len = std::max<uint64_t>(extent.data.size(), 1);
    copied += len;
    Status s = co_await disk.WriteBlocks(target.DeviceName(), extent.offset,
                                         std::move(extent.data), extent.checksum);
    if (!s.ok()) {
      co_return s;
    }
  }
  counters_.volumes_recovered.Add();
  counters_.recovery_bytes.Add(copied);
  // Tell the manager the volume is whole again.
  for (sim::NodeId mgr : manager_nodes_) {
    cluster::RecoveryDoneRequest done;
    done.lv = req.lv;
    done.target_pv = req.target_pv;
    done.bytes_copied = copied;
    rpc_.Notify(mgr, std::move(done));
  }
  cluster::RecoverVolumeReply reply;
  reply.bytes_copied = copied;
  co_return reply;
}

sim::Task<> DataServer::HeartbeatLoop() {
  for (;;) {
    for (sim::NodeId mgr : manager_nodes_) {
      cluster::HeartbeatRequest hb;
      hb.node = rpc_.id();
      hb.kind = cluster::ServerKind::kDataServer;
      auto r = co_await rpc_.Call(mgr, std::move(hb), kRpcTimeout);
      if (r.ok() && r->is_leader) {
        break;
      }
    }
    co_await sim::SleepFor(kHeartbeatInterval);
  }
}

}  // namespace cheetah::core
