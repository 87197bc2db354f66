#include "src/core/data_plane.h"

#include <utility>

#include "src/common/crc32c.h"
#include "src/sim/sync.h"
#include "src/tier/striper.h"

namespace cheetah::core {

namespace {

template <typename Req>
Req Addressed(const cluster::ReplicaTarget& t, uint32_t block_size,
              std::vector<alloc::Extent> extents) {
  Req req;
  req.device = t.device;
  req.disk_index = t.disk_index;
  req.block_size = block_size;
  req.extents = std::move(extents);
  return req;
}

// Sends `req` as is (foreground), or as its wire-identical Repair* twin. A
// plain function, so the call adds no coroutine frame of its own.
template <typename Repair, typename Req>
sim::Task<Result<typename Req::Response>> Send(rpc::Node& rpc, qos::TrafficClass cls,
                                               sim::NodeId node, Req req) {
  if (cls == qos::TrafficClass::kMaintenance) {
    Repair repair;
    static_cast<Req&>(repair) = std::move(req);
    return rpc.Call(node, std::move(repair), kRpcTimeout);
  }
  return rpc.Call(node, std::move(req), kRpcTimeout);
}

}  // namespace

std::vector<DataPlane::Piece> DataPlane::Replicas(const cluster::LvTargets& lv,
                                                  const Bytes& data, uint32_t checksum) {
  std::vector<Piece> pieces;
  for (const cluster::ReplicaTarget& t : lv.targets) {
    pieces.emplace_back(t, data, checksum);
  }
  return pieces;
}

cluster::LvTargets DataPlane::Pick(const cluster::LvTargets& lv,
                                   const std::vector<size_t>& which) {
  cluster::LvTargets picked;
  picked.block_size = lv.block_size;
  for (size_t j : which) {
    picked.targets.push_back(lv.targets[j]);
  }
  return picked;
}

sim::Task<DataPlane::Probed> DataPlane::ProbeAll(cluster::LvTargets lv,
                                                 std::vector<alloc::Extent> extents,
                                                 std::vector<uint32_t> expected, Fanout fanout,
                                                 ProbeObserver observe) {
  Probed probed;
  for (size_t j = 0; j < lv.targets.size(); ++j) {
    DataProbeRequest probe = Addressed<DataProbeRequest>(lv.targets[j], lv.block_size, extents);
    probe.expected_checksum = expected[j];
    auto r = co_await rpc_.Call(lv.targets[j].node, std::move(probe), kRpcTimeout);
    if (observe) {
      observe(r);
    }
    if (r.ok()) {
      (r->present ? probed.present : probed.damaged).push_back(j);
    }
    if (fanout == Fanout::kSerialUntilFailure && !(r.ok() && r->present)) {
      break;
    }
  }
  co_return probed;
}

sim::Task<Result<DataReadReply>> DataPlane::Read(qos::TrafficClass cls,
                                                 cluster::ReplicaTarget t, uint32_t block_size,
                                                 std::vector<alloc::Extent> extents,
                                                 uint64_t length,
                                                 std::optional<uint32_t> verify) {
  DataReadRequest read = Addressed<DataReadRequest>(t, block_size, std::move(extents));
  read.length = length;
  read.verify = verify.has_value();
  read.expected_checksum = verify.value_or(0);
  auto r = co_await Send<RepairReadRequest>(rpc_, cls, t.node, std::move(read));
  if (r.ok() && verify.has_value()) {
    // A reply of the wrong length is damaged even when its checksum looks
    // right: in metadata-only mode the checksum is the one the device
    // reports, not one computed over the bytes.
    const uint32_t crc = r->content_valid ? Crc32c(r->data.view()) : r->checksum;
    if (r->data.size() != length || crc != *verify || r->checksum != *verify) {
      co_return Status::Corruption("replica failed verification at the reader");
    }
  }
  co_return std::move(r);
}

sim::Task<Status> DataPlane::WriteOne(qos::TrafficClass cls, uint64_t view,
                                      uint32_t block_size, std::vector<alloc::Extent> extents,
                                      Piece piece, const WriteObserver& observe) {
  DataWriteRequest write = Addressed<DataWriteRequest>(piece.target, block_size,
                                                       std::move(extents));
  write.view = view;
  write.data = piece.data;
  write.checksum = piece.checksum;
  auto w = co_await Send<RepairWriteRequest>(rpc_, cls, piece.target.node, std::move(write));
  if (observe) {
    observe(piece, w.status());
  }
  co_return w.status();
}

sim::Task<Status> DataPlane::Write(qos::TrafficClass cls, uint64_t view, uint32_t block_size,
                                   std::vector<alloc::Extent> extents,
                                   std::vector<Piece> pieces, Fanout fanout,
                                   WriteObserver observe) {
  if (fanout == Fanout::kParallel) {
    std::vector<sim::Task<Status>> tasks;
    for (const Piece& piece : pieces) {
      tasks.push_back(WriteOne(cls, view, block_size, extents, piece, observe));
    }
    co_return co_await sim::WhenAllOk(std::move(tasks));
  }
  Status first;
  for (const Piece& piece : pieces) {
    Status s = co_await WriteOne(cls, view, block_size, extents, piece, observe);
    if (!s.ok() && first.ok()) {
      first = std::move(s);
      if (fanout == Fanout::kSerialUntilFailure) {
        break;
      }
    }
  }
  co_return first;
}

void DataPlane::Discard(const cluster::TopologyMap& topo, cluster::LvId lv_id,
                        const std::vector<alloc::Extent>& extents) {
  auto lv = topo.TargetsOf(lv_id, cluster::PvFilter::kSkipMissing);
  if (!lv.has_value()) {
    return;
  }
  for (const cluster::ReplicaTarget& t : lv->targets) {
    rpc_.Notify(t.node, Addressed<DataDiscardRequest>(t, lv->block_size, extents));
  }
}

sim::Task<Status> DataPlane::RepairReplicas(qos::TrafficClass cls, uint64_t view,
                                            cluster::LvTargets damaged, ObMeta meta,
                                            Bytes good, Fanout fanout,
                                            WriteObserver observe) {
  co_return co_await Write(cls, view, damaged.block_size, std::move(meta.extents),
                           Replicas(damaged, good, meta.checksum), fanout, std::move(observe));
}

sim::Task<Status> DataPlane::RepairChunks(qos::TrafficClass cls, uint64_t view,
                                          cluster::LvTargets stripe, ObMeta meta,
                                          std::vector<std::optional<Bytes>> chunks,
                                          std::vector<size_t> damaged,
                                          WriteObserver observe) {
  auto rebuilt = tier::ReconstructChunks(chunks, meta.ec_k, meta.ec_m);
  if (!rebuilt.ok()) {
    co_return rebuilt.status();
  }
  for (size_t j : damaged) {
    Piece piece(stripe.targets[j], Bytes(std::move((*rebuilt)[j])), meta.chunk_crcs[j]);
    // A reconstruction from a racing state (survivors read across a demotion
    // swap, say) must never overwrite a chunk with garbage.
    if (Crc32c(piece.data.view()) != piece.checksum) {
      if (observe) {
        observe(piece, Status::Corruption("rebuilt chunk does not match its recorded CRC"));
      }
      continue;
    }
    (void)co_await WriteOne(cls, view, stripe.block_size, meta.extents, std::move(piece),
                            observe);
  }
  co_return Status::Ok();
}

}  // namespace cheetah::core
