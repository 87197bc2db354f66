// The one client of the data plane: how a replica (or EC chunk) request is
// formed, sent and fanned out (DESIGN.md "Data plane client"). A call takes
// the view, the extents and the targets copied out of the topology by value,
// so it never reads the caller's map after its first co_await. Reads,
// writes and repairs name their QoS class: kForeground sends
// DataRead/DataWrite, kMaintenance RepairRead/RepairWrite. Probes and
// discards have one (maintenance-class) type each. The calls are
// coroutines: never pass them a braced LvTargets or Piece temporary (the
// GCC 12 caution in src/sim/task.h).
#ifndef SRC_CORE_DATA_PLANE_H_
#define SRC_CORE_DATA_PLANE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/core/messages.h"
#include "src/core/metax.h"
#include "src/qos/qos.h"
#include "src/rpc/node.h"

namespace cheetah::core {

class DataPlane {
 public:
  explicit DataPlane(rpc::Node& rpc) : rpc_(rpc) {}

  // All targets at once (sim::WhenAll), one at a time, or one at a time up
  // to the first target that fails.
  enum class Fanout : uint8_t { kParallel, kSerial, kSerialUntilFailure };

  // What one target of a write stores, under which checksum.
  struct Piece {
    cluster::ReplicaTarget target;
    Bytes data;
    uint32_t checksum = 0;
  };
  // The same bytes for every target of `lv`.
  static std::vector<Piece> Replicas(const cluster::LvTargets& lv, const Bytes& data,
                                     uint32_t checksum);
  // lv's targets at the indices `which`.
  static cluster::LvTargets Pick(const cluster::LvTargets& lv, const std::vector<size_t>& which);

  // See each target's outcome the moment its reply (or timeout) arrives.
  using WriteObserver = std::function<void(const Piece&, const Status&)>;
  using ProbeObserver = std::function<void(const Result<DataProbeReply>&)>;

  struct Probed {
    std::vector<size_t> present;  // stored checksum matched
    std::vector<size_t> damaged;  // answered: missing or mismatched
  };
  // Probes lv.targets[j] against expected[j], one target at a time.
  sim::Task<Probed> ProbeAll(cluster::LvTargets lv, std::vector<alloc::Extent> extents,
                             std::vector<uint32_t> expected, Fanout fanout,
                             ProbeObserver observe = {});

  // A verified read answers kCorruption unless the replica matches
  // `verify`: the server checks every extent's stored checksum (and, holding
  // the bytes, their CRC), the reader the length and the checksum.
  sim::Task<Result<DataReadReply>> Read(qos::TrafficClass cls, cluster::ReplicaTarget t,
                                        uint32_t block_size,
                                        std::vector<alloc::Extent> extents, uint64_t length,
                                        std::optional<uint32_t> verify);

  // Returns the first failure in piece order, or OK.
  sim::Task<Status> Write(qos::TrafficClass cls, uint64_t view, uint32_t block_size,
                          std::vector<alloc::Extent> extents, std::vector<Piece> pieces,
                          Fanout fanout, WriteObserver observe = {});

  // Fire-and-forget; sends before returning, so it may read `topo`.
  void Discard(const cluster::TopologyMap& topo, cluster::LvId lv,
               const std::vector<alloc::Extent>& extents);

  // Copies `good`, the object's verified bytes, over the `damaged` targets.
  sim::Task<Status> RepairReplicas(qos::TrafficClass cls, uint64_t view,
                                   cluster::LvTargets damaged, ObMeta meta, Bytes good,
                                   Fanout fanout, WriteObserver observe = {});

  // Rebuilds the stripe from any meta.ec_k survivors in `chunks`, then
  // writes each `damaged` chunk, one at a time, if its rebuilt bytes match
  // meta.chunk_crcs; a mismatch is never written, only observed as
  // kCorruption. Fails, writing nothing, if the stripe cannot be rebuilt.
  sim::Task<Status> RepairChunks(qos::TrafficClass cls, uint64_t view,
                                 cluster::LvTargets stripe, ObMeta meta,
                                 std::vector<std::optional<Bytes>> chunks,
                                 std::vector<size_t> damaged, WriteObserver observe = {});

 private:
  sim::Task<Status> WriteOne(qos::TrafficClass cls, uint64_t view, uint32_t block_size,
                             std::vector<alloc::Extent> extents, Piece piece,
                             const WriteObserver& observe);

  rpc::Node& rpc_;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_DATA_PLANE_H_
