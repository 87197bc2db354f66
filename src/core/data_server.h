// Cheetah data server: the ultralight raw data service (§3.1, §4.3.3).
//
// Data servers are object-agnostic: they write and read raw blocks at the
// extents the request names, with no file abstraction and no local metadata
// beyond what the device itself keeps. A delete never touches a data server
// (the meta server just clears allocator bits); space reuse is immediate.
//
// The server also participates in recovery: it answers checksum probes from
// meta servers (§4.3.2/§5.3) and rebuilds replacement physical volumes by
// pulling a healthy replica's contents (§5.3 "restored in parallel").
//
// Cheetah-FS (Fig. 10): when fs_backed_data is set, every data operation
// pays an extra filesystem-metadata write, modeling XFS-style file-backed
// volumes instead of raw block access.
#ifndef SRC_CORE_DATA_SERVER_H_
#define SRC_CORE_DATA_SERVER_H_

#include <memory>
#include <string>

#include "src/cluster/messages.h"
#include "src/core/messages.h"
#include "src/core/options.h"
#include "src/obs/metrics.h"
#include "src/rpc/node.h"

namespace cheetah::core {

class DataServer {
 public:
  DataServer(rpc::Node& rpc, CheetahOptions options,
             std::vector<sim::NodeId> manager_nodes);

  // Registers RPC handlers and starts the heartbeat loop.
  void Start();

  // Live registry counters ("data@<node>#<i>.*").
  struct Counters {
    obs::Scope scope;
    obs::Counter& writes = *scope.counter("writes");
    obs::Counter& reads = *scope.counter("reads");
    obs::Counter& probes = *scope.counter("probes");
    obs::Counter& bytes_written = *scope.counter("bytes_written");
    obs::Counter& bytes_read = *scope.counter("bytes_read");
    obs::Counter& volumes_recovered = *scope.counter("volumes_recovered");
    obs::Counter& recovery_bytes = *scope.counter("recovery_bytes");
    obs::Counter& verify_failures = *scope.counter("verify_failures");  // refused as corrupt
  };
  const Counters& stats() const { return counters_; }

 private:
  sim::Storage& DiskFor(uint32_t disk_index) {
    return rpc_.machine().disk(disk_index % rpc_.machine().num_disks());
  }
  // Cheetah-FS charges one extra metadata write per data op (journal +
  // inode update, roughly 4 KiB).
  static constexpr uint64_t kFsOverheadBytes = 4096;
  sim::Task<> ChargeFsOverhead(uint32_t disk_index);

  sim::Task<Result<DataWriteReply>> HandleWrite(sim::NodeId src, DataWriteRequest req);
  sim::Task<Result<DataReadReply>> HandleRead(sim::NodeId src, DataReadRequest req);
  sim::Task<Result<DataProbeReply>> HandleProbe(sim::NodeId src, DataProbeRequest req);
  sim::Task<Result<DataDiscardReply>> HandleDiscard(sim::NodeId src, DataDiscardRequest req);
  sim::Task<Result<VolumePullReply>> HandlePull(sim::NodeId src, VolumePullRequest req);
  sim::Task<Result<cluster::RecoverVolumeReply>> HandleRecover(
      sim::NodeId src, cluster::RecoverVolumeRequest req);
  sim::Task<> HeartbeatLoop();

  rpc::Node& rpc_;
  CheetahOptions options_;
  std::vector<sim::NodeId> manager_nodes_;
  Counters counters_;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_DATA_SERVER_H_
