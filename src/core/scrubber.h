// Background integrity scrubber (§2.1 lists auditing among the flexible
// management that directory-based stores enable).
//
// The scrubber is a meta-server-resident actor that walks every PG this
// server is primary for, probes each healthy data replica's stored checksum
// against MetaX, and repairs divergent replicas by copying from a replica
// that still verifies. Because Cheetah aggregates all object metadata on the
// meta servers, the audit needs no data-server-side index to cross-check —
// a scan of the PG's key range names every extent that should exist.
//
// All scrub I/O rides the maintenance QoS class: probes go out as
// DataProbeRequest and the copy uses RepairRead/RepairWrite, so a scrub pass
// never contends with foreground puts/gets for scheduler credit.
#ifndef SRC_CORE_SCRUBBER_H_
#define SRC_CORE_SCRUBBER_H_

#include "src/cluster/messages.h"
#include "src/core/data_plane.h"
#include "src/core/metax.h"
#include "src/core/options.h"
#include "src/obs/metrics.h"
#include "src/rpc/node.h"

namespace cheetah::core {

class MetaServer;

class Scrubber {
 public:
  Scrubber(MetaServer& ms, rpc::Node& rpc, const CheetahOptions& options);

  // Periodic driver: sleeps options.scrub_interval between full passes.
  // Spawned by MetaServer::Init when scrubbing is enabled.
  sim::Task<> Loop();

  // One full audit of every ready PG this server is primary for.
  sim::Task<> ScrubAll();

  // Live registry counters ("scrub@<node>#<i>.*").
  struct Counters {
    obs::Scope scope;
    obs::Counter& objects = *scope.counter("objects");  // all replicas probed
    obs::Counter& corrupt_found = *scope.counter("corrupt_found");  // replicas failing probe
    obs::Counter& repairs = *scope.counter("repairs");  // divergent replicas rewritten
    obs::Counter& repair_failures = *scope.counter("repair_failures");  // retried next pass
    obs::Counter& probe_errors = *scope.counter("probe_errors");  // RPC-level failure
    obs::Counter& bytes_repaired = *scope.counter("bytes_repaired");
  };
  const Counters& stats() const { return counters_; }

 private:
  sim::Task<> ScrubObject(ObMeta meta);
  // EC objects: probe every stripe chunk against its recorded CRC; rebuild
  // damaged chunks from any k survivors (src/tier degraded-repair path).
  sim::Task<> ScrubEcObject(ObMeta meta);
  // Count each probe's and each repair write's outcome as it arrives.
  DataPlane::ProbeObserver CountProbe();
  DataPlane::WriteObserver CountRepair();

  MetaServer& ms_;
  const CheetahOptions& options_;
  DataPlane data_;

  Counters counters_;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_SCRUBBER_H_
