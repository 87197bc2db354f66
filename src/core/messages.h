// Data-plane RPC messages: proxy <-> meta server, proxy <-> data server,
// meta <-> meta (replication / PG transfer), meta <-> data (probes), and
// data <-> data (volume recovery pulls).
//
// Every message is a non-aggregate (defaulted constructor): see the GCC 12
// caution in src/sim/task.h.
#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/alloc/bitmap_allocator.h"
#include "src/common/bytes.h"
#include "src/common/units.h"
#include "src/cluster/topology.h"
#include "src/core/metax.h"
#include "src/kv/write_batch.h"

namespace cheetah::core {

// Deadline of every call the proxies and the meta and data servers make.
inline constexpr Nanos kRpcTimeout = Millis(500);
// Period of the meta and data servers' heartbeats to the managers (proxies
// beat at four times it).
inline constexpr Nanos kHeartbeatInterval = Millis(100);

// ---- proxy -> meta: put allocation (Pseudocode 1, lines 2-6) ----

struct PutAllocReply {
  PutAllocReply() = default;
  cluster::LvId lvid = 0;
  std::vector<alloc::Extent> extents;
  uint64_t opseq = 0;
  // Set when the reply already implies persistence (Cheetah-OW): the proxy
  // must not wait for a separate MetaPersisted notification.
  bool persisted = false;
  // The op's effect already happened and was settled by a later delete — the
  // proxy reports success without writing data (there is nowhere to write).
  bool already_done = false;
  // Inline placement accepted: the payload rode in with the request and now
  // lives in the MetaX triple — the proxy skips the data plane entirely.
  bool inline_stored = false;
  size_t wire_size() const { return 40 + extents.size() * 16; }
};
struct PutAllocRequest {
  using Response = PutAllocReply;
  PutAllocRequest() = default;
  uint64_t view = 0;
  std::string name;
  uint64_t size = 0;
  uint32_t checksum = 0;
  ReqId reqid = 0;
  uint32_t proxy_id = 0;
  sim::NodeId proxy_node = sim::kInvalidNode;
  bool re_meta = false;  // §5.3: resend after meta server recovery
  bool re_data = false;  // §5.3: reallocate after data server failure
  // Inline placement (src/tier): the payload itself rides in the alloc
  // request so the put completes in one metadata round trip.
  bool is_inline = false;
  std::string inline_data;
  size_t wire_size() const { return 64 + name.size() + inline_data.size(); }
};

// ---- meta -> proxy: MetaX persisted on all n meta servers (Fig. 4 (3)) ----
struct MetaPersistedAck {
  MetaPersistedAck() = default;
  size_t wire_size() const { return 8; }
};
struct MetaPersistedNotify {
  using Response = MetaPersistedAck;
  MetaPersistedNotify() = default;
  ReqId reqid = 0;
  bool ok = false;
  size_t wire_size() const { return 24; }
};

// ---- proxy -> meta: commit notification (Pseudocode 1, line 10) ----
struct PutCommitAck {
  PutCommitAck() = default;
  size_t wire_size() const { return 8; }
};
struct PutCommitNotify {
  using Response = PutCommitAck;
  PutCommitNotify() = default;
  uint64_t view = 0;
  std::string name;
  ReqId reqid = 0;
  size_t wire_size() const { return 32 + name.size(); }
};

// ---- proxy -> meta: get / delete ----

struct GetMetaReply {
  GetMetaReply() = default;
  ObMeta meta;
  size_t wire_size() const {
    return 48 + meta.extents.size() * 16 + meta.inline_data.size() +
           meta.chunk_crcs.size() * 4;
  }
};
struct GetMetaRequest {
  using Response = GetMetaReply;
  GetMetaRequest() = default;
  uint64_t view = 0;
  std::string name;
  size_t wire_size() const { return 24 + name.size(); }
};

struct DeleteReply {
  DeleteReply() = default;
  size_t wire_size() const { return 8; }
};
struct DeleteRequest {
  using Response = DeleteReply;
  DeleteRequest() = default;
  uint64_t view = 0;
  std::string name;
  // Stable across retries: lets the primary recognize a resent delete whose
  // first attempt already landed (the ack was lost) and answer OK instead of
  // deleting an object recreated in between.
  ReqId reqid = 0;
  uint32_t proxy_id = 0;
  size_t wire_size() const { return 40 + name.size(); }
};

// ---- meta -> meta: MetaX replication and PG transfer ----

struct ReplicateMetaXReply {
  ReplicateMetaXReply() = default;
  size_t wire_size() const { return 8; }
};
struct ReplicateMetaXRequest {
  using Response = ReplicateMetaXReply;
  ReplicateMetaXRequest() = default;
  uint64_t view = 0;
  cluster::PgId pg = 0;
  // The primary's atomic batch: every backup's request shares its buffer.
  kv::WriteBatch batch;
  // 32 + (key + value + 8) per put + (key + 4) per delete.
  size_t wire_size() const {
    return 32 + batch.key_value_bytes() + 8 * batch.put_count() + 4 * batch.delete_count();
  }
};

struct PgPullReply {
  PgPullReply() = default;
  std::vector<std::pair<std::string, std::string>> kvs;
  // Last OBMETA key of this page; resend with start_after = this to
  // continue. Empty = the PG transfer is complete.
  std::string next_start_after;
  size_t wire_size() const {
    size_t n = 16 + next_start_after.size();
    for (const auto& [k, v] : kvs) {
      n += k.size() + v.size() + 8;
    }
    return n;
  }
};
struct PgPullRequest {
  using Response = PgPullReply;
  PgPullRequest() = default;
  uint64_t view = 0;
  cluster::PgId pg = 0;
  // Pagination: resume the OBMETA scan after this key ("" = from the start).
  // PG/PX logs ride with the final page.
  std::string start_after;
  uint32_t limit = 4096;  // max OBMETA rows per page
  // When non-zero the source must have adopted at least this view before
  // serving the pull. Migration catchup sets it to the DoubleWrite view: a
  // source still on the older view is not forwarding writes yet, so a scan
  // against it could miss writes that land after the page passes them.
  uint64_t min_view = 0;
  size_t wire_size() const { return 36 + start_after.size(); }
};

// ---- proxy/meta -> data server ----

struct DataWriteReply {
  DataWriteReply() = default;
  uint32_t checksum = 0;  // whole-object checksum as stored
  size_t wire_size() const { return 16; }
};
struct DataWriteRequest {
  using Response = DataWriteReply;
  DataWriteRequest() = default;
  uint64_t view = 0;
  std::string device;      // physical volume device name
  uint32_t disk_index = 0;
  uint32_t block_size = 4096;
  std::vector<alloc::Extent> extents;
  Bytes data;              // at most the extents' bytes, else refused
  uint32_t checksum = 0;   // whole-object checksum
  size_t wire_size() const { return 64 + device.size() + data.size(); }
};

struct DataReadReply {
  DataReadReply() = default;
  Bytes data;
  uint32_t checksum = 0;  // whole-object checksum as stored at write time
  // False when the device runs in metadata-only mode and `data` is
  // synthesized — the caller verifies against `checksum` instead of
  // recomputing.
  bool content_valid = true;
  size_t wire_size() const { return 24 + data.size(); }
};
struct DataReadRequest {
  using Response = DataReadReply;
  DataReadRequest() = default;
  std::string device;
  uint32_t disk_index = 0;
  uint32_t block_size = 4096;
  std::vector<alloc::Extent> extents;
  uint64_t length = 0;  // object size (may be < extent bytes, never more)
  // Verified read: the server compares every extent's stored checksum (and,
  // in full-content mode, the recomputed payload CRC) against
  // expected_checksum and answers kCorruption instead of shipping damaged
  // bytes. End-to-end integrity needs the check server-side too: a reply
  // that never leaves the data server can't be acked to a client by
  // accident.
  bool verify = false;
  uint32_t expected_checksum = 0;
  size_t wire_size() const { return 64 + device.size() + extents.size() * 16; }
};

// ---- repair traffic (read-repair and scrub) ----
// Wire-identical to the data read/write requests but registered under the
// maintenance QoS class: traffic classes attach to request *types* at
// Serve() time, so repair I/O gets its own type to keep it from contending
// with foreground puts/gets for scheduler credit. Handlers slice to the base
// request and share the foreground code path.

struct RepairReadRequest : DataReadRequest {
  RepairReadRequest() = default;
};

struct RepairWriteRequest : DataWriteRequest {
  RepairWriteRequest() = default;
};

// Meta server probe: is the object's data fully persisted with the expected
// checksum? (§4.3.2 pending gets, §5.3 proxy-crash recovery.)
struct DataProbeReply {
  DataProbeReply() = default;
  bool present = false;
  uint32_t checksum = 0;
  size_t wire_size() const { return 16; }
};
struct DataProbeRequest {
  using Response = DataProbeReply;
  DataProbeRequest() = default;
  std::string device;
  uint32_t disk_index = 0;
  uint32_t block_size = 4096;
  std::vector<alloc::Extent> extents;
  uint32_t expected_checksum = 0;
  size_t wire_size() const { return 48 + device.size() + extents.size() * 16; }
};

// Frees blocks on the data-server side view of a volume (revoked puts and
// deletes; the device itself is agnostic, this just drops stored extents).
struct DataDiscardReply {
  DataDiscardReply() = default;
  size_t wire_size() const { return 8; }
};
struct DataDiscardRequest {
  using Response = DataDiscardReply;
  DataDiscardRequest() = default;
  std::string device;
  uint32_t disk_index = 0;
  uint32_t block_size = 4096;
  std::vector<alloc::Extent> extents;
  size_t wire_size() const { return 40 + device.size() + extents.size() * 16; }
};

// ---- data -> data: whole-volume pull for disk recovery ----

struct VolumePullReply {
  VolumePullReply() = default;
  struct ExtentData {
    ExtentData() = default;
    uint64_t offset = 0;
    Bytes data;
    uint32_t checksum = 0;
  };
  std::vector<ExtentData> extents;
  uint64_t total_bytes = 0;
  size_t wire_size() const { return 24 + total_bytes + extents.size() * 24; }
};
struct VolumePullRequest {
  using Response = VolumePullReply;
  VolumePullRequest() = default;
  std::string device;
  uint32_t disk_index = 0;
  size_t wire_size() const { return 24 + device.size(); }
};

}  // namespace cheetah::core

#endif  // SRC_CORE_MESSAGES_H_
