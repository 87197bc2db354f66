// MetaX: the write-optimal aggregated metadata structure (§3, §5.2).
//
// All metadata of a put — the volume metadata Mv (lvid), the offset metadata
// Mo (extents) with the data checksum, and the meta-log Ml (object name,
// client proxy, PG) — is stored as three KV pairs written in one atomic
// batch (Table 1):
//
//   OBMETA_<pgid>_<name>   -> lvid, extents, checksum, size
//   PGLOG_<pgid>_<opseq>   -> name, pxlogkey
//   PXLOG_<pxid>_<reqid>   -> name, pglogkey
//
// Deviation from the paper's Table 1: the OBMETA key embeds the PG id so a
// PG's metadata is one contiguous key range, which is what lets a new
// primary pull or rebuild a PG with a single prefix scan (§5.3). The paper
// implies the same per-PG organization via its PG-granular replication.
#ifndef SRC_CORE_METAX_H_
#define SRC_CORE_METAX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/alloc/bitmap_allocator.h"
#include "src/cluster/topology.h"
#include "src/common/status.h"

namespace cheetah::core {

using ReqId = uint64_t;

// ---- key builders ----
std::string ObMetaKey(cluster::PgId pg, std::string_view name);
std::string ObMetaPrefix(cluster::PgId pg);
std::string PgLogKey(cluster::PgId pg, uint64_t opseq);
std::string PgLogPrefix(cluster::PgId pg);
std::string PxLogKey(uint32_t proxy_id, ReqId reqid);
std::string PxLogPrefix(uint32_t proxy_id);
// Op-finality marker: records that client op (proxy_id, reqid) took effect
// and that effect is settled — written by deletes for themselves and for the
// creating put of the object they consume. A retried put or delete that
// finds its own marker answers success without re-executing, which is what
// keeps retries idempotent once the object they touched is gone. Keyed in
// the PG's keyspace so PG pulls carry markers to new replicas.
std::string OpDoneKey(cluster::PgId pg, uint32_t proxy_id, ReqId reqid);
std::string OpDonePrefix(cluster::PgId pg);

// Parses <pg> and <opseq> back out of a PGLOG key. Returns false on mismatch.
bool ParsePgLogKey(std::string_view key, cluster::PgId* pg, uint64_t* opseq);
bool ParseObMetaKey(std::string_view key, cluster::PgId* pg, std::string* name);
bool ParsePxLogKey(std::string_view key, uint32_t* proxy_id, ReqId* reqid);

// ---- values ----

// Storage class of an object's data (src/tier). Replica is the paper's
// path; Inline keeps the payload inside the ObMeta record itself (no data
// server involved); Ec stripes the payload as K data + M parity chunks, one
// chunk per PV of an ec_stripe LV, with a CRC32C per chunk.
enum class StorageClass : uint8_t {
  kReplica = 0,
  kInline = 1,
  kEc = 2,
};

struct ObMeta {
  ObMeta() = default;
  cluster::LvId lvid = 0;                 // Mv: volume metadata
  std::vector<alloc::Extent> extents;     // Mo: offset metadata
  uint32_t checksum = 0;                  // data checksum c
  uint64_t size = 0;                      // object data size in bytes
  // Creating op (Ml carries the proxy identity per Table 1): lets a delete
  // write the creator's OpDone marker when it consumes the object.
  uint32_t proxy_id = 0;
  ReqId reqid = 0;

  // Storage class + class-specific payload (encoded after the creator op so
  // pre-tiering records decode as kReplica).
  StorageClass storage_class = StorageClass::kReplica;
  // Virtual time the record was written; demotion treats it as the floor of
  // the object's last-access time across meta-server restarts.
  uint64_t born_ns = 0;
  // kInline: the object payload itself.
  std::string inline_data;
  // kEc: Reed-Solomon geometry and one CRC32C per chunk (k data chunks then
  // m parity chunks, chunk j living on replicas[j] of the stripe LV).
  uint32_t ec_k = 0;
  uint32_t ec_m = 0;
  std::vector<uint32_t> chunk_crcs;

  std::string Encode() const;
  static Result<ObMeta> Decode(std::string_view data);
  friend bool operator==(const ObMeta&, const ObMeta&) = default;
};

// A deleted object leaves a tombstone in place of its ObMeta record rather
// than a bare key removal. Deletes must be a positive, replicable fact: PG
// pulls merge records between replicas, so an absence proves nothing, and a
// replica that missed the delete would silently resurrect the object the
// next time it serves the PG. A put to a tombstoned name overwrites the
// tombstone (delete-then-recreate is legal; create-once applies only to
// visible objects). The sim never garbage-collects tombstones.
std::string ObMetaTombstone();
bool IsObMetaTombstone(std::string_view value);

struct PgLog {
  PgLog() = default;
  std::string name;
  std::string pxlogkey;

  std::string Encode() const;
  static Result<PgLog> Decode(std::string_view data);
};

struct PxLog {
  PxLog() = default;
  std::string name;
  std::string pglogkey;

  std::string Encode() const;
  static Result<PxLog> Decode(std::string_view data);
};

// Extent list helpers shared by messages and values.
void EncodeExtents(std::string* out, const std::vector<alloc::Extent>& extents);
bool DecodeExtents(std::string_view* in, std::vector<alloc::Extent>* extents);

// Total bytes covered by the extents.
uint64_t ExtentBytes(const std::vector<alloc::Extent>& extents, uint32_t block_size);

}  // namespace cheetah::core

#endif  // SRC_CORE_METAX_H_
