// Cheetah configuration, including the ablation variants the paper evaluates:
//   - Cheetah-OW  (Fig. 9): the meta server replies to the proxy only after
//     MetaX is persisted and replicated, restoring the distributed ordering
//     that stock Cheetah removes.
//   - Cheetah-FS  (Fig. 10): data servers pay filesystem overhead per data
//     operation instead of raw block access.
//   - Cheetah-NoVG (Fig. 14): no volume groups; a PG's usable volumes are a
//     function of the CRUSH epoch, so meta-server expansion forces object
//     data migration.
#ifndef SRC_CORE_OPTIONS_H_
#define SRC_CORE_OPTIONS_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/kv/options.h"
#include "src/qos/qos.h"

namespace cheetah::core {

// Storage-class tiering (src/tier): inline small objects in MetaX, land
// everything else as replicas, and demote cold replica objects to K+M
// erasure-coded stripes in the background under the maintenance QoS class.
struct TierOptions {
  TierOptions() = default;

  // Objects at or below this size are stored inline in the ObMeta record —
  // one metadata round trip, no data server touched. 0 disables inlining.
  uint64_t inline_threshold = 0;

  // Reed-Solomon geometry for the EC storage class. ec_k == 0 disables the
  // EC tier entirely (no stripe LVs are carved at bootstrap).
  uint32_t ec_k = 0;
  uint32_t ec_m = 0;

  // Demotion policy: a settled replica object becomes an EC candidate once
  // it is at least this large and has not been written or read for
  // demote_after of virtual time.
  uint64_t min_ec_object_bytes = 0;
  Nanos demote_after = Seconds(1);

  // Background demotion engine scan period. 0 disables the engine (placement
  // classes still work; nothing moves between them).
  Nanos tier_scan_interval = 0;
};

struct CheetahOptions {
  CheetahOptions() = default;

  // --- variants (all false = the full Cheetah design) ---
  bool ordered_writes = false;   // Cheetah-OW
  bool fs_backed_data = false;   // Cheetah-FS
  bool no_volume_groups = false; // Cheetah-NoVG

  // Proxy-side metadata cache for the §7 read optimization.
  bool enable_read_cache = true;

  // Evaluation-only (Fig. 13): store just the volume metadata KV per put,
  // like a traditional thin directory, instead of the full MetaX triple.
  // Recovery guarantees do not hold in this mode.
  bool thin_directory_mode = false;

  // Background scrub: audit object checksums against the data servers and
  // repair divergent replicas (§2.1 lists auditing among the flexible
  // management directory-based stores enable). 0 disables.
  Nanos scrub_interval = 0;

  // FAULT-INJECTION ONLY. Ack puts without waiting for MetaX persistence
  // (violates Appendix A Lemma 1: a power failure inside the vulnerable
  // window loses an acknowledged object). Exists so the chaos suite can
  // prove the linearizability checker catches a real consistency bug; never
  // enable outside tests/chaos.
  bool unsafe_skip_persist_wait = false;

  // --- overload control (src/qos) ---
  // When qos.enabled, the testbed installs a per-node scheduler on every
  // meta/data server and proxies run an AIMD concurrency window per meta
  // server, honoring kOverloaded pushback (sleep retry-after, halve window).
  qos::QosParams qos;
  qos::AimdParams aimd;

  // --- storage classes & tiering (src/tier) ---
  TierOptions tier;

  // MetaX KV store tuning (Fig. 11 sweeps these).
  kv::Options metax_kv;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_OPTIONS_H_
