// Per-server state of the PGs a meta server is primary for (§5.2-§5.3): the
// pending-put table and its name index, the per-name relocation guard, the
// per-LV allocators and dirty bitmaps, and the per-PG opseq.
//
// Pending-put lifecycle. A put enters at PutAlloc (or, rebuilt from the PG
// log, at view adoption) and leaves through the cleaner once committed, or
// through a revoke:
//
//   kAllocated --persisted--> kPersisted --commit/complete--> kSettled
//   kAllocated --commit/complete--> kCommitted --persisted--> kSettled
//   kAllocated | kPersisted --begin-revoke--> kRevoking --finish-revoke--> gone
//   kCommitted | kSettled --retire (cleaner)--> gone
//
// A committed put is never revoked. RE-DATA moves an uncommitted put to new
// extents and bumps its allocation generation. Coroutines never hold an entry
// across a co_await: they hold a Ticket{reqid, generation}, and every
// transition is a synchronous method here that refuses a ticket whose put is
// gone or was moved since (and a state it does not apply to).
#ifndef SRC_CORE_PG_STATE_H_
#define SRC_CORE_PG_STATE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/alloc/bitmap_allocator.h"
#include "src/cluster/topology.h"
#include "src/common/units.h"
#include "src/core/metax.h"

namespace cheetah::core {

enum class PutState : uint8_t { kAllocated, kPersisted, kCommitted, kSettled, kRevoking };

struct PendingPut {
  ReqId reqid = 0;
  std::string name;
  cluster::PgId pg = 0;
  uint64_t opseq = 0;
  uint32_t proxy_id = 0;
  ObMeta meta;
  PutState state = PutState::kAllocated;
  uint64_t generation = 0;  // assigned by PgState; RE-DATA bumps it
  // Rebuilt from the PG log (restart or PG adoption) rather than created by
  // a live put: the proxy's commit notification went to the replicas of
  // record at put time, so none is coming here — readers should verify
  // immediately instead of waiting for one.
  bool recovered = false;
  Nanos born = 0;

  bool committed() const { return state == PutState::kCommitted || state == PutState::kSettled; }
};

class PgState {
 public:
  struct Ticket {
    ReqId reqid = 0;
    uint64_t generation = 0;
  };
  using Placement = std::pair<cluster::LvId, std::vector<alloc::Extent>>;

  // `topo` is the owning server's live map (it is reassigned, never moved).
  PgState(const cluster::TopologyMap& topo, bool no_volume_groups)
      : topo_(topo), no_volume_groups_(no_volume_groups) {}

  // ---- pending puts. Pointers are valid until the next co_await. ----
  const PendingPut* Find(ReqId reqid) const;
  const PendingPut* Find(Ticket t) const;  // null if the ticket is stale
  // The uncommitted put holding `name`, if any (revoking ones included).
  const PendingPut* FindByName(const std::string& name) const;
  const std::map<ReqId, PendingPut>& pending() const { return pending_; }
  static Ticket TicketOf(const PendingPut& p) { return {p.reqid, p.generation}; }

  // A fresh allocation of a name no uncommitted put holds (replaces any
  // entry with its reqid).
  Ticket Add(PendingPut p);
  // A put rebuilt from the PG log; refused if its reqid is known or another
  // uncommitted put holds its name.
  bool AddRecovered(PendingPut p);
  // MetaX persisted everywhere (or, !ok, a persist of it failed).
  bool SetPersisted(Ticket t, bool ok);
  // The proxy's commit notification; refused while revoking.
  bool Commit(ReqId reqid);
  // Verification found the data in place.
  bool Complete(Ticket t);
  // RE-DATA: frees the old extents, records `to`, returns the new ticket.
  std::optional<Ticket> Relocate(Ticket t, Placement to);
  // Starts a revoke of an uncommitted put; then FinishRevoke frees its
  // extents and erases it, returning the erased entry.
  const PendingPut* BeginRevoke(Ticket t);
  std::optional<PendingPut> FinishRevoke(Ticket t);
  // Drops an uncommitted put whose record is gone (nothing freed).
  bool Forget(Ticket t);
  // The cleaner retires a committed put whose logs it deletes.
  std::optional<PendingPut> Retire(Ticket t);

  // ---- per-name guard, held by record swaps and by deletes from their
  // record read through their persist: puts, deletes and swaps of the name
  // bounce while it is held ----
  bool Guard(const std::string& name) { return guarded_.insert(name).second; }
  void Unguard(const std::string& name) { guarded_.erase(name); }
  bool IsGuarded(const std::string& name) const { return guarded_.contains(name); }

  // ---- space ----
  // The LVs usable for pg's new allocations (VG, or the NoVG hash partition
  // of all LVs).
  std::vector<cluster::LvId> EffectiveVg(cluster::PgId pg) const;
  // Prefers the candidate volume with the most free space.
  Result<Placement> Allocate(cluster::PgId pg, uint64_t bytes);
  // `chunk_bytes` on one of the PG's EC stripe LVs: the one allocation
  // reserves the same extent range on all k+m stripe PVs.
  Result<Placement> AllocateEcStripe(cluster::PgId pg, uint64_t chunk_bytes);
  alloc::BitmapAllocator* AllocatorFor(cluster::LvId lv);  // null if the LV is unknown
  const alloc::BitmapAllocator* FindAllocator(cluster::LvId lv) const;  // never creates
  void Free(cluster::LvId lv, const std::vector<alloc::Extent>& extents);
  void ResetAllocator(cluster::LvId lv);
  void RetainAllocators(const std::set<cluster::LvId>& managed);
  // Re-marks the extents of live puts a rebuild's OBMETA scan may not show
  // yet: pg's own, or (NoVG) any PG's on `lvs`.
  void ReservePendingExtents(cluster::PgId pg, const std::set<cluster::LvId>& lvs);
  // Bitmaps flushed by the next clean cycle.
  void MarkDirty(cluster::LvId lv) { dirty_.insert(lv); }
  bool has_dirty() const { return !dirty_.empty(); }
  std::set<cluster::LvId> TakeDirty() { return std::exchange(dirty_, {}); }

  // ---- per-PG opseq ----
  uint64_t NextOpseq(cluster::PgId pg) { return ++opseq_[pg]; }
  void RaiseOpseq(cluster::PgId pg, uint64_t seen);

 private:
  PendingPut* Live(Ticket t);
  Result<Placement> AllocateFrom(std::vector<cluster::LvId> candidates, uint64_t bytes,
                                 bool ec_stripe);

  const cluster::TopologyMap& topo_;
  const bool no_volume_groups_;
  uint64_t next_generation_ = 0;
  std::map<ReqId, PendingPut> pending_;
  // Each uncommitted put's name; no two uncommitted puts share one.
  std::map<std::string, ReqId> names_;
  std::set<std::string> guarded_;
  std::map<cluster::LvId, alloc::BitmapAllocator> allocators_;
  std::set<cluster::LvId> dirty_;
  std::map<cluster::PgId, uint64_t> opseq_;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_PG_STATE_H_
