#include "src/core/pg_state.h"

#include <algorithm>

#include "src/common/hash.h"

namespace cheetah::core {

namespace {

bool Uncommitted(const PendingPut& p) {
  return p.state == PutState::kAllocated || p.state == PutState::kPersisted;
}

// The committed state a commit or a verified completion moves an
// uncommitted put to.
PutState CommittedFrom(PutState s) {
  return s == PutState::kPersisted ? PutState::kSettled : PutState::kCommitted;
}

}  // namespace

const PendingPut* PgState::Find(ReqId reqid) const {
  auto it = pending_.find(reqid);
  return it == pending_.end() ? nullptr : &it->second;
}

const PendingPut* PgState::Find(Ticket t) const {
  const PendingPut* p = Find(t.reqid);
  return p != nullptr && p->generation == t.generation ? p : nullptr;
}

PendingPut* PgState::Live(Ticket t) { return const_cast<PendingPut*>(Find(t)); }

const PendingPut* PgState::FindByName(const std::string& name) const {
  auto it = names_.find(name);
  return it == names_.end() ? nullptr : Find(it->second);
}

PgState::Ticket PgState::Add(PendingPut p) {
  p.state = PutState::kAllocated;
  p.generation = ++next_generation_;
  names_[p.name] = p.reqid;
  const Ticket t = TicketOf(p);
  pending_[p.reqid] = std::move(p);
  return t;
}

bool PgState::AddRecovered(PendingPut p) {
  if (pending_.contains(p.reqid) || names_.contains(p.name)) {
    return false;
  }
  p.state = PutState::kPersisted;  // it is in the KV, after all
  p.recovered = true;
  p.generation = ++next_generation_;
  names_[p.name] = p.reqid;
  pending_.emplace(p.reqid, std::move(p));
  return true;
}

bool PgState::SetPersisted(Ticket t, bool ok) {
  PendingPut* p = Live(t);
  if (p == nullptr || p->state == PutState::kRevoking) {
    return false;
  }
  if (p->committed()) {
    p->state = ok ? PutState::kSettled : PutState::kCommitted;
  } else {
    p->state = ok ? PutState::kPersisted : PutState::kAllocated;
  }
  return true;
}

bool PgState::Commit(ReqId reqid) {
  auto it = pending_.find(reqid);
  if (it == pending_.end() || it->second.state == PutState::kRevoking) {
    return false;
  }
  if (Uncommitted(it->second)) {
    it->second.state = CommittedFrom(it->second.state);
    names_.erase(it->second.name);
  }
  return true;
}

bool PgState::Complete(Ticket t) {
  PendingPut* p = Live(t);
  if (p == nullptr || !Uncommitted(*p)) {
    return false;
  }
  p->state = CommittedFrom(p->state);
  names_.erase(p->name);
  return true;
}

std::optional<PgState::Ticket> PgState::Relocate(Ticket t, Placement to) {
  PendingPut* p = Live(t);
  if (p == nullptr || !Uncommitted(*p)) {
    return std::nullopt;
  }
  Free(p->meta.lvid, p->meta.extents);
  p->meta.lvid = to.first;
  p->meta.extents = std::move(to.second);
  p->generation = ++next_generation_;
  return TicketOf(*p);
}

const PendingPut* PgState::BeginRevoke(Ticket t) {
  PendingPut* p = Live(t);
  if (p == nullptr || !Uncommitted(*p)) {
    return nullptr;
  }
  p->state = PutState::kRevoking;
  return p;
}

std::optional<PendingPut> PgState::FinishRevoke(Ticket t) {
  PendingPut* p = Live(t);
  if (p == nullptr || p->state != PutState::kRevoking) {
    return std::nullopt;
  }
  Free(p->meta.lvid, p->meta.extents);
  names_.erase(p->name);
  return std::move(pending_.extract(t.reqid).mapped());
}

bool PgState::Forget(Ticket t) {
  PendingPut* p = Live(t);
  if (p == nullptr || !Uncommitted(*p)) {
    return false;
  }
  names_.erase(p->name);
  pending_.erase(t.reqid);
  return true;
}

std::optional<PendingPut> PgState::Retire(Ticket t) {
  PendingPut* p = Live(t);
  if (p == nullptr || !p->committed()) {
    return std::nullopt;
  }
  return std::move(pending_.extract(t.reqid).mapped());
}

std::vector<cluster::LvId> PgState::EffectiveVg(cluster::PgId pg) const {
  if (!no_volume_groups_) {
    auto it = topo_.vgs.find(pg);
    return it == topo_.vgs.end() ? std::vector<cluster::LvId>{} : it->second;
  }
  // Cheetah-NoVG: volumes are partitioned over PGs in an order keyed by the
  // meta membership, so meta expansion reshuffles which volumes belong to
  // which PG and object data must chase its PG's new volumes (Fig. 14).
  uint64_t meta_seed = 0;
  for (const auto& item : topo_.meta_crush.items()) {
    meta_seed = Mix64(meta_seed ^ item.id);
  }
  std::vector<std::pair<uint64_t, cluster::LvId>> shuffled;
  for (const auto& [id, lv] : topo_.lvs) {
    if (lv.ec_stripe) {
      continue;  // stripe LVs never serve replica allocations
    }
    shuffled.emplace_back(Mix64(id * 0x9e3779b97f4a7c15ull ^ meta_seed), id);
  }
  std::sort(shuffled.begin(), shuffled.end());
  std::vector<cluster::LvId> out;
  for (size_t i = 0; i < shuffled.size(); ++i) {
    if (i % topo_.pg_count == pg) {
      out.push_back(shuffled[i].second);
    }
  }
  return out;
}

Result<PgState::Placement> PgState::Allocate(cluster::PgId pg, uint64_t bytes) {
  return AllocateFrom(EffectiveVg(pg), bytes, /*ec_stripe=*/false);
}

Result<PgState::Placement> PgState::AllocateEcStripe(cluster::PgId pg, uint64_t chunk_bytes) {
  auto it = topo_.ec_vgs.find(pg);
  return AllocateFrom(it == topo_.ec_vgs.end() ? std::vector<cluster::LvId>{} : it->second,
                      chunk_bytes, /*ec_stripe=*/true);
}

Result<PgState::Placement> PgState::AllocateFrom(std::vector<cluster::LvId> candidates,
                                                 uint64_t bytes, bool ec_stripe) {
  auto free_blocks = [this](cluster::LvId lv) {
    const alloc::BitmapAllocator* a = FindAllocator(lv);
    return a == nullptr ? ~0ull : a->free_blocks();
  };
  std::sort(candidates.begin(), candidates.end(), [&](cluster::LvId a, cluster::LvId b) {
    return free_blocks(a) > free_blocks(b);
  });
  for (cluster::LvId lv_id : candidates) {
    const cluster::LogicalVolume* lv = topo_.FindLv(lv_id);
    if (lv == nullptr || !lv->writable || (ec_stripe && !lv->ec_stripe)) {
      continue;
    }
    auto extents = AllocatorFor(lv_id)->Allocate(bytes);
    if (extents.ok()) {
      return Placement{lv_id, std::move(*extents)};
    }
  }
  return Status::ResourceExhausted(ec_stripe ? "no ec stripe can fit the chunk"
                                             : "no writable volume can fit the object");
}

const alloc::BitmapAllocator* PgState::FindAllocator(cluster::LvId lv) const {
  auto it = allocators_.find(lv);
  return it == allocators_.end() ? nullptr : &it->second;
}

alloc::BitmapAllocator* PgState::AllocatorFor(cluster::LvId lv_id) {
  if (const alloc::BitmapAllocator* a = FindAllocator(lv_id)) {
    return const_cast<alloc::BitmapAllocator*>(a);
  }
  const cluster::LogicalVolume* lv = topo_.FindLv(lv_id);
  if (lv == nullptr) {
    return nullptr;
  }
  return &allocators_.emplace(lv_id, alloc::BitmapAllocator(lv->TotalBlocks(), lv->block_size))
              .first->second;
}

void PgState::Free(cluster::LvId lv, const std::vector<alloc::Extent>& extents) {
  if (alloc::BitmapAllocator* a = AllocatorFor(lv)) {
    a->Free(extents);
  }
}

void PgState::ResetAllocator(cluster::LvId lv) {
  allocators_.erase(lv);
  (void)AllocatorFor(lv);
}

void PgState::RetainAllocators(const std::set<cluster::LvId>& managed) {
  std::erase_if(allocators_, [&](const auto& entry) { return !managed.contains(entry.first); });
}

void PgState::ReservePendingExtents(cluster::PgId pg, const std::set<cluster::LvId>& lvs) {
  for (const auto& [reqid, p] : pending_) {
    const bool covered = p.pg == pg || (no_volume_groups_ && lvs.contains(p.meta.lvid));
    if (!covered || p.meta.storage_class == StorageClass::kInline) {
      continue;
    }
    if (alloc::BitmapAllocator* a = AllocatorFor(p.meta.lvid)) {
      a->MarkAllocated(p.meta.extents);
    }
  }
}

void PgState::RaiseOpseq(cluster::PgId pg, uint64_t seen) {
  uint64_t& opseq = opseq_[pg];
  opseq = std::max(opseq, seen);
}

}  // namespace cheetah::core
