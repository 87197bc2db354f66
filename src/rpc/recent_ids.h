// At-most-once request delivery: the window of recent call ids one node keeps
// per peer.
//
// call_ids are per-sender monotonic, so the window is an ascending deque of
// the newest kWindow ids plus a floor below which every id counts as seen.
// An id arriving in order is appended in O(1); a rare out-of-order arrival
// (a delayed or duplicated copy overtaken by later calls) is binary-searched
// and inserted, a short move since it lands near the back. Past kWindow ids
// the smallest is evicted and becomes the floor. Ids cost 8 bytes each.
#ifndef SRC_RPC_RECENT_IDS_H_
#define SRC_RPC_RECENT_IDS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>

namespace cheetah::rpc {

class RecentIds {
 public:
  static constexpr size_t kWindow = 4096;

  // True if `id` is at or below the floor or already in the window (a
  // duplicate to drop); otherwise records it and returns false.
  bool SeenBefore(uint64_t id) {
    if (id <= floor_) {
      return true;
    }
    auto at = ids_.end();
    if (!ids_.empty() && id <= ids_.back()) {
      at = std::lower_bound(ids_.begin(), ids_.end(), id);
      if (*at == id) {
        return true;
      }
    }
    ids_.insert(at, id);
    if (ids_.size() > kWindow) {
      floor_ = ids_.front();
      ids_.pop_front();
    }
    return false;
  }

  uint64_t floor() const { return floor_; }
  size_t size() const { return ids_.size(); }

 private:
  uint64_t floor_ = 0;         // every id <= floor_ counts as seen
  std::deque<uint64_t> ids_;  // ascending ids above floor_
};

}  // namespace cheetah::rpc

#endif  // SRC_RPC_RECENT_IDS_H_
