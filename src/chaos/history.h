// Client-observed operation history and a per-key linearizability checker.
//
// The recorder logs every client invocation/response with virtual timestamps;
// the checker then verifies each key's history against Cheetah's object
// semantics: objects are immutable create-once registers (a put to a visible
// name returns AlreadyExists), deletes remove them, gets observe them.
//
// Checking is a Wing&Gong-style search: find a total order of the operations,
// consistent with real-time precedence (an op that returned before another
// was invoked must be ordered first), under which every response is legal.
// Histories are per-key and short (tests keep them under ~60 ops), so the
// exponential worst case never bites; memoization on (linearized-set, state)
// keeps typical runs linear.
//
// Ambiguity rules (what makes checking storage systems subtle):
//  * An op whose response was a timeout/failure is AMBIGUOUS: the server may
//    have applied it — possibly long after the client gave up (the cleaner
//    completes orphaned puts, §5.3) — or never seen it. Such an op may take
//    effect at any point from its invocation to the end of the history, or
//    not at all (except ambiguous puts, whose effect can also be revoked;
//    modeling revocation as "no effect" is equivalent for the checker).
//  * delete -> NotFound is dual: either the key was genuinely absent, or the
//    delete raced its own earlier ambiguous attempt (we model it as "key was
//    absent at its linearization point", which covers both).
//  * put -> AlreadyExists / ResourceExhausted are definite no-effect ops.
#ifndef SRC_CHAOS_HISTORY_H_
#define SRC_CHAOS_HISTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace cheetah::chaos {

enum class OpType { kPut, kGet, kDelete };

enum class Outcome {
  kOk,         // definite success
  kNotFound,   // definite "key absent" observation (get/delete)
  kNoEffect,   // definite failure with no state change (AlreadyExists, ...)
  kAmbiguous,  // timeout / unavailable: may or may not have taken effect
};

struct Op {
  uint64_t id = 0;          // unique per history, assigned by Invoke
  int client = 0;           // worker index (diagnostics only)
  OpType type = OpType::kGet;
  std::string key;
  std::string value;        // put: written value; get: observed value
  Outcome outcome = Outcome::kAmbiguous;
  Nanos invoke = 0;
  Nanos ret = 0;            // response time; ambiguous ops extend to +inf
  bool done = false;        // Return() recorded

  // Effective return for real-time ordering: an ambiguous op may take effect
  // any time after its invocation.
  Nanos EffectiveRet() const {
    return outcome == Outcome::kAmbiguous ? kNeverReturned : ret;
  }
  static constexpr Nanos kNeverReturned = ~0ull;

  std::string ToString() const;
};

// Append-only recorder. Single-threaded (the simulator is), so no locking;
// ops are recorded in invocation order which is also virtual-time order.
class History {
 public:
  // Returns the op id. value is the payload being written (puts) only.
  uint64_t Invoke(int client, OpType type, const std::string& key,
                  const std::string& value, Nanos now);
  // observed: get's returned payload (empty otherwise).
  void Return(uint64_t id, Outcome outcome, const std::string& observed, Nanos now);

  const std::vector<Op>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }

  // Byte-exact serialization; two runs of the same seed+schedule must match.
  std::string Serialize() const;

 private:
  std::vector<Op> ops_;
  uint64_t next_id_ = 1;
};

struct Violation {
  std::string key;
  std::string reason;  // human-readable explanation with the offending ops
};

// Checks every key's sub-history (its ops in invocation order) for
// linearizability under create-once register semantics. Undone ops (client
// crashed or never got a response before the test ended) count as
// ambiguous. Returns all violations in key order (empty = linearizable).
std::vector<Violation> CheckLinearizable(const History& history);

std::string FormatViolations(const std::vector<Violation>& violations);

}  // namespace cheetah::chaos

#endif  // SRC_CHAOS_HISTORY_H_
