#include "src/chaos/history.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <numeric>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

namespace cheetah::chaos {

namespace {

const char* TypeName(OpType t) {
  switch (t) {
    case OpType::kPut: return "put";
    case OpType::kGet: return "get";
    case OpType::kDelete: return "del";
  }
  return "?";
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kNotFound: return "notfound";
    case Outcome::kNoEffect: return "noeffect";
    case Outcome::kAmbiguous: return "ambiguous";
  }
  return "?";
}

}  // namespace

std::string Op::ToString() const {
  std::ostringstream os;
  os << "#" << id << " c" << client << " " << TypeName(type) << "(" << key;
  if (type == OpType::kPut || (type == OpType::kGet && outcome == Outcome::kOk)) {
    os << "=" << (value.size() <= 24 ? value : value.substr(0, 24) + "...");
  }
  os << ")->" << OutcomeName(outcome) << " [" << invoke << ",";
  if (EffectiveRet() == kNeverReturned) {
    os << "inf";
  } else {
    os << ret;
  }
  os << "]";
  return os.str();
}

uint64_t History::Invoke(int client, OpType type, const std::string& key,
                         const std::string& value, Nanos now) {
  Op op;
  op.id = next_id_++;
  op.client = client;
  op.type = type;
  op.key = key;
  op.value = value;
  op.invoke = now;
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

void History::Return(uint64_t id, Outcome outcome, const std::string& observed,
                     Nanos now) {
  // Ids are dense from 1 in invocation order, so op `id` sits at id - 1.
  if (id == 0 || id > ops_.size()) {
    return;
  }
  Op& op = ops_[id - 1];
  assert(op.id == id);
  op.outcome = outcome;
  op.ret = now;
  op.done = true;
  if (op.type == OpType::kGet && outcome == Outcome::kOk) {
    op.value = observed;
  }
}

std::string History::Serialize() const {
  auto digits = [](auto v) {
    char buf[24];
    return static_cast<size_t>(std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
  };
  auto outcome = [](const Op& op) -> std::string_view {
    return op.done ? OutcomeName(op.outcome) : "undone";
  };
  // Sized exactly first (7 tabs and a newline per op), so the text is
  // written into one allocation of its final size.
  size_t bytes = 0;
  for (const Op& op : ops_) {
    bytes += digits(op.id) + digits(op.client) + std::string_view(TypeName(op.type)).size() +
             op.key.size() + op.value.size() + outcome(op).size() + digits(op.invoke) +
             digits(op.ret) + 8;
  }
  std::string out;
  out.reserve(bytes);
  auto number = [&out](auto v, char sep) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    out += sep;
  };
  auto text = [&out](std::string_view v) {
    out += v;
    out += '\t';
  };
  for (const Op& op : ops_) {
    number(op.id, '\t');
    number(op.client, '\t');
    text(TypeName(op.type));
    text(op.key);
    text(op.value);
    text(outcome(op));
    number(op.invoke, '\t');
    number(op.ret, '\n');
  }
  assert(out.size() == bytes);
  return out;
}

namespace {

// Per-key Wing&Gong search. State of the create-once register is encoded as
// a value index: 0 = absent, i+1 = ops[i]'s put value is visible. Memoizing
// (linearized-mask, state) prunes re-exploration of equivalent prefixes.
class KeyChecker {
 public:
  explicit KeyChecker(const std::vector<Op>& ops) : ops_(ops) {}

  bool Check() { return Dfs(0, 0); }

 private:
  using StateKey = std::pair<uint64_t, uint32_t>;

  bool Dfs(uint64_t mask, uint32_t state) {
    const uint64_t full = (ops_.size() == 64) ? ~0ull : ((1ull << ops_.size()) - 1);
    if (mask == full) {
      return true;
    }
    if (!visited_.insert({mask, state}).second) {
      return false;
    }
    // An op can linearize next only if no other pending op returned before
    // its invocation (real-time order must be respected).
    Nanos min_ret = Op::kNeverReturned;
    for (size_t i = 0; i < ops_.size(); ++i) {
      if ((mask >> i) & 1) {
        continue;
      }
      min_ret = std::min(min_ret, ops_[i].EffectiveRet());
    }
    for (size_t i = 0; i < ops_.size(); ++i) {
      if ((mask >> i) & 1) {
        continue;
      }
      const Op& op = ops_[i];
      if (op.invoke > min_ret) {
        continue;  // some pending op precedes it in real time
      }
      const uint64_t next_mask = mask | (1ull << i);
      for (uint32_t next : NextStates(i, state)) {
        if (Dfs(next_mask, next)) {
          return true;
        }
      }
    }
    return false;
  }

  static constexpr uint32_t kNoState = ~0u;

  // Legal post-states of linearizing ops_[i] in `state` (empty = illegal).
  std::vector<uint32_t> NextStates(size_t i, uint32_t state) {
    const Op& op = ops_[i];
    const bool present = state != 0;
    std::vector<uint32_t> out;
    switch (op.type) {
      case OpType::kPut:
        switch (op.outcome) {
          case Outcome::kOk:
            if (!present) {
              out.push_back(static_cast<uint32_t>(i) + 1);
            }
            break;
          case Outcome::kAmbiguous:
            out.push_back(state);  // lost / revoked: no effect
            if (!present) {
              out.push_back(static_cast<uint32_t>(i) + 1);  // landed server-side
            }
            break;
          default:  // AlreadyExists / ResourceExhausted: definite no-op
            out.push_back(state);
            break;
        }
        break;
      case OpType::kGet:
        switch (op.outcome) {
          case Outcome::kOk:
            if (present && ops_[state - 1].value == op.value) {
              out.push_back(state);
            }
            break;
          case Outcome::kNotFound:
            if (!present) {
              out.push_back(state);
            }
            break;
          default:  // failed get observed nothing
            out.push_back(state);
            break;
        }
        break;
      case OpType::kDelete:
        switch (op.outcome) {
          case Outcome::kOk:
            if (present) {
              out.push_back(0);
            }
            break;
          case Outcome::kNotFound:
            // Either genuinely absent, or this logical delete's earlier
            // (internally retried) attempt removed the key and the final
            // attempt found it gone.
            if (!present) {
              out.push_back(state);
            } else {
              out.push_back(0);
            }
            break;
          case Outcome::kAmbiguous:
            out.push_back(state);  // never applied
            if (present) {
              out.push_back(0);    // applied server-side
            }
            break;
          default:
            out.push_back(state);
            break;
        }
        break;
    }
    return out;
  }

  const std::vector<Op>& ops_;
  std::set<StateKey> visited_;
};

}  // namespace

std::vector<Violation> CheckLinearizable(const History& history) {
  // The ops by (key, id): each key's sub-history in invocation order, the
  // keys in order. Only one key's ops are copied at a time.
  const std::vector<Op>& all = history.ops();
  std::vector<size_t> order(all.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&all](size_t a, size_t b) {
    return std::tie(all[a].key, all[a].id) < std::tie(all[b].key, all[b].id);
  });
  std::vector<Violation> out;
  std::vector<Op> ops;
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    const std::string& key = all[order[begin]].key;
    end = begin + 1;
    while (end < order.size() && all[order[end]].key == key) {
      ++end;
    }
    if (end - begin > 63) {
      out.push_back({key, "history too long to check (" + std::to_string(end - begin) +
                              " ops > 63); shorten the workload per key"});
      continue;
    }
    ops.clear();
    for (size_t i = begin; i < end; ++i) {
      ops.push_back(all[order[i]]);
      if (!ops.back().done) {
        ops.back().outcome = Outcome::kAmbiguous;  // client never saw a response
      }
    }
    // Fast pre-check: every successful get must observe a value some put of
    // this key wrote — anything else is a torn or fabricated read, and the
    // search below would only report it less directly.
    bool torn = false;
    for (const Op& g : ops) {
      if (g.type != OpType::kGet || g.outcome != Outcome::kOk) {
        continue;
      }
      bool written = false;
      for (const Op& p : ops) {
        if (p.type == OpType::kPut && p.value == g.value) {
          written = true;
          break;
        }
      }
      if (!written) {
        out.push_back({key, "read observed a value no put wrote: " + g.ToString()});
        torn = true;
      }
    }
    if (torn) {
      continue;
    }
    KeyChecker checker(ops);
    if (!checker.Check()) {
      std::ostringstream os;
      os << "no linearization of " << ops.size() << " ops:";
      for (const Op& op : ops) {
        os << "\n    " << op.ToString();
      }
      out.push_back({key, os.str()});
    }
  }
  return out;
}

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << "key '" << v.key << "': " << v.reason << "\n";
  }
  return os.str();
}

}  // namespace cheetah::chaos
