// Raft consensus (Ongaro & Ousterhout, ATC'14) for the manager cluster.
//
// The paper's system manager is "an odd number of manager server processes
// jointly running Raft as one reliable central system manager" (§4.1). This
// is a faithful single-decree-log Raft with static membership: randomized
// election timeouts, vote/term persistence before granting, log-matching
// checks on AppendEntries, and commit only for current-term entries.
// Snapshots and membership change are out of scope (the manager's state is
// tiny and membership is fixed for an experiment).
#ifndef SRC_RAFT_RAFT_H_
#define SRC_RAFT_RAFT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/rpc/node.h"
#include "src/sim/storage.h"
#include "src/sim/task.h"

namespace cheetah::raft {

struct LogEntry {
  LogEntry() = default;
  LogEntry(uint64_t term, std::string command)
      : term(term), command(std::move(command)) {}
  uint64_t term = 0;
  std::string command;
};

// Applied-command consumer. Apply is invoked exactly once per index, in
// order, on every node that commits the entry.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual void Apply(uint64_t index, const std::string& command) = 0;
};

struct Config {
  Config() = default;
  std::vector<sim::NodeId> members;
};

// ---- wire messages ----

struct VoteReply {
  VoteReply() = default;
  uint64_t term = 0;
  bool granted = false;
  size_t wire_size() const { return 24; }
};
struct VoteRequest {
  using Response = VoteReply;
  VoteRequest() = default;
  uint64_t term = 0;
  sim::NodeId candidate = 0;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;
  size_t wire_size() const { return 40; }
};

struct AppendReply {
  AppendReply() = default;
  uint64_t term = 0;
  bool success = false;
  uint64_t match_index = 0;
  size_t wire_size() const { return 32; }
};
struct AppendRequest {
  using Response = AppendReply;
  AppendRequest() = default;
  uint64_t term = 0;
  sim::NodeId leader = 0;
  uint64_t prev_log_index = 0;
  uint64_t prev_log_term = 0;
  std::vector<LogEntry> entries;
  uint64_t leader_commit = 0;
  size_t wire_size() const {
    size_t n = 56;
    for (const auto& e : entries) {
      n += e.command.size() + 16;
    }
    return n;
  }
};

enum class Role { kFollower, kCandidate, kLeader };

class RaftNode {
 public:
  RaftNode(rpc::Node& rpc, sim::Storage& storage, Config config, StateMachine* sm,
           uint64_t seed);

  // Loads persistent state, registers RPC handlers, and starts the ticker.
  sim::Task<Status> Start();

  Role role() const { return role_; }
  bool is_leader() const { return role_ == Role::kLeader; }
  uint64_t current_term() const { return current_term_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t last_log_index() const { return log_.size(); }
  sim::NodeId leader_hint() const { return leader_hint_; }

  // Replicates `command`; resolves once the entry is committed and applied
  // locally. Fails with kUnavailable if this node is not (or stops being)
  // the leader.
  sim::Task<Result<uint64_t>> Propose(std::string command);

 private:
  static constexpr uint64_t kNoVote = sim::kInvalidNode;

  // Persistent state helpers. Log index is 1-based; log_[i-1] = entry i.
  sim::Task<Status> PersistHardState();
  sim::Task<Status> PersistLog();
  sim::Task<Status> LoadPersistent();
  std::string StateFile() const { return "raft.hardstate"; }
  std::string LogFile() const { return "raft.log"; }

  uint64_t LastLogTerm() const { return log_.empty() ? 0 : log_.back().term; }

  void BecomeFollower(uint64_t term);
  sim::Task<> Ticker();
  sim::Task<> RunElection();
  sim::Task<> LeaderLoop();
  sim::Task<> ReplicateTo(sim::NodeId peer);
  void AdvanceCommit();
  void ApplyCommitted();

  sim::Task<Result<VoteReply>> HandleVote(sim::NodeId src, VoteRequest req);
  sim::Task<Result<AppendReply>> HandleAppend(sim::NodeId src, AppendRequest req);

  rpc::Node& rpc_;
  sim::Storage& storage_;
  Config config_;
  StateMachine* sm_;
  Rng rng_;

  // Persistent (rewritten on change, synced).
  uint64_t current_term_ = 0;
  sim::NodeId voted_for_ = kNoVote;
  std::vector<LogEntry> log_;

  // Volatile.
  Role role_ = Role::kFollower;
  sim::NodeId leader_hint_ = sim::kInvalidNode;
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;
  Nanos last_heartbeat_ = 0;
  uint64_t election_nonce_ = 0;  // invalidates stale election coroutines

  // Leader state.
  std::map<sim::NodeId, uint64_t> next_index_;
  std::map<sim::NodeId, uint64_t> match_index_;
};

}  // namespace cheetah::raft

#endif  // SRC_RAFT_RAFT_H_
