#include "src/raft/raft.h"

#include <algorithm>

#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/sim/actor.h"
#include "src/sim/sync.h"

namespace cheetah::raft {

namespace {

// A follower that hears no leader for a uniformly random election timeout in
// [min, max) starts an election; the leader heartbeats well inside min.
constexpr Nanos kElectionTimeoutMin = Millis(150);
constexpr Nanos kElectionTimeoutMax = Millis(300);
constexpr Nanos kHeartbeatInterval = Millis(40);
constexpr Nanos kRpcTimeout = Millis(60);

}  // namespace

RaftNode::RaftNode(rpc::Node& rpc, sim::Storage& storage, Config config, StateMachine* sm,
                   uint64_t seed)
    : rpc_(rpc), storage_(storage), config_(std::move(config)), sm_(sm), rng_(seed) {}

sim::Task<Status> RaftNode::Start() {
  CO_RETURN_IF_ERROR(co_await LoadPersistent());
  rpc_.Serve<VoteRequest, &RaftNode::HandleVote>(this);
  rpc_.Serve<AppendRequest, &RaftNode::HandleAppend>(this);
  last_heartbeat_ = rpc_.machine().loop().Now();
  rpc_.machine().actor().Spawn(Ticker());
  co_return Status::Ok();
}

// ---- persistence ----

sim::Task<Status> RaftNode::PersistHardState() {
  std::string body;
  PutFixed64(&body, current_term_);
  PutFixed64(&body, voted_for_);
  std::string out;
  PutFixed32(&out, Crc32c(body));
  out += body;
  co_return co_await storage_.WriteFile(StateFile(), Bytes(std::move(out)), /*sync=*/true);
}

sim::Task<Status> RaftNode::PersistLog() {
  // The manager's log is small (topology updates); a whole-file rewrite keeps
  // truncation-on-conflict trivially correct.
  std::string body;
  PutVarint64(&body, log_.size());
  for (const auto& e : log_) {
    PutVarint64(&body, e.term);
    PutLengthPrefixed(&body, e.command);
  }
  std::string out;
  PutFixed32(&out, Crc32c(body));
  out += body;
  co_return co_await storage_.WriteFile(LogFile(), Bytes(std::move(out)), /*sync=*/true);
}

sim::Task<Status> RaftNode::LoadPersistent() {
  if (storage_.FileExists(StateFile())) {
    auto file = co_await storage_.ReadFile(StateFile());
    if (!file.ok()) {
      co_return file.status();
    }
    std::string_view data = *file;
    uint32_t crc = 0;
    if (!GetFixed32(&data, &crc) || Crc32c(data) != crc) {
      co_return Status::Corruption("raft hardstate");
    }
    uint64_t term = 0, vote = 0;
    if (!GetFixed64(&data, &term) || !GetFixed64(&data, &vote)) {
      co_return Status::Corruption("raft hardstate fields");
    }
    current_term_ = term;
    voted_for_ = static_cast<sim::NodeId>(vote);
  }
  if (storage_.FileExists(LogFile())) {
    auto file = co_await storage_.ReadFile(LogFile());
    if (!file.ok()) {
      co_return file.status();
    }
    std::string_view data = *file;
    uint32_t crc = 0;
    if (!GetFixed32(&data, &crc) || Crc32c(data) != crc) {
      co_return Status::Corruption("raft log");
    }
    uint64_t count = 0;
    if (!GetVarint64(&data, &count)) {
      co_return Status::Corruption("raft log count");
    }
    log_.clear();
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t term = 0;
      std::string_view cmd;
      if (!GetVarint64(&data, &term) || !GetLengthPrefixed(&data, &cmd)) {
        co_return Status::Corruption("raft log entry");
      }
      log_.emplace_back(term, std::string(cmd));
    }
  }
  co_return Status::Ok();
}

// ---- role transitions ----

void RaftNode::BecomeFollower(uint64_t term) {
  role_ = Role::kFollower;
  current_term_ = term;
  voted_for_ = kNoVote;
  ++election_nonce_;
}

sim::Task<> RaftNode::Ticker() {
  for (;;) {
    co_await sim::SleepFor(Millis(10));
    if (role_ == Role::kLeader) {
      continue;
    }
    const Nanos timeout =
        kElectionTimeoutMin + rng_.Uniform(kElectionTimeoutMax - kElectionTimeoutMin);
    if (rpc_.machine().loop().Now() - last_heartbeat_ > timeout) {
      last_heartbeat_ = rpc_.machine().loop().Now();
      co_await RunElection();
    }
  }
}

sim::Task<> RaftNode::RunElection() {
  role_ = Role::kCandidate;
  ++current_term_;
  voted_for_ = rpc_.id();
  const uint64_t nonce = ++election_nonce_;
  const uint64_t term = current_term_;
  Status s = co_await PersistHardState();
  if (!s.ok()) {
    co_return;
  }

  struct Tally {
    int granted = 1;  // self-vote
    int responded = 1;
  };
  auto tally = std::make_shared<Tally>();
  auto done = std::make_shared<sim::Event>();
  const int majority = static_cast<int>(config_.members.size()) / 2 + 1;

  sim::Actor* actor = co_await sim::CurrentActor{};
  for (sim::NodeId peer : config_.members) {
    if (peer == rpc_.id()) {
      continue;
    }
    actor->Spawn([](RaftNode* self, sim::NodeId peer, uint64_t term, uint64_t nonce,
                    std::shared_ptr<Tally> tally, std::shared_ptr<sim::Event> done,
                    int majority) -> sim::Task<> {
      VoteRequest req;
      req.term = term;
      req.candidate = self->rpc_.id();
      req.last_log_index = self->last_log_index();
      req.last_log_term = self->LastLogTerm();
      auto reply = co_await self->rpc_.Call(peer, std::move(req), kRpcTimeout);
      if (self->election_nonce_ != nonce) {
        co_return;  // election superseded
      }
      ++tally->responded;
      if (reply.ok()) {
        if (reply->term > self->current_term_) {
          self->BecomeFollower(reply->term);
          co_await self->PersistHardState();
          done->Set();
          co_return;
        }
        if (reply->granted) {
          ++tally->granted;
        }
      }
      if (tally->granted >= majority ||
          tally->responded == static_cast<int>(self->config_.members.size())) {
        done->Set();
      }
    }(this, peer, term, nonce, tally, done, majority));
  }

  (void)co_await done->TimedWait(kElectionTimeoutMin);
  if (election_nonce_ != nonce || role_ != Role::kCandidate || current_term_ != term) {
    co_return;
  }
  if (tally->granted >= majority) {
    role_ = Role::kLeader;
    leader_hint_ = rpc_.id();
    next_index_.clear();
    match_index_.clear();
    for (sim::NodeId peer : config_.members) {
      next_index_[peer] = last_log_index() + 1;
      match_index_[peer] = 0;
    }
    LOG_INFO << "raft: node " << rpc_.id() << " leader of term " << current_term_;
    actor->Spawn(LeaderLoop());
    // Commit a no-op in the new term so earlier-term entries become
    // committable and get re-applied after a full-cluster restart (§5.4.2 of
    // the Raft paper). State machines ignore empty commands.
    actor->Spawn([](RaftNode* self) -> sim::Task<> {
      (void)co_await self->Propose(std::string());
    }(this));
  } else {
    role_ = Role::kFollower;
  }
}

sim::Task<> RaftNode::LeaderLoop() {
  const uint64_t term = current_term_;
  sim::Actor* actor = co_await sim::CurrentActor{};
  while (role_ == Role::kLeader && current_term_ == term) {
    for (sim::NodeId peer : config_.members) {
      if (peer != rpc_.id()) {
        actor->Spawn(ReplicateTo(peer));
      }
    }
    co_await sim::SleepFor(kHeartbeatInterval);
  }
}

sim::Task<> RaftNode::ReplicateTo(sim::NodeId peer) {
  if (role_ != Role::kLeader) {
    co_return;
  }
  const uint64_t term = current_term_;
  AppendRequest req;
  req.term = term;
  req.leader = rpc_.id();
  const uint64_t next = next_index_[peer];
  req.prev_log_index = next - 1;
  req.prev_log_term = req.prev_log_index == 0 ? 0 : log_[req.prev_log_index - 1].term;
  for (uint64_t i = next; i <= log_.size(); ++i) {
    req.entries.push_back(log_[i - 1]);
  }
  req.leader_commit = commit_index_;
  auto reply = co_await rpc_.Call(peer, std::move(req), kRpcTimeout);
  if (!reply.ok() || role_ != Role::kLeader || current_term_ != term) {
    co_return;
  }
  if (reply->term > current_term_) {
    BecomeFollower(reply->term);
    co_await PersistHardState();
    co_return;
  }
  if (reply->success) {
    match_index_[peer] = std::max(match_index_[peer], reply->match_index);
    next_index_[peer] = match_index_[peer] + 1;
    AdvanceCommit();
  } else {
    next_index_[peer] = std::max<uint64_t>(1, next_index_[peer] / 2);
  }
}

void RaftNode::AdvanceCommit() {
  // Largest index replicated on a majority whose entry is from this term.
  for (uint64_t idx = log_.size(); idx > commit_index_; --idx) {
    if (log_[idx - 1].term != current_term_) {
      break;
    }
    int count = 1;  // self
    for (const auto& [peer, match] : match_index_) {
      if (peer != rpc_.id() && match >= idx) {
        ++count;
      }
    }
    if (count >= static_cast<int>(config_.members.size()) / 2 + 1) {
      commit_index_ = idx;
      ApplyCommitted();
      break;
    }
  }
}

void RaftNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    if (sm_ != nullptr) {
      sm_->Apply(last_applied_, log_[last_applied_ - 1].command);
    }
  }
}

sim::Task<Result<uint64_t>> RaftNode::Propose(std::string command) {
  if (role_ != Role::kLeader) {
    co_return Status::Unavailable("not the raft leader");
  }
  const uint64_t term = current_term_;
  log_.emplace_back(term, std::move(command));
  const uint64_t index = log_.size();
  Status s = co_await PersistLog();
  if (!s.ok()) {
    co_return s;
  }
  // Push immediately rather than waiting for the next heartbeat.
  sim::Actor* actor = co_await sim::CurrentActor{};
  for (sim::NodeId peer : config_.members) {
    if (peer != rpc_.id()) {
      actor->Spawn(ReplicateTo(peer));
    }
  }
  const Nanos deadline = rpc_.machine().loop().Now() + Seconds(5);
  while (commit_index_ < index) {
    if (role_ != Role::kLeader || current_term_ != term) {
      co_return Status::Unavailable("lost leadership");
    }
    if (rpc_.machine().loop().Now() > deadline) {
      co_return Status::Timeout("commit timeout");
    }
    co_await sim::SleepFor(Millis(1));
  }
  co_return index;
}

sim::Task<Result<VoteReply>> RaftNode::HandleVote(sim::NodeId src, VoteRequest req) {
  VoteReply reply;
  if (req.term > current_term_) {
    BecomeFollower(req.term);
    co_await PersistHardState();
  }
  reply.term = current_term_;
  const bool log_ok = req.last_log_term > LastLogTerm() ||
                      (req.last_log_term == LastLogTerm() &&
                       req.last_log_index >= last_log_index());
  if (req.term == current_term_ && log_ok &&
      (voted_for_ == kNoVote || voted_for_ == req.candidate)) {
    voted_for_ = req.candidate;
    co_await PersistHardState();  // persist the vote before granting it
    reply.granted = true;
    last_heartbeat_ = rpc_.machine().loop().Now();
  }
  co_return reply;
}

sim::Task<Result<AppendReply>> RaftNode::HandleAppend(sim::NodeId src, AppendRequest req) {
  AppendReply reply;
  if (req.term > current_term_) {
    BecomeFollower(req.term);
    co_await PersistHardState();
  }
  reply.term = current_term_;
  if (req.term < current_term_) {
    co_return reply;  // stale leader
  }
  // Valid leader for this term.
  role_ = Role::kFollower;
  leader_hint_ = req.leader;
  last_heartbeat_ = rpc_.machine().loop().Now();

  // Log-matching check.
  if (req.prev_log_index > log_.size() ||
      (req.prev_log_index > 0 && log_[req.prev_log_index - 1].term != req.prev_log_term)) {
    co_return reply;  // success = false; leader will back off
  }
  // Append / overwrite conflicting suffix.
  bool mutated = false;
  for (size_t i = 0; i < req.entries.size(); ++i) {
    const uint64_t idx = req.prev_log_index + 1 + i;
    if (idx <= log_.size()) {
      if (log_[idx - 1].term != req.entries[i].term) {
        log_.resize(idx - 1);
        log_.push_back(req.entries[i]);
        mutated = true;
      }
    } else {
      log_.push_back(req.entries[i]);
      mutated = true;
    }
  }
  if (mutated) {
    Status s = co_await PersistLog();
    if (!s.ok()) {
      co_return s;
    }
  }
  const uint64_t last_new = req.prev_log_index + req.entries.size();
  if (req.leader_commit > commit_index_) {
    commit_index_ = std::min<uint64_t>(req.leader_commit, log_.size());
    ApplyCommitted();
  }
  reply.success = true;
  reply.match_index = last_new;
  co_return reply;
}

}  // namespace cheetah::raft
