#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/rpc/node.h"
#include "src/rpc/recent_ids.h"

namespace cheetah::rpc {
namespace {

using sim::EventLoop;
using sim::Machine;
using sim::MachineParams;
using sim::Network;
using sim::NodeId;
using sim::Task;

// All message types carry a user-declared constructor so they are not
// aggregates (see the RpcRequest concept / GCC 12 caution in src/sim/task.h).
struct EchoReply {
  EchoReply() = default;
  explicit EchoReply(std::string t) : text(std::move(t)) {}
  std::string text;
  size_t wire_size() const { return text.size() + 8; }
};
struct EchoRequest {
  using Response = EchoReply;
  EchoRequest() = default;
  explicit EchoRequest(std::string t) : text(std::move(t)) {}
  std::string text;
  size_t wire_size() const { return text.size() + 8; }
};

struct SlowReply {
  SlowReply() = default;
  size_t wire_size() const { return 8; }
};
struct SlowRequest {
  using Response = SlowReply;
  SlowRequest() = default;
  explicit SlowRequest(Nanos d) : delay(d) {}
  Nanos delay = 0;
  size_t wire_size() const { return 16; }
};

struct NoteReply {
  NoteReply() = default;
  size_t wire_size() const { return 8; }
};
struct NoteRequest {
  using Response = NoteReply;
  NoteRequest() = default;
  explicit NoteRequest(int v) : value(v) {}
  int value = 0;
  size_t wire_size() const { return 16; }
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : net_(loop_, sim::NetParams{}),
        server_machine_(loop_, 1, "server", MachineParams{}),
        client_machine_(loop_, 2, "client", MachineParams{}),
        server_(server_machine_, net_),
        client_(client_machine_, net_) {
    server_.Attach();
    client_.Attach();
  }

  EventLoop loop_;
  Network net_;
  Machine server_machine_;
  Machine client_machine_;
  Node server_;
  Node client_;
};

TEST_F(RpcTest, RoundTrip) {
  server_.Serve<EchoRequest>([](NodeId src, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply("echo:" + req.text);
  });
  std::string got;
  client_machine_.actor().Spawn([](Node* c, std::string* out) -> Task<> {
    auto r = co_await c->Call(1, EchoRequest("hi"), Millis(100));
    *out = r.ok() ? r->text : r.status().ToString();
  }(&client_, &got));
  loop_.Run();
  EXPECT_EQ(got, "echo:hi");
}

TEST_F(RpcTest, ErrorStatusPropagates) {
  server_.Serve<EchoRequest>([](NodeId, EchoRequest) -> Task<Result<EchoReply>> {
    co_return Status::NotFound("nope");
  });
  Status got = Status::Ok();
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, EchoRequest("x"), Millis(100));
    *out = r.status();
  }(&client_, &got));
  loop_.Run();
  EXPECT_TRUE(got.IsNotFound());
}

TEST_F(RpcTest, TimeoutWhenServerDead) {
  server_.Serve<EchoRequest>([](NodeId, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply(req.text);
  });
  server_machine_.CrashProcess();
  server_.Detach();
  Status got = Status::Ok();
  Nanos when = 0;
  client_machine_.actor().Spawn([](Node* c, sim::Actor* a, Status* out, Nanos* w) -> Task<> {
    auto r = co_await c->Call(1, EchoRequest("x"), Millis(50));
    *out = r.status();
    *w = a->Now();
  }(&client_, &client_machine_.actor(), &got, &when));
  loop_.Run();
  EXPECT_TRUE(got.IsTimeout());
  EXPECT_EQ(when, Millis(50));
}

TEST_F(RpcTest, TimeoutWhenHandlerTooSlow) {
  server_.Serve<SlowRequest>([](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
    co_await sim::SleepFor(req.delay);
    co_return SlowReply{};
  });
  Status got = Status::Ok();
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, SlowRequest(Millis(200)), Millis(20));
    *out = r.status();
  }(&client_, &got));
  loop_.Run();
  EXPECT_TRUE(got.IsTimeout());
}

TEST_F(RpcTest, ServerCrashMidHandlerTimesOutCaller) {
  server_.Serve<SlowRequest>([](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
    co_await sim::SleepFor(req.delay);
    co_return SlowReply{};
  });
  Status got = Status::Ok();
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, SlowRequest(Millis(30)), Millis(100));
    *out = r.status();
  }(&client_, &got));
  loop_.RunUntil(Millis(10));  // handler is mid-sleep
  server_machine_.CrashProcess();
  server_.Detach();
  loop_.Run();
  EXPECT_TRUE(got.IsTimeout());
}

TEST_F(RpcTest, LateReplyAfterTimeoutIsDropped) {
  server_.Serve<SlowRequest>([](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
    co_await sim::SleepFor(req.delay);
    co_return SlowReply{};
  });
  obs::Counter* dropped = obs::Registry::Global().counter("rpc.late_replies_dropped");
  const uint64_t dropped_before = dropped->value();
  Status got = Status::Ok();
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, SlowRequest(Millis(80)), Millis(20));
    *out = r.status();
  }(&client_, &got));
  loop_.RunUntil(Millis(40));  // past the timeout, before the reply exists
  EXPECT_TRUE(got.IsTimeout());
  EXPECT_EQ(client_.pending_calls(), 0u);  // the timeout erased the pending slot
  loop_.Run();  // the reply lands at ~80ms and must be dropped without crashing
  EXPECT_EQ(client_.pending_calls(), 0u);
  EXPECT_EQ(dropped->value(), dropped_before + 1);
}

TEST_F(RpcTest, NotifyIsFireAndForget) {
  int received = 0;
  server_.Serve<NoteRequest>([&](NodeId, NoteRequest req) -> Task<Result<NoteReply>> {
    received += req.value;
    co_return NoteReply{};
  });
  client_.Notify(1, NoteRequest(5));
  client_.Notify(1, NoteRequest(7));
  loop_.Run();
  EXPECT_EQ(received, 12);
}

TEST_F(RpcTest, ConcurrentCallsKeepIdentity) {
  server_.Serve<SlowRequest>([](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
    co_await sim::SleepFor(req.delay);
    co_return SlowReply{};
  });
  server_.Serve<EchoRequest>([](NodeId, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply(req.text);
  });
  std::string fast_result;
  Nanos fast_done = 0, slow_done = 0;
  client_machine_.actor().Spawn([](Node* c, sim::Actor* a, Nanos* out) -> Task<> {
    (void)co_await c->Call(1, SlowRequest(Millis(50)), Millis(500));
    *out = a->Now();
  }(&client_, &client_machine_.actor(), &slow_done));
  client_machine_.actor().Spawn(
      [](Node* c, sim::Actor* a, std::string* out, Nanos* t) -> Task<> {
        auto r = co_await c->Call(1, EchoRequest("fast"), Millis(500));
        *out = r.ok() ? r->text : "ERR";
        *t = a->Now();
      }(&client_, &client_machine_.actor(), &fast_result, &fast_done));
  loop_.Run();
  EXPECT_EQ(fast_result, "fast");
  EXPECT_LT(fast_done, slow_done);  // replies matched to the right callers
}

TEST_F(RpcTest, RestartedServerServesAgain) {
  server_.Serve<EchoRequest>([](NodeId, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply("v2:" + req.text);
  });
  server_machine_.CrashProcess();
  server_.Detach();
  server_machine_.Restart();
  server_.Attach();  // handlers persist across Detach/Attach
  std::string got;
  client_machine_.actor().Spawn([](Node* c, std::string* out) -> Task<> {
    auto r = co_await c->Call(1, EchoRequest("x"), Millis(100));
    *out = r.ok() ? r->text : "ERR";
  }(&client_, &got));
  loop_.Run();
  EXPECT_EQ(got, "v2:x");
}

// With a network that duplicates every message, each request's handler runs
// once: every call and notification gets through, and every second copy is
// dropped by the server's recent-id window.
TEST_F(RpcTest, DuplicatedRequestsRunTheirHandlerOnce) {
  sim::LinkFaults dup;
  dup.dup_prob = 1.0;
  dup.max_extra_delay = Micros(300);  // some copies overtake later calls
  net_.SeedFaults(11);
  net_.SetDefaultLinkFaults(dup);
  std::vector<std::string> handled;
  server_.Serve<EchoRequest>([&](NodeId, EchoRequest req) -> Task<Result<EchoReply>> {
    handled.push_back(req.text);
    co_return EchoReply(req.text);
  });
  obs::Counter* dropped = obs::Registry::Global().counter("rpc.duplicate_requests_dropped");
  const uint64_t dropped_before = dropped->value();
  constexpr int kCalls = 40;
  int ok = 0;
  for (int i = 0; i < kCalls; ++i) {
    client_machine_.actor().Spawn([](Node* c, int i, int* ok) -> Task<> {
      auto r = co_await c->Call(1, EchoRequest(std::to_string(i)), Millis(100));
      *ok += r.ok() && r->text == std::to_string(i);
    }(&client_, i, &ok));
  }
  client_.Notify(1, EchoRequest("note"));
  loop_.Run();
  EXPECT_EQ(ok, kCalls);
  ASSERT_EQ(handled.size(), static_cast<size_t>(kCalls + 1));
  std::sort(handled.begin(), handled.end());
  EXPECT_EQ(std::adjacent_find(handled.begin(), handled.end()), handled.end());
  EXPECT_EQ(dropped->value() - dropped_before, static_cast<uint64_t>(kCalls + 1));
}

// ---- RecentIds: the per-peer dedup window ----------------------------------

// The window's rule as a std::set: an id is a duplicate if it is at or below
// the floor or already held; past kWindow ids the smallest is evicted and
// becomes the floor.
class ReferenceWindow {
 public:
  bool SeenBefore(uint64_t id) {
    if (id <= floor_ || ids_.contains(id)) {
      return true;
    }
    ids_.insert(id);
    while (ids_.size() > RecentIds::kWindow) {
      floor_ = std::max(floor_, *ids_.begin());
      ids_.erase(ids_.begin());
    }
    return false;
  }
  uint64_t floor() const { return floor_; }
  size_t size() const { return ids_.size(); }

 private:
  uint64_t floor_ = 0;
  std::set<uint64_t> ids_;
};

// Feeds one id stream to both windows and requires every decision to match.
void ExpectSameDecisions(const std::vector<uint64_t>& stream, const char* name) {
  RecentIds window;
  ReferenceWindow reference;
  size_t dups = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const bool want = reference.SeenBefore(stream[i]);
    ASSERT_EQ(window.SeenBefore(stream[i]), want)
        << name << ": id " << stream[i] << " at position " << i;
    ASSERT_EQ(window.floor(), reference.floor()) << name << " at position " << i;
    ASSERT_EQ(window.size(), reference.size()) << name << " at position " << i;
    dups += want;
  }
  // Every stream mixes fresh ids with duplicates and overflows the window.
  EXPECT_GT(dups, 0u) << name;
  EXPECT_LT(dups, stream.size()) << name;
  EXPECT_GT(reference.floor(), 0u) << name;
}

// Randomized model test: ascending call ids with gaps, held-back ids that
// arrive late (some after they fell below the floor), repeats of recent and
// old ids, and out-of-order bursts, each stream well over kWindow ids.
TEST(RecentIds, MatchesSetReferenceOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull);
    std::vector<uint64_t> stream;
    std::vector<uint64_t> held;  // delayed copies, released later
    uint64_t next = 1;
    const size_t len = 3 * RecentIds::kWindow + rng.Uniform(4 * RecentIds::kWindow);
    while (stream.size() < len) {
      const uint64_t pick = rng.Uniform(100);
      if (pick < 55) {
        next += rng.Uniform(100) < 10 ? rng.UniformRange(2, 50) : 1;  // gaps
        stream.push_back(next);
      } else if (pick < 65) {
        held.push_back(++next);  // overtaken by later ids
      } else if (pick < 78 && !held.empty()) {
        const size_t at = rng.Uniform(held.size());
        stream.push_back(held[at]);
        if (rng.Uniform(4) != 0) {
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(at));  // else resent later
        }
      } else if (pick < 90 && !stream.empty()) {
        // A repeat of a recent id, or of one long gone below the floor.
        const size_t back = rng.Uniform(100) < 80 ? rng.Uniform(std::min<size_t>(stream.size(), 64))
                                                  : rng.Uniform(stream.size());
        stream.push_back(stream[stream.size() - 1 - back]);
      } else {
        // A burst of the next few ids in shuffled order.
        std::vector<uint64_t> burst;
        for (uint64_t k = 0; k < 2 + rng.Uniform(14); ++k) {
          burst.push_back(++next);
        }
        for (size_t k = burst.size(); k > 1; --k) {
          std::swap(burst[k - 1], burst[rng.Uniform(k)]);
        }
        stream.insert(stream.end(), burst.begin(), burst.end());
      }
    }
    ExpectSameDecisions(stream, ("seed " + std::to_string(seed)).c_str());
  }
}

// Extremes the random streams rarely hit: ids drawn uniformly from a range
// much wider than the window (most arrivals out of order, many evicted at
// once), and a descending stream, where every new id is the window's
// smallest and is evicted the moment the window is full.
TEST(RecentIds, MatchesSetReferenceOnAdversarialStreams) {
  Rng rng(77);
  std::vector<uint64_t> uniform;
  for (int i = 0; i < 6 * static_cast<int>(RecentIds::kWindow); ++i) {
    uniform.push_back(1 + rng.Uniform(5 * RecentIds::kWindow));
  }
  ExpectSameDecisions(uniform, "uniform");

  std::vector<uint64_t> descending;
  for (uint64_t id = 3 * RecentIds::kWindow; id > 0; --id) {
    descending.push_back(id + RecentIds::kWindow);
    descending.push_back(id + RecentIds::kWindow);  // an immediate repeat
  }
  for (uint64_t id = 1; id <= RecentIds::kWindow + 10; ++id) {
    descending.push_back(id);  // all below the floor by now
  }
  ExpectSameDecisions(descending, "descending");
}

}  // namespace
}  // namespace cheetah::rpc
