// Unit tests for the per-key linearizability checker: known-good histories
// must pass, known-bad ones must be flagged, and the ambiguity rules
// (timeouts that may land later, delete-NotFound duality) must not produce
// false positives.
#include <gtest/gtest.h>

#include <string>

#include "src/chaos/history.h"

namespace cheetah::chaos {
namespace {

// Shorthand for composing histories at explicit virtual times.
struct Builder {
  History h;
  uint64_t Op(int client, OpType t, const std::string& key, const std::string& val,
              Nanos inv, Nanos ret, Outcome out, const std::string& observed = "") {
    const uint64_t id = h.Invoke(client, t, key, val, inv);
    h.Return(id, out, observed, ret);
    return id;
  }
  uint64_t Pending(int client, OpType t, const std::string& key, const std::string& val,
                   Nanos inv) {
    return h.Invoke(client, t, key, val, inv);
  }
};

TEST(HistoryChecker, EmptyHistoryIsLinearizable) {
  History h;
  EXPECT_TRUE(CheckLinearizable(h).empty());
}

TEST(HistoryChecker, SimplePutGetDelete) {
  Builder b;
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kOk);
  b.Op(0, OpType::kGet, "k", "", 20, 30, Outcome::kOk, "v1");
  b.Op(0, OpType::kDelete, "k", "", 40, 50, Outcome::kOk);
  b.Op(0, OpType::kGet, "k", "", 60, 70, Outcome::kNotFound);
  EXPECT_TRUE(CheckLinearizable(b.h).empty());
}

TEST(HistoryChecker, StaleReadAfterAckedWriteIsViolation) {
  Builder b;
  // Put acked at t=10, but a later get claims the key is absent.
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kOk);
  b.Op(1, OpType::kGet, "k", "", 20, 30, Outcome::kNotFound);
  auto v = CheckLinearizable(b.h);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].key, "k");
}

TEST(HistoryChecker, ResurrectionAfterAckedDeleteIsViolation) {
  Builder b;
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kOk);
  b.Op(0, OpType::kDelete, "k", "", 20, 30, Outcome::kOk);
  b.Op(1, OpType::kGet, "k", "", 40, 50, Outcome::kOk, "v1");  // came back!
  EXPECT_EQ(CheckLinearizable(b.h).size(), 1u);
}

TEST(HistoryChecker, TornReadIsViolation) {
  Builder b;
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kOk);
  b.Op(1, OpType::kGet, "k", "", 20, 30, Outcome::kOk, "v1-torn");
  auto v = CheckLinearizable(b.h);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].reason.find("no put wrote"), std::string::npos);
}

TEST(HistoryChecker, AmbiguousPutMayLandLate) {
  Builder b;
  // The put timed out at t=10, but the cleaner completed it server-side:
  // a much later get legitimately observes it.
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kAmbiguous);
  b.Op(1, OpType::kGet, "k", "", 100, 110, Outcome::kOk, "v1");
  EXPECT_TRUE(CheckLinearizable(b.h).empty());
}

TEST(HistoryChecker, AmbiguousPutMayNeverLand) {
  Builder b;
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kAmbiguous);
  b.Op(1, OpType::kGet, "k", "", 100, 110, Outcome::kNotFound);
  EXPECT_TRUE(CheckLinearizable(b.h).empty());
}

TEST(HistoryChecker, AmbiguousPutCannotFlipFlop) {
  Builder b;
  // Observed, then gone, with no delete anywhere: the single ambiguous put
  // cannot explain both observations.
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kAmbiguous);
  b.Op(1, OpType::kGet, "k", "", 100, 110, Outcome::kOk, "v1");
  b.Op(1, OpType::kGet, "k", "", 120, 130, Outcome::kNotFound);
  EXPECT_EQ(CheckLinearizable(b.h).size(), 1u);
}

TEST(HistoryChecker, DeleteNotFoundAfterOwnTimedOutAttempt) {
  Builder b;
  // The proxy's first delete attempt landed server-side but the reply was
  // lost; the retry observed NotFound. The object must stay deleted.
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kOk);
  b.Op(0, OpType::kDelete, "k", "", 20, 40, Outcome::kNotFound);
  b.Op(1, OpType::kGet, "k", "", 50, 60, Outcome::kNotFound);
  EXPECT_TRUE(CheckLinearizable(b.h).empty());
}

TEST(HistoryChecker, CreateOnceSemantics) {
  Builder b;
  // Two concurrent puts to the same fresh key: one Ok, one AlreadyExists.
  b.Op(0, OpType::kPut, "k", "v1", 0, 20, Outcome::kOk);
  b.Op(1, OpType::kPut, "k", "v2", 5, 25, Outcome::kNoEffect);
  b.Op(0, OpType::kGet, "k", "", 30, 40, Outcome::kOk, "v1");
  EXPECT_TRUE(CheckLinearizable(b.h).empty());
}

TEST(HistoryChecker, ObservingTheLoserIsViolation) {
  Builder b;
  // If the AlreadyExists put's value becomes visible, that's a bug.
  b.Op(0, OpType::kPut, "k", "v1", 0, 20, Outcome::kOk);
  b.Op(1, OpType::kPut, "k", "v2", 5, 25, Outcome::kNoEffect);
  b.Op(0, OpType::kGet, "k", "", 30, 40, Outcome::kOk, "v2");
  EXPECT_EQ(CheckLinearizable(b.h).size(), 1u);
}

TEST(HistoryChecker, DeleteThenRecreate) {
  Builder b;
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kOk);
  b.Op(0, OpType::kDelete, "k", "", 20, 30, Outcome::kOk);
  b.Op(0, OpType::kPut, "k", "v2", 40, 50, Outcome::kOk);
  b.Op(1, OpType::kGet, "k", "", 60, 70, Outcome::kOk, "v2");
  EXPECT_TRUE(CheckLinearizable(b.h).empty());
}

TEST(HistoryChecker, ReadMustRespectRealTimeOrder) {
  Builder b;
  // v2 was observed before v1's delete+recreate sequence even started — but
  // here there is no such sequence, so observing v1 after v2's ack is stale.
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kOk);
  b.Op(0, OpType::kDelete, "k", "", 20, 30, Outcome::kOk);
  b.Op(0, OpType::kPut, "k", "v2", 40, 50, Outcome::kOk);
  b.Op(1, OpType::kGet, "k", "", 60, 70, Outcome::kOk, "v1");  // stale value
  EXPECT_EQ(CheckLinearizable(b.h).size(), 1u);
}

TEST(HistoryChecker, ConcurrentReadsMayDisagreeDuringWindow) {
  Builder b;
  // A get concurrent with the put may see either state.
  b.Op(0, OpType::kPut, "k", "v1", 0, 50, Outcome::kOk);
  b.Op(1, OpType::kGet, "k", "", 10, 20, Outcome::kNotFound);
  b.Op(2, OpType::kGet, "k", "", 30, 45, Outcome::kOk, "v1");
  EXPECT_TRUE(CheckLinearizable(b.h).empty());
}

TEST(HistoryChecker, PendingOpIsAmbiguous) {
  Builder b;
  b.Pending(0, OpType::kPut, "k", "v1", 0);  // client never saw a reply
  b.Op(1, OpType::kGet, "k", "", 100, 110, Outcome::kOk, "v1");
  EXPECT_TRUE(CheckLinearizable(b.h).empty());
}

TEST(HistoryChecker, MultiKeyHistoriesAreIndependent) {
  Builder b;
  b.Op(0, OpType::kPut, "a", "v1", 0, 10, Outcome::kOk);
  b.Op(0, OpType::kPut, "b", "v2", 20, 30, Outcome::kOk);
  b.Op(1, OpType::kGet, "a", "", 40, 50, Outcome::kNotFound);  // a is broken
  b.Op(1, OpType::kGet, "b", "", 40, 50, Outcome::kOk, "v2");  // b is fine
  auto v = CheckLinearizable(b.h);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].key, "a");
}

TEST(HistoryChecker, SerializeIsStable) {
  Builder b;
  b.Op(0, OpType::kPut, "k", "v1", 0, 10, Outcome::kOk);
  b.Op(1, OpType::kGet, "k", "", 20, 30, Outcome::kOk, "v1");
  const std::string once = b.h.Serialize();
  EXPECT_FALSE(once.empty());
  EXPECT_EQ(once, b.h.Serialize());
  EXPECT_NE(once.find("put"), std::string::npos);
}

// The sweep history hashes and perfbench's fingerprint hash this exact text,
// so its format is pinned byte for byte: one line per op, tab-separated id,
// client, type, key, value, outcome ("undone" while pending), invoke, ret.
TEST(HistoryChecker, SerializeGolden) {
  Builder b;
  b.Op(0, OpType::kPut, "k", "v1", 5, 17, Outcome::kOk);
  b.Pending(12, OpType::kGet, "k", "", 20);
  b.Op(1, OpType::kDelete, "gone", "", 30, 18446744073709551615ull, Outcome::kNotFound);
  EXPECT_EQ(b.h.Serialize(),
            "1\t0\tput\tk\tv1\tok\t5\t17\n"
            "2\t12\tget\tk\t\tundone\t20\t0\n"
            "3\t1\tdel\tgone\t\tnotfound\t30\t18446744073709551615\n");
}

// Returns arrive in any order and each lands on the op it names; an id the
// history never issued changes nothing.
TEST(HistoryChecker, OutOfOrderReturnsLandOnTheirOwnOps) {
  History h;
  const uint64_t a = h.Invoke(0, OpType::kPut, "a", "va", 10);
  const uint64_t b = h.Invoke(1, OpType::kGet, "b", "", 11);
  const uint64_t c = h.Invoke(2, OpType::kDelete, "c", "", 12);
  const uint64_t d = h.Invoke(3, OpType::kGet, "d", "", 13);
  h.Return(c, Outcome::kNotFound, "", 40);
  h.Return(a, Outcome::kAmbiguous, "", 50);
  h.Return(d, Outcome::kOk, "vd", 30);
  h.Return(0, Outcome::kOk, "x", 99);
  h.Return(5, Outcome::kOk, "x", 99);
  ASSERT_EQ(h.size(), 4u);
  const auto& ops = h.ops();
  EXPECT_EQ(ops[0].id, a);
  EXPECT_TRUE(ops[0].done);
  EXPECT_EQ(ops[0].outcome, Outcome::kAmbiguous);
  EXPECT_EQ(ops[0].ret, 50u);
  EXPECT_EQ(ops[0].value, "va");
  EXPECT_EQ(ops[1].id, b);
  EXPECT_FALSE(ops[1].done);
  EXPECT_EQ(ops[2].id, c);
  EXPECT_EQ(ops[2].outcome, Outcome::kNotFound);
  EXPECT_EQ(ops[2].ret, 40u);
  EXPECT_EQ(ops[3].id, d);
  EXPECT_EQ(ops[3].outcome, Outcome::kOk);
  EXPECT_EQ(ops[3].ret, 30u);
  EXPECT_EQ(ops[3].value, "vd");
  EXPECT_EQ(h.Serialize(),
            "1\t0\tput\ta\tva\tambiguous\t10\t50\n"
            "2\t1\tget\tb\t\tundone\t11\t0\n"
            "3\t2\tdel\tc\t\tnotfound\t12\t40\n"
            "4\t3\tget\td\tvd\tok\t13\t30\n");
}

TEST(HistoryChecker, OverlongHistoryIsLoudNotSilent) {
  Builder b;
  for (int i = 0; i < 70; ++i) {
    b.Op(0, OpType::kGet, "k", "", i * 10, i * 10 + 5, Outcome::kNotFound);
  }
  auto v = CheckLinearizable(b.h);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].reason.find("too long"), std::string::npos);
}

}  // namespace
}  // namespace cheetah::chaos
