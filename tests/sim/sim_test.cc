#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"
#include "src/sim/resource.h"
#include "src/sim/storage.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace cheetah::sim {
namespace {

TEST(EventLoopTest, AdvancesVirtualTime) {
  EventLoop loop;
  Nanos seen = 0;
  loop.ScheduleAt(Millis(5), [&] { seen = loop.Now(); });
  loop.Run();
  EXPECT_EQ(seen, Millis(5));
  EXPECT_EQ(loop.Now(), Millis(5));
}

TEST(EventLoopTest, FifoWithinSameTimestamp) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(10, [&] { order.push_back(2); });
  loop.ScheduleAt(5, [&] { order.push_back(0); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(10, [&] { ++ran; });
  loop.ScheduleAt(100, [&] { ++ran; });
  loop.RunUntil(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.Now(), 50u);
  loop.Run();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  int depth = 0;
  loop.ScheduleAt(1, [&] {
    loop.ScheduleAfter(1, [&] {
      loop.ScheduleAfter(1, [&] { depth = 3; });
    });
  });
  loop.Run();
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(loop.Now(), 3u);
}

TEST(TaskTest, SimpleCoroutineCompletes) {
  EventLoop loop;
  Actor actor(loop);
  int result = 0;
  actor.Spawn([](int* out) -> Task<> {
    auto inner = []() -> Task<int> { co_return 21; };
    int a = co_await inner();
    int b = co_await inner();
    *out = a + b;
  }(&result));
  loop.Run();
  EXPECT_EQ(result, 42);
}

TEST(TaskTest, SleepAdvancesTime) {
  EventLoop loop;
  Actor actor(loop);
  Nanos woke = 0;
  actor.Spawn([](Actor* a, Nanos* out) -> Task<> {
    co_await SleepFor(Millis(3));
    co_await SleepFor(Millis(4));
    *out = a->Now();
  }(&actor, &woke));
  loop.Run();
  EXPECT_EQ(woke, Millis(7));
}

TEST(TaskTest, NestedTasksPropagateActor) {
  EventLoop loop;
  Actor actor(loop);
  Actor* observed = nullptr;
  actor.Spawn([](Actor** out) -> Task<> {
    auto inner = [](Actor** out) -> Task<> {
      co_await SleepFor(1);  // requires actor propagation to work
      *out = co_await CurrentActor{};
    };
    co_await inner(out);
  }(&observed));
  loop.Run();
  EXPECT_EQ(observed, &actor);
}

TEST(ActorTest, KillStopsCoroutines) {
  EventLoop loop;
  Actor actor(loop);
  int progress = 0;
  actor.Spawn([](int* p) -> Task<> {
    *p = 1;
    co_await SleepFor(Millis(10));
    *p = 2;  // must never run
  }(&progress));
  loop.RunUntil(Millis(1));
  actor.Kill();
  loop.Run();
  EXPECT_EQ(progress, 1);
}

TEST(ActorTest, KillRunsDestructorsOfFrames) {
  EventLoop loop;
  Actor actor(loop);
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> weak = token;
  actor.Spawn([](std::shared_ptr<int> t) -> Task<> {
    co_await SleepFor(Millis(10));
    (void)*t;
  }(std::move(token)));
  loop.RunUntil(Millis(1));
  EXPECT_FALSE(weak.expired());  // frame holds the token
  actor.Kill();
  EXPECT_TRUE(weak.expired());  // frame destroyed, token released
}

TEST(ActorTest, ReviveAllowsNewWork) {
  EventLoop loop;
  Actor actor(loop);
  actor.Kill();
  actor.Revive();
  int ran = 0;
  actor.Spawn([](int* r) -> Task<> {
    *r = 1;
    co_return;
  }(&ran));
  loop.Run();
  EXPECT_EQ(ran, 1);
}

TEST(ActorTest, StaleTimerAfterKillIsIgnored) {
  EventLoop loop;
  Actor actor(loop);
  int hits = 0;
  actor.Spawn([](int* h) -> Task<> {
    co_await SleepFor(Millis(5));
    ++*h;
  }(&hits));
  actor.Kill();
  actor.Revive();
  actor.Spawn([](int* h) -> Task<> {
    co_await SleepFor(Millis(5));
    *h += 10;
  }(&hits));
  loop.Run();
  EXPECT_EQ(hits, 10);  // only the post-revive coroutine ran
}

TEST(SyncTest, EventWakesWaiter) {
  EventLoop loop;
  Actor actor(loop);
  Event event;
  int stage = 0;
  actor.Spawn([](Event* e, int* s) -> Task<> {
    *s = 1;
    co_await e->Wait();
    *s = 2;
  }(&event, &stage));
  loop.Run();
  EXPECT_EQ(stage, 1);
  event.Set();
  loop.Run();
  EXPECT_EQ(stage, 2);
}

TEST(SyncTest, WaitAfterSetCompletesImmediately) {
  EventLoop loop;
  Actor actor(loop);
  Event event;
  event.Set();
  int done = 0;
  actor.Spawn([](Event* e, int* d) -> Task<> {
    co_await e->Wait();
    *d = 1;
  }(&event, &done));
  loop.Run();
  EXPECT_EQ(done, 1);
}

TEST(SyncTest, TimedWaitTimesOut) {
  EventLoop loop;
  Actor actor(loop);
  Event event;
  bool fired = true;
  Nanos when = 0;
  actor.Spawn([](Actor* a, Event* e, bool* f, Nanos* w) -> Task<> {
    *f = co_await e->TimedWait(Millis(10));
    *w = a->Now();
  }(&actor, &event, &fired, &when));
  loop.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(when, Millis(10));
}

TEST(SyncTest, TimedWaitSeesEvent) {
  EventLoop loop;
  Actor actor(loop);
  Event event;
  bool fired = false;
  Nanos woke = 0;
  actor.Spawn([](Actor* a, Event* e, bool* f, Nanos* w) -> Task<> {
    *f = co_await e->TimedWait(Millis(10));
    *w = a->Now();
  }(&actor, &event, &fired, &woke));
  loop.ScheduleAt(Millis(2), [&] { event.Set(); });
  loop.Run();
  EXPECT_TRUE(fired);
  EXPECT_LT(woke, Millis(10));  // woke on the event, not the timeout
}

// Set() cancels the waiter's timeout: nothing stays queued behind the wake,
// and the clock stops at the last live event instead of the dead timer.
TEST(SyncTest, TimedWaitSatisfiedByEventCancelsItsTimeout) {
  EventLoop loop;
  Actor actor(loop);
  Event event;
  bool fired = false;
  actor.Spawn([](Event* e, bool* f) -> Task<> {
    *f = co_await e->TimedWait(Millis(500));
  }(&event, &fired));
  loop.RunUntil(Millis(1));
  ASSERT_EQ(loop.pending_events(), 1u);  // the timeout
  const uint64_t fired_before = loop.events_fired();
  loop.ScheduleAt(Millis(2), [&] { event.Set(); });
  loop.RunUntil(Millis(3));
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.events_fired(), fired_before + 2);  // Set, then the resume
  loop.Run();
  EXPECT_EQ(loop.events_fired(), fired_before + 2);
  EXPECT_EQ(loop.Now(), Millis(3));
}

TEST(SyncTest, LatchCountsDown) {
  EventLoop loop;
  Actor actor(loop);
  Latch latch(3);
  int done = 0;
  actor.Spawn([](Latch* l, int* d) -> Task<> {
    co_await l->Wait();
    *d = 1;
  }(&latch, &done));
  loop.Run();
  latch.CountDown();
  latch.CountDown();
  loop.Run();
  EXPECT_EQ(done, 0);
  latch.CountDown();
  loop.Run();
  EXPECT_EQ(done, 1);
}

TEST(SyncTest, QueueDeliversInOrder) {
  EventLoop loop;
  Actor actor(loop);
  Queue<int> queue;
  std::vector<int> got;
  actor.Spawn([](Queue<int>* q, std::vector<int>* out) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      out->push_back(co_await q->Pop());
    }
  }(&queue, &got));
  queue.Push(1);
  queue.Push(2);
  loop.Run();
  queue.Push(3);
  loop.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SyncTest, WhenAllJoinsResults) {
  EventLoop loop;
  Actor actor(loop);
  std::vector<int> results;
  actor.Spawn([](std::vector<int>* out) -> Task<> {
    auto make = [](Nanos d, int v) -> Task<int> {
      co_await SleepFor(d);
      co_return v;
    };
    std::vector<Task<int>> tasks;
    tasks.push_back(make(Millis(3), 30));
    tasks.push_back(make(Millis(1), 10));
    tasks.push_back(make(Millis(2), 20));
    *out = co_await WhenAll(std::move(tasks));
  }(&results));
  loop.Run();
  EXPECT_EQ(results, (std::vector<int>{30, 10, 20}));
  EXPECT_EQ(loop.Now(), Millis(3));  // parallel, not sequential (6ms)
}

TEST(ResourceTest, SingleServerSerializes) {
  EventLoop loop;
  Actor actor(loop);
  Resource res(loop, 1);
  std::vector<Nanos> done;
  for (int i = 0; i < 3; ++i) {
    actor.Spawn([](Actor* a, Resource* r, std::vector<Nanos>* out) -> Task<> {
      co_await r->Use(Millis(10));
      out->push_back(a->Now());
    }(&actor, &res, &done));
  }
  loop.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], Millis(10));
  EXPECT_EQ(done[1], Millis(20));
  EXPECT_EQ(done[2], Millis(30));
}

TEST(ResourceTest, ParallelServersOverlap) {
  EventLoop loop;
  Actor actor(loop);
  Resource res(loop, 2);
  std::vector<Nanos> done;
  for (int i = 0; i < 4; ++i) {
    actor.Spawn([](Actor* a, Resource* r, std::vector<Nanos>* out) -> Task<> {
      co_await r->Use(Millis(10));
      out->push_back(a->Now());
    }(&actor, &res, &done));
  }
  loop.Run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], Millis(10));
  EXPECT_EQ(done[1], Millis(10));
  EXPECT_EQ(done[2], Millis(20));
  EXPECT_EQ(done[3], Millis(20));
}

class StorageTest : public ::testing::Test {
 protected:
  EventLoop loop_;
  Actor actor_{loop_};
  Storage storage_{loop_, DiskParams{}};

  void RunTask(Task<> t) {
    actor_.Spawn(std::move(t));
    loop_.Run();
  }
};

TEST_F(StorageTest, AppendAndReadBack) {
  std::string got;
  RunTask([](Storage* s, std::string* out) -> Task<> {
    (void)co_await s->Append("wal", "hello ", true);
    (void)co_await s->Append("wal", "world", true);
    auto r = co_await s->ReadFile("wal");
    *out = r.ok() ? r->ToString() : "ERR";
  }(&storage_, &got));
  EXPECT_EQ(got, "hello world");
}

TEST_F(StorageTest, ReadAtSlices) {
  std::string got;
  RunTask([](Storage* s, std::string* out) -> Task<> {
    (void)co_await s->Append("f", "0123456789", true);
    auto r = co_await s->ReadAt("f", 3, 4);
    *out = r.ok() ? r->ToString() : "ERR";
  }(&storage_, &got));
  EXPECT_EQ(got, "3456");
}

TEST_F(StorageTest, PowerLossDropsUnsyncedTail) {
  std::string got;
  RunTask([](Storage* s, std::string* out) -> Task<> {
    (void)co_await s->Append("wal", "durable|", true);
    (void)co_await s->Append("wal", "volatile", false);
    s->PowerLoss();
    auto r = co_await s->ReadFile("wal");
    *out = r.ok() ? r->ToString() : "ERR";
  }(&storage_, &got));
  EXPECT_EQ(got, "durable|");
}

TEST_F(StorageTest, PowerLossDropsNeverSyncedFile) {
  bool exists = true;
  RunTask([](Storage* s, bool* out) -> Task<> {
    (void)co_await s->Append("tmp", "data", false);
    s->PowerLoss();
    *out = s->FileExists("tmp");
  }(&storage_, &exists));
  EXPECT_FALSE(exists);
}

TEST_F(StorageTest, WriteFileReplaces) {
  std::string got;
  RunTask([](Storage* s, std::string* out) -> Task<> {
    (void)co_await s->WriteFile("m", Bytes("v1"), true);
    (void)co_await s->WriteFile("m", Bytes("version2"), true);
    auto r = co_await s->ReadFile("m");
    *out = r.ok() ? r->ToString() : "ERR";
  }(&storage_, &got));
  EXPECT_EQ(got, "version2");
}

TEST_F(StorageTest, ListFilesByPrefix) {
  RunTask([](Storage* s) -> Task<> {
    (void)co_await s->Append("sst_1", "a", true);
    (void)co_await s->Append("sst_2", "b", true);
    (void)co_await s->Append("wal_1", "c", true);
  }(&storage_));
  EXPECT_EQ(storage_.ListFiles("sst_").size(), 2u);
  EXPECT_EQ(storage_.ListFiles("wal_").size(), 1u);
}

TEST_F(StorageTest, BlockVolumeRoundTrip) {
  std::string got;
  uint32_t crc = 0;
  RunTask([](Storage* s, std::string* out, uint32_t* crc_out) -> Task<> {
    (void)co_await s->WriteBlocks("vol0", 4096, Bytes("blockdata"), 77);
    auto r = co_await s->ReadBlocks("vol0", 4096, 9);
    *out = r.ok() ? r->ToString() : "ERR";
    auto p = co_await s->ProbeChecksum("vol0", 4096);
    *crc_out = p.ok() ? *p : 0;
  }(&storage_, &got, &crc));
  EXPECT_EQ(got, "blockdata");
  EXPECT_EQ(crc, 77u);
}

TEST_F(StorageTest, BlockVolumesSurvivePowerLoss) {
  std::string got;
  RunTask([](Storage* s, std::string* out) -> Task<> {
    (void)co_await s->WriteBlocks("vol0", 0, Bytes("persist"), 1);
    s->PowerLoss();
    auto r = co_await s->ReadBlocks("vol0", 0, 7);
    *out = r.ok() ? r->ToString() : "ERR";
  }(&storage_, &got));
  EXPECT_EQ(got, "persist");
}

// A read whose extent is discarded or rewritten at another length while the
// transfer runs completes with the blocks it started on; one rewritten at
// the same length sees the new blocks. Either way it never touches the
// freed extent (an ASan run caught the old reader dereferencing it).
TEST_F(StorageTest, ReadRacingDiscardOrRewrite) {
  RunTask([](Storage* s) -> Task<> {
    for (char c : {'a', 'b', 'c'}) {
      (void)co_await s->WriteBlocks("vol0", MiB(2) * (c - 'a'), Bytes(std::string(MiB(1), c)),
                                    1);
    }
  }(&storage_));
  // Both rewrites and the discard land while the three 1 MiB reads still
  // wait for the shared bus (each holds it ~420 us).
  actor_.Spawn([](Storage* s) -> Task<> {
    (void)co_await s->WriteBlocks("vol0", MiB(2), Bytes(std::string(100, 'x')), 2);
  }(&storage_));
  actor_.Spawn([](Storage* s) -> Task<> {
    (void)co_await s->WriteBlocks("vol0", MiB(4), Bytes(std::string(MiB(1), 'z')), 3);
  }(&storage_));
  actor_.Spawn([](Storage* s) -> Task<> {
    co_await SleepFor(Micros(100));
    s->DiscardBlocks("vol0", 0);
  }(&storage_));
  std::vector<std::string> got(3);
  for (int i = 0; i < 3; ++i) {
    actor_.Spawn([](Storage* s, int i, std::string* out) -> Task<> {
      auto r = co_await s->ReadBlocks("vol0", MiB(2) * i, MiB(1));
      *out = r.ok() ? r->ToString() : r.status().ToString();
    }(&storage_, i, &got[i]));
  }
  loop_.Run();
  EXPECT_EQ(got[0], std::string(MiB(1), 'a'));  // discarded mid-read
  EXPECT_EQ(got[1], std::string(MiB(1), 'b'));  // rewritten shorter mid-read
  EXPECT_EQ(got[2], std::string(MiB(1), 'z'));  // rewritten in place mid-read
}

TEST_F(StorageTest, DiscardFreesAccounting) {
  RunTask([](Storage* s) -> Task<> {
    (void)co_await s->WriteBlocks("vol0", 0, Bytes("aaaa"), 1);
    (void)co_await s->WriteBlocks("vol0", 100, Bytes("bbbb"), 2);
  }(&storage_));
  EXPECT_EQ(storage_.VolumeBytesUsed("vol0"), 8u);
  storage_.DiscardBlocks("vol0", 0);
  EXPECT_EQ(storage_.VolumeBytesUsed("vol0"), 4u);
}

TEST_F(StorageTest, WriteLatencyScalesWithSize) {
  Nanos small_done = 0, large_done = 0;
  actor_.Spawn([](Actor* a, Storage* s, Nanos* out) -> Task<> {
    (void)co_await s->Append("small", std::string(4096, 'x'), true);
    *out = a->Now();
  }(&actor_, &storage_, &small_done));
  loop_.Run();
  EventLoop loop2;
  Actor actor2(loop2);
  Storage storage2(loop2, DiskParams{});
  actor2.Spawn([](Actor* a, Storage* s, Nanos* out) -> Task<> {
    (void)co_await s->Append("large", std::string(4 * 1024 * 1024, 'x'), true);
    *out = a->Now();
  }(&actor2, &storage2, &large_done));
  loop2.Run();
  EXPECT_GT(large_done, small_done * 10);
}

TEST(NetworkTest, DeliversWithLatency) {
  EventLoop loop;
  Network net(loop, NetParams{});
  Nanos arrived = 0;
  net.Register(1, [](auto...) {});
  net.Register(2, [&](NodeId src, sim::AnyMsg msg, size_t bytes) { arrived = loop.Now(); });
  net.Send(1, 2, std::string("hi"), 100);
  loop.Run();
  EXPECT_GE(arrived, Micros(60));
}

TEST(NetworkTest, DropsToUnregistered) {
  EventLoop loop;
  Network net(loop, NetParams{});
  net.Register(1, [](auto...) {});
  int delivered = 0;
  net.Send(1, 9, std::string("hi"), 100);
  loop.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, PartitionBlocksBothDirections) {
  EventLoop loop;
  Network net(loop, NetParams{});
  int delivered = 0;
  net.Register(1, [&](auto...) { ++delivered; });
  net.Register(2, [&](auto...) { ++delivered; });
  net.SetPartitioned(1, 2, true);
  net.Send(1, 2, 0, 10);
  net.Send(2, 1, 0, 10);
  loop.Run();
  EXPECT_EQ(delivered, 0);
  net.SetPartitioned(1, 2, false);
  net.Send(1, 2, 0, 10);
  loop.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, BandwidthSerializesLargeSends) {
  EventLoop loop;
  NetParams params;
  params.nic_lanes = 1;
  params.bw_bytes_per_sec = 1.25e9;  // pin: the test asserts exact timing
  Network net(loop, params);
  std::vector<Nanos> arrivals;
  net.Register(1, [](auto...) {});
  net.Register(2, [&](auto...) { arrivals.push_back(loop.Now()); });
  // Two 1.25MB messages on a 1.25GB/s NIC: 1ms serialization each.
  net.Send(1, 2, 0, 1250000);
  net.Send(1, 2, 0, 1250000);
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], Millis(1) - Micros(10));
}

TEST(MachineTest, CrashAndRestart) {
  EventLoop loop;
  Machine m(loop, 1, "m1", MachineParams{});
  int progress = 0;
  m.actor().Spawn([](int* p) -> Task<> {
    *p = 1;
    co_await SleepFor(Millis(100));
    *p = 2;
  }(&progress));
  loop.RunUntil(Millis(1));
  m.CrashProcess();
  EXPECT_FALSE(m.alive());
  m.Restart();
  EXPECT_TRUE(m.alive());
  loop.Run();
  EXPECT_EQ(progress, 1);
}

TEST(MachineTest, PowerFailureDropsUnsynced) {
  EventLoop loop;
  Machine m(loop, 1, "m1", MachineParams{});
  m.actor().Spawn([](Machine* mm) -> Task<> {
    (void)co_await mm->disk().Append("f", "synced", true);
    (void)co_await mm->disk().Append("f", "unsynced", false);
  }(&m));
  loop.Run();
  m.PowerFailure();
  EXPECT_EQ(m.disk().FileSize("f"), 6u);
}

}  // namespace
}  // namespace cheetah::sim
