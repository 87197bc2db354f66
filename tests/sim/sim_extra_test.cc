// Additional simulator coverage: mailbox multi-consumer behavior, void
// joins, loopback delivery, file-vs-volume bandwidth separation, and the
// open-queue resource model under bursts.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/sim/storage.h"
#include "src/sim/sync.h"

namespace cheetah::sim {
namespace {

TEST(SyncExtraTest, QueueFansOutToMultipleConsumers) {
  EventLoop loop;
  Actor actor(loop);
  Queue<int> queue;
  std::vector<int> got;
  for (int c = 0; c < 3; ++c) {
    actor.Spawn([](Queue<int>* q, std::vector<int>* out) -> Task<> {
      out->push_back(co_await q->Pop());
    }(&queue, &got));
  }
  loop.Run();
  EXPECT_TRUE(got.empty());
  for (int i = 1; i <= 3; ++i) {
    queue.Push(i * 10);
  }
  loop.Run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0] + got[1] + got[2], 60);
}

TEST(SyncExtraTest, WhenAllVoidJoins) {
  EventLoop loop;
  Actor actor(loop);
  int completed = 0;
  Nanos finished = 0;
  actor.Spawn([](Actor* a, int* completed, Nanos* finished) -> Task<> {
    auto work = [](Nanos d, int* c) -> Task<> {
      co_await SleepFor(d);
      ++*c;
    };
    std::vector<Task<>> tasks;
    tasks.push_back(work(Millis(5), completed));
    tasks.push_back(work(Millis(1), completed));
    tasks.push_back(work(Millis(3), completed));
    co_await WhenAllVoid(std::move(tasks));
    *finished = a->Now();
  }(&actor, &completed, &finished));
  loop.Run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(finished, Millis(5));  // parallel
}

TEST(SyncExtraTest, EventSetIsIdempotent) {
  EventLoop loop;
  Actor actor(loop);
  Event event;
  int wakes = 0;
  actor.Spawn([](Event* e, int* w) -> Task<> {
    co_await e->Wait();
    ++*w;
  }(&event, &wakes));
  loop.Run();
  event.Set();
  event.Set();
  event.Set();
  loop.Run();
  EXPECT_EQ(wakes, 1);
}

TEST(NetworkExtraTest, LoopbackIsFastAndUnpartitionable) {
  EventLoop loop;
  NetParams params;
  Network net(loop, params);
  Nanos arrived = 0;
  net.Register(5, [&](NodeId, sim::AnyMsg, size_t) { arrived = loop.Now(); });
  net.SetPartitioned(5, 5, true);  // self-partition must be ignored
  net.Send(5, 5, 0, 100);
  loop.Run();
  EXPECT_EQ(arrived, params.loopback_latency);
}

TEST(StorageExtraTest, FileAndVolumeBandwidthAreIndependent) {
  // A huge sequential file write (SSTable flush) must not head-of-line-block
  // a small volume write, and vice versa.
  EventLoop loop;
  Actor actor(loop);
  Storage storage(loop, DiskParams{});
  Nanos small_done = 0;
  actor.Spawn([](Storage* s) -> Task<> {
    (void)co_await s->WriteFile("huge.sst", std::string(64 << 20, 'x'), true);
  }(&storage));
  actor.Spawn([](Actor* a, Storage* s, Nanos* done) -> Task<> {
    (void)co_await s->WriteBlocks("pv", 0, Bytes(std::string(4096, 'y')), 1);
    *done = a->Now();
  }(&actor, &storage, &small_done));
  loop.Run();
  // 64MB at 1.2GB/s is ~53ms; the 4KB volume write must finish way earlier.
  EXPECT_LT(small_done, Millis(5));
}

TEST(StorageExtraTest, VolumeBusSerializesLargeTransfers) {
  EventLoop loop;
  Actor actor(loop);
  Storage storage(loop, DiskParams{});
  std::vector<Nanos> done;
  for (int i = 0; i < 2; ++i) {
    actor.Spawn([](Actor* a, Storage* s, int i, std::vector<Nanos>* done) -> Task<> {
      // 12MB at 1.2GB/s = 10ms of bus each.
      (void)co_await s->WriteBlocks("pv" + std::to_string(i), 0,
                                    Bytes(std::string(12 << 20, 'z')), 1);
      done->push_back(a->Now());
    }(&actor, &storage, i, &done));
  }
  loop.Run();
  ASSERT_EQ(done.size(), 2u);
  // The second completes roughly one transfer after the first.
  EXPECT_GE(done[1], done[0] + Millis(9));
}

// The file plane looks a file up again after every device wait: a file
// deleted (or erased by power loss) mid-operation fails that operation
// instead of leaving it writing through a freed node (ASan guards this).
TEST(StorageExtraTest, FileVanishingDuringSyncedAppendFailsTheAppend) {
  const std::vector<std::function<void(Storage&)>> disturbances = {
      [](Storage& s) { (void)s.DeleteFile("wal"); },
      [](Storage& s) { s.PowerLoss(); },  // never synced: the file is erased
  };
  for (const auto& disturb : disturbances) {
    EventLoop loop;
    Actor actor(loop);
    Storage storage(loop, DiskParams{});
    storage.SetGrayFailure(GrayFailure{.fsync_stuck_for = Millis(1)});
    Status appended = Status::Internal("not run");
    actor.Spawn([](Storage* s, Status* out) -> Task<> {
      *out = co_await s->Append("wal", std::string(100, 'w'), /*sync=*/true);
    }(&storage, &appended));
    loop.RunFor(Micros(500));  // the write landed; the fsync is stuck
    EXPECT_EQ(storage.FileSize("wal"), 100u);
    disturb(storage);
    loop.Run();
    EXPECT_EQ(appended.code(), ErrorCode::kIoError) << appended.ToString();
    EXPECT_FALSE(storage.FileExists("wal"));
  }
}

TEST(StorageExtraTest, FileDeletedDuringReadFailsTheRead) {
  EventLoop loop;
  Actor actor(loop);
  Storage storage(loop, DiskParams{});
  Result<std::string> whole = Status::Internal("not run");
  Result<std::string> part = Status::Internal("not run");
  actor.Spawn([](Storage* s, Result<std::string>* whole,
                 Result<std::string>* part) -> Task<> {
    (void)co_await s->WriteFile("sst", std::string(1 << 20, 's'), /*sync=*/true);
    Actor* a = co_await CurrentActor{};
    a->Spawn([](Storage* s, Result<std::string>* out) -> Task<> {
      *out = co_await s->ReadFile("sst");
    }(s, whole));
    a->Spawn([](Storage* s, Result<std::string>* out) -> Task<> {
      *out = co_await s->ReadAt("sst", 4096, 4096);
    }(s, part));
    co_await SleepFor(Micros(10));  // both reads are on the device
    (void)s->DeleteFile("sst");
  }(&storage, &whole, &part));
  loop.Run();
  EXPECT_TRUE(whole.status().IsNotFound()) << whole.status().ToString();
  EXPECT_TRUE(part.status().IsNotFound()) << part.status().ToString();
}

TEST(ResourceExtraTest, BurstThenIdleDrains) {
  EventLoop loop;
  Actor actor(loop);
  Resource res(loop, 2);
  int finished = 0;
  for (int i = 0; i < 10; ++i) {
    actor.Spawn([](Resource* r, int* f) -> Task<> {
      co_await r->Use(Millis(1));
      ++*f;
    }(&res, &finished));
  }
  loop.Run();
  EXPECT_EQ(finished, 10);
  EXPECT_EQ(loop.Now(), Millis(5));  // 10 jobs / 2 servers x 1ms
}

TEST(NetworkExtraTest, UncontendedArrivalIsUnchangedByReceiveModel) {
  // A lone message must arrive at exactly departed + base_latency — the
  // receive-side occupancy is invisible unless receptions overlap.
  EventLoop loop;
  NetParams params;
  Network net(loop, params);
  Nanos arrived = 0;
  net.Register(1, [](NodeId, sim::AnyMsg, size_t) {});
  net.Register(2, [&](NodeId, sim::AnyMsg, size_t) { arrived = loop.Now(); });
  const size_t bytes = 31 << 20;  // 31MB at 3.1GB/s = 10ms serialization
  const Nanos tx =
      static_cast<Nanos>(static_cast<double>(bytes) / params.bw_bytes_per_sec * 1e9);
  net.Send(1, 2, 0, bytes);
  loop.Run();
  EXPECT_EQ(arrived, tx + params.base_latency);
}

TEST(NetworkExtraTest, ConcurrentBulkReceivesContendForBandwidth) {
  // Two simultaneous bulk sends from different sources into one receiver
  // must take ~2x the wall-clock of one: the receiver's NIC is not free.
  EventLoop loop;
  NetParams params;
  Network net(loop, params);
  std::vector<Nanos> arrived;
  net.Register(1, [](NodeId, sim::AnyMsg, size_t) {});
  net.Register(2, [](NodeId, sim::AnyMsg, size_t) {});
  net.Register(3, [&](NodeId, sim::AnyMsg, size_t) { arrived.push_back(loop.Now()); });
  const size_t bytes = 31 << 20;  // 10ms of wire each
  const Nanos tx =
      static_cast<Nanos>(static_cast<double>(bytes) / params.bw_bytes_per_sec * 1e9);
  net.Send(1, 3, 0, bytes);
  net.Send(2, 3, 0, bytes);
  loop.Run();
  ASSERT_EQ(arrived.size(), 2u);
  // Senders have independent transmit NICs, so both would land at
  // tx + base_latency if reception were free; instead the second queues
  // behind the first for a full serialization time.
  EXPECT_EQ(arrived[0], tx + params.base_latency);
  EXPECT_EQ(arrived[1], 2 * tx + params.base_latency);
}

TEST(ActorExtraTest, KillSoonFromInsideOwnCoroutine) {
  EventLoop loop;
  Actor actor(loop);
  int stage = 0;
  actor.Spawn([](Actor* a, int* s) -> Task<> {
    *s = 1;
    a->KillSoon();  // safe self-crash: takes effect after this frame suspends
    co_await SleepFor(Millis(1));
    *s = 2;  // must never run
  }(&actor, &stage));
  loop.Run();
  EXPECT_EQ(stage, 1);
  EXPECT_FALSE(actor.alive());
}

}  // namespace
}  // namespace cheetah::sim
