// Unit tests for the chaos fault knobs: network drop/dup/delay, storage gray
// failures, and determinism of both under a fixed seed.
#include <gtest/gtest.h>

#include <any>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"
#include "src/sim/storage.h"
#include "tests/test_util.h"

namespace cheetah::sim {
namespace {

TEST(NetworkFaults, DropProbabilityOneLosesEverything) {
  EventLoop loop;
  Network net(loop, NetParams{});
  int delivered = 0;
  net.Register(1, [](auto...) {});
  net.Register(2, [&](auto...) { ++delivered; });
  LinkFaults f;
  f.drop_prob = 1.0;
  net.SetDefaultLinkFaults(f);
  net.SeedFaults(7);
  for (int i = 0; i < 10; ++i) {
    net.Send(1, 2, 0, 100);
  }
  loop.RunFor(Seconds(1));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_fault_dropped(), 10u);
}

TEST(NetworkFaults, LoopbackIsExempt) {
  EventLoop loop;
  Network net(loop, NetParams{});
  int delivered = 0;
  net.Register(1, [&](auto...) { ++delivered; });
  LinkFaults f;
  f.drop_prob = 1.0;
  net.SetDefaultLinkFaults(f);
  net.Send(1, 1, 0, 100);
  loop.RunFor(Seconds(1));
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkFaults, DuplicateDeliversTwice) {
  EventLoop loop;
  Network net(loop, NetParams{});
  std::vector<std::string> got;
  net.Register(1, [](auto...) {});
  net.Register(2, [&](NodeId, sim::AnyMsg msg, size_t) {
    got.push_back(msg.Take<std::string>());
  });
  LinkFaults f;
  f.dup_prob = 1.0;
  f.max_extra_delay = Millis(1);
  net.SetDefaultLinkFaults(f);
  net.SeedFaults(7);
  net.Send(1, 2, std::string("payload"), 100);
  loop.RunFor(Seconds(1));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "payload");
  EXPECT_EQ(got[1], "payload");
  EXPECT_EQ(net.messages_duplicated(), 1u);
}

TEST(NetworkFaults, DelayIsBoundedAndBreaksNoMessages) {
  EventLoop loop;
  NetParams params;
  Network net(loop, params);
  std::vector<Nanos> arrivals;
  net.Register(1, [](auto...) {});
  net.Register(2, [&](auto...) { arrivals.push_back(loop.Now()); });
  LinkFaults f;
  f.delay_prob = 1.0;
  f.max_extra_delay = Millis(2);
  net.SetDefaultLinkFaults(f);
  net.SeedFaults(7);
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    net.Send(1, 2, 0, 100);
  }
  loop.RunFor(Seconds(1));
  ASSERT_EQ(arrivals.size(), static_cast<size_t>(n));
  EXPECT_EQ(net.messages_delayed(), static_cast<uint64_t>(n));
  for (Nanos t : arrivals) {
    EXPECT_GT(t, params.base_latency);  // delayed beyond the undisturbed time
    EXPECT_LE(t, Seconds(1));
  }
}

TEST(NetworkFaults, PerLinkOverridesDefault) {
  EventLoop loop;
  Network net(loop, NetParams{});
  int to2 = 0, to3 = 0;
  net.Register(1, [](auto...) {});
  net.Register(2, [&](auto...) { ++to2; });
  net.Register(3, [&](auto...) { ++to3; });
  LinkFaults drop_all;
  drop_all.drop_prob = 1.0;
  net.SetLinkFaults(1, 2, drop_all);  // only the 1<->2 link is lossy
  net.SeedFaults(7);
  net.Send(1, 2, 0, 100);
  net.Send(1, 3, 0, 100);
  loop.RunFor(Seconds(1));
  EXPECT_EQ(to2, 0);
  EXPECT_EQ(to3, 1);
  net.ClearLinkFaults();
  net.Send(1, 2, 0, 100);
  loop.RunFor(Seconds(1));
  EXPECT_EQ(to2, 1);
}

TEST(NetworkFaults, IdenticalSeedsReplayIdentically) {
  auto run = [](uint64_t seed) {
    EventLoop loop;
    Network net(loop, NetParams{});
    std::vector<Nanos> arrivals;
    net.Register(1, [](auto...) {});
    net.Register(2, [&](auto...) { arrivals.push_back(loop.Now()); });
    LinkFaults f;
    f.drop_prob = 0.2;
    f.dup_prob = 0.2;
    f.delay_prob = 0.3;
    f.max_extra_delay = Millis(3);
    net.SetDefaultLinkFaults(f);
    net.SeedFaults(seed);
    for (int i = 0; i < 200; ++i) {
      net.Send(1, 2, 0, 100 + i);
    }
    loop.RunFor(Seconds(5));
    return arrivals;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// ---- storage gray failures ----

Nanos TimeOneWrite(Storage& disk, Machine& m, uint64_t bytes) {
  EventLoop& loop = m.loop();
  const Nanos t0 = loop.Now();
  Nanos done = 0;
  m.actor().Spawn([](Storage* d, uint64_t bytes, Nanos* done, EventLoop* loop) -> Task<> {
    (void)co_await d->WriteBlocks("vol", 0, Bytes(std::string(bytes, 'x')), 1);
    *done = loop->Now();
  }(&disk, bytes, &done, &loop));
  loop.RunFor(Seconds(5));
  return done - t0;
}

TEST(StorageGray, LatencyMultiplierSlowsIo) {
  EventLoop loop;
  Machine m(loop, 1, "m", MachineParams{});
  const Nanos healthy = TimeOneWrite(m.disk(), m, 4096);
  GrayFailure g;
  g.latency_multiplier = 10.0;
  m.SetGrayFailure(g);
  const Nanos degraded = TimeOneWrite(m.disk(), m, 4096);
  EXPECT_GE(degraded, 5 * healthy);
  m.ClearGrayFailure();
  EXPECT_EQ(TimeOneWrite(m.disk(), m, 4096), healthy);
}

TEST(StorageGray, StuckFsyncBlocksUntilDeadline) {
  EventLoop loop;
  Machine m(loop, 1, "m", MachineParams{});
  GrayFailure g;
  g.fsync_stuck_for = Millis(50);
  m.SetGrayFailure(g);
  const Nanos t = TimeOneWrite(m.disk(), m, 4096);  // WriteBlocks fsyncs
  EXPECT_GE(t, Millis(50));
  // After the stuck window passes, fsyncs are normal again even without
  // ClearGrayFailure (the device "recovered").
  const Nanos t2 = TimeOneWrite(m.disk(), m, 4096);
  EXPECT_LT(t2, Millis(5));
}

TEST(StorageGray, FlakyMediaCorruptsChecksum) {
  EventLoop loop;
  Machine m(loop, 1, "m", MachineParams{});
  Storage& disk = m.disk();
  GrayFailure g;
  g.write_corrupt_prob = 1.0;
  disk.SetGrayFailure(g);
  bool wrote = false;
  m.actor().Spawn([](Storage* d, bool* wrote) -> Task<> {
    (void)co_await d->WriteBlocks("vol", 0, Bytes(std::string(4096, 'x')), 0xabcdu);
    *wrote = true;
  }(&disk, &wrote));
  loop.RunFor(Seconds(1));
  ASSERT_TRUE(wrote);
  EXPECT_EQ(disk.writes_corrupted(), 1u);
  auto cs = disk.PeekChecksum("vol", 0);
  ASSERT_TRUE(cs.has_value());
  EXPECT_NE(*cs, 0xabcdu);  // a read-path verify will reject this replica
}

TEST(StorageGray, FlakyMediaCorruptionIsProbeObservable) {
  // The write-path corruption must be visible to every checksum surface the
  // integrity pipeline uses: PeekChecksum (verified reads), ProbeChecksum
  // (scrub probes), and the writes_corrupted counter (obs).
  EventLoop loop;
  Machine m(loop, 1, "m", MachineParams{});
  Storage& disk = m.disk();
  GrayFailure g;
  g.write_corrupt_prob = 1.0;
  disk.SetGrayFailure(g);
  bool done = false;
  Result<uint32_t> probed = Status::Internal("unset");
  m.actor().Spawn([](Storage* d, Result<uint32_t>* probed, bool* done) -> Task<> {
    (void)co_await d->WriteBlocks("vol", 0, Bytes(std::string(4096, 'x')), 0x1234u);
    *probed = co_await d->ProbeChecksum("vol", 0);
    *done = true;
  }(&disk, &probed, &done));
  loop.RunFor(Seconds(1));
  ASSERT_TRUE(done);
  EXPECT_EQ(disk.writes_corrupted(), 1u);
  ASSERT_TRUE(probed.ok());
  EXPECT_NE(*probed, 0x1234u);  // the scrub probe sees the damage
  ASSERT_TRUE(disk.PeekChecksum("vol", 0).has_value());
  EXPECT_EQ(*disk.PeekChecksum("vol", 0), *probed);
}

// ---- at-rest fault injection ----

// Writes `n` 4KB extents with checksum = extent index + 1.
void Populate(Machine& m, Storage& disk, int n) {
  bool done = false;
  m.actor().Spawn([](Storage* d, int n, bool* done) -> Task<> {
    for (int i = 0; i < n; ++i) {
      (void)co_await d->WriteBlocks("vol", static_cast<uint64_t>(i) * 4096,
                                    Bytes(std::string(4096, 'x')),
                                    static_cast<uint32_t>(i + 1));
    }
    *done = true;
  }(&disk, n, &done));
  m.loop().RunFor(Seconds(5));
  ASSERT_TRUE(done);
}

TEST(StorageAtRest, InjectBitRotFlipsStoredChecksums) {
  EventLoop loop;
  Machine m(loop, 1, "m", MachineParams{});
  Storage& disk = m.disk();
  Populate(m, disk, 8);
  EXPECT_EQ(disk.InjectBitRot(0.0, 99), 0u);
  EXPECT_EQ(disk.bitrot_extents(), 0u);
  const uint64_t hits = disk.InjectBitRot(1.0, 99);
  EXPECT_EQ(hits, 8u);
  EXPECT_EQ(disk.bitrot_extents(), 8u);
  for (int i = 0; i < 8; ++i) {
    auto cs = disk.PeekChecksum("vol", static_cast<uint64_t>(i) * 4096);
    ASSERT_TRUE(cs.has_value());
    EXPECT_NE(*cs, static_cast<uint32_t>(i + 1));  // verify/probe will reject
  }
}

TEST(StorageAtRest, InjectBitRotIsDeterministicPerSeed) {
  auto damage_set = [](uint64_t seed) {
    EventLoop loop;
    Machine m(loop, 1, "m", MachineParams{});
    Storage& disk = m.disk();
    Populate(m, disk, 32);
    disk.InjectBitRot(0.5, seed);
    std::vector<bool> hit;
    for (int i = 0; i < 32; ++i) {
      auto cs = disk.PeekChecksum("vol", static_cast<uint64_t>(i) * 4096);
      hit.push_back(cs.has_value() && *cs != static_cast<uint32_t>(i + 1));
    }
    return hit;
  };
  EXPECT_EQ(damage_set(7), damage_set(7));
  EXPECT_NE(damage_set(7), damage_set(8));
}

TEST(StorageAtRest, LatentSectorErrorsMakeExtentsUnreadableUntilRewritten) {
  EventLoop loop;
  Machine m(loop, 1, "m", MachineParams{});
  Storage& disk = m.disk();
  Populate(m, disk, 4);
  EXPECT_EQ(disk.InjectLatentSectorErrors(1.0, 5), 4u);
  EXPECT_EQ(disk.lse_extents(), 4u);
  // Reads and probes fail with an I/O error; Peek sees nothing.
  bool done = false;
  Status read_status = Status::Ok();
  Result<uint32_t> probed = 0u;  // overwritten by the probe below
  m.actor().Spawn([](Storage* d, Status* rs, Result<uint32_t>* probed, bool* done) -> Task<> {
    auto r = co_await d->ReadBlocks("vol", 0, 4096);
    *rs = r.status();
    *probed = co_await d->ProbeChecksum("vol", 0);
    // A rewrite remaps the sector: the extent is whole again.
    (void)co_await d->WriteBlocks("vol", 0, Bytes(std::string(4096, 'y')), 0xfeedu);
    *done = true;
  }(&disk, &read_status, &probed, &done));
  loop.RunFor(Seconds(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(read_status.code(), ErrorCode::kIoError);
  EXPECT_FALSE(probed.ok());
  EXPECT_FALSE(disk.PeekChecksum("vol", 4096).has_value());  // still bad
  EXPECT_EQ(*disk.PeekChecksum("vol", 0), 0xfeedu);          // repaired
}

TEST(StorageAtRest, CorruptExtentTargetsExactlyOneExtent) {
  EventLoop loop;
  Machine m(loop, 1, "m", MachineParams{});
  Storage& disk = m.disk();
  Populate(m, disk, 2);
  EXPECT_TRUE(disk.CorruptExtent("vol", 0));
  EXPECT_FALSE(disk.CorruptExtent("vol", 12345));     // no extent there
  EXPECT_FALSE(disk.CorruptExtent("other-vol", 0));   // no such volume
  EXPECT_NE(*disk.PeekChecksum("vol", 0), 1u);
  EXPECT_EQ(*disk.PeekChecksum("vol", 4096), 2u);  // neighbor untouched
}

TEST(StorageGray, HealthyDiskIsExactlyUnchanged) {
  EventLoop loop;
  Machine m(loop, 1, "m", MachineParams{});
  Storage& disk = m.disk();
  bool ok = false;
  m.actor().Spawn([](Storage* d, bool* ok) -> Task<> {
    (void)co_await d->WriteBlocks("vol", 0, Bytes(std::string(64, 'x')), 7u);
    auto r = co_await d->ReadBlocks("vol", 0, 64);
    *ok = r.ok() && r->size() == 64;
  }(&disk, &ok));
  loop.RunFor(Seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(disk.writes_corrupted(), 0u);
  EXPECT_EQ(*disk.PeekChecksum("vol", 0), 7u);
}

}  // namespace
}  // namespace cheetah::sim
