// Protocol-level behaviors of the meta and data servers, exercised with raw
// RPCs: view-number checks, primary-ship checks, lease expiry, probe
// semantics, and notification idempotence.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/crc32c.h"
#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace cheetah::core {
namespace {

class ProtocolTest : public ::testing::Test {
 public:
  void SetUp() override {
    TestbedConfig config;
    config.meta_machines = 3;
    config.data_machines = 4;
    config.proxies = 2;
    config.pg_count = 8;
    config.disks_per_data_machine = 2;
    config.pvs_per_disk = 3;
    config.lv_capacity_bytes = MiB(128);
    bed_ = std::make_unique<Testbed>(std::move(config));
    ASSERT_TRUE(bed_->Boot().ok());
  }

  // Runs a raw-RPC coroutine from proxy 0's node.
  template <typename Fn>
  void Raw(Fn body) {
    auto done = std::make_shared<bool>(false);
    bed_->proxy_machine(0).actor().Spawn(
        [](Fn body, rpc::Node* node, Testbed* bed, std::shared_ptr<bool> done) -> sim::Task<> {
          co_await body(*node, *bed);
          *done = true;
        }(std::move(body), &bed_->proxy_rpc(0), bed_.get(), done));
    const Nanos deadline = bed_->loop().Now() + Seconds(30);
    while (!*done && bed_->loop().Now() < deadline && bed_->loop().RunOne()) {
    }
    ASSERT_TRUE(*done);
  }

  std::unique_ptr<Testbed> bed_;
};

TEST_F(ProtocolTest, StaleViewIsRejected) {
  Raw([](rpc::Node& node, Testbed& bed) -> sim::Task<> {
    const auto& topo = bed.meta(0).topology();
    const cluster::PgId pg = topo.PgOf("stale-obj");
    GetMetaRequest req;
    req.view = topo.view + 7;  // from the future
    req.name = "stale-obj";
    auto r = co_await node.Call(topo.PrimaryOf(pg), std::move(req), Millis(200));
    EXPECT_TRUE(r.status().IsStaleView()) << r.status().ToString();

    GetMetaRequest old_req;
    old_req.view = 0;  // from the past
    old_req.name = "stale-obj";
    auto r2 = co_await node.Call(topo.PrimaryOf(pg), std::move(old_req), Millis(200));
    EXPECT_TRUE(r2.status().IsStaleView());
  });
}

TEST_F(ProtocolTest, NonPrimaryRejectsPrimaryOps) {
  Raw([](rpc::Node& node, Testbed& bed) -> sim::Task<> {
    const auto& topo = bed.meta(0).topology();
    const cluster::PgId pg = topo.PgOf("misdirected");
    auto servers = topo.MetaServersOf(pg);
    CO_ASSERT_TRUE(servers.size() >= 2);
    GetMetaRequest req;
    req.view = topo.view;
    req.name = "misdirected";
    // The backup holds the data but must not serve primary-only requests.
    auto r = co_await node.Call(servers[1], std::move(req), Millis(200));
    EXPECT_TRUE(r.status().IsStaleView()) << r.status().ToString();
  });
}

TEST_F(ProtocolTest, LeaseExpiryStopsService) {
  ASSERT_TRUE(bed_->PutObject(0, "leased", std::string(4096, 'l')).ok());
  // Partition every meta server from every manager: leases can't renew. The
  // managers also stop seeing heartbeats, but fail_timeout > lease_duration
  // so the lease lapses first (§5.1's safety order).
  for (int m = 0; m < bed_->num_meta(); ++m) {
    for (sim::NodeId mgr : bed_->manager_nodes()) {
      bed_->network().SetPartitioned(bed_->meta_machine(m).node_id(), mgr, true);
    }
  }
  bed_->RunFor(Millis(350));  // lease_duration is 300ms
  for (int m = 0; m < bed_->num_meta(); ++m) {
    EXPECT_FALSE(bed_->meta(m).HasLease()) << "meta " << m;
  }
  Raw([](rpc::Node& node, Testbed& bed) -> sim::Task<> {
    const auto& topo = bed.meta(0).topology();
    const cluster::PgId pg = topo.PgOf("leased");
    GetMetaRequest req;
    req.view = bed.meta(0).view();
    req.name = "leased";
    auto r = co_await node.Call(topo.PrimaryOf(pg), std::move(req), Millis(200));
    EXPECT_FALSE(r.ok());  // lease expired (or the view moved on)
  });
  // Heal; service resumes.
  bed_->network().ClearPartitions();
  bed_->RunFor(Seconds(3));
  auto got = bed_->GetObject(0, "leased");
  EXPECT_TRUE(got.ok()) << got.status().ToString();
}

TEST_F(ProtocolTest, ProbeVerifiesChecksumAndPresence) {
  ASSERT_TRUE(bed_->PutObject(0, "probed", std::string(8192, 'p')).ok());
  Raw([](rpc::Node& node, Testbed& bed) -> sim::Task<> {
    // Fetch the authoritative metadata, then probe the data servers like a
    // recovering meta server would (§5.3).
    const auto& topo = bed.meta(0).topology();
    const cluster::PgId pg = topo.PgOf("probed");
    GetMetaRequest req;
    req.view = topo.view;
    req.name = "probed";
    auto meta = co_await node.Call(topo.PrimaryOf(pg), std::move(req), Millis(500));
    CO_ASSERT_OK(meta);
    const cluster::LogicalVolume* lv = topo.FindLv(meta->meta.lvid);
    CO_ASSERT_TRUE(lv != nullptr);
    const cluster::PhysicalVolume* pv = topo.FindPv(lv->replicas[0]);
    CO_ASSERT_TRUE(pv != nullptr);

    DataProbeRequest good;
    good.device = pv->DeviceName();
    good.disk_index = pv->disk_index;
    good.block_size = lv->block_size;
    good.extents = meta->meta.extents;
    good.expected_checksum = meta->meta.checksum;
    auto ok_probe = co_await node.Call(pv->data_server, std::move(good), Millis(500));
    CO_ASSERT_OK(ok_probe);
    EXPECT_TRUE(ok_probe->present);

    DataProbeRequest bad;
    bad.device = pv->DeviceName();
    bad.disk_index = pv->disk_index;
    bad.block_size = lv->block_size;
    bad.extents = meta->meta.extents;
    bad.expected_checksum = meta->meta.checksum ^ 0xff;
    auto bad_probe = co_await node.Call(pv->data_server, std::move(bad), Millis(500));
    CO_ASSERT_OK(bad_probe);
    EXPECT_FALSE(bad_probe->present);

    DataProbeRequest absent;
    absent.device = pv->DeviceName();
    absent.disk_index = pv->disk_index;
    absent.block_size = lv->block_size;
    absent.extents = {alloc::Extent(999999, 4)};
    absent.expected_checksum = 0;
    auto absent_probe = co_await node.Call(pv->data_server, std::move(absent), Millis(500));
    CO_ASSERT_OK(absent_probe);
    EXPECT_FALSE(absent_probe->present);
  });
}

TEST_F(ProtocolTest, CommitNotifyIsIdempotentAndTolerant) {
  ASSERT_TRUE(bed_->PutObject(0, "notified", std::string(4096, 'n')).ok());
  Raw([](rpc::Node& node, Testbed& bed) -> sim::Task<> {
    const auto& topo = bed.meta(0).topology();
    const cluster::PgId pg = topo.PgOf("notified");
    // Duplicate and bogus commit notifications must be harmless.
    for (int i = 0; i < 3; ++i) {
      PutCommitNotify dup;
      dup.view = topo.view;
      dup.name = "notified";
      dup.reqid = 0xdeadbeef;  // unknown request id
      auto r = co_await node.Call(topo.PrimaryOf(pg), std::move(dup), Millis(200));
      EXPECT_TRUE(r.ok());
    }
  });
  auto got = bed_->GetObject(0, "notified");
  EXPECT_TRUE(got.ok());
}

TEST_F(ProtocolTest, DataServerIsObjectAgnostic) {
  // A data server accepts raw block writes/reads with no knowledge of names
  // or objects — the §3.1 agnosticism.
  Raw([](rpc::Node& node, Testbed& bed) -> sim::Task<> {
    const sim::NodeId ds = bed.data_machine(0).node_id();
    DataWriteRequest write;
    write.view = bed.meta(0).view();
    write.device = "adhoc_volume";
    write.disk_index = 0;
    write.block_size = 4096;
    write.extents = {alloc::Extent(10, 2)};
    write.data = Bytes(std::string(8192, 'r'));
    write.checksum = Crc32c(write.data.view());
    auto w = co_await node.Call(ds, std::move(write), Millis(500));
    CO_ASSERT_OK(w);

    DataReadRequest read;
    read.device = "adhoc_volume";
    read.disk_index = 0;
    read.block_size = 4096;
    read.extents = {alloc::Extent(10, 2)};
    read.length = 8192;
    auto r = co_await node.Call(ds, std::move(read), Millis(500));
    CO_ASSERT_OK(r);
    EXPECT_EQ(r->data.size(), 8192u);
    EXPECT_EQ(r->data.view()[0], 'r');
  });
}

// A payload longer than the extents it names is refused, not truncated to
// fit and acked.
TEST_F(ProtocolTest, DataServerRejectsPayloadOverflowingExtents) {
  Raw([](rpc::Node& node, Testbed& bed) -> sim::Task<> {
    DataWriteRequest write;
    write.view = bed.meta(0).view();
    write.device = "adhoc_volume";
    write.block_size = 4096;
    write.extents = {alloc::Extent(10, 1)};
    write.data = Bytes(std::string(4097, 'o'));
    write.checksum = Crc32c(write.data.view());
    auto w = co_await node.Call(bed.data_machine(0).node_id(), std::move(write), Millis(500));
    EXPECT_EQ(w.status().code(), ErrorCode::kInvalidArgument) << w.status().ToString();
    EXPECT_TRUE(bed.data_machine(0).disk(0).ListVolumeExtents("adhoc_volume").empty());
  });
}

// A read longer than its extents can hold is refused instead of answered
// with fewer bytes than asked for.
TEST_F(ProtocolTest, DataServerRejectsReadPastExtents) {
  Raw([](rpc::Node& node, Testbed& bed) -> sim::Task<> {
    const sim::NodeId ds = bed.data_machine(0).node_id();
    DataWriteRequest write;
    write.view = bed.meta(0).view();
    write.device = "adhoc_volume";
    write.block_size = 4096;
    write.extents = {alloc::Extent(10, 1)};
    write.data = Bytes(std::string(4096, 's'));
    write.checksum = Crc32c(write.data.view());
    CO_ASSERT_OK(co_await node.Call(ds, std::move(write), Millis(500)));

    DataReadRequest read;
    read.device = "adhoc_volume";
    read.block_size = 4096;
    read.extents = {alloc::Extent(10, 1)};
    read.length = 8192;
    auto r = co_await node.Call(ds, std::move(read), Millis(500));
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << r.status().ToString();
  });
}

// Answers a data read with synthesized bytes and the expected checksum, as a
// metadata-only device does — but the first read of the run comes back one
// byte short.
sim::Task<Result<DataReadReply>> FirstReadShort(std::shared_ptr<int> reads,
                                                DataReadRequest req) {
  DataReadReply reply;
  reply.data = Bytes(std::string(req.length - (++*reads == 1 ? 1 : 0), 'x'));
  reply.checksum = req.expected_checksum;
  reply.content_valid = false;
  co_return reply;
}

// In metadata-only mode the proxy cannot recompute a checksum, so a reply of
// the wrong length must count as a damaged replica on its own: the get moves
// on to the next replica and never returns a truncated object.
TEST(ProxyReadTest, ShortReplyIsACorruptReplica) {
  TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 1;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  config.store_volume_content = false;
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());
  const std::string payload(3 * 4096, 'p');
  ASSERT_TRUE(bed.PutObject(0, "short", payload).ok());

  auto reads = std::make_shared<int>(0);
  for (int i = 0; i < bed.num_data(); ++i) {
    bed.data_rpc(i).Serve<DataReadRequest>(
        [reads](sim::NodeId, DataReadRequest req) {
          return FirstReadShort(reads, std::move(req));
        },
        qos::TrafficClass::kForeground);
  }
  auto got = bed.GetObject(0, "short");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->size(), payload.size());
  EXPECT_EQ(*reads, 2);
  EXPECT_EQ(bed.proxy(0).stats().corrupt_replica_reads.value(), 1u);
}

}  // namespace
}  // namespace cheetah::core
