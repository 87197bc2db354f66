// DataPlane, the one client of the data plane, seen from the data servers:
//  * RepairChunks writes back a rebuilt chunk only if its CRC matches the
//    one recorded in MetaX, and writes nothing when the survivors cannot
//    rebuild the stripe;
//  * repair traffic (scrub, proxy read-repair) arrives as RepairRead /
//    RepairWrite, the maintenance class, while VerifyPending's completion
//    copy arrives as DataRead / DataWrite, foreground like the put it
//    finishes.
// Every data server's handlers are replaced by counting fakes, as in
// protocol_test.cc, so each test sees exactly which request types landed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/sweep.h"
#include "src/common/crc32c.h"
#include "src/core/data_plane.h"
#include "src/core/testbed.h"
#include "src/tier/striper.h"

namespace cheetah::core {
namespace {

TestbedConfig SmallConfig() {
  TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 1;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  return config;
}

// Stands in for every data server: counts the request types it receives and
// answers from this script.
struct FakeData {
  std::map<std::string, int> seen;  // request type -> count
  int absent_probes = 0;            // the first probes answer "not present"
  int corrupt_reads = 0;            // the first reads answer kCorruption
  std::string payload;              // what every other read returns
  struct Written {
    std::string device;
    std::string data;
    uint32_t checksum = 0;
  };
  std::vector<Written> writes;  // both write types, in arrival order
};

template <typename R>
sim::Task<Result<R>> Answer(Result<R> r) {
  co_return r;
}

Result<DataReadReply> FakeRead(FakeData& fake, const char* type) {
  ++fake.seen[type];
  if (fake.corrupt_reads > 0) {
    --fake.corrupt_reads;
    return Status::Corruption("scripted damage");
  }
  DataReadReply reply;
  reply.data = Bytes(fake.payload);
  reply.checksum = Crc32c(fake.payload);
  return reply;
}

Result<DataWriteReply> FakeWrite(FakeData& fake, const char* type, const DataWriteRequest& req) {
  ++fake.seen[type];
  fake.writes.push_back({req.device, req.data.ToString(), req.checksum});
  DataWriteReply reply;
  reply.checksum = req.checksum;
  return reply;
}

std::shared_ptr<FakeData> InstallFakes(Testbed& bed) {
  auto fake = std::make_shared<FakeData>();
  for (int i = 0; i < bed.num_data(); ++i) {
    rpc::Node& node = bed.data_rpc(i);
    node.Serve<DataProbeRequest>(
        [fake](sim::NodeId, DataProbeRequest req) {
          ++fake->seen["DataProbe"];
          DataProbeReply reply;
          reply.present = fake->absent_probes-- <= 0;
          reply.checksum = req.expected_checksum;
          return Answer<DataProbeReply>(reply);
        },
        qos::TrafficClass::kMaintenance);
    node.Serve<DataReadRequest>(
        [fake](sim::NodeId, DataReadRequest) { return Answer(FakeRead(*fake, "DataRead")); },
        qos::TrafficClass::kForeground);
    node.Serve<RepairReadRequest>(
        [fake](sim::NodeId, RepairReadRequest) {
          return Answer(FakeRead(*fake, "RepairRead"));
        },
        qos::TrafficClass::kMaintenance);
    node.Serve<DataWriteRequest>(
        [fake](sim::NodeId, DataWriteRequest req) {
          return Answer(FakeWrite(*fake, "DataWrite", req));
        },
        qos::TrafficClass::kForeground);
    node.Serve<RepairWriteRequest>(
        [fake](sim::NodeId, RepairWriteRequest req) {
          return Answer(FakeWrite(*fake, "RepairWrite", req));
        },
        qos::TrafficClass::kMaintenance);
    node.Serve<DataDiscardRequest>(
        [fake](sim::NodeId, DataDiscardRequest) {
          ++fake->seen["DataDiscard"];
          return Answer<DataDiscardReply>(DataDiscardReply{});
        },
        qos::TrafficClass::kMaintenance);
  }
  return fake;
}

// Runs `task` on proxy 0's actor to completion.
Status RunOnProxy(Testbed& bed, sim::Task<Status> task) {
  auto out = std::make_shared<std::optional<Status>>();
  bed.proxy_machine(0).actor().Spawn(
      [](sim::Task<Status> task, std::shared_ptr<std::optional<Status>> out) -> sim::Task<> {
        out->emplace(co_await std::move(task));
      }(std::move(task), out));
  const Nanos deadline = bed.loop().Now() + Seconds(10);
  while (!out->has_value() && bed.loop().Now() < deadline && bed.loop().RunOne()) {
  }
  return out->has_value() ? **out : Status::Internal("task did not finish");
}

// ---- RepairChunks ----

class RepairChunksTest : public ::testing::Test {
 public:
  void SetUp() override {
    bed_ = std::make_unique<Testbed>(SmallConfig());
    ASSERT_TRUE(bed_->Boot().ok());
    fake_ = InstallFakes(*bed_);
    std::string payload;
    for (int i = 0; i < 4 * 4096; ++i) {
      payload.push_back(static_cast<char>('a' + (i * 7) % 26));
    }
    chunks_ = tier::EncodeChunks(payload, kK, kM);
    meta_.storage_class = StorageClass::kEc;
    meta_.ec_k = kK;
    meta_.ec_m = kM;
    meta_.extents = {alloc::Extent(0, 1)};
    meta_.chunk_crcs = tier::ChunkCrcs(chunks_);
    for (uint32_t j = 0; j < kK + kM; ++j) {
      stripe_.targets.push_back(
          {"chunk" + std::to_string(j), 0, bed_->data_node(static_cast<int>(j) % 4)});
    }
  }

  // The stripe's chunks with only `survivors` present.
  std::vector<std::optional<Bytes>> Survivors(const std::vector<size_t>& survivors) const {
    std::vector<std::optional<Bytes>> out(kK + kM);
    for (size_t j : survivors) {
      out[j] = Bytes(chunks_[j]);
    }
    return out;
  }

  // Runs RepairChunks; `refused` collects the chunks it reported as
  // mismatched.
  Status Repair(std::vector<std::optional<Bytes>> chunks, std::vector<size_t> damaged,
                std::vector<std::string>* refused) {
    DataPlane plane(bed_->proxy_rpc(0));
    return RunOnProxy(
        *bed_, plane.RepairChunks(qos::TrafficClass::kMaintenance, bed_->meta(0).view(), stripe_,
                                  meta_, std::move(chunks), std::move(damaged),
                                  [refused](const DataPlane::Piece& piece, const Status& s) {
                                    if (s.code() == ErrorCode::kCorruption) {
                                      refused->push_back(piece.target.device);
                                    }
                                  }));
  }

  static constexpr uint32_t kK = 4;
  static constexpr uint32_t kM = 2;
  std::unique_ptr<Testbed> bed_;
  std::shared_ptr<FakeData> fake_;
  std::vector<std::string> chunks_;
  ObMeta meta_;
  cluster::LvTargets stripe_;
};

TEST_F(RepairChunksTest, WritesBackOnlyChunksMatchingTheirRecordedCrc) {
  meta_.chunk_crcs[3] ^= 1;  // MetaX records another CRC for chunk 3
  std::vector<std::string> refused;
  ASSERT_TRUE(Repair(Survivors({0, 2, 4, 5}), {1, 3}, &refused).ok());
  ASSERT_EQ(fake_->writes.size(), 1u);
  EXPECT_EQ(fake_->writes[0].device, "chunk1");
  EXPECT_EQ(fake_->writes[0].data, chunks_[1]);
  EXPECT_EQ(fake_->writes[0].checksum, meta_.chunk_crcs[1]);
  EXPECT_EQ(refused, std::vector<std::string>{"chunk3"});
  EXPECT_EQ(fake_->seen["RepairWrite"], 1);
  EXPECT_EQ(fake_->seen["DataWrite"], 0);
}

TEST_F(RepairChunksTest, GarbageSurvivorRebuildsNothingItWrites) {
  auto chunks = Survivors({0, 2, 4, 5});
  std::string garbled = chunks_[2];
  garbled[17] ^= 0x40;  // read across a racing rewrite, say
  chunks[2] = Bytes(garbled);
  std::vector<std::string> refused;
  ASSERT_TRUE(Repair(std::move(chunks), {1, 3}, &refused).ok());
  EXPECT_TRUE(fake_->writes.empty());
  EXPECT_EQ(refused, (std::vector<std::string>{"chunk1", "chunk3"}));
}

TEST_F(RepairChunksTest, TooFewSurvivorsFailWithoutWriting) {
  std::vector<std::string> refused;
  EXPECT_FALSE(Repair(Survivors({0, 2, 4}), {1, 3, 5}, &refused).ok());
  EXPECT_TRUE(fake_->writes.empty());
  EXPECT_TRUE(refused.empty());
}

// ---- request types per path ----

// VerifyPending completing a half-written put copies it as foreground
// traffic: the copy finishes a client's put.
TEST(DataPlaneTraffic, VerifyPendingCopiesAsDataReadAndDataWrite) {
  Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());
  const std::string name = "half-written";
  const std::string payload(8192, 'h');
  const cluster::TopologyMap topo = bed.meta(0).topology();
  const sim::NodeId primary = topo.PrimaryOf(topo.PgOf(name));
  auto send = [&](auto req, auto reply) {
    bed.proxy_machine(0).actor().Spawn(
        [](rpc::Node* node, sim::NodeId to, decltype(req) req, decltype(reply) reply)
            -> sim::Task<> {
          reply->emplace(co_await node->Call(to, std::move(req), Seconds(5)));
        }(&bed.proxy_rpc(0), primary, std::move(req), reply));
  };

  // Allocated, but no data written and no commit: the put stays pending.
  PutAllocRequest alloc;
  alloc.view = topo.view;
  alloc.name = name;
  alloc.size = payload.size();
  alloc.checksum = Crc32c(payload);
  alloc.reqid = (77ull << 32) | 1;
  alloc.proxy_id = 77;
  alloc.proxy_node = bed.proxy_node(0);
  auto allocated = std::make_shared<std::optional<Result<PutAllocReply>>>();
  send(alloc, allocated);
  bed.RunFor(Millis(50));
  ASSERT_TRUE(allocated->has_value() && (*allocated)->ok());

  // The data landed on the last replica only; the get makes the primary
  // verify and complete the put.
  auto fake = InstallFakes(bed);
  fake->absent_probes = 2;
  fake->payload = payload;
  GetMetaRequest get;
  get.view = topo.view;
  get.name = name;
  auto got = std::make_shared<std::optional<Result<GetMetaReply>>>();
  send(get, got);
  bed.RunFor(Seconds(1));
  ASSERT_TRUE(got->has_value());
  ASSERT_TRUE((*got)->ok()) << (*got)->status().ToString();
  EXPECT_EQ(fake->seen["DataProbe"], 3);
  EXPECT_EQ(fake->seen["DataRead"], 1);
  EXPECT_EQ(fake->seen["DataWrite"], 2);
  EXPECT_EQ(fake->seen["RepairRead"], 0);
  EXPECT_EQ(fake->seen["RepairWrite"], 0);
  for (const FakeData::Written& w : fake->writes) {
    EXPECT_EQ(w.data, payload);
    EXPECT_EQ(w.checksum, Crc32c(payload));
  }
}

// The scrubber and the proxy's read-repair both rewrite damaged replicas as
// maintenance traffic.
TEST(DataPlaneTraffic, ScrubAndReadRepairUseRepairTypes) {
  Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());
  const std::string payload(8192, 'r');
  ASSERT_TRUE(bed.PutObject(0, "rotting", payload).ok());
  bed.RunFor(Seconds(1));  // the cleaner settles the put; scrubs skip pending ones
  auto fake = InstallFakes(bed);
  fake->payload = payload;

  fake->absent_probes = 1;  // the first replica probed has rotted
  chaos::ScrubAllOnce(bed);
  EXPECT_EQ(fake->seen["DataProbe"], 3);
  EXPECT_EQ(fake->seen["RepairRead"], 1);
  EXPECT_EQ(fake->seen["RepairWrite"], 1);
  EXPECT_EQ(fake->seen["DataRead"], 0);
  EXPECT_EQ(fake->seen["DataWrite"], 0);

  fake->seen.clear();
  fake->writes.clear();
  fake->corrupt_reads = 1;  // the get's first replica answers kCorruption
  auto got = bed.GetObject(0, "rotting");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
  bed.RunFor(Millis(100));  // the read-repair is fire-and-forget
  EXPECT_EQ(fake->seen["DataRead"], 2);
  EXPECT_EQ(fake->seen["RepairWrite"], 1);
  EXPECT_EQ(fake->seen["DataWrite"], 0);
  EXPECT_EQ(fake->seen["RepairRead"], 0);
  ASSERT_EQ(fake->writes.size(), 1u);
  EXPECT_EQ(fake->writes[0].data, payload);
  EXPECT_EQ(bed.proxy(0).stats().read_repairs.value(), 1u);
}

}  // namespace
}  // namespace cheetah::core
