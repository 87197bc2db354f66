#include <gtest/gtest.h>

#include "tests/test_util.h"

#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/kv/db.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "src/sim/storage.h"

namespace cheetah::kv {
namespace {

using sim::Actor;
using sim::EventLoop;
using sim::Storage;
using sim::Task;

class KvTest : public ::testing::Test {
 public:
  KvTest() : actor_(loop_), storage_(loop_, sim::DiskParams{}) {}

  // Runs a coroutine against a DB opened with `options` and drains the loop.
  void Run(Options options, std::function<Task<>(DB*)> body) {
    actor_.Spawn([](KvTest* self, Options opts, std::function<Task<>(DB*)> body) -> Task<> {
      auto db = co_await DB::Open(std::move(opts), &self->storage_);
      CO_ASSERT_OK(db);
      self->db_ = std::move(*db);
      co_await body(self->db_.get());
    }(this, std::move(options), std::move(body)));
    loop_.Run();
  }

  Options SmallOptions() {
    Options o;
    o.memtable_bytes = 4096;  // flush often
    o.l0_compaction_trigger = 3;
    return o;
  }

  EventLoop loop_;
  Actor actor_;
  Storage storage_;
  std::unique_ptr<DB> db_;
};

TEST_F(KvTest, PutGetRoundTrip) {
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_TRUE((co_await db->Put("k1", "v1")).ok());
    auto v = co_await db->Get("k1");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v1");
  });
}

TEST_F(KvTest, GetMissingIsNotFound) {
  Run(Options{}, [](DB* db) -> Task<> {
    auto v = co_await db->Get("nope");
    EXPECT_TRUE(v.status().IsNotFound());
  });
}

TEST_F(KvTest, DeleteHidesKey) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("k", "v");
    (void)co_await db->Delete("k");
    auto v = co_await db->Get("k");
    EXPECT_TRUE(v.status().IsNotFound());
  });
}

TEST_F(KvTest, OverwriteTakesLatest) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("k", "v1");
    (void)co_await db->Put("k", "v2");
    auto v = co_await db->Get("k");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v2");
  });
}

TEST_F(KvTest, BatchIsAtomicInMemory) {
  Run(Options{}, [](DB* db) -> Task<> {
    WriteBatch batch;
    batch.Put("a", "1");
    batch.Put("b", "2");
    batch.Delete("c");
    (void)co_await db->Put("c", "preexisting");
    EXPECT_TRUE((co_await db->Write(std::move(batch))).ok());
    EXPECT_EQ((co_await db->Get("a")).value_or("X"), "1");
    EXPECT_EQ((co_await db->Get("b")).value_or("X"), "2");
    EXPECT_TRUE((co_await db->Get("c")).status().IsNotFound());
  });
}

TEST_F(KvTest, FlushAndReadFromTables) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      (void)co_await db->Put("key" + std::to_string(i), std::string(100, 'v'));
    }
    co_await db->WaitForMaintenance();
    EXPECT_GT(db->stats().flushes.value(), 0u);
    for (int i = 0; i < 100; ++i) {
      auto v = co_await db->Get("key" + std::to_string(i));
      CO_ASSERT_TRUE(v.ok());
      EXPECT_EQ(v->size(), 100u);
    }
  });
}

// A table and the disk model's file of it are one buffer: after a flush or
// compaction, and after Open loads the tables back.
TEST_F(KvTest, TablesAndTheirFilesShareOneBuffer) {
  auto check = [this](DB* db) -> Task<> {
    const std::vector<TablePtr> tables = db->Tables();
    CO_ASSERT_TRUE(!tables.empty());
    for (const TablePtr& t : tables) {
      auto file = co_await storage_.ReadFile(t->file_name());
      CO_ASSERT_OK(file);
      EXPECT_EQ(file->data(), t->file().data()) << t->file_name();
      EXPECT_EQ(file->size(), t->file().size()) << t->file_name();
    }
  };
  Run(SmallOptions(), [check](DB* db) -> Task<> {
    for (int i = 0; i < 200; ++i) {
      (void)co_await db->Put("key" + std::to_string(i), std::string(100, 'v'));
    }
    co_await db->WaitForMaintenance();
    EXPECT_GT(db->stats().compactions.value(), 0u);
    co_await check(db);
  });
  db_.reset();
  Run(SmallOptions(), [check](DB* db) -> Task<> { co_await check(db); });
}

TEST_F(KvTest, CompactionPreservesData) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 400; ++i) {
      (void)co_await db->Put("key" + std::to_string(i % 50), "gen" + std::to_string(i));
    }
    co_await db->WaitForMaintenance();
    EXPECT_GT(db->stats().compactions.value(), 0u);
    for (int i = 0; i < 50; ++i) {
      auto v = co_await db->Get("key" + std::to_string(i));
      CO_ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, "gen" + std::to_string(350 + i));
    }
  });
}

TEST_F(KvTest, CompactionDropsDeletedKeys) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      (void)co_await db->Put("key" + std::to_string(i), std::string(100, 'v'));
    }
    for (int i = 0; i < 100; ++i) {
      (void)co_await db->Delete("key" + std::to_string(i));
    }
    for (int i = 0; i < 200; ++i) {  // force flush+compaction cycles
      (void)co_await db->Put("other" + std::to_string(i), std::string(100, 'w'));
    }
    co_await db->WaitForMaintenance();
    EXPECT_EQ(db->CountLiveEntries(), 200u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE((co_await db->Get("key" + std::to_string(i))).status().IsNotFound());
    }
  });
}

TEST_F(KvTest, ScanByPrefix) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("OBMETA_obj1", "m1");
    (void)co_await db->Put("OBMETA_obj2", "m2");
    (void)co_await db->Put("PGLOG_1_1", "l1");
    (void)co_await db->Put("OBMETA_obj3", "m3");
    (void)co_await db->Delete("OBMETA_obj2");
    auto rows = co_await db->Scan("OBMETA_", 0);
    CO_ASSERT_TRUE(rows.ok());
    CO_ASSERT_EQ(rows->size(), 2u);
    EXPECT_EQ((*rows)[0].first, "OBMETA_obj1");
    EXPECT_EQ((*rows)[1].first, "OBMETA_obj3");
  });
}

TEST_F(KvTest, ScanSpansMemtableAndTables) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 60; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "p_%03d", i);
      (void)co_await db->Put(buf, std::string(100, 'v'));
    }
    co_await db->WaitForMaintenance();
    for (int i = 60; i < 70; ++i) {  // these stay in the memtable
      char buf[16];
      std::snprintf(buf, sizeof(buf), "p_%03d", i);
      (void)co_await db->Put(buf, "fresh");
    }
    auto rows = co_await db->Scan("p_", 0);
    CO_ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 70u);
  });
}

TEST_F(KvTest, ScanLimit) {
  Run(Options{}, [](DB* db) -> Task<> {
    for (int i = 0; i < 20; ++i) {
      (void)co_await db->Put("k" + std::to_string(i), "v");
    }
    auto rows = co_await db->Scan("k", 5);
    CO_ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 5u);
  });
}

TEST_F(KvTest, ReopenRecoversFromWal) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("persist1", "v1");
    (void)co_await db->Put("persist2", "v2");
  });
  db_.reset();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_EQ((co_await db->Get("persist1")).value_or("X"), "v1");
    EXPECT_EQ((co_await db->Get("persist2")).value_or("X"), "v2");
  });
}

TEST_F(KvTest, ReopenRecoversFromTablesAndWal) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 150; ++i) {
      (void)co_await db->Put("key" + std::to_string(i), "val" + std::to_string(i));
    }
    co_await db->WaitForMaintenance();
  });
  db_.reset();
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 150; ++i) {
      EXPECT_EQ((co_await db->Get("key" + std::to_string(i))).value_or("X"),
                "val" + std::to_string(i));
    }
  });
}

TEST_F(KvTest, PowerLossKeepsSyncedWrites) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("durable", "yes");
  });
  db_.reset();
  storage_.PowerLoss();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_EQ((co_await db->Get("durable")).value_or("X"), "yes");
  });
}

TEST_F(KvTest, PowerLossDropsUnsyncedWrites) {
  Options nosync;
  nosync.sync_wal = false;
  Run(nosync, [](DB* db) -> Task<> {
    (void)co_await db->Put("volatile", "maybe");
  });
  db_.reset();
  storage_.PowerLoss();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_TRUE((co_await db->Get("volatile")).status().IsNotFound());
  });
}

TEST_F(KvTest, PowerLossPreservesBatchAtomicity) {
  // Write batches, kill power at a random instant mid-traffic, reopen, and
  // verify each batch is all-or-nothing.
  Options options;
  options.memtable_bytes = 8192;
  actor_.Spawn([](KvTest* self, Options opts) -> Task<> {
    auto db = co_await DB::Open(std::move(opts), &self->storage_);
    CO_ASSERT_OK(db);
    self->db_ = std::move(*db);
    for (int b = 0; b < 50; ++b) {
      WriteBatch batch;
      batch.Put("batch" + std::to_string(b) + "_a", std::to_string(b));
      batch.Put("batch" + std::to_string(b) + "_b", std::to_string(b));
      (void)co_await self->db_->Write(std::move(batch));
    }
  }(this, options));
  loop_.RunFor(Millis(2));  // cut power mid-stream
  db_.reset();
  actor_.Kill();
  storage_.PowerLoss();
  actor_.Revive();

  Run(Options{}, [](DB* db) -> Task<> {
    for (int b = 0; b < 50; ++b) {
      auto a = co_await db->Get("batch" + std::to_string(b) + "_a");
      auto bb = co_await db->Get("batch" + std::to_string(b) + "_b");
      EXPECT_EQ(a.ok(), bb.ok()) << "torn batch " << b;
      if (a.ok()) {
        EXPECT_EQ(*a, std::to_string(b));
        EXPECT_EQ(*bb, std::to_string(b));
      }
    }
  });
}

TEST_F(KvTest, CrashDuringFlushLosesNothing) {
  Options options = SmallOptions();
  actor_.Spawn([](KvTest* self, Options opts) -> Task<> {
    auto db = co_await DB::Open(std::move(opts), &self->storage_);
    CO_ASSERT_OK(db);
    self->db_ = std::move(*db);
    for (int i = 0; i < 300; ++i) {
      (void)co_await self->db_->Put("k" + std::to_string(i), std::string(80, 'x'));
    }
  }(this, options));
  // Stop at an arbitrary point where flushes/compactions are in flight.
  loop_.RunFor(Millis(5));
  const uint64_t live_before = db_ ? db_->CountLiveEntries() : 0;
  db_.reset();
  actor_.Kill();
  storage_.PowerLoss();
  actor_.Revive();

  Run(SmallOptions(), [live_before](DB* db) -> Task<> {
    EXPECT_GE(db->CountLiveEntries(), live_before);
    co_return;
  });
}

TEST_F(KvTest, ConcurrentWritersAllLand) {
  Run(SmallOptions(), [this](DB* db) -> Task<> {
    sim::Actor* actor = co_await sim::CurrentActor{};
    auto latch = std::make_shared<sim::Latch>(10);
    for (int w = 0; w < 10; ++w) {
      actor->Spawn([](DB* db, int w, std::shared_ptr<sim::Latch> l) -> Task<> {
        for (int i = 0; i < 30; ++i) {
          (void)co_await db->Put("w" + std::to_string(w) + "_" + std::to_string(i),
                                 std::string(64, 'd'));
        }
        l->CountDown();
      }(db, w, latch));
    }
    co_await latch->Wait();
    co_await db->WaitForMaintenance();
    EXPECT_EQ(db->CountLiveEntries(), 300u);
  });
}

TEST_F(KvTest, StatsTrackActivity) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 200; ++i) {
      (void)co_await db->Put("k" + std::to_string(i), std::string(100, 'v'));
    }
    (void)co_await db->Get("k0");
    co_await db->WaitForMaintenance();
    EXPECT_EQ(db->stats().writes.value(), 200u);
    EXPECT_GE(db->stats().gets.value(), 1u);
    EXPECT_GT(db->stats().flushes.value(), 0u);
    EXPECT_GT(db->stats().wal_bytes.value(), 0u);
  });
}

TEST_F(KvTest, SmallerBufferFlushesMoreOften) {
  uint64_t flushes_small = 0;
  {
    Options o;
    o.memtable_bytes = 2048;
    Run(o, [&flushes_small](DB* db) -> Task<> {
      for (int i = 0; i < 100; ++i) {
        (void)co_await db->Put("k" + std::to_string(i), std::string(100, 'v'));
      }
      co_await db->WaitForMaintenance();
      flushes_small = db->stats().flushes.value();
    });
  }
  // Fresh storage for an independent run.
  EventLoop loop2;
  Actor actor2(loop2);
  Storage storage2(loop2, sim::DiskParams{});
  uint64_t flushes_large = 0;
  actor2.Spawn([](Storage* st, uint64_t* out) -> Task<> {
    Options o;
    o.memtable_bytes = MiB(64);
    auto db = co_await DB::Open(std::move(o), st);
    CO_ASSERT_OK(db);
    for (int i = 0; i < 100; ++i) {
      (void)co_await (*db)->Put("k" + std::to_string(i), std::string(100, 'v'));
    }
    co_await (*db)->WaitForMaintenance();
    *out = (*db)->stats().flushes.value();
  }(&storage2, &flushes_large));
  loop2.Run();
  EXPECT_GT(flushes_small, flushes_large);
}

class WriteBatchTest : public ::testing::Test {};

TEST_F(WriteBatchTest, EncodeDecodeRoundTrip) {
  WriteBatch batch;
  batch.Put("key1", "value1");
  batch.Delete("key2");
  batch.Put("key3", std::string(1000, 'z'));
  auto decoded = WriteBatch::Decode(batch.payload());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ(decoded->payload(), batch.payload());
  std::vector<WriteBatch::Op> ops(decoded->begin(), decoded->end());
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].key, "key1");
  EXPECT_EQ(*ops[0].value, "value1");
  EXPECT_EQ(ops[1].key, "key2");
  EXPECT_FALSE(ops[1].value.has_value());
  EXPECT_EQ(ops[2].value->size(), 1000u);
  EXPECT_EQ(decoded->put_count(), 2u);
  EXPECT_EQ(decoded->delete_count(), 1u);
}

TEST_F(WriteBatchTest, CopiesShareOneBufferUntilWritten) {
  WriteBatch a;
  a.Put("k", "v");
  WriteBatch b = a;
  EXPECT_EQ(a.payload().data(), b.payload().data());
  b.Delete("gone");  // b gets its own buffer; a is unchanged
  EXPECT_NE(a.payload().data(), b.payload().data());
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(WriteBatch::Decode(a.payload())->size(), 1u);
}

TEST_F(WriteBatchTest, CountHeaderGrowsPastOneVarintByte) {
  WriteBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch.Put("k" + std::to_string(i), "v");
  }
  auto decoded = WriteBatch::Decode(batch.payload());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 200u);
  EXPECT_EQ(std::distance(decoded->begin(), decoded->end()), 200);
  EXPECT_EQ(WriteBatch().payload(), std::string_view("\0", 1));
}

TEST_F(WriteBatchTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(WriteBatch::Decode("\x05garbage").ok());
}

TEST_F(WriteBatchTest, DecodeRejectsTruncation) {
  WriteBatch batch;
  batch.Put("key", "value");
  std::string enc(batch.payload());
  enc.resize(enc.size() - 3);
  EXPECT_FALSE(WriteBatch::Decode(enc).ok());
}

TEST_F(WriteBatchTest, ByteSizeGrowsWithContent) {
  WriteBatch a, b;
  a.Put("k", "v");
  b.Put("k", std::string(4096, 'v'));
  EXPECT_GT(b.ByteSize(), a.ByteSize());
}

class TableTest : public ::testing::Test {};

TEST_F(TableTest, EncodeDecodeRoundTrip) {
  std::vector<Entry> entries;
  entries.push_back({"alpha", "1"});
  entries.push_back({"beta", std::nullopt});
  entries.push_back({"gamma", "3"});
  TablePtr t = Table::Build("sst_test", entries);
  TablePtr decoded = Table::Load("sst_test", t->file());
  EXPECT_EQ(decoded->bad_blocks(), 0u);
  ASSERT_EQ(decoded->entries().size(), 3u);
  EXPECT_EQ(decoded->entries()[1].key, "beta");
  EXPECT_FALSE(decoded->entries()[1].value.has_value());
  EXPECT_EQ(*decoded->entries()[2].value, "3");
}

TEST_F(TableTest, DecodeRejectsCorruption) {
  std::vector<Entry> entries = {{"k", "v"}};
  std::string enc = Table::Build("sst", entries)->file().ToString();
  enc[enc.size() / 2] ^= 0x40;
  EXPECT_EQ(Table::Load("sst", Bytes(enc))->bad_blocks(), 1u);
}

TEST_F(TableTest, FindAndRange) {
  std::vector<Entry> entries = {
      {"a_1", "1"}, {"a_2", "2"}, {"b_1", "3"}, {"b_2", "4"}};
  TablePtr t = Table::Build("sst", entries);
  EXPECT_TRUE(t->Find("a_2").has_value());
  EXPECT_FALSE(t->Find("a_3").has_value());
  EXPECT_TRUE(t->MayContain("a_5"));
  EXPECT_FALSE(t->MayContain("zz"));
  EXPECT_EQ(t->PrefixRange("b_").size(), 2u);
  EXPECT_EQ(t->PrefixRange("c_").size(), 0u);
}

// The entry count of each block of an encoded table, in file order.
std::vector<size_t> BlockCounts(const Bytes& file) {
  std::vector<size_t> counts;
  std::string_view in = file.view();
  while (!in.empty()) {
    uint32_t crc = 0;
    uint64_t len = 0;
    uint64_t count = 0;
    EXPECT_TRUE(GetFixed32(&in, &crc) && GetFixed64(&in, &len) && in.size() >= len);
    std::string_view body = in.substr(0, len);
    in.remove_prefix(len);
    EXPECT_TRUE(GetVarint64(&body, &count));
    counts.push_back(count);
  }
  return counts;
}

// Keys "k-0000", "k-0002", ...: even numbers only, so each odd number names
// a key between two stored ones. Every fifth entry is a tombstone, every
// seventh value is empty, and the values fill several blocks.
struct SpacedRun {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  std::vector<Entry> entries;
};

std::string SpacedKey(int n) {
  char key[16];
  std::snprintf(key, sizeof key, "k-%04d", n);
  return key;
}

SpacedRun MakeSpacedRun(int count) {
  SpacedRun run;
  for (int i = 0; i < count; ++i) {
    run.keys.push_back(SpacedKey(2 * i));
    run.values.push_back(i % 7 == 0 ? "" : std::string(150 + i, static_cast<char>('a' + i % 26)));
  }
  for (int i = 0; i < count; ++i) {
    run.entries.push_back(
        {run.keys[i], i % 5 == 0 ? std::nullopt : std::optional<std::string_view>(run.values[i])});
  }
  return run;
}

void ExpectSameEntry(const Entry& got, const Entry& want) {
  EXPECT_EQ(got.key, want.key);
  ASSERT_EQ(got.value.has_value(), want.value.has_value()) << want.key;
  if (want.value) {
    EXPECT_EQ(*got.value, *want.value) << want.key;
  }
}

TEST_F(TableTest, FindHitsEveryBlockEdgeAndMissesBetween) {
  SpacedRun run = MakeSpacedRun(120);
  TablePtr t = Table::Build("sst", run.entries);
  const std::vector<size_t> counts = BlockCounts(t->file());
  ASSERT_GE(counts.size(), 3u);
  ASSERT_EQ(t->blocks(), counts.size());
  size_t first = 0;
  for (size_t count : counts) {
    ASSERT_GT(count, 0u);
    for (size_t i : {first, first + count - 1}) {
      std::optional<Entry> hit = t->Find(run.keys[i]);
      ASSERT_TRUE(hit.has_value()) << run.keys[i];
      ExpectSameEntry(*hit, run.entries[i]);
      // The odd-numbered neighbours lie between stored keys.
      EXPECT_FALSE(t->Find(SpacedKey(2 * static_cast<int>(i) + 1)).has_value());
      EXPECT_TRUE(t->MayContain(SpacedKey(2 * static_cast<int>(i) + 1)) ||
                  i + 1 == run.entries.size());
    }
    first += count;
  }
  EXPECT_EQ(first, run.entries.size());
  EXPECT_FALSE(t->Find("k-").has_value());
  EXPECT_FALSE(t->Find("k-9999").has_value());
}

TEST_F(TableTest, PrefixRangeSpansABlockBoundary) {
  SpacedRun run = MakeSpacedRun(120);
  TablePtr t = Table::Build("sst", run.entries);
  const std::vector<size_t> counts = BlockCounts(t->file());
  ASSERT_GE(counts.size(), 2u);
  // The keys sharing all but the last digit with the first block's last
  // key: that decade runs past the block's end unless the block ends it.
  size_t boundary = counts[0];  // first entry of block 2
  if (run.keys[boundary].back() == '0') {
    boundary += counts[1];  // block 2 starts its own decade; use block 3
    ASSERT_GE(counts.size(), 3u);
    ASSERT_NE(run.keys[boundary].back(), '0');
  }
  const std::string prefix = run.keys[boundary].substr(0, 5);
  size_t begin = 0;
  while (!run.keys[begin].starts_with(prefix)) {
    ++begin;
  }
  size_t end = begin;
  while (end < run.keys.size() && run.keys[end].starts_with(prefix)) {
    ++end;
  }
  ASSERT_LT(begin, boundary);
  ASSERT_GT(end, boundary);
  const RunView range = t->PrefixRange(prefix);
  ASSERT_EQ(range.size(), end - begin);
  for (size_t i = 0; i < range.size(); ++i) {
    ExpectSameEntry(range[i], run.entries[begin + i]);
  }
}

TEST_F(TableTest, EmptyTableIsOneEmptyBlock) {
  TablePtr built = Table::Build("sst", std::span<const Entry>());
  TablePtr loaded = Table::Load("sst", built->file());
  for (const TablePtr& t : {built, loaded}) {
    EXPECT_EQ(t->blocks(), 1u);
    EXPECT_EQ(t->bad_blocks(), 0u);
    EXPECT_EQ(BlockCounts(t->file()), std::vector<size_t>{0});
    EXPECT_TRUE(t->entries().empty());
    EXPECT_FALSE(t->Find("").has_value());
    EXPECT_FALSE(t->Find("k").has_value());
    EXPECT_FALSE(t->MayContain(""));
    EXPECT_FALSE(t->MayContain("k"));
    EXPECT_TRUE(t->PrefixRange("").empty());
  }
}

TEST_F(TableTest, LoadYieldsTheBuiltEntriesOneByOne) {
  SpacedRun run = MakeSpacedRun(120);
  TablePtr built = Table::Build("sst", run.entries);
  TablePtr loaded = Table::Load("sst", built->file());
  EXPECT_EQ(loaded->bad_blocks(), 0u);
  EXPECT_EQ(loaded->blocks(), built->blocks());
  for (const TablePtr& t : {built, loaded}) {
    ASSERT_EQ(t->entries().size(), run.entries.size());
    for (size_t i = 0; i < run.entries.size(); ++i) {
      ExpectSameEntry(t->entries()[i], run.entries[i]);
      ExpectSameEntry(t->At(i), run.entries[i]);
    }
  }
}

TEST_F(TableTest, MergeRunsKeepsTheNewestVersionAndEmitsTombstones) {
  // Newest first: a memtable span, then two tables that share "b" and "d".
  const std::vector<Entry> mem = {{"b", std::nullopt}, {"e", "mem-e"}};
  TablePtr newer = Table::Build("sst_2", std::vector<Entry>{
                                             {"a", "newer-a"}, {"b", "newer-b"}, {"d", "newer-d"}});
  TablePtr older = Table::Build(
      "sst_1", std::vector<Entry>{{"b", "older-b"}, {"c", std::nullopt}, {"d", "older-d"},
                                  {"f", "older-f"}});
  const std::vector<RunView> runs = {RunView(mem), newer->PrefixRange(""), older->entries()};
  std::vector<std::pair<std::string, std::string>> got;
  MergeRuns(runs, [&got](const Entry& e) {
    got.emplace_back(e.key, e.value ? std::string(*e.value) : "<tombstone>");
  });
  const std::vector<std::pair<std::string, std::string>> want = {
      {"a", "newer-a"}, {"b", "<tombstone>"}, {"c", "<tombstone>"},
      {"d", "newer-d"}, {"e", "mem-e"},       {"f", "older-f"}};
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace cheetah::kv
