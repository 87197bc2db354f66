// Edge cases and failure injection for the LSM KV store beyond the basic
// suite: scan boundaries, corruption handling, large values, reopen cycles.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/common/units.h"
#include "src/kv/db.h"
#include "src/kv/sstable.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "src/sim/storage.h"
#include "tests/test_util.h"

namespace cheetah::kv {
namespace {

using sim::Actor;
using sim::EventLoop;
using sim::Storage;
using sim::Task;

class KvEdgeTest : public ::testing::Test {
 public:
  KvEdgeTest() : actor_(loop_), storage_(loop_, sim::DiskParams{}) {}

  void Run(Options options, std::function<Task<>(DB*)> body) {
    actor_.Spawn([](KvEdgeTest* self, Options opts, std::function<Task<>(DB*)> body) -> Task<> {
      auto db = co_await DB::Open(std::move(opts), &self->storage_);
      CO_ASSERT_OK(db);
      self->db_ = std::move(*db);
      co_await body(self->db_.get());
    }(this, std::move(options), std::move(body)));
    loop_.Run();
  }

  EventLoop loop_;
  Actor actor_;
  Storage storage_;
  std::unique_ptr<DB> db_;
};

TEST_F(KvEdgeTest, EmptyPrefixScansEverything) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("a", "1");
    (void)co_await db->Put("b", "2");
    (void)co_await db->Put("c", "3");
    auto rows = co_await db->Scan("", 0);
    CO_ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 3u);
  });
}

TEST_F(KvEdgeTest, ScanPrefixIsExactBoundary) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("ab", "1");
    (void)co_await db->Put("abc", "2");
    (void)co_await db->Put("abd", "3");
    (void)co_await db->Put("ac", "4");
    auto rows = co_await db->Scan("ab", 0);
    CO_ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 3u);  // ab, abc, abd — not ac
  });
}

TEST_F(KvEdgeTest, EmptyValueIsNotATombstone) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("empty", "");
    auto v = co_await db->Get("empty");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "");
    auto rows = co_await db->Scan("empty", 0);
    CO_ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 1u);
  });
}

TEST_F(KvEdgeTest, LargeValuesSurviveFlush) {
  Options options;
  options.memtable_bytes = KiB(64);
  Run(options, [](DB* db) -> Task<> {
    const std::string big(200000, 'B');
    (void)co_await db->Put("big1", big);
    (void)co_await db->Put("big2", big);
    co_await db->WaitForMaintenance();
    auto v = co_await db->Get("big1");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->size(), 200000u);
    EXPECT_EQ(Crc32c(*v), Crc32c(big));
  });
}

TEST_F(KvEdgeTest, DeleteOfNonexistentKeyIsDurableTombstone) {
  Options options;
  options.memtable_bytes = 2048;
  Run(options, [](DB* db) -> Task<> {
    (void)co_await db->Delete("ghost");
    for (int i = 0; i < 50; ++i) {  // push the tombstone through a flush
      (void)co_await db->Put("filler" + std::to_string(i), std::string(100, 'f'));
    }
    co_await db->WaitForMaintenance();
    EXPECT_TRUE((co_await db->Get("ghost")).status().IsNotFound());
  });
}

TEST_F(KvEdgeTest, ManyReopenCyclesPreserveData) {
  Options options;
  options.memtable_bytes = 4096;
  for (int cycle = 0; cycle < 5; ++cycle) {
    Run(options, [cycle](DB* db) -> Task<> {
      // Everything from earlier cycles is still there...
      for (int c = 0; c < cycle; ++c) {
        for (int i = 0; i < 20; ++i) {
          auto v = co_await db->Get("c" + std::to_string(c) + "-" + std::to_string(i));
          CO_ASSERT_TRUE(v.ok());
          EXPECT_EQ(*v, std::to_string(c * 100 + i));
        }
      }
      // ...and this cycle adds more.
      for (int i = 0; i < 20; ++i) {
        (void)co_await db->Put("c" + std::to_string(cycle) + "-" + std::to_string(i),
                               std::to_string(cycle * 100 + i));
      }
    });
    db_.reset();
  }
}

TEST_F(KvEdgeTest, CorruptManifestFailsOpen) {
  Options small;
  small.memtable_bytes = 2048;  // force flushes so a manifest exists
  Run(small, [](DB* db) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      (void)co_await db->Put("k" + std::to_string(i), std::string(200, 'v'));
    }
    co_await db->WaitForMaintenance();
    EXPECT_GT(db->stats().flushes.value(), 0u);
  });
  db_.reset();
  // Flip a byte in the manifest.
  actor_.Spawn([](Storage* storage) -> Task<> {
    auto manifest = co_await storage->ReadFile("db.MANIFEST");
    if (manifest.ok() && !manifest->empty()) {
      std::string bad = manifest->ToString();
      bad[bad.size() / 2] ^= 0x20;
      (void)co_await storage->WriteFile("db.MANIFEST", Bytes(bad), true);
    }
  }(&storage_));
  loop_.Run();
  bool opened = true;
  actor_.Spawn([](Storage* storage, bool* opened) -> Task<> {
    auto db = co_await DB::Open(Options{}, storage);
    *opened = db.ok();
  }(&storage_, &opened));
  loop_.Run();
  EXPECT_FALSE(opened);
}

TEST_F(KvEdgeTest, TornWalTailStopsReplayCleanly) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("good1", "v1");
    (void)co_await db->Put("good2", "v2");
  });
  db_.reset();
  // Append garbage to the WAL (simulating a torn final record).
  actor_.Spawn([](Storage* storage) -> Task<> {
    auto wals = storage->ListFiles("db.wal_");
    if (!wals.empty()) {
      (void)co_await storage->Append(wals.front(), "\x13garbage-torn-record", true);
    }
  }(&storage_));
  loop_.Run();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_EQ((co_await db->Get("good1")).value_or("X"), "v1");
    EXPECT_EQ((co_await db->Get("good2")).value_or("X"), "v2");
    // Replay classified the damage as a truncated tail — a benign power-loss
    // artifact, not media corruption.
    EXPECT_EQ(db->stats().wal_torn_tail.value(), 1u);
    EXPECT_EQ(db->stats().wal_corrupt_records.value(), 0u);
    EXPECT_EQ(db->wal_records_replayed(), 2u);
    EXPECT_FALSE(db->recovered_clean());
    // The DB remains writable after truncating the torn tail.
    EXPECT_TRUE((co_await db->Put("good3", "v3")).ok());
    EXPECT_EQ((co_await db->Get("good3")).value_or("X"), "v3");
  });
}

TEST_F(KvEdgeTest, CleanReopenReportsCleanRecovery) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("a", "1");
    (void)co_await db->Put("b", "2");
  });
  db_.reset();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_TRUE(db->recovered_clean());
    EXPECT_EQ(db->wal_records_replayed(), 2u);
    EXPECT_EQ(db->stats().wal_torn_tail.value(), 0u);
    EXPECT_EQ(db->stats().wal_corrupt_records.value(), 0u);
    co_return;
  });
}

TEST_F(KvEdgeTest, CorruptWalRecordIsSkippedAndLaterRecordsSalvaged) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("good1", "v1");
    (void)co_await db->Put("doomed", "v2");
    (void)co_await db->Put("good3", "v3");
  });
  db_.reset();
  // Flip a payload byte inside the *middle* record. The framing (CRC and
  // length fields) stays intact, so this is a full-length record whose CRC
  // fails — media damage, not a torn tail.
  actor_.Spawn([](Storage* storage) -> Task<> {
    auto wals = storage->ListFiles("db.wal_");
    CO_ASSERT_TRUE(!wals.empty());
    auto file = co_await storage->ReadFile(wals.front());
    CO_ASSERT_OK(file);
    std::string_view cursor = *file;
    uint32_t crc = 0;
    uint64_t len = 0;
    CO_ASSERT_TRUE(GetFixed32(&cursor, &crc) && GetFixed64(&cursor, &len));
    cursor.remove_prefix(len);  // skip record 1
    CO_ASSERT_TRUE(GetFixed32(&cursor, &crc) && GetFixed64(&cursor, &len));
    const size_t payload2_off = file->size() - cursor.size();
    std::string bad = file->ToString();
    bad[payload2_off + len / 2] ^= 0x01;
    (void)co_await storage->WriteFile(wals.front(), Bytes(bad), true);
  }(&storage_));
  loop_.Run();
  Run(Options{}, [](DB* db) -> Task<> {
    // The damaged batch is lost; everything before AND after it survives.
    EXPECT_EQ((co_await db->Get("good1")).value_or("X"), "v1");
    EXPECT_TRUE((co_await db->Get("doomed")).status().IsNotFound());
    EXPECT_EQ((co_await db->Get("good3")).value_or("X"), "v3");
    EXPECT_EQ(db->stats().wal_corrupt_records.value(), 1u);
    EXPECT_EQ(db->stats().wal_salvaged_records.value(), 1u);  // good3
    EXPECT_EQ(db->wal_records_replayed(), 2u);
    EXPECT_EQ(db->stats().wal_torn_tail.value(), 0u);
    EXPECT_FALSE(db->recovered_clean());
    EXPECT_TRUE((co_await db->Put("again", "v4")).ok());
    EXPECT_EQ((co_await db->Get("again")).value_or("X"), "v4");
  });
}

TEST_F(KvEdgeTest, SstableBlockSalvageSkipsDamagedBlockOnly) {
  // Enough entries to span several ~4KB blocks.
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key-%03d", i);
    keys.emplace_back(key);
    values.emplace_back(200, static_cast<char>('a' + i % 26));
  }
  std::vector<Entry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({keys[i], values[i]});
  }
  TablePtr table = Table::Build("t", entries);
  const Bytes& enc = table->file();

  // Pristine file: every block verifies, nothing lost.
  TablePtr clean = Table::Load("t", enc);
  EXPECT_GE(clean->blocks(), 3u) << "test needs a multi-block table";
  EXPECT_EQ(clean->blocks(), table->blocks());
  EXPECT_EQ(clean->bad_blocks(), 0u);
  EXPECT_EQ(clean->entries().size(), entries.size());

  // Rot one byte inside the second block's body: that block's key range is
  // lost, every other block decodes.
  std::string_view cursor = enc;
  uint32_t crc = 0;
  uint64_t len = 0;
  ASSERT_TRUE(GetFixed32(&cursor, &crc) && GetFixed64(&cursor, &len));
  cursor.remove_prefix(len);  // skip block 1
  ASSERT_TRUE(GetFixed32(&cursor, &crc) && GetFixed64(&cursor, &len));
  std::string bad = enc.ToString();
  bad[enc.size() - cursor.size() + len / 2] ^= 0x01;

  TablePtr salvaged = Table::Load("t", Bytes(std::move(bad)));
  EXPECT_EQ(salvaged->blocks(), clean->blocks());
  EXPECT_EQ(salvaged->bad_blocks(), 1u);
  EXPECT_LT(salvaged->entries().size(), entries.size());
  EXPECT_GT(salvaged->entries().size(), 0u);
  // Every salvaged entry is intact and still in key order.
  for (size_t i = 0; i < salvaged->entries().size(); ++i) {
    const Entry& e = salvaged->entries()[i];
    EXPECT_EQ(e.value->size(), 200u) << e.key;
    if (i > 0) {
      EXPECT_LT(salvaged->entries()[i - 1].key, e.key);
    }
  }
}

TEST_F(KvEdgeTest, CountLiveEntriesTracksMutations) {
  Options options;
  options.memtable_bytes = 2048;
  Run(options, [](DB* db) -> Task<> {
    EXPECT_EQ(db->CountLiveEntries(), 0u);
    for (int i = 0; i < 30; ++i) {
      (void)co_await db->Put("k" + std::to_string(i), std::string(100, 'v'));
    }
    EXPECT_EQ(db->CountLiveEntries(), 30u);
    for (int i = 0; i < 10; ++i) {
      (void)co_await db->Delete("k" + std::to_string(i));
    }
    co_await db->WaitForMaintenance();
    EXPECT_EQ(db->CountLiveEntries(), 20u);
    // Overwrites do not change the live count.
    (void)co_await db->Put("k15", "replacement");
    EXPECT_EQ(db->CountLiveEntries(), 20u);
  });
}

TEST_F(KvEdgeTest, TwoDbsShareOneDisk) {
  Options a;
  a.name = "alpha";
  Options b;
  b.name = "beta";
  auto done = std::make_shared<bool>(false);
  actor_.Spawn([](Storage* storage, Options a, Options b, std::shared_ptr<bool> done) -> Task<> {
    auto db_a = co_await DB::Open(std::move(a), storage);
    auto db_b = co_await DB::Open(std::move(b), storage);
    CO_ASSERT_OK(db_a);
    CO_ASSERT_OK(db_b);
    (void)co_await (*db_a)->Put("key", "from-alpha");
    (void)co_await (*db_b)->Put("key", "from-beta");
    EXPECT_EQ((co_await (*db_a)->Get("key")).value_or("X"), "from-alpha");
    EXPECT_EQ((co_await (*db_b)->Get("key")).value_or("X"), "from-beta");
    *done = true;
  }(&storage_, std::move(a), std::move(b), done));
  loop_.Run();
  EXPECT_TRUE(*done);
}

}  // namespace
}  // namespace cheetah::kv
