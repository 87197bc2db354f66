// Group commit in kv::DB: writers that find every commit slot busy queue,
// and the next commit appends all of their WAL records with one file write
// and one fsync. These tests pin the batching, its durability (no ack before
// the group's fsync, each batch all-or-nothing across power loss), shared
// failure, apply order, and that a lone writer still commits alone.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/kv/db.h"
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

// One commit slot: the first writer commits alone and every writer that
// arrives meanwhile joins the one group that follows it.
sim::DiskParams OneChannel() {
  sim::DiskParams p;
  p.channels = 1;
  return p;
}

WriteBatch TwoKeyBatch(int b) {
  WriteBatch batch;
  batch.Put("b" + std::to_string(b) + "_x", std::to_string(b));
  batch.Put("b" + std::to_string(b) + "_y", std::to_string(b));
  return batch;
}

class GroupCommitTest : public ::testing::Test {
 public:
  explicit GroupCommitTest(sim::DiskParams params = {})
      : actor_(loop_), storage_(loop_, params) {}

  // Opens the DB, then spawns one writer per batch at the same instant. A
  // writer records its status; `after_first_ack` runs in the first writer
  // right after its write returns (the group behind it has not started).
  void StartWriters(std::vector<WriteBatch> batches,
                    std::function<Task<>(GroupCommitTest*)> after_first_ack = nullptr) {
    statuses_.assign(batches.size(), Status::Internal("pending"));
    actor_.Spawn([](GroupCommitTest* self, std::vector<WriteBatch> batches,
                    std::function<Task<>(GroupCommitTest*)> hook) -> Task<> {
      auto db = co_await DB::Open(Options{}, &self->storage_);
      CO_ASSERT_OK(db);
      self->db_ = std::move(*db);
      for (size_t i = 0; i < batches.size(); ++i) {
        self->actor_.Spawn([](GroupCommitTest* self, size_t i, WriteBatch batch,
                              std::function<Task<>(GroupCommitTest*)> hook) -> Task<> {
          self->statuses_[i] = co_await self->db_->Write(std::move(batch));
          if (i == 0 && hook) {
            co_await hook(self);
          }
        }(self, i, std::move(batches[i]), i == 0 ? hook : nullptr));
      }
    }(this, std::move(batches), std::move(after_first_ack)));
  }

  // Power loss: the process dies, unsynced file bytes are dropped.
  void CutPower() {
    db_.reset();
    actor_.Kill();
    storage_.PowerLoss();
    actor_.Revive();
  }

  // Reopens the DB from disk and runs `body` against it.
  void Reopen(std::function<Task<>(DB*)> body) {
    db_.reset();
    actor_.Spawn([](GroupCommitTest* self, std::function<Task<>(DB*)> body) -> Task<> {
      auto db = co_await DB::Open(Options{}, &self->storage_);
      CO_ASSERT_OK(db);
      self->db_ = std::move(*db);
      co_await body(self->db_.get());
    }(this, std::move(body)));
    loop_.Run();
  }

  EventLoop loop_;
  Actor actor_;
  Storage storage_;
  std::unique_ptr<DB> db_;
  std::vector<Status> statuses_;
};

class OneChannelGroupCommitTest : public GroupCommitTest {
 public:
  OneChannelGroupCommitTest() : GroupCommitTest(OneChannel()) {}
};

TEST_F(GroupCommitTest, BusyDiskSharesFsyncsAndEveryAckSurvivesPowerLoss) {
  // 64 closed-loop writers saturate the default 8 channels; power is cut
  // mid-stream. Every write acked before the cut must be on disk.
  auto acked = std::make_shared<std::set<std::string>>();
  actor_.Spawn([](GroupCommitTest* self, std::shared_ptr<std::set<std::string>> acked)
                   -> Task<> {
    auto db = co_await DB::Open(Options{}, &self->storage_);
    CO_ASSERT_OK(db);
    self->db_ = std::move(*db);
    for (int w = 0; w < 64; ++w) {
      self->actor_.Spawn([](DB* db, int w, std::shared_ptr<std::set<std::string>> acked)
                             -> Task<> {
        for (int i = 0; i < 1000; ++i) {
          std::string key = "w" + std::to_string(w) + "_" + std::to_string(i);
          if ((co_await db->Put(key, std::string(200, 'v'))).ok()) {
            acked->insert(std::move(key));
          }
        }
      }(self->db_.get(), w, acked));
    }
  }(this, acked));
  loop_.RunFor(Millis(2));
  const uint64_t writes = db_->stats().writes.value();
  const uint64_t commits = db_->stats().wal_commits.value();
  EXPECT_EQ(writes, acked->size());
  EXPECT_GT(writes, 0u);
  EXPECT_LT(commits * 2, writes) << "a saturated device should batch writes";
  CutPower();
  Reopen([acked](DB* db) -> Task<> {
    for (const std::string& key : *acked) {
      EXPECT_TRUE((co_await db->Get(key)).ok()) << "acked write lost: " << key;
    }
  });
}

TEST_F(GroupCommitTest, LoneWriterCommitsAloneWithOneWriteAndOneFsync) {
  Nanos elapsed = 0;
  actor_.Spawn([](GroupCommitTest* self, Nanos* elapsed) -> Task<> {
    auto db = co_await DB::Open(Options{}, &self->storage_);
    CO_ASSERT_OK(db);
    self->db_ = std::move(*db);
    const Nanos start = self->loop_.Now();
    CO_ASSERT_STATUS_OK(co_await self->db_->Put("key", "value"));
    *elapsed = self->loop_.Now() - start;
  }(this, &elapsed));
  loop_.Run();
  EXPECT_EQ(db_->stats().wal_commits.value(), 1u);
  EXPECT_EQ(db_->stats().writes.value(), 1u);
  // Exactly one file write of the record, then one fsync, back to back.
  const sim::DiskParams p;
  const double bytes = static_cast<double>(db_->stats().wal_bytes.value());
  EXPECT_EQ(elapsed, p.write_base + static_cast<Nanos>(bytes / p.write_bw_bytes_per_sec * 1e9) +
                         p.fsync_base);
}

TEST_F(OneChannelGroupCommitTest, QueuedWritersShareOneAppend) {
  std::vector<WriteBatch> batches;
  for (int b = 0; b < 10; ++b) {
    batches.push_back(TwoKeyBatch(b));
  }
  StartWriters(std::move(batches));
  loop_.Run();
  for (const Status& s : statuses_) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  // The first writer alone, then one group of the nine that queued behind it.
  EXPECT_EQ(db_->stats().writes.value(), 10u);
  EXPECT_EQ(db_->stats().wal_commits.value(), 2u);
  // One record per batch: replay sees ten, not two.
  Reopen([](DB* db) -> Task<> {
    EXPECT_EQ(db->wal_records_replayed(), 10u);
    EXPECT_TRUE(db->recovered_clean());
    EXPECT_EQ(db->CountLiveEntries(), 20u);
    co_return;
  });
}

TEST_F(OneChannelGroupCommitTest, PowerLossBeforeGroupFsyncLeavesBatchesWhole) {
  std::vector<WriteBatch> batches;
  for (int b = 0; b < 6; ++b) {
    batches.push_back(TwoKeyBatch(b));
  }
  // Once the first writer is acked, hold every later fsync: the group's
  // records reach the file but are not yet durable when the power goes.
  StartWriters(std::move(batches), [](GroupCommitTest* self) -> Task<> {
    self->storage_.SetGrayFailure(sim::GrayFailure{.fsync_stuck_for = Millis(1)});
    co_return;
  });
  loop_.RunFor(Micros(500));
  EXPECT_TRUE(statuses_[0].ok());
  for (size_t i = 1; i < statuses_.size(); ++i) {
    EXPECT_FALSE(statuses_[i].ok()) << "batch " << i << " acked before its fsync";
  }
  const uint64_t file_bytes = storage_.TotalFileBytes();
  CutPower();
  EXPECT_LT(storage_.TotalFileBytes(), file_bytes) << "the group's append was not pending";
  storage_.ClearGrayFailure();
  Reopen([](DB* db) -> Task<> {
    EXPECT_EQ((co_await db->Get("b0_x")).value_or("X"), "0");
    for (int b = 0; b < 6; ++b) {
      auto x = co_await db->Get("b" + std::to_string(b) + "_x");
      auto y = co_await db->Get("b" + std::to_string(b) + "_y");
      EXPECT_EQ(x.ok(), y.ok()) << "torn batch " << b;
    }
  });
}

TEST_F(OneChannelGroupCommitTest, FailedGroupAppendFailsEveryMemberAndAppliesNone) {
  std::vector<WriteBatch> batches;
  for (int b = 0; b < 5; ++b) {
    batches.push_back(TwoKeyBatch(b));
  }
  // The first writer holds the group's fsync, then deletes the WAL under it:
  // the bytes the group was making durable are gone, so the append fails.
  StartWriters(std::move(batches), [](GroupCommitTest* self) -> Task<> {
    self->storage_.SetGrayFailure(sim::GrayFailure{.fsync_stuck_for = Millis(1)});
    co_await sim::SleepFor(Micros(500));
    for (const std::string& wal : self->storage_.ListFiles("db.wal_")) {
      (void)self->storage_.DeleteFile(wal);
    }
  });
  loop_.Run();
  EXPECT_TRUE(statuses_[0].ok());
  for (size_t i = 1; i < statuses_.size(); ++i) {
    EXPECT_EQ(statuses_[i].code(), ErrorCode::kIoError) << statuses_[i].ToString();
  }
  EXPECT_EQ(db_->stats().writes.value(), 1u);
  EXPECT_EQ(db_->stats().wal_commits.value(), 2u);
  actor_.Spawn([](DB* db) -> Task<> {
    EXPECT_TRUE((co_await db->Get("b0_x")).ok());
    for (int b = 1; b < 5; ++b) {
      EXPECT_TRUE((co_await db->Get("b" + std::to_string(b) + "_x")).status().IsNotFound());
      EXPECT_TRUE((co_await db->Get("b" + std::to_string(b) + "_y")).status().IsNotFound());
    }
  }(db_.get()));
  loop_.Run();
}

TEST_F(OneChannelGroupCommitTest, SameKeyInOneGroupEndsWithLastQueuedValue) {
  std::vector<WriteBatch> batches;
  for (int v = 0; v < 8; ++v) {
    WriteBatch batch;
    batch.Put("key", "v" + std::to_string(v));
    batches.push_back(std::move(batch));
  }
  StartWriters(std::move(batches));
  loop_.Run();
  EXPECT_EQ(db_->stats().wal_commits.value(), 2u);  // v0 alone, then v1..v7
  actor_.Spawn([](DB* db) -> Task<> {
    EXPECT_EQ((co_await db->Get("key")).value_or("X"), "v7");
  }(db_.get()));
  loop_.Run();
  Reopen([](DB* db) -> Task<> {
    EXPECT_EQ((co_await db->Get("key")).value_or("X"), "v7");
  });
}

}  // namespace
}  // namespace cheetah::kv
