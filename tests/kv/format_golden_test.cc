// Golden on-disk format of kv::DB. A fixed write sequence (multi-key
// batches, overwrites, deletes, empty and multi-block values, bursts that
// group-commit) must leave WAL, SSTable and manifest files whose sizes and
// CRC32Cs equal the values recorded below. Virtual time charges disk and
// network by these bytes, and a reopened store must read files written by
// earlier builds, so any change to them is a format change, not a refactor.
// The same file pins the MetaX replication message size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/core/messages.h"
#include "src/kv/db.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "src/sim/storage.h"
#include "tests/test_util.h"

namespace cheetah::kv {
namespace {

using sim::Task;
using Model = std::map<std::string, std::string>;

struct FileDigest {
  std::string name;
  uint64_t size;
  uint32_t crc;
  bool operator==(const FileDigest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FileDigest& d) {
  return os << "{\"" << d.name << "\", " << d.size << ", 0x" << std::hex << d.crc << std::dec
            << "}";
}

// Recorded from the store before batches became their own encoded buffers.
const std::vector<FileDigest> kGolden = {
    {"golden.MANIFEST", 49, 0x9eff3d11},
    {"golden.sst_27", 21987, 0x2085431c},
    {"golden.sst_30", 10313, 0xb6ff90af},
    {"golden.sst_33", 7934, 0xd9bdf6e1},
    {"golden.wal_23", 3176, 0x586b50b8},
};

std::string Value(int i) {
  if (i % 17 == 0) {
    return "";  // empty values are legal and must round-trip
  }
  if (i % 53 == 0) {
    return std::string(5000, static_cast<char>('A' + i % 26));  // spans blocks
  }
  return "value-" + std::to_string(i * 7919 % 1000) + std::string(i % 40, 'x');
}

std::string Key(int i) { return "key/" + std::to_string(i % 150); }

// The write sequence; `model` receives its final state.
Task<> WriteSequence(sim::Actor* actor, DB* db, Model* model) {
  for (int i = 0; i < 520; ++i) {
    WriteBatch batch;
    batch.Put(Key(i), Value(i));
    (*model)[Key(i)] = Value(i);
    if (i % 3 == 0) {
      batch.Put(Key(i + 71), Value(i + 1));
      (*model)[Key(i + 71)] = Value(i + 1);
    }
    if (i % 5 == 0) {
      batch.Delete(Key(i + 13));
      model->erase(Key(i + 13));
    }
    EXPECT_TRUE((co_await db->Write(std::move(batch))).ok());
    if (i % 40 == 39) {
      // A burst of concurrent writers: they queue behind the one commit
      // slot and share WAL appends.
      auto left = std::make_shared<int>(6);
      for (int w = 0; w < 6; ++w) {
        const std::string key = "burst/" + std::to_string(i) + "/" + std::to_string(w);
        (*model)[key] = Value(i + w);
        actor->Spawn([](DB* db, std::string key, std::string value,
                        std::shared_ptr<int> left) -> Task<> {
          EXPECT_TRUE((co_await db->Put(key, value)).ok());
          --*left;
        }(db, key, Value(i + w), left));
      }
      while (*left > 0) {
        co_await sim::SleepFor(Micros(10));
      }
    }
  }
  co_await db->WaitForMaintenance();
}

TEST(KvFormatGolden, WalAndTableFilesMatchRecordedBytes) {
  sim::EventLoop loop;
  sim::Actor actor(loop);
  sim::DiskParams params;
  params.channels = 1;
  sim::Storage storage(loop, params);
  Options options;
  options.name = "golden";
  options.memtable_bytes = 4096;
  options.l0_compaction_trigger = 2;

  Model model;
  std::vector<FileDigest> files;
  bool done = false;
  actor.Spawn([](sim::Actor* actor, sim::Storage* storage, Options options,
                 Model* model, std::vector<FileDigest>* files,
                 bool* done) -> Task<> {
    auto db = co_await DB::Open(options, storage);
    CO_ASSERT_OK(db);
    co_await WriteSequence(actor, db->get(), model);
    EXPECT_GE((*db)->stats().flushes.value(), 20u);
    EXPECT_GE((*db)->stats().compactions.value(), 9u);  // the ninth folds L1
    EXPECT_LT((*db)->stats().wal_commits.value(), (*db)->stats().writes.value());
    for (const std::string& name : storage->ListFiles("golden.")) {
      auto data = co_await storage->ReadFile(name);
      CO_ASSERT_OK(data);
      files->push_back(FileDigest{name, data->size(), Crc32c(*data)});
    }
    db->reset();

    // The files reopen to the same contents.
    auto reopened = co_await DB::Open(options, storage);
    CO_ASSERT_OK(reopened);
    EXPECT_TRUE((*reopened)->recovered_clean());
    EXPECT_EQ((*reopened)->CountLiveEntries(), model->size());
    auto all = co_await (*reopened)->Scan("", 0);
    CO_ASSERT_OK(all);
    EXPECT_EQ(Model(all->begin(), all->end()), *model);
    *done = true;
  }(&actor, &storage, options, &model, &files, &done));
  loop.Run();
  ASSERT_TRUE(done);

  std::sort(files.begin(), files.end(),
            [](const FileDigest& a, const FileDigest& b) { return a.name < b.name; });
  std::ostringstream observed;
  for (const FileDigest& f : files) {
    observed << "    " << f << ",\n";
  }
  EXPECT_EQ(files, kGolden) << "observed:\n" << observed.str();
}

TEST(KvFormatGolden, ReplicationMessageSizeKeepsItsFormula) {
  const std::vector<std::pair<std::string, std::string>> puts = {
      {"obmeta/7/object-123", std::string(97, 'm')}, {"pglog/7/42", "pg"}, {"pxlog/3/9", ""}};
  const std::vector<std::string> deletes = {"pglog/7/41", "pxlog/3/8"};
  core::ReplicateMetaXRequest req;
  size_t formula = 32;
  for (const auto& [k, v] : puts) {
    req.batch.Put(k, v);
    formula += k.size() + v.size() + 8;
  }
  for (const std::string& k : deletes) {
    req.batch.Delete(k);
    formula += k.size() + 4;
  }
  EXPECT_EQ(req.wire_size(), formula);
  EXPECT_EQ(req.wire_size(), 32u + (19 + 97 + 8) + (10 + 2 + 8) + (9 + 0 + 8) + (10 + 4) +
                                 (9 + 4));
  EXPECT_EQ(core::ReplicateMetaXRequest().wire_size(), 32u);
}

}  // namespace
}  // namespace cheetah::kv
