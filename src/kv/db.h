// Embedded LSM key-value store over a simulated disk (RocksDB substitute).
//
// Write path: WAL append (optionally fsynced) -> memtable. Writes group-commit:
// while the device's channels are all busy with WAL commits of this DB, new
// writers queue, and the next commit takes the whole queue as one append and
// one fsync (see Write()). A full memtable is
// frozen and flushed to a level-0 SSTable in the background; level-0 tables
// are merged into a single level-1 run when l0_compaction_trigger accumulate.
// WriteBatch gives multi-key atomicity (all-or-nothing across crashes), which
// is the property Cheetah's MetaX maintenance relies on (§5.2 of the paper).
//
// Recovery: Open() reads the manifest, loads live SSTables (salvaging around
// CRC-bad blocks), deletes orphans from interrupted flushes/compactions, and
// replays surviving WAL records in order. WAL replay is paranoid: it
// distinguishes a clean tail from a torn final record (benign power-loss
// truncation) from a full-length record whose CRC or decode fails (media
// damage), and keeps salvaging records that follow a damaged one. The
// classification is reported in the DB's obs counters so a scrub or
// operator can tell silent corruption from an ordinary crash.
#ifndef SRC_KV_DB_H_
#define SRC_KV_DB_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/status.h"
#include "src/kv/options.h"
#include "src/obs/metrics.h"
#include "src/kv/sstable.h"
#include "src/kv/write_batch.h"
#include "src/sim/storage.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace cheetah::kv {

class DB {
 public:
  // Live registry counters ("kv.<name>#<instance>.*"). The wal_*/sst_*
  // ones count what Open() found on disk; each DB instance opens once.
  struct Counters {
    obs::Scope scope;
    obs::Counter& writes = *scope.counter("writes");
    obs::Counter& flushes = *scope.counter("flushes");
    obs::Counter& compactions = *scope.counter("compactions");
    obs::Counter& gets = *scope.counter("gets");
    obs::Counter& wal_bytes = *scope.counter("wal_bytes");
    obs::Counter& wal_commits = *scope.counter("wal_commits");  // WAL appends (+ fsyncs)
    obs::Counter& wal_torn_tail = *scope.counter("wal_torn_tail");  // truncated final record
    obs::Counter& wal_corrupt_records = *scope.counter("wal_corrupt_records");  // CRC/decode bad
    obs::Counter& wal_salvaged_records = *scope.counter("wal_salvaged_records");  // after damage
    obs::Counter& sst_blocks_bad = *scope.counter("sst_blocks_bad");  // skipped by salvage
  };
  const Counters& stats() const { return counters_; }

  // Open() replayed every WAL byte and verified every SSTable block. Anything
  // else is either a benign crash artifact (torn tail) or media damage
  // (corrupt records / bad blocks).
  bool recovered_clean() const {
    return counters_.wal_torn_tail.value() == 0 && counters_.wal_corrupt_records.value() == 0 &&
           counters_.sst_blocks_bad.value() == 0;
  }
  uint64_t wal_records_replayed() const { return wal_records_replayed_; }

  // Opens (or creates) the database named options.name on `storage`.
  static sim::Task<Result<std::unique_ptr<DB>>> Open(Options options, sim::Storage* storage);

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;
  ~DB() = default;

  // Atomically applies `batch`. Durable (given sync_wal) once this returns.
  //
  // Group commit: a writer commits alone while fewer than the disk's
  // `channels` WAL commits of this DB are in flight; otherwise it queues.
  // A finishing commit hands its slot to the first queued writer, which
  // leads a group of every batch queued so far: one WAL append of their
  // framed records (one record per batch, so replay and torn-tail handling
  // are unchanged) and one fsync, then the batches reach the memtable in
  // queue order and every member returns the group's status.
  sim::Task<Status> Write(WriteBatch batch);

  sim::Task<Status> Put(std::string key, std::string value);
  sim::Task<Status> Delete(std::string key);

  // Point lookup. NotFound if absent or deleted.
  sim::Task<Result<std::string>> Get(std::string key);

  // All live (key, value) pairs whose key starts with `prefix`, sorted by key.
  // limit = 0 means unlimited.
  sim::Task<Result<std::vector<std::pair<std::string, std::string>>>> Scan(std::string prefix,
                                                                           size_t limit);

  // Number of live entries (exact; walks the merged view without disk charge).
  uint64_t CountLiveEntries() const;

  const Options& options() const { return options_; }

  // Test hook: waits until no flush/compaction is running.
  sim::Task<> WaitForMaintenance();

 private:
  DB(Options options, sim::Storage* storage)
      : options_(std::move(options)),
        storage_(storage),
        counters_{obs::Scope("kv." + options_.name)} {}

  // Node allocations come from the process-wide pool: the memtable churns one
  // tree node per applied key, and pooling them keeps the write path off
  // malloc (behavior is unchanged — an allocator affects neither ordering nor
  // contents).
  using MemTable =
      std::map<std::string, std::optional<std::string>, std::less<std::string>,
               PoolAllocator<std::pair<const std::string, std::optional<std::string>>>>;

  std::string WalName(uint64_t seq) const;
  std::string SstName(uint64_t file_no) const;
  std::string ManifestName() const { return options_.name + ".MANIFEST"; }

  std::string EncodeManifest() const;
  Status ApplyManifest(std::string_view data);

  sim::Task<Status> PersistManifest();
  sim::Task<> MaybeScheduleFlush();
  sim::Task<> FlushTask();
  sim::Task<> CompactTask();
  void ApplyToMem(const WriteBatch& batch);

  // Merged lookup across memtables and tables without charging the disk;
  // returns nullopt if the key is nowhere, or the entry (maybe tombstone).
  std::optional<std::optional<std::string>> LookupInMemory(std::string_view key,
                                                           uint64_t* charged_bytes) const;

  Options options_;
  sim::Storage* storage_;

  MemTable mem_;
  uint64_t mem_bytes_ = 0;
  uint64_t mem_wal_seq_ = 1;
  MemTable imm_;       // frozen memtable being flushed
  uint64_t imm_wal_seq_ = 0;
  bool has_imm_ = false;

  bool flushing_ = false;
  bool compacting_ = false;
  bool freeze_pending_ = false;  // flush wants to swap memtables; writes stall
  int in_flight_writes_ = 0;     // writes (queued ones too) not yet in the memtable

  // A write queued for a group commit. Lives in the writer's frame.
  struct Writer {
    const WriteBatch* batch = nullptr;
    std::string record;  // framed WAL record
    Status status;
    bool done = false;  // a group committed (or failed) it
    sim::Event wake;    // set when done, or when handed a commit slot
  };
  std::deque<Writer*> writers_;  // waiting for a commit slot, in arrival order
  int commits_in_flight_ = 0;    // WAL appends of this DB not yet finished

  // Table names as listed by the last-read manifest (used during Open).
  std::vector<std::string> manifest_l0_;
  std::vector<std::string> manifest_l1_;

  // L1 runs beyond this are folded into one (dropping tombstones).
  static constexpr size_t kMaxL1Runs = 8;

  uint64_t next_file_no_ = 1;
  std::vector<TablePtr> l0_;  // newest first
  std::vector<TablePtr> l1_;  // tiered runs, newest first

  uint64_t wal_records_replayed_ = 0;
  Counters counters_;
};

}  // namespace cheetah::kv

#endif  // SRC_KV_DB_H_
