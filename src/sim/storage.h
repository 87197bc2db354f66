// Simulated SSD: a latency/queue model plus durable content.
//
// Two content planes:
//  * A flat in-memory filesystem (append-oriented files) used by the KV store
//    (WAL, SSTables, manifests) and by baselines' needle/chunk files. Appends
//    become durable at fsync; power loss truncates to the last synced length.
//  * Raw block volumes (extent -> bytes) used by Cheetah's object-agnostic
//    data servers. Volume writes are always synchronous (the data path acks
//    only after persistence), so they survive power loss.
//
// Latency: every operation reserves a disk channel for base + bytes/bandwidth.
#ifndef SRC_SIM_STORAGE_H_
#define SRC_SIM_STORAGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"

namespace cheetah::sim {

struct DiskParams {
  Nanos write_base = Micros(30);
  double write_bw_bytes_per_sec = 1.2e9;   // shared across all in-flight ops
  Nanos read_base = Micros(20);
  double read_bw_bytes_per_sec = 2.5e9;    // shared across all in-flight ops
  Nanos fsync_base = Micros(15);
  int channels = 8;  // queue parallelism for the fixed per-op cost only

  static DiskParams RamDisk() {
    return DiskParams{.write_base = Micros(1),
                      .write_bw_bytes_per_sec = 20e9,
                      .read_base = Micros(1),
                      .read_bw_bytes_per_sec = 20e9,
                      .fsync_base = 0,
                      .channels = 16};
  }
};

// Gray failures: the disk keeps answering, just badly. Unlike crashes these
// degrade service without tripping failure detectors, which is exactly what
// makes them dangerous (ROADMAP: production north-star). All probabilistic
// draws come from the disk's seeded fault RNG for replayability.
struct GrayFailure {
  double latency_multiplier = 1.0;  // N× slow disk (applies to every charge)
  Nanos fsync_stuck_for = 0;        // fsyncs block until now + this, once set
  double write_corrupt_prob = 0.0;  // volume writes silently corrupt on media
};

class Storage {
 public:
  Storage(EventLoop& loop, DiskParams params)
      : loop_(&loop),
        params_(params),
        channels_(loop, params.channels),
        bus_(loop, 1) {}

  const DiskParams& params() const { return params_; }

  // Owning node, for span attribution; set by the Machine that owns the disk.
  void set_node_id(uint32_t id) { node_id_ = id; }
  uint32_t node_id() const { return node_id_; }
  Nanos Now() const { return loop_->Now(); }

  // ---- latency primitives ----
  // An I/O pays a fixed per-op cost on one of `channels` queue slots plus a
  // transfer time serialized on the single shared-bandwidth bus; it completes
  // when both are done. The media occupancy [now, done] is recorded as a
  // closed disk span of the current operation.
  struct IoAwaiter {
    Storage* storage;
    Resource& channels;
    Resource& bus;
    Nanos base;
    Nanos transfer;
    const char* what;  // "disk.write", "disk.read", "disk.fsync", ...
    uint64_t bytes;
    Actor* actor = nullptr;

    void SetActor(Actor* a) { actor = a; }
    bool await_ready() const noexcept { return base == 0 && transfer == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      const Nanos channel_done = channels.Reserve(base);
      const Nanos bus_done = transfer > 0 ? bus.Reserve(transfer) : 0;
      const Nanos done = std::max(channel_done, bus_done);
      storage->RecordIo(what, bytes, done);
      actor->ResumeAt(done, h, actor->epoch());
    }
    void await_resume() const noexcept {}
  };
  IoAwaiter ChargeWrite(uint64_t bytes) {
    return IoAwaiter{this, channels_, bus_, Scaled(params_.write_base),
                     Scaled(BwNanos(bytes, params_.write_bw_bytes_per_sec)), "disk.write",
                     bytes};
  }
  IoAwaiter ChargeRead(uint64_t bytes) {
    return IoAwaiter{this, channels_, bus_, Scaled(params_.read_base),
                     Scaled(BwNanos(bytes, params_.read_bw_bytes_per_sec)), "disk.read",
                     bytes};
  }
  IoAwaiter ChargeFsync() {
    Nanos base = Scaled(params_.fsync_base);
    if (loop_->Now() < fsync_stuck_until_) {
      base += fsync_stuck_until_ - loop_->Now();  // stuck device firmware
    }
    return IoAwaiter{this, channels_, bus_, base, 0, "disk.fsync", 0};
  }

  // File-plane variants: sequential log/SSTable streams pay base + transfer
  // as one channel reservation (no shared-bus serialization) and do not
  // head-of-line-block small volume I/O (and vice versa).
  IoAwaiter ChargeFileWrite(uint64_t bytes) {
    return IoAwaiter{this, channels_, bus_,
                     Scaled(params_.write_base + BwNanos(bytes, params_.write_bw_bytes_per_sec)),
                     0, "disk.file_write", bytes};
  }
  IoAwaiter ChargeFileRead(uint64_t bytes) {
    return IoAwaiter{this, channels_, bus_,
                     Scaled(params_.read_base + BwNanos(bytes, params_.read_bw_bytes_per_sec)),
                     0, "disk.file_read", bytes};
  }

  // ---- flat filesystem ----
  // Every call looks the file up again after each device wait. A DeleteFile
  // or PowerLoss during a sync's wait fails the sync with kIoError (the bytes
  // it was to make durable are gone); one during a read fails it with
  // kNotFound.
  //
  // Appends to (creating if absent) a file; durable immediately iff sync.
  Task<Status> Append(std::string name, std::string data, bool sync);
  // Replaces the entire file content; durable immediately iff sync.
  Task<Status> WriteFile(std::string name, std::string data, bool sync);
  Task<Result<std::string>> ReadFile(std::string name);
  Task<Result<std::string>> ReadAt(std::string name, uint64_t offset, uint64_t length);
  // Deletion is a metadata operation; modeled as instantaneous and durable.
  Status DeleteFile(const std::string& name);
  bool FileExists(const std::string& name) const { return files_.contains(name); }
  uint64_t FileSize(const std::string& name) const;
  std::vector<std::string> ListFiles(const std::string& prefix) const;

  // When false, volume extents keep only (length, checksum) and reads return
  // synthesized bytes (a slice of one shared filler buffer) — latency and
  // bandwidth accounting is unchanged. Benches use this to store hundreds of
  // thousands of objects without holding their payloads in host memory;
  // tests keep full content for integrity checks.
  void set_store_volume_content(bool store) { store_volume_content_ = store; }
  bool store_volume_content() const { return store_volume_content_; }

  struct ExtentInfo {
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t checksum = 0;
  };
  std::vector<ExtentInfo> ListVolumeExtents(const std::string& volume) const;

  // Checksum of the extent at `offset` without charging the device (the
  // caller is already paying for the data read itself).
  std::optional<uint32_t> PeekChecksum(const std::string& volume, uint64_t offset) const;

  // ---- raw block volumes ----
  // Writes `data` at byte offset `offset` of the named volume (synchronous).
  // In full-content mode the extent keeps a handle to `data`'s buffer, so
  // replicas written from one payload share it.
  Task<Status> WriteBlocks(std::string volume, uint64_t offset, Bytes data, uint32_t checksum);
  Task<Result<Bytes>> ReadBlocks(std::string volume, uint64_t offset, uint64_t length);
  // Checksum of the extent at `offset` without transferring data (recovery
  // probes); charges a single header-sized read.
  Task<Result<uint32_t>> ProbeChecksum(std::string volume, uint64_t offset);
  // Drops extents (space reclaim bookkeeping on the device side is free).
  void DiscardBlocks(const std::string& volume, uint64_t offset);
  uint64_t VolumeBytesUsed(const std::string& volume) const;

  // ---- failure injection ----
  // Power loss: unsynced file data is lost. Volume extents were written
  // synchronously and survive.
  void PowerLoss();
  // Media failure: everything is lost.
  void DestroyMedia();

  // Gray failures. fsync_stuck_for is converted to an absolute deadline at
  // install time; fsyncs issued before it complete only once it passes.
  void SetGrayFailure(const GrayFailure& g) {
    gray_ = g;
    fsync_stuck_until_ = g.fsync_stuck_for > 0 ? loop_->Now() + g.fsync_stuck_for : 0;
  }
  void ClearGrayFailure() {
    gray_ = GrayFailure{};
    fsync_stuck_until_ = 0;
  }
  const GrayFailure& gray_failure() const { return gray_; }
  void set_fault_seed(uint64_t seed) { fault_rng_ = Rng(seed); }
  uint64_t writes_corrupted() const { return writes_corrupted_->value(); }

  // At-rest integrity faults, applied instantaneously to data already on the
  // media (no device time passes; the damage is only discovered by later
  // reads/probes). Both draw from `seed` alone — not the device fault RNG —
  // so a nemesis replays the exact same damage set regardless of how much
  // I/O preceded it. Volumes are visited in sorted-name order and extents in
  // offset order, so the sampled set is a pure function of (contents, seed).
  //
  // Bit rot flips stored bytes out from under the extent checksum (modeled
  // exactly like write_corrupt_prob: the stored checksum diverges from the
  // content, detectable in both full-content and metadata-only modes).
  // Returns the number of extents damaged.
  uint64_t InjectBitRot(double prob, uint64_t seed);
  // Latent sector errors: the extent header becomes unreadable — reads and
  // probes fail with kIoError until the extent is rewritten (a repair write
  // remaps the sector). Returns the number of extents marked.
  uint64_t InjectLatentSectorErrors(double prob, uint64_t seed);
  // Targeted variant for tests: corrupts the extent at (volume, offset) the
  // same way bit rot does. Returns false if no such extent exists.
  bool CorruptExtent(const std::string& volume, uint64_t offset);

  uint64_t bitrot_extents() const { return bitrot_extents_->value(); }
  uint64_t lse_extents() const { return lse_extents_->value(); }

  uint64_t TotalFileBytes() const;

 private:
  struct File {
    std::string data;
    uint64_t synced_len = 0;
    bool ever_synced = false;
  };
  struct Extent {
    Bytes data;
    uint32_t checksum = 0;
    uint64_t length = 0;
    bool unreadable = false;  // latent sector error; cleared by a rewrite
  };
  struct Volume {
    std::map<uint64_t, Extent> extents;  // keyed by byte offset
    uint64_t bytes_used = 0;
  };

  static Nanos BwNanos(uint64_t bytes, double bw) {
    return static_cast<Nanos>(static_cast<double>(bytes) / bw * 1e9);
  }

  // Exact identity when healthy so enabling the chaos build path never
  // perturbs a fault-free run.
  Nanos Scaled(Nanos n) const {
    if (gray_.latency_multiplier == 1.0) {
      return n;
    }
    return static_cast<Nanos>(static_cast<double>(n) * gray_.latency_multiplier);
  }

  // Marks `name` synced once an fsync covering its first `len` bytes ends;
  // fails if the file went away or was cut below `len` during the wait.
  Status FinishSync(const std::string& name, uint64_t len);

  // Counts the I/O and, when tracing, records a closed [now, done] disk span
  // attributed to the current op context. Defined in storage.cc to keep
  // trace.h out of this header.
  void RecordIo(const char* what, uint64_t bytes, Nanos done);

  EventLoop* loop_;
  DiskParams params_;
  Resource channels_;
  Resource bus_;  // shared bandwidth
  // Damages an extent's stored checksum and bytes (bit rot and the
  // write_corrupt_prob gray failure share the same damage model). Copy on
  // write: the flipped bytes go to a fresh buffer, so replicas sharing the
  // old one keep reading the original payload.
  static void FlipExtent(Extent& e);
  // The extent at (volume, offset), or null. Coroutines look it up again
  // after every suspension: a concurrent write, discard or media loss frees
  // the node found before it.
  const Extent* FindExtent(const std::string& volume, uint64_t offset) const;

  obs::Scope scope_{"sim.disk"};
  obs::Counter* ops_ = scope_.counter("ops");
  obs::Counter* io_bytes_ = scope_.counter("bytes");
  obs::Counter* writes_corrupted_ = scope_.counter("writes_corrupted");
  obs::Counter* bitrot_extents_ = scope_.counter("bitrot_extents");
  obs::Counter* lse_extents_ = scope_.counter("lse_extents");
  uint32_t node_id_ = 0;
  bool store_volume_content_ = true;
  GrayFailure gray_;
  Nanos fsync_stuck_until_ = 0;
  Rng fault_rng_{0xd15cu};
  std::unordered_map<std::string, File> files_;
  std::unordered_map<std::string, Volume> volumes_;
};

}  // namespace cheetah::sim

#endif  // SRC_SIM_STORAGE_H_
