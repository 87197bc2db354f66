// Storage-class trade-off frontier: what does each tier of the hybrid data
// path cost end to end?
//
// Four paper-shaped clusters run the same closed-loop workloads against the
// real put/get paths:
//
//   * small objects (2KiB): metadata-inlined vs 3-way replicated — the inline
//     tier must beat the replica put path on latency because it skips the
//     data-plane fan-out entirely (one MetaX round instead of write+persist).
//   * large objects (64KiB): 3-way replicated vs RS(4,2) vs RS(8,3) — objects
//     land replicated (write-then-promote), age past demote_after, a tiering
//     pass re-stripes every one of them, and gets then exercise the k-way
//     chunk read path. Storage overhead is measured from the data servers'
//     actual volume bytes, not computed from the schemes.
//
// Asserts the frontier the tiering subsystem promises: every object demotes,
// EC storage overhead stays <= 1.6x (vs ~3.0x for replication), the inline
// put path is strictly faster than the replica put path, and no operation
// errors anywhere. Exits non-zero otherwise; CHEETAH_BENCH_SMOKE=1 shrinks every
// dimension so scripts/check.sh can run it as the `ec` tier's bench smoke.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/tier/engine.h"

namespace cheetah::bench {
namespace {

using core::MetaServer;
using core::Testbed;

struct EcScale {
  uint64_t small_objects;  // 2KiB puts per small-object cluster
  uint64_t small_gets;
  uint64_t large_objects;  // 64KiB puts per large-object cluster
  uint64_t large_gets;
  int concurrency;
};

EcScale PickScale() {
  if (Smoke()) {
    return {/*small_objects=*/120, /*small_gets=*/240,
            /*large_objects=*/48, /*large_gets=*/144, /*concurrency=*/8};
  }
  return {ScaledOps(600), ScaledOps(1200), ScaledOps(240), ScaledOps(720), 24};
}

core::TestbedConfig TierBenchConfig(uint32_t k, uint32_t m, uint64_t inline_threshold) {
  core::CheetahOptions options;
  options.qos.enabled = true;  // demotion + repairs ride the maintenance class
  // Cheetah-FS data plane (fig10's model): every data-server op pays the
  // file-backed journal/inode write. This is what the inline tier dodges —
  // with raw block volumes both put paths are metadata-persist-bound and the
  // inline saving shows up in IOPS, not latency.
  options.fs_backed_data = true;
  options.tier.inline_threshold = inline_threshold;
  options.tier.ec_k = k;
  options.tier.ec_m = m;
  options.tier.min_ec_object_bytes = 16384;
  options.tier.demote_after = Millis(200);
  core::TestbedConfig config = PaperCheetahConfig(options);
  // Demotion re-stripes the real payload (verified source read), so these
  // clusters must store content — object counts above stay memory-bounded.
  config.store_volume_content = true;
  // Fewer PGs and more PVs than the paper shape: stripe carving stops before
  // it starves the replica tier below one LV per PG, so every PG needs
  // (k+m) + 3-replica headroom. 9 machines x 4 disks x 10 = 360 PVs covers
  // 16 RS(8,3) stripes (176 PVs) with 61 replica LVs to spare.
  config.pg_count = 16;
  config.pvs_per_disk = 10;
  return config;
}

void TierAllNow(Testbed& bed) {
  auto pending = std::make_shared<int>(bed.num_meta());
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.meta_machine(i).actor().Spawn(
        [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->TierNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  while (*pending > 0 && bed.loop().RunOne()) {
  }
}

uint64_t TotalDemotions(Testbed& bed) {
  uint64_t total = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    total += bed.meta(i).tier_engine().stats().demotions.value();
  }
  return total;
}

uint64_t TotalInlinePuts(Testbed& bed) {
  uint64_t total = 0;
  for (int i = 0; i < bed.num_proxies(); ++i) {
    total += bed.proxy(i).stats().inline_puts.value();
  }
  return total;
}

// Bytes actually sitting on the data plane: every PV's volume usage summed
// across the cluster. Inline objects contribute nothing (they live in MetaX);
// replicas contribute n copies; EC stripes contribute (k+m)/k after the
// demotion pipeline frees the replica extents.
uint64_t DataPlaneBytes(Testbed& bed) {
  const auto& topo = bed.meta(0).topology();
  uint64_t total = 0;
  for (const auto& [pv_id, pv] : topo.pvs) {
    for (int d = 0; d < bed.num_data(); ++d) {
      sim::Machine& machine = bed.data_machine(d);
      if (machine.node_id() == pv.data_server) {
        total += machine.disk(pv.disk_index).VolumeBytesUsed(pv.DeviceName());
        break;
      }
    }
  }
  return total;
}

struct Row {
  std::string scheme;
  workload::RunnerResults puts;
  workload::RunnerResults gets;
  double overhead = 0.0;       // data-plane bytes / logical bytes
  uint64_t demotions = 0;
  uint64_t inline_puts = 0;
  uint64_t objects = 0;
};

// One cluster, one scheme: put `objects` of `size` bytes, optionally demote
// everything to EC, then measure gets over the full name set.
Row RunScheme(const std::string& scheme, uint32_t k, uint32_t m,
              uint64_t inline_threshold, uint64_t size, uint64_t objects,
              uint64_t gets, int concurrency) {
  CheetahBench bench = MakeCheetah(TierBenchConfig(k, m, inline_threshold));
  Row row;
  row.scheme = scheme;
  row.objects = objects;

  const std::string prefix = scheme + "-";
  row.puts = RunPuts(bench.loop(), bench.clients, prefix, objects, size, concurrency);
  std::vector<std::string> names;
  names.reserve(objects);
  for (uint64_t i = 0; i < objects; ++i) {
    names.push_back(prefix + std::to_string(i));  // NamePool's naming scheme
  }

  if (k > 0) {
    // Write-then-promote: age every object past demote_after, then run one
    // synchronous tiering pass so the gets below hit the EC read path.
    bench.bed->RunFor(Seconds(1));
    TierAllNow(*bench.bed);
    bench.bed->RunFor(Millis(200));  // bitmap persists, discards land
  }
  row.demotions = TotalDemotions(*bench.bed);
  row.inline_puts = TotalInlinePuts(*bench.bed);
  row.overhead = static_cast<double>(DataPlaneBytes(*bench.bed)) /
                 static_cast<double>(objects * size);

  row.gets = RunGets(bench.loop(), bench.clients, names, gets, concurrency);
  return row;
}

void PrintRow(const Row& row) {
  std::printf("%-14s%-14.3f%-14.3f%-14.3f%-14.3f%-12.2f%-12llu%-12llu\n",
              row.scheme.c_str(), row.puts.put.MeanMillis(),
              row.puts.put.PercentileMillis(0.99), row.gets.get.MeanMillis(),
              row.gets.get.PercentileMillis(0.99), row.overhead,
              static_cast<unsigned long long>(row.demotions),
              static_cast<unsigned long long>(row.inline_puts));
}

int CheckRow(const Row& row) {
  int failures = 0;
  if (row.puts.errors != 0 || row.gets.errors != 0 || row.gets.not_found != 0) {
    std::fprintf(stderr, "FAIL: %s saw errors (put=%llu get=%llu not_found=%llu)\n",
                 row.scheme.c_str(), static_cast<unsigned long long>(row.puts.errors),
                 static_cast<unsigned long long>(row.gets.errors),
                 static_cast<unsigned long long>(row.gets.not_found));
    ++failures;
  }
  return failures;
}

int Run() {
  const EcScale scale = PickScale();
  PrintTitle("Storage-class frontier: inline vs replication vs erasure coding");
  std::printf("small=%llu large=%llu concurrency=%d%s\n",
              static_cast<unsigned long long>(scale.small_objects),
              static_cast<unsigned long long>(scale.large_objects), scale.concurrency,
              Smoke() ? " (smoke)" : "");

  // Small objects: the inline tier against its replica-path baseline.
  const Row inline_row =
      RunScheme("inline", /*k=*/0, /*m=*/0, /*inline_threshold=*/KiB(4), KiB(2),
                scale.small_objects, scale.small_gets, scale.concurrency);
  const Row replica_small =
      RunScheme("repl3-2k", /*k=*/0, /*m=*/0, /*inline_threshold=*/0, KiB(2),
                scale.small_objects, scale.small_gets, scale.concurrency);

  // Large objects: replication vs two EC geometries after demotion.
  const Row replica_large =
      RunScheme("repl3-64k", /*k=*/0, /*m=*/0, /*inline_threshold=*/0, KiB(64),
                scale.large_objects, scale.large_gets, scale.concurrency);
  const Row rs42 = RunScheme("rs(4,2)", 4, 2, /*inline_threshold=*/0, KiB(64),
                             scale.large_objects, scale.large_gets, scale.concurrency);
  const Row rs83 = RunScheme("rs(8,3)", 8, 3, /*inline_threshold=*/0, KiB(64),
                             scale.large_objects, scale.large_gets, scale.concurrency);

  PrintTableHeader({"scheme", "put ms", "put p99", "get ms", "get p99", "bytes x",
                    "demoted", "inline"});
  PrintRow(inline_row);
  PrintRow(replica_small);
  PrintRow(replica_large);
  PrintRow(rs42);
  PrintRow(rs83);

  DumpObsJson("ec_tradeoffs");

  int failures = 0;
  for (const Row* row : {&inline_row, &replica_small, &replica_large, &rs42, &rs83}) {
    failures += CheckRow(*row);
  }
  if (inline_row.inline_puts != inline_row.objects) {
    std::fprintf(stderr, "FAIL: only %llu of %llu small puts were inlined\n",
                 static_cast<unsigned long long>(inline_row.inline_puts),
                 static_cast<unsigned long long>(inline_row.objects));
    ++failures;
  }
  if (inline_row.puts.put.MeanMillis() >= replica_small.puts.put.MeanMillis()) {
    std::fprintf(stderr,
                 "FAIL: inline put mean %.3fms not below replica put mean %.3fms\n",
                 inline_row.puts.put.MeanMillis(), replica_small.puts.put.MeanMillis());
    ++failures;
  }
  if (inline_row.overhead != 0.0) {
    std::fprintf(stderr, "FAIL: inline objects left %.2fx bytes on the data plane\n",
                 inline_row.overhead);
    ++failures;
  }
  if (replica_large.overhead < 2.9) {
    std::fprintf(stderr, "FAIL: replica storage overhead %.2fx below 3-way expectation\n",
                 replica_large.overhead);
    ++failures;
  }
  for (const Row* row : {&rs42, &rs83}) {
    if (row->demotions != row->objects) {
      std::fprintf(stderr, "FAIL: %s demoted %llu of %llu objects\n",
                   row->scheme.c_str(), static_cast<unsigned long long>(row->demotions),
                   static_cast<unsigned long long>(row->objects));
      ++failures;
    }
    if (row->overhead > 1.6) {
      std::fprintf(stderr, "FAIL: %s storage overhead %.2fx exceeds 1.6x bound\n",
                   row->scheme.c_str(), row->overhead);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("\nPASS: inline put %.3fms < replica %.3fms; overhead repl %.2fx, "
                "rs(4,2) %.2fx, rs(8,3) %.2fx (EC bound 1.6x); %llu+%llu demotions\n",
                inline_row.puts.put.MeanMillis(), replica_small.puts.put.MeanMillis(),
                replica_large.overhead, rs42.overhead, rs83.overhead,
                static_cast<unsigned long long>(rs42.demotions),
                static_cast<unsigned long long>(rs83.demotions));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cheetah::bench

int main() { return cheetah::bench::Run(); }
