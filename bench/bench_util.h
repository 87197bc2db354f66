// Shared helpers for the per-figure benchmark binaries.
//
// Every bench builds paper-shaped clusters (3 meta / 9 data / 3 client
// machines unless the experiment says otherwise), drives them with the
// closed-loop runner, and prints rows mirroring the paper's figures. Object
// counts are scaled down from the paper's 10M-object testbed runs; set
// CHEETAH_BENCH_SCALE (default 1.0) to grow or shrink every run
// proportionally. Payload bytes are not stored (metadata-only volumes), so
// runs stay memory-bounded while all latency/bandwidth accounting is intact.
// CHEETAH_BENCH_SMOKE=1 shrinks the self-asserting benches to CI size.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/ceph.h"
#include "src/baselines/haystack.h"
#include "src/baselines/tectonic.h"
#include "src/core/testbed.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/adapters.h"
#include "src/workload/generator.h"
#include "src/workload/runner.h"

namespace cheetah::bench {

inline double Scale() {
  if (const char* env = std::getenv("CHEETAH_BENCH_SCALE")) {
    return std::atof(env);
  }
  return 1.0;
}

inline bool Smoke() { return std::getenv("CHEETAH_BENCH_SMOKE") != nullptr; }

inline uint64_t ScaledOps(uint64_t base) {
  const double s = Scale();
  return std::max<uint64_t>(50, static_cast<uint64_t>(static_cast<double>(base) * s));
}

// ---- booted clusters exposing runner-compatible client lists ----

struct CheetahBench {
  std::unique_ptr<core::Testbed> bed;
  std::vector<std::unique_ptr<workload::CheetahStore>> stores;
  std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> clients;

  sim::EventLoop& loop() { return bed->loop(); }
};

inline core::TestbedConfig PaperCheetahConfig(core::CheetahOptions options = {}) {
  core::TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 9;
  config.proxies = 3;
  config.pg_count = 64;
  config.disks_per_data_machine = 4;
  config.pvs_per_disk = 6;
  config.lv_capacity_bytes = GiB(8);
  config.options = options;
  config.store_volume_content = false;
  return config;
}

inline CheetahBench MakeCheetah(core::TestbedConfig config = PaperCheetahConfig()) {
  CheetahBench bench;
  bench.bed = std::make_unique<core::Testbed>(std::move(config));
  Status s = bench.bed->Boot();
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: cheetah boot failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  for (int i = 0; i < bench.bed->num_proxies(); ++i) {
    bench.stores.push_back(std::make_unique<workload::CheetahStore>(&bench.bed->proxy(i)));
    bench.clients.emplace_back(&bench.bed->proxy_machine(i).actor(),
                               bench.stores.back().get());
  }
  return bench;
}

// A baseline cluster on its own event loop, booted, with its clients listed
// for the runner.
template <typename Cluster>
struct BaselineBench {
  std::unique_ptr<sim::EventLoop> loop_holder;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> clients;

  sim::EventLoop& loop() { return cluster->loop(); }
};
using HaystackBench = BaselineBench<baselines::HaystackCluster>;
using TectonicBench = BaselineBench<baselines::TectonicCluster>;
using CephBench = BaselineBench<baselines::CephCluster>;

template <typename Cluster, typename Config>
BaselineBench<Cluster> MakeBaseline(const char* name, Config config) {
  BaselineBench<Cluster> bench;
  bench.loop_holder = std::make_unique<sim::EventLoop>();
  bench.cluster = std::make_unique<Cluster>(*bench.loop_holder, std::move(config));
  Status s = bench.cluster->Boot();
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: %s boot failed: %s\n", name, s.ToString().c_str());
    std::exit(1);
  }
  for (int i = 0; i < bench.cluster->num_clients(); ++i) {
    bench.clients.emplace_back(&bench.cluster->client_actor(i), &bench.cluster->client(i));
  }
  return bench;
}

inline baselines::HaystackConfig PaperHaystackConfig() {
  baselines::HaystackConfig config;
  config.store_machines = 9;
  config.client_machines = 3;
  config.volumes_per_store = 8;
  config.volume_capacity = GiB(8);
  config.store_volume_content = false;
  return config;
}

inline HaystackBench MakeHaystack(baselines::HaystackConfig config = PaperHaystackConfig()) {
  return MakeBaseline<baselines::HaystackCluster>("haystack", std::move(config));
}

inline TectonicBench MakeTectonic() {
  baselines::TectonicConfig config;
  config.store_machines = 9;
  config.client_machines = 3;
  config.store_volume_content = false;
  return MakeBaseline<baselines::TectonicCluster>("tectonic", std::move(config));
}

inline baselines::CephConfig PaperCephConfig() {
  baselines::CephConfig config;
  config.osd_machines = 9;
  config.client_machines = 3;
  config.pg_count = 64;
  config.store_volume_content = false;
  return config;
}

inline CephBench MakeCeph(baselines::CephConfig config = PaperCephConfig()) {
  return MakeBaseline<baselines::CephCluster>("ceph", std::move(config));
}

// ---- canned workloads ----

// Puts `ops` objects of `size` bytes at the given concurrency.
inline workload::RunnerResults RunPuts(
    sim::EventLoop& loop, std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> clients,
    const std::string& prefix, uint64_t ops, uint64_t size, int concurrency) {
  workload::RunnerConfig config;
  config.concurrency = concurrency;
  config.total_ops = ops;
  workload::Runner runner(loop, std::move(clients), config);
  auto pool = std::make_shared<workload::NamePool>(prefix);
  return runner.Run([pool, size](Rng&) {
    workload::Op op;
    op.type = workload::OpType::kPut;
    op.name = pool->NextName();
    op.size = size;
    return op;
  });
}

// Gets `ops` objects uniformly at random from `names`.
inline workload::RunnerResults RunGets(
    sim::EventLoop& loop, std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> clients,
    const std::vector<std::string>& names, uint64_t ops, int concurrency) {
  workload::RunnerConfig config;
  config.concurrency = concurrency;
  config.total_ops = ops;
  workload::Runner runner(loop, std::move(clients), config);
  return runner.Run([&names](Rng& rng) {
    workload::Op op;
    op.type = workload::OpType::kGet;
    op.name = names[rng.Uniform(names.size())];
    return op;
  });
}

// Deletes `ops` distinct objects sampled from `names` (consumed in order
// after a deterministic shuffle).
inline workload::RunnerResults RunDeletes(
    sim::EventLoop& loop, std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> clients,
    std::vector<std::string> names, uint64_t ops, int concurrency) {
  Rng rng(0xde1);
  for (size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.Uniform(i)]);
  }
  names.resize(std::min<size_t>(names.size(), ops));
  workload::RunnerConfig config;
  config.concurrency = concurrency;
  config.total_ops = names.size();
  workload::Runner runner(loop, std::move(clients), config);
  auto cursor = std::make_shared<size_t>(0);
  auto list = std::make_shared<std::vector<std::string>>(std::move(names));
  return runner.Run([cursor, list](Rng&) {
    workload::Op op;
    op.type = workload::OpType::kDelete;
    op.name = (*list)[(*cursor)++ % list->size()];
    return op;
  });
}

// ---- observability ----

// Drops all previously recorded spans and starts tracing. Call after warm-up
// so the first measured op is not polluted by boot-time RPCs.
inline void EnableTracing() {
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().set_enabled(true);
}

inline void DisableTracing() { obs::Tracer::Global().set_enabled(false); }

// Writes "obs/<name>.obs.json" under the working directory: the full metrics
// registry and (if any spans were recorded) the trace, machine-readable. The
// obs/ directory is gitignored — these are run artifacts, not sources.
inline void DumpObsJson(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("obs", ec);
  const std::string path = "obs/" + name + ".obs.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"metrics\":" << obs::Registry::Global().ToJson();
  const auto& tracer = obs::Tracer::Global();
  if (!tracer.spans().empty()) {
    out << ",\"trace\":" << tracer.ToJson();
  }
  out << "}\n";
  std::printf("[obs] wrote %s\n", path.c_str());
}

// ---- output ----

inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintTableHeader(const std::vector<std::string>& cols) {
  for (const auto& c : cols) {
    std::printf("%-18s", c.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < cols.size(); ++i) {
    std::printf("%-18s", "---------------");
  }
  std::printf("\n");
}

}  // namespace cheetah::bench

#endif  // BENCH_BENCH_UTIL_H_
