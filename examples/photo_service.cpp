// Photo service: the read-dominant scenario that motivated Haystack — a
// photo-sharing backend uploading albums once and serving many reads. Shows
// the §7 read optimization (the proxy overlaps the authoritative metadata
// lookup with the data read on cache hits) and per-op latency statistics.
//
//   $ ./build/examples/photo_service
#include <cstdio>

#include "src/core/testbed.h"
#include "src/workload/adapters.h"
#include "src/workload/runner.h"

using namespace cheetah;

int main() {
  core::TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 6;
  config.proxies = 2;
  config.pg_count = 16;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 4;
  config.lv_capacity_bytes = GiB(1);
  config.store_volume_content = false;  // photos are simulated payloads

  core::Testbed bed(std::move(config));
  if (Status s = bed.Boot(); !s.ok()) {
    std::printf("boot failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<std::unique_ptr<workload::CheetahStore>> stores;
  std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> clients;
  for (int i = 0; i < bed.num_proxies(); ++i) {
    stores.push_back(std::make_unique<workload::CheetahStore>(&bed.proxy(i)));
    clients.emplace_back(&bed.proxy_machine(i).actor(), stores.back().get());
  }

  // Upload 40 albums x 25 photos of ~200KB.
  std::printf("uploading 1000 photos...\n");
  auto names = workload::Preload(bed.loop(), clients, "album/photo-", 1000, KiB(200));
  std::printf("uploaded %zu photos\n", names.size());

  // Serve a read-dominant day: 95%% gets, 5%% uploads.
  workload::NamePool pool("album/new-");
  for (auto& n : names) {
    pool.Add(std::move(n));
  }
  workload::MixedWorkload mix(0.05, 0.0, workload::FixedSize(KiB(200)), &pool);
  workload::RunnerConfig rc;
  rc.concurrency = 50;
  rc.total_ops = 5000;
  workload::Runner runner(bed.loop(), clients, rc);
  auto results = runner.Run(
      [&mix](Rng& rng) { return mix.Next(rng); },
      [&pool](const std::string& name) { pool.Add(name); });

  std::printf("\nread-dominant day (95%% get / 5%% put):\n");
  std::printf("  gets: %llu, mean %.3f ms, p99 %.3f ms\n",
              static_cast<unsigned long long>(results.get.count()),
              results.get.MeanMillis(), results.get.PercentileMillis(0.99));
  std::printf("  puts: %llu, mean %.3f ms\n",
              static_cast<unsigned long long>(results.put.count()),
              results.put.MeanMillis());
  std::printf("  throughput: %.0f req/sec\n", results.throughput.OpsPerSec());
  uint64_t cache_hits = 0;
  for (int i = 0; i < bed.num_proxies(); ++i) {
    cache_hits += bed.proxy(i).stats().cache_hits.value();
  }
  std::printf("  proxy metadata-cache hits: %llu (the §7 read optimization)\n",
              static_cast<unsigned long long>(cache_hits));
  return 0;
}
