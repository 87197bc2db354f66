// Analytics lifecycle store: the write-dominant workload from §6.4 — data
// collection/analysis applications that put objects constantly and delete
// them when their lifecycle ends (hours to months). This is the workload
// class Cheetah broadens directory-based object storage to: frequent
// unpredictable put/delete with no idle window for compaction.
//
//   $ ./build/examples/analytics_lifecycle
#include <cstdio>
#include <deque>

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
  config.lv_capacity_bytes = MiB(512);
  config.store_volume_content = false;

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

  // Simulate 5 "days": each day ingests a batch of measurement objects and
  // expires the oldest generation — a rolling window, so total live data is
  // bounded while the cumulative write volume keeps growing.
  std::deque<std::vector<std::string>> generations;
  const uint64_t per_day = 800;
  for (int day = 1; day <= 5; ++day) {
    auto batch = workload::Preload(bed.loop(), clients,
                                   "day" + std::to_string(day) + "/rec-", per_day,
                                   KiB(256));
    std::printf("day %d: ingested %zu objects (256KB each)\n", day, batch.size());
    generations.push_back(std::move(batch));
    if (generations.size() > 2) {
      // Lifecycle expiry: delete the oldest generation. The blocks are
      // immediately reusable — tomorrow's ingest lands in today's holes.
      auto victims = std::move(generations.front());
      generations.pop_front();
      workload::RunnerConfig rc;
      rc.concurrency = 50;
      rc.total_ops = victims.size();
      workload::Runner runner(bed.loop(), clients, rc);
      auto cursor = std::make_shared<size_t>(0);
      auto list = std::make_shared<std::vector<std::string>>(std::move(victims));
      auto results = runner.Run([cursor, list](Rng&) {
        workload::Op op;
        op.type = workload::OpType::kDelete;
        op.name = (*list)[(*cursor)++ % list->size()];
        return op;
      });
      std::printf("  expired %llu objects, mean delete %.3f ms (metadata-only)\n",
                  static_cast<unsigned long long>(results.del.count()),
                  results.del.MeanMillis());
    }
    bed.RunFor(Seconds(1));  // log cleaning + bitmap sync between days
  }

  // Show that the cluster never needed compaction: cumulative ingest exceeds
  // live data, yet every live object reads back.
  uint64_t checked = 0, ok = 0;
  for (const auto& gen : generations) {
    for (size_t i = 0; i < gen.size(); i += 97) {
      ++checked;
      ok += bed.GetObject(0, gen[i]).ok();
    }
  }
  std::printf("\nspot check: %llu/%llu live objects readable\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(checked));
  uint64_t revoked = 0, cleaned = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    revoked += bed.meta(i).stats().revoked_puts.value();
    cleaned += bed.meta(i).stats().logs_cleaned.value();
  }
  std::printf("meta servers: %llu meta-logs cleaned, %llu puts revoked, 0 compactions ever\n",
              static_cast<unsigned long long>(cleaned),
              static_cast<unsigned long long>(revoked));
  return 0;
}
