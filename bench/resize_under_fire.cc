// Resize under fire: double the cluster (meta + data machines) and then
// drain one of the original meta servers, all while an open-loop foreground
// workload keeps firing at a fixed offered rate. Self-asserting:
//
//   1. zero failed foreground ops in every phase,
//   2. foreground p99 during the resize stays within 2x of steady state
//      (the paper's zero-data-movement expansion plus this PR's live
//      migration + fast stale-view redirect are what make this hold),
//   3. the drain completes (node retired, no migration state left behind),
//   4. a full post-resize audit reads back every object ever acked.
//
// CHEETAH_BENCH_SMOKE=1 shrinks the run for CI (scripts/check.sh).
#include <cstdlib>

#include "bench/bench_util.h"

namespace cheetah::bench {
namespace {

struct Phase {
  const char* name;
  workload::RunnerResults results;
};

// Open-loop 80/20 get/put mix over the preloaded names; acked put names are
// appended to `acked_puts` for the final audit.
workload::RunnerResults RunOpenLoop(
    CheetahBench& bench, const std::vector<std::string>& names,
    const std::string& put_prefix, double offered_ops_per_sec, Nanos duration,
    uint64_t seed, std::vector<std::string>* acked_puts) {
  workload::RunnerConfig config;
  config.total_ops = 0;
  config.duration = duration;
  config.seed = seed;
  config.arrival = workload::ArrivalMode::kOpen;
  config.offered_ops_per_sec = offered_ops_per_sec;
  workload::Runner runner(bench.loop(), bench.clients, config);
  auto next_put = std::make_shared<uint64_t>(0);
  return runner.Run(
      [&names, put_prefix, next_put](Rng& rng) {
        workload::Op op;
        if (rng.Uniform(100) < 20) {
          op.type = workload::OpType::kPut;
          op.name = put_prefix + std::to_string((*next_put)++);
          op.size = KiB(16);
        } else {
          op.type = workload::OpType::kGet;
          op.name = names[rng.Uniform(names.size())];
        }
        return op;
      },
      [acked_puts](const std::string& name) { acked_puts->push_back(name); });
}

// Reads every name exactly once (closed loop) — the audit, not a sample.
workload::RunnerResults AuditAll(CheetahBench& bench,
                                 const std::vector<std::string>& names) {
  workload::RunnerConfig config;
  config.concurrency = 32;
  config.total_ops = names.size();
  workload::Runner runner(bench.loop(), bench.clients, config);
  auto cursor = std::make_shared<size_t>(0);
  return runner.Run([&names, cursor](Rng&) {
    workload::Op op;
    op.type = workload::OpType::kGet;
    op.name = names[(*cursor)++ % names.size()];
    return op;
  });
}

}  // namespace
}  // namespace cheetah::bench

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  const bool smoke = Smoke();
  const uint64_t preload_count = smoke ? 200 : ScaledOps(1500);
  const double offered = smoke ? 250.0 : 500.0;
  const Nanos steady_span = smoke ? Seconds(2) : Seconds(4);
  const Nanos fire_span = smoke ? Seconds(6) : Seconds(10);

  core::TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 3;
  config.pg_count = 16;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 6;
  config.lv_capacity_bytes = GiB(1);
  config.store_volume_content = false;
  auto bench = MakeCheetah(std::move(config));
  core::Testbed& bed = *bench.bed;

  auto names = workload::Preload(bench.loop(), bench.clients, "pre-",
                                 preload_count, KiB(16));
  if (names.size() != preload_count) {
    std::fprintf(stderr, "FAIL: preload acked %zu/%llu objects\n", names.size(),
                 static_cast<unsigned long long>(preload_count));
    return 1;
  }

  std::vector<std::string> acked_puts;
  Phase steady{"steady", RunOpenLoop(bench, names, "s-", offered, steady_span,
                                     11, &acked_puts)};

  // The resize storm, scheduled into the measured window: three meta adds
  // and four data adds double the cluster, then one of the original meta
  // servers is drained — all while the open-loop load keeps arriving.
  const sim::NodeId drained = bed.meta_node(1);
  bench.loop().ScheduleAfter(Millis(500), [&bed] { bed.BeginAddMetaMachine(); });
  bench.loop().ScheduleAfter(Millis(1000), [&bed] { bed.BeginAddDataMachine(2, 6); });
  bench.loop().ScheduleAfter(Millis(1500), [&bed] { bed.BeginAddMetaMachine(); });
  bench.loop().ScheduleAfter(Millis(2000), [&bed] { bed.BeginAddDataMachine(2, 6); });
  bench.loop().ScheduleAfter(Millis(2500), [&bed] { bed.BeginAddMetaMachine(); });
  bench.loop().ScheduleAfter(Millis(3000), [&bed] { bed.BeginAddDataMachine(2, 6); });
  bench.loop().ScheduleAfter(Millis(3500), [&bed] { bed.BeginAddDataMachine(2, 6); });
  bench.loop().ScheduleAfter(Millis(4000), [&bed] { bed.BeginDrainMetaMachine(1); });

  Phase fire{"resize-under-fire", RunOpenLoop(bench, names, "r-", offered,
                                              fire_span, 13, &acked_puts)};

  // Let the drain finish if the measured window ended first.
  bool retired = false;
  const Nanos drain_deadline = bench.loop().Now() + Seconds(60);
  while (bench.loop().Now() < drain_deadline) {
    const int leader = bed.LeaderManager();
    if (leader >= 0 && bed.manager(leader).topology().IsRetired(drained) &&
        bed.manager(leader).topology().migrations.empty()) {
      retired = true;
      break;
    }
    bed.RunFor(Millis(100));
  }
  uint64_t drains = 0;
  for (int i = 0; i < bed.num_managers(); ++i) {
    drains += bed.manager(i).drains_completed();
  }
  uint64_t fast_redirects = 0;
  for (int i = 0; i < bed.num_proxies(); ++i) {
    fast_redirects += bed.proxy(i).stats().fast_redirects.value();
  }

  // Full audit: every preloaded object plus every acked put, read back once.
  std::vector<std::string> audit_names = names;
  audit_names.insert(audit_names.end(), acked_puts.begin(), acked_puts.end());
  auto audit = AuditAll(bench, audit_names);

  PrintTitle("Resize under fire: open-loop 80/20 get/put, 16KB objects");
  PrintTableHeader({"phase", "offered/s", "done/s", "p50 ms", "p99 ms", "errors"});
  for (const Phase* p : {&steady, &fire}) {
    std::printf("%-18s%-18.0f%-18.0f%-18.3f%-18.3f%-18llu\n", p->name, offered,
                p->results.throughput.OpsPerSec(),
                p->results.all.PercentileMillis(0.50),
                p->results.all.PercentileMillis(0.99),
                static_cast<unsigned long long>(p->results.errors));
  }
  std::printf("\nmeta %d data %d after resize; drain retired=%d (completed %llu); "
              "fast redirects %llu; audit %zu objects, errors %llu, not_found %llu\n",
              bed.num_meta(), bed.num_data(), retired ? 1 : 0,
              static_cast<unsigned long long>(drains),
              static_cast<unsigned long long>(fast_redirects), audit_names.size(),
              static_cast<unsigned long long>(audit.errors),
              static_cast<unsigned long long>(audit.not_found));

  bool ok = true;
  auto require = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  require(steady.results.errors == 0, "foreground errors in steady state");
  require(fire.results.errors == 0, "foreground ops failed during the resize");
  const double p99_steady = steady.results.all.PercentileMillis(0.99);
  const double p99_fire = fire.results.all.PercentileMillis(0.99);
  if (p99_fire > 2.0 * p99_steady) {
    std::fprintf(stderr,
                 "FAIL: resize p99 %.3fms exceeds 2x steady-state p99 %.3fms\n",
                 p99_fire, p99_steady);
    ok = false;
  }
  require(retired, "drain did not retire the node (or left migration state)");
  require(drains >= 1, "no completed drain recorded");
  require(audit.errors == 0 && audit.not_found == 0,
          "post-resize audit lost or failed objects");

  DumpObsJson("resize_under_fire");
  if (!ok) {
    return 1;
  }
  std::printf("resize_under_fire: PASS (p99 %.3fms <= 2x steady %.3fms)\n",
              p99_fire, p99_steady);
  return 0;
}
