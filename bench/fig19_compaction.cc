// Fig. 19: in-compaction performance. Fill both systems, randomly delete a
// large fraction, then trigger Haystack's volume compaction (unthrottled, as
// in the paper) and measure put throughput while it runs. Cheetah reclaims
// space in place and never compacts, so its throughput is unaffected — the
// gap widens sharply during the compaction window.
#include "bench/bench_util.h"

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  const uint64_t preload = ScaledOps(4000);   // 512KB objects: lots to rewrite
  const uint64_t measure_ops = ScaledOps(6000);
  const int concurrency = 400;

  PrintTitle("Fig. 19: PUT throughput with deletions pending reclamation (req/sec)");
  PrintTableHeader({"system", "req/sec", "note"});

  double cheetah_tput = 0;
  {
    auto bench = MakeCheetah();
    auto names =
        workload::Preload(bench.loop(), bench.clients, "fill-", preload, KiB(512));
    (void)RunDeletes(bench.loop(), bench.clients, names, names.size() / 2, concurrency);
    auto r = RunPuts(bench.loop(), bench.clients, "during-", measure_ops, KiB(8),
                     concurrency);
    cheetah_tput = r.throughput.OpsPerSec();
    std::printf("%-18s%-18.0f%s\n", "Cheetah", cheetah_tput,
                "space reclaimed in place; no compaction");
  }

  double haystack_idle = 0, haystack_compact = 0;
  {
    auto bench = MakeHaystack();
    auto names =
        workload::Preload(bench.loop(), bench.clients, "fill-", preload, KiB(512));
    (void)RunDeletes(bench.loop(), bench.clients, names, names.size() / 2, concurrency);
    auto idle = RunPuts(bench.loop(), bench.clients, "idle-", measure_ops / 2, KiB(8),
                        concurrency);
    haystack_idle = idle.throughput.OpsPerSec();
    bench.cluster->TriggerCompactionAll();  // unthrottled, as in the paper
    auto during = RunPuts(bench.loop(), bench.clients, "during-", measure_ops, KiB(8),
                          concurrency);
    haystack_compact = during.throughput.OpsPerSec();
    uint64_t compactions = 0, rewritten = 0;
    for (int s = 0; s < bench.cluster->num_stores(); ++s) {
      compactions += bench.cluster->store(s).stats().compactions.value();
      rewritten += bench.cluster->store(s).stats().compacted_bytes.value();
    }
    std::fprintf(stderr, "  compactions=%llu rewritten=%llu bytes\n",
                 static_cast<unsigned long long>(compactions),
                 static_cast<unsigned long long>(rewritten));
    std::printf("%-18s%-18.0f%s\n", "Haystack", haystack_idle,
                "before compaction (dead needles accumulate)");
    std::printf("%-18s%-18.0f%s\n", "Haystack-compact", haystack_compact,
                "during compaction (unthrottled)");
  }
  std::printf("\nCheetah / Haystack-in-compaction = %.2fx\n",
              haystack_compact > 0 ? cheetah_tput / haystack_compact : 0.0);
  DumpObsJson("fig19_compaction");
  return 0;
}
