// §6.3 disk-failure recovery: preload 512KB objects, fail one data machine,
// and measure how long the parallel re-replication takes and its aggregate
// bandwidth, for Cheetah and the Ceph-like baseline. The paper reports both
// recover a failed disk's ~400GB in ~16s (Ceph slightly faster thanks to
// CRUSH data placement); at our scaled-down load the shape to check is that
// both finish in the same ballpark with Ceph marginally ahead or equal.
#include "bench/bench_util.h"

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  const uint64_t preload = ScaledOps(3000);

  PrintTitle("§6.3 disk-failure recovery (512KB objects)");
  PrintTableHeader({"system", "bytes recovered", "recovery time (s)", "GB/sec"});

  {
    auto bench = MakeCheetah();
    (void)workload::Preload(bench.loop(), bench.clients, "dr-", preload, KiB(512));
    auto bytes_recovered = [&bench] {
      uint64_t total = 0;
      for (int i = 0; i < bench.bed->num_data(); ++i) {
        if (bench.bed->data_machine(i).alive()) {
          total += bench.bed->data(i).stats().recovery_bytes.value();
        }
      }
      return total;
    };
    bench.bed->CrashDataMachine(0, /*power_loss=*/false);
    uint64_t last = 0;
    Nanos first_change = 0;
    Nanos last_change = 0;
    for (int tick = 0; tick < 600; ++tick) {
      bench.bed->RunFor(Millis(100));
      const uint64_t now_bytes = bytes_recovered();
      if (now_bytes != last) {
        if (first_change == 0) {
          first_change = bench.loop().Now() - Millis(100);
        }
        last = now_bytes;
        last_change = bench.loop().Now();
      } else if (last > 0 && bench.loop().Now() - last_change > Seconds(2)) {
        break;  // recovery has plateaued
      }
    }
    const double secs =
        std::max(0.05, static_cast<double>(last_change - first_change) / 1e9);
    std::printf("%-18s%-18llu%-18.2f%-18.2f\n", "Cheetah",
                static_cast<unsigned long long>(last), secs,
                secs > 0 ? static_cast<double>(last) / 1e9 / secs : 0.0);
  }

  {
    auto bench = MakeCeph();
    (void)workload::Preload(bench.loop(), bench.clients, "dr-", preload, KiB(512));
    auto bytes_recovered = [&bench] {
      uint64_t total = 0;
      for (int i = 1; i < bench.cluster->num_osds(); ++i) {
        total += bench.cluster->osd(i).stats().backfill_bytes.value();
      }
      return total;
    };
    bench.cluster->FailOsd(0);
    uint64_t last = 0;
    Nanos first_change = 0;
    Nanos last_change = 0;
    for (int tick = 0; tick < 600; ++tick) {
      bench.loop().RunFor(Millis(100));
      const uint64_t now_bytes = bytes_recovered();
      if (now_bytes != last) {
        if (first_change == 0) {
          first_change = bench.loop().Now() - Millis(100);
        }
        last = now_bytes;
        last_change = bench.loop().Now();
      } else if (last > 0 && bench.loop().Now() - last_change > Seconds(2)) {
        break;
      }
    }
    const double secs =
        std::max(0.05, static_cast<double>(last_change - first_change) / 1e9);
    std::printf("%-18s%-18llu%-18.2f%-18.2f\n", "Ceph",
                static_cast<unsigned long long>(last), secs,
                secs > 0 ? static_cast<double>(last) / 1e9 / secs : 0.0);
  }
  DumpObsJson("disk_recovery");
  return 0;
}
