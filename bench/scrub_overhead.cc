// Scrub-overhead bench: what does background integrity scrubbing cost the
// foreground path?
//
// Two identical paper-shaped clusters run the same preload + closed-loop GET
// workload, one with the scrubber off and one with it re-walking every volume
// on a short interval. Because scrub probes travel in the maintenance QoS
// class, the WFQ scheduler should keep the foreground GET p99 within 2x of
// the scrub-off baseline (the PR's acceptance bound) even while the scrubber
// continuously audits checksums underneath the workload.
//
// The scrub-on side then takes a bit-rot hit after the measured window and
// must repair every damaged extent before a final audit pass, so the binary
// also smoke-tests the detect -> repair pipeline end to end. It asserts both
// criteria and exits non-zero when they do not hold; CHEETAH_BENCH_SMOKE=1
// shrinks every dimension so scripts/check.sh can run it as the `integrity`
// tier's bench smoke.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/scrubber.h"

namespace cheetah::bench {
namespace {

using core::MetaServer;
using core::Testbed;

struct ScrubScale {
  uint64_t preload;      // objects available to GET
  uint64_t get_ops;      // measured closed-loop gets
  int concurrency;       // closed-loop workers
};

ScrubScale PickScale() {
  if (Smoke()) {
    return {/*preload=*/200, /*get_ops=*/800, /*concurrency=*/12};
  }
  return {ScaledOps(1500), ScaledOps(8000), 48};
}

struct SideResult {
  workload::RunnerResults gets;
  uint64_t scrubbed_objects = 0;
  uint64_t scrub_repairs = 0;
  uint64_t injected_extents = 0;
  uint64_t residual_corrupt = 0;  // audit-pass corrupt_found delta
};

void ScrubAllOnce(Testbed& bed) {
  auto pending = std::make_shared<int>(bed.num_meta());
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.meta_machine(i).actor().Spawn(
        [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->ScrubNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  while (*pending > 0 && bed.loop().RunOne()) {
  }
}

uint64_t TotalCorruptFound(Testbed& bed) {
  uint64_t total = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    total += bed.meta(i).scrubber().stats().corrupt_found.value();
  }
  return total;
}

SideResult RunSide(bool scrub_on, const ScrubScale& scale) {
  core::CheetahOptions options;
  options.qos.enabled = true;
  options.scrub_interval = scrub_on ? Millis(100) : Nanos{0};
  CheetahBench bench = MakeCheetah(PaperCheetahConfig(options));

  const std::vector<std::string> names =
      workload::Preload(bench.loop(), bench.clients, "scrub-", scale.preload, KiB(64));
  // Let the first scrub pass (if any) start before measuring, so the measured
  // window overlaps steady-state scrubbing rather than an idle scrubber.
  bench.bed->RunFor(Seconds(1));

  SideResult side;
  side.gets = RunGets(bench.loop(), bench.clients, names, scale.get_ops, scale.concurrency);

  if (scrub_on) {
    // Repair demo: rot a slice of at-rest extents on a third of the cluster,
    // give the periodic scrubber a fixed virtual-time budget, then audit that
    // a fresh pass finds nothing left to repair.
    for (int i = 0; i < bench.bed->num_data(); i += 3) {
      sim::Machine& m = bench.bed->data_machine(i);
      for (size_t d = 0; d < m.num_disks(); ++d) {
        m.disk(d).InjectBitRot(0.02, 0x5c72bu ^ (static_cast<uint64_t>(i) << 8) ^ d);
      }
    }
    for (int i = 0; i < bench.bed->num_data(); ++i) {
      sim::Machine& m = bench.bed->data_machine(i);
      for (size_t d = 0; d < m.num_disks(); ++d) {
        side.injected_extents += m.disk(d).bitrot_extents();
      }
    }
    bench.bed->RunFor(Seconds(2));
    ScrubAllOnce(*bench.bed);
    const uint64_t corrupt_before_audit = TotalCorruptFound(*bench.bed);
    ScrubAllOnce(*bench.bed);
    side.residual_corrupt = TotalCorruptFound(*bench.bed) - corrupt_before_audit;
  }

  for (int i = 0; i < bench.bed->num_meta(); ++i) {
    const core::Scrubber::Counters& s = bench.bed->meta(i).scrubber().stats();
    side.scrubbed_objects += s.objects.value();
    side.scrub_repairs += s.repairs.value();
  }
  return side;
}

void PrintRow(const char* label, const SideResult& side) {
  std::printf("%-18s%-18.0f%-18.3f%-18.3f%-18.3f%-18llu%-18llu\n", label,
              side.gets.throughput.OpsPerSec(), side.gets.get.MeanMillis(),
              side.gets.get.PercentileMillis(0.50), side.gets.get.PercentileMillis(0.99),
              static_cast<unsigned long long>(side.scrubbed_objects),
              static_cast<unsigned long long>(side.scrub_repairs));
}

int Run() {
  const ScrubScale scale = PickScale();
  PrintTitle("Scrub overhead: foreground GET latency, scrubber off vs on");
  std::printf("preload=%llu gets=%llu concurrency=%d%s\n",
              static_cast<unsigned long long>(scale.preload),
              static_cast<unsigned long long>(scale.get_ops), scale.concurrency,
              Smoke() ? " (smoke)" : "");

  const SideResult off = RunSide(/*scrub_on=*/false, scale);
  const SideResult on = RunSide(/*scrub_on=*/true, scale);

  PrintTableHeader({"side", "gets/s", "mean ms", "p50 ms", "p99 ms", "scrubbed", "repairs"});
  PrintRow("scrub-off", off);
  PrintRow("scrub-on", on);

  DumpObsJson("scrub_overhead");

  int failures = 0;
  const double p99_off = off.gets.get.PercentileMillis(0.99);
  const double p99_on = on.gets.get.PercentileMillis(0.99);
  if (off.gets.errors != 0 || on.gets.errors != 0) {
    std::fprintf(stderr, "FAIL: foreground gets saw errors (off=%llu on=%llu)\n",
                 static_cast<unsigned long long>(off.gets.errors),
                 static_cast<unsigned long long>(on.gets.errors));
    ++failures;
  }
  if (p99_off <= 0.0 || p99_on > 2.0 * p99_off) {
    std::fprintf(stderr, "FAIL: scrub-on GET p99 %.3fms exceeds 2x scrub-off %.3fms\n",
                 p99_on, p99_off);
    ++failures;
  }
  if (on.scrubbed_objects == 0) {
    std::fprintf(stderr, "FAIL: scrubber never audited an object\n");
    ++failures;
  }
  if (on.injected_extents == 0 || on.scrub_repairs == 0) {
    std::fprintf(stderr, "FAIL: repair demo did no work (injected=%llu repairs=%llu)\n",
                 static_cast<unsigned long long>(on.injected_extents),
                 static_cast<unsigned long long>(on.scrub_repairs));
    ++failures;
  }
  if (on.residual_corrupt != 0) {
    std::fprintf(stderr, "FAIL: audit pass still found %llu corrupt replicas\n",
                 static_cast<unsigned long long>(on.residual_corrupt));
    ++failures;
  }
  if (failures == 0) {
    std::printf("\nPASS: p99 %.3fms -> %.3fms (<= 2x), %llu extents rotted, "
                "%llu repairs, audit clean\n",
                p99_off, p99_on, static_cast<unsigned long long>(on.injected_extents),
                static_cast<unsigned long long>(on.scrub_repairs));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cheetah::bench

int main() { return cheetah::bench::Run(); }
