// Fig. 21 (extension): graceful degradation under overload, QoS on vs off.
//
// A Cheetah cluster with deliberately constrained meta-server CPU serves
// open-loop foreground GETs at a sweep of offered loads (0.5x / 0.8x / 1.2x
// of measured saturation) while background PG-pull traffic — a recovery
// storm — hammers the same meta servers from a third proxy. With QoS off,
// FIFO dispatch lets the storm and the excess arrivals queue without bound
// and foreground p99 explodes; with QoS on, weighted-fair scheduling plus
// CoDel shedding of low classes keeps foreground latency bounded, and the
// shed background pulls complete once the foreground load drops.
//
// The binary asserts the PR's acceptance criteria and exits non-zero when
// they do not hold, so it doubles as the `qos` check tier's smoke test
// (CHEETAH_BENCH_SMOKE=1 shrinks every dimension).
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/messages.h"
#include "src/qos/qos.h"
#include "src/qos/scheduler.h"

namespace cheetah::bench {
namespace {

struct Fig21Scale {
  uint64_t preload;         // objects available to GET
  uint64_t saturation_ops;  // closed-loop ops used to find the knee
  Nanos window;             // open-loop issue window per cell
  Nanos drain;              // quiet period after the window (background catch-up)
};

Fig21Scale TheScale() {
  if (Smoke()) {
    return {200, 500, Seconds(1), Seconds(2)};
  }
  const double s = Scale();
  return {std::max<uint64_t>(200, static_cast<uint64_t>(1200 * s)),
          std::max<uint64_t>(500, static_cast<uint64_t>(3000 * s)), Seconds(3),
          Seconds(3)};
}

// Meta servers get few cores and a fat per-request CPU cost so the
// saturation point sits at a rate the simulator sweeps quickly; everything
// else keeps paper-shaped defaults.
core::TestbedConfig Fig21Config(bool qos_on) {
  core::TestbedConfig config = PaperCheetahConfig();
  config.meta_cpu_cores = 2;
  config.handler_base_cost = Micros(300);
  config.options.qos.enabled = qos_on;
  // Latency-sensitive deployment: weight foreground even harder than the
  // default 8:2 over the storm's class, and start shedding sooner.
  config.options.qos.weights[static_cast<size_t>(qos::TrafficClass::kForeground)] = 16;
  config.options.qos.codel_target = Millis(3);
  return config;
}

// Shared state of the background recovery storm.
struct BgState {
  uint64_t pulls_completed = 0;
  uint64_t pushbacks = 0;  // kOverloaded bounces honored via retry-after
  uint64_t pull_errors = 0;
  Nanos gap = 0;  // per-puller pacing between pull rounds
  bool stop = false;
};

// The storm is a wide closed-loop fan-in — every puller always has a pull
// outstanding — modeling simultaneous PG recovery by many nodes. Wide enough
// that under FIFO it claims a large share of meta CPU at any foreground load.
constexpr int kPullers = 64;

// One puller: repeatedly transfers a PG page-by-page from a meta server,
// honoring retry-after pushback, pacing itself to its share of the offered
// background rate. Runs on the third proxy's machine, outside the proxies
// serving foreground traffic.
sim::Task<> BgPuller(rpc::Node* rpc, core::Testbed* bed, std::shared_ptr<BgState> st,
                     int idx) {
  uint32_t pg = static_cast<uint32_t>(idx) * 7;
  int meta = idx % bed->num_meta();
  while (!st->stop) {
    const cluster::PgId target = pg++ % bed->config().pg_count;
    std::string cursor;
    bool complete = false;
    while (!complete && !st->stop) {
      core::PgPullRequest req;
      req.pg = target;
      req.start_after = cursor;
      req.limit = 512;
      auto r = co_await rpc->Call(bed->meta_node(meta), std::move(req), Millis(500));
      if (r.ok()) {
        if (r->next_start_after.empty()) {
          complete = true;
        } else {
          cursor = r->next_start_after;
        }
      } else if (r.status().IsOverloaded()) {
        ++st->pushbacks;
        co_await sim::SleepFor(qos::RetryAfterOf(r.status(), Millis(50)));
      } else {
        ++st->pull_errors;
        co_await sim::SleepFor(Millis(50));
        break;  // abandon this PG round, move on
      }
    }
    if (complete) {
      ++st->pulls_completed;
      meta = (meta + 1) % bed->num_meta();
    }
    co_await sim::SleepFor(st->gap);
  }
}

struct CellResult {
  double frac = 0;
  double offered = 0;  // ops/s
  double p50_ms = 0;
  double p99_ms = 0;
  double svc_p99_ms = 0;  // completion minus actual issue (CO comparison)
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t fg_sheds = 0;
  uint64_t bg_sheds = 0;
  uint64_t bg_during = 0;  // pulls completed while foreground load was live
  uint64_t bg_after = 0;   // pulls completed including the drain window
};

std::shared_ptr<BgState> StartStorm(core::Testbed& bed) {
  auto st = std::make_shared<BgState>();
  st->gap = Micros(200);
  for (int i = 0; i < kPullers; ++i) {
    bed.proxy_machine(2).actor().Spawn(BgPuller(&bed.proxy_rpc(2), &bed, st, i));
  }
  return st;
}

// Closed-loop knee *with the storm running* and QoS off: the foreground
// throughput an operator actually observes from the FIFO cluster while
// recovery is in flight. The open-loop sweep offers fractions of this, so
// "1.2x saturation" means 20% past the knee of the deployed system — which
// QoS, by shedding the storm, can move.
double MeasureSaturation(const Fig21Scale& scale) {
  CheetahBench bench = MakeCheetah(Fig21Config(/*qos_on=*/false));
  std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> fg = {bench.clients[0],
                                                                    bench.clients[1]};
  auto names =
      workload::Preload(bench.loop(), fg, "f21-", scale.preload, KiB(8), 64);
  auto st = StartStorm(*bench.bed);
  auto res = RunGets(bench.loop(), fg, names, scale.saturation_ops, 128);
  st->stop = true;
  return res.throughput.OpsPerSec();
}

CellResult RunCell(bool qos_on, double frac, double saturation, const Fig21Scale& scale) {
  CheetahBench bench = MakeCheetah(Fig21Config(qos_on));
  core::Testbed& bed = *bench.bed;
  std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> fg = {bench.clients[0],
                                                                    bench.clients[1]};
  auto names =
      workload::Preload(bench.loop(), fg, "f21-", scale.preload, KiB(8), 64);

  auto st = StartStorm(bed);

  workload::RunnerConfig rc;
  rc.arrival = workload::ArrivalMode::kOpen;
  rc.offered_ops_per_sec = frac * saturation;
  rc.duration = scale.window;
  rc.total_ops = 0;
  rc.seed = 21;
  workload::Runner runner(bed.loop(), fg, rc);
  auto res = runner.Run([&names](Rng& rng) {
    workload::Op op;
    op.type = workload::OpType::kGet;
    op.name = names[rng.Uniform(names.size())];
    return op;
  });

  CellResult cell;
  cell.frac = frac;
  cell.offered = rc.offered_ops_per_sec;
  cell.p50_ms = res.get.PercentileMillis(0.50);
  cell.p99_ms = res.get.PercentileMillis(0.99);
  cell.svc_p99_ms = res.service.PercentileMillis(0.99);
  cell.completed = res.get.count();
  cell.errors = res.errors + res.not_found;
  cell.bg_during = st->pulls_completed;
  bed.RunFor(scale.drain);  // foreground gone: shed background catches up
  cell.bg_after = st->pulls_completed;
  st->stop = true;
  for (int m = 0; m < bed.num_meta(); ++m) {
    if (const qos::Scheduler* s = bed.meta_scheduler(m)) {
      cell.fg_sheds += s->sheds(qos::TrafficClass::kForeground);
      cell.bg_sheds += s->sheds(qos::TrafficClass::kBackground);
    }
  }
  std::fprintf(stderr,
               "  [qos=%s %.1fx] p50=%.2fms p99=%.2fms svc_p99=%.2fms done=%llu "
               "err=%llu bg=%llu(+%llu) sheds fg=%llu bg=%llu pushback=%llu\n",
               qos_on ? "on " : "off", frac, cell.p50_ms, cell.p99_ms, cell.svc_p99_ms,
               static_cast<unsigned long long>(cell.completed),
               static_cast<unsigned long long>(cell.errors),
               static_cast<unsigned long long>(cell.bg_during),
               static_cast<unsigned long long>(cell.bg_after - cell.bg_during),
               static_cast<unsigned long long>(cell.fg_sheds),
               static_cast<unsigned long long>(cell.bg_sheds),
               static_cast<unsigned long long>(st->pushbacks));
  return cell;
}

}  // namespace
}  // namespace cheetah::bench

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  const Fig21Scale scale = TheScale();
  const double saturation = MeasureSaturation(scale);
  std::fprintf(stderr, "  saturation (closed loop, storm active, qos off): %.0f ops/s\n",
               saturation);

  const double kFractions[] = {0.5, 0.8, 1.2};
  std::vector<CellResult> off, on;
  for (double f : kFractions) {
    off.push_back(RunCell(false, f, saturation, scale));
  }
  for (double f : kFractions) {
    on.push_back(RunCell(true, f, saturation, scale));
  }

  PrintTitle("Fig. 21: foreground GET latency vs offered load under a background storm");
  PrintTableHeader({"qos", "offered_x", "offered_ops", "p50_ms", "p99_ms", "errors",
                    "fg_sheds", "bg_sheds", "bg_pulls"});
  auto print_row = [](const char* mode, const CellResult& c) {
    std::printf("%-18s%-18.1f%-18.0f%-18.2f%-18.2f%-18llu%-18llu%-18llu%-18llu\n", mode,
                c.frac, c.offered, c.p50_ms, c.p99_ms,
                static_cast<unsigned long long>(c.errors),
                static_cast<unsigned long long>(c.fg_sheds),
                static_cast<unsigned long long>(c.bg_sheds),
                static_cast<unsigned long long>(c.bg_after));
  };
  for (const auto& c : off) {
    print_row("qos-off", c);
  }
  for (const auto& c : on) {
    print_row("qos-on", c);
  }

  DumpObsJson("fig21_overload");

  // ---- acceptance criteria ----
  bool ok = true;
  const CellResult& hot_off = off.back();
  const CellResult& hot_on = on.back();
  if (!(hot_on.p99_ms * 3.0 <= hot_off.p99_ms)) {
    std::fprintf(stderr,
                 "FAIL: at 1.2x saturation, QoS-on p99 (%.2fms) is not >=3x lower "
                 "than QoS-off (%.2fms)\n",
                 hot_on.p99_ms, hot_off.p99_ms);
    ok = false;
  }
  if (!(hot_on.bg_after > hot_on.bg_during)) {
    std::fprintf(stderr,
                 "FAIL: background pulls did not make progress after the foreground "
                 "load dropped (during=%llu after=%llu)\n",
                 static_cast<unsigned long long>(hot_on.bg_during),
                 static_cast<unsigned long long>(hot_on.bg_after));
    ok = false;
  }
  if (hot_on.fg_sheds != 0 && hot_on.bg_sheds == 0) {
    std::fprintf(stderr, "FAIL: QoS shed foreground traffic before background\n");
    ok = false;
  }
  if (ok) {
    std::printf("\nOK: QoS-on p99 at 1.2x = %.2fms vs QoS-off %.2fms (%.1fx lower); "
                "background completed %llu pulls after load dropped\n",
                hot_on.p99_ms, hot_off.p99_ms,
                hot_off.p99_ms / std::max(hot_on.p99_ms, 1e-9),
                static_cast<unsigned long long>(hot_on.bg_after - hot_on.bg_during));
  }
  return ok ? 0 : 1;
}
