// cheetah_perf: one repetition of one benchmark workload (see NOTES.md).
//
//   cheetah_perf --workload put_storm|get_zipf|faulted_open --seed N
//                [--scale F] [--trace 0|1] [--trace-out FILE]
//
// The program drives the system only through its public entry points
// (core::Testbed, workload::Runner, chaos::NemesisSchedule,
// chaos::CheckLinearizable, obs::Registry, obs::Tracer). Every input is a
// pure function of --seed, and the simulator is deterministic, so all
// virtual-time (vt) numbers and the printed fingerprint repeat exactly for a
// seed; only the host-time numbers vary. One run goes through five phases,
// each timed in host CPU seconds: boot, preload, the measured window, the
// audit (settle, read back every acked object, delete half of them and
// confirm they are gone), and the check (per-key linearizability of the whole
// recorded history). The result is one JSON object on the last stdout line;
// perfbench/run.py repeats runs and aggregates them.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/common/crc32c.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/core/testbed.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/adapters.h"
#include "src/workload/generator.h"
#include "src/workload/runner.h"

namespace cheetah::perf {
namespace {

using workload::Op;
using workload::OpType;
using workload::RunnerConfig;
using workload::RunnerResults;

constexpr int kOpTypes = 3;
constexpr const char* kOpNames[kOpTypes] = {"put", "get", "delete"};

int Idx(OpType t) { return static_cast<int>(t); }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Benchmark-side host spans around each phase: CPU seconds for the metrics,
// wall-clock bounds for the trace file.
class HostPhases {
 public:
  struct Span {
    std::string name;
    double cpu_s = 0;
    double wall_start = 0;
    double wall_end = 0;
  };

  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    const double w0 = WallSeconds();
    const double c0 = CpuSeconds();
    struct Finish {
      HostPhases* self;
      std::string name;
      double w0, c0;
      ~Finish() {
        self->spans_.push_back({name, CpuSeconds() - c0, w0, WallSeconds()});
      }
    } finish{this, name, w0, c0};
    return fn();
  }

  double Seconds(const std::string& name) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        total += s.cpu_s;
      }
    }
    return total;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// ---- inputs --------------------------------------------------------------

// Object names are seeded hex strings of fixed length: the seed picks which
// PGs and meta servers every key lands on. Mix64 is a bijection, so the
// names of one run never collide.
std::string NameOf(const std::string& prefix, uint64_t seed, uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Mix64(Mix64(seed) + i)));
  return prefix + buf;
}

// Content of a stored object, derived from its name so every read can be
// checked without keeping the bytes around.
std::string Payload(const std::string& name, uint64_t size) {
  std::string out(size, '\0');
  Rng rng(Fnv1a64(name));
  for (uint64_t i = 0; i < size; i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, std::min<uint64_t>(8, size - i));
  }
  return out;
}

// The value the history records for an object. Metadata-only runs keep no
// bytes (reads return a synthesized buffer of the right length), so there
// the value is the size; stored runs add the content's CRC32C.
std::string ValueDigest(std::string_view data, bool stored) {
  std::string out = "n=" + std::to_string(data.size());
  if (stored) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "/c=%08x", Crc32c(data));
    out += buf;
  }
  return out;
}

// YCSB Zipfian over ranks [0, n). Rng::Zipf recomputes zeta(n) on every
// draw, O(n); this caches it so key choice stays out of the measured cost.
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    alpha_ = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
      return 1;
    }
    const auto r = static_cast<uint64_t>(static_cast<double>(n_) *
                                         std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// ---- the recording client ------------------------------------------------

// State shared by every client of one run: the op history, what is known to
// exist, per-phase op accounting and the trace switch.
struct Ledger {
  sim::EventLoop* loop = nullptr;
  bool stored_payloads = false;
  bool record_history = true;
  chaos::History history;
  std::unordered_map<std::string, uint64_t> sizes;  // every acked put, by name
  std::unordered_map<std::string, uint64_t> live;   // acked and not (being) deleted
  std::vector<std::string> pool;                    // window get/delete targets
  std::vector<std::string> deleted;                 // acked deletes
  std::vector<std::string> violations;

  uint64_t attempted[kOpTypes] = {};
  uint64_t ok[kOpTypes] = {};
  uint64_t failed[kOpTypes] = {};
  uint64_t not_found[kOpTypes] = {};

  // Tracing covers the last ops of a phase: the tracer is switched on when
  // op number `trace_from` is issued and off when the phase returns, by
  // which point every traced op has completed.
  uint64_t issued = 0;
  uint64_t trace_from = std::numeric_limits<uint64_t>::max();

  void BeginPhase(uint64_t ops, uint64_t traced_ops) {
    std::fill(std::begin(attempted), std::end(attempted), 0);
    std::fill(std::begin(ok), std::end(ok), 0);
    std::fill(std::begin(failed), std::end(failed), 0);
    std::fill(std::begin(not_found), std::end(not_found), 0);
    issued = 0;
    trace_from = traced_ops == 0 ? std::numeric_limits<uint64_t>::max()
                                 : ops - std::min(ops, traced_ops);
  }

  void OnIssue(OpType t) {
    ++attempted[Idx(t)];
    if (issued++ == trace_from) {
      obs::Tracer::Global().set_enabled(true);
    }
  }

  void Violation(std::string what) {
    if (violations.size() < 20) {
      violations.push_back(std::move(what));
    } else if (violations.size() == 20) {
      violations.push_back("... further violations suppressed");
    }
  }

  // History ids start at 1; 0 means "not recorded".
  uint64_t Invoke(int client, chaos::OpType type, const std::string& key,
                  const std::string& value) {
    return record_history ? history.Invoke(client, type, key, value, loop->Now()) : 0;
  }
  void Return(uint64_t id, chaos::Outcome outcome, const std::string& observed) {
    if (id != 0) {
      history.Return(id, outcome, observed, loop->Now());
    }
  }

  uint64_t TotalAttempted() const { return attempted[0] + attempted[1] + attempted[2]; }
  uint64_t TotalFailed() const { return failed[0] + failed[1] + failed[2]; }
};

// An ObjectStore in front of one proxy that records every op in the history,
// writes name-derived payloads when content is stored, and checks every read.
class RecordingStore : public workload::ObjectStore {
 public:
  RecordingStore(Ledger* ledger, workload::ObjectStore* inner, int client)
      : ledger_(ledger), inner_(inner), client_(client) {}

  sim::Task<Status> Put(std::string name, std::string data) override {
    Ledger& l = *ledger_;
    l.OnIssue(OpType::kPut);
    const uint64_t size = data.size();
    if (l.stored_payloads) {
      data = Payload(name, size);
    }
    const uint64_t id =
        l.Invoke(client_, chaos::OpType::kPut, name, ValueDigest(data, l.stored_payloads));
    Status s = co_await inner_->Put(name, std::move(data));
    chaos::Outcome outcome = chaos::Outcome::kAmbiguous;
    if (s.ok()) {
      outcome = chaos::Outcome::kOk;
      ++l.ok[Idx(OpType::kPut)];
      l.sizes[name] = size;
      l.live[name] = size;
      l.pool.push_back(name);
    } else {
      if (s.code() == ErrorCode::kAlreadyExists || s.code() == ErrorCode::kResourceExhausted) {
        outcome = chaos::Outcome::kNoEffect;
      }
      ++l.failed[Idx(OpType::kPut)];
    }
    l.Return(id, outcome, "");
    co_return s;
  }

  sim::Task<Result<std::string>> Get(std::string name) override {
    Ledger& l = *ledger_;
    l.OnIssue(OpType::kGet);
    const uint64_t id = l.Invoke(client_, chaos::OpType::kGet, name, "");
    Result<std::string> r = co_await inner_->Get(name);
    if (r.ok()) {
      l.Return(id, chaos::Outcome::kOk, ValueDigest(*r, l.stored_payloads));
      ++l.ok[Idx(OpType::kGet)];
      CheckContent(name, *r);
    } else if (r.status().IsNotFound()) {
      l.Return(id, chaos::Outcome::kNotFound, "");
      ++l.not_found[Idx(OpType::kGet)];
    } else {
      l.Return(id, chaos::Outcome::kNoEffect, "");
      ++l.failed[Idx(OpType::kGet)];
    }
    co_return r;
  }

  sim::Task<Status> Delete(std::string name) override {
    Ledger& l = *ledger_;
    l.OnIssue(OpType::kDelete);
    l.live.erase(name);  // existence is uncertain from here until the reply
    const uint64_t id = l.Invoke(client_, chaos::OpType::kDelete, name, "");
    Status s = co_await inner_->Delete(name);
    chaos::Outcome outcome = chaos::Outcome::kAmbiguous;
    if (s.ok()) {
      outcome = chaos::Outcome::kOk;
      ++l.ok[Idx(OpType::kDelete)];
      l.deleted.push_back(name);
    } else if (s.IsNotFound()) {
      outcome = chaos::Outcome::kNotFound;
      ++l.not_found[Idx(OpType::kDelete)];
    } else {
      ++l.failed[Idx(OpType::kDelete)];
    }
    l.Return(id, outcome, "");
    co_return s;
  }

 private:
  void CheckContent(const std::string& name, const std::string& data) {
    Ledger& l = *ledger_;
    auto it = l.sizes.find(name);
    if (it == l.sizes.end()) {
      l.Violation("get " + name + " returned an object that was never acked");
      return;
    }
    if (data.size() != it->second) {
      l.Violation("get " + name + " returned " + std::to_string(data.size()) +
                  " bytes, want " + std::to_string(it->second));
    } else if (l.stored_payloads && Crc32c(data) != Crc32c(Payload(name, it->second))) {
      l.Violation("get " + name + " returned corrupt bytes");
    }
  }

  Ledger* ledger_;
  workload::ObjectStore* inner_;
  int client_;
};

// ---- workloads -----------------------------------------------------------

struct Spec {
  std::string name;
  core::TestbedConfig config;
  uint64_t preload_objects = 0;
  workload::SizeDist preload_size;
  RunnerConfig window;
  double put_ratio = 1.0;
  double delete_ratio = 0.0;
  workload::SizeDist put_size;
  bool zipf_gets = false;
  bool nemesis = false;
  double slo_limit_ms = 0;
  uint64_t traced_window_ops = 0;
  // Per-key linearizability needs short per-key histories; Zipfian gets
  // give hot keys thousands of ops, so get_zipf records none.
  bool check_history = true;
  // The audit reads back every audit_stride-th live object (by name).
  size_t audit_stride = 1;
};

uint64_t Scaled(uint64_t n, double scale) {
  return std::max<uint64_t>(50, static_cast<uint64_t>(static_cast<double>(n) * scale));
}

// The paper's testbed shape: 3 managers, 3 meta, 9 data (4 disks each) and
// 3 proxy machines, 64 PGs.
core::TestbedConfig PaperCluster() {
  core::TestbedConfig config;
  config.lv_capacity_bytes = GiB(8);
  config.store_volume_content = false;
  return config;
}

bool MakeSpec(const std::string& name, double scale, uint64_t seed, Spec* spec) {
  spec->name = name;
  spec->config = PaperCluster();
  spec->window.seed = seed;
  if (name == "put_storm") {
    // Fig. 11's Flush+ MetaX: a 1 MiB memtable, L0 trigger 4, so flushes and
    // L0->L1 compactions cycle many times inside the window.
    spec->config.options.metax_kv.memtable_bytes = MiB(1);
    spec->config.options.metax_kv.l0_compaction_trigger = 4;
    spec->preload_objects = Scaled(2000, scale);
    spec->preload_size = workload::FixedSize(KiB(8));
    spec->window.concurrency = 600;
    spec->window.total_ops = Scaled(24000, scale);
    spec->put_ratio = 1.0;
    spec->put_size = workload::FixedSize(KiB(8));
    spec->slo_limit_ms = 200;
    spec->traced_window_ops = Scaled(4000, scale);
    spec->audit_stride = 4;
  } else if (name == "get_zipf") {
    spec->preload_objects = Scaled(3000, scale);
    spec->preload_size = workload::TraceSize();
    spec->window.concurrency = 64;
    spec->window.total_ops = Scaled(24000, scale);
    spec->put_ratio = 0.05;
    spec->delete_ratio = 0.05;
    spec->put_size = workload::TraceSize();
    spec->zipf_gets = true;
    spec->check_history = false;
    spec->slo_limit_ms = 200;
    spec->traced_window_ops = Scaled(6000, scale);
  } else if (name == "faulted_open") {
    spec->config.store_volume_content = true;
    spec->config.options.qos.enabled = true;
    spec->config.options.scrub_interval = Millis(200);
    spec->preload_objects = Scaled(2000, scale);
    spec->preload_size = workload::UniformSize(KiB(2), KiB(6));
    spec->window.arrival = workload::ArrivalMode::kOpen;
    spec->window.offered_ops_per_sec = 1500;
    spec->window.total_ops = Scaled(15000, scale);
    spec->put_ratio = 0.2;
    spec->put_size = workload::UniformSize(KiB(2), KiB(6));
    spec->nemesis = true;
    spec->slo_limit_ms = 100;
    spec->traced_window_ops = Scaled(15000, scale);
  } else {
    return false;
  }
  return true;
}

// chaos::Combined with its lossy-net stage made drop-free. Combined drops
// 0.5-2% of all messages; at faulted_open's load that evicts healthy servers
// over and over (seed 1: 34 evictions and 223 topology changes in 5 s), and
// with the crash loop on top some acked objects are still unreadable after
// the settle. Duplication and delay keep rpc dedup and reordering busy, and
// the crash loop and gray disk are Combined's own, so ops can all succeed
// and a regression shows as latency, not as failures.
chaos::NemesisSchedule FaultSchedule(uint64_t seed, int meta_count, int data_count, Nanos span) {
  chaos::NemesisSchedule s =
      chaos::MetaCrashRestartLoop(seed * 3 + 2, meta_count, span, /*power_fail=*/seed % 2 == 0);
  s.Append(chaos::GrayDataDisk(seed * 3 + 3, data_count, span));
  Rng rng(seed ^ 0x2e7ull);
  sim::LinkFaults f;
  f.dup_prob = 0.01 + 0.005 * static_cast<double>(rng.Uniform(4));
  f.delay_prob = 0.02 + 0.01 * static_cast<double>(rng.Uniform(4));
  f.max_extra_delay = Millis(1) + rng.Uniform(Millis(3));
  const Nanos hit = span / 8 + rng.Uniform(span / 8);
  std::ostringstream d;
  d << "lossy net dup=" << f.dup_prob << " delay=" << f.delay_prob
    << " max_extra_ns=" << f.max_extra_delay;
  s.Add(hit, d.str(), [f](core::Testbed& bed) { bed.network().SetDefaultLinkFaults(f); });
  s.Add(hit + span / 2, "clear link faults",
        [](core::Testbed& bed) { bed.network().ClearLinkFaults(); });
  return s;
}

std::function<Op(Rng&)> WindowOps(const Spec& spec, Ledger* ledger, uint64_t seed) {
  auto next_name = std::make_shared<uint64_t>(0);
  std::shared_ptr<Zipfian> zipf;
  if (spec.zipf_gets) {
    zipf = std::make_shared<Zipfian>(std::max<uint64_t>(2, ledger->pool.size()), 0.99);
  }
  return [spec, ledger, seed, next_name, zipf](Rng& rng) {
    Op op;
    const double dice = spec.put_ratio >= 1.0 ? 0.0 : rng.NextDouble();
    if (ledger->pool.empty() || dice < spec.put_ratio) {
      op.type = OpType::kPut;
      op.name = NameOf("w-", seed, (*next_name)++);
      op.size = spec.put_size(rng);
    } else if (dice < spec.put_ratio + spec.delete_ratio) {
      op.type = OpType::kDelete;
      std::vector<std::string>& pool = ledger->pool;
      const size_t i = rng.Uniform(pool.size());
      op.name = std::move(pool[i]);
      pool[i] = std::move(pool.back());
      pool.pop_back();
    } else {
      op.type = OpType::kGet;
      const uint64_t rank = zipf ? zipf->Next(rng) : rng.Uniform(ledger->pool.size());
      op.name = ledger->pool[rank % ledger->pool.size()];
    }
    return op;
  };
}

// Ops drawn in order from a fixed list (preload and audit phases).
std::function<Op(Rng&)> ListOps(std::vector<Op> ops) {
  auto list = std::make_shared<std::vector<Op>>(std::move(ops));
  auto cursor = std::make_shared<size_t>(0);
  return [list, cursor](Rng&) { return (*list)[(*cursor)++]; };
}

// ---- registry snapshots --------------------------------------------------

struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::vector<std::string> histograms;
};

// Parses Registry::ToJson(), which prints one `"name": value` per line.
RegistrySnapshot Snapshot() {
  RegistrySnapshot snap;
  std::istringstream in(obs::Registry::Global().ToJson());
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    const size_t q0 = line.find('"');
    if (q0 == std::string::npos) {
      continue;
    }
    const size_t q1 = line.find('"', q0 + 1);
    const std::string key = line.substr(q0 + 1, q1 - q0 - 1);
    if (line.find('{', q1) != std::string::npos && line.find("count", q1) == std::string::npos) {
      section = key;
      continue;
    }
    if (section == "counters") {
      snap.counters[key] = std::strtoull(line.c_str() + line.find(':', q1) + 1, nullptr, 10);
    } else if (section == "histograms") {
      snap.histograms.push_back(key);
    }
  }
  return snap;
}

// "meta@101#7.put_allocs" -> "meta.put_allocs": sums a component's
// instances (and the per-node copies of a role) into one family.
std::string Family(const std::string& name) {
  std::string out;
  for (size_t i = 0; i < name.size(); ++i) {
    if ((name[i] == '#' || name[i] == '@') && i + 1 < name.size() &&
        std::isdigit(static_cast<unsigned char>(name[i + 1]))) {
      ++i;
      while (i + 1 < name.size() && std::isdigit(static_cast<unsigned char>(name[i + 1]))) {
        ++i;
      }
      continue;
    }
    out += name[i];
  }
  return out;
}

// Counter deltas over the window, rolled up into families, zeros dropped.
std::map<std::string, uint64_t> FamilyDeltas(const RegistrySnapshot& before,
                                             const RegistrySnapshot& after) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value > base) {
      out[Family(name)] += value - base;
    }
  }
  return out;
}

// ---- cluster-manager counts ----------------------------------------------

struct ManagerCounts {
  uint64_t topology_changes = 0;
  uint64_t evictions = 0;
  uint64_t view = 0;
};

ManagerCounts ReadManagers(core::Testbed& bed) {
  ManagerCounts c;
  for (int i = 0; i < bed.num_managers(); ++i) {
    c.topology_changes += bed.manager(i).topology_changes();
    c.evictions += bed.manager(i).evictions();
    c.view = std::max(c.view, bed.manager(i).view());
  }
  return c;
}

// ---- trace analysis ------------------------------------------------------

// Mean virtual-time self time per op, by op type and span kind. A span's
// self time is its duration minus the union of its children's intervals
// (clipped to it). `from_window[t]` picks which ops of type t count: those
// that started inside the measured window or those of the audit after it.
std::map<std::string, double> SelfTimes(const std::vector<obs::Span>& spans, Nanos window_end,
                                        const bool from_window[kOpTypes]) {
  std::vector<std::vector<uint64_t>> children(spans.size() + 1);
  for (const obs::Span& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent].push_back(s.id);
    }
  }
  // Op type of each counted root span, by span id; -1 for everything else.
  std::vector<int> type_of_op(spans.size() + 1, -1);
  for (const obs::Span& s : spans) {
    if (s.kind != obs::SpanKind::kOp || s.end == 0) {
      continue;
    }
    for (int t = 0; t < kOpTypes; ++t) {
      if (s.name == kOpNames[t] && (s.start < window_end) == from_window[t]) {
        type_of_op[s.id] = t;
      }
    }
  }
  constexpr int kKinds = 8;
  double sum[kOpTypes][kKinds] = {};
  uint64_t roots[kOpTypes] = {};
  std::vector<std::pair<Nanos, Nanos>> iv;
  for (const obs::Span& s : spans) {
    const int t = s.op < type_of_op.size() ? type_of_op[s.op] : -1;
    if (t < 0 || s.end < s.start || s.end == 0) {
      continue;
    }
    if (s.kind == obs::SpanKind::kOp) {
      ++roots[t];
    }
    iv.clear();
    for (uint64_t c : children[s.id]) {
      const obs::Span& ch = spans[c - 1];
      const Nanos a = std::max(ch.start, s.start);
      const Nanos b = std::min(ch.end == 0 ? s.end : ch.end, s.end);
      if (b > a) {
        iv.emplace_back(a, b);
      }
    }
    // Union length of the children's intervals, swept in start order.
    std::sort(iv.begin(), iv.end());
    Nanos covered = 0;
    Nanos reach = s.start;
    for (const auto& [a, b] : iv) {
      if (b > reach) {
        covered += b - std::max(a, reach);
        reach = b;
      }
    }
    sum[t][static_cast<int>(s.kind)] += static_cast<double>(s.end - s.start - covered);
  }
  std::map<std::string, double> out;
  for (int t = 0; t < kOpTypes; ++t) {
    for (int k = 0; k < kKinds; ++k) {
      const std::string key = std::string("vt.") + kOpNames[t] + ".self_ms." +
                              obs::SpanKindName(static_cast<obs::SpanKind>(k));
      out[key] = roots[t] == 0 ? 0.0 : sum[t][k] / static_cast<double>(roots[t]) / 1e6;
    }
    out[std::string("vt.") + kOpNames[t] + ".traced_ops"] = static_cast<double>(roots[t]);
  }
  return out;
}

// ---- output helpers ------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += first ? "" : ", ";
    first = false;
    out += JsonString(k) + ": " + JsonNumber(v);
  }
  return out + "}";
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---- one run -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double scale = 1.0;
  bool trace = false;
  std::string trace_out;
};

int Run(const Args& args) {
  Spec spec;
  if (!MakeSpec(args.workload, args.scale, args.seed, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  HostPhases host;
  Ledger ledger;
  ledger.stored_payloads = spec.config.store_volume_content;
  ledger.record_history = spec.check_history;
  const int meta_count = spec.config.meta_machines;
  const int data_count = spec.config.data_machines;

  auto bed = std::make_unique<core::Testbed>(spec.config);
  ledger.loop = &bed->loop();
  std::vector<std::unique_ptr<workload::CheetahStore>> proxies;
  std::vector<std::unique_ptr<RecordingStore>> stores;
  std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> clients;
  for (int i = 0; i < bed->num_proxies(); ++i) {
    proxies.push_back(std::make_unique<workload::CheetahStore>(&bed->proxy(i)));
    stores.push_back(std::make_unique<RecordingStore>(&ledger, proxies.back().get(), i));
    clients.emplace_back(&bed->proxy_machine(i).actor(), stores.back().get());
  }
  const uint64_t traced_tail = args.trace ? std::numeric_limits<uint64_t>::max() : 0;
  auto run_phase = [&](RunnerConfig config, std::function<Op(Rng&)> next, uint64_t traced_ops) {
    ledger.BeginPhase(config.total_ops, traced_ops);
    workload::Runner runner(bed->loop(), clients, config);
    RunnerResults r = runner.Run(std::move(next));
    obs::Tracer::Global().set_enabled(false);
    return r;
  };
  auto closed = [](uint64_t ops, int concurrency, uint64_t seed) {
    RunnerConfig c;
    c.total_ops = ops;
    c.concurrency = concurrency;
    c.seed = seed;
    return c;
  };

  // --- setup: boot and preload ---
  const Status boot = host.Time("boot", [&] { return bed->Boot(); });
  if (!boot.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", boot.ToString().c_str());
    return 1;
  }
  host.Time("preload", [&] {
    if (spec.preload_objects == 0) {
      return;
    }
    Rng rng(Mix64(args.seed ^ 0x9e10adull));
    std::vector<Op> ops(spec.preload_objects);
    for (uint64_t i = 0; i < ops.size(); ++i) {
      ops[i].type = OpType::kPut;
      ops[i].name = NameOf("p-", args.seed, i);
      ops[i].size = spec.preload_size(rng);
    }
    const uint64_t n = ops.size();
    run_phase(closed(n, 64, args.seed), ListOps(std::move(ops)), 0);
    if (ledger.TotalFailed() != 0) {
      ledger.Violation("preload: " + std::to_string(ledger.TotalFailed()) + " puts failed");
    }
  });
  // Zipfian rank r goes to the object whose size quantile is frac(r * phi),
  // so every popularity band carries the trace's size mix. A plain shuffle
  // lets the sizes of the few hottest keys, drawn per seed, swing get
  // latency and throughput by +-10% from seed to seed.
  {
    std::vector<std::string>& pool = ledger.pool;
    std::sort(pool.begin(), pool.end(), [&](const std::string& a, const std::string& b) {
      return std::make_pair(ledger.sizes.at(a), a) < std::make_pair(ledger.sizes.at(b), b);
    });
    std::vector<std::pair<double, size_t>> slots(pool.size());
    for (size_t r = 0; r < pool.size(); ++r) {
      slots[r] = {std::fmod(static_cast<double>(r + 1) * 0.6180339887498949, 1.0), r};
    }
    std::sort(slots.begin(), slots.end());
    std::vector<std::string> ranked(pool.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      ranked[slots[i].second] = std::move(pool[i]);
    }
    pool = std::move(ranked);
  }

  // --- measured window ---
  const RegistrySnapshot before = Snapshot();
  for (const std::string& h : before.histograms) {
    obs::Registry::Global().histogram(h)->Reset();  // window-only percentiles
  }
  const ManagerCounts managers_before = ReadManagers(*bed);
  std::string schedule;
  if (spec.nemesis) {
    const Nanos span = static_cast<Nanos>(static_cast<double>(spec.window.total_ops) /
                                          spec.window.offered_ops_per_sec * 1e9);
    bed->network().SeedFaults(Mix64(args.seed ^ 0xfa017ull));
    chaos::NemesisSchedule s = FaultSchedule(args.seed, meta_count, data_count, span);
    schedule = s.ToString();
    s.Install(*bed);
  }
  obs::Tracer::Global().Clear();
  const Nanos window_start = bed->loop().Now();
  RunnerResults window = host.Time("run", [&] {
    return run_phase(spec.window, WindowOps(spec, &ledger, args.seed),
                     std::min(traced_tail, spec.traced_window_ops));
  });
  const Nanos window_end = bed->loop().Now();
  const RegistrySnapshot after = Snapshot();
  const ManagerCounts managers_after = ReadManagers(*bed);
  uint64_t w_attempted[kOpTypes];
  std::copy(std::begin(ledger.attempted), std::end(ledger.attempted), w_attempted);
  const uint64_t attempted = ledger.TotalAttempted();
  const uint64_t failed = ledger.TotalFailed();
  const uint64_t window_not_found = ledger.not_found[0] + ledger.not_found[1] + ledger.not_found[2];
  // Histogram percentiles are read before the audit adds samples.
  std::map<std::string, double> rpc_p99;
  for (const char* type : {"PutAllocRequest", "DataWriteRequest", "ReplicateMetaXRequest",
                           "GetMetaRequest", "DataReadRequest", "DeleteRequest"}) {
    rpc_p99[std::string("rpc.p99_ms.") + type] =
        obs::Registry::Global().histogram(std::string("rpc.") + type + ".latency")
            ->PercentileMillis(0.99);
  }
  double sojourn_p99 = 0;
  for (const std::string& h : after.histograms) {
    if (Family(h) == "qos.sojourn_ns.foreground") {
      sojourn_p99 =
          std::max(sojourn_p99, obs::Registry::Global().histogram(h)->PercentileMillis(0.99));
    }
  }

  // --- audit: settle, read back, delete half, confirm they are gone ---
  // Closed loops audit at their own client count, so the read-back and
  // delete latencies that stand in for a missing op type are taken under
  // the same contention as the window.
  const int audit_concurrency = spec.window.arrival == workload::ArrivalMode::kClosed
                                    ? spec.window.concurrency
                                    : 32;
  RunnerResults readback;
  RunnerResults deletes;
  host.Time("audit", [&] {
    if (spec.nemesis) {
      bed->Heal();
      bed->network().ClearLinkFaults();
      for (int i = 0; i < bed->num_data(); ++i) {
        bed->data_machine(i).ClearGrayFailure();
      }
      for (sim::NodeId node : bed->AllNodes()) {
        bed->Restart(node);  // no-op for live nodes
      }
      bed->RunFor(Seconds(5));
    } else {
      bed->RunFor(Seconds(1));
    }
    std::vector<std::string> names;
    names.reserve(ledger.live.size());
    for (const auto& [name, size] : ledger.live) {
      names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    std::vector<Op> reads;
    std::vector<Op> dels;
    for (size_t i = 0; i < names.size(); i += spec.audit_stride) {
      reads.push_back({OpType::kGet, names[i], 0});
      if (reads.size() % 2 == 1) {
        dels.push_back({OpType::kDelete, names[i], 0});
      }
    }
    const uint64_t n_reads = reads.size();
    readback = run_phase(closed(n_reads, audit_concurrency, args.seed + 1),
                         ListOps(std::move(reads)), std::min<uint64_t>(traced_tail, 4000));
    if (ledger.ok[Idx(OpType::kGet)] != n_reads) {
      ledger.Violation("audit: " + std::to_string(n_reads - ledger.ok[Idx(OpType::kGet)]) +
                       " of " + std::to_string(n_reads) + " acked objects unreadable");
    }
    const size_t window_deleted = ledger.deleted.size();
    const uint64_t n_dels = dels.size();
    deletes = run_phase(closed(n_dels, audit_concurrency, args.seed + 2),
                        ListOps(std::move(dels)), std::min<uint64_t>(traced_tail, 2000));
    if (ledger.ok[Idx(OpType::kDelete)] != n_dels) {
      ledger.Violation("audit: " + std::to_string(n_dels - ledger.ok[Idx(OpType::kDelete)]) +
                       " of " + std::to_string(n_dels) + " deletes failed");
    }
    std::vector<Op> gone;
    for (const std::string& name : ledger.deleted) {
      gone.push_back({OpType::kGet, name, 0});
    }
    const uint64_t n_gone = gone.size();
    run_phase(closed(n_gone, audit_concurrency, args.seed + 3), ListOps(std::move(gone)), 0);
    if (ledger.not_found[Idx(OpType::kGet)] != n_gone) {
      ledger.Violation("audit: " + std::to_string(n_gone - ledger.not_found[Idx(OpType::kGet)]) +
                       " of " + std::to_string(n_gone) + " deleted objects (" +
                       std::to_string(window_deleted) + " in the window) still readable");
    }
  });

  // --- check: per-key linearizability of everything recorded ---
  std::vector<chaos::Violation> lin;
  host.Time("check", [&] { lin = chaos::CheckLinearizable(ledger.history); });
  if (!lin.empty()) {
    ledger.Violation("linearizability: " + std::to_string(lin.size()) + " keys\n" +
                     chaos::FormatViolations(lin));
  }

  // --- metrics and dump ---
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, uint64_t> deltas;
  std::string fingerprint;
  host.Time("obs_dump", [&] {
    deltas = FamilyDeltas(before, after);
    auto d = [&](const std::string& family) -> double {
      auto it = deltas.find(family);
      return it == deltas.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto sum_suffix = [&](const std::string& suffix) {
      double total = 0;
      for (const auto& [name, v] : deltas) {
        if (name.rfind("rpc.", 0) == 0 && name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
          total += static_cast<double>(v);
        }
      }
      return total;
    };
    // Latency by op type: the window's samples when the window issues that
    // type, else the audit's (put_storm's gets and deletes, faulted_open's
    // deletes).
    const workload::LatencyRecorder* lat[kOpTypes] = {
        &window.put, window.get.count() > 0 ? &window.get : &readback.get,
        window.del.count() > 0 ? &window.del : &deletes.del};
    bool from_window[kOpTypes] = {true, window.get.count() > 0, window.del.count() > 0};
    for (int t = 0; t < kOpTypes; ++t) {
      const std::string op = kOpNames[t];
      e2e[op + "_p50_ms"] = lat[t]->PercentileMillis(0.50);
      e2e[op + "_p99_ms"] = lat[t]->PercentileMillis(0.99);
      layer["workload." + op + "_samples"] = static_cast<double>(lat[t]->count());
      layer["workload." + op + "_from_window"] = from_window[t] ? 1.0 : 0.0;
    }
    e2e.erase("delete_p50_ms");
    layer["workload.delete_p50_ms"] = lat[2]->PercentileMillis(0.50);
    const double window_s = ToSecondsF(window_end - window_start);
    e2e["vops_per_s"] = Ratio(static_cast<double>(window.all.count() + window_not_found), window_s);
    uint64_t within = 0;
    for (Nanos v : window.all.samples()) {
      within += ToMillisF(v) <= spec.slo_limit_ms ? 1 : 0;
    }
    const uint64_t decided = window.all.count() + failed;
    e2e["slo_met_ratio"] = Ratio(static_cast<double>(within), static_cast<double>(decided));
    e2e["setup_s"] = host.Seconds("boot") + host.Seconds("preload");
    e2e["host_s"] = host.Seconds("run");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    e2e["peak_rss_mib"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

    const double ops = static_cast<double>(attempted);
    const double puts = static_cast<double>(w_attempted[Idx(OpType::kPut)]);
    const double gets = static_cast<double>(w_attempted[Idx(OpType::kGet)]);
    const double events = d("sim.loop.events_fired");
    layer["sim.events_per_op"] = Ratio(events, ops);
    layer["sim.host_ns_per_event"] = Ratio(host.Seconds("run") * 1e9, events);
    const double heap_callbacks = d("sim.loop.callbacks_heap");
    layer["sim.callbacks_heap_ratio"] =
        Ratio(heap_callbacks, heap_callbacks + d("sim.loop.callbacks_inline"));
    layer["sim.overflow_promotions_per_op"] = Ratio(d("sim.loop.overflow_promotions"), ops);
    layer["sim.net.messages_per_op"] = Ratio(d("sim.net.messages_sent"), ops);
    layer["sim.net.bytes_per_op"] = Ratio(d("sim.net.bytes"), ops);
    layer["sim.disk.ops_per_op"] = Ratio(d("sim.disk.ops"), ops);
    layer["sim.disk.bytes_per_op"] = Ratio(d("sim.disk.bytes"), ops);

    const double calls = sum_suffix(".calls");
    layer["rpc.calls_per_op"] = Ratio(calls, ops);
    layer["rpc.timeout_ratio"] = Ratio(sum_suffix(".timeouts"), calls);
    layer["rpc.dedup_fast_path_ratio"] =
        Ratio(d("rpc.dedup_fast_path"), calls + sum_suffix(".notifies"));
    layer["rpc.duplicate_requests_dropped"] = d("rpc.duplicate_requests_dropped");
    layer["rpc.late_replies_dropped"] = d("rpc.late_replies_dropped");
    for (const auto& [k, v] : rpc_p99) {
      layer[k] = v;
    }

    layer["kv.writes_per_put"] = Ratio(d("kv.metax.writes"), puts);
    layer["kv.wal_bytes_per_put"] = Ratio(d("kv.metax.wal_bytes"), puts);
    layer["kv.flushes"] = d("kv.metax.flushes");
    layer["kv.compactions"] = d("kv.metax.compactions");
    layer["kv.gets_per_op"] = Ratio(d("kv.metax.gets"), ops);

    const double proxy_ops = d("proxy.puts") + d("proxy.gets") + d("proxy.deletes");
    layer["proxy.cache_hit_ratio"] = Ratio(d("proxy.cache_hits"), d("proxy.gets"));
    layer["proxy.attempts_per_op"] = Ratio(proxy_ops + d("proxy.retries"), proxy_ops);
    layer["proxy.fast_redirects"] = d("proxy.fast_redirects");
    layer["proxy.read_repairs"] = d("proxy.read_repairs");

    layer["meta.put_allocs_per_put"] = Ratio(d("meta.put_allocs"), puts);
    layer["meta.revoked_ratio"] = Ratio(d("meta.revoked_puts"), d("meta.put_allocs"));
    layer["meta.replications_per_put"] = Ratio(d("meta.replications"), puts);
    layer["meta.pg_pulls_served"] = d("meta.pg_pulls_served");
    layer["meta.recovered_kvs"] = d("meta.recovered_kvs");

    layer["data.writes_per_put"] = Ratio(d("data.writes"), puts);
    layer["data.reads_per_get"] = Ratio(d("data.reads"), gets);
    layer["data.verify_failures"] = d("data.verify_failures");

    layer["cluster.topology_changes"] =
        static_cast<double>(managers_after.topology_changes - managers_before.topology_changes);
    layer["cluster.evictions"] =
        static_cast<double>(managers_after.evictions - managers_before.evictions);
    // The managers' Raft log carries one entry per topology view.
    layer["raft.entries_committed"] =
        static_cast<double>(managers_after.view - managers_before.view);

    for (const char* cls : {"foreground", "replication", "background", "maintenance"}) {
      layer[std::string("qos.shed.") + cls] = d(std::string("qos.shed.") + cls);
    }
    layer["qos.sojourn_p99_ms.foreground"] = sojourn_p99;
    layer["scrub.objects"] = d("scrub.objects");
    layer["scrub.repairs"] = d("scrub.repairs");

    layer["chaos.history_ops"] = static_cast<double>(ledger.history.size());

    double gap_p99 = 0;
    if (spec.window.arrival == workload::ArrivalMode::kOpen) {
      workload::LatencyRecorder gap;
      const auto& all = window.all.samples();
      const auto& service = window.service.samples();
      for (size_t i = 0; i < std::min(all.size(), service.size()); ++i) {
        gap.Record(all[i] - service[i]);
      }
      gap_p99 = gap.PercentileMillis(0.99);
    }
    layer["workload.co_gap_p99_ms"] = gap_p99;
    layer["workload.failed_op_ratio"] = Ratio(static_cast<double>(failed), ops);
    layer["workload.not_found_ops"] = static_cast<double>(window_not_found);

    if (args.trace) {
      const auto self = SelfTimes(obs::Tracer::Global().spans(), window_end, from_window);
      layer.insert(self.begin(), self.end());
    }

    // FNV-1a over every vt latency sample, the window's counter deltas and
    // the serialized history.
    std::string observed;
    for (const auto* r : {&window.put, &window.get, &window.del, &readback.get, &deletes.del}) {
      for (Nanos v : r->samples()) {
        observed += std::to_string(v) + ",";
      }
      observed += "|";
    }
    for (const auto& [name, v] : deltas) {
      observed += name + "=" + std::to_string(v) + ";";
    }
    observed += ledger.history.Serialize();
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(observed)));
    fingerprint = hex;

    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << "{\"workload\": " << JsonString(spec.name) << ", \"seed\": " << args.seed
          << ",\n\"host_spans\": [";
      const double t0 = host.spans().empty() ? 0 : host.spans().front().wall_start;
      for (size_t i = 0; i < host.spans().size(); ++i) {
        const auto& s = host.spans()[i];
        out << (i ? ",\n" : "\n") << "{\"name\": " << JsonString(s.name)
            << ", \"wall_start_s\": " << JsonNumber(s.wall_start - t0)
            << ", \"wall_end_s\": " << JsonNumber(s.wall_end - t0)
            << ", \"cpu_s\": " << JsonNumber(s.cpu_s) << "}";
      }
      // Only spans of client operations; background work (heartbeats,
      // scrubbing, compaction) has no operation and is left out.
      out << "],\n\"vt_window_ns\": [" << window_start << ", " << window_end
          << "],\n\"vt_spans\": [";
      bool first = true;
      for (const obs::Span& s : obs::Tracer::Global().spans()) {
        if (s.op == 0) {
          continue;
        }
        out << (first ? "\n" : ",\n") << "{\"id\": " << s.id << ", \"op\": " << s.op
            << ", \"parent\": " << s.parent << ", \"node\": " << s.node << ", \"kind\": \""
            << obs::SpanKindName(s.kind) << "\", \"name\": " << JsonString(s.name)
            << ", \"start\": " << s.start << ", \"end\": " << s.end
            << ", \"bytes\": " << s.bytes << ", \"ok\": " << (s.ok ? "true" : "false") << "}";
        first = false;
      }
      out << "]}\n";
    }
  });
  layer["host.boot_s"] = host.Seconds("boot");
  layer["host.preload_s"] = host.Seconds("preload");
  layer["host.run_s"] = host.Seconds("run");
  layer["host.audit_s"] = host.Seconds("audit");
  layer["host.check_s"] = host.Seconds("check");
  layer["host.obs_dump_s"] = host.Seconds("obs_dump");

  if (!schedule.empty()) {
    std::fprintf(stderr, "nemesis schedule (seed %llu):\n%s",
                 static_cast<unsigned long long>(args.seed), schedule.c_str());
  }
  for (const std::string& v : ledger.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  std::string violations = "[";
  for (size_t i = 0; i < ledger.violations.size(); ++i) {
    violations += (i ? ", " : "") + JsonString(ledger.violations[i]);
  }
  violations += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"correct\": %s, \"violations\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"fingerprint\": \"%s\", \"e2e\": %s, "
      "\"layer\": %s}\n",
      JsonString(spec.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? "true" : "false", ledger.violations.empty() ? "true" : "false",
      violations.c_str(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), fingerprint.c_str(), JsonObject(e2e).c_str(),
      JsonObject(layer).c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), &end);
      if (!(args->scale > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace cheetah::perf

int main(int argc, char** argv) {
  cheetah::perf::Args args;
  if (!cheetah::perf::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N [--scale F] [--trace 0|1] "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return cheetah::perf::Run(args);
}
