#include "src/chaos/sweep.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/core/scrubber.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"

namespace cheetah::chaos {

using core::ClientProxy;
using core::Testbed;

Result<std::vector<uint64_t>> ParseSeedList(std::string_view spec) {
  std::vector<uint64_t> seeds;
  while (!spec.empty()) {
    const size_t comma = std::min(spec.find(','), spec.size());
    std::string_view tok = spec.substr(0, comma);
    spec.remove_prefix(std::min(comma + 1, spec.size()));
    tok.remove_prefix(std::min(tok.find_first_not_of(' '), tok.size()));
    tok.remove_suffix(tok.size() - (tok.find_last_not_of(' ') + 1));
    if (tok.empty()) {
      continue;
    }
    uint64_t seed = 0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), seed);
    if (ec != std::errc{} || end != tok.data() + tok.size()) {
      return Status::InvalidArgument("malformed seed '" + std::string(tok) + "'");
    }
    seeds.push_back(seed);
  }
  return seeds;
}

std::vector<uint64_t> SweepSeeds(const char* default_spec) {
  const char* env = std::getenv("CHEETAH_SWEEP_SEEDS");
  const std::string spec = env != nullptr ? env : default_spec;
  auto seeds = ParseSeedList(spec);
  if (!seeds.ok()) {
    std::fprintf(stderr, "CHEETAH_SWEEP_SEEDS=\"%s\": %s\n", spec.c_str(),
                 seeds.status().message().c_str());
    std::exit(2);
  }
  return seeds->empty() ? std::vector<uint64_t>{1} : *seeds;
}

core::TestbedConfig SweepTestbed() {
  core::TestbedConfig config;
  config.meta_machines = 4;
  config.data_machines = 4;
  config.proxies = 3;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  return config;
}

Outcome PutOutcome(const Status& s) {
  if (s.ok()) {
    return Outcome::kOk;
  }
  const bool refused =
      s.code() == ErrorCode::kAlreadyExists || s.code() == ErrorCode::kResourceExhausted;
  return refused ? Outcome::kNoEffect : Outcome::kAmbiguous;
}

Outcome GetOutcome(const Status& s) {
  return s.ok() ? Outcome::kOk : s.IsNotFound() ? Outcome::kNotFound : Outcome::kNoEffect;
}

Outcome DeleteOutcome(const Status& s) {
  return s.ok() ? Outcome::kOk : s.IsNotFound() ? Outcome::kNotFound : Outcome::kAmbiguous;
}

sim::Task<Status> RecordedPut(ClientProxy& proxy, History& history, int client,
                              std::string key, std::string value) {
  sim::Actor* self = co_await sim::CurrentActor{};
  const uint64_t id = history.Invoke(client, OpType::kPut, key, value, self->Now());
  Status s = co_await proxy.Put(key, value);
  history.Return(id, PutOutcome(s), "", self->Now());
  co_return s;
}

sim::Task<Result<std::string>> RecordedGet(ClientProxy& proxy, History& history,
                                           int client, std::string key) {
  sim::Actor* self = co_await sim::CurrentActor{};
  const uint64_t id = history.Invoke(client, OpType::kGet, key, "", self->Now());
  auto r = co_await proxy.Get(key);
  history.Return(id, GetOutcome(r.status()), r.ok() ? *r : "", self->Now());
  co_return r;
}

sim::Task<Status> RecordedDelete(ClientProxy& proxy, History& history, int client,
                                 std::string key) {
  sim::Actor* self = co_await sim::CurrentActor{};
  const uint64_t id = history.Invoke(client, OpType::kDelete, key, "", self->Now());
  Status s = co_await proxy.Delete(key);
  history.Return(id, DeleteOutcome(s), "", self->Now());
  co_return s;
}

std::string TaggedPayload(int worker, int round, const std::string& key) {
  std::string out =
      "v-w" + std::to_string(worker) + "-" + std::to_string(round) + "|" + key + "|";
  out.resize(1024, 'x');
  return out;
}

std::vector<std::string> WorkloadSpec::AllKeys() const {
  std::vector<std::string> out;
  for (int k = 0; k < keys; ++k) {
    out.push_back(Key(k));
  }
  return out;
}

namespace {

// The standard worker loop; the draw order (key, dice, think time) is part
// of the replay contract.
sim::Task<> StandardWorker(ClientProxy& proxy, int w, History& history, WorkloadSpec spec,
                           uint64_t seed) {
  Rng rng(seed * 1000003 + static_cast<uint64_t>(w));
  const bool read_only = spec.put_pct == 0 && spec.get_pct == 100;
  for (int i = 0; i < spec.rounds; ++i) {
    const std::string key = spec.Key(static_cast<int>(rng.Uniform(spec.keys)));
    const uint64_t dice = read_only ? 0 : rng.Uniform(100);
    if (dice < static_cast<uint64_t>(spec.put_pct)) {
      (void)co_await RecordedPut(proxy, history, w, key, spec.payload(w, i, key));
    } else if (dice < static_cast<uint64_t>(spec.put_pct + spec.get_pct)) {
      (void)co_await RecordedGet(proxy, history, w, key);
    } else {
      (void)co_await RecordedDelete(proxy, history, w, key);
    }
    co_await sim::SleepFor(spec.think_min + rng.Uniform(spec.think_jitter));
  }
}

}  // namespace

std::string SweepReport::Replay(std::string_view binary, std::string_view test) const {
  std::ostringstream os;
  os << "replay: CHEETAH_SWEEP_SEEDS=" << seed << " ./build/tests/" << binary
     << " --gtest_filter='*" << test << "'\ncoverage: " << coverage.events_during_workload
     << " nemesis events fired during the workload, "
     << coverage.events_with_ops_in_flight << " with ops in flight\nschedule:\n"
     << schedule;
  return os.str();
}

void SweepReport::PrintHistoryHash(std::string_view binary, std::string_view test) const {
  std::printf("sweep=%.*s/%.*s seed=%llu history=%016llx\n", static_cast<int>(binary.size()),
              binary.data(), static_cast<int>(test.size()), test.data(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(Fnv1a64(schedule + history.Serialize())));
  std::fflush(stdout);
}

void Sweep::Install(NemesisSchedule schedule) {
  schedule_ = std::move(schedule);
  installed_at_ = bed_.loop().Now();
  schedule_.Install(bed_);
}

bool Sweep::Populate(const WorkloadSpec& spec,
                     const std::function<std::string(int k)>& value) {
  bool all_ok = true;
  for (int k = 0; k < spec.keys; ++k) {
    const std::string key = spec.Key(k);
    const std::string v = value(k);
    const uint64_t id =
        history_->Invoke(kPopulateClient, OpType::kPut, key, v, bed_.loop().Now());
    Status s = bed_.PutObject(0, key, v);
    history_->Return(id, PutOutcome(s), "", bed_.loop().Now());
    all_ok = all_ok && s.ok();
  }
  return all_ok;
}

bool Sweep::RunWorkers(int workers, WorkerBody body) {
  auto done = std::make_shared<int>(0);
  workload_start_ = bed_.loop().Now();
  for (int w = 0; w < workers; ++w) {
    bed_.RunOnProxy(w, [w, body, history = history_, done](ClientProxy& proxy) -> sim::Task<> {
      co_await body(proxy, w, *history);
      ++*done;
    }, Nanos{0});
  }
  const Nanos deadline = bed_.loop().Now() + Seconds(120);
  while (*done < workers && bed_.loop().Now() < deadline && bed_.loop().RunOne()) {
  }
  workload_end_ = bed_.loop().Now();
  workers_done_ = *done == workers;
  return workers_done_;
}

bool Sweep::RunWorkload(const WorkloadSpec& spec) {
  return RunWorkers(spec.workers,
                    [spec, seed = seed_](ClientProxy& proxy, int w, History& history) {
                      return StandardWorker(proxy, w, history, spec, seed);
                    });
}

std::vector<Result<std::string>> Sweep::AuditReads(const std::vector<std::string>& keys) {
  std::vector<Result<std::string>> out;
  for (const std::string& key : keys) {
    const uint64_t id = history_->Invoke(kAuditClient, OpType::kGet, key, "", bed_.loop().Now());
    auto r = bed_.GetObject(0, key);
    history_->Return(id, GetOutcome(r.status()), r.ok() ? *r : "", bed_.loop().Now());
    audit_healthy_ = audit_healthy_ && (r.ok() || r.status().IsNotFound());
    out.push_back(std::move(r));
  }
  return out;
}

SweepReport Sweep::Report() const {
  SweepReport report;
  report.seed = seed_;
  report.schedule = schedule_.ToString();
  report.history = *history_;
  report.workers_done = workers_done_;
  report.audit_healthy = audit_healthy_;
  const Nanos now = bed_.loop().Now();
  for (const NemesisEvent& e : schedule_.events()) {
    const Nanos t = installed_at_ + e.at;
    if (t > now) {
      continue;  // never fired
    }
    if (t >= workload_start_ && t <= workload_end_) {
      ++report.coverage.events_during_workload;
    }
    for (const Op& op : history_->ops()) {
      if (op.invoke <= t && (!op.done || op.ret >= t)) {
        ++report.coverage.events_with_ops_in_flight;
        break;
      }
    }
  }
  return report;
}

void RestoreAndSettle(Testbed& bed, Nanos settle, Restore what) {
  if (what == Restore::kAll) {
    bed.Heal();
    bed.network().ClearLinkFaults();
  }
  for (int i = 0; i < bed.num_data(); ++i) {
    bed.data_machine(i).ClearGrayFailure();
  }
  if (what == Restore::kAll) {
    for (sim::NodeId node : bed.AllNodes()) {
      bed.Restart(node);  // no-op for alive nodes
    }
  }
  bed.RunFor(settle);
}

void ScrubAllOnce(Testbed& bed) {
  auto pending = std::make_shared<int>(bed.num_meta());
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.meta_machine(i).actor().Spawn(
        [](core::MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
          co_await server->ScrubNow();
          --*pending;
        }(&bed.meta(i), pending));
  }
  while (*pending > 0 && bed.loop().RunOne()) {
  }
}

uint64_t ScrubAudit(Testbed& bed) {
  auto corrupt_found = [&bed] {
    uint64_t total = 0;
    for (int i = 0; i < bed.num_meta(); ++i) {
      total += bed.meta(i).scrubber().stats().corrupt_found.value();
    }
    return total;
  };
  const uint64_t before = corrupt_found();
  ScrubAllOnce(bed);
  return corrupt_found() - before;
}

uint64_t CorruptAcked(const History& history) {
  std::set<std::pair<std::string, std::string>> written;
  for (const Op& op : history.ops()) {
    if (op.type == OpType::kPut) {
      written.emplace(op.key, op.value);
    }
  }
  uint64_t corrupt = 0;
  for (const Op& op : history.ops()) {
    if (op.type == OpType::kGet && op.outcome == Outcome::kOk &&
        !written.contains({op.key, op.value})) {
      ++corrupt;
    }
  }
  return corrupt;
}

std::string ReplayMismatch(const std::function<std::string()>& run) {
  const std::string wheel = run();
  const std::string wheel_again = run();
  sim::EventLoop::OverrideDefaultEngine(sim::EventLoop::Engine::kHeap);
  const std::string heap = run();
  sim::EventLoop::OverrideDefaultEngine(std::nullopt);
  if (wheel.empty()) {
    return "empty fingerprint";
  }
  for (const auto& [other, what] : {std::pair{&wheel_again, "second wheel run"},
                                    std::pair{&heap, "heap-engine run"}}) {
    const size_t at = std::mismatch(wheel.begin(), wheel.end(), other->begin(), other->end())
                          .first - wheel.begin();
    if (at != wheel.size() || other->size() != wheel.size()) {
      return std::string(what) + " differs at byte " + std::to_string(at) + ":\n  wheel: " +
             wheel.substr(at, 120) + "\n  other: " + other->substr(at, 120);
    }
  }
  return "";
}

}  // namespace cheetah::chaos
