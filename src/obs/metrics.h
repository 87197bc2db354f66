// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms, all in virtual time.
//
// Single-threaded like the simulator, so increments are plain integer adds.
// Handles returned by the registry are stable for the process lifetime
// (values can be zeroed, the objects are never deallocated), so components
// look their metrics up once at construction and keep references or
// pointers.
//
// Per-instance metrics (a server's op counters, a DB's write counts) go
// through a Scope, which appends a fresh instance id to the prefix — a
// rebuilt testbed or reopened DB starts its counters at zero instead of
// accumulating into a previous instance's.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <typeinfo>

namespace cheetah::obs {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t d) { value_ += d; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// Power-of-two-bucket histogram: Record is O(1); p50/p99 are read from the 64
// fixed buckets with linear interpolation inside the hit bucket, clamped to
// the exact observed min/max.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  // Approximate value at quantile p in [0, 1].
  uint64_t Percentile(double p) const;
  double PercentileMillis(double p) const {
    return static_cast<double>(Percentile(p)) / 1e6;
  }

  void Reset();

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

class Registry {
 public:
  static Registry& Global();

  // Find-or-create; the returned pointer stays valid for the process
  // lifetime. Same name -> same object.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  uint64_t NextInstanceId() { return ++instance_seq_; }

  // Zeroes every value without invalidating handles.
  void ZeroAll();

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, mean,
  // p50, p99, max}}} — names sorted, suitable for machine consumption.
  std::string ToJson() const;

 private:
  Registry() = default;

  uint64_t instance_seq_ = 0;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Per-instance namespace within the global registry: metrics are named
// "<prefix>#<instance>.<field>". Not copyable, so neither is a component's
// counter struct that holds one: a before/after comparison has to copy the
// counter's value() out instead of aliasing the live counters.
class Scope {
 public:
  explicit Scope(const std::string& prefix)
      : prefix_(prefix + "#" + std::to_string(Registry::Global().NextInstanceId())) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Counter* counter(const std::string& field) const {
    return Registry::Global().counter(prefix_ + "." + field);
  }
  Gauge* gauge(const std::string& field) const {
    return Registry::Global().gauge(prefix_ + "." + field);
  }
  Histogram* histogram(const std::string& field) const {
    return Registry::Global().histogram(prefix_ + "." + field);
  }
  const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;
};

// "cheetah::core::PutAllocRequest" -> "PutAllocRequest". Used for
// per-request-type metric and span names.
std::string ShortTypeName(const std::type_info& type);

}  // namespace cheetah::obs

#endif  // SRC_OBS_METRICS_H_
