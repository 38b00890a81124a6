// Observability metrics: a lock-cheap registry of named Counters, Gauges,
// and log2-bucketed Histograms, with a deterministic snapshot.
//
// Design contract (mirrors the StatSet fold discipline in common/stats.hpp):
//
//  * Updates are relaxed atomics — a counter bump on the trial hot path is
//    one `fetch_add(relaxed)`, never a lock. Registration (first lookup of
//    a name) takes a mutex, so callers cache the returned reference.
//  * References returned by counter()/gauge()/histogram() are stable for
//    the registry's lifetime (metrics live in node-stable storage).
//  * snapshot() produces a plain-data MetricsSnapshot ordered by metric
//    name.
//  * Metrics NEVER feed back into simulation: no RNG, no row content, no
//    control flow depends on a metric value. Rows are byte-identical with
//    metrics hot or cold by construction.
//
// Histogram buckets: bucket b holds values v with bit_width(v) == b, i.e.
// bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3}, bucket 3 = {4..7}, ...
// up to bucket 64 = {2^63 .. 2^64-1}. Percentile extraction walks the
// cumulative counts and interpolates linearly inside the winning bucket —
// an estimate with bounded relative error (one octave), deterministic
// given the bucket counts.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace laec::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(u64 n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] u64 value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

/// Instantaneous level. set() overwrites; add()/sub() adjust (the
/// snapshot-store memory gauge is maintained by many stores adjusting a
/// shared total).
class Gauge {
 public:
  void set(u64 v) { v_.store(v, std::memory_order_relaxed); }
  void add(u64 n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(u64 n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  [[nodiscard]] u64 value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

/// Number of log2 buckets: bit_width of a u64 is in [0, 64].
inline constexpr std::size_t kHistogramBuckets = 65;

/// Bucket index for a recorded value: std::bit_width(v).
[[nodiscard]] std::size_t histogram_bucket(u64 v);

/// Inclusive upper bound of bucket b (the largest value it can hold).
[[nodiscard]] u64 histogram_bucket_max(std::size_t b);

/// Plain-data histogram aggregate: what a snapshot carries and what
/// percentile extraction operates on.
struct HistogramData {
  u64 buckets[kHistogramBuckets] = {};
  u64 count = 0;
  u64 sum = 0;
  u64 min = 0;  ///< meaningful only when count > 0
  u64 max = 0;  ///< meaningful only when count > 0

  /// Estimated value at quantile q in [0, 1]. Returns 0 for an empty
  /// histogram. Exact when the winning bucket spans a single value
  /// (buckets 0 and 1); otherwise linearly interpolated within the
  /// bucket and clamped to [min, max].
  [[nodiscard]] u64 percentile(double q) const;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Concurrent histogram: relaxed-atomic bucket counters plus CAS-maintained
/// min/max. record() is wait-free except for the (rare) min/max update loop.
class Histogram {
 public:
  void record(u64 v);
  [[nodiscard]] HistogramData data() const;
  [[nodiscard]] u64 count() const {
    return count_.load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<u64> buckets_[kHistogramBuckets] = {};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> min_{~u64{0}};
  std::atomic<u64> max_{0};
};

enum class MetricKind : u8 { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// One metric in a snapshot. For counters/gauges `value` carries the
/// reading; for histograms `hist` does.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  u64 value = 0;
  HistogramData hist;
};

/// Ordered (by name), plain-data view of a registry at one instant.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /// Pointer into metrics for `name`, or nullptr.
  [[nodiscard]] const MetricValue* find(std::string_view name) const;

  /// Convenience: counter/gauge value by name (0 when absent).
  [[nodiscard]] u64 value(std::string_view name) const;
};

/// Named-metric registry. Lookup-or-create takes a mutex; the returned
/// references are stable (deque storage) and all subsequent updates are
/// lock-free. One process-wide instance lives behind global().
class Registry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Name-ordered plain-data view; safe to call while writers are hot
  /// (each reading is atomic per-field, not cross-metric consistent).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every registered metric (tests and bench passes isolate runs
  /// with this; names stay registered so cached references stay valid).
  void reset();

  [[nodiscard]] static Registry& global();

 private:
  struct Slot {
    MetricKind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable std::mutex mu_;
  std::map<std::string, Slot, std::less<>> slots_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace laec::obs
