#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace laec::obs {

std::size_t histogram_bucket(u64 v) {
  return static_cast<std::size_t>(std::bit_width(v));
}

u64 histogram_bucket_max(std::size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return ~u64{0};
  return (u64{1} << b) - 1;
}

u64 HistogramData::percentile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; q=0 -> first, q=1 -> last.
  const u64 rank = std::max<u64>(
      1, static_cast<u64>(q * static_cast<double>(count) + 0.5));
  u64 seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= rank) {
      const u64 hi = histogram_bucket_max(b);
      const u64 lo = b == 0 ? 0 : histogram_bucket_max(b - 1) + 1;
      // Linear interpolation by rank position inside the bucket.
      const double frac = buckets[b] <= 1
                              ? 1.0
                              : static_cast<double>(rank - seen - 1) /
                                    static_cast<double>(buckets[b] - 1);
      u64 est = lo + static_cast<u64>(frac * static_cast<double>(hi - lo));
      return std::clamp(est, min, max);
    }
    seen += buckets[b];
  }
  return max;
}

void Histogram::record(u64 v) {
  buckets_[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  u64 cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::data() const {
  HistogramData d;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    d.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  d.count = count_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  d.min = d.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  d.max = max_.load(std::memory_order_relaxed);
  return d;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~u64{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

u64 MetricsSnapshot::value(std::string_view name) const {
  const MetricValue* m = find(name);
  return m == nullptr ? 0 : m->value;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    if (it->second.kind != MetricKind::kCounter) {
      throw std::logic_error("metric registered with a different kind: " +
                             std::string(name));
    }
    return *it->second.counter;
  }
  Counter& c = counters_.emplace_back();
  slots_.emplace(std::string(name),
                 Slot{MetricKind::kCounter, &c, nullptr, nullptr});
  return c;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    if (it->second.kind != MetricKind::kGauge) {
      throw std::logic_error("metric registered with a different kind: " +
                             std::string(name));
    }
    return *it->second.gauge;
  }
  Gauge& g = gauges_.emplace_back();
  slots_.emplace(std::string(name),
                 Slot{MetricKind::kGauge, nullptr, &g, nullptr});
  return g;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    if (it->second.kind != MetricKind::kHistogram) {
      throw std::logic_error("metric registered with a different kind: " +
                             std::string(name));
    }
    return *it->second.histogram;
  }
  Histogram& h = histograms_.emplace_back();
  slots_.emplace(std::string(name),
                 Slot{MetricKind::kHistogram, nullptr, nullptr, &h});
  return h;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.metrics.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {  // std::map: name-ordered
    MetricValue m;
    m.name = name;
    m.kind = slot.kind;
    switch (slot.kind) {
      case MetricKind::kCounter:
        m.value = slot.counter->value();
        break;
      case MetricKind::kGauge:
        m.value = slot.gauge->value();
        break;
      case MetricKind::kHistogram:
        m.hist = slot.histogram->data();
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : counters_) c.reset();
  for (auto& g : gauges_) g.reset();
  for (auto& h : histograms_) h.reset();
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

}  // namespace laec::obs
