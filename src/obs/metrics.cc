#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/check.h"

namespace modb {
namespace obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  MODB_CHECK(!bounds_.empty());
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    MODB_CHECK(bounds_[i] < bounds_[i + 1])
        << "histogram bounds must be strictly ascending";
  }
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // C++20 floating fetch_add: per-thread progress does not depend on
  // winning a CAS race. The historical compare_exchange_weak loop here
  // could starve an observer arbitrarily long once the shard pool put a
  // dozen threads on the same histogram.
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  MODB_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LatencyBuckets() {
  // 1 µs .. ~1074 s in powers of 4: 16 buckets cover every path here from
  // a single counter bump to a full recovery replay.
  return ExponentialBuckets(1e-6, 4.0, 16);
}

std::vector<double> SizeBuckets() {
  // 1 .. 4^10 (~1M).
  return ExponentialBuckets(1.0, 4.0, 11);
}

const char* MetricTypeToString(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name) {
  for (auto& [entry_name, entry] : entries_) {
    if (entry_name == name) return &entry;
  }
  return nullptr;
}

Counter* MetricsRegistry::RegisterCounter(const std::string& name,
                                          const std::string& unit,
                                          const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = Find(name); existing != nullptr) {
    MODB_CHECK(existing->type == MetricType::kCounter)
        << name << " already registered with a different type";
    return existing->counter.get();
  }
  Entry entry{MetricType::kCounter, unit, help, std::make_unique<Counter>(),
              nullptr, nullptr};
  Counter* counter = entry.counter.get();
  entries_.emplace_back(name, std::move(entry));
  return counter;
}

Gauge* MetricsRegistry::RegisterGauge(const std::string& name,
                                      const std::string& unit,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = Find(name); existing != nullptr) {
    MODB_CHECK(existing->type == MetricType::kGauge)
        << name << " already registered with a different type";
    return existing->gauge.get();
  }
  Entry entry{MetricType::kGauge, unit, help, nullptr,
              std::make_unique<Gauge>(), nullptr};
  Gauge* gauge = entry.gauge.get();
  entries_.emplace_back(name, std::move(entry));
  return gauge;
}

Histogram* MetricsRegistry::RegisterHistogram(const std::string& name,
                                              const std::string& unit,
                                              const std::string& help,
                                              std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = Find(name); existing != nullptr) {
    MODB_CHECK(existing->type == MetricType::kHistogram)
        << name << " already registered with a different type";
    MODB_CHECK(existing->histogram->bounds() == bounds)
        << name << " already registered with different bounds";
    return existing->histogram.get();
  }
  Entry entry{MetricType::kHistogram, unit, help, nullptr, nullptr,
              std::make_unique<Histogram>(std::move(bounds))};
  Histogram* histogram = entry.histogram.get();
  entries_.emplace_back(name, std::move(entry));
  return histogram;
}

uint64_t MetricsRegistry::AddRefreshHook(std::function<void()> hook) {
  MODB_CHECK(hook != nullptr);
  std::lock_guard<std::mutex> lock(hooks_mutex_);
  const uint64_t id = next_hook_id_++;
  refresh_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void MetricsRegistry::RemoveRefreshHook(uint64_t id) {
  std::lock_guard<std::mutex> lock(hooks_mutex_);
  for (auto it = refresh_hooks_.begin(); it != refresh_hooks_.end(); ++it) {
    if (it->first == id) {
      refresh_hooks_.erase(it);
      return;
    }
  }
}

void MetricsRegistry::RunRefreshHooks() const {
  // Copy under the hooks mutex, run outside it: a hook only performs
  // atomic metric ops, but the owner may be mid-RemoveRefreshHook on
  // another thread and must not wait on a running hook under our lock.
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(hooks_mutex_);
    hooks.reserve(refresh_hooks_.size());
    for (const auto& [id, hook] : refresh_hooks_) hooks.push_back(hook);
  }
  for (const auto& hook : hooks) hook();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  RunRefreshHooks();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> snapshot;
  snapshot.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot metric;
    metric.name = name;
    metric.type = entry.type;
    metric.unit = entry.unit;
    metric.help = entry.help;
    switch (entry.type) {
      case MetricType::kCounter:
        metric.counter = entry.counter->Value();
        break;
      case MetricType::kGauge:
        metric.gauge = entry.gauge->Value();
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry.histogram;
        metric.bounds = h.bounds();
        metric.bucket_counts.reserve(h.bounds().size() + 1);
        for (size_t i = 0; i <= h.bounds().size(); ++i) {
          metric.bucket_counts.push_back(h.BucketCount(i));
        }
        metric.count = h.Count();
        metric.sum = h.Sum();
        break;
      }
    }
    snapshot.push_back(std::move(metric));
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snapshot;
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    switch (entry.type) {
      case MetricType::kCounter:
        entry.counter->Reset();
        break;
      case MetricType::kGauge:
        entry.gauge->Reset();
        break;
      case MetricType::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

namespace {

// %.17g so doubles round-trip exactly (same policy as bench_util.h).
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string EscapedJson(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, uint64_t count,
                         double q) {
  if (count == 0 || bounds.empty() || buckets.size() != bounds.size() + 1) {
    return 0.0;
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // The observation of rank r (1-based) is the quantile; rank q*count,
  // rounded up so q = 1 names the last observation.
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (cumulative + in_bucket < target || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    if (i == bounds.size()) break;  // Overflow bucket: clamp below.
    const double upper = bounds[i];
    const double lower = i == 0 ? (bounds[0] > 0.0 ? 0.0 : bounds[0])
                                : bounds[i - 1];
    const double fraction = (target - cumulative) / in_bucket;
    return lower + (upper - lower) * fraction;
  }
  // Rank falls in the overflow bucket (or floating slop): the histogram
  // cannot see past its last bound.
  return bounds.back();
}

std::string RenderText(const std::vector<MetricSnapshot>& snapshot) {
  std::ostringstream out;
  for (const MetricSnapshot& metric : snapshot) {
    out << metric.name << " (" << MetricTypeToString(metric.type);
    if (!metric.unit.empty()) out << ", " << metric.unit;
    out << "): ";
    switch (metric.type) {
      case MetricType::kCounter:
        out << metric.counter;
        break;
      case MetricType::kGauge:
        out << metric.gauge;
        break;
      case MetricType::kHistogram:
        out << "count " << metric.count << ", sum "
            << FormatDouble(metric.sum);
        for (size_t i = 0; i < metric.bucket_counts.size(); ++i) {
          if (metric.bucket_counts[i] == 0) continue;
          out << "\n    le ";
          if (i < metric.bounds.size()) {
            out << FormatDouble(metric.bounds[i]);
          } else {
            out << "+inf";
          }
          out << ": " << metric.bucket_counts[i];
        }
        if (metric.count > 0) {
          out << "\n    p50 "
              << FormatDouble(HistogramQuantile(
                     metric.bounds, metric.bucket_counts, metric.count, 0.50))
              << ", p95 "
              << FormatDouble(HistogramQuantile(
                     metric.bounds, metric.bucket_counts, metric.count, 0.95))
              << ", p99 "
              << FormatDouble(HistogramQuantile(
                     metric.bounds, metric.bucket_counts, metric.count, 0.99));
        }
        break;
    }
    out << "\n";
  }
  return out.str();
}

std::string RenderJson(const std::vector<MetricSnapshot>& snapshot,
                       const std::string& indent) {
  std::ostringstream out;
  out << "{";
  for (size_t m = 0; m < snapshot.size(); ++m) {
    const MetricSnapshot& metric = snapshot[m];
    out << (m == 0 ? "\n" : ",\n") << indent << "  \""
        << EscapedJson(metric.name) << "\": {\"type\": \""
        << MetricTypeToString(metric.type) << "\", \"unit\": \""
        << EscapedJson(metric.unit) << "\", ";
    switch (metric.type) {
      case MetricType::kCounter:
        out << "\"value\": " << metric.counter;
        break;
      case MetricType::kGauge:
        out << "\"value\": " << metric.gauge;
        break;
      case MetricType::kHistogram: {
        out << "\"count\": " << metric.count << ", \"sum\": "
            << FormatDouble(metric.sum) << ", \"bounds\": [";
        for (size_t i = 0; i < metric.bounds.size(); ++i) {
          out << (i == 0 ? "" : ", ") << FormatDouble(metric.bounds[i]);
        }
        out << "], \"buckets\": [";
        for (size_t i = 0; i < metric.bucket_counts.size(); ++i) {
          out << (i == 0 ? "" : ", ") << metric.bucket_counts[i];
        }
        out << "], \"p50\": "
            << FormatDouble(HistogramQuantile(
                   metric.bounds, metric.bucket_counts, metric.count, 0.50))
            << ", \"p95\": "
            << FormatDouble(HistogramQuantile(
                   metric.bounds, metric.bucket_counts, metric.count, 0.95))
            << ", \"p99\": "
            << FormatDouble(HistogramQuantile(
                   metric.bounds, metric.bucket_counts, metric.count, 0.99));
        break;
      }
    }
    out << "}";
  }
  out << "\n" << indent << "}";
  return out.str();
}

std::string MetricsRegistry::ToText() const { return RenderText(Snapshot()); }

std::string MetricsRegistry::ToJson(const std::string& indent) const {
  return RenderJson(Snapshot(), indent);
}

}  // namespace obs
}  // namespace modb
