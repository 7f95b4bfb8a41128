#ifndef MODB_OBS_METRICS_H_
#define MODB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace modb {
namespace obs {

// A low-overhead process-wide observability layer. The theorems this repo
// reproduces are *cost* claims — Theorem 4/5 charge per support change m,
// Lemma 9 bounds the event queue — so the hot paths count exactly those
// quantities into named metrics and the exporters (Stats() snapshots, the
// CLI's db-stats, bench --json) read them out.
//
// Design: registration is mutex-protected and happens once per metric
// name (call sites cache the returned pointer); the mutation fast path is
// a single relaxed atomic op — no locks, no allocation, safe from any
// thread. Concurrent FIRST-touch is safe too: pool threads racing into
// Register* serialize on the registry mutex, the winner's heap-owned
// metric object is returned to every loser (idempotent by name), and
// registered objects are never moved or freed, so a pointer cached on one
// thread stays valid on all of them. The lock-free mutation paths make
// progress without winning races: counters/gauges are fetch_add/store,
// the gauge watermark is a bounded CAS (exits as soon as the current
// value is large enough), and histogram sums use C++20 floating
// fetch_add. tests/obs_test.cc's MetricsRegistryConcurrentFirstTouch
// hammers exactly this under TSan. Reads are snapshot-on-read: Snapshot() copies every value out
// under the registry mutex, so a reader never observes a metric mid-
// registration and the returned snapshot is immutable (a mutation after
// Snapshot() never changes an already-taken snapshot).
//
// All metric names live in one place — modb_metrics.h — and are documented
// in docs/METRICS.md; a unit test diffs the two so they cannot drift.

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A value that can go up and down (sizes, live counts) or act as a
// high-watermark via SetMax (peaks).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  // Lock-free watermark: raises the gauge to `value` if larger.
  void SetMax(int64_t value) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram. Bucket i counts observations with
// value <= bounds[i] (and > bounds[i-1]); one implicit overflow bucket
// catches everything above the last bound. Bounds are fixed at
// registration, so Observe is a short scan plus two relaxed atomic adds.
class Histogram {
 public:
  // `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  // Count in bucket i (i == bounds().size() is the overflow bucket).
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Common bucket layouts. Exponential: start, start*factor, ... (count
// bounds total).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);
// Latencies in seconds, 1 µs .. ~1000 s.
std::vector<double> LatencyBuckets();
// Sizes/counts, 1 .. ~1M in powers of 4.
std::vector<double> SizeBuckets();

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeToString(MetricType type);

// One metric's immutable copy, taken by MetricsRegistry::Snapshot().
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string unit;
  std::string help;
  uint64_t counter = 0;  // kCounter.
  int64_t gauge = 0;     // kGauge.
  // kHistogram.
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;  // bounds.size() + 1 entries.
  uint64_t count = 0;
  double sum = 0.0;
};

// The process-wide registry. Register* is idempotent: the same name
// returns the same object (the type, unit and bounds must agree — a
// mismatch aborts, it is a programming error). Callers cache the pointer;
// registered metrics are never deallocated.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* RegisterCounter(const std::string& name, const std::string& unit,
                           const std::string& help);
  Gauge* RegisterGauge(const std::string& name, const std::string& unit,
                       const std::string& help);
  Histogram* RegisterHistogram(const std::string& name,
                               const std::string& unit,
                               const std::string& help,
                               std::vector<double> bounds);

  // Immutable copies of every registered metric, in name order. Runs
  // every refresh hook first, so derived gauges (exact tree depth, live
  // queue length, flight-recorder fill) are current in every render —
  // the one shared refresh point for db-stats, --stats and bench --json.
  std::vector<MetricSnapshot> Snapshot() const;
  // Registered names, in name order.
  std::vector<std::string> Names() const;

  // Derived-gauge refresh: `hook` is invoked (outside the registry
  // mutex) at the start of every Snapshot()/ToText()/ToJson(). Hooks
  // must only touch metric objects (atomic ops) — never re-enter the
  // registry. Returns an id for RemoveRefreshHook; owners whose gauges
  // outlive them (a SweepState tearing down) refresh once on removal.
  uint64_t AddRefreshHook(std::function<void()> hook);
  void RemoveRefreshHook(uint64_t id);

  // Zeroes every value, keeping registrations (benches isolate runs with
  // this; tests too). Concurrent mutators may race individual zeroes —
  // callers quiesce writers first.
  void Reset();

  // Human-readable dump: one "name type value [unit] # help" block per
  // metric, histograms with per-bucket lines.
  std::string ToText() const;
  // JSON object keyed by metric name; see bench_util.h for the embedding
  // schema. `indent` prefixes every line (for embedding in a larger doc).
  std::string ToJson(const std::string& indent = "") const;

 private:
  struct Entry {
    MetricType type;
    std::string unit;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  void RunRefreshHooks() const;

  mutable std::mutex mutex_;
  // Ordered so every exposition is deterministic.
  std::vector<std::pair<std::string, Entry>> entries_;

  // Guarded separately from mutex_ so hooks (which run before the
  // snapshot copy) can never deadlock against registration.
  mutable std::mutex hooks_mutex_;
  uint64_t next_hook_id_ = 1;
  std::vector<std::pair<uint64_t, std::function<void()>>> refresh_hooks_;

  Entry* Find(const std::string& name);
};

// Prometheus-style interpolated quantile estimate from histogram buckets:
// finds the bucket holding rank q*count and interpolates linearly inside
// it (the first bucket's lower edge is 0 when bounds[0] > 0, else
// bounds[0]; ranks landing in the overflow bucket clamp to the last
// bound). `buckets` has bounds.size() + 1 entries, `count` their total.
// Returns 0 when count is 0. `q` in [0, 1].
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, uint64_t count,
                         double q);

// Renders one snapshot list (the registry's ToText/ToJson use these; the
// CLI renders filtered snapshots with them too).
std::string RenderText(const std::vector<MetricSnapshot>& snapshot);
std::string RenderJson(const std::vector<MetricSnapshot>& snapshot,
                       const std::string& indent = "");

}  // namespace obs
}  // namespace modb

#endif  // MODB_OBS_METRICS_H_
