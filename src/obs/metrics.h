#ifndef CDBS_OBS_METRICS_H_
#define CDBS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stopwatch.h"

/// \file
/// The unified observability layer: named counters, gauges and log-bucketed
/// histograms behind a thread-safe `MetricRegistry`, plus a `ScopedTimer`
/// that records elapsed nanoseconds into a histogram.
///
/// Conventions (see docs/OBSERVABILITY.md):
///   * metric names are dot-separated lowercase paths, `layer.thing.unit`,
///     e.g. `storage.page_reads`, `engine.insert.ns`;
///   * durations are recorded in nanoseconds into histograms named `*.ns`;
///   * sizes are recorded in bits or bytes with the unit in the name.
///
/// Hot-path cost: one relaxed atomic RMW per counter increment or histogram
/// sample; registration (`GetCounter` etc.) takes a mutex and should be done
/// once and cached, e.g. in a constructor or a function-local static.
///
/// Thread safety: every read/write of metric state goes through std::atomic
/// (counters, gauges, histogram buckets and extremes), so increments and
/// exports may race freely without UB. A `Snapshot()` taken concurrently
/// with updates is a per-field-consistent view: each field is a valid
/// observed value, but `count`/`sum`/quantiles may straddle an in-flight
/// `Record` (off-by-one skew, never corruption).
///
/// There is one process-wide `MetricRegistry::Default()` that the library's
/// built-in instrumentation reports to. Components that need isolated
/// counts (`engine::XmlDb`, `shard::ShardedDb`, the Figure 7
/// `storage::LabelStore`) own a child registry of it: each metric lives
/// once, in the instance's registry, and `Default().Snapshot()` merges the
/// children in by name.

namespace cdbs::obs {

/// A monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  /// Zeroes the counter (component re-open, tests).
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A value that can go up and down (sizes, occupancy, ratios).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<double> v_{0};
};

/// A log2-bucketed histogram of non-negative integer samples (durations in
/// nanoseconds, sizes in bits/bytes, counts). Bucket `b > 0` covers
/// [2^(b-1), 2^b - 1]; bucket 0 holds exact zeros. Quantiles are estimated
/// by linear interpolation inside the bucket that crosses the rank, clamped
/// to the observed min/max — exact for the extremes, within one power of
/// two elsewhere.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Samples gathered by one thread without atomics, added to a Histogram
  /// by one Merge: seeding a histogram with many values at once costs one
  /// set of atomic updates instead of one per value.
  struct Batch {
    void Record(uint64_t value);

    /// Estimated value at quantile `q` in [0, 1]; 0 when empty.
    uint64_t Quantile(double q) const;

    uint64_t buckets[kNumBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX;
    uint64_t max = 0;
  };

  void Record(uint64_t value);

  /// Adds every sample of `batch`; the result equals recording them one by
  /// one.
  void Merge(const Batch& batch);

  /// Adds this histogram's samples to `batch` (the inverse of Merge).
  void AddTo(Batch* batch) const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  ///< 0 when empty
  uint64_t max() const;  ///< 0 when empty
  double mean() const;

  /// Estimated value at quantile `q` in [0, 1]; 0 when empty.
  uint64_t Quantile(double q) const;

  /// Bucket count at index `b` (see class comment for ranges).
  uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Inclusive upper bound of bucket `b`.
  static uint64_t BucketUpperBound(int b);

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// A point-in-time copy of one metric, consumed by the exporters.
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string help;

  uint64_t counter_value = 0;  // kCounter
  double gauge_value = 0;      // kGauge

  // kHistogram
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  /// Non-empty buckets as (inclusive upper bound, count), ascending.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

/// A named collection of metrics. Registration is idempotent: the first
/// call with a name creates the metric, later calls return the same object
/// (the type must match — a mismatch is a programming error and aborts).
/// Returned pointers stay valid for the registry's lifetime.
///
/// A registry may be the child of a parent registry. The parent's
/// `Snapshot()` merges its own metrics by name with every attached child's:
/// counters and histograms are summed, and gauges are summed over the live
/// children. A child folds its counters and histograms into the parent when
/// it is destroyed and before it resets, so the parent's totals never go
/// backwards and outlive the child; its gauges leave with it.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  /// A child of `parent`, which must outlive it.
  explicit MetricRegistry(MetricRegistry* parent);
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::string_view help = "");

  /// Copies of all registered metrics, merged with the attached children's
  /// (see the class comment), sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes this registry's own metrics (keeps registrations; children are
  /// left alone). A child first folds its counters and histograms into its
  /// parent.
  void ResetAll();

  /// The process-wide registry the built-in instrumentation reports to.
  static MetricRegistry& Default();

 private:
  struct Entry {
    MetricType type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Merged;
  using MergedMap = std::map<std::string, Merged, std::less<>>;

  Entry* GetOrCreate(std::string_view name, std::string_view help,
                     MetricType type);
  // The callers below hold mu_ (and, for FoldIntoParentLocked, the
  // parent's mu_, which is always taken before a child's).
  Entry* GetOrCreateLocked(std::string_view name, std::string_view help,
                           MetricType type);
  void MergeLocked(MergedMap* out) const;
  void FoldIntoParentLocked();

  MetricRegistry* const parent_ = nullptr;
  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
  std::vector<MetricRegistry*> children_;  // guarded by mu_
};

/// Records elapsed wall-clock nanoseconds into a histogram when it goes out
/// of scope (or at an explicit `StopAndRecord`). A null histogram disables
/// the timer, so call sites need no branches.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {}
  ~ScopedTimer() { StopAndRecord(); }

  ScopedTimer(ScopedTimer&& other) noexcept
      : hist_(other.hist_), watch_(other.watch_) {
    other.hist_ = nullptr;
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ScopedTimer& operator=(ScopedTimer&&) = delete;

  /// Records now and disarms; returns the elapsed nanoseconds.
  uint64_t StopAndRecord() {
    const int64_t ns = watch_.ElapsedNanos();
    if (hist_ != nullptr) {
      hist_->Record(ns > 0 ? static_cast<uint64_t>(ns) : 0);
      hist_ = nullptr;
    }
    return ns > 0 ? static_cast<uint64_t>(ns) : 0;
  }

 private:
  Histogram* hist_;
  util::Stopwatch watch_;
};

}  // namespace cdbs::obs

#endif  // CDBS_OBS_METRICS_H_
