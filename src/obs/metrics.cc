#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace cdbs::obs {

namespace {

// Index of the bucket holding `value`: 0 for zero, else 1 + floor(log2 v),
// clamped to the last bucket (which therefore covers everything >= 2^62).
int BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  const int idx = std::bit_width(value);  // floor(log2 v) + 1
  return idx < Histogram::kNumBuckets ? idx : Histogram::kNumBuckets - 1;
}

void AtomicMin(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (value < cur &&
         !slot->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (value > cur &&
         !slot->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

void Histogram::Batch::Record(uint64_t value) {
  ++buckets[BucketIndex(value)];
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
}

void Histogram::Merge(const Batch& batch) {
  if (batch.count == 0) return;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (batch.buckets[b] != 0) {
      buckets_[b].fetch_add(batch.buckets[b], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(batch.count, std::memory_order_relaxed);
  sum_.fetch_add(batch.sum, std::memory_order_relaxed);
  AtomicMin(&min_, batch.min);
  AtomicMax(&max_, batch.max);
}

uint64_t Histogram::min() const {
  const uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

uint64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::BucketUpperBound(int b) {
  CDBS_CHECK(b >= 0 && b < kNumBuckets);
  if (b == 0) return 0;
  if (b == kNumBuckets - 1) return UINT64_MAX;
  return (uint64_t{1} << b) - 1;
}

void Histogram::AddTo(Batch* batch) const {
  for (int b = 0; b < kNumBuckets; ++b) batch->buckets[b] += bucket(b);
  const uint64_t n = count();
  if (n == 0) return;  // an empty histogram has no extremes to merge
  batch->count += n;
  batch->sum += sum();
  batch->min = std::min(batch->min, min());
  batch->max = std::max(batch->max, max());
}

uint64_t Histogram::Quantile(double q) const {
  Batch batch;
  AddTo(&batch);
  return batch.Quantile(q);
}

uint64_t Histogram::Batch::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the sample we want, 1-based: ceil(q * n), at least 1.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count) + 0.5));
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    // The rank falls inside bucket b: interpolate across its value range,
    // clamped to the global observed extremes.
    uint64_t lo = b == 0 ? 0 : (uint64_t{1} << (b - 1));
    uint64_t hi = BucketUpperBound(b);
    lo = std::max(lo, min);
    hi = std::min(hi, max);
    if (hi <= lo) return lo;
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
    return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
  }
  return max;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// One name's merged state across a registry and its children.
struct MetricRegistry::Merged {
  MetricType type = MetricType::kCounter;
  std::string help;
  uint64_t counter = 0;
  double gauge = 0;
  Histogram::Batch histogram;
};

MetricRegistry::MetricRegistry(MetricRegistry* parent) : parent_(parent) {
  std::lock_guard<std::mutex> lock(parent_->mu_);
  parent_->children_.push_back(this);
}

MetricRegistry::~MetricRegistry() {
  if (parent_ == nullptr) return;
  std::lock_guard<std::mutex> parent_lock(parent_->mu_);
  std::lock_guard<std::mutex> lock(mu_);
  CDBS_CHECK(children_.empty());  // a child outlives none of its own
  FoldIntoParentLocked();
  std::erase(parent_->children_, this);
}

MetricRegistry::Entry* MetricRegistry::GetOrCreate(std::string_view name,
                                                   std::string_view help,
                                                   MetricType type) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreateLocked(name, help, type);
}

MetricRegistry::Entry* MetricRegistry::GetOrCreateLocked(
    std::string_view name, std::string_view help, MetricType type) {
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    CDBS_CHECK(it->second.type == type);  // one name, one type
    if (it->second.help.empty() && !help.empty()) {
      it->second.help = std::string(help);
    }
    return &it->second;
  }
  Entry entry;
  entry.type = type;
  entry.help = std::string(help);
  switch (type) {
    case MetricType::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  return &metrics_.emplace(std::string(name), std::move(entry)).first->second;
}

Counter* MetricRegistry::GetCounter(std::string_view name,
                                    std::string_view help) {
  return GetOrCreate(name, help, MetricType::kCounter)->counter.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name, std::string_view help) {
  return GetOrCreate(name, help, MetricType::kGauge)->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        std::string_view help) {
  return GetOrCreate(name, help, MetricType::kHistogram)->histogram.get();
}

void MetricRegistry::MergeLocked(MergedMap* out) const {
  for (const auto& [name, entry] : metrics_) {
    auto [it, fresh] = out->try_emplace(name);
    Merged& merged = it->second;
    if (fresh) merged.type = entry.type;
    CDBS_CHECK(merged.type == entry.type);  // one name, one type
    if (merged.help.empty()) merged.help = entry.help;
    switch (entry.type) {
      case MetricType::kCounter:
        merged.counter += entry.counter->value();
        break;
      case MetricType::kGauge:
        merged.gauge += entry.gauge->value();
        break;
      case MetricType::kHistogram:
        entry.histogram->AddTo(&merged.histogram);
        break;
    }
  }
  for (const MetricRegistry* child : children_) {
    std::lock_guard<std::mutex> lock(child->mu_);
    child->MergeLocked(out);
  }
}

void MetricRegistry::FoldIntoParentLocked() {
  for (const auto& [name, entry] : metrics_) {
    // A gauge is a live reading: only its name stays behind.
    Entry* into = parent_->GetOrCreateLocked(name, entry.help, entry.type);
    if (entry.type == MetricType::kCounter) {
      into->counter->Increment(entry.counter->value());
    } else if (entry.type == MetricType::kHistogram) {
      Histogram::Batch samples;
      entry.histogram->AddTo(&samples);
      into->histogram->Merge(samples);
    }
  }
}

std::vector<MetricSnapshot> MetricRegistry::Snapshot() const {
  MergedMap merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MergeLocked(&merged);
  }
  std::vector<MetricSnapshot> out;
  out.reserve(merged.size());
  for (auto& [name, m] : merged) {
    MetricSnapshot snap;
    snap.name = name;
    snap.type = m.type;
    snap.help = std::move(m.help);
    switch (m.type) {
      case MetricType::kCounter:
        snap.counter_value = m.counter;
        break;
      case MetricType::kGauge:
        snap.gauge_value = m.gauge;
        break;
      case MetricType::kHistogram: {
        const Histogram::Batch& h = m.histogram;
        snap.count = h.count;
        snap.sum = h.sum;
        snap.min = h.count == 0 ? 0 : h.min;
        snap.max = h.max;
        snap.mean = h.count == 0 ? 0.0
                                 : static_cast<double>(h.sum) /
                                       static_cast<double>(h.count);
        snap.p50 = h.Quantile(0.50);
        snap.p90 = h.Quantile(0.90);
        snap.p95 = h.Quantile(0.95);
        snap.p99 = h.Quantile(0.99);
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          if (h.buckets[b] > 0) {
            snap.buckets.emplace_back(Histogram::BucketUpperBound(b),
                                      h.buckets[b]);
          }
        }
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void MetricRegistry::ResetAll() {
  std::unique_lock<std::mutex> parent_lock;
  if (parent_ != nullptr) parent_lock = std::unique_lock(parent_->mu_);
  std::lock_guard<std::mutex> lock(mu_);
  if (parent_ != nullptr) FoldIntoParentLocked();
  for (auto& [name, entry] : metrics_) {
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

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();  // never destroyed
  return *registry;
}

}  // namespace cdbs::obs
