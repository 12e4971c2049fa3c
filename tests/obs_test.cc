#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdbs::obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BasicAccounting) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  h.Record(0);
  h.Record(1);
  h.Record(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 101u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.mean(), 101.0 / 3.0, 1e-9);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is exact zero; bucket b covers [2^(b-1), 2^b - 1].
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(4);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket(3), 1u);  // {4..7}
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
}

TEST(HistogramTest, QuantilesOnUniformDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  // Log-bucket interpolation: exact at the extremes, within the bucket
  // (one power of two) elsewhere. For uniform 1..1000 the estimates are
  // close to the true order statistics.
  EXPECT_EQ(h.Quantile(0.0), 1u);
  EXPECT_EQ(h.Quantile(1.0), 1000u);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.50)), 500.0, 60.0);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.90)), 900.0, 110.0);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.99)), 990.0, 120.0);
}

TEST(HistogramTest, QuantilesOnPointMass) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(64);
  EXPECT_EQ(h.Quantile(0.5), 64u);
  EXPECT_EQ(h.Quantile(0.99), 64u);
  EXPECT_EQ(h.min(), 64u);
  EXPECT_EQ(h.max(), 64u);
}

TEST(HistogramTest, MergedBatchEqualsRecordingEachValue) {
  const uint64_t values[] = {0, 1, 2, 3, 7, 8, 100, 100, 4096, UINT64_MAX >> 1};
  Histogram one_by_one;
  Histogram merged;
  Histogram::Batch batch;
  for (const uint64_t v : values) {
    one_by_one.Record(v);
    batch.Record(v);
  }
  merged.Record(5);  // a merge adds to what is there
  one_by_one.Record(5);
  merged.Merge(batch);
  merged.Merge(Histogram::Batch());  // an empty batch changes nothing
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(merged.bucket(b), one_by_one.bucket(b)) << b;
  }
  EXPECT_EQ(merged.count(), one_by_one.count());
  EXPECT_EQ(merged.sum(), one_by_one.sum());
  EXPECT_EQ(merged.min(), 0u);
  EXPECT_EQ(merged.max(), UINT64_MAX >> 1);
}

TEST(HistogramTest, Reset) {
  Histogram h;
  h.Record(7);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(RegistryTest, GetOrCreateIsIdempotent) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("x.count", "help text");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  Gauge* g1 = reg.GetGauge("x.gauge");
  Gauge* g2 = reg.GetGauge("x.gauge");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.GetHistogram("x.hist");
  Histogram* h2 = reg.GetHistogram("x.hist");
  EXPECT_EQ(h1, h2);
}

TEST(RegistryTest, SnapshotSortedAndComplete) {
  MetricRegistry reg;
  reg.GetCounter("b.count")->Increment(3);
  reg.GetGauge("a.gauge")->Set(1.5);
  reg.GetHistogram("c.hist")->Record(10);
  const std::vector<MetricSnapshot> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[0].type, MetricType::kGauge);
  EXPECT_DOUBLE_EQ(snap[0].gauge_value, 1.5);
  EXPECT_EQ(snap[1].name, "b.count");
  EXPECT_EQ(snap[1].counter_value, 3u);
  EXPECT_EQ(snap[2].name, "c.hist");
  EXPECT_EQ(snap[2].count, 1u);
  ASSERT_EQ(snap[2].buckets.size(), 1u);
  EXPECT_EQ(snap[2].buckets[0].second, 1u);
}

TEST(RegistryTest, ResetAllZeroesEverything) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("c");
  Histogram* h = reg.GetHistogram("h");
  c->Increment(5);
  h->Record(5);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
}

TEST(RegistryTest, ConcurrentIncrementsAreExact) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Mix registration with updates: half the threads look the metrics up
      // by name every iteration, stressing the registry mutex.
      Counter* c = reg.GetCounter("mt.count");
      Histogram* h = reg.GetHistogram("mt.hist");
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          c = reg.GetCounter("mt.count");
          h = reg.GetHistogram("mt.hist");
        }
        c->Increment();
        h->Record(static_cast<uint64_t>(i));
        reg.GetGauge("mt.gauge")->Add(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("mt.count")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.GetHistogram("mt.hist")->count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(reg.GetGauge("mt.gauge")->value(),
                   static_cast<double>(kThreads) * kPerThread);
}

TEST(ScopedTimerTest, RecordsOneSample) {
  Histogram h;
  {
    ScopedTimer timer(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  ScopedTimer timer(&h);
  timer.StopAndRecord();
  timer.StopAndRecord();  // disarmed: no double record
  EXPECT_EQ(h.count(), 2u);
  ScopedTimer disabled(nullptr);  // null histogram is a no-op
}

// --- exporters -----------------------------------------------------------

// Minimal structural validation: balanced delimiters outside strings and no
// dangling commas before a closing bracket.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      EXPECT_NE(prev_significant, ',') << "dangling comma in: " << json;
      --depth;
      EXPECT_GE(depth, 0);
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev_significant = c;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

MetricRegistry& ExporterFixtureRegistry() {
  static MetricRegistry* reg = [] {
    auto* r = new MetricRegistry();
    r->GetCounter("engine.inserts", "insert \"events\"")->Increment(7);
    r->GetGauge("engine.fill_ratio")->Set(0.75);
    Histogram* h = r->GetHistogram("labeling.label_bits", "bits per label");
    for (uint64_t v : {8u, 16u, 16u, 32u, 200u}) h->Record(v);
    return r;
  }();
  return *reg;
}

TEST(JsonExportTest, ShapeAndContent) {
  const std::string json = ToJson(ExporterFixtureRegistry(), "unit_test");
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"label\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"engine.inserts\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 272"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // Help strings with quotes must be escaped away from the name field only;
  // the JSON stays parseable (checked structurally above).
}

TEST(JsonExportTest, EmptyRegistryIsValid) {
  MetricRegistry reg;
  const std::string json = ToJson(reg);
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
}

TEST(PrometheusExportTest, ExpositionFormat) {
  const std::string text = ToPrometheus(ExporterFixtureRegistry());
  EXPECT_NE(text.find("# TYPE cdbs_engine_inserts counter"),
            std::string::npos);
  EXPECT_NE(text.find("cdbs_engine_inserts 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cdbs_engine_fill_ratio gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cdbs_labeling_label_bits histogram"),
            std::string::npos);
  EXPECT_NE(text.find("cdbs_labeling_label_bits_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("cdbs_labeling_label_bits_sum 272"), std::string::npos);
  EXPECT_NE(text.find("cdbs_labeling_label_bits_count 5"), std::string::npos);
  // Buckets are cumulative: the 8-bit sample lands in le=15, joined by the
  // two 16-bit samples at le=31.
  EXPECT_NE(text.find("cdbs_labeling_label_bits_bucket{le=\"15\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cdbs_labeling_label_bits_bucket{le=\"31\"} 3"),
            std::string::npos);
}

TEST(ServingMetricsExportTest, ServeAndNetNamesExportInBothFormats) {
  // The serving-layer metric names (src/net/server.cc, client.cc,
  // engine/concurrent_db.cc) as they appear on the wire of each exporter:
  // JSON keeps the dotted names; Prometheus sanitizes dots to underscores
  // and prefixes cdbs_.
  MetricRegistry reg;
  reg.GetCounter("serve.requests", "Requests served")->Increment(10);
  reg.GetCounter("serve.requests_shed", "Shed with kRetryAfter")
      ->Increment(2);
  reg.GetCounter("serve.deadline_exceeded", "Expired requests")->Increment(1);
  reg.GetCounter("serve.retries", "Client-side retries")->Increment(3);
  reg.GetCounter("net.connections_total")->Increment(5);
  reg.GetCounter("net.connections_dropped")->Increment(1);
  reg.GetGauge("net.connections_active")->Set(4);
  reg.GetHistogram("serve.request.ns")->Record(1000);

  const std::string json = ToJson(reg, "serving");
  ExpectBalancedJson(json);
  for (const char* name :
       {"serve.requests", "serve.requests_shed", "serve.deadline_exceeded",
        "serve.retries", "net.connections_total", "net.connections_dropped",
        "net.connections_active", "serve.request.ns"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + name + "\""),
              std::string::npos)
        << name << " missing from JSON export";
  }
  EXPECT_NE(json.find("\"value\": 2"), std::string::npos);  // requests_shed

  const std::string text = ToPrometheus(reg);
  EXPECT_NE(text.find("# TYPE cdbs_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("cdbs_serve_requests_shed 2"), std::string::npos);
  EXPECT_NE(text.find("cdbs_serve_deadline_exceeded 1"), std::string::npos);
  EXPECT_NE(text.find("cdbs_serve_retries 3"), std::string::npos);
  EXPECT_NE(text.find("cdbs_net_connections_total 5"), std::string::npos);
  EXPECT_NE(text.find("cdbs_net_connections_dropped 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cdbs_net_connections_active gauge"),
            std::string::npos);
  EXPECT_NE(text.find("cdbs_net_connections_active 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cdbs_serve_request_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("cdbs_serve_request_ns_count 1"), std::string::npos);
}

TEST(TextExportTest, ListsEveryMetric) {
  const std::string table = ToTextTable(ExporterFixtureRegistry());
  EXPECT_NE(table.find("engine.inserts"), std::string::npos);
  EXPECT_NE(table.find("engine.fill_ratio"), std::string::npos);
  EXPECT_NE(table.find("labeling.label_bits"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

TEST(WriteJsonFileTest, RoundTrips) {
  const std::string path = ::testing::TempDir() + "/obs_test_snapshot.json";
  ASSERT_TRUE(
      WriteJsonFile(ExporterFixtureRegistry(), path, "file_test").ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, ToJson(ExporterFixtureRegistry(), "file_test"));
  ExpectBalancedJson(content);
}

// The entry named `name` in `reg`'s snapshot; fails the test unless there
// is exactly one.
MetricSnapshot Find(const MetricRegistry& reg, const std::string& name) {
  MetricSnapshot found;
  int hits = 0;
  for (MetricSnapshot& m : reg.Snapshot()) {
    if (m.name == name) {
      found = std::move(m);
      ++hits;
    }
  }
  EXPECT_EQ(hits, 1) << name;
  return found;
}

TEST(ObsRegistryTreeTest, ChildUpdatesAppearOnceInParent) {
  MetricRegistry parent;
  MetricRegistry child(&parent);
  child.GetCounter("m.count", "help")->Increment(3);
  Histogram* hist = child.GetHistogram("m.hist");
  hist->Record(42);
  hist->Record(7);

  EXPECT_EQ(Find(parent, "m.count").counter_value, 3u);
  EXPECT_EQ(Find(parent, "m.count").help, "help");
  const MetricSnapshot h = Find(parent, "m.hist");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 49u);
  EXPECT_EQ(h.min, 7u);
  EXPECT_EQ(h.max, 42u);
  EXPECT_EQ(h.p99, 42u);
  // One home per metric: the parent holds no copy of its own, and the
  // child's view is the child's alone.
  EXPECT_EQ(parent.GetCounter("m.count")->value(), 0u);
  parent.GetCounter("m.count")->Increment(1);
  EXPECT_EQ(Find(parent, "m.count").counter_value, 4u);
  EXPECT_EQ(Find(child, "m.count").counter_value, 3u);
}

TEST(ObsRegistryTreeTest, GaugesSumOverLiveChildren) {
  MetricRegistry parent;
  auto a = std::make_unique<MetricRegistry>(&parent);
  MetricRegistry b(&parent);
  a->GetGauge("m.live")->Set(2.0);
  b.GetGauge("m.live")->Set(3.0);
  EXPECT_DOUBLE_EQ(Find(parent, "m.live").gauge_value, 5.0);
  a.reset();
  EXPECT_DOUBLE_EQ(Find(parent, "m.live").gauge_value, 3.0);
  b.GetGauge("m.live")->Set(0.5);
  EXPECT_DOUBLE_EQ(Find(parent, "m.live").gauge_value, 0.5);
}

TEST(ObsRegistryTreeTest, TotalsSurviveChildResetAndDestruction) {
  MetricRegistry parent;
  {
    MetricRegistry child(&parent);
    child.GetCounter("m.count")->Increment(5);
    child.GetHistogram("m.hist")->Record(100);
    child.GetGauge("m.gauge")->Set(9.0);
    child.ResetAll();
    EXPECT_EQ(child.GetCounter("m.count")->value(), 0u);
    EXPECT_EQ(Find(parent, "m.count").counter_value, 5u);
    EXPECT_EQ(Find(parent, "m.hist").count, 1u);
    EXPECT_DOUBLE_EQ(Find(parent, "m.gauge").gauge_value, 0.0);

    child.GetCounter("m.count")->Increment(2);
    child.GetHistogram("m.hist")->Record(3);
    EXPECT_EQ(Find(parent, "m.count").counter_value, 7u);
  }
  EXPECT_EQ(Find(parent, "m.count").counter_value, 7u);
  EXPECT_EQ(parent.GetCounter("m.count")->value(), 7u);
  const MetricSnapshot h = Find(parent, "m.hist");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 103u);
  EXPECT_EQ(h.min, 3u);
  EXPECT_EQ(h.max, 100u);
  // A gauge leaves with its child; its name stays.
  EXPECT_DOUBLE_EQ(Find(parent, "m.gauge").gauge_value, 0.0);
}

TEST(ObsRegistryTreeTest, ConcurrentAttachDetachAndSnapshotAreExact) {
  MetricRegistry parent;
  constexpr int kThreads = 8;
  constexpr int kChildren = 200;
  constexpr int kPerChild = 10;
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    uint64_t last = 0;
    while (!done.load()) {
      for (const MetricSnapshot& m : parent.Snapshot()) {
        if (m.name != "mt.count") continue;
        // Folding moves a child's count to the parent atomically with
        // respect to a snapshot, so the total never goes backwards.
        EXPECT_GE(m.counter_value, last);
        last = m.counter_value;
      }
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&parent] {
      for (int c = 0; c < kChildren; ++c) {
        MetricRegistry child(&parent);
        for (int i = 0; i < kPerChild; ++i) {
          child.GetCounter("mt.count")->Increment();
          child.GetHistogram("mt.hist")->Record(static_cast<uint64_t>(i));
          child.GetGauge("mt.gauge")->Add(1.0);
        }
        if (c % 2 == 0) child.ResetAll();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  snapshotter.join();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kChildren * kPerChild;
  EXPECT_EQ(Find(parent, "mt.count").counter_value, kTotal);
  EXPECT_EQ(Find(parent, "mt.hist").count, kTotal);
  EXPECT_DOUBLE_EQ(Find(parent, "mt.gauge").gauge_value, 0.0);
}

TEST(PrometheusExportTest, HelpLinesAlwaysPresentAndEscaped) {
  MetricRegistry reg;
  reg.GetCounter("h.with_help", "counts\nthings with \\ slashes")
      ->Increment(1);
  reg.GetCounter("h.without_help")->Increment(2);
  const std::string text = ToPrometheus(reg);
  // Help text survives with newline/backslash escaped per the exposition
  // format; a metric registered without help falls back to its source name.
  EXPECT_NE(
      text.find("# HELP cdbs_h_with_help counts\\nthings with \\\\ slashes"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP cdbs_h_without_help h.without_help"),
            std::string::npos)
      << text;
  // Every metric has a HELP/TYPE pair.
  EXPECT_NE(text.find("# HELP cdbs_h_with_help"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cdbs_h_with_help counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cdbs_h_without_help counter"),
            std::string::npos);
}

// --- trace knobs ---------------------------------------------------------

TEST(TraceKnobTest, StrictParsingRejectsGarbage) {
  // Mirrors the bench EnvKnob convention: whole-string parse or bust, with
  // the difference that 0 is a valid value (it means "off").
  uint64_t v = 7;
  EXPECT_TRUE(Tracer::ParseKnob("K", nullptr, &v));  // unset keeps default
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(Tracer::ParseKnob("K", "", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(Tracer::ParseKnob("K", "0", &v));
  EXPECT_EQ(v, 0u);
  v = 7;
  EXPECT_TRUE(Tracer::ParseKnob("K", "123", &v));
  EXPECT_EQ(v, 123u);
  v = 7;
  EXPECT_FALSE(Tracer::ParseKnob("K", "12x", &v));  // trailing junk
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(Tracer::ParseKnob("K", "x12", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(Tracer::ParseKnob("K", "-1", &v));  // negative
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(Tracer::ParseKnob("K", "1.5", &v));  // fractional
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(Tracer::ParseKnob("K", " 5", &v));  // leading space
  EXPECT_EQ(v, 7u);
}

TEST(TraceKnobTest, OptionsFromEnvParsesAndDefaults) {
  ::setenv("CDBS_TRACE_SAMPLE", "4", 1);
  ::setenv("CDBS_TRACE_SLOW_MS", "250", 1);
  ::setenv("CDBS_TRACE_RETAIN", "9", 1);
  TraceOptions opts = Tracer::OptionsFromEnv();
  EXPECT_EQ(opts.sample_every, 4u);
  EXPECT_EQ(opts.slow_ms, 250u);
  EXPECT_EQ(opts.retain, 9u);

  // Garbage falls back to defaults with a warning, per the PR-1 EnvKnob
  // convention — it must never abort or half-apply.
  ::setenv("CDBS_TRACE_SAMPLE", "fast", 1);
  ::setenv("CDBS_TRACE_SLOW_MS", "10ms", 1);
  ::setenv("CDBS_TRACE_RETAIN", "0", 1);  // 0 retained is clamped to 1
  opts = Tracer::OptionsFromEnv();
  EXPECT_EQ(opts.sample_every, 0u);
  EXPECT_EQ(opts.slow_ms, 0u);
  EXPECT_EQ(opts.retain, 1u);

  ::unsetenv("CDBS_TRACE_SAMPLE");
  ::unsetenv("CDBS_TRACE_SLOW_MS");
  ::unsetenv("CDBS_TRACE_RETAIN");
  opts = Tracer::OptionsFromEnv();
  EXPECT_EQ(opts.sample_every, 0u);
  EXPECT_EQ(opts.slow_ms, 0u);
  EXPECT_EQ(opts.retain, 32u);
}

TEST(DefaultRegistryTest, IsSingletonAndUsable) {
  MetricRegistry& a = MetricRegistry::Default();
  MetricRegistry& b = MetricRegistry::Default();
  EXPECT_EQ(&a, &b);
  Counter* c = a.GetCounter("obs_test.default_probe");
  const uint64_t before = c->value();
  c->Increment();
  EXPECT_EQ(b.GetCounter("obs_test.default_probe")->value(), before + 1);
}

}  // namespace
}  // namespace cdbs::obs
