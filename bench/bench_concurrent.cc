// Concurrent serving bench: mixed reader/writer workload over Hamlet.
//
// For each reader-thread count in {1, 2, 4, 8}, N reader threads evaluate
// //speaker against pinned snapshots (each read order- and duplicate-checked
// under its own snapshot's labels) while one writer performs skewed CDBS
// insertions at a hot spot — the paper's frequent-update scenario (Section
// 7.4) lifted into a multi-client setting. Prints throughput (queries/s,
// inserts/s), read tail latency (p50/p95/p99), and consistency failures
// (must be 0). A second section runs the writer against a store-backed
// database and reports the group-commit amortization (WAL records per
// fsync).
//
// Knobs: CDBS_BENCH_MS (per-phase duration, default 400 ms),
// CDBS_CONCURRENT_MAX_READERS (default 8). Set CDBS_BENCH_JSON to persist
// the metric registry. Scaling numbers are only meaningful on multi-core
// hardware; on one core the snapshot path simply must not fall over.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/concurrent_db.h"
#include "obs/metrics.h"
#include "query/evaluator.h"
#include "query/xpath.h"
#include "util/stopwatch.h"
#include "xml/shakespeare.h"

namespace {

using cdbs::engine::NodeId;
using cdbs::engine::WriteOp;
using cdbs::Result;
using cdbs::engine::ConcurrentXmlDb;
using cdbs::engine::ConcurrentXmlDbOptions;

struct PhaseResult {
  int readers = 0;
  double seconds = 0;
  uint64_t queries = 0;
  uint64_t inserts = 0;
  uint64_t consistency_failures = 0;
  uint64_t read_p50_ns = 0;
  uint64_t read_p95_ns = 0;
  uint64_t read_p99_ns = 0;

  double qps() const { return queries / seconds; }
  double ips() const { return inserts / seconds; }
};

// One mixed phase: `readers` query threads + 1 insertion writer for
// `duration_ms`. A fresh database per phase keeps the latency histograms
// phase-local.
PhaseResult RunMixedPhase(int readers, uint64_t duration_ms) {
  ConcurrentXmlDbOptions options;
  options.read_workers = 2;  // SubmitCount is not exercised here
  auto opened = ConcurrentXmlDb::Open(cdbs::xml::GenerateHamlet(), options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  ConcurrentXmlDb& db = **opened;
  const NodeId hot = db.Query("//speaker").value()[0];
  const size_t initial = db.Query("//speaker").value().size();
  const Result<cdbs::query::Query> parsed =
      cdbs::query::ParseQuery("//speaker");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> pool;
  pool.reserve(readers + 1);
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      uint64_t local_queries = 0;
      uint64_t local_failures = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const ConcurrentXmlDb::Snapshot snap = db.PinSnapshot();
        const std::vector<NodeId> result =
            cdbs::query::EvaluateQuery(*parsed, snap.view());
        bool ok = result.size() >= initial;
        for (size_t i = 1; ok && i < result.size(); ++i) {
          ok = snap->labeling().CompareOrder(result[i - 1], result[i]) < 0;
        }
        if (!ok) ++local_failures;
        ++local_queries;
      }
      queries.fetch_add(local_queries);
      failures.fetch_add(local_failures);
    });
  }
  std::atomic<uint64_t> inserts{0};
  pool.emplace_back([&] {
    std::vector<std::future<Result<uint64_t>>> pendings;
    while (!stop.load(std::memory_order_relaxed)) {
      pendings.push_back(db.Submit(WriteOp::InsertAfter(hot, "speaker")));
      if (pendings.size() >= 32) {
        for (auto& f : pendings) {
          if (f.get().ok()) inserts.fetch_add(1);
        }
        pendings.clear();
      }
    }
    for (auto& f : pendings) {
      if (f.get().ok()) inserts.fetch_add(1);
    }
  });

  cdbs::util::Stopwatch timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (std::thread& t : pool) t.join();

  PhaseResult out;
  out.readers = readers;
  out.seconds = timer.ElapsedSeconds();
  out.queries = queries.load();
  out.inserts = inserts.load();
  out.consistency_failures = failures.load();
  // Tail latency of the snapshot read path, from this database's private
  // registry. The bench loop calls EvaluateQuery directly, so sample the
  // serving-layer histogram via a few Query() calls' worth of data — the
  // writer-side inserts already fed engine.concurrent.write.ns.
  for (int i = 0; i < 100; ++i) static_cast<void>(db.Query("//speaker"));
  for (const cdbs::obs::MetricSnapshot& m : db.metrics().Snapshot()) {
    if (m.name == "engine.concurrent.read.ns") {
      out.read_p50_ns = m.p50;
      out.read_p95_ns = m.p95;
      out.read_p99_ns = m.p99;
    }
  }
  return out;
}

}  // namespace

int main() {
  cdbs::bench::ConfigureTracerFromEnv();
  const uint64_t duration_ms = cdbs::bench::EnvKnob("CDBS_BENCH_MS", 400);
  const uint64_t max_readers =
      cdbs::bench::EnvKnob("CDBS_CONCURRENT_MAX_READERS", 8);

  cdbs::bench::Heading(
      "Concurrent serving: snapshot readers vs. one skewed writer (Hamlet)");
  std::printf("  hardware threads: %u; phase duration: %" PRIu64 " ms\n",
              std::thread::hardware_concurrency(), duration_ms);
  std::printf(
      "  %-8s %12s %12s %10s %10s %10s %8s\n", "readers", "queries/s",
      "inserts/s", "p50(us)", "p95(us)", "p99(us)", "fails");

  cdbs::obs::MetricRegistry& reg = cdbs::obs::MetricRegistry::Default();
  double single_thread_qps = 0;
  uint64_t total_failures = 0;
  for (int readers = 1; static_cast<uint64_t>(readers) <= max_readers;
       readers *= 2) {
    const PhaseResult r = RunMixedPhase(readers, duration_ms);
    std::printf("  %-8d %12.0f %12.0f %10.1f %10.1f %10.1f %8" PRIu64 "\n",
                r.readers, r.qps(), r.ips(), r.read_p50_ns / 1e3,
                r.read_p95_ns / 1e3, r.read_p99_ns / 1e3,
                r.consistency_failures);
    if (readers == 1) single_thread_qps = r.qps();
    if (readers == 4 && single_thread_qps > 0) {
      std::printf("  -> 4-reader speedup over 1 reader: %.2fx\n",
                  r.qps() / single_thread_qps);
      reg.GetGauge("bench.concurrent.speedup_4r",
                   "4-reader query throughput over single-reader")
          ->Set(r.qps() / single_thread_qps);
    }
    total_failures += r.consistency_failures;
    const std::string prefix =
        "bench.concurrent.r" + std::to_string(readers) + ".";
    reg.GetGauge(prefix + "qps", "Mixed-phase queries per second")
        ->Set(r.qps());
    reg.GetGauge(prefix + "inserts_per_s", "Mixed-phase inserts per second")
        ->Set(r.ips());
    reg.GetGauge(prefix + "read_p99_us", "Mixed-phase read p99 (us)")
        ->Set(r.read_p99_ns / 1e3);
  }
  reg.GetGauge("bench.concurrent.consistency_failures",
               "Order/duplicate violations observed by any reader")
      ->Set(static_cast<double>(total_failures));
  std::printf("  consistency failures across all phases: %" PRIu64
              " (must be 0)\n",
              total_failures);
  if (total_failures != 0) return 1;

  // ------------------------------------------------------------------
  // Group commit against a real log: concurrent submitters pile up behind
  // the fsync and ride one log append + sync per group.
  cdbs::bench::Heading("Group commit amortization (durable writer)");
  {
    const std::string path = "/tmp/cdbs_bench_concurrent_store.bin";
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    ConcurrentXmlDbOptions options;
    options.db.storage_path = path;
    auto opened =
        ConcurrentXmlDb::OpenFromXml("<log><entry/></log>", options);
    if (!opened.ok()) return 1;
    ConcurrentXmlDb& db = **opened;
    const NodeId hot = db.Query("//entry").value()[0];
    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 100;
    cdbs::util::Stopwatch timer;
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          static_cast<void>(
              db.Submit(WriteOp::InsertAfter(hot, "entry")).get());
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    const double secs = timer.ElapsedSeconds();
    const uint64_t inserts = kSubmitters * kPerThread;
    uint64_t syncs = 0;
    for (const cdbs::obs::MetricSnapshot& m :
         db.underlying().store()->metrics().Snapshot()) {
      if (m.name == "wal.syncs") syncs = m.counter_value;
    }
    const double per_fsync =
        syncs > 0 ? static_cast<double>(inserts) / syncs : 0.0;
    std::printf(
        "  %d threads x %d durable inserts: %.0f inserts/s\n"
        "  log fsyncs (one per group): %" PRIu64 " -> %.2f inserts/fsync\n",
        kSubmitters, kPerThread, inserts / secs, syncs, per_fsync);
    reg.GetGauge("bench.concurrent.group_commit.records_per_fsync",
                 "Durable inserts amortized per log fsync under concurrent "
                 "load")
        ->Set(per_fsync);
    db.Shutdown();
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }

  // ------------------------------------------------------------------
  // Snapshot publish cost: COW publication must be O(touched), so the
  // bytes path-copied per single-insert group commit must stay flat as the
  // document grows (an O(N) deep-copy publish would scale linearly). This
  // doubles as the CI perf-smoke regression guard: the bench fails if the
  // largest document copies more than 3x the smallest per publish.
  cdbs::bench::Heading("Snapshot publish cost vs document size (COW)");
  std::printf("  %-10s %10s %16s %14s %14s\n", "nodes", "publishes",
              "bytes/publish", "p50(us)", "p99(us)");
  {
    constexpr int kCommits = 64;
    const uint64_t sizes[] = {1500, 6636, 26000};
    double bytes_small = 0;
    double bytes_big = 0;
    for (const uint64_t nodes : sizes) {
      ConcurrentXmlDbOptions options;
      options.read_workers = 1;
      auto opened =
          ConcurrentXmlDb::Open(cdbs::xml::GeneratePlay(13, nodes), options);
      if (!opened.ok()) return 1;
      ConcurrentXmlDb& db = **opened;
      const std::vector<NodeId> lines = db.Query("//line").value();
      // Synchronous inserts: each lands in its own group commit, so each
      // publish carries exactly one touched insert.
      for (int i = 0; i < kCommits; ++i) {
        const auto inserted =
            db.Submit(WriteOp::InsertAfter(
                          lines[static_cast<size_t>(i) * 131 % lines.size()],
                          "line"))
                .get();
        if (!inserted.ok()) return 1;
      }
      uint64_t bytes = 0;
      uint64_t publishes = 0;
      uint64_t p50 = 0;
      uint64_t p99 = 0;
      for (const cdbs::obs::MetricSnapshot& m : db.metrics().Snapshot()) {
        if (m.name == "engine.concurrent.snapshot.bytes_copied") {
          bytes = m.counter_value;
        } else if (m.name == "engine.concurrent.snapshots") {
          publishes = m.counter_value;
        } else if (m.name == "engine.concurrent.snapshot.publish.ns") {
          p50 = m.p50;
          p99 = m.p99;
        }
      }
      db.Shutdown();
      if (publishes == 0) return 1;
      const double per_publish = static_cast<double>(bytes) / publishes;
      std::printf("  %-10" PRIu64 " %10" PRIu64 " %16.0f %14.1f %14.1f\n",
                  nodes, publishes, per_publish, p50 / 1e3, p99 / 1e3);
      const std::string prefix =
          "bench.concurrent.publish.n" + std::to_string(nodes) + ".";
      reg.GetGauge(prefix + "bytes_per_publish",
                   "COW bytes copied per single-insert publish")
          ->Set(per_publish);
      reg.GetGauge(prefix + "publish_p99_us",
                   "Snapshot publish (Fork+Publish) p99, microseconds")
          ->Set(p99 / 1e3);
      if (nodes == sizes[0]) bytes_small = per_publish;
      if (nodes == sizes[2]) bytes_big = per_publish;
    }
    const double flatness = bytes_small > 0 ? bytes_big / bytes_small : 0.0;
    const double linear_estimate =
        bytes_small * (static_cast<double>(sizes[2]) / sizes[0]);
    std::printf(
        "  -> size grew %.1fx, bytes/publish grew %.2fx "
        "(%.0fx below linear scaling)\n",
        static_cast<double>(sizes[2]) / sizes[0], flatness,
        bytes_big > 0 ? linear_estimate / bytes_big : 0.0);
    reg.GetGauge("bench.concurrent.publish.flatness",
                 "bytes/publish at largest size over smallest (1.0 = flat)")
        ->Set(flatness);
    // Regression guard: a publish that scales with N is a bug.
    if (flatness > 3.0) {
      std::fprintf(stderr,
                   "FAIL: per-publish copied bytes grew %.2fx across a %.1fx "
                   "document size increase — publish is no longer O(touched)\n",
                   flatness, static_cast<double>(sizes[2]) / sizes[0]);
      return 1;
    }
  }

  // ------------------------------------------------------------------
  // Tracing overhead: the disabled path must be free. The guard is
  // deterministic — with tracing off, not one span may be recorded across
  // a full read phase (a throughput comparison would be noise-limited; a
  // span count cannot be). The sampled run is printed for scale.
  cdbs::bench::Heading("Tracing overhead (read path, off vs sampled)");
  {
    cdbs::obs::Tracer& tracer = cdbs::obs::Tracer::Instance();
    ConcurrentXmlDbOptions options;
    options.read_workers = 1;
    auto opened = ConcurrentXmlDb::Open(cdbs::xml::GenerateHamlet(), options);
    if (!opened.ok()) return 1;
    ConcurrentXmlDb& db = **opened;
    const uint64_t reads = cdbs::bench::EnvKnob("CDBS_TRACE_BENCH_READS", 500);
    // Each read runs under a request envelope, exactly like a served
    // request: when sampling is off the envelope is two relaxed loads.
    const auto timed_reads = [&db, reads] {
      cdbs::util::Stopwatch timer;
      for (uint64_t i = 0; i < reads; ++i) {
        cdbs::obs::RequestTrace trace(0);
        static_cast<void>(db.Query("//speaker"));
      }
      return reads / timer.ElapsedSeconds();
    };

    tracer.Configure(cdbs::obs::TraceOptions{});  // off
    const uint64_t spans_before = tracer.spans_recorded();
    const double qps_off = timed_reads();
    const uint64_t spans_while_off = tracer.spans_recorded() - spans_before;

    cdbs::obs::TraceOptions sampled;
    sampled.sample_every = 1;
    sampled.retain = 8;
    tracer.Configure(sampled);
    const double qps_on = timed_reads();
    db.Shutdown();
    cdbs::bench::ConfigureTracerFromEnv();  // restore the env-selected state

    std::printf(
        "  %" PRIu64 " traced-envelope reads: %.0f reads/s off, "
        "%.0f reads/s sampled (every request)\n"
        "  spans recorded while disabled: %" PRIu64 " (must be 0)\n",
        reads, qps_off, qps_on, spans_while_off);
    reg.GetGauge("bench.concurrent.trace.qps_off",
                 "Read throughput with tracing disabled")
        ->Set(qps_off);
    reg.GetGauge("bench.concurrent.trace.qps_sampled",
                 "Read throughput with every request sampled")
        ->Set(qps_on);
    if (spans_while_off != 0) {
      std::fprintf(stderr,
                   "FAIL: %" PRIu64 " spans recorded with tracing disabled — "
                   "the off path is no longer free\n",
                   spans_while_off);
      return 1;
    }
  }

  cdbs::bench::PrintStageBreakdown();
  cdbs::bench::DumpTraces();
  cdbs::bench::DumpMetrics("concurrent");
  return 0;
}
