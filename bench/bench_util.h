#ifndef CDBS_BENCH_BENCH_UTIL_H_
#define CDBS_BENCH_BENCH_UTIL_H_

#include <sys/stat.h>

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/concurrent_db.h"
#include "labeling/label.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_db.h"
#include "util/status.h"
#include "xml/parser.h"

/// \file
/// Small shared helpers for the experiment harness binaries. Each bench
/// prints its paper table/figure reproduction on stdout first, then (where
/// registered) runs google-benchmark micro-benchmarks.
///
/// Every bench also reports into the process-wide metric registry
/// (obs::MetricRegistry::Default()) and ends with DumpMetrics(name): set
/// CDBS_BENCH_JSON=<path> to persist the registry as a JSON snapshot — the
/// repo's machine-readable perf trajectory (BENCH_<name>.json when <path>
/// is a directory).

namespace cdbs::bench {

/// Reads a positive integer knob from the environment, with a default.
/// Rejects anything that is not a whole positive decimal number (trailing
/// junk included) with a warning on stderr — e.g. CDBS_SCALE to shrink the
/// Figure 6 corpus for smoke runs.
inline uint64_t EnvKnob(const char* name, uint64_t default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return default_value;
  uint64_t value = 0;
  const char* end = raw + std::strlen(raw);
  const auto [ptr, ec] = std::from_chars(raw, end, value);
  if (ec != std::errc() || ptr != end || value == 0) {
    std::fprintf(stderr,
                 "warning: ignoring %s=\"%s\" (want a positive integer); "
                 "using default %" PRIu64 "\n",
                 name, raw, default_value);
    return default_value;
  }
  return value;
}

/// Prints a section heading.
inline void Heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Times a bench phase into the default registry: quantiles end up in the
/// JSON snapshot under `bench.phase.<name>.ns`. Usage:
///   { auto t = cdbs::bench::Phase("label"); ...work... }
inline obs::ScopedTimer Phase(const std::string& name) {
  return obs::ScopedTimer(obs::MetricRegistry::Default().GetHistogram(
      "bench.phase." + name + ".ns", "Wall time of bench phase " + name));
}

/// Records every node's stored label size (bits) into the process-wide
/// `labeling.label_bits` histogram — the Figure 5 distribution.
inline void RecordLabelSizes(const labeling::Labeling& labeling) {
  obs::Histogram* hist = obs::MetricRegistry::Default().GetHistogram(
      "labeling.label_bits", "Stored label size in bits per node");
  for (labeling::NodeId n = 0;
       n < static_cast<labeling::NodeId>(labeling.num_nodes()); ++n) {
    hist->Record(8 * labeling.SerializeLabel(n).size());
  }
}

/// Feeds one InsertResult into the process-wide labeling counters
/// (`labeling.inserts` / `.relabeled` / `.overflows` and the
/// `labeling.neighbor_bits_modified` histogram).
inline void RecordInsertResult(const labeling::InsertResult& result) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  static obs::Counter* const inserts =
      reg.GetCounter("labeling.inserts", "Label-level insertions performed");
  static obs::Counter* const relabeled = reg.GetCounter(
      "labeling.relabeled", "Existing labels rewritten by insertions");
  static obs::Counter* const overflows = reg.GetCounter(
      "labeling.overflows", "Insertions that hit an overflow re-encode");
  static obs::Histogram* const neighbor_bits = reg.GetHistogram(
      "labeling.neighbor_bits_modified",
      "Bits modified in a neighbour label per insertion (Section 7.4)");
  inserts->Increment();
  relabeled->Increment(result.relabeled);
  if (result.overflow) overflows->Increment();
  neighbor_bits->Record(result.neighbor_bits_modified);
}

/// Arms the request tracer from CDBS_TRACE_SAMPLE / CDBS_TRACE_SLOW_MS /
/// CDBS_TRACE_RETAIN (strict parsing, warnings on garbage). Call once at
/// bench start; a no-op when none of the knobs are set.
inline void ConfigureTracerFromEnv() {
  obs::Tracer::Instance().Configure(obs::Tracer::OptionsFromEnv());
}

/// Prints the per-stage latency breakdown accumulated by the tracer's
/// `trace.stage.<name>.ns` histograms: one line per stage with count, mean
/// and p99, plus each stage's share of the summed stage time. Silent when
/// tracing never recorded a span (e.g. tracing off).
inline void PrintStageBreakdown() {
  struct Row {
    std::string stage;
    uint64_t count;
    double mean_ns;
    uint64_t p99_ns;
  };
  std::vector<Row> rows;
  double total_ns = 0;
  for (const obs::MetricSnapshot& m :
       obs::MetricRegistry::Default().Snapshot()) {
    constexpr const char* kPrefix = "trace.stage.";
    if (m.type != obs::MetricType::kHistogram ||
        m.name.rfind(kPrefix, 0) != 0 || m.count == 0) {
      continue;
    }
    std::string stage =
        m.name.substr(std::strlen(kPrefix));       // "wal.fsync.ns"
    stage = stage.substr(0, stage.rfind(".ns"));   // "wal.fsync"
    if (stage == "request") continue;  // the end-to-end span, not a stage
    rows.push_back({stage, m.count, m.mean * m.count, m.p99});
    total_ns += m.mean * m.count;
  }
  if (rows.empty()) return;
  Heading("per-stage latency breakdown (traced requests)");
  std::printf("%-16s %10s %12s %12s %7s\n", "stage", "spans", "mean_us",
              "p99_us", "share");
  for (const Row& row : rows) {
    std::printf("%-16s %10" PRIu64 " %12.1f %12.1f %6.1f%%\n",
                row.stage.c_str(), row.count,
                row.mean_ns / row.count / 1e3, row.p99_ns / 1e3,
                total_ns > 0 ? 100.0 * row.mean_ns / total_ns : 0.0);
  }
}

/// Writes the tracer's retained traces as Chrome trace_event JSON when
/// CDBS_TRACE_JSON is set (load the file in chrome://tracing or Perfetto).
inline void DumpTraces() {
  const char* env = std::getenv("CDBS_TRACE_JSON");
  if (env == nullptr || env[0] == '\0') return;
  const std::string json = obs::Tracer::Instance().ToChromeJson();
  std::FILE* f = std::fopen(env, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to open %s for trace export\n", env);
    return;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  std::fprintf(stderr, ok ? "trace export written to %s\n"
                          : "short write exporting traces to %s\n",
               env);
}

/// Writes the default registry as JSON when CDBS_BENCH_JSON is set: to that
/// path directly, or to <dir>/BENCH_<name>.json when the path is an existing
/// directory. Pre-registers the canonical cross-bench metrics so every
/// snapshot has the same minimum shape regardless of which paths ran.
inline void DumpMetrics(const std::string& bench_name) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  reg.GetHistogram("labeling.label_bits",
                   "Stored label size in bits per node");
  reg.GetCounter("labeling.inserts", "Label-level insertions performed");
  reg.GetCounter("labeling.relabeled",
                 "Existing labels rewritten by insertions");
  reg.GetCounter("labeling.overflows",
                 "Insertions that hit an overflow re-encode");
  reg.GetCounter("storage.page_reads", "Pages read across all label stores");
  reg.GetCounter("storage.page_writes",
                 "Pages written across all label stores");

  const char* env = std::getenv("CDBS_BENCH_JSON");
  if (env == nullptr || env[0] == '\0') return;
  std::string path = env;
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    path += "/BENCH_" + bench_name + ".json";
  }
  const Status status = obs::WriteJsonFile(reg, path, bench_name);
  if (status.ok()) {
    std::fprintf(stderr, "metrics snapshot written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "failed to write metrics snapshot: %s\n",
                 status.ToString().c_str());
  }
}

/// `text` as a one-shard, one-document corpus whose shard opens with
/// `shard_options`: a plain primary, as net::Server serves it.
inline Result<std::unique_ptr<shard::ShardedDb>> OpenOneDocCorpus(
    std::string_view text,
    const engine::ConcurrentXmlDbOptions& shard_options,
    const std::string& storage_dir = "") {
  Result<xml::Document> doc = xml::ParseXml(text);
  if (!doc.ok()) return doc.status();
  std::vector<xml::Document> docs;
  docs.push_back(std::move(*doc));
  shard::ShardedDbOptions options;
  options.shard = shard_options;
  options.storage_dir = storage_dir;
  return shard::ShardedDb::Open(std::move(docs), options);
}

}  // namespace cdbs::bench

#endif  // CDBS_BENCH_BENCH_UTIL_H_
