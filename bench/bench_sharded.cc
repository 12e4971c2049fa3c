// Sharded serving bench: aggregate group-commit throughput vs shard count.
//
// 16 client threads issue blocking durable insertions, uniformly
// round-robined over 8 documents, against (a) one shard and (b) 4 shards
// (explicit placement, 2 documents per shard). Every insertion rides a
// group commit capped at 4 records per fsync, so the single-shard phase is
// bounded by one writer's fsync stream while the sharded phase overlaps N
// independent streams — the whole point of docs/SHARDING.md.
//
// To make that overlap measurable on any hardware (single-core CI
// included), the bench arms the `wal.sync.crash` failpoint with a delay
// spec: a delay firing injects latency and then returns false, so every
// WAL fsync behaves like a disk with ~2ms sync latency and nothing fails.
// Shard writers sleep in parallel; one writer cannot.
//
// Prints per-phase throughput and the scaling factor, and FAILS (non-zero
// exit) when 4-shard throughput is below 1.5x the single shard — the CI
// perf-smoke regression guard for the sharded write path.
//
// It first runs the shard-open memory guard: an in-memory 4-shard Open
// over D5, with the heap bytes in use (mallinfo2) measured before the
// inputs are generated and after Open. The serving engine keeps labels,
// tags and skeleton (about 60 B/element) and frees every input document
// on ingest; keeping a DOM costs another ~158 B/element. The bench FAILS
// above 96 B/element, so a document coming back onto the serving path
// cannot go unnoticed. The guard opens V-CDBS; the same Open over QED and
// Hybrid is printed next to it, unguarded (their string and variant label
// columns are larger). `bench_sharded memory` runs the guard alone.
//
// Knobs: CDBS_BENCH_MS (per-phase duration, default 400 ms),
// CDBS_SHARD_BENCH_SHARDS (default 4), CDBS_SHARD_FSYNC_DELAY_MS (default
// 2), CDBS_SHARD_MIN_SCALE_PCT (default 150; "0" disables the guard). Set
// CDBS_BENCH_JSON to persist the metric registry.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "bench_util.h"
#include "obs/metrics.h"
#include "shard/sharded_db.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"
#include "xml/shakespeare.h"

namespace {

using cdbs::Result;
using cdbs::engine::NodeId;
using cdbs::engine::WriteOp;
using cdbs::shard::RouterKind;
using cdbs::shard::ShardedDb;
using cdbs::shard::ShardedDbOptions;

constexpr size_t kDocs = 8;
constexpr int kClients = 16;

struct PhaseResult {
  size_t shards = 0;
  double seconds = 0;
  uint64_t inserts = 0;
  uint64_t wal_syncs = 0;

  double ips() const { return inserts / seconds; }
};

// One phase: kClients blocking writers over a fresh store-backed ShardedDb
// with `shards` shards, documents placed uniformly (kDocs / shards each).
PhaseResult RunPhase(size_t shards, uint64_t duration_ms) {
  const std::string dir = "/tmp/bench_sharded_" +
                          std::to_string(::getpid()) + "_s" +
                          std::to_string(shards);
  std::filesystem::remove_all(dir);

  std::vector<cdbs::xml::Document> docs;
  for (size_t d = 0; d < kDocs; ++d) {
    docs.push_back(cdbs::xml::GeneratePlay(/*seed=*/40 + d,
                                           /*total_nodes=*/300));
  }
  ShardedDbOptions options;
  options.shard_count = shards;
  options.router = RouterKind::kExplicit;
  for (size_t d = 0; d < kDocs; ++d) {
    options.placement.push_back(static_cast<uint32_t>(d % shards));
  }
  options.storage_dir = dir;
  options.read_workers = 2;
  // Small groups keep the single-shard phase honest: its ceiling is
  // 4 records per fsync on ONE stream, not one giant batch.
  options.shard.group_commit_limit = 4;
  auto opened = ShardedDb::Open(std::move(docs), options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  ShardedDb& db = **opened;

  std::vector<NodeId> anchors(kDocs);
  for (size_t d = 0; d < kDocs; ++d) {
    anchors[d] = db.QueryDoc(d, "/play/act/scene").value().front();
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inserts{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Uniform over documents (and therefore over shards): client c
        // walks the documents round-robin from its own offset.
        const uint64_t doc = (c + i++) % kDocs;
        if (db.Submit(doc, WriteOp::InsertAfter(anchors[doc], "w"))
                .get()
                .ok()) {
          inserts.fetch_add(1);
        }
      }
    });
  }
  cdbs::util::Stopwatch timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (std::thread& t : clients) t.join();

  PhaseResult out;
  out.shards = shards;
  out.seconds = timer.ElapsedSeconds();
  out.inserts = inserts.load();
  for (size_t s = 0; s < shards; ++s) {
    for (const cdbs::obs::MetricSnapshot& m :
         db.shard(s)->underlying().store()->metrics().Snapshot()) {
      if (m.name == "wal.syncs") out.wal_syncs += m.counter_value;
    }
  }
  db.Shutdown();
  std::filesystem::remove_all(dir);
  return out;
}

// Heap bytes in use, across all arenas and mmapped chunks.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Heap bytes per element kept after an in-memory 4-shard Open of D5 under
// `scheme`, printed on one line with its `guard` (0: none); negative when
// the Open fails.
double OpenBytesPerElement(const char* scheme, double guard) {
  const size_t before = HeapInUse();
  ShardedDbOptions options;
  options.shard_count = 4;
  options.read_workers = 1;
  options.shard.db.scheme_name = scheme;
  auto opened = ShardedDb::Open(cdbs::xml::GenerateShakespeareDataset(),
                                options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return -1;
  }
  const size_t after = HeapInUse();
  const uint64_t elements = (*opened)->TotalNodes();
  const double per_element =
      after > before ? static_cast<double>(after - before) / elements : 0.0;
  std::printf("  %-28s %" PRIu64 " elements, %.1f MB kept after Open, "
              "%.1f B/element",
              scheme, elements, (after - before) / 1e6, per_element);
  if (guard > 0) {
    std::printf(" (guard %.0f)\n", guard);
  } else {
    std::printf(" (not guarded)\n");
  }
  return per_element;
}

// The shard-open memory guard (see the file comment). Returns false when
// the heap V-CDBS keeps after Open exceeds kMaxOpenBytesPerElement.
bool ShardOpenMemoryGuard() {
  constexpr double kMaxOpenBytesPerElement = 96;
  cdbs::bench::Heading("Shard-open memory (in-memory, 4 shards, D5)");
  const double per_element =
      OpenBytesPerElement("V-CDBS-Containment", kMaxOpenBytesPerElement);
  if (per_element < 0) return false;
  for (const char* other :
       {"QED-Containment", "Hybrid-CDBS/QED-Containment"}) {
    if (OpenBytesPerElement(other, /*guard=*/0) < 0) return false;
  }
  cdbs::obs::MetricRegistry::Default()
      .GetGauge("bench.sharded.open_bytes_per_element",
                "Heap kept after an in-memory 4-shard Open, per element")
      ->Set(per_element);
  if (per_element > kMaxOpenBytesPerElement) {
    std::fprintf(stderr,
                 "FAIL: a 4-shard Open keeps %.1f B/element (guard %.0f) — "
                 "is a document kept on the serving path again?\n",
                 per_element, kMaxOpenBytesPerElement);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!ShardOpenMemoryGuard()) return 1;
  if (argc > 1 && std::string(argv[1]) == "memory") return 0;

  cdbs::bench::ConfigureTracerFromEnv();
  const uint64_t duration_ms = cdbs::bench::EnvKnob("CDBS_BENCH_MS", 400);
  const uint64_t shards = cdbs::bench::EnvKnob("CDBS_SHARD_BENCH_SHARDS", 4);
  const uint64_t fsync_delay_ms =
      cdbs::bench::EnvKnob("CDBS_SHARD_FSYNC_DELAY_MS", 2);
  const char* raw_pct = std::getenv("CDBS_SHARD_MIN_SCALE_PCT");
  const uint64_t min_scale_pct =
      (raw_pct != nullptr && std::string(raw_pct) == "0")
          ? 0
          : cdbs::bench::EnvKnob("CDBS_SHARD_MIN_SCALE_PCT", 150);

  cdbs::bench::Heading("Sharded group-commit throughput (docs/SHARDING.md)");
  std::printf(
      "  %d blocking clients, %zu documents, group_commit_limit=4, "
      "fsync delay %" PRIu64 " ms (wal.sync.crash delay spec)\n",
      kClients, kDocs, fsync_delay_ms);
  if (!cdbs::util::Failpoints::Activate(
           "wal.sync.crash",
           "delay=" + std::to_string(fsync_delay_ms) + ":prob=1")
           .ok()) {
    std::fprintf(stderr, "failed to arm the fsync delay failpoint\n");
    return 1;
  }

  std::printf("  %-8s %10s %12s %12s %16s\n", "shards", "inserts",
              "inserts/s", "fsyncs", "inserts/fsync");
  std::vector<PhaseResult> results;
  for (const uint64_t n : {uint64_t{1}, shards}) {
    PhaseResult r = RunPhase(n, duration_ms);
    std::printf("  %-8zu %10" PRIu64 " %12.0f %12" PRIu64 " %16.2f\n",
                r.shards, r.inserts, r.ips(), r.wal_syncs,
                r.wal_syncs > 0
                    ? static_cast<double>(r.inserts) / r.wal_syncs
                    : 0.0);
    cdbs::obs::MetricRegistry::Default()
        .GetGauge("bench.sharded.inserts_per_sec.shards" +
                      std::to_string(r.shards),
                  "Aggregate durable insert throughput at this shard count")
        ->Set(r.ips());
    results.push_back(r);
  }
  cdbs::util::Failpoints::DeactivateAll();

  const double scaling =
      results[0].ips() > 0 ? results[1].ips() / results[0].ips() : 0.0;
  std::printf("  -> %" PRIu64 " shards deliver %.2fx the single-shard "
              "throughput\n",
              shards, scaling);
  cdbs::obs::MetricRegistry::Default()
      .GetGauge("bench.sharded.scaling",
                "N-shard over 1-shard durable insert throughput")
      ->Set(scaling);
  cdbs::bench::DumpMetrics("sharded");

  if (min_scale_pct > 0 && scaling * 100 < static_cast<double>(min_scale_pct)) {
    std::fprintf(stderr,
                 "FAIL: %" PRIu64 "-shard throughput is only %.2fx the single "
                 "shard (floor %.2fx) — per-shard group commits are no longer "
                 "independent\n",
                 shards, scaling, min_scale_pct / 100.0);
    return 1;
  }
  return 0;
}
