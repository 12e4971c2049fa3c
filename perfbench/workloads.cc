#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "ladder.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/sharded_db.h"
#include "xml/shakespeare.h"

namespace perfbench {
namespace {

using cdbs::Result;
using cdbs::net::CdbsClient;
using cdbs::net::Server;
using cdbs::shard::ShardedDb;

constexpr size_t kThreads = 4;     // serve_mixed client connections
// Distinct `line` targets picked at setup: kTargetsPerWriter for each
// connection's writer, and kLadderTargets more for the ladder's writes.
constexpr size_t kTargetsPerWriter = 16384;
constexpr size_t kLadderTargets = 512;
constexpr size_t kMaxErrors = 10;  // wrong answers spelled out per run
// serve_mixed offered load, requests/s over all connections: an eighth of
// what the same mix completed closed-loop (~3300/s on a 4-core host), so
// the load stays the same however much CPU the host steals.
constexpr double kServeRate = 400;
// One request in each block of this many, at a seeded place, is a write.
constexpr size_t kWriteEvery = 10;
// An open-loop request counts towards the `ops_per_s` detail only when it
// completes within this long of its due time.
constexpr double kLatencyBudgetUs = 50'000;
// The measured time is cut into this many equal slices, and `cpu_us_per_op`
// is the lower quartile over them of the slice's process CPU time over the
// operations completed in it. Other guests on the host slow this one down
// in bursts: CPU time per operation rose by 25% (query_corpus) and 50%
// (serve_mixed) while the host stole a third of the CPU. The lower quartile
// leaves such a burst out unless it covers three quarters of the run.
constexpr size_t kSlices = 15;
constexpr double kQuietQuarter = 0.25;

// Shape of one workload's engine.
struct Spec {
  size_t factor = 1;  // copies of D5
  size_t shards = 1;
  // Store-backed shards behind net::Server, driven by kThreads CdbsClient
  // connections in an open loop; otherwise in memory, driven by one
  // closed-loop client.
  bool served = false;
  int setups = 9;  // setup repetitions; the median is reported
};

Spec SpecOf(const std::string& workload) {
  if (workload == "query_corpus") return {10, 4, false, 5};
  return {1, 4, true, 9};  // serve_mixed
}

// The engine under test. Members are declared in teardown-reverse order:
// clients close before the server drains, the server before the database.
struct Engine {
  std::unique_ptr<ShardedDb> db;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<CdbsClient>> clients;

  ~Engine() { Close(); }
  void Close() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
    if (db != nullptr) db->Shutdown();
    db.reset();
  }
};

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Time one set-up took, in seconds.
struct SetupTime {
  double cpu = 0;        // process CPU time (see CpuNs)
  double wall = 0;
  double open_wall = 0;  // ShardedDb::Open alone
};

// Opens the engine. Input generation and store-directory cleanup happen
// before the clocks start; the set-up covers the open plus, where used, the
// server start and client connects.
bool OpenEngine(const Spec& spec, const Corpus& corpus,
                const std::string& store_dir, Engine* engine,
                SetupTime* time, std::string* error) {
  // Document d is play d % 37, the order ScaleDataset produces.
  std::vector<cdbs::xml::Document> docs =
      cdbs::xml::ScaleDataset(corpus.plays, spec.factor);
  cdbs::shard::ShardedDbOptions options;
  options.shard_count = spec.shards;
  options.read_workers = kThreads;
  if (spec.served) {
    std::filesystem::remove_all(store_dir);
    options.storage_dir = store_dir;
  }
  const uint64_t cpu0 = CpuNs();
  const uint64_t t0 = NowNs();
  auto db = ShardedDb::Open(std::move(docs), options);
  if (!db.ok()) {
    *error = "ShardedDb::Open: " + db.status().ToString();
    return false;
  }
  engine->db = std::move(db).value();
  const uint64_t t1 = NowNs();
  if (spec.served) {
    auto server = Server::StartSharded(engine->db.get(), {});
    if (!server.ok()) {
      *error = "Server::StartSharded: " + server.status().ToString();
      return false;
    }
    engine->server = std::move(server).value();
    cdbs::net::ClientOptions copts;
    copts.port = engine->server->port();
    for (size_t c = 0; c < kThreads; ++c) {
      auto client = CdbsClient::Connect(copts);
      if (!client.ok()) {
        *error = "CdbsClient::Connect: " + client.status().ToString();
        return false;
      }
      engine->clients.push_back(std::move(client).value());
    }
  }
  time->cpu = Seconds(CpuNs() - cpu0);
  time->wall = Seconds(NowNs() - t0);
  time->open_wall = Seconds(t1 - t0);
  return true;
}

// The measured interval.
struct Window {
  uint64_t start = 0;
  uint64_t end = 0;
  bool trace = false;

  // A trace run traces every second operation of each thread.
  bool Traced(uint64_t k) const { return trace && k % 2 == 1; }

  uint64_t SliceStart(size_t slice) const {
    return start + (end - start) * slice / kSlices;
  }
  // The slice `ns` falls in; kSlices when it is past the end.
  size_t SliceOf(uint64_t ns) const {
    if (ns <= start) return 0;
    return static_cast<size_t>(
        std::min<uint64_t>((ns - start) * kSlices / (end - start), kSlices));
  }
};

void SleepUntil(uint64_t ns) {
  const uint64_t now = NowNs();
  if (now < ns) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

// Reads the process CPU time at every slice boundary of the window, from a
// thread that sleeps in between.
class CpuSampler {
 public:
  explicit CpuSampler(const Window& window)
      : at_(kSlices + 1), thread_([this, window] {
          for (size_t s = 0; s <= kSlices; ++s) {
            SleepUntil(window.SliceStart(s));
            at_[s] = CpuNs();
          }
        }) {}
  ~CpuSampler() {
    if (thread_.joinable()) thread_.join();
  }

  // Waits for the window to end; returns the kSlices + 1 readings.
  const std::vector<uint64_t>& Join() {
    thread_.join();
    return at_;
  }

 private:
  std::vector<uint64_t> at_;
  std::thread thread_;
};

// Deals 0..n-1 in seeded shuffled blocks, each value once per block, so
// every seed issues the same mix and only its order changes.
class Deck {
 public:
  Deck(size_t n, cdbs::util::Random* rng) : n_(n), rng_(rng) {}

  size_t Next() {
    if (left_.empty()) {
      for (size_t i = 0; i < n_; ++i) left_.push_back(i);
      for (size_t i = n_; i > 1; --i) {
        std::swap(left_[i - 1], left_[rng_->Uniform(i)]);
      }
    }
    const size_t v = left_.back();
    left_.pop_back();
    return v;
  }

 private:
  size_t n_;
  cdbs::util::Random* rng_;
  std::vector<size_t> left_;
};

// One operation of the measured run.
struct Op {
  uint64_t due_ns = 0;
  uint64_t done_ns = 0;
  bool ok = false;      // succeeded with the right answer
  bool traced = false;  // its span was recorded

  double LatencyUs() const { return Us(done_ns - due_ns); }
};

// What the measured run produced.
struct Phase {
  std::vector<Op> reads, writes;
  Samples lag_us;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  uint64_t attempted() const { return reads.size() + writes.size(); }

  void Append(const Phase& other) {
    reads.insert(reads.end(), other.reads.begin(), other.reads.end());
    writes.insert(writes.end(), other.writes.begin(), other.writes.end());
    lag_us.Append(other.lag_us);
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < kMaxErrors) errors.push_back(e);
    }
  }

  // Notes a failure and keeps its first messages.
  void Fail(const std::string& message) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(message);
  }
};

// Runs `body(thread, phase, spans)` on `threads` threads (on the calling
// thread when it is 1) and merges their phases and spans.
template <typename Body>
Phase RunThreads(size_t threads, SpanLog* spans, Body&& body) {
  std::vector<Phase> phases(threads);
  std::vector<std::vector<Span>> local(threads);
  if (threads == 1) {
    body(0, &phases[0], &local[0]);
  } else {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] { body(t, &phases[t], &local[t]); });
    }
    for (std::thread& th : pool) th.join();
  }
  Phase out;
  for (const Phase& p : phases) out.Append(p);
  for (std::vector<Span>& s : local) spans->Merge(std::move(s));
  return out;
}

std::atomic<uint64_t> g_next_request{1};

// Records one span of a traced operation.
void RecordSpan(std::vector<Span>* spans, bool traced, const char* name,
                size_t thread, uint64_t t0, uint64_t t1) {
  if (!traced) return;
  spans->push_back({g_next_request.fetch_add(1), name, "", t0, t1,
                    static_cast<uint32_t>(thread)});
}

// One write of the mix over the wire. Inserts resolve with the new node id,
// deletes with the nodes removed.
Result<uint64_t> Execute(CdbsClient& client, const WriteOp& op) {
  const Target& t = op.target;
  switch (op.kind) {
    case WriteOp::Kind::kInsertBefore:
      return client.InsertBeforeIn(t.doc, t.id, "w");
    case WriteOp::Kind::kInsertAfter:
      return client.InsertAfterIn(t.doc, t.id, "w");
    case WriteOp::Kind::kDelete:
      return client.DeleteIn(t.doc, t.id);
  }
  return cdbs::Status::InvalidArgument("unknown write kind");
}

// Acknowledges (or fails) one executed write; true when it succeeded.
bool Acknowledge(Writer* writer, const WriteOp& op,
                 const Result<uint64_t>& result, Phase* phase) {
  if (!result.ok()) {
    phase->Fail("write failed: " + result.status().ToString());
    return false;
  }
  if (op.kind == WriteOp::Kind::kDelete) {
    writer->AckDelete(op);
  } else {
    writer->AckInsert(op, static_cast<NodeId>(*result));
  }
  return true;
}

// query_corpus: one closed-loop client, CountAll over the workload queries
// in seeded shuffled blocks.
Phase QueryCorpusPhase(ShardedDb& db, const Corpus& corpus, size_t factor,
                       uint64_t seed, const Window& window, SpanLog* spans) {
  const auto& queries = WorkloadQueries();
  cdbs::util::Random rng(seed);
  Deck deck(queries.size(), &rng);
  return RunThreads(1, spans, [&](size_t, Phase* phase,
                                  std::vector<Span>* local) {
    uint64_t prev_done = NowNs();
    for (uint64_t k = 0; NowNs() < window.end; ++k) {
      const size_t q = deck.Next();
      const bool traced = window.Traced(k);
      const uint64_t t0 = NowNs();
      phase->lag_us.Add(Us(t0 - prev_done));
      auto r = db.CountAll(queries[q]);
      const uint64_t t1 = NowNs();
      prev_done = t1;
      RecordSpan(local, traced, "shard.count_all", 0, t0, t1);
      const uint64_t want = corpus.ref_total[q] * factor;
      bool ok = false;
      if (!r.ok() || r->failed_shards != 0) {
        phase->Fail("CountAll(" + queries[q] + ") failed: " +
                    (r.ok() ? "partial" : r.status().ToString()));
      } else if (r->total != want) {
        phase->Fail("CountAll(" + queries[q] + ") = " +
                    std::to_string(r->total) + ", reference " +
                    std::to_string(want));
      } else {
        ok = true;
      }
      phase->reads.push_back({t0, t1, ok, traced});
    }
  });
}

// serve_mixed: kThreads connections, each sending on a fixed schedule (open
// loop) over the whole window, however late it runs. Latency runs from the
// scheduled send time. Each connection deals its writes, queries and
// documents from seeded shuffled blocks.
Phase ServeMixedPhase(Engine& engine, const Corpus& corpus,
                      std::vector<Writer>* writers, const Window& window,
                      SpanLog* spans) {
  const auto& queries = WorkloadQueries();
  const size_t plays = corpus.plays.size();
  const double interval_ns = kThreads * 1e9 / kServeRate;
  return RunThreads(kThreads, spans, [&](size_t c, Phase* phase,
                                         std::vector<Span>* local) {
    CdbsClient& client = *engine.clients[c];
    Writer& writer = (*writers)[c];
    Deck kinds(kWriteEvery, &writer.rng());
    Deck query_deck(queries.size(), &writer.rng());
    Deck doc_deck(engine.db->doc_count(), &writer.rng());
    const double offset_ns = interval_ns * static_cast<double>(c) / kThreads;
    for (uint64_t k = 0;; ++k) {
      const uint64_t due =
          window.start + static_cast<uint64_t>(
                             offset_ns + static_cast<double>(k) * interval_ns);
      if (due >= window.end) break;
      SleepUntil(due);
      const bool traced = window.Traced(k);
      const uint64_t send = NowNs();
      phase->lag_us.Add(Us(send - due));
      if (kinds.Next() == 0) {
        const WriteOp op = writer.Next();
        const Result<uint64_t> r = Execute(client, op);
        const uint64_t done = NowNs();
        RecordSpan(local, traced, "net.write", c, send, done);
        const bool ok = Acknowledge(&writer, op, r, phase);
        phase->writes.push_back({due, done, ok, traced});
        continue;
      }
      const uint64_t doc = doc_deck.Next();
      const size_t q = query_deck.Next();
      auto r = client.QueryDoc(doc, queries[q]);
      const uint64_t done = NowNs();
      RecordSpan(local, traced, "net.query_doc", c, send, done);
      const uint64_t want = corpus.ref[doc % plays][q];
      bool ok = false;
      if (!r.ok()) {
        phase->Fail("QueryDoc failed: " + r.status().ToString());
      } else if (r->size() != want) {
        phase->Fail("QueryDoc(" + std::to_string(doc) + ", " + queries[q] +
                    ") = " + std::to_string(r->size()) + ", reference " +
                    std::to_string(want));
      } else {
        ok = true;
      }
      phase->reads.push_back({due, done, ok, traced});
    }
  });
}

double PerSecond(double n, double seconds) {
  return seconds > 0 ? n / seconds : 0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"query_corpus",
                                                 "serve_mixed"};
  return names;
}

bool RunWorkload(const RunOptions& options, Report* report) {
  const Spec spec = SpecOf(options.workload);
  const std::unique_ptr<Corpus> corpus = LoadCorpus();
  const std::string store_dir = options.workdir + "/store-" + options.workload;

  // --- setup, repeated; the last engine is the one measured -------------
  Engine engine;
  std::vector<double> setup_cpu, setup_wall, open_wall;
  for (int i = 0; i < spec.setups; ++i) {
    engine.Close();
    SetupTime time;
    std::string error;
    if (!OpenEngine(spec, *corpus, store_dir, &engine, &time, &error)) {
      report->errors.push_back(error);
      return false;
    }
    setup_cpu.push_back(time.cpu);
    setup_wall.push_back(time.wall);
    open_wall.push_back(time.open_wall);
  }
  ShardedDb& db = *engine.db;

  cdbs::util::Random seeder(options.seed);
  std::vector<Target> targets = PickLineTargets(
      *corpus, db, kThreads * kTargetsPerWriter + kLadderTargets, &seeder);
  for (const Target& t : targets) {
    if (db.shard(db.ShardOfDoc(t.doc))->TagOf(t.id) != "line") {
      report->errors.push_back("write target " + std::to_string(t.id) +
                               " of document " + std::to_string(t.doc) +
                               " is not a line element");
      return false;
    }
  }
  const std::vector<Target> ladder_targets(targets.end() - kLadderTargets,
                                          targets.end());
  const size_t per_writer = (targets.size() - kLadderTargets) / kThreads;
  std::vector<Writer> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    const auto first = targets.begin() + t * per_writer;
    writers.emplace_back(seeder.Next(), db.doc_count(),
                         std::vector<Target>(first, first + per_writer));
  }
  const uint64_t query_seed = seeder.Next();

  // --- measured run ---------------------------------------------------
  Window window;
  window.start = NowNs();
  window.end = window.start + static_cast<uint64_t>(options.seconds * 1e9);
  window.trace = options.trace;
  SpanLog spans;
  const uint64_t cpu0 = CpuNs();
  const CpuTicks ticks0 = ReadCpuTicks();
  CpuSampler sampler(window);
  Phase run = spec.served
                  ? ServeMixedPhase(engine, *corpus, &writers, window, &spans)
                  : QueryCorpusPhase(db, *corpus, spec.factor, query_seed,
                                     window, &spans);
  const uint64_t cpu_ns = CpuNs() - cpu0;
  const CpuTicks ticks1 = ReadCpuTicks();
  const uint64_t run_end = std::max(NowNs(), window.end);
  const std::vector<uint64_t>& cpu_at = sampler.Join();
  report->errors = run.errors;
  if (spec.served) run.failed += CheckWrites(db, writers, &report->errors);

  // --- metrics ------------------------------------------------------------
  Samples all, reads, writes, traced_us, untraced_us;
  uint64_t good = 0, late = 0;
  std::vector<uint64_t> slice_done(kSlices + 1, 0);  // by completion time
  auto tally = [&](const std::vector<Op>& ops, Samples* kind) {
    for (const Op& op : ops) {
      ++slice_done[window.SliceOf(op.done_ns)];
      const double us = op.LatencyUs();
      const bool in_time = !spec.served || us <= kLatencyBudgetUs;
      kind->Add(us);
      all.Add(us);
      (op.traced ? traced_us : untraced_us).Add(us);
      late += in_time ? 0 : 1;
      good += op.ok && in_time ? 1 : 0;
    }
  };
  tally(run.reads, &reads);
  tally(run.writes, &writes);
  const uint64_t attempted = run.attempted();
  const uint64_t ok = attempted - std::min(run.failed, attempted);
  const double seconds = Seconds(run_end - window.start);
  const double bytes_per_node =
      spec.served ? static_cast<double>(DirBytes(store_dir)) /
                        static_cast<double>(db.TotalNodes())
                  : 0;
  auto share = [&](uint64_t n) {
    return attempted == 0 ? 0.0 : static_cast<double>(n) / attempted;
  };
  Samples slice_cpu_us;
  for (size_t s = 0; s < kSlices; ++s) {
    if (slice_done[s] == 0) continue;
    slice_cpu_us.Add(Us(cpu_at[s + 1] - cpu_at[s]) /
                     static_cast<double>(slice_done[s]));
  }
  const uint64_t ticks = ticks1.total - ticks0.total;
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_cpu), "s", setup_cpu.size()},
      {"cpu_us_per_op", slice_cpu_us.Quantile(kQuietQuarter), "us",
       attempted},
      {"ok_share", share(ok), "share", attempted},
      {"rss_peak_mb", PeakRssMb(), "MB", 1},
  };
  // Wall-clock figures. They move with the CPU the host steals from this
  // guest (host.steal_share), so they are printed, not gated.
  std::vector<Metric> wall = {
      {"host.steal_share",
       ticks == 0 ? 0
                  : static_cast<double>(ticks1.steal - ticks0.steal) /
                        static_cast<double>(ticks),
       "share", ticks},
      {"run.cpu_us_per_op",
       attempted == 0 ? 0 : Us(cpu_ns) / static_cast<double>(attempted), "us",
       attempted},
      {"slice.max_cpu_us_per_op", slice_cpu_us.Quantile(1.0), "us",
       slice_cpu_us.count()},
      {"setup.wall_s", Median(setup_wall), "s", setup_wall.size()},
      {"ops_per_s", PerSecond(static_cast<double>(good), seconds), "1/s",
       good},
      {"late_share", share(late), "share", attempted},
      {"mean_us", all.Mean(), "us", all.count()},
      {"p50_us", all.Quantile(0.5), "us", all.count()},
      {"p90_us", all.Quantile(0.90), "us", all.count()},
      {"p99_us", all.Quantile(0.99), "us", all.count()},
      {"read.qps", PerSecond(static_cast<double>(reads.count()), seconds),
       "1/s", reads.count()},
      {"read.p50_us", reads.Quantile(0.5), "us", reads.count()},
      {"read.p99_us", reads.Quantile(0.99), "us", reads.count()},
      {"write.ops_per_s",
       PerSecond(static_cast<double>(writes.count()), seconds), "1/s",
       writes.count()},
      {"write.p50_us", writes.Quantile(0.5), "us", writes.count()},
      {"write.p99_us", writes.Quantile(0.99), "us", writes.count()},
      {"ops.failed_share", share(run.failed), "share", attempted},
      {"store.bytes_per_node", bytes_per_node, "bytes", db.TotalNodes()},
  };
  report->attempted = attempted;
  report->failed = run.failed;

  if (!options.trace) {
    report->metrics = e2e;
    report->detail = wall;
    engine.Close();
    std::filesystem::remove_all(store_dir);
    return true;
  }

  // --- traced run: ladder, then the counters ------------------------------
  LadderInput ladder;
  ladder.corpus = corpus.get();
  ladder.db = &db;
  ladder.targets = &ladder_targets;
  ladder.seed = options.seed;
  ladder.workdir = options.workdir;
  ladder.spans = &spans;
  ForkCounts forks;
  std::vector<Metric> layers = RunLadder(ladder, &forks, &report->errors);
  for (Metric& m : CollectCounters(db, spec.served ? store_dir : "", forks)) {
    layers.push_back(std::move(m));
  }
  layers.push_back({"shard.open_s", Median(open_wall), "s", open_wall.size()});
  layers.push_back({"loadgen.lag_p99_us", run.lag_us.Quantile(0.99), "us",
                    run.lag_us.count()});
  // Mean latency of the traced operations (every second one of each
  // thread) over that of the untraced ones.
  layers.push_back(
      {"trace.overhead_share",
       untraced_us.Mean() > 0 ? traced_us.Mean() / untraced_us.Mean() - 1.0
                              : 0,
       "share", all.count()});
  report->metrics = layers;
  report->detail = e2e;
  report->detail.insert(report->detail.end(), wall.begin(), wall.end());

  const std::string trace_path = options.workdir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
  if (!spans.WriteChromeJson(trace_path)) {
    report->errors.push_back("could not write " + trace_path);
  }
  engine.Close();
  std::filesystem::remove_all(store_dir);
  return true;
}

}  // namespace perfbench
