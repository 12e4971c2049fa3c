#include "ladder.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>

#include "engine/xml_db.h"
#include "net/client.h"
#include "net/server.h"
#include "query/evaluator.h"

namespace perfbench {
namespace {

using cdbs::engine::XmlDb;
using cdbs::engine::XmlDbOptions;

// Sample sizes: reads per workload query, and writes.
constexpr size_t kReadsPerQuery = 6;
constexpr size_t kWrites = 128;
// Batch sizes for the tight-loop rungs (label predicates, snapshot pins).
constexpr size_t kLoopCalls = size_t{1} << 16;
constexpr int kLoopRepeats = 5;
constexpr int kPings = 64;
constexpr int kParsesPerRead = 20;

// Keeps the tight loops' results observable.
volatile int64_t g_sink = 0;

// Records the spans of one ladder request and returns rung durations.
class RequestTrace {
 public:
  RequestTrace(uint64_t id, std::string root, std::vector<Span>* out)
      : id_(id), root_(std::move(root)), out_(out), start_(NowNs()) {}

  ~RequestTrace() {
    out_->push_back({id_, root_, "", start_, NowNs(), 0});
  }

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  /// Runs `fn` as rung `name`; returns its duration in microseconds.
  template <typename Fn>
  double Rung(const char* name, Fn&& fn) {
    const uint64_t t0 = NowNs();
    fn();
    const uint64_t t1 = NowNs();
    out_->push_back({id_, name, root_, t0, t1, 0});
    return static_cast<double>(t1 - t0) / 1e3;
  }

 private:
  uint64_t id_;
  std::string root_;
  std::vector<Span>* out_;
  uint64_t start_;
};

// Median nanoseconds per call of `fn(i)` over kLoopCalls calls, repeated.
template <typename Fn>
Metric LoopNs(const std::string& name, Fn&& fn) {
  Samples per_call;
  for (int rep = 0; rep < kLoopRepeats; ++rep) {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < kLoopCalls; ++i) fn(i);
    per_call.Add(static_cast<double>(NowNs() - t0) / kLoopCalls);
  }
  return {name, per_call.Quantile(0.5), "ns", kLoopRepeats * kLoopCalls};
}

std::string ShardQuery(const std::string& xpath) {
  return "/" + std::string(cdbs::shard::kShardRootTag) + xpath;
}

// Private single-play databases for the engine rungs, opened on first use.
class PrivateDbs {
 public:
  PrivateDbs(const Corpus& corpus, std::string dir)
      : corpus_(corpus), dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
  }

  XmlDb* Get(size_t play, bool stored) {
    auto& slot = (stored ? stored_ : memory_)[play];
    if (slot == nullptr) {
      cdbs::xml::Document copy;
      copy.DeepCopy(corpus_.plays[play].root(), nullptr);
      XmlDbOptions options;
      if (stored) {
        options.storage_path =
            dir_ + "/play-" + std::to_string(play) + ".cdbs";
      }
      auto opened = XmlDb::Open(std::move(copy), options);
      if (!opened.ok()) return nullptr;
      slot = std::move(opened).value();
    }
    return slot.get();
  }

 private:
  const Corpus& corpus_;
  std::string dir_;
  std::map<size_t, std::unique_ptr<XmlDb>> memory_;
  std::map<size_t, std::unique_ptr<XmlDb>> stored_;
};

}  // namespace

std::vector<Metric> RunLadder(const LadderInput& in, ForkCounts* forks,
                              std::vector<std::string>* errors) {
  const Corpus& corpus = *in.corpus;
  cdbs::shard::ShardedDb& db = *in.db;
  const size_t plays = corpus.plays.size();
  const size_t nq = WorkloadQueries().size();
  const size_t factor = db.doc_count() / plays;
  cdbs::util::Random rng(in.seed ^ 0x1add3a5eedull);
  std::vector<Span> spans;
  std::vector<Metric> out;
  uint64_t request = uint64_t{1} << 48;  // ladder ids, apart from workloads

  auto server = cdbs::net::Server::StartSharded(&db, {});
  if (!server.ok()) {
    errors->push_back("ladder server: " + server.status().ToString());
    return out;
  }
  cdbs::net::ClientOptions copts;
  copts.port = (*server)->port();
  auto client = cdbs::net::CdbsClient::Connect(copts);
  if (!client.ok()) {
    errors->push_back("ladder client: " + client.status().ToString());
    return out;
  }
  cdbs::net::CdbsClient& cli = **client;

  // --- label predicates and snapshot pins on shard 0 ---------------------
  {
    const auto pin = db.shard(0)->PinSnapshot();
    const cdbs::labeling::Labeling& lab = pin->labeling();
    std::vector<NodeId> a(kLoopCalls), b(kLoopCalls);
    for (size_t i = 0; i < kLoopCalls; ++i) {
      do {
        a[i] = static_cast<NodeId>(rng.Uniform(lab.num_nodes()));
      } while (lab.skeleton().is_removed(a[i]));
      do {
        b[i] = static_cast<NodeId>(rng.Uniform(lab.num_nodes()));
      } while (lab.skeleton().is_removed(b[i]));
    }
    int64_t sink = 0;
    out.push_back(LoopNs("labeling.compare_ns", [&](size_t i) {
      sink += lab.CompareOrder(a[i], b[i]);
    }));
    out.push_back(LoopNs("labeling.is_ancestor_ns", [&](size_t i) {
      sink += lab.IsAncestor(a[i], b[i]) ? 1 : 0;
    }));
    g_sink = sink;
  }
  out.push_back(LoopNs("engine.pin_ns", [&](size_t) {
    const auto pin = db.shard(0)->PinSnapshot();
  }));

  // --- read rungs --------------------------------------------------------
  std::vector<size_t> order;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t k = 0; k < kReadsPerQuery; ++k) order.push_back(q);
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  Samples parse_us, scatter_us, imbalance, querydoc_us, net_read_us;
  std::vector<Samples> eval_ms(nq);
  Samples matches;
  for (size_t q : order) {
    const std::string& xpath = WorkloadQueries()[q];
    const uint64_t doc = rng.Uniform(db.doc_count());
    const size_t play = doc % plays;
    RequestTrace trace(++request, "ladder.read", &spans);

    for (int k = 0; k < kParsesPerRead; ++k) {
      parse_us.Add(trace.Rung("query.parse", [&] {
        if (!cdbs::query::ParseQuery(xpath).ok()) {
          errors->push_back("ladder: parse failed for " + xpath);
        }
      }));
    }
    size_t standalone = 0;
    const double standalone_us = trace.Rung("query.eval_standalone", [&] {
      standalone = cdbs::query::EvaluateQuery(corpus.parsed[q],
                                              *corpus.labeled[play])
                       .size();
    });
    const auto rewritten = cdbs::query::ParseQuery(ShardQuery(xpath)).value();
    double legs_sum = 0, legs_max = 0;
    uint64_t legs_total = 0;
    for (size_t s = 0; s < db.shard_count(); ++s) {
      const auto pin = db.shard(s)->PinSnapshot();
      const double leg = trace.Rung("shard.leg", [&] {
        legs_total += cdbs::query::EvaluateQuery(rewritten, pin.view()).size();
      });
      legs_sum += leg;
      legs_max = std::max(legs_max, leg);
    }
    eval_ms[q].Add(legs_sum / 1e3);
    imbalance.Add(legs_max / (legs_sum / db.shard_count()));

    uint64_t gathered = 0;
    const double count_all_us = trace.Rung("shard.count_all", [&] {
      auto r = db.CountAll(xpath);
      if (r.ok() && r->failed_shards == 0) gathered = r->total;
    });
    scatter_us.Add(count_all_us - legs_max);
    matches.Add(static_cast<double>(gathered));

    // The engine and wire rungs alternate which runs first, so neither
    // difference inherits a warm or cold writer/reader thread.
    size_t doc_matches = 0, net_matches = 0;
    double querydoc_us_one = 0, net_us = 0;
    auto engine_read = [&] {
      querydoc_us_one = trace.Rung("shard.query_doc", [&] {
        auto r = db.QueryDoc(doc, xpath);
        if (r.ok()) doc_matches = r->size();
      });
    };
    auto net_read = [&] {
      net_us = trace.Rung("net.query_doc", [&] {
        auto r = cli.QueryDoc(doc, xpath);
        if (r.ok()) net_matches = r->size();
      });
    };
    if (request % 2 == 0) {
      engine_read();
      net_read();
    } else {
      net_read();
      engine_read();
    }
    querydoc_us.Add(querydoc_us_one - standalone_us);
    net_read_us.Add(net_us - querydoc_us_one);

    const uint64_t want = corpus.ref[play][q];
    const uint64_t want_total = corpus.ref_total[q] * factor;
    if (standalone != want || doc_matches != want || net_matches != want ||
        gathered != want_total || legs_total != want_total) {
      errors->push_back("ladder: " + xpath + " on document " +
                        std::to_string(doc) + " disagrees with the reference");
    }
  }
  for (size_t q = 0; q < nq; ++q) {
    out.push_back({"query.eval_ms." + WorkloadQueryNames()[q],
                   eval_ms[q].Quantile(0.5), "ms", eval_ms[q].count()});
  }
  out.push_back({"query.matches_per_read", matches.Mean(), "count",
                 matches.count()});
  out.push_back({"query.parse_us", parse_us.Quantile(0.5), "us",
                 parse_us.count()});
  out.push_back({"shard.scatter_overhead_us", scatter_us.Quantile(0.5), "us",
                 scatter_us.count()});
  out.push_back({"shard.leg_imbalance", imbalance.Quantile(0.5), "ratio",
                 imbalance.count()});
  out.push_back({"shard.querydoc_overhead_us", querydoc_us.Quantile(0.5),
                 "us", querydoc_us.count()});
  out.push_back({"net.read_overhead_us", net_read_us.Quantile(0.5), "us",
                 net_read_us.count()});

  // --- write rungs -------------------------------------------------------
  const std::string private_dir = in.workdir + "/ladder";
  {
    PrivateDbs dbs(corpus, private_dir);
    std::vector<std::unique_ptr<cdbs::labeling::Labeling>> fork_of_shard;
    for (size_t s = 0; s < db.shard_count(); ++s) {
      fork_of_shard.push_back(
          db.shard(s)->PinSnapshot()->labeling().ForkShared());
    }
    Samples insert_ns, apply_us, persist_us, net_write_us;
    // The targets are already a seeded sample; each write takes its own.
    for (size_t i = 0; i < std::min(kWrites, in.targets->size()); ++i) {
      const Target t = (*in.targets)[i];
      const bool before = rng.Uniform(2) == 0;
      const size_t play = t.doc % plays;
      const NodeId local = t.id - db.DocRoot(t.doc);
      XmlDb* memory_db = dbs.Get(play, /*stored=*/false);
      XmlDb* stored_db = dbs.Get(play, /*stored=*/true);
      if (memory_db == nullptr || stored_db == nullptr) {
        errors->push_back("ladder: private XmlDb open failed");
        break;
      }
      RequestTrace trace(++request, "ladder.write", &spans);
      bool ok = true;

      cdbs::labeling::Labeling& fork = *fork_of_shard[db.ShardOfDoc(t.doc)];
      insert_ns.Add(1e3 * trace.Rung("labeling.insert", [&] {
        const cdbs::labeling::InsertResult r =
            before ? fork.InsertSiblingBefore(t.id)
                   : fork.InsertSiblingAfter(t.id);
        ++forks->inserts;
        forks->relabeled += r.relabeled;
        forks->overflows += r.overflow ? 1 : 0;
      }));
      const double apply = trace.Rung("engine.apply", [&] {
        ok &= (before ? memory_db->InsertElementBefore(local, "w")
                      : memory_db->InsertElementAfter(local, "w"))
                  .ok();
      });
      const double stored = trace.Rung("engine.persist", [&] {
        ok &= (before ? stored_db->InsertElementBefore(local, "w")
                      : stored_db->InsertElementAfter(local, "w"))
                  .ok();
      });
      apply_us.Add(apply);
      persist_us.Add(stored - apply);
      double sharded = 0, net = 0;
      auto engine_write = [&] {
        sharded = trace.Rung("shard.write", [&] {
          ok &= (before ? db.SubmitInsertBefore(t.doc, t.id, "w")
                        : db.SubmitInsertAfter(t.doc, t.id, "w"))
                    .get()
                    .ok();
        });
      };
      auto net_write = [&] {
        net = trace.Rung("net.write", [&] {
          ok &= (before ? cli.InsertBeforeIn(t.doc, t.id, "w")
                        : cli.InsertAfterIn(t.doc, t.id, "w"))
                    .ok();
        });
      };
      if (i % 2 == 0) {
        engine_write();
        net_write();
      } else {
        net_write();
        engine_write();
      }
      net_write_us.Add(net - sharded);
      if (!ok) errors->push_back("ladder: a write rung failed");
    }
    out.push_back({"labeling.insert_ns", insert_ns.Quantile(0.5), "ns",
                   insert_ns.count()});
    out.push_back({"engine.apply_us", apply_us.Quantile(0.5), "us",
                   apply_us.count()});
    out.push_back({"engine.persist_us", persist_us.Quantile(0.5), "us",
                   persist_us.count()});
    out.push_back({"net.write_overhead_us", net_write_us.Quantile(0.5), "us",
                   net_write_us.count()});
  }
  std::filesystem::remove_all(private_dir);

  Samples ping_us;
  for (int i = 0; i < kPings; ++i) {
    RequestTrace trace(++request, "ladder.ping", &spans);
    ping_us.Add(trace.Rung("net.ping", [&] {
      if (!cli.Ping().ok()) errors->push_back("ladder: ping failed");
    }));
  }
  out.push_back({"net.ping_us", ping_us.Quantile(0.5), "us", ping_us.count()});

  client->reset();
  (*server)->Shutdown();
  in.spans->Merge(std::move(spans));
  return out;
}

std::vector<Metric> CollectCounters(cdbs::shard::ShardedDb& db,
                                    const std::string& store_dir,
                                    const ForkCounts& forks) {
  uint64_t batch_sum = 0, groups = 0, wait_ns = 0, waits = 0;
  uint64_t publish_ns = 0, publishes = 0, bytes_copied = 0, snapshots = 0;
  uint64_t writes = 0, wal_syncs = 0, wal_bytes = 0, page_writes = 0;
  uint64_t relabeled = forks.relabeled, overflows = forks.overflows;
  uint64_t label_bits = 0, max_bits = 0, live_nodes = 0;
  for (size_t s = 0; s < db.shard_count(); ++s) {
    cdbs::engine::ConcurrentXmlDb* shard = db.shard(s);
    const cdbs::obs::MetricRegistry& reg = shard->metrics();
    const RegistryValue batch =
        ReadMetric(reg, "engine.concurrent.commit.batch");
    batch_sum += batch.sum;
    groups += batch.count;
    const RegistryValue wait =
        ReadMetric(reg, "engine.concurrent.write.wait.ns");
    wait_ns += wait.sum;
    waits += wait.count;
    const RegistryValue publish =
        ReadMetric(reg, "engine.concurrent.snapshot.publish.ns");
    publish_ns += publish.sum;
    publishes += publish.count;
    bytes_copied +=
        ReadMetric(reg, "engine.concurrent.snapshot.bytes_copied").counter;
    snapshots += ReadMetric(reg, "engine.concurrent.snapshots").counter;
    writes += ReadMetric(reg, "engine.concurrent.writes").counter;
    if (const auto* store = shard->underlying().store(); store != nullptr) {
      wal_syncs += ReadMetric(store->metrics(), "wal.syncs").counter;
      wal_bytes += ReadMetric(store->metrics(), "wal.bytes_written").counter;
      page_writes +=
          ReadMetric(store->metrics(), "storage.page_writes").counter;
    }
    const cdbs::engine::XmlDbStats stats = shard->Stats();
    relabeled += stats.relabeled_total;
    overflows += stats.overflow_events;

    const auto pin = shard->PinSnapshot();
    const cdbs::labeling::Labeling& lab = pin->labeling();
    for (NodeId n = 0; n < lab.num_nodes(); ++n) {
      if (lab.skeleton().is_removed(n)) continue;
      const uint64_t bits = 8 * lab.SerializeLabel(n).size();
      label_bits += bits;
      max_bits = std::max(max_bits, bits);
      ++live_nodes;
    }
  }
  auto ratio = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const cdbs::obs::MetricRegistry& global =
      cdbs::obs::MetricRegistry::Default();
  const uint64_t served = ReadMetric(global, "serve.requests").counter;
  const uint64_t frame_bytes =
      ReadMetric(global, "net.frame.rx.bytes").counter +
      ReadMetric(global, "net.frame.tx.bytes").counter;

  std::vector<Metric> out;
  out.push_back({"labeling.relabeled", static_cast<double>(relabeled),
                 "count", writes + forks.inserts});
  out.push_back({"labeling.overflows", static_cast<double>(overflows),
                 "count", writes + forks.inserts});
  out.push_back({"labeling.bits_per_node",
                 ratio(static_cast<double>(label_bits), live_nodes), "bits",
                 live_nodes});
  out.push_back({"labeling.max_bits", static_cast<double>(max_bits), "bits",
                 live_nodes});
  out.push_back({"engine.group_size", ratio(batch_sum, groups), "count",
                 groups});
  out.push_back({"engine.queue_wait_us", ratio(wait_ns / 1e3, waits), "us",
                 waits});
  out.push_back({"engine.publish_us", ratio(publish_ns / 1e3, publishes),
                 "us", publishes});
  out.push_back({"engine.publish_bytes", ratio(bytes_copied, snapshots),
                 "bytes", snapshots});
  out.push_back({"storage.wal_syncs_per_group", ratio(wal_syncs, groups),
                 "count", groups});
  out.push_back({"storage.wal_bytes_per_write", ratio(wal_bytes, writes),
                 "bytes", writes});
  out.push_back({"storage.page_writes_per_write", ratio(page_writes, writes),
                 "count", writes});
  out.push_back({"storage.bytes_per_node",
                 ratio(static_cast<double>(DirBytes(store_dir)),
                       db.TotalNodes()),
                 "bytes", db.TotalNodes()});
  // The client and the server share this process, so every frame is
  // counted once sent and once received: halve for bytes on the wire.
  out.push_back({"net.frame_bytes_per_op", ratio(frame_bytes / 2.0, served),
                 "bytes", served});
  out.push_back({"net.shed_share",
                 ratio(ReadMetric(global, "serve.requests_shed").counter,
                       served),
                 "share", served});
  out.push_back({"net.client_retries",
                 static_cast<double>(
                     ReadMetric(global, "serve.retries").counter),
                 "count", served});
  return out;
}

}  // namespace perfbench
