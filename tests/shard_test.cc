#include "shard/sharded_db.h"

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "labeling/registry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/xpath.h"
#include "repl/replication.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs::shard {
namespace {

using engine::Admission;
using engine::WriteOp;

std::vector<xml::Document> Plays(size_t n) {
  std::vector<xml::Document> docs;
  for (size_t i = 0; i < n; ++i) {
    docs.push_back(xml::GeneratePlay(/*seed=*/i + 1, /*total_nodes=*/300 + 50 * i));
  }
  return docs;
}

// --------------------------------------------------------------------------
// Router

TEST(ShardRouterTest, HashIsStableAndInRange) {
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    for (uint64_t doc = 0; doc < 200; ++doc) {
      const uint32_t s = HashShardOf(doc, shards);
      EXPECT_LT(s, shards);
      // Stable: the same (doc, shard_count) always lands on the same shard.
      EXPECT_EQ(s, HashShardOf(doc, shards));
    }
  }
  // The hash actually spreads documents: 200 docs over 4 shards hit all 4.
  std::set<uint32_t> hit;
  for (uint64_t doc = 0; doc < 200; ++doc) hit.insert(HashShardOf(doc, 4));
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardRouterTest, ExplicitPlacementRoutesDocs) {
  ShardedDbOptions options;
  options.shard_count = 2;
  options.router = RouterKind::kExplicit;
  options.placement = {1, 0, 1};
  auto db = ShardedDb::Open(Plays(3), options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->shard_count(), 2u);
  EXPECT_EQ((*db)->doc_count(), 3u);
  EXPECT_EQ((*db)->ShardOfDoc(0), 1u);
  EXPECT_EQ((*db)->ShardOfDoc(1), 0u);
  EXPECT_EQ((*db)->ShardOfDoc(2), 1u);
  EXPECT_EQ((*db)->manifest().router, RouterKind::kExplicit);
  EXPECT_EQ((*db)->manifest().placement, (std::vector<uint32_t>{1, 0, 1}));
}

TEST(ShardRouterTest, ExplicitPlacementMustCoverEveryDoc) {
  ShardedDbOptions options;
  options.shard_count = 2;
  options.router = RouterKind::kExplicit;
  options.placement = {1, 0};  // three docs, two entries
  auto db = ShardedDb::Open(Plays(3), options);
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);

  options.placement = {1, 0, 2};  // shard 2 does not exist
  auto db2 = ShardedDb::Open(Plays(3), options);
  EXPECT_EQ(db2.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Manifest codec

TEST(ShardManifestTest, EncodeDecodeRoundTrips) {
  ShardManifest manifest;
  manifest.shard_count = 4;
  manifest.router = RouterKind::kExplicit;
  manifest.placement = {0, 3, 1, 1, 2};
  ShardManifest out;
  ASSERT_TRUE(DecodeManifest(EncodeManifest(manifest), &out).ok());
  EXPECT_EQ(out.shard_count, 4u);
  EXPECT_EQ(out.router, RouterKind::kExplicit);
  EXPECT_EQ(out.placement, manifest.placement);
}

TEST(ShardManifestTest, DetectsCorruption) {
  ShardManifest manifest;
  manifest.shard_count = 2;
  manifest.placement = {0, 1, 1};
  std::string bytes = EncodeManifest(manifest);
  bytes[bytes.size() / 2] ^= 0x40;
  ShardManifest out;
  EXPECT_EQ(DecodeManifest(bytes, &out).code(), StatusCode::kCorruption);
  EXPECT_FALSE(DecodeManifest("short", &out).ok());
}

// --------------------------------------------------------------------------
// Scheme names

TEST(ShardSchemeTest, RejectsUnknownSchemeBeforeWritingAManifest) {
  const std::string dir = ::testing::TempDir() + "/shard_unknown_scheme_" +
                          std::to_string(::getpid());
  ShardedDbOptions options;
  options.shard.db.scheme_name = "No-Such-Scheme";
  options.storage_dir = dir;
  auto db = ShardedDb::Open(Plays(2), options);
  ASSERT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("No-Such-Scheme"), std::string::npos)
      << db.status();
  struct stat st;
  EXPECT_NE(::stat((dir + "/MANIFEST").c_str(), &st), 0);
}

// --------------------------------------------------------------------------
// Document-scoped reads

TEST(ShardReadTest, DocScopedQueriesMatchPerDocGroundTruth) {
  // Ground truth: each play labeled and counted on its own.
  const std::vector<xml::Document> plays = Plays(4);
  const auto scheme = labeling::SchemeByName("QED-Prefix");
  std::vector<std::unique_ptr<query::LabeledDocument>> alone;
  for (const xml::Document& play : plays) {
    alone.push_back(std::make_unique<query::LabeledDocument>(play, *scheme));
  }

  ShardedDbOptions options;
  options.shard_count = 3;
  auto db = ShardedDb::Open(Plays(4), options);
  ASSERT_TRUE(db.ok()) << db.status();

  for (const char* q : {"/play/act", "//speech", "/play/act/scene", "//line"}) {
    auto query = query::ParseQuery(q);
    ASSERT_TRUE(query.ok()) << q;
    std::vector<uint64_t> truth;
    for (const auto& doc : alone) {
      truth.push_back(query::CountQuery(*query, *doc, doc->root()));
    }
    auto per_doc = (*db)->CountPerDoc(q);
    ASSERT_TRUE(per_doc.ok()) << q << ": " << per_doc.status();
    EXPECT_EQ(*per_doc, truth) << q;
    for (uint64_t doc = 0; doc < 4; ++doc) {
      auto count = (*db)->CountDoc(doc, q);
      ASSERT_TRUE(count.ok()) << q;
      EXPECT_EQ(*count, truth[doc]) << q << " doc " << doc;
    }
  }
}

TEST(ShardReadTest, QueryDocNeverReportsTheSyntheticRoot) {
  ShardedDbOptions options;
  options.shard_count = 2;
  auto db = ShardedDb::Open(Plays(2), options);
  ASSERT_TRUE(db.ok());
  for (uint64_t doc = 0; doc < 2; ++doc) {
    auto ids = (*db)->QueryDoc(doc, "/play");
    ASSERT_TRUE(ids.ok());
    ASSERT_EQ(ids->size(), 1u);
    // The document root is reported under its in-shard id, never id 0
    // (the synthetic shard root).
    EXPECT_EQ((*ids)[0], (*db)->DocRoot(doc));
    EXPECT_NE((*ids)[0], 0u);
  }
}

TEST(ShardReadTest, RejectsBadQueriesAndBadDocs) {
  auto db = ShardedDb::Open(Plays(2), ShardedDbOptions{});
  ASSERT_TRUE(db.ok());
  // A query that does not parse must fail loudly — the shard-root rewrite
  // must never turn a parse error into a silently-empty result.
  EXPECT_EQ((*db)->QueryDoc(0, "no-slash").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->CountAll("no-slash").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->QueryDoc(7, "/play").status().code(),
            StatusCode::kInvalidArgument);
}

// Every read is scoped to its document, so axes that leave a subtree
// (following::, ancestor::, parent::) and positional descendant steps never
// see the other documents merged into the same shard. Ground truth: each
// play labeled and evaluated alone. The merged shard lays document d out
// from DocRoot(d) in the standalone pre-order, so ids map by an offset.
// Every registered scheme serves a shard, so every scheme is checked.
TEST(ShardReadTest, ShardReadsMatchEachDocumentEvaluatedAlone) {
  for (const auto& scheme : labeling::AllSchemes()) {
    SCOPED_TRACE(scheme->name());
    std::vector<xml::Document> plays;
    for (size_t i = 0; i < 3; ++i) {
      plays.push_back(xml::GeneratePlay(i + 1, 800));
    }
    std::vector<std::unique_ptr<query::LabeledDocument>> alone;
    for (const xml::Document& play : plays) {
      alone.push_back(std::make_unique<query::LabeledDocument>(play, *scheme));
    }
    ShardedDbOptions options;
    options.shard_count = 1;
    options.shard.db.scheme_name = scheme->name();
    auto db = ShardedDb::Open(std::move(plays), options);
    ASSERT_TRUE(db.ok()) << db.status();

    for (const char* text :
         {"//act[2]/following::speaker", "//play[1]",
          "//act/scene[./following::act]", "/play/act[1]/following::act",
          "//speech/ancestor::*", "//act/parent::*"}) {
      auto query = query::ParseQuery(text);
      ASSERT_TRUE(query.ok()) << text;
      auto per_doc = (*db)->CountPerDoc(text);
      ASSERT_TRUE(per_doc.ok()) << text << ": " << per_doc.status();
      uint64_t sum = 0;
      for (uint64_t doc = 0; doc < 3; ++doc) {
        const std::vector<query::NodeId> want =
            query::EvaluateQuery(*query, *alone[doc]);
        ASSERT_FALSE(want.empty()) << text << " doc " << doc;
        auto ids = (*db)->QueryDoc(doc, text);
        ASSERT_TRUE(ids.ok()) << text << ": " << ids.status();
        ASSERT_EQ(ids->size(), want.size()) << text << " doc " << doc;
        for (size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ((*ids)[k], (*db)->DocRoot(doc) + want[k])
              << text << " doc " << doc;
        }
        EXPECT_EQ(*(*db)->CountDoc(doc, text), want.size())
            << text << " doc " << doc;
        EXPECT_EQ((*per_doc)[doc], want.size()) << text << " doc " << doc;
        sum += want.size();
      }
      auto gathered = (*db)->CountAll(text);
      ASSERT_TRUE(gathered.ok()) << text;
      EXPECT_EQ(gathered->total, sum) << text;
    }
  }
}

// Every shard is its own engine with its own registry; the process view
// sums their gauges instead of keeping whichever shard set one last.
TEST(ShardMetricsTest, ProcessViewSumsTheShardsGauges) {
  ShardedDbOptions options;
  options.shard_count = 4;
  auto db = ShardedDb::Open(Plays(4), options);
  ASSERT_TRUE(db.ok()) << db.status();
  auto live = [](const obs::MetricRegistry& registry) {
    for (const obs::MetricSnapshot& m : registry.Snapshot()) {
      if (m.name == "engine.concurrent.snapshots.live") return m.gauge_value;
    }
    return -1.0;
  };
  double shards_sum = 0;
  for (size_t i = 0; i < (*db)->shard_count(); ++i) {
    const double own = live((*db)->shard(i)->metrics());
    EXPECT_GE(own, 1.0) << "shard " << i;
    shards_sum += own;
  }
  EXPECT_GE(shards_sum, 4.0);
  EXPECT_DOUBLE_EQ(live(obs::MetricRegistry::Default()), shards_sum);
}

// shard.count lives in each corpus's own registry: the process view sums
// the live corpora instead of keeping whichever opened last.
TEST(ShardMetricsTest, ShardCountIsPerCorpus) {
  auto shard_count = [] {
    for (const obs::MetricSnapshot& m :
         obs::MetricRegistry::Default().Snapshot()) {
      if (m.name == "shard.count") return m.gauge_value;
    }
    return -1.0;
  };
  ShardedDbOptions four;
  four.shard_count = 4;
  auto big = ShardedDb::Open(Plays(4), four);
  ASSERT_TRUE(big.ok()) << big.status();
  auto small = ShardedDb::Open(Plays(1), {});
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_DOUBLE_EQ(shard_count(), 5.0);
  big->reset();
  EXPECT_DOUBLE_EQ(shard_count(), 1.0);
}

// A count whose last step needs no sort never builds the match list:
// query.eval.steps_counted adds one per document for Table 3's Q1, Q2, Q5
// and Q6, and nothing for Q3, whose preceding-sibling:: step is sorted.
TEST(ShardReadTest, CountAllCountsLastStepsWithoutAMatchList) {
  ShardedDbOptions options;
  options.shard_count = 3;
  auto db = ShardedDb::Open(Plays(5), options);
  ASSERT_TRUE(db.ok()) << db.status();
  const obs::Counter* counted =
      obs::MetricRegistry::Default().GetCounter("query.eval.steps_counted");
  const std::vector<std::string>& table3 = query::Table3Queries();
  for (const size_t q : {0u, 1u, 2u, 4u, 5u}) {
    const uint64_t before = counted->value();
    auto gathered = (*db)->CountAll(table3[q]);
    ASSERT_TRUE(gathered.ok()) << table3[q];
    EXPECT_GT(gathered->total, 0u) << table3[q];
    EXPECT_EQ(counted->value() - before, q == 2 ? 0u : (*db)->doc_count())
        << "Q" << q + 1;
  }
  const obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  EXPECT_NE(obs::ToJson(registry).find("\"query.eval.steps_counted\""),
            std::string::npos);
  EXPECT_NE(obs::ToPrometheus(registry).find("query_eval_steps_counted"),
            std::string::npos);
}

TEST(ShardAggregateTest, TotalNodesExcludesSyntheticRoots) {
  // GeneratePlay(1, 600) + GeneratePlay(2, 900) == 1500 corpus nodes; the
  // two synthetic shard roots must not leak into the aggregate.
  std::vector<xml::Document> docs;
  docs.push_back(xml::GeneratePlay(1, 600));
  docs.push_back(xml::GeneratePlay(2, 900));
  ShardedDbOptions options;
  options.shard_count = 2;
  options.router = RouterKind::kExplicit;
  options.placement = {0, 1};
  auto db = ShardedDb::Open(std::move(docs), options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->TotalNodes(), 1500u);
  EXPECT_GT((*db)->TotalLabelBits(), 0u);
}

// --------------------------------------------------------------------------
// Open: documents are ingested into the shard tree and freed

// Open ingests each input document into its shard's skeleton and frees it;
// no merged document exists. The shards must be byte-identical to shards
// opened over the inputs deep-copied under the synthetic root in corpus
// order.
TEST(ShardOpenTest, AdoptedShardsEqualDeepCopyMergedShards) {
  const std::vector<xml::Document> inputs = Plays(7);
  ShardedDbOptions options;
  options.shard_count = 3;
  auto db = ShardedDb::Open(Plays(7), options);
  ASSERT_TRUE(db.ok()) << db.status();

  std::vector<std::unique_ptr<engine::XmlDb>> reference;
  for (uint32_t s = 0; s < 3; ++s) {
    xml::Document merged;
    xml::Node* root = merged.CreateRoot(kShardRootTag);
    engine::NodeId next_id = 1;
    for (uint64_t d = 0; d < inputs.size(); ++d) {
      if ((*db)->ShardOfDoc(d) != s) continue;
      EXPECT_EQ((*db)->DocRoot(d), next_id) << "doc " << d;
      next_id += static_cast<engine::NodeId>(inputs[d].node_count());
      merged.DeepCopy(inputs[d].root(), root);
    }
    auto ref = engine::XmlDb::Open(std::move(merged), options.shard.db);
    ASSERT_TRUE(ref.ok()) << ref.status();
    auto image = (*db)->shard(s)->CaptureBootstrap();
    ASSERT_TRUE(image.ok()) << image.status();
    EXPECT_EQ(repl::EncodeBootstrapSpec(image->spec),
              repl::EncodeBootstrapSpec((*ref)->CaptureBootstrapSpec()))
        << "shard " << s;
    reference.push_back(std::move(ref).value());
  }
  (*db)->Shutdown();
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ((*db)->shard(s)->underlying().ToXml(), reference[s]->ToXml())
        << "shard " << s;
  }
}

// --------------------------------------------------------------------------
// Document-scoped writes

TEST(ShardWriteTest, WritesRouteToTheOwningShardAndAreReadable) {
  ShardedDbOptions options;
  options.shard_count = 2;
  options.router = RouterKind::kExplicit;
  options.placement = {0, 1, 1};
  auto db = ShardedDb::Open(Plays(3), options);
  ASSERT_TRUE(db.ok());

  auto acts = (*db)->QueryDoc(1, "/play/act");
  ASSERT_TRUE(acts.ok());
  ASSERT_FALSE(acts->empty());

  auto inserted =
      (*db)->Submit(1, WriteOp::InsertAfter(acts->front(), "encore")).get();
  ASSERT_TRUE(inserted.ok()) << inserted.status();

  // Read-your-writes: visible in doc 1, invisible in its shard-mates and
  // in other shards.
  EXPECT_EQ(*(*db)->CountDoc(1, "/play/encore"), 1u);
  EXPECT_EQ(*(*db)->CountDoc(0, "/play/encore"), 0u);
  EXPECT_EQ(*(*db)->CountDoc(2, "/play/encore"), 0u);
  auto gathered = (*db)->CountAll("/play/encore");
  ASSERT_TRUE(gathered.ok());
  EXPECT_EQ(gathered->total, 1u);

  // Delete it again, via the admission-controlled path.
  auto ids = (*db)->QueryDoc(1, "/play/encore");
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 1u);
  auto removed =
      (*db)->Submit(1, WriteOp::Delete(ids->front()), Admission::kShed).get();
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 1u);
  EXPECT_EQ(*(*db)->CountDoc(1, "/play/encore"), 0u);
}

TEST(ShardWriteTest, RejectsRootsAndCrossDocTargets) {
  ShardedDbOptions options;
  options.shard_count = 1;  // both docs share a shard: same id space
  auto db = ShardedDb::Open(Plays(2), options);
  ASSERT_TRUE(db.ok());

  // The synthetic shard root (id 0) is not addressable.
  EXPECT_EQ((*db)->Submit(0, WriteOp::Delete(0)).get().status().code(),
            StatusCode::kInvalidArgument);
  // The document root is rejected: a sibling of it would escape the doc.
  EXPECT_EQ((*db)
                ->Submit(0, WriteOp::InsertAfter((*db)->DocRoot(0), "x"))
                .get()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A node of doc 1 is not a valid target for doc 0, even in-shard.
  auto other = (*db)->QueryDoc(1, "/play/act");
  ASSERT_TRUE(other.ok());
  ASSERT_FALSE(other->empty());
  EXPECT_EQ(
      (*db)->Submit(0, WriteOp::Delete(other->front())).get().status().code(),
      StatusCode::kNotFound);
  // Out-of-range ids and docs.
  EXPECT_EQ((*db)->Submit(0, WriteOp::Delete(1u << 30)).get().status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*db)->Submit(9, WriteOp::Delete(1)).get().status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Scatter-gather

TEST(ShardScatterTest, CountAllAggregatesAcrossShards) {
  ShardedDbOptions options;
  options.shard_count = 4;
  auto db = ShardedDb::Open(Plays(6), options);
  ASSERT_TRUE(db.ok());
  auto gathered = (*db)->CountAll("/play/act");
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  EXPECT_EQ(gathered->total, 6u * 5u);  // every play has five acts
  EXPECT_EQ(gathered->failed_shards, 0u);
  ASSERT_EQ(gathered->per_shard.size(), 4u);
  uint64_t sum = 0;
  for (const ShardCount& entry : gathered->per_shard) {
    EXPECT_EQ(entry.code, StatusCode::kOk);
    sum += entry.count;
  }
  EXPECT_EQ(sum, gathered->total);
}

TEST(ShardScatterTest, OneUnavailableShardYieldsAPartialGather) {
  ShardedDbOptions options;
  options.shard_count = 3;
  options.router = RouterKind::kExplicit;
  options.placement = {0, 1, 2};
  auto db = ShardedDb::Open(Plays(3), options);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(util::Failpoints::Activate("shard.1.unavailable", "always").ok());
  auto gathered = (*db)->CountAll("/play/act");
  util::Failpoints::Deactivate("shard.1.unavailable");

  // Partial-failure semantics: the gather still succeeds, the dead shard
  // contributes a kUnavailable entry, the others still count.
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  EXPECT_EQ(gathered->failed_shards, 1u);
  ASSERT_EQ(gathered->per_shard.size(), 3u);
  EXPECT_EQ(gathered->per_shard[0].code, StatusCode::kOk);
  EXPECT_EQ(gathered->per_shard[1].code, StatusCode::kUnavailable);
  EXPECT_EQ(gathered->per_shard[2].code, StatusCode::kOk);
  EXPECT_EQ(gathered->total, 10u);  // five acts from each live shard
}

TEST(ShardScatterTest, AllShardsFailedFailsTheGather) {
  ShardedDbOptions options;
  options.shard_count = 2;
  auto db = ShardedDb::Open(Plays(2), options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(util::Failpoints::Activate("shard.0.unavailable", "always").ok());
  ASSERT_TRUE(util::Failpoints::Activate("shard.1.unavailable", "always").ok());
  auto gathered = (*db)->CountAll("/play/act");
  util::Failpoints::DeactivateAll();
  EXPECT_EQ(gathered.status().code(), StatusCode::kUnavailable);
}

// --------------------------------------------------------------------------
// Routed reads run on the caller's thread, through the engine's one read
// routine: deadline check, read.delay failpoint, deadline re-check.

uint64_t CounterValue(const obs::MetricRegistry& registry,
                      const std::string& name) {
  for (const obs::MetricSnapshot& m : registry.Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

class ShardRoutedReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedDbOptions options;
    options.shard_count = 2;
    options.router = RouterKind::kExplicit;
    options.placement = {0, 1, 1};
    auto db = ShardedDb::Open(Plays(3), options);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
  }

  void TearDown() override {
    util::Failpoints::DeactivateAll();
    obs::Tracer::Instance().Configure(obs::TraceOptions{});  // off
    obs::Tracer::Instance().Clear();
  }

  // Reads evaluated and requests shed by document 2's shard.
  uint64_t Reads() const {
    return CounterValue(db_->shard(1)->metrics(), "engine.concurrent.reads");
  }
  uint64_t Shed() const {
    return CounterValue(db_->shard(1)->metrics(),
                        "engine.concurrent.deadline_exceeded");
  }

  std::unique_ptr<ShardedDb> db_;
};

TEST_F(ShardRoutedReadTest, ExpiredDeadlineShedsWithoutEvaluating) {
  const uint64_t reads = Reads();
  const uint64_t shed = Shed();
  const util::Deadline expired = util::Deadline::AfterMillis(-10);
  EXPECT_EQ(db_->QueryDoc(2, "//speech", expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db_->CountDoc(2, "//speech", expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Reads(), reads) << "a shed read must not have been evaluated";
  EXPECT_EQ(Shed(), shed + 2);
  EXPECT_TRUE(db_->QueryDoc(2, "//speech", util::Deadline::AfterMillis(5000))
                  .ok());
  EXPECT_EQ(Reads(), reads + 1);
}

TEST_F(ShardRoutedReadTest, ReadDelayPastTheDeadlineSheds) {
  const uint64_t reads = Reads();
  const uint64_t shed = Shed();
  ASSERT_TRUE(
      util::Failpoints::Activate("engine.concurrent.read.delay", "delay=60")
          .ok());
  EXPECT_EQ(db_->QueryDoc(2, "//speech", util::Deadline::AfterMillis(20))
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db_->CountDoc(2, "//speech", util::Deadline::AfterMillis(20))
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  util::Failpoints::Deactivate("engine.concurrent.read.delay");
  EXPECT_EQ(Reads(), reads);
  EXPECT_EQ(Shed(), shed + 2);
}

// Every span of a routed read is recorded on the caller's thread and none
// waits in the pool's queue; a gather queues all legs but the last.
TEST_F(ShardRoutedReadTest, OnlyScatterLegsWaitInThePoolQueue) {
  obs::TraceOptions sampled;
  sampled.sample_every = 1;
  sampled.retain = 16;
  obs::Tracer::Instance().Configure(sampled);
  obs::Tracer::Instance().Clear();
  auto spans_of = [](const std::function<void()>& request) {
    { obs::RequestTrace trace(0); request(); }
    const auto retained = obs::Tracer::Instance().Retained();
    obs::Tracer::Instance().Clear();
    return retained.size() == 1 ? retained[0].spans
                                : std::vector<obs::Span>{};
  };
  auto count = [](const std::vector<obs::Span>& spans, obs::SpanName name) {
    size_t n = 0;
    for (const obs::Span& s : spans) n += s.name == name ? 1 : 0;
    return n;
  };
  for (const auto& routed : std::vector<std::function<void()>>{
           [&] { ASSERT_TRUE(db_->QueryDoc(2, "//speech").ok()); },
           [&] { ASSERT_TRUE(db_->CountDoc(2, "//speech").ok()); }}) {
    const std::vector<obs::Span> spans = spans_of(routed);
    ASSERT_EQ(count(spans, obs::SpanName::kEval), 1u);
    EXPECT_EQ(count(spans, obs::SpanName::kQueueWait), 0u);
    std::set<uint32_t> threads;
    for (const obs::Span& s : spans) threads.insert(s.tid);
    EXPECT_EQ(threads.size(), 1u) << "a routed read left the caller's thread";
  }
  const std::vector<obs::Span> gather =
      spans_of([&] { ASSERT_TRUE(db_->CountAll("//speech").ok()); });
  EXPECT_EQ(count(gather, obs::SpanName::kEval), 2u);
  EXPECT_EQ(count(gather, obs::SpanName::kQueueWait), 1u);
}

// --------------------------------------------------------------------------
// Persistence: manifest + per-shard WAL recovery

class ShardPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/shard_persist_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string ShardStorePath(size_t shard) const {
    return dir_ + "/shard-" + std::to_string(shard) + "/labels.cdbs";
  }

  std::string dir_;
};

TEST_F(ShardPersistenceTest, ManifestReopenPreservesPlacement) {
  std::vector<uint32_t> placement;
  {
    ShardedDbOptions options;
    options.shard_count = 3;
    options.storage_dir = dir_;
    auto db = ShardedDb::Open(Plays(5), options);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ((*db)->shard_count(), 3u);
    placement = (*db)->manifest().placement;
    ASSERT_EQ(placement.size(), 5u);
    (*db)->Shutdown();
  }
  {
    // Reopen asking for a DIFFERENT shard count: the manifest on disk wins,
    // so documents never silently move between shards (and their WALs).
    ShardedDbOptions options;
    options.shard_count = 2;
    options.storage_dir = dir_;
    auto db = ShardedDb::Open(Plays(5), options);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ((*db)->shard_count(), 3u);
    EXPECT_EQ((*db)->manifest().placement, placement);
    for (uint64_t doc = 0; doc < 5; ++doc) {
      EXPECT_EQ((*db)->ShardOfDoc(doc), placement[doc]);
    }
  }
}

TEST_F(ShardPersistenceTest, ManifestRejectsADifferentDocCount) {
  {
    ShardedDbOptions options;
    options.shard_count = 2;
    options.storage_dir = dir_;
    auto db = ShardedDb::Open(Plays(3), options);
    ASSERT_TRUE(db.ok()) << db.status();
    (*db)->Shutdown();
  }
  ShardedDbOptions options;
  options.shard_count = 2;
  options.storage_dir = dir_;
  auto db = ShardedDb::Open(Plays(4), options);
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardPersistenceTest, TornWalTailRecoversOnlyTheAffectedShard) {
  ShardedDbOptions options;
  options.shard_count = 2;
  options.router = RouterKind::kExplicit;
  options.placement = {0, 1};
  options.storage_dir = dir_;
  {
    auto db = ShardedDb::Open(Plays(2), options);
    ASSERT_TRUE(db.ok()) << db.status();
    // Commit one insert per shard so both logs have real records.
    for (uint64_t doc = 0; doc < 2; ++doc) {
      auto acts = (*db)->QueryDoc(doc, "/play/act");
      ASSERT_TRUE(acts.ok());
      const WriteOp encore = WriteOp::InsertAfter(acts->front(), "encore");
      ASSERT_TRUE((*db)->Submit(doc, encore).get().ok());
    }
    (*db)->Shutdown();
  }

  // Tear shard 1's log tail — a crash mid-append leaves a partial record.
  const std::string torn_log = ShardStorePath(1) + ".wal";
  const std::string clean_log = ShardStorePath(0) + ".wal";
  struct stat st {};
  ASSERT_EQ(::stat(torn_log.c_str(), &st), 0) << torn_log;
  const off_t before = st.st_size;
  {
    std::ofstream out(torn_log, std::ios::binary | std::ios::app);
    out << "garbage-partial-record";
  }
  ASSERT_EQ(::stat(clean_log.c_str(), &st), 0);
  const off_t clean_before = st.st_size;

  // The corpus recovers from its logs alone: shard 1 truncates its torn
  // tail, shard 0's log is untouched, and both acknowledged inserts are
  // back on the same placement.
  auto db = ShardedDb::Open({}, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->manifest().placement, (std::vector<uint32_t>{0, 1}));
  for (uint64_t doc = 0; doc < 2; ++doc) {
    EXPECT_EQ((*db)->CountDoc(doc, "/play/encore").value(), 1u) << doc;
  }
  ASSERT_EQ(::stat(torn_log.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, before);  // the garbage tail is gone
  ASSERT_EQ(::stat(clean_log.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, clean_before);
}

// A restart loses no acknowledged write: two stored shards, three plays,
// two inserts and a delete; the corpus reopened over its MANIFEST (no
// documents) is the same corpus, node ids included.
TEST_F(ShardPersistenceTest, RestartRecoversEveryAcknowledgedWrite) {
  ShardedDbOptions options;
  options.shard_count = 2;
  options.storage_dir = dir_;
  std::vector<engine::BootstrapSpec> before;
  {
    std::vector<xml::Document> docs;
    for (uint64_t i = 0; i < 3; ++i) {
      docs.push_back(xml::GeneratePlay(/*seed=*/i + 1, /*total_nodes=*/2000));
    }
    auto db = ShardedDb::Open(std::move(docs), options);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_EQ((*db)->CountAll("//speech")->total, 956u);
    for (uint64_t doc : {0, 2}) {
      const engine::NodeId act = (*db)->QueryDoc(doc, "/play/act")->front();
      ASSERT_TRUE(
          (*db)->Submit(doc, WriteOp::InsertAfter(act, "encore")).get().ok());
    }
    const engine::NodeId speech = (*db)->QueryDoc(1, "//speech")->front();
    ASSERT_TRUE((*db)->Submit(1, WriteOp::Delete(speech)).get().ok());
    EXPECT_EQ((*db)->CountAll("//encore")->total, 2u);
    EXPECT_EQ((*db)->CountAll("//speech")->total, 955u);
    (*db)->Shutdown();
    for (size_t s = 0; s < (*db)->shard_count(); ++s) {
      before.push_back((*db)->shard(s)->underlying().CaptureBootstrapSpec());
    }
  }

  auto db = ShardedDb::Open({}, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->doc_count(), 3u);
  EXPECT_EQ((*db)->CountAll("//encore")->total, 2u);
  EXPECT_EQ((*db)->CountAll("//speech")->total, 955u);
  ASSERT_EQ((*db)->shard_count(), before.size());
  for (size_t s = 0; s < before.size(); ++s) {
    const engine::BootstrapSpec after =
        (*db)->shard(s)->underlying().CaptureBootstrapSpec();
    EXPECT_EQ(after.xml, before[s].xml) << "shard " << s;
    EXPECT_EQ(after.ids, before[s].ids) << "shard " << s;
    EXPECT_EQ(after.next_id, before[s].next_id) << "shard " << s;
  }
  // And it keeps serving writes, at the next id of the recovered space.
  const uint32_t s0 = (*db)->ShardOfDoc(0);
  const engine::NodeId act = (*db)->QueryDoc(0, "/play/act")->front();
  EXPECT_EQ((*db)->Submit(0, WriteOp::InsertAfter(act, "again")).get().value(),
            before[s0].next_id);
}

// --------------------------------------------------------------------------
// The corpus as a unit: the shape of the paper's datasets (D5 is 37 plays,
// Fig. 6 queries D5 replicated ten times), served under any scheme.

std::vector<xml::Document> TwoPlays() {
  std::vector<xml::Document> docs;
  docs.push_back(xml::GeneratePlay(1, 600));
  docs.push_back(xml::GeneratePlay(2, 900));
  return docs;
}

ShardedDbOptions CorpusOptions(const std::string& scheme_name) {
  ShardedDbOptions options;
  options.shard_count = 2;
  options.shard.db.scheme_name = scheme_name;
  return options;
}

TEST(CorpusTest, AggregatesAcrossFiles) {
  auto db = ShardedDb::Open(TwoPlays(), CorpusOptions("V-CDBS-Containment"));
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->doc_count(), 2u);
  EXPECT_EQ((*db)->TotalNodes(), 1500u);
  EXPECT_GT((*db)->TotalLabelBits(), 0u);
  // Every play has five acts.
  auto acts = (*db)->CountAll("/play/act");
  ASSERT_TRUE(acts.ok());
  EXPECT_EQ(acts->total, 10u);
}

TEST(CorpusTest, PerFileCounts) {
  auto db = ShardedDb::Open(TwoPlays(), CorpusOptions("QED-Prefix"));
  ASSERT_TRUE(db.ok()) << db.status();
  auto per_file = (*db)->CountPerDoc("/play/act[4]");
  ASSERT_TRUE(per_file.ok());
  EXPECT_EQ(*per_file, (std::vector<uint64_t>{1, 1}));
}

TEST(CorpusTest, RejectsEmptyCorpus) {
  EXPECT_EQ(ShardedDb::Open({}, CorpusOptions("V-CDBS-Containment"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CorpusTest, RejectsBadQuery) {
  auto db = ShardedDb::Open(TwoPlays(), CorpusOptions("V-CDBS-Containment"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->CountAll("no-slash").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CorpusTest, SchemesAgreeOnCorpusCounts) {
  auto a = ShardedDb::Open(TwoPlays(), CorpusOptions("V-CDBS-Containment"));
  auto b = ShardedDb::Open(TwoPlays(), CorpusOptions("OrdPath1-Prefix"));
  ASSERT_TRUE(a.ok() && b.ok());
  for (const char* q : {"//speech", "/play/act/scene", "//line"}) {
    EXPECT_EQ((*a)->CountAll(q)->total, (*b)->CountAll(q)->total) << q;
  }
}

TEST(CorpusTest, MatchesPaperStyleWorkload) {
  // A miniature of the Figure 6 setup: a scaled corpus queried as a unit.
  std::vector<xml::Document> base;
  base.push_back(xml::GeneratePlay(7, 800));
  std::vector<xml::Document> docs = xml::ScaleDataset(base, 3);
  auto db =
      ShardedDb::Open(std::move(docs), CorpusOptions("F-CDBS-Containment"));
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->doc_count(), 3u);
  auto acts = (*db)->CountAll("/play/act");
  ASSERT_TRUE(acts.ok());
  EXPECT_EQ(acts->total, 15u);
}

// --------------------------------------------------------------------------
// Network front-end: doc-routed requests + scatter-gather over the wire

class ShardServerTest : public ::testing::Test {
 protected:
  void SetUp() override { Serve(/*write_queue_capacity=*/256); }

  /// Serves two plays, one per shard, each shard with a write queue of
  /// `write_queue_capacity`; replaces any corpus served before.
  void Serve(size_t write_queue_capacity) {
    TearDown();
    ShardedDbOptions options;
    options.shard_count = 2;
    options.router = RouterKind::kExplicit;
    options.placement = {0, 1};
    options.shard.write_queue_capacity = write_queue_capacity;
    auto db = ShardedDb::Open(Plays(2), options);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(*db);
    auto server = net::Server::StartSharded(db_.get(), net::ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  void TearDown() override {
    util::Failpoints::DeactivateAll();
    if (server_) server_->Shutdown();
    if (db_) db_->Shutdown();
  }

  net::ClientOptions ClientFor() const {
    net::ClientOptions o;
    o.port = server_->port();
    o.max_attempts = 5;
    o.base_backoff_ms = 1;
    o.max_backoff_ms = 20;
    o.jitter_seed = 4242;
    return o;
  }

  std::unique_ptr<ShardedDb> db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ShardServerTest, DocRoutedOpsEndToEnd) {
  auto client = net::CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok()) << client.status();

  // Doc-scoped query: five acts per play, addressed per document.
  for (uint64_t doc = 0; doc < 2; ++doc) {
    auto acts = (*client)->QueryDoc(doc, "/play/act");
    ASSERT_TRUE(acts.ok()) << acts.status();
    EXPECT_EQ(acts->size(), 5u) << "doc " << doc;
  }

  // Insert routed to doc 1's shard, then read-your-writes through both the
  // doc-scoped count and the scatter-gathered one.
  auto acts = (*client)->QueryDoc(1, "/play/act");
  ASSERT_TRUE(acts.ok());
  auto inserted = (*client)->InsertAfterIn(1, acts->front(), "encore");
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(*(*client)->CountIn(1, "/play/encore"), 1u);
  EXPECT_EQ(*(*client)->CountIn(0, "/play/encore"), 0u);

  auto gathered = (*client)->Count("/play/encore");
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  EXPECT_EQ(gathered->total, 1u);
  ASSERT_EQ(gathered->per_shard.size(), 2u);
  EXPECT_EQ(gathered->per_shard[0].code, StatusCode::kOk);
  EXPECT_EQ(gathered->per_shard[1].code, StatusCode::kOk);

  auto removed = (*client)->DeleteIn(1, *inserted);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 1u);
}

TEST_F(ShardServerTest, NodeAddressedOpsNeedADocumentId) {
  auto client = net::CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  // The legacy single-db Query carries no doc id; a sharded server cannot
  // route it and must say so instead of guessing.
  auto res = (*client)->Query("/play/act");
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->InsertAfter(1, "x").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardServerTest, FullShardQueueShedsWithRetryAfterHint) {
  // Stall the writers and fill the queue of doc 1's shard, then speak the
  // protocol directly so no client-side retry can mask the shed response.
  Serve(/*write_queue_capacity=*/4);
  const engine::NodeId act = db_->QueryDoc(1, "/play/act").value().front();
  engine::ConcurrentXmlDb* shard = db_->shard(db_->ShardOfDoc(1));
  ASSERT_TRUE(
      util::Failpoints::Activate("engine.concurrent.write.delay", "delay=400")
          .ok());
  std::vector<std::future<Result<uint64_t>>> queued;
  queued.push_back(db_->Submit(1, WriteOp::InsertAfter(act, "n")));
  // The writer has taken the pilot write and sleeps in the delay.
  while (shard->write_queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (size_t i = 0; i < shard->write_queue_capacity(); ++i) {
    queued.push_back(
        db_->Submit(1, WriteOp::InsertAfter(act, "n"), Admission::kShed));
  }
  ASSERT_EQ(shard->write_queue_depth(), shard->write_queue_capacity());

  Result<int> fd = net::ConnectTcp("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(fd.ok());
  net::Request req;
  req.op = net::Opcode::kInsertAfter;
  req.request_id = 1;
  req.doc_id = 1;
  req.target = act;
  req.tag = "n";
  ASSERT_TRUE(
      net::WriteFrame(*fd, net::EncodeFrame(net::EncodeRequest(req)), 2000)
          .ok());
  std::string payload;
  ASSERT_TRUE(net::ReadFrame(*fd, &payload, 2000).ok());
  net::Response resp;
  ASSERT_TRUE(net::DecodeResponse(payload, &resp).ok());
  ::close(*fd);
  EXPECT_EQ(resp.code, StatusCode::kRetryAfter) << resp.message;
  EXPECT_GE(resp.retry_after_ms, 1u);
  EXPECT_LE(resp.retry_after_ms, 2000u);

  util::Failpoints::Deactivate("engine.concurrent.write.delay");
  for (auto& f : queued) EXPECT_TRUE(f.get().ok());
}

TEST_F(ShardServerTest, PartialGatherCrossesTheWire) {
  auto client = net::CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(util::Failpoints::Activate("shard.0.unavailable", "always").ok());
  auto gathered = (*client)->Count("/play/act");
  util::Failpoints::Deactivate("shard.0.unavailable");
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  ASSERT_EQ(gathered->per_shard.size(), 2u);
  EXPECT_EQ(gathered->per_shard[0].code, StatusCode::kUnavailable);
  EXPECT_EQ(gathered->per_shard[1].code, StatusCode::kOk);
  EXPECT_EQ(gathered->total, 5u);
}

TEST_F(ShardServerTest, ReplicationOpcodesAreRejected) {
  auto client = net::CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  // Two shards have no one LSN stream to bootstrap from, and a primary
  // has nothing to promote; only a one-shard, one-document corpus
  // replicates.
  EXPECT_EQ((*client)->Promote().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->Bootstrap().status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cdbs::shard
