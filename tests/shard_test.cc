#include "shard/sharded_db.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/corpus.h"
#include "labeling/registry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/xpath.h"
#include "repl/replication.h"
#include "storage/label_store.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs::shard {
namespace {

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
// Env knobs (strict parse, same discipline as CDBS_NET_DRAIN_MS)

TEST(ShardKnobTest, ShardCountKnobParsesWholePositiveIntegersOnly) {
  EXPECT_EQ(ApplyShardCountKnob(nullptr, 4), 4u);
  EXPECT_EQ(ApplyShardCountKnob("", 4), 4u);
  EXPECT_EQ(ApplyShardCountKnob("8", 4), 8u);
  EXPECT_EQ(ApplyShardCountKnob("1", 4), 1u);
  // Anything short of a whole positive integer warns and keeps the
  // fallback: the server must come up even with a mangled knob.
  EXPECT_EQ(ApplyShardCountKnob("0", 4), 4u);      // shardless is not a thing
  EXPECT_EQ(ApplyShardCountKnob(" 8", 4), 4u);     // leading space
  EXPECT_EQ(ApplyShardCountKnob("8x", 4), 4u);     // trailing unit
  EXPECT_EQ(ApplyShardCountKnob("-2", 4), 4u);     // negative
  EXPECT_EQ(ApplyShardCountKnob("2.5", 4), 4u);    // fractional
  EXPECT_EQ(ApplyShardCountKnob("abc", 4), 4u);    // garbage
  EXPECT_EQ(ApplyShardCountKnob("99999999999999999999", 4), 4u);  // overflow
}

TEST(ShardKnobTest, RouterKnobAcceptsOnlyKnownNames) {
  EXPECT_EQ(ApplyShardRouterKnob(nullptr, RouterKind::kHash), RouterKind::kHash);
  EXPECT_EQ(ApplyShardRouterKnob("", RouterKind::kExplicit),
            RouterKind::kExplicit);
  EXPECT_EQ(ApplyShardRouterKnob("hash", RouterKind::kExplicit),
            RouterKind::kHash);
  EXPECT_EQ(ApplyShardRouterKnob("explicit", RouterKind::kHash),
            RouterKind::kExplicit);
  // Unknown names warn and keep the fallback (no fuzzy matching).
  EXPECT_EQ(ApplyShardRouterKnob("Hash", RouterKind::kExplicit),
            RouterKind::kExplicit);
  EXPECT_EQ(ApplyShardRouterKnob("random", RouterKind::kHash),
            RouterKind::kHash);
}

TEST(ShardKnobTest, ApplyEnvKnobsReadsTheProcessEnvironment) {
  ::setenv("CDBS_SHARD_COUNT", "3", 1);
  ::setenv("CDBS_SHARD_ROUTER", "hash", 1);
  ShardedDbOptions options;
  options.shard_count = 1;
  options.router = RouterKind::kExplicit;
  options.ApplyEnvKnobs();
  ::unsetenv("CDBS_SHARD_COUNT");
  ::unsetenv("CDBS_SHARD_ROUTER");
  EXPECT_EQ(options.shard_count, 3u);
  EXPECT_EQ(options.router, RouterKind::kHash);
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
// Scheme gating

TEST(ShardSchemeTest, RejectsDeepCloneSchemes) {
  // The per-shard publish path needs ForkShared() to genuinely share
  // state; deep-clone schemes would make every commit O(nodes).
  EXPECT_TRUE(SchemeSupportsSharedFork("V-CDBS-Containment"));
  EXPECT_TRUE(SchemeSupportsSharedFork("DeweyID(UTF8)-Prefix"));
  EXPECT_FALSE(SchemeSupportsSharedFork("QED-Prefix"));
  EXPECT_FALSE(SchemeSupportsSharedFork("Prime"));

  ShardedDbOptions options;
  options.shard.db.scheme_name = "QED-Prefix";
  auto db = ShardedDb::Open(Plays(2), options);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("QED-Prefix"), std::string::npos)
      << db.status();
}

// --------------------------------------------------------------------------
// Document-scoped reads

TEST(ShardReadTest, DocScopedQueriesMatchPerDocGroundTruth) {
  // Ground truth: the legacy per-file corpus path under a deep-clone
  // scheme evaluates each document in isolation.
  auto legacy = engine::Corpus::FromDocuments(Plays(4), "QED-Prefix");
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->sharded(), nullptr);

  ShardedDbOptions options;
  options.shard_count = 3;
  auto db = ShardedDb::Open(Plays(4), options);
  ASSERT_TRUE(db.ok()) << db.status();

  for (const char* q : {"/play/act", "//speech", "/play/act/scene", "//line"}) {
    auto truth = legacy->CountPerFile(q);
    ASSERT_TRUE(truth.ok()) << q;
    auto per_doc = (*db)->CountPerDoc(q);
    ASSERT_TRUE(per_doc.ok()) << q << ": " << per_doc.status();
    EXPECT_EQ(*per_doc, *truth) << q;
    for (uint64_t doc = 0; doc < 4; ++doc) {
      auto count = (*db)->CountDoc(doc, q);
      ASSERT_TRUE(count.ok()) << q;
      EXPECT_EQ(*count, (*truth)[doc]) << q << " doc " << doc;
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
TEST(ShardReadTest, ShardReadsMatchEachDocumentEvaluatedAlone) {
  std::vector<xml::Document> plays;
  for (size_t i = 0; i < 3; ++i) plays.push_back(xml::GeneratePlay(i + 1, 800));
  const auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  std::vector<std::unique_ptr<query::LabeledDocument>> alone;
  for (const xml::Document& play : plays) {
    alone.push_back(std::make_unique<query::LabeledDocument>(play, *scheme));
  }
  ShardedDbOptions options;
  options.shard_count = 1;
  options.shard.db.scheme_name = "V-CDBS-Containment";
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
// Open: documents are adopted, not copied

// Open adopts each input document into its shard's merged document without
// copying a node. The shards must be byte-identical to shards merged by
// deep-copying the inputs under the synthetic root in corpus order.
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

  auto inserted = (*db)->SubmitInsertAfter(1, acts->front(), "encore").get();
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
  auto removed = (*db)->TrySubmitDelete(1, ids->front()).get();
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
  EXPECT_EQ((*db)->SubmitDelete(0, 0).get().status().code(),
            StatusCode::kInvalidArgument);
  // The document root is rejected: a sibling of it would escape the doc.
  EXPECT_EQ((*db)
                ->SubmitInsertAfter(0, (*db)->DocRoot(0), "x")
                .get()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A node of doc 1 is not a valid target for doc 0, even in-shard.
  auto other = (*db)->QueryDoc(1, "/play/act");
  ASSERT_TRUE(other.ok());
  ASSERT_FALSE(other->empty());
  EXPECT_EQ((*db)->SubmitDelete(0, other->front()).get().status().code(),
            StatusCode::kNotFound);
  // Out-of-range ids and docs.
  EXPECT_EQ((*db)->SubmitDelete(0, 1u << 30).get().status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db)->SubmitDelete(9, 1).get().status().code(),
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
// Persistence: manifest + per-shard WAL recovery

class ShardPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/shard_persist_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
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
    // Commit one insert per shard so both WAL streams have real records.
    for (uint64_t doc = 0; doc < 2; ++doc) {
      auto acts = (*db)->QueryDoc(doc, "/play/act");
      ASSERT_TRUE(acts.ok());
      ASSERT_TRUE(
          (*db)->SubmitInsertAfter(doc, acts->front(), "encore").get().ok());
    }
    (*db)->Shutdown();
  }

  // Tear shard 1's WAL tail — a crash mid-append leaves a partial record.
  const std::string torn_wal = storage::LabelStore::WalPath(ShardStorePath(1));
  const std::string clean_wal =
      storage::LabelStore::WalPath(ShardStorePath(0));
  struct stat st {};
  ASSERT_EQ(::stat(torn_wal.c_str(), &st), 0) << torn_wal;
  const off_t before = st.st_size;
  {
    std::ofstream out(torn_wal, std::ios::binary | std::ios::app);
    out << "garbage-partial-record";
  }
  ASSERT_EQ(::stat(clean_wal.c_str(), &st), 0);
  const off_t clean_before = st.st_size;

  // Each shard recovers independently: shard 1 truncates its torn tail,
  // shard 0's stream is untouched.
  {
    storage::LabelStore torn;
    ASSERT_TRUE(torn.OpenExisting(ShardStorePath(1)).ok());
    ASSERT_TRUE(torn.VerifyChecksums().ok());
    storage::LabelStore clean;
    ASSERT_TRUE(clean.OpenExisting(ShardStorePath(0)).ok());
    ASSERT_TRUE(clean.VerifyChecksums().ok());
  }
  ASSERT_EQ(::stat(torn_wal.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, before);  // the garbage tail is gone
  ASSERT_EQ(::stat(clean_wal.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, clean_before);

  // And the sharded front-end itself comes back up on the same placement.
  auto db = ShardedDb::Open(Plays(2), options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->manifest().placement, (std::vector<uint32_t>{0, 1}));
}

// --------------------------------------------------------------------------
// Corpus integration

TEST(ShardCorpusTest, CowForkSchemesTakeTheShardedPath) {
  auto sharded = engine::Corpus::FromDocuments(Plays(3), "V-CDBS-Containment");
  ASSERT_TRUE(sharded.ok());
  EXPECT_NE(sharded->sharded(), nullptr);
  auto legacy = engine::Corpus::FromDocuments(Plays(3), "QED-Prefix");
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->sharded(), nullptr);
}

TEST(ShardCorpusTest, ShardCountKnobReachesTheCorpus) {
  ::setenv("CDBS_SHARD_COUNT", "2", 1);
  auto corpus = engine::Corpus::FromDocuments(Plays(5), "V-CDBS-Containment");
  ::unsetenv("CDBS_SHARD_COUNT");
  ASSERT_TRUE(corpus.ok());
  ASSERT_NE(corpus->sharded(), nullptr);
  EXPECT_EQ(corpus->sharded()->shard_count(), 2u);
}

// --------------------------------------------------------------------------
// Network front-end: doc-routed requests + scatter-gather over the wire

class ShardServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedDbOptions options;
    options.shard_count = 2;
    options.router = RouterKind::kExplicit;
    options.placement = {0, 1};
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
  // There is no per-shard LSN stream to promote or bootstrap from behind
  // the routing front-end; replication is wired per shard, not here.
  EXPECT_EQ((*client)->Promote().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->Bootstrap().status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cdbs::shard
