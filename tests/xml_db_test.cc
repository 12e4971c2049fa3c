#include "engine/xml_db.h"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/concurrent_db.h"
#include "labeling/registry.h"
#include "obs/metrics.h"
#include "repl/replication.h"
#include "util/random.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"
#include "xml/writer.h"

namespace cdbs::engine {
namespace {

constexpr char kDoc[] = "<library><shelf><book/><book/></shelf><desk/></library>";

TEST(XmlDbTest, OpenFromXmlAndQuery) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok()) << db.status();
  auto count = (*db)->Count("/library/shelf/book");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  EXPECT_EQ(*(*db)->Count("//book"), 2u);
  EXPECT_EQ(*(*db)->Count("/library/*"), 2u);
}

// A scheme name straight from a command line must come back as an error,
// not abort the process.
TEST(XmlDbTest, UnknownSchemeIsInvalidArgument) {
  XmlDbOptions options;
  options.scheme_name = "No-Such-Scheme";
  auto db = XmlDb::OpenFromXml(kDoc, options);
  ASSERT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("No-Such-Scheme"), std::string::npos)
      << db.status();

  ConcurrentXmlDbOptions concurrent;
  concurrent.db = options;
  auto served = ConcurrentXmlDb::OpenFromXml(kDoc, concurrent);
  ASSERT_EQ(served.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(served.status().message().find("No-Such-Scheme"),
            std::string::npos)
      << served.status();
}

// Opening seeds `labeling.label_bits` with one merged batch; the snapshot
// must equal recording every node's label size one by one.
TEST(XmlDbTest, OpenSeedsLabelBitsLikePerNodeRecords) {
  obs::Histogram* label_bits =
      obs::MetricRegistry::Default().GetHistogram("labeling.label_bits");
  label_bits->Reset();
  auto db = XmlDb::Open(xml::GeneratePlay(/*seed=*/3, 2000), {});
  ASSERT_TRUE(db.ok()) << db.status();
  obs::MetricRegistry expected_registry;
  obs::Histogram* expected = expected_registry.GetHistogram(
      "labeling.label_bits", "Stored label size in bits per node");
  const labeling::Labeling& lab = (*db)->labeling();
  ASSERT_GT(lab.num_nodes(), 1000u);
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    expected->Record(8 * lab.SerializedLabelSize(n));
  }
  auto find = [](const std::vector<obs::MetricSnapshot>& all) {
    for (const obs::MetricSnapshot& m : all) {
      if (m.name == "labeling.label_bits") return m;
    }
    ADD_FAILURE() << "labeling.label_bits missing";
    return obs::MetricSnapshot();
  };
  const obs::MetricSnapshot got =
      find(obs::MetricRegistry::Default().Snapshot());
  const obs::MetricSnapshot want = find(expected_registry.Snapshot());
  EXPECT_EQ(got.buckets, want.buckets);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.count, lab.num_nodes());
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
}

TEST(XmlDbTest, OpenRejectsBadXml) {
  EXPECT_FALSE(XmlDb::OpenFromXml("<broken>", {}).ok());
  EXPECT_FALSE(XmlDb::OpenFromXml("", {}).ok());
}

TEST(XmlDbTest, OpenRejectsEmptyDocument) {
  xml::Document empty;
  EXPECT_FALSE(XmlDb::Open(std::move(empty), {}).ok());
}

TEST(XmlDbTest, QueryRejectsBadXPath) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->Query("not-a-path").ok());
}

TEST(XmlDbTest, QueryOne) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  auto shelf = (*db)->QueryOne("/library/shelf");
  ASSERT_TRUE(shelf.ok());
  EXPECT_EQ((*db)->TagOf(*shelf), "shelf");
  EXPECT_EQ((*db)->QueryOne("//nothing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db)->QueryOne("//book").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(XmlDbTest, InsertBeforeShowsUpInQueriesAndXml) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  auto desk = (*db)->QueryOne("/library/desk");
  ASSERT_TRUE(desk.ok());
  auto inserted = (*db)->InsertElementBefore(*desk, "lamp");
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(*(*db)->Count("/library/lamp"), 1u);
  EXPECT_EQ(*(*db)->Count("/library/*"), 3u);
  // Order: shelf < lamp < desk.
  auto shelf = (*db)->QueryOne("/library/shelf");
  ASSERT_TRUE(shelf.ok());
  EXPECT_LT((*db)->CompareOrder(*shelf, *inserted), 0);
  EXPECT_LT((*db)->CompareOrder(*inserted, *desk), 0);
  // The serialized tree reflects the insertion at the right position.
  EXPECT_EQ((*db)->ToXml(),
            "<library><shelf><book/><book/></shelf><lamp/><desk/></library>");
}

TEST(XmlDbTest, InsertAfterLastChild) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  auto desk = (*db)->QueryOne("/library/desk");
  ASSERT_TRUE(desk.ok());
  auto chair = (*db)->InsertElementAfter(*desk, "chair");
  ASSERT_TRUE(chair.ok());
  EXPECT_EQ((*db)->ToXml(),
            "<library><shelf><book/><book/></shelf><desk/><chair/></library>");
  EXPECT_GT((*db)->CompareOrder(*chair, *desk), 0);
}

TEST(XmlDbTest, InsertRejectsRootAndBadIds) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->InsertElementBefore(0, "x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->InsertElementBefore(999, "x").status().code(),
            StatusCode::kOutOfRange);
}

TEST(XmlDbTest, IntermittentInsertionsNoRelabelingWithCdbs) {
  auto db = XmlDb::OpenFromXml(kDoc, {});  // V-CDBS-Containment default
  ASSERT_TRUE(db.ok());
  // A handful of insertions spread across the document: zero re-labels.
  auto desk = (*db)->QueryOne("/library/desk");
  ASSERT_TRUE(desk.ok());
  ASSERT_TRUE((*db)->InsertElementBefore(*desk, "note").ok());
  auto shelf = (*db)->QueryOne("/library/shelf");
  ASSERT_TRUE(shelf.ok());
  ASSERT_TRUE((*db)->InsertElementBefore(*shelf, "sign").ok());
  auto book = (*db)->Query("/library/shelf/book");
  ASSERT_TRUE(book.ok());
  ASSERT_TRUE((*db)->InsertElementAfter((*book)[1], "bookmark").ok());
  const XmlDbStats stats = (*db)->Stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.node_count, 8u);
  EXPECT_EQ(stats.relabeled_total, 0u);  // the CDBS guarantee
  EXPECT_EQ(stats.overflow_events, 0u);
}

// core.cdbs.insert_between counts Algorithm 1 midpoints only: the open
// bulk-encodes every value with Algorithm 2 (one core.cdbs.encode_range),
// and an element insert places a start and an end code (docs/
// OBSERVABILITY.md).
TEST(XmlDbTest, OpenCountsOneBulkEncodeAndAnInsertTwoMidpoints) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  const obs::Counter* between =
      registry.GetCounter("core.cdbs.insert_between");
  const obs::Counter* bulk = registry.GetCounter("core.cdbs.encode_range");
  const uint64_t between0 = between->value();
  const uint64_t bulk0 = bulk->value();
  XmlDbOptions options;
  options.scheme_name = "V-CDBS-Containment";
  auto db = XmlDb::Open(xml::GeneratePlay(/*seed=*/3, 2000), options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(between->value() - between0, 0u);
  EXPECT_EQ(bulk->value() - bulk0, 1u);

  auto line = (*db)->Query("//line");
  ASSERT_TRUE(line.ok() && !line->empty());
  ASSERT_TRUE((*db)->InsertElementAfter((*line)[0], "w").ok());
  EXPECT_EQ(between->value() - between0, 2u);
  EXPECT_EQ(bulk->value() - bulk0, 1u);
  EXPECT_EQ((*db)->Stats().relabeled_total, 0u);
}

TEST(XmlDbTest, SkewedInsertionsOverflowButStayCorrect) {
  // On a tiny document the V-CDBS length field is small, so sustained
  // fixed-place insertion overflows (Example 6.1). The database must absorb
  // the re-encode and keep answering correctly.
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  auto target = (*db)->QueryOne("/library/desk");
  ASSERT_TRUE(target.ok());
  NodeId t = *target;
  for (int i = 0; i < 20; ++i) {
    auto inserted = (*db)->InsertElementBefore(t, "note");
    ASSERT_TRUE(inserted.ok());
    t = *inserted;
  }
  const XmlDbStats stats = (*db)->Stats();
  EXPECT_EQ(stats.insertions, 20u);
  EXPECT_EQ(stats.node_count, 25u);
  EXPECT_GT(stats.overflow_events, 0u);
  EXPECT_EQ(*(*db)->Count("/library/note"), 20u);
  EXPECT_EQ(*(*db)->Count("/library/*"), 22u);
}

TEST(XmlDbTest, BinarySchemeRelabelsOnInsert) {
  XmlDbOptions options;
  options.scheme_name = "V-Binary-Containment";
  auto db = XmlDb::OpenFromXml(kDoc, options);
  ASSERT_TRUE(db.ok());
  auto desk = (*db)->QueryOne("/library/desk");
  ASSERT_TRUE(desk.ok());
  ASSERT_TRUE((*db)->InsertElementBefore(*desk, "lamp").ok());
  EXPECT_GT((*db)->Stats().relabeled_total, 0u);
  // Queries stay correct after the re-label.
  EXPECT_EQ(*(*db)->Count("/library/*"), 3u);
}

class XmlDbPersistenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(XmlDbPersistenceTest, UpdatesFlowToStore) {
  XmlDbOptions options;
  options.scheme_name = GetParam();
  options.storage_path = ::testing::TempDir() + "/xml_db_" +
                         std::to_string(::getpid()) + "_" +
                         std::to_string(reinterpret_cast<uintptr_t>(this)) +
                         ".db";
  auto db = XmlDb::OpenFromXml(kDoc, options);
  ASSERT_TRUE(db.ok()) << db.status();
  const uint64_t writes_initial = (*db)->Stats().store_page_writes;
  EXPECT_GT(writes_initial, 0u);  // the bulk load
  auto desk = (*db)->QueryOne("/library/desk");
  ASSERT_TRUE(desk.ok());
  ASSERT_TRUE((*db)->InsertElementBefore(*desk, "lamp").ok());
  EXPECT_GT((*db)->Stats().store_page_writes, writes_initial);
  EXPECT_EQ(*(*db)->Count("/library/lamp"), 1u);
  std::remove(options.storage_path.c_str());
  std::remove((options.storage_path + ".wal").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, XmlDbPersistenceTest,
    ::testing::Values("V-CDBS-Containment", "V-Binary-Containment",
                      "QED-Prefix", "DeweyID(UTF8)-Prefix", "Prime",
                      "Float-point-Containment"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(XmlDbTest, DeleteElementRemovesSubtree) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  auto shelf = (*db)->QueryOne("/library/shelf");
  ASSERT_TRUE(shelf.ok());
  auto removed = (*db)->DeleteElement(*shelf);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 3u);  // shelf + 2 books
  EXPECT_EQ(*(*db)->Count("//book"), 0u);
  EXPECT_EQ(*(*db)->Count("/library/*"), 1u);
  EXPECT_EQ((*db)->ToXml(), "<library><desk/></library>");
  EXPECT_EQ((*db)->Stats().deletions, 3u);
}

TEST(XmlDbTest, DeleteThenInsertReusesTheGap) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  auto shelf = (*db)->QueryOne("/library/shelf");
  ASSERT_TRUE(shelf.ok());
  ASSERT_TRUE((*db)->DeleteElement(*shelf).ok());
  auto desk = (*db)->QueryOne("/library/desk");
  ASSERT_TRUE(desk.ok());
  auto cabinet = (*db)->InsertElementBefore(*desk, "cabinet");
  ASSERT_TRUE(cabinet.ok());
  EXPECT_EQ((*db)->ToXml(), "<library><cabinet/><desk/></library>");
  EXPECT_LT((*db)->CompareOrder(*cabinet, *desk), 0);
}

TEST(XmlDbTest, DeleteRejectsRootAndDoubleDelete) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->DeleteElement(0).status().code(),
            StatusCode::kInvalidArgument);
  auto shelf = (*db)->QueryOne("/library/shelf");
  ASSERT_TRUE(shelf.ok());
  ASSERT_TRUE((*db)->DeleteElement(*shelf).ok());
  EXPECT_EQ((*db)->DeleteElement(*shelf).status().code(),
            StatusCode::kNotFound);
}

TEST(XmlDbTest, PrimeDeleteRecomputesScValues) {
  XmlDbOptions options;
  options.scheme_name = "Prime";
  auto db = XmlDb::OpenFromXml(kDoc, options);
  ASSERT_TRUE(db.ok());
  auto shelf = (*db)->QueryOne("/library/shelf");
  ASSERT_TRUE(shelf.ok());
  ASSERT_TRUE((*db)->DeleteElement(*shelf).ok());
  // Orders shifted, so SC values were recomputed.
  EXPECT_GT((*db)->Stats().relabeled_total, 0u);
  EXPECT_EQ(*(*db)->Count("/library/*"), 1u);
}

TEST(XmlDbTest, StoreFileIsReopenableAndComplete) {
  XmlDbOptions options;
  options.storage_path = ::testing::TempDir() + "/xml_db_reopen_" +
                         std::to_string(::getpid()) + ".db";
  {
    auto db = XmlDb::OpenFromXml(kDoc, options);
    ASSERT_TRUE(db.ok());
    auto desk = (*db)->QueryOne("/library/desk");
    ASSERT_TRUE(desk.ok());
    ASSERT_TRUE((*db)->InsertElementBefore(*desk, "lamp").ok());
  }
  // The store on disk is a valid label store holding one record per node.
  cdbs::storage::LabelStore store;
  ASSERT_TRUE(store.OpenExisting(options.storage_path).ok());
  EXPECT_EQ(store.size(), 6u);  // 5 original + 1 inserted
  std::string record;
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_TRUE(store.Read(i, &record).ok()) << i;
    EXPECT_FALSE(record.empty()) << i;
  }
  std::remove(options.storage_path.c_str());
  std::remove((options.storage_path + ".wal").c_str());
}

// A label that outgrows its store slot forces a full store rewrite; each
// one is counted and timed in the db's registry and, through it, in the
// process view.
TEST(XmlDbTest, StoreReloadsAreCountedAndTimed) {
  auto process_reloads = [] {
    for (const obs::MetricSnapshot& m :
         obs::MetricRegistry::Default().Snapshot()) {
      if (m.name == "engine.store.reloads") return m.counter_value;
    }
    return uint64_t{0};
  };
  const uint64_t process_before = process_reloads();
  XmlDbOptions options;
  options.storage_path = ::testing::TempDir() + "/xml_db_reloads_" +
                         std::to_string(::getpid()) + ".db";
  options.store_headroom = 0;  // no slack: the first longer label outgrows
  auto db = XmlDb::OpenFromXml(kDoc, options);
  ASSERT_TRUE(db.ok()) << db.status();
  auto target = (*db)->QueryOne("/library/desk");
  ASSERT_TRUE(target.ok());
  NodeId t = *target;
  for (int i = 0; i < 20; ++i) {
    auto inserted = (*db)->InsertElementBefore(t, "note");
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    t = *inserted;
  }
  uint64_t reloads = 0;
  uint64_t timed = 0;
  for (const obs::MetricSnapshot& m : (*db)->metrics().Snapshot()) {
    if (m.name == "engine.store.reloads") reloads = m.counter_value;
    if (m.name == "engine.store.reload.ns") timed = m.count;
  }
  EXPECT_GE(reloads, 1u);
  EXPECT_EQ(timed, reloads);
  EXPECT_GE(process_reloads() - process_before, reloads);
  db->reset();
  EXPECT_GE(process_reloads() - process_before, reloads);
  std::remove(options.storage_path.c_str());
  std::remove((options.storage_path + ".wal").c_str());
}

TEST(XmlDbTest, WorksOnGeneratedPlay) {
  xml::Document play = xml::GeneratePlay(3, 2000);
  auto db = XmlDb::Open(std::move(play), {});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->Count("/play/act"), 5u);
  auto act2 = (*db)->QueryOne("/play/act[2]");
  ASSERT_TRUE(act2.ok());
  auto inserted = (*db)->InsertElementBefore(*act2, "interlude");
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*(*db)->Count("/play/interlude"), 1u);
  EXPECT_EQ(*(*db)->Count("/play/act"), 5u);
  // The interlude sits between act 1 and act 2 in document order.
  auto act1 = (*db)->QueryOne("/play/act[1]");
  ASSERT_TRUE(act1.ok());
  EXPECT_LT((*db)->CompareOrder(*act1, *inserted), 0);
  EXPECT_LT((*db)->CompareOrder(*inserted, *act2), 0);
}

// --- id-preserving bootstrap (OpenFromBootstrap) ---
//
// A replica rebuilt from a bootstrap spec must answer every query with the
// *same node ids* as the source, keep burnt ids burnt, and assign the same
// id to the next insertion — otherwise the logical replication stream that
// resumes after the snapshot mis-applies (docs/REPLICATION.md).

/// Every query in `paths` returns identical id vectors on both databases.
void ExpectSameAnswers(XmlDb* a, XmlDb* b,
                       const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    auto lhs = a->Query(path);
    auto rhs = b->Query(path);
    ASSERT_TRUE(lhs.ok()) << path << ": " << lhs.status();
    ASSERT_TRUE(rhs.ok()) << path << ": " << rhs.status();
    EXPECT_EQ(*lhs, *rhs) << path;
  }
}

TEST(XmlDbBootstrapTest, UntouchedDatabaseTakesTheIdentityFastPath) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  const BootstrapSpec spec = (*db)->CaptureBootstrapSpec();
  EXPECT_EQ(spec.next_id, 5u);
  EXPECT_EQ(spec.original_count, 5u);
  auto clone = XmlDb::OpenFromBootstrap(spec, {});
  ASSERT_TRUE(clone.ok()) << clone.status();
  EXPECT_EQ((*clone)->ToXml(), (*db)->ToXml());
  ExpectSameAnswers(db->get(), clone->get(),
                    {"//book", "//shelf", "/library/*"});
}

TEST(XmlDbBootstrapTest, ReconstructionPreservesAMutatedIdSpace) {
  // ids at open: r=0 a=1 b=2 c=3 d=4 e=5.
  auto source = XmlDb::OpenFromXml("<r><a><b/><c/></a><d/><e/></r>", {});
  ASSERT_TRUE(source.ok());
  XmlDb* db = source->get();
  const NodeId b = *db->QueryOne("//b");
  const NodeId c = *db->QueryOne("//c");
  const NodeId d = *db->QueryOne("//d");
  const NodeId e = *db->QueryOne("//e");
  // x (id 6) becomes a's only child once b and c die: at bootstrap time a
  // is an interior node with no surviving originals, the seeded-gap case.
  ASSERT_EQ(*db->InsertElementAfter(b, "x"), 6u);
  ASSERT_TRUE(db->DeleteElement(b).ok());
  ASSERT_TRUE(db->DeleteElement(c).ok());
  // z (id 7) after d, then burn id 8, then y (id 9) *before* d: document
  // order y < d < z runs against id order, exercising replay anchoring.
  ASSERT_EQ(*db->InsertElementAfter(d, "z"), 7u);
  const NodeId burnt = *db->InsertElementAfter(d, "gone");
  ASSERT_EQ(burnt, 8u);
  ASSERT_TRUE(db->DeleteElement(burnt).ok());
  ASSERT_EQ(*db->InsertElementBefore(d, "y"), 9u);
  // Deleting the last original leaves a trailing rank gap.
  ASSERT_TRUE(db->DeleteElement(e).ok());

  const BootstrapSpec spec = db->CaptureBootstrapSpec();
  EXPECT_EQ(spec.original_count, 6u);
  EXPECT_EQ(spec.next_id, 10u);
  auto rebuilt = XmlDb::OpenFromBootstrap(spec, {});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  XmlDb* clone = rebuilt->get();
  EXPECT_EQ(clone->ToXml(), db->ToXml());
  ExpectSameAnswers(db, clone, {"//a", "//x", "//y", "//z", "//d", "/r/*"});
  // Order and ancestry relations agree for the surviving ids.
  const NodeId a = *db->QueryOne("//a");
  const NodeId x = *db->QueryOne("//x");
  EXPECT_TRUE(clone->IsParent(a, x));
  EXPECT_LT(clone->CompareOrder(9, d), 0);
  EXPECT_LT(clone->CompareOrder(d, 7), 0);
  // Burnt ids stay burnt and the id counter continues identically: the
  // same replicated insert op must mint the same id on both sides.
  EXPECT_EQ(clone->DeleteElement(burnt).status().code(),
            StatusCode::kNotFound);
  const auto next_src = db->InsertElementAfter(d, "next");
  const auto next_clone = clone->InsertElementAfter(d, "next");
  ASSERT_TRUE(next_src.ok());
  ASSERT_TRUE(next_clone.ok());
  EXPECT_EQ(*next_src, 10u);
  EXPECT_EQ(*next_clone, *next_src);
  EXPECT_EQ(clone->ToXml(), db->ToXml());
}

TEST(XmlDbBootstrapTest, ReconstructionSurvivesHeavyRandomHistory) {
  // A long, deterministic insert/delete mix over a generated play; then
  // clone from the spec and require a byte-identical tree and id space.
  xml::Document play = xml::GeneratePlay(2, 500);
  auto source = XmlDb::Open(std::move(play), {});
  ASSERT_TRUE(source.ok());
  XmlDb* db = source->get();
  uint64_t seed = 0x9E3779B97F4A7C15ull;
  auto next_rand = [&seed]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (int i = 0; i < 300; ++i) {
    auto lines = db->Query("//line");
    ASSERT_TRUE(lines.ok());
    ASSERT_FALSE(lines->empty());
    const NodeId target = (*lines)[next_rand() % lines->size()];
    switch (next_rand() % 4) {
      case 0:
        ASSERT_TRUE(db->InsertElementBefore(target, "cue").ok());
        break;
      case 1:
        ASSERT_TRUE(db->InsertElementAfter(target, "cue").ok());
        break;
      case 2:
        ASSERT_TRUE(db->DeleteElement(target).ok());
        break;
      default: {
        // Insert-then-delete: burns an id without changing the tree.
        auto fresh = db->InsertElementAfter(target, "cut");
        ASSERT_TRUE(fresh.ok());
        ASSERT_TRUE(db->DeleteElement(*fresh).ok());
        break;
      }
    }
  }
  const BootstrapSpec spec = db->CaptureBootstrapSpec();
  auto rebuilt = XmlDb::OpenFromBootstrap(spec, {});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ((*rebuilt)->ToXml(), db->ToXml());
  ExpectSameAnswers(db, rebuilt->get(),
                    {"//line", "//cue", "//speech", "//act"});
  const NodeId anchor = *db->QueryOne("/play/act[1]");
  EXPECT_EQ(*(*rebuilt)->InsertElementAfter(anchor, "tail"),
            *db->InsertElementAfter(anchor, "tail"));
}

TEST(XmlDbBootstrapTest, RejectsInconsistentSpecs) {
  auto db = XmlDb::OpenFromXml(kDoc, {});
  ASSERT_TRUE(db.ok());
  const NodeId desk = *(*db)->QueryOne("//desk");
  // Before desk, so ids are NOT in document order and no spec below can
  // take the identity fast path (which skips validation by design).
  ASSERT_TRUE((*db)->InsertElementBefore(desk, "lamp").ok());
  const BootstrapSpec good = (*db)->CaptureBootstrapSpec();

  BootstrapSpec bad = good;
  bad.ids[2] = bad.ids[3];  // duplicate id
  EXPECT_EQ(XmlDb::OpenFromBootstrap(bad, {}).status().code(),
            StatusCode::kCorruption);
  bad = good;
  bad.original_count = 0;
  EXPECT_EQ(XmlDb::OpenFromBootstrap(bad, {}).status().code(),
            StatusCode::kCorruption);
  bad = good;
  bad.ids.pop_back();  // id list shorter than the tree
  EXPECT_EQ(XmlDb::OpenFromBootstrap(bad, {}).status().code(),
            StatusCode::kCorruption);
  bad = good;
  std::swap(bad.ids[1], bad.ids[2]);  // originals out of pre-order
  EXPECT_EQ(XmlDb::OpenFromBootstrap(bad, {}).status().code(),
            StatusCode::kCorruption);
}

// --- every scheme: the skeleton is the only tree ---

std::vector<std::string> AllSchemeNames() {
  std::vector<std::string> names;
  for (const auto& scheme : labeling::AllSchemes()) {
    names.push_back(scheme->name());
  }
  return names;
}

class XmlDbSchemeTest : public ::testing::TestWithParam<std::string> {
 protected:
  XmlDbOptions Options() const {
    XmlDbOptions options;
    options.scheme_name = GetParam();
    return options;
  }
};

// Every node of a deleted subtree is gone, not only its root: a write aimed
// at a descendant is NotFound before it reaches the labeling (which aborts
// on a removed id), and the database keeps taking writes.
TEST_P(XmlDbSchemeTest, WritesUnderADeletedSubtreeAreNotFound) {
  // ids: a=0 b=1 c=2 d=3.
  auto db = XmlDb::OpenFromXml("<a><b><c/></b><d/></a>", Options());
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(*(*db)->DeleteElement(1), 2u);
  EXPECT_EQ((*db)->InsertElementAfter(2, "x").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db)->InsertElementBefore(2, "x").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db)->DeleteElement(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*db)->DeleteElement(1).status().code(), StatusCode::kNotFound);
  auto x = (*db)->InsertElementAfter(3, "x");
  ASSERT_TRUE(x.ok()) << x.status();
  EXPECT_EQ(*x, 4u);
  EXPECT_EQ((*db)->ToXml(), "<a><d/><x/></a>");
}

// A document with text nodes, several attributes per element and every
// character EscapeText rewrites, built without the parser. Each text node
// is an only child: adjacent text nodes would merge when a bootstrap image
// is re-parsed.
xml::Document RichDocument(uint64_t seed) {
  static const char* const kTags[] = {"sec", "p", "note", "em"};
  util::Random rng(seed);
  xml::Document doc;
  xml::Node* root = doc.CreateRoot("doc");
  root->SetAttribute("title", "A & B <c> \"d\" 'e'");
  root->SetAttribute("lang", "en");
  std::vector<xml::Node*> elements = {root};
  for (int i = 0; i < 150; ++i) {
    xml::Node* parent = elements[rng.Uniform(elements.size())];
    if (rng.Bernoulli(0.3)) {
      xml::Node* quote = doc.CreateElement("q");
      doc.AppendChild(parent, quote);
      doc.AppendChild(quote, doc.CreateText("t" + std::to_string(i) +
                                            " <&> \"q\" 'a'"));
      continue;
    }
    xml::Node* element = doc.CreateElement(kTags[rng.Uniform(4)]);
    const uint64_t attributes = rng.Uniform(4);
    for (uint64_t k = 0; k < attributes; ++k) {
      element->SetAttribute("k" + std::to_string(k),
                            k == 1 ? "" : "v<" + std::to_string(i) + "&>");
    }
    doc.AppendChild(parent, element);
    elements.push_back(element);
  }
  return doc;
}

// Random inserts and deletes applied to the database and to a plain
// xml::Document mirror: after every round ToXml() equals WriteXml(mirror),
// and a bootstrap image round trip reproduces the ids and the XML. The
// database keeps no document, so the mirror is the independent check of
// its serialization.
TEST_P(XmlDbSchemeTest, SerializationMatchesAnIndependentDomUnderUpdates) {
  xml::Document input = RichDocument(7);
  xml::Document mirror;
  mirror.DeepCopy(input.root(), nullptr);
  auto opened = XmlDb::Open(std::move(input), Options());
  ASSERT_TRUE(opened.ok()) << opened.status();
  XmlDb* db = opened->get();
  // id -> mirror node; ids are pre-order ranks at open, then sequential.
  std::vector<xml::Node*> node_of = mirror.NodesInDocumentOrder();
  std::unordered_map<const xml::Node*, NodeId> id_of;
  for (size_t i = 0; i < node_of.size(); ++i) {
    id_of.emplace(node_of[i], static_cast<NodeId>(i));
  }
  util::Random rng(11);
  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 12; ++op) {
      const std::vector<xml::Node*> live = mirror.NodesInDocumentOrder();
      xml::Node* target = live[1 + rng.Uniform(live.size() - 1)];
      const NodeId id = id_of.at(target);
      xml::Node* parent = target->parent();
      switch (rng.Uniform(3)) {
        case 0:
        case 1: {
          const bool before = rng.Bernoulli(0.5);
          auto fresh = before ? db->InsertElementBefore(id, "ins")
                              : db->InsertElementAfter(id, "ins");
          ASSERT_TRUE(fresh.ok()) << fresh.status();
          ASSERT_EQ(*fresh, node_of.size());
          xml::Node* node = mirror.CreateElement("ins");
          mirror.InsertChildAt(parent,
                               parent->IndexOfChild(target) + (before ? 0 : 1),
                               node);
          node_of.push_back(node);
          id_of.emplace(node, *fresh);
          break;
        }
        default: {
          ASSERT_TRUE(db->DeleteElement(id).ok());
          mirror.RemoveChild(parent, target);
          // Its descendants stay addressable ids, but not writable ones.
          if (!target->children().empty()) {
            const NodeId inner = id_of.at(target->children().front());
            EXPECT_EQ(db->InsertElementAfter(inner, "x").status().code(),
                      StatusCode::kNotFound);
          }
          break;
        }
      }
    }
    const std::string expected = xml::WriteXml(mirror);
    ASSERT_EQ(db->ToXml(), expected) << "round " << round;

    std::vector<NodeId> expected_ids;
    for (const xml::Node* node : mirror.NodesInDocumentOrder()) {
      expected_ids.push_back(id_of.at(node));
    }
    const BootstrapSpec spec = db->CaptureBootstrapSpec();
    EXPECT_EQ(spec.xml, expected);
    EXPECT_EQ(spec.ids, expected_ids);
    EXPECT_EQ(spec.next_id, node_of.size());
    BootstrapSpec decoded;
    ASSERT_TRUE(
        repl::DecodeBootstrapSpec(repl::EncodeBootstrapSpec(spec), &decoded)
            .ok());
    auto rebuilt = XmlDb::OpenFromBootstrap(decoded, Options());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    const BootstrapSpec again = (*rebuilt)->CaptureBootstrapSpec();
    EXPECT_EQ(again.xml, expected);
    EXPECT_EQ(again.ids, expected_ids);
    EXPECT_EQ(again.next_id, spec.next_id);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, XmlDbSchemeTest, ::testing::ValuesIn(AllSchemeNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cdbs::engine
