// Copy-on-write snapshot publication tests: forks must be logically
// independent of the live document (aliasing), and forking + mutating must
// copy O(touched) chunks, not O(N) (accounting) — the property behind
// O(touched) group-commit publishes (docs/CONCURRENCY.md).
#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/concurrent_db.h"
#include "labeling/registry.h"
#include "obs/metrics.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/tag_list.h"
#include "util/check.h"
#include "util/cow_vector.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs {
namespace {

using labeling::NodeId;
using query::LabeledDocument;
using query::TagList;
using util::CowStats;
using util::CowVector;

// ---------------------------------------------------------------------------
// CowVector primitives.

TEST(CowVectorTest, PushBackAndRead) {
  CowVector<int> v;
  for (int i = 0; i < 1000; ++i) v.PushBack(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  EXPECT_EQ(v.chunk_count(), (1000 + 255) / 256);
}

TEST(CowVectorTest, CopySharesChunksAndMutationIsolates) {
  CowVector<int> a;
  for (int i = 0; i < 600; ++i) a.PushBack(i);

  CowStats& stats = CowStats::Local();
  const uint64_t shared0 = stats.chunks_shared;
  CowVector<int> b = a;  // O(chunks) fork
  EXPECT_EQ(stats.chunks_shared - shared0, a.chunk_count());

  const uint64_t copies0 = stats.chunk_copies;
  a.Set(10, -1);  // path-copies exactly the one touched chunk
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);
  EXPECT_EQ(a[10], -1);
  EXPECT_EQ(b[10], 10);  // the fork is untouched

  // Mutating the same chunk again copies nothing further.
  a.Set(11, -2);
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);
  EXPECT_EQ(b[11], 11);
}

TEST(CowVectorTest, ResizeGrowsWithDefaults) {
  CowVector<uint32_t> v;
  v.Resize(300);
  ASSERT_EQ(v.size(), 300u);
  EXPECT_EQ(v[299], 0u);
  v.Set(299, 7);
  EXPECT_EQ(v[299], 7u);
}

// ---------------------------------------------------------------------------
// TagList: COW sorted runs.

TEST(TagListTest, AppendIterateAndRandomAccess) {
  TagList list;
  for (NodeId i = 0; i < 2000; ++i) list.Append(i);
  ASSERT_EQ(list.size(), 2000u);
  EXPECT_GE(list.run_count(), 2000u / TagList::kRunMax);
  size_t i = 0;
  for (const NodeId id : list) {
    EXPECT_EQ(id, i);
    EXPECT_EQ(list[i], i);
    ++i;
  }
  EXPECT_EQ(i, 2000u);
  // IteratorAt agrees with operator[] at arbitrary positions.
  for (const size_t pos : {size_t{0}, size_t{255}, size_t{256}, size_t{1999}}) {
    EXPECT_EQ(*list.IteratorAt(pos), list[pos]);
  }
  EXPECT_TRUE(list.IteratorAt(2000) == list.end());
}

TEST(TagListTest, InsertSortedKeepsOrderAndSplitsRuns) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  // Insert even ids in order, then odd ids out of order: every odd insert
  // splices into the middle of a run.
  for (NodeId i = 0; i < 1200; i += 2) list.Append(i);
  for (int i = 1199; i > 0; i -= 2) {
    list.InsertSorted(static_cast<NodeId>(i), less);
  }
  ASSERT_EQ(list.size(), 1200u);
  ASSERT_TRUE(list.RunsSorted(less));
  const std::vector<NodeId> flat = list.ToVector();
  for (NodeId i = 0; i < 1200; ++i) EXPECT_EQ(flat[i], i);
  // Sustained splicing must have split runs (none may exceed kRunMax).
  EXPECT_GE(list.run_count(), 1200u / TagList::kRunMax);
}

TEST(TagListTest, CopySharesRunsAndSpliceCopiesOne) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  for (NodeId i = 0; i < 2000; i += 2) list.Append(i);

  CowStats& stats = CowStats::Local();
  const uint64_t shared0 = stats.chunks_shared;
  TagList fork = list;
  EXPECT_EQ(stats.chunks_shared - shared0, list.run_count());

  const uint64_t copies0 = stats.chunk_copies;
  list.InsertSorted(501, less);
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);  // exactly the touched run
  EXPECT_EQ(fork.size(), 1000u);
  EXPECT_EQ(fork.UpperBound(501, less), 251u);  // fork: 501 still absent
  EXPECT_EQ(list.size(), 1001u);
  EXPECT_TRUE(list.RunsSorted(less));
  EXPECT_TRUE(fork.RunsSorted(less));
}

TEST(TagListTest, EraseIdsBatchRemovesByBinarySearch) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  for (NodeId i = 0; i < 1000; ++i) list.Append(i);
  TagList fork = list;

  std::vector<NodeId> victims;
  for (NodeId i = 100; i < 400; ++i) victims.push_back(i);
  victims.push_back(999);
  victims.push_back(5000);  // absent: must be ignored
  list.EraseIds(victims, less);

  ASSERT_EQ(list.size(), 1000u - 301u);
  for (const NodeId id : list) {
    EXPECT_TRUE(id < 100 || (id >= 400 && id != 999));
  }
  EXPECT_TRUE(list.RunsSorted(less));
  EXPECT_EQ(fork.size(), 1000u);  // the fork still has every id
}

TEST(TagListTest, AppendRangeCrossesRunBoundaries) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  // Uneven runs: sealed bulk runs, then splices that split some in half,
  // then erasures that shrink or empty others.
  for (NodeId i = 0; i < 3000; i += 2) list.Append(i);
  for (NodeId i = 301; i < 1400; i += 2) list.InsertSorted(i, less);
  std::vector<NodeId> victims;
  for (NodeId i = 1600; i < 2200; ++i) victims.push_back(i);
  for (NodeId i = 2500; i < 3000; i += 6) victims.push_back(i);
  list.EraseIds(victims, less);
  ASSERT_GT(list.run_count(), 4u);
  const std::vector<NodeId> flat = list.ToVector();
  ASSERT_EQ(flat.size(), list.size());

  const size_t n = flat.size();
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {0, 0}, {0, 1}, {0, n}, {n, n}, {n - 1, n}, {255, 257}, {100, 900},
      {256, 768}, {511, 512}, {700, n - 3}, {1, n - 1}};
  for (const auto& [from, to] : ranges) {
    std::vector<NodeId> out = {7};  // appends after what is already there
    list.AppendRange(from, to, &out);
    std::vector<NodeId> want = {7};
    want.insert(want.end(), flat.begin() + static_cast<ptrdiff_t>(from),
                flat.begin() + static_cast<ptrdiff_t>(to));
    EXPECT_EQ(out, want) << "[" << from << ", " << to << ")";
  }
  // Short slices from every start cover every run boundary.
  for (size_t from = 0; from < n; ++from) {
    const size_t to = std::min(n, from + 3);
    std::vector<NodeId> out;
    list.AppendRange(from, to, &out);
    ASSERT_EQ(out, std::vector<NodeId>(
                       flat.begin() + static_cast<ptrdiff_t>(from),
                       flat.begin() + static_cast<ptrdiff_t>(to)))
        << from;
  }
}

// A list of uneven runs: bulk-sealed runs, splices that split some of them
// past kRunMax, and erasures that shrink or empty others. `keep_every`
// thins the list out.
TagList UnevenList(NodeId n, NodeId keep_every) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  for (NodeId i = 0; i < n; i += 4) list.Append(i);
  for (NodeId i = n / 8; i < n / 2; i += 2) list.InsertSorted(i + 1, less);
  std::vector<NodeId> victims;
  for (NodeId i = 0; i < n; ++i) {
    if (i % keep_every != 0 || i >= n - n / 8) victims.push_back(i);
  }
  list.EraseIds(victims, less);
  return list;
}

// PartitionPoint against std::partition_point over the flattened list, for
// every threshold, with `holds(x) = x < threshold`.
void ExpectPartitionPoint(const TagList& list, size_t from, size_t to,
                          NodeId threshold, const std::vector<NodeId>& flat) {
  const auto holds = [threshold](NodeId x) { return x < threshold; };
  uint64_t probes = 0;
  const size_t got = list.PartitionPoint(from, to, holds, &probes);
  const size_t want = static_cast<size_t>(
      std::partition_point(flat.begin() + static_cast<ptrdiff_t>(from),
                           flat.begin() + static_cast<ptrdiff_t>(to), holds) -
      flat.begin());
  ASSERT_EQ(got, want) << "[" << from << ", " << to << ") below "
                       << threshold;
  if (from < to) {
    EXPECT_GE(probes, 1u);
    // O(log) probes: a gallop in one run, one over run ends, and a binary
    // search in one run.
    EXPECT_LE(probes, 64u) << "[" << from << ", " << to << ")";
  } else {
    EXPECT_EQ(probes, 0u);
  }
}

TEST(TagListTest, PartitionPointMatchesStdOnEveryRangeOfASmallList) {
  // Few elements left per run, so short ranges still cross run ends.
  const TagList list = UnevenList(4000, 61);
  ASSERT_GT(list.run_count(), 3u);
  const std::vector<NodeId> flat = list.ToVector();
  ASSERT_LT(flat.size(), 60u);
  for (size_t from = 0; from <= flat.size(); ++from) {
    for (size_t to = from; to <= flat.size(); ++to) {
      for (size_t k = from; k <= to; ++k) {
        // The partition point at each element, and past the last one.
        const NodeId threshold = k < flat.size() ? flat[k] : 5000;
        ASSERT_NO_FATAL_FAILURE(
            ExpectPartitionPoint(list, from, to, threshold, flat));
      }
    }
  }
}

TEST(TagListTest, PartitionPointMatchesStdOnRandomRangesOfALargeList) {
  const TagList list = UnevenList(40000, 3);
  ASSERT_GT(list.run_count(), 10u);
  const std::vector<NodeId> flat = list.ToVector();
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 5000; ++trial) {
    size_t from = rng() % (flat.size() + 1);
    size_t to = rng() % (flat.size() + 1);
    if (from > to) std::swap(from, to);
    const NodeId threshold = static_cast<NodeId>(rng() % 40004) | 1;
    ASSERT_NO_FATAL_FAILURE(
        ExpectPartitionPoint(list, from, to, threshold, flat));
  }
}

TEST(TagListTest, IteratorStepsBackAcrossRuns) {
  for (const NodeId keep_every : {NodeId{1}, NodeId{3}, NodeId{61}}) {
    const TagList list = UnevenList(8000, keep_every);
    const std::vector<NodeId> flat = list.ToVector();
    ASSERT_FALSE(flat.empty());
    TagList::Iterator it = list.end();
    for (size_t i = flat.size(); i-- > 0;) {
      --it;
      ASSERT_EQ(*it, flat[i]) << i;
      ASSERT_TRUE(it == list.IteratorAt(i)) << i;
    }
    EXPECT_TRUE(it == list.begin());
  }
}

TEST(TagListTest, EraseWholeRunsDropsThem) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  for (NodeId i = 0; i < 1024; ++i) list.Append(i);
  std::vector<NodeId> all;
  for (NodeId i = 0; i < 1024; ++i) all.push_back(i);
  list.EraseIds(all, less);
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.run_count(), 0u);
  EXPECT_TRUE(list.begin() == list.end());
}

// ---------------------------------------------------------------------------
// Fork aliasing: after Fork(), mutating the live document (inserts incl.
// scheme-relabeling overflows, deletes, new tag names) must leave the
// pinned snapshot byte-identical.

struct DocState {
  std::vector<std::string> labels;        // SerializeLabel per live node
  std::vector<std::string> tags;          // tag per live node
  std::map<std::string, std::vector<NodeId>> tag_lists;
  std::vector<NodeId> query_c;            // //c results
};

DocState Capture(const LabeledDocument& doc) {
  DocState state;
  const labeling::Labeling& lab = doc.labeling();
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    if (lab.skeleton().is_removed(n)) {
      state.labels.emplace_back();
      state.tags.emplace_back();
      continue;
    }
    state.labels.push_back(lab.SerializeLabel(n));
    state.tags.push_back(doc.tag(n));
  }
  for (const std::string name : {"a", "b", "c", "d", "znew", "*"}) {
    state.tag_lists[name] = doc.WithTag(name).ToVector();
  }
  auto query = query::ParseQuery("//c");
  state.query_c = query::EvaluateQuery(*query, doc);
  return state;
}

TEST(CowForkAliasingTest, LiveMutationsNeverLeakIntoFork) {
  // ids: a=0 b=1 c=2 c=3 c=4 d=5 b=6 c=7
  const std::string kXml = "<a><b><c/><c/></b><c/><d><b><c/></b></d></a>";
  for (const auto& scheme : labeling::AllSchemes()) {
    SCOPED_TRACE(scheme->name());
    auto parsed = xml::ParseXml(kXml);
    ASSERT_TRUE(parsed.ok());
    LabeledDocument live(*parsed, *scheme);

    std::unique_ptr<LabeledDocument> fork = live.Fork();
    const DocState before = Capture(*fork);

    // Mutate the live side hard: repeated inserts at one spot (for binary
    // containment this forces the shift-relabel path that rewrites many
    // existing labels in place), a brand-new tag name, and a subtree
    // delete.
    for (int i = 0; i < 8; ++i) {
      const labeling::InsertResult r =
          live.labeling_mutable()->InsertSiblingAfter(2);
      ASSERT_NE(r.new_node, labeling::kNoNode);
      live.NoteInsertedNode(r.new_node, i == 0 ? "znew" : "c");
    }
    live.DeleteSubtree(5);  // the <d> subtree

    // The pinned fork is byte-identical to its capture.
    const DocState after = Capture(*fork);
    EXPECT_EQ(after.labels, before.labels);
    EXPECT_EQ(after.tags, before.tags);
    EXPECT_EQ(after.tag_lists, before.tag_lists);
    EXPECT_EQ(after.query_c, before.query_c);

    // And the live side did change: 7 new "c"s, one "znew", minus the one
    // deleted under <d>.
    auto query = query::ParseQuery("//c");
    const std::vector<NodeId> live_c = query::EvaluateQuery(*query, live);
    EXPECT_EQ(live_c.size(), before.query_c.size() + 7 - 1);
    EXPECT_EQ(live.WithTag("znew").size(), 1u);
    EXPECT_EQ(live.WithTag("d").size(), 0u);

    // A fork taken *after* the mutations sees the new state.
    std::unique_ptr<LabeledDocument> fork2 = live.Fork();
    EXPECT_EQ(query::EvaluateQuery(*query, *fork2), live_c);
  }
}

TEST(CowForkAliasingTest, DeleteThenForkKeepsBatchErasedLists) {
  // DeleteSubtree batch-erases by label-order binary search; verify the
  // surviving lists and both sides of a fork straddling the delete.
  auto parsed = xml::ParseXml(
      "<a><b><c/><c/><c/></b><b><c/><c/></b><c/></a>");
  ASSERT_TRUE(parsed.ok());
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  LabeledDocument live(*parsed, *scheme);
  // ids: a=0 b=1 c=2 c=3 c=4 b=5 c=6 c=7 c=8
  auto fork = live.Fork();

  live.DeleteSubtree(1);  // first <b>: nodes 1-4

  EXPECT_EQ(live.WithTag("b").ToVector(), (std::vector<NodeId>{5}));
  EXPECT_EQ(live.WithTag("c").ToVector(), (std::vector<NodeId>{6, 7, 8}));
  EXPECT_EQ(live.all_elements().size(), 5u);
  EXPECT_EQ(fork->WithTag("b").size(), 2u);
  EXPECT_EQ(fork->WithTag("c").size(), 6u);
  EXPECT_EQ(fork->all_elements().size(), 9u);
}

// ---------------------------------------------------------------------------
// Accounting: forking is copy-free, and one insert after a fork path-copies
// a constant number of chunks regardless of document size.

// Chunks one insert may touch: a handful per per-node array (tags, 7
// skeleton links + removed flags, start/end/level) plus one tag-index run
// each for all_elements and the tag's list. Generous constant bound; the
// point is that it does not scale with document size.
constexpr uint64_t kMaxChunksPerInsert = 64;

// Forks `doc`, applies one insert, and returns (chunk copies, shared
// chunks at fork) observed on this thread.
std::pair<uint64_t, uint64_t> OneInsertCopyCost(LabeledDocument* doc) {
  CowStats& stats = CowStats::Local();
  const uint64_t shared0 = stats.chunks_shared;
  const uint64_t copies0 = stats.chunk_copies;
  std::unique_ptr<LabeledDocument> fork = doc->Fork();
  const uint64_t shared = stats.chunks_shared - shared0;
  EXPECT_EQ(stats.chunk_copies, copies0) << "forking must copy nothing";

  const labeling::InsertResult r =
      doc->labeling_mutable()->InsertSiblingAfter(
          doc->WithTag("line")[doc->WithTag("line").size() / 2]);
  EXPECT_NE(r.new_node, labeling::kNoNode);
  doc->NoteInsertedNode(r.new_node, "line");
  return {stats.chunk_copies - copies0, shared};
}

TEST(CowAccountingTest, OneInsertCopiesConstantChunks) {
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");

  xml::Document small_doc = xml::GeneratePlay(7, 2000);
  LabeledDocument small(small_doc, *scheme);
  const auto [small_copies, small_shared] = OneInsertCopyCost(&small);

  xml::Document big_doc = xml::GeneratePlay(7, 16000);
  LabeledDocument big(big_doc, *scheme);
  const auto [big_copies, big_shared] = OneInsertCopyCost(&big);

  // The fork shares O(N) chunks...
  EXPECT_GT(big_shared, 2 * small_shared);
  EXPECT_GT(small_shared, kMaxChunksPerInsert);
  // ...but the insert copies O(1) of them, independent of size.
  EXPECT_LE(small_copies, kMaxChunksPerInsert);
  EXPECT_LE(big_copies, kMaxChunksPerInsert);
  EXPECT_LE(big_copies, small_copies + 8);
}

TEST(CowAccountingTest, SteadyStateInsertsShareAllButTouchedChunks) {
  // Interleave publishes (forks) and single inserts, Hamlet-scale: every
  // round must stay within the constant per-insert budget.
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  xml::Document doc = xml::GenerateHamlet();
  LabeledDocument live(doc, *scheme);

  CowStats& stats = CowStats::Local();
  std::vector<std::unique_ptr<LabeledDocument>> pinned;
  for (int round = 0; round < 16; ++round) {
    pinned.push_back(live.Fork());
    const uint64_t copies0 = stats.chunk_copies;
    const labeling::InsertResult r =
        live.labeling_mutable()->InsertSiblingAfter(
            live.WithTag("line")[static_cast<size_t>(round) * 97 % 500]);
    ASSERT_NE(r.new_node, labeling::kNoNode);
    live.NoteInsertedNode(r.new_node, "line");
    EXPECT_LE(stats.chunk_copies - copies0, kMaxChunksPerInsert)
        << "round " << round;
  }
  // All pinned snapshots still answer identically-sized queries.
  auto query = query::ParseQuery("//line");
  const size_t base = query::EvaluateQuery(*query, *pinned[0]).size();
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(query::EvaluateQuery(*query, *pinned[i]).size(), base + i);
  }
  EXPECT_EQ(query::EvaluateQuery(*query, live).size(), base + 16);
}

// ---------------------------------------------------------------------------
// End to end: the concurrent engine's publish exports O(touched) byte
// counts — per-publish bytes for single-insert commits must not scale with
// document size.

uint64_t BytesPerPublish(uint64_t total_nodes, int inserts) {
  obs::Counter* bytes = obs::MetricRegistry::Default().GetCounter(
      "engine.concurrent.snapshot.bytes_copied");
  obs::Counter* published = obs::MetricRegistry::Default().GetCounter(
      "engine.concurrent.snapshots");

  engine::ConcurrentXmlDbOptions options;
  auto db = engine::ConcurrentXmlDb::Open(
      xml::GeneratePlay(11, total_nodes), options);
  CDBS_CHECK(db.ok());
  auto target = (*db)->Query("//line");
  CDBS_CHECK(target.ok() && !target->empty());

  const uint64_t bytes0 = bytes->value();
  const uint64_t published0 = published->value();
  for (int i = 0; i < inserts; ++i) {
    // Synchronous submit: each insert lands in its own group commit, so
    // every publish carries exactly one touched insert.
    auto inserted =
        (*db)->InsertElementAfter((*target)[i % target->size()], "line");
    CDBS_CHECK(inserted.ok());
  }
  const uint64_t publishes = published->value() - published0;
  CDBS_CHECK(publishes > 0);
  return (bytes->value() - bytes0) / publishes;
}

TEST(CowPublishTest, PublishBytesIndependentOfDocumentSize) {
  const uint64_t small = BytesPerPublish(2000, 24);
  const uint64_t big = BytesPerPublish(16000, 24);
  // O(N) publication would scale ~8x here; O(touched) stays flat. Allow 3x
  // slack for run-length variation between the two documents.
  EXPECT_LE(big, small * 3 + 4096)
      << "per-publish copied bytes grew with document size (small=" << small
      << " big=" << big << ")";
}

}  // namespace
}  // namespace cdbs
