// Copy-on-write snapshot publication tests: forks must be logically
// independent of the live document (aliasing), and forking + mutating must
// copy O(touched) chunks, not O(N) (accounting) — the property behind
// O(touched) group-commit publishes (docs/CONCURRENCY.md).
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_string.h"
#include "core/cdbs.h"
#include "engine/concurrent_db.h"
#include "labeling/containment.h"
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

using engine::WriteOp;
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

TEST(CowVectorTest, ResizeShrinksAndRegrowsWithDefaults) {
  CowVector<uint32_t> v;
  for (uint32_t i = 0; i < 600; ++i) v.PushBack(i + 1);
  const CowVector<uint32_t> fork = v;
  v.Resize(300);
  ASSERT_EQ(v.size(), 300u);
  EXPECT_EQ(v.chunk_count(), 2u);
  EXPECT_EQ(v[299], 300u);
  // Regrowing overwrites the stale tail of the last chunk with defaults,
  // and the fork keeps every element it had.
  v.Resize(600);
  EXPECT_EQ(v[300], 0u);
  EXPECT_EQ(v[599], 0u);
  EXPECT_EQ(fork.size(), 600u);
  EXPECT_EQ(fork[300], 301u);
  EXPECT_EQ(fork[599], 600u);
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
// every threshold, with `holds(x) = x < threshold`. The list's keys are all
// 0, like the prefix schemes' and Prime's, so every probe ties and `holds`
// decides it.
void ExpectPartitionPoint(const TagList& list, size_t from, size_t to,
                          NodeId threshold, const std::vector<NodeId>& flat) {
  const auto holds = [threshold](NodeId x) { return x < threshold; };
  uint64_t probes = 0;
  const size_t got = list.PartitionPoint(
      from, to, query::KeyProbe<decltype(holds)>{0, holds}, &probes);
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
// Keyed TagList: a search probes the runs' 32-bit keys and reads the full
// label only where a key ties the bound.

using query::KeyProbe;
using CdbsCodec = labeling::CdbsContainmentCodec;

// The end-key reader for lists that store start keys only (ignored).
uint32_t NoEndKey(NodeId) { return 0; }

// Ascending CDBS words: Algorithm 2's codes for `n` values, plus codes grown
// past 32 bits by `skewed` pairs of inserts at one gap, spliced in at the
// quarter mark. The grown codes share their first 32 bits, so their keys
// tie. Id i is labeled words[i].
std::vector<uint64_t> SkewedCdbsWords(uint64_t n, int skewed) {
  std::vector<uint64_t> words = core::EncodeRangeWords(n);
  const core::BitString left = core::WordToCode(words[n / 4 - 1]);
  core::BitString right = core::WordToCode(words[n / 4]);
  for (int i = 0; i < skewed; ++i) {
    auto [m1, m2] = core::AssignTwoMiddleBinaryStrings(left, right);
    if (m2.size() >= 64) break;
    words.push_back(core::CodeToWord(m1));
    words.push_back(core::CodeToWord(m2));
    right = m1;
  }
  std::sort(words.begin(), words.end());
  return words;
}

// A keyed list over `words` (ids ascend with their words): every fourth id
// appended, the odd ids of [n/8, n/2) spliced in (splitting runs past
// kRunMax), then every id erased that is not a multiple of `keep_every`
// and has a code of at most 24 bits, and the whole last eighth. So the
// skewed block's tying keys stay. The spine is checked after each stage.
TagList KeyedUnevenList(const std::vector<uint64_t>& words,
                        NodeId keep_every) {
  const NodeId n = static_cast<NodeId>(words.size());
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  const auto key = [&words](NodeId id) { return CdbsCodec::Key(words[id]); };
  TagList list;
  for (NodeId i = 0; i < n; i += 4) list.Append(i, key(i));
  EXPECT_TRUE(list.SpineConsistent());
  for (NodeId i = n / 8 + 1; i < n / 2; i += 2) {
    list.InsertSorted(i, less, key(i));
  }
  EXPECT_TRUE(list.SpineConsistent());
  std::vector<NodeId> victims;
  for (NodeId i = 0; i < n; ++i) {
    const bool long_code = CdbsCodec::CodeBits(words[i]) > 24;
    if ((!long_code && i % keep_every != 0) || i >= n - n / 8) {
      victims.push_back(i);
    }
  }
  list.EraseIds(victims, less);
  EXPECT_TRUE(list.SpineConsistent());
  EXPECT_TRUE(list.KeysMatch(key, NoEndKey, 0, list.size()));
  EXPECT_TRUE(list.RunsSorted(less));
  return list;
}

// Probe and tie counts over a series of keyed searches.
struct KeyedSearchStats {
  uint64_t probes = 0;
  uint64_t ties = 0;
};

// Keyed PartitionPoint against std::partition_point over the flattened
// list, for elements below `bound` and for those at or below it.
void ExpectKeyedPartitionPoint(const TagList& list, size_t from, size_t to,
                               uint64_t bound,
                               const std::vector<uint64_t>& words,
                               const std::vector<NodeId>& flat,
                               KeyedSearchStats* stats) {
  for (const bool or_at : {false, true}) {
    const auto holds = [&words, bound, or_at](NodeId x) {
      return or_at ? words[x] <= bound : words[x] < bound;
    };
    uint64_t ties = 0;
    const auto tie = [&holds, &ties](NodeId x) {
      ++ties;
      return holds(x);
    };
    uint64_t probes = 0;
    const size_t got = list.PartitionPoint(
        from, to, KeyProbe<decltype(tie)>{CdbsCodec::Key(bound), tie},
        &probes);
    const size_t want = static_cast<size_t>(
        std::partition_point(flat.begin() + static_cast<ptrdiff_t>(from),
                             flat.begin() + static_cast<ptrdiff_t>(to),
                             holds) -
        flat.begin());
    ASSERT_EQ(got, want) << "[" << from << ", " << to << ") "
                         << (or_at ? "at or below " : "below ") << bound;
    EXPECT_LE(ties, probes);
    if (from < to) {
      EXPECT_LE(probes, 64u);
    }
    stats->probes += probes;
    stats->ties += ties;
  }
}

// The bounds a search meets: each element's own word (a tie with itself),
// and the words just below and above it.
std::vector<uint64_t> BoundsAround(const std::vector<uint64_t>& words,
                                   const std::vector<NodeId>& flat,
                                   size_t k) {
  if (k == flat.size()) return {~uint64_t{0}};
  const uint64_t w = words[flat[k]];
  return {w - 1, w, w + 1};
}

TEST(TagListKeyTest, SkewedCodesPastThirtyTwoBitsTieOnTheirKeys) {
  const std::vector<uint64_t> words = SkewedCdbsWords(4000, 40);
  size_t long_codes = 0;
  size_t ties = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    if (CdbsCodec::CodeBits(words[i]) > 32) ++long_codes;
    if (i > 0) {
      ASSERT_LT(words[i - 1], words[i]);
      ASSERT_LE(CdbsCodec::Key(words[i - 1]), CdbsCodec::Key(words[i]));
      if (CdbsCodec::Key(words[i - 1]) == CdbsCodec::Key(words[i])) ++ties;
    }
  }
  EXPECT_GT(long_codes, 20u);
  EXPECT_GT(ties, 20u);
}

TEST(TagListKeyTest, PartitionPointMatchesStdOnEveryRangeOfASmallList) {
  const std::vector<uint64_t> words = SkewedCdbsWords(4000, 40);
  const TagList list = KeyedUnevenList(words, 61);
  ASSERT_GT(list.run_count(), 3u);
  const std::vector<NodeId> flat = list.ToVector();
  ASSERT_LT(flat.size(), 400u);
  KeyedSearchStats stats;
  for (size_t from = 0; from <= flat.size(); from += 3) {
    for (size_t to = from; to <= flat.size(); to += 2) {
      for (size_t k = from; k <= to; ++k) {
        for (const uint64_t bound : BoundsAround(words, flat, k)) {
          ASSERT_NO_FATAL_FAILURE(ExpectKeyedPartitionPoint(
              list, from, to, bound, words, flat, &stats));
        }
      }
    }
  }
  // Ties are the exception: most probes are settled by the key alone.
  EXPECT_GT(stats.ties, 0u);
  EXPECT_LT(stats.ties * 2, stats.probes);
}

TEST(TagListKeyTest, PartitionPointMatchesStdOnRandomRangesOfALargeList) {
  const std::vector<uint64_t> words = SkewedCdbsWords(40000, 40);
  const TagList list = KeyedUnevenList(words, 3);
  ASSERT_GT(list.run_count(), 10u);
  const std::vector<NodeId> flat = list.ToVector();
  std::mt19937_64 rng(5);
  KeyedSearchStats stats;
  for (int trial = 0; trial < 5000; ++trial) {
    size_t from = rng() % (flat.size() + 1);
    size_t to = rng() % (flat.size() + 1);
    if (from > to) std::swap(from, to);
    // Random words, and the words around random elements (the skewed block
    // among them).
    const size_t k = trial % 4 == 0 ? flat.size() / 4 + rng() % 60
                                    : rng() % (flat.size() + 1);
    std::vector<uint64_t> bounds = BoundsAround(words, flat, k);
    bounds.push_back(rng());
    for (const uint64_t bound : bounds) {
      ASSERT_NO_FATAL_FAILURE(ExpectKeyedPartitionPoint(list, from, to, bound,
                                                        words, flat, &stats));
    }
  }
  EXPECT_GT(stats.ties, 0u);
}

TEST(TagListKeyTest, SpineFollowsOneElementRunsSplitsRekeysAndForks) {
  const std::vector<uint64_t> words = SkewedCdbsWords(70000, 30);
  const NodeId n = static_cast<NodeId>(words.size());
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  const auto key = [&words](NodeId id) { return CdbsCodec::Key(words[id]); };
  // Appends seal a run every kRunTarget ids, so run r starts at
  // r * kRunTarget.
  TagList list;
  for (NodeId i = 0; i < n; ++i) list.Append(i, key(i));
  ASSERT_TRUE(list.SpineConsistent());
  const size_t runs = list.run_count();
  ASSERT_EQ(runs, (n + TagList::kRunTarget - 1) / TagList::kRunTarget);
  ASSERT_GT(runs, size_t{1} << TagList::kBlockLog2);  // >1 block of 1-runs

  // Shrink every run to its first id: the directory then scans past many
  // one-element runs per block.
  std::vector<NodeId> victims;
  for (NodeId i = 0; i < n; ++i) {
    if (i % TagList::kRunTarget != 0) victims.push_back(i);
  }
  list.EraseIds(victims, less);
  ASSERT_TRUE(list.SpineConsistent());
  ASSERT_EQ(list.run_count(), runs);
  ASSERT_EQ(list.size(), runs);
  ASSERT_TRUE(list.KeysMatch(key, NoEndKey, 0, list.size()));
  std::vector<NodeId> flat = list.ToVector();
  std::mt19937_64 rng(7);
  KeyedSearchStats stats;
  for (int trial = 0; trial < 3000; ++trial) {
    size_t from = rng() % (flat.size() + 1);
    size_t to = rng() % (flat.size() + 1);
    if (from > to) std::swap(from, to);
    for (const uint64_t bound : BoundsAround(words, flat, rng() % (flat.size() + 1))) {
      ASSERT_NO_FATAL_FAILURE(ExpectKeyedPartitionPoint(list, from, to, bound,
                                                        words, flat, &stats));
    }
  }

  // Drop the runs of [lo, lo + 5 * kRunTarget), then splice the ids of
  // that range (the skewed block among them) back in, one checked splice
  // at a time, while a fork pins the one-element runs. They all land in
  // the run before `lo`, which splits past kRunMax again and again.
  const TagList fork = list;
  const NodeId lo = static_cast<NodeId>((n / 4 / TagList::kRunTarget - 1) *
                                        TagList::kRunTarget);
  const NodeId hi = lo + 5 * TagList::kRunTarget;
  std::vector<NodeId> run_heads;
  for (NodeId i = lo; i < hi; i += TagList::kRunTarget) run_heads.push_back(i);
  list.EraseIds(run_heads, less);
  ASSERT_TRUE(list.SpineConsistent());
  ASSERT_EQ(list.run_count(), runs - run_heads.size());
  for (NodeId i = lo; i < hi; ++i) {
    list.InsertSorted(i, less, key(i));
    ASSERT_TRUE(list.SpineConsistent()) << i;
    ASSERT_TRUE(list.KeysMatch(key, NoEndKey, 0, list.size())) << i;
  }
  // 5 * kRunTarget ids spliced into one run split it at least 3 times.
  EXPECT_GE(list.run_count(), runs - run_heads.size() + 3);
  ASSERT_TRUE(fork.SpineConsistent());
  ASSERT_EQ(fork.ToVector(), flat);
  flat = list.ToVector();
  for (int trial = 0; trial < 3000; ++trial) {
    size_t from = rng() % (flat.size() + 1);
    size_t to = rng() % (flat.size() + 1);
    if (from > to) std::swap(from, to);
    const size_t k = rng() % (flat.size() + 1);
    for (const uint64_t bound : BoundsAround(words, flat, k)) {
      ASSERT_NO_FATAL_FAILURE(ExpectKeyedPartitionPoint(list, from, to, bound,
                                                        words, flat, &stats));
    }
  }
  EXPECT_GT(stats.ties, 0u);

  // A relabel that moves the upper half: Rekey copies only the runs whose
  // keys change, and the fork keeps its keys.
  const NodeId half = n / 2;
  const auto moved = [&words, half](NodeId id) {
    return CdbsCodec::Key(id < half ? words[id] : words[id] + (uint64_t{1} << 40));
  };
  const TagList before_rekey = list;
  CowStats& cow = CowStats::Local();
  const uint64_t copies0 = cow.chunk_copies;
  list.Rekey(moved, NoEndKey);
  const uint64_t copied = cow.chunk_copies - copies0;
  EXPECT_GT(copied, 0u);
  EXPECT_LT(copied, list.run_count());
  ASSERT_TRUE(list.SpineConsistent());
  EXPECT_TRUE(list.KeysMatch(moved, NoEndKey, 0, list.size()));
  EXPECT_TRUE(before_rekey.KeysMatch(key, NoEndKey, 0, before_rekey.size()));
  EXPECT_TRUE(fork.KeysMatch(key, NoEndKey, 0, fork.size()));
}

// Readers search a fork's key runs while the writer splices, erases and
// rekeys the live list, path-copying the runs they read (the engine's
// snapshot readers against its writer; run under TSan in CI).
TEST(TagListKeyTest, ForkReadersProbeWhileTheWriterSplices) {
  const std::vector<uint64_t> words = SkewedCdbsWords(20000, 30);
  const NodeId n = static_cast<NodeId>(words.size());
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  const auto key = [&words](NodeId id) { return CdbsCodec::Key(words[id]); };
  TagList live;
  for (NodeId i = 0; i < n; i += 2) live.Append(i, key(i));
  const TagList fork = live;
  const std::vector<NodeId> flat = fork.ToVector();
  std::vector<uint64_t> bounds;
  std::vector<size_t> want;
  for (size_t k = 0; k <= flat.size(); k += 37) {
    for (const uint64_t bound : BoundsAround(words, flat, k)) {
      const auto below = [&words, bound](NodeId x) { return words[x] < bound; };
      bounds.push_back(bound);
      want.push_back(static_cast<size_t>(
          std::partition_point(flat.begin(), flat.end(), below) -
          flat.begin()));
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      do {
        for (size_t b = 0; b < bounds.size(); ++b) {
          const uint64_t bound = bounds[b];
          const auto below = [&words, bound](NodeId x) {
            return words[x] < bound;
          };
          uint64_t probes = 0;
          const size_t got = fork.PartitionPoint(
              0, fork.size(),
              KeyProbe<decltype(below)>{CdbsCodec::Key(bound), below},
              &probes);
          if (got != want[b]) wrong.fetch_add(1);
        }
      } while (!stop.load());
    });
  }
  for (NodeId i = 1; i < n; i += 2) live.InsertSorted(i, less, key(i));
  std::vector<NodeId> victims;
  for (NodeId i = 0; i < n; i += 3) victims.push_back(i);
  live.EraseIds(victims, less);
  live.Rekey([&words](NodeId id) { return CdbsCodec::Key(words[id] + 1); },
             NoEndKey);
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_TRUE(live.SpineConsistent());
  EXPECT_TRUE(fork.SpineConsistent());
  EXPECT_EQ(fork.ToVector(), flat);
}

// A list with end keys: every entry is (id, start key, end key). The end
// keys and the run summaries must follow appends, kRunMax splits, erases
// and rekeys, a key-copying AppendRange must hand them out as stored, and
// a fork taken before the writes keeps its own. Searches that land in
// summarized runs must agree with std::partition_point.
TEST(TagListKeyTest, EndKeysAndSummariesFollowSplitsErasesRekeysAndForks) {
  const std::vector<uint64_t> words = SkewedCdbsWords(8000, 30);
  const NodeId n = static_cast<NodeId>(words.size());
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  const auto key = [&words](NodeId id) { return CdbsCodec::Key(words[id]); };
  const auto end_of = [](NodeId id) { return id * 7 + 3; };
  const auto expect_entries = [&](const TagList& list,
                                  const std::vector<NodeId>& ids,
                                  const auto& key_of, const auto& end_key_of,
                                  const char* when) {
    ASSERT_TRUE(list.SpineConsistent()) << when;
    ASSERT_TRUE(list.KeysMatch(key_of, end_key_of, 0, list.size())) << when;
    ASSERT_EQ(list.ToVector(), ids) << when;
    for (size_t i = 0; i < list.size(); i += 97) {
      ASSERT_EQ(list.end_key(i), end_key_of(list[i])) << when << " at " << i;
    }
    // AppendRange copies ids, keys and end keys across run boundaries.
    const size_t from = list.size() / 5;
    const size_t to = list.size() - list.size() / 7;
    std::vector<query::KeyedId> copied;
    list.AppendRange(from, to, &copied);
    ASSERT_EQ(copied.size(), to - from) << when;
    for (size_t i = from; i < to; ++i) {
      const query::KeyedId& entry = copied[i - from];
      ASSERT_EQ(entry.id, list[i]) << when;
      ASSERT_EQ(entry.key, key_of(entry.id)) << when;
      ASSERT_EQ(entry.end_key, end_key_of(entry.id)) << when;
    }
  };

  // Appends seal each run as the next one opens; Seal seals the last.
  TagList list(/*end_keys=*/true);
  ASSERT_TRUE(list.has_end_keys());
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < n; i += 4) {
    list.Append(i, key(i), end_of(i));
    ids.push_back(i);
  }
  ASSERT_GT(list.run_count(), 4u);
  EXPECT_EQ(list.summarized_runs(), list.run_count() - 1);
  list.Seal();
  EXPECT_EQ(list.summarized_runs(), list.run_count());
  ASSERT_NO_FATAL_FAILURE(expect_entries(list, ids, key, end_of, "appended"));
  const TagList fork = list;
  const std::vector<NodeId> fork_ids = ids;

  // Splice the missing ids of one run's range back in: the run takes three
  // times its size and splits past kRunMax again and again.
  const size_t runs = list.run_count();
  const NodeId lo = static_cast<NodeId>(4 * TagList::kRunTarget);
  for (NodeId i = lo; i < lo + 4 * TagList::kRunTarget; ++i) {
    if (i % 4 == 0) continue;
    list.InsertSorted(i, less, key(i), end_of(i));
    ids.insert(std::lower_bound(ids.begin(), ids.end(), i), i);
  }
  EXPECT_GE(list.run_count(), runs + 2);
  EXPECT_EQ(list.summarized_runs(), list.run_count());
  ASSERT_NO_FATAL_FAILURE(expect_entries(list, ids, key, end_of, "spliced"));

  // Batch erases rewrite each touched run once, end keys with it.
  std::vector<NodeId> victims;
  for (NodeId i = 0; i < n; i += 6) victims.push_back(i);
  list.EraseIds(victims, less);
  std::vector<NodeId> kept;
  for (const NodeId id : ids) {
    if (id % 6 != 0) kept.push_back(id);
  }
  ids = kept;
  EXPECT_EQ(list.summarized_runs(), list.run_count());
  ASSERT_NO_FATAL_FAILURE(expect_entries(list, ids, key, end_of, "erased"));

  // A relabel that moves the upper half: starts and ends are rekeyed
  // together, and only the runs they change are copied.
  const NodeId half = n / 2;
  const auto moved = [&words, half](NodeId id) {
    return CdbsCodec::Key(id < half ? words[id]
                                    : words[id] + (uint64_t{1} << 40));
  };
  const auto moved_end = [half](NodeId id) {
    return id < half ? id * 7 + 3 : id * 7 + 5;
  };
  const TagList before_rekey = list;
  const uint64_t copies0 = CowStats::Local().chunk_copies;
  list.Rekey(moved, moved_end);
  const uint64_t copied = CowStats::Local().chunk_copies - copies0;
  EXPECT_GT(copied, 0u);
  EXPECT_LT(copied, list.run_count());
  EXPECT_EQ(list.summarized_runs(), list.run_count());
  ASSERT_NO_FATAL_FAILURE(
      expect_entries(list, ids, moved, moved_end, "rekeyed"));
  ASSERT_NO_FATAL_FAILURE(
      expect_entries(before_rekey, ids, key, end_of, "before the rekey"));

  // The fork taken after the appends saw none of the writes.
  EXPECT_EQ(fork.summarized_runs(), fork.run_count());
  ASSERT_NO_FATAL_FAILURE(expect_entries(fork, fork_ids, key, end_of, "fork"));

  // Keyed searches over summarized runs, against std::partition_point.
  const std::vector<NodeId> flat = before_rekey.ToVector();
  std::mt19937_64 rng(5);
  KeyedSearchStats stats;
  for (int trial = 0; trial < 3000; ++trial) {
    size_t from = rng() % (flat.size() + 1);
    size_t to = rng() % (flat.size() + 1);
    if (from > to) std::swap(from, to);
    for (const uint64_t bound :
         BoundsAround(words, flat, rng() % (flat.size() + 1))) {
      ASSERT_NO_FATAL_FAILURE(ExpectKeyedPartitionPoint(
          before_rekey, from, to, bound, words, flat, &stats));
    }
  }
  EXPECT_GT(stats.ties, 0u);
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
          live.InsertSibling(2, /*before=*/false, i == 0 ? "znew" : "c");
      ASSERT_NE(r.new_node, labeling::kNoNode);
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

  const labeling::InsertResult r = doc->InsertSibling(
      doc->WithTag("line")[doc->WithTag("line").size() / 2],
      /*before=*/false, "line");
  EXPECT_NE(r.new_node, labeling::kNoNode);
  return {stats.chunk_copies - copies0, shared};
}

// Prime is not an input: each of its inserts renumbers every later
// document position and recomputes every later SC value, so the chunks it
// copies grow with the document by design (the paper's Table 4 cost).
TEST(CowAccountingTest, OneInsertCopiesConstantChunks) {
  for (const char* name :
       {"V-CDBS-Containment", "OrdPath1-Prefix", "OrdPath2-Prefix",
        "CDBS-Prefix", "QED-Prefix", "DeweyID(UTF8)-Prefix"}) {
    SCOPED_TRACE(name);
    auto scheme = labeling::SchemeByName(name);

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
    const labeling::InsertResult r = live.InsertSibling(
        live.WithTag("line")[static_cast<size_t>(round) * 97 % 500],
        /*before=*/false, "line");
    ASSERT_NE(r.new_node, labeling::kNoNode);
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
  engine::ConcurrentXmlDbOptions options;
  auto db = engine::ConcurrentXmlDb::Open(
      xml::GeneratePlay(11, total_nodes), options);
  CDBS_CHECK(db.ok());
  // The db's own registry: the process view folds these in only once the
  // db is gone.
  obs::Counter* bytes = (*db)->registry().GetCounter(
      "engine.concurrent.snapshot.bytes_copied");
  obs::Counter* published =
      (*db)->registry().GetCounter("engine.concurrent.snapshots");
  auto target = (*db)->Query("//line");
  CDBS_CHECK(target.ok() && !target->empty());

  const uint64_t bytes0 = bytes->value();
  const uint64_t published0 = published->value();
  for (int i = 0; i < inserts; ++i) {
    // Synchronous submit: each insert lands in its own group commit, so
    // every publish carries exactly one touched insert.
    auto inserted =
        (*db)->Submit(WriteOp::InsertAfter((*target)[i % target->size()],
                                           "line"))
            .get();
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
