// Differential check of the navigational evaluator against a plain DOM walk.
// Random trees nest same-name tags (an `a` inside an `a`), so context lists
// are sometimes nested and sometimes antichains; random sibling inserts and
// subtree deletes then run through every registered scheme. Every query must
// return the reference's ids, in document order. The
// `query.eval.steps_sorted` counter shows which steps took the order-
// preserving fast path and which fell back to sorting.

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "dom_reference.h"
#include "engine/concurrent_db.h"
#include "labeling/containment.h"
#include "labeling/registry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/xpath.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs::query {
namespace {

using engine::ConcurrentXmlDb;
using engine::ConcurrentXmlDbOptions;
using engine::WriteOp;

uint64_t StepsSorted() {
  return obs::MetricRegistry::Default()
      .GetCounter("query.eval.steps_sorted")
      ->value();
}

uint64_t CandidatesScanned() {
  return obs::MetricRegistry::Default()
      .GetCounter("query.eval.candidates_scanned")
      ->value();
}

uint64_t KeyTies() {
  return obs::MetricRegistry::Default()
      .GetCounter("query.eval.key_ties")
      ->value();
}

const char* const kTags[] = {"a", "a", "b", "c"};  // `a` nests most often

std::string RandomTag(std::mt19937_64* rng) { return kTags[(*rng)() % 4]; }

// A random tree of about `target` elements, built in pre-order so the ids
// match what labeling the parsed XML assigns.
RefTree RandomTree(std::mt19937_64* rng, size_t target) {
  RefTree tree;
  std::function<void(NodeId, int)> grow = [&](NodeId parent, int depth) {
    const NodeId id = tree.Add(parent, RandomTag(rng));
    if (parent != kNoNode) tree.children[parent].push_back(id);
    const size_t kids = depth < 7 ? (*rng)() % 4 : 0;
    for (size_t k = 0; k < kids && tree.tag.size() < target; ++k) {
      grow(id, depth + 1);
    }
  };
  tree.Add(kNoNode, "r");
  while (tree.tag.size() < target) grow(0, 1);
  return tree;
}

std::string RandomName(std::mt19937_64* rng) {
  return (*rng)() % 5 == 0 ? "*" : RandomTag(rng);
}

// A relative predicate path: child or descendant, with or without [n], or
// one step along another axis.
std::string RandomPredicatePath(std::mt19937_64* rng) {
  static const char* const kAxes[] = {"following::", "preceding-sibling::",
                                      "parent::", "ancestor::"};
  switch ((*rng)() % 5) {
    case 0:
      return "./" + RandomName(rng);
    case 1:
      return ".//" + RandomName(rng);
    case 2:
      return "./" + RandomName(rng) + "[" + std::to_string(1 + (*rng)() % 3) +
             "]";
    case 3:
      return ".//" + RandomName(rng) + "/" + RandomName(rng);
    default:
      return std::string("./") + kAxes[(*rng)() % 4] + RandomName(rng);
  }
}

std::string RandomPredicate(std::mt19937_64* rng) {
  const std::string position = "[" + std::to_string(1 + (*rng)() % 3) + "]";
  switch ((*rng)() % 8) {
    case 0:
    case 1:
      return "[" + RandomPredicatePath(rng) + "]";
    case 2:
      return position;
    case 3:
      return position + "[" + RandomPredicatePath(rng) + "]";
    default:
      return "";
  }
}

// Shapes the skips must get right beyond what random queries hit often:
// `*` child steps over nested same-name tags; child [n] with and without
// predicates (the early stop); descendant steps on the span-copy path and
// on the predicate path; nested contexts (`//a/...` where `a` nests), over
// which the forward cursor must stay a lower bound.
const char* const kTargetedQueries[] = {
    "/r/*",          "//*/*",          "//a/*",           "//a/a",
    "//*/a",         "//a/*[2]",       "//a/a[1]",        "//*/b[3]",
    "//a/*[2][./a]", "//a/a[1][.//c]", "/r/*[4]/*[1]",    "//a//b",
    "//a//*",        "/r/*//a",        "//a//a",          "//*//*",
    "//a//b[./c]",   "//a//a[2]",      "//*//c[.//a]",    "//a[./a[2]]",
    "//b[./following::a]",             "//a[./preceding-sibling::b]",
    "//c[./parent::a]",                "//b[./ancestor::a/b]",
    "//a[.//b[1]/following::c]",       "//a/a//following::b",
};

// A random query over the subset: child, descendant, positional and
// predicate steps, plus preceding-sibling:: and following::.
std::string RandomQuery(std::mt19937_64* rng) {
  std::string q = (*rng)() % 4 == 0 ? "/r" : "//" + RandomName(rng);
  q += RandomPredicate(rng);
  const size_t steps = 1 + (*rng)() % 3;
  for (size_t s = 0; s < steps; ++s) {
    switch ((*rng)() % 7) {
      case 0:
        q += "/preceding-sibling::" + RandomName(rng);
        break;
      case 1:
        q += "/following::" + RandomName(rng);
        break;
      case 2:
      case 3:
        q += "/" + RandomName(rng) + RandomPredicate(rng);
        break;
      default:
        q += "//" + RandomName(rng) + RandomPredicate(rng);
        break;
    }
  }
  return q;
}

std::string Describe(const std::vector<NodeId>& ids) {
  std::string out;
  for (const NodeId id : ids) out += std::to_string(id) + " ";
  return out;
}

// Applies a few random sibling inserts and subtree deletes to `labeled`,
// mirrored into `ref`.
void ApplyRandomUpdates(std::mt19937_64* rng, RefTree* ref,
                        LabeledDocument* labeled) {
  for (int op = 0; op < 6; ++op) {
    const std::vector<NodeId> live = ref->PreOrder();
    if (live.size() < 2) break;
    const NodeId target = live[1 + (*rng)() % (live.size() - 1)];
    if ((*rng)() % 4 == 0 && live.size() > 30) {
      labeled->DeleteSubtree(target);
      ref->RemoveSubtree(target);
    } else {
      const bool before = (*rng)() % 2 == 0;
      const std::string tag = RandomTag(rng);
      const labeling::InsertResult result =
          labeled->InsertSibling(target, before, tag);
      ASSERT_EQ(result.new_node, ref->AddSibling(target, before, tag));
    }
  }
}

class EvaluatorOrderTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EvaluatorOrderTest, MatchesDomWalkUnderRandomUpdates) {
  const auto scheme = labeling::SchemeByName(GetParam());
  // Fast steps: evaluations of 2+ steps with a non-empty answer and no sort.
  uint64_t fast_evals = 0;
  uint64_t sorted_steps = 0;
  for (uint64_t seed = 1; seed <= 7; ++seed) {
    std::mt19937_64 rng(seed);
    // The last tree spans several TagList runs, so gallops cross them.
    RefTree ref = RandomTree(&rng, seed == 7 ? 700 : 60 + seed * 15);
    auto parsed = xml::ParseXml(ref.ToXml());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const xml::Document doc = std::move(parsed).value();
    LabeledDocument labeled(doc, *scheme);
    ASSERT_EQ(labeled.labeling().num_nodes(), ref.tag.size());

    for (int round = 0; round < 4; ++round) {
      ASSERT_NO_FATAL_FAILURE(ApplyRandomUpdates(&rng, &ref, &labeled));
      const RefEvaluator reference(ref);
      std::vector<std::string> texts(std::begin(kTargetedQueries),
                                     std::end(kTargetedQueries));
      for (int i = 0; i < 40; ++i) texts.push_back(RandomQuery(&rng));
      for (const std::string& text : texts) {
        auto query = ParseQuery(text);
        ASSERT_TRUE(query.ok()) << text << ": " << query.status();
        const uint64_t sorted_before = StepsSorted();
        const std::vector<NodeId> got = EvaluateQuery(*query, labeled);
        const uint64_t sorted = StepsSorted() - sorted_before;
        const std::vector<NodeId> want = reference.Evaluate(*query);
        ASSERT_EQ(got, want) << GetParam() << " seed " << seed << " round "
                             << round << ": " << text << "\n  got  "
                             << Describe(got) << "\n  want "
                             << Describe(want) << "\n  tree "
                             << ref.ToXml();
        sorted_steps += sorted;
        if (sorted == 0 && query->steps.size() >= 2 && !got.empty()) {
          ++fast_evals;
        }
      }
    }
  }
  EXPECT_GT(fast_evals, 0u) << "no evaluation took the order-preserving path";
  EXPECT_GT(sorted_steps, 0u) << "no step fell back to the sort";
}

// Scoped evaluation: the subtree of the scope is the whole document. For
// the root and for random element scopes, every query returns the DOM walk
// from that scope and counts its size; counting several disjoint scopes in
// document order in one call (CountPerScope's precondition), with the
// cursors carried from scope to scope, gives each scope's count.
TEST_P(EvaluatorOrderTest, ScopesMatchDomWalkUnderRandomUpdates) {
  const auto scheme = labeling::SchemeByName(GetParam());
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    std::mt19937_64 rng(seed);
    RefTree ref = RandomTree(&rng, seed == 14 ? 700 : 120);
    auto parsed = xml::ParseXml(ref.ToXml());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const xml::Document doc = std::move(parsed).value();
    LabeledDocument labeled(doc, *scheme);

    for (int round = 0; round < 3; ++round) {
      ASSERT_NO_FATAL_FAILURE(ApplyRandomUpdates(&rng, &ref, &labeled));
      const std::vector<NodeId> live = ref.PreOrder();
      std::vector<NodeId> scopes = {0};
      for (int k = 0; k < 4; ++k) scopes.push_back(live[rng() % live.size()]);
      // Disjoint scopes in document order: each picked node's subtree is
      // skipped, so none lies inside another.
      auto inside = [&ref](NodeId a, NodeId d) {
        for (NodeId p = ref.parent[d]; p != kNoNode; p = ref.parent[p]) {
          if (p == a) return true;
        }
        return false;
      };
      std::vector<NodeId> disjoint;
      for (size_t i = 1; i < live.size();) {
        const NodeId n = live[i++];
        if (rng() % 6 != 0) continue;
        disjoint.push_back(n);
        while (i < live.size() && inside(n, live[i])) ++i;
      }
      ASSERT_GT(disjoint.size(), 2u);
      std::map<NodeId, RefEvaluator> references;
      auto reference = [&](NodeId scope) -> const RefEvaluator& {
        return references.try_emplace(scope, ref, scope).first->second;
      };
      std::vector<std::string> texts(std::begin(kTargetedQueries),
                                     std::end(kTargetedQueries));
      for (int i = 0; i < 25; ++i) texts.push_back(RandomQuery(&rng));
      for (const std::string& text : texts) {
        auto query = ParseQuery(text);
        ASSERT_TRUE(query.ok()) << text << ": " << query.status();
        for (const NodeId scope : scopes) {
          const std::vector<NodeId> got = EvaluateQuery(*query, labeled, scope);
          const std::vector<NodeId> want = reference(scope).Evaluate(*query);
          ASSERT_EQ(got, want)
              << GetParam() << " seed " << seed << " round " << round
              << " scope " << scope << ": " << text << "\n  got  "
              << Describe(got) << "\n  want " << Describe(want);
          ASSERT_EQ(CountQuery(*query, labeled, scope), want.size())
              << GetParam() << " scope " << scope << ": " << text;
        }
        // Carried cursors give every scope its own count.
        const std::vector<uint64_t> counts =
            CountPerScope(*query, labeled, disjoint);
        ASSERT_EQ(counts.size(), disjoint.size());
        for (size_t k = 0; k < disjoint.size(); ++k) {
          ASSERT_EQ(counts[k], reference(disjoint[k]).Evaluate(*query).size())
              << GetParam() << " seed " << seed << " round " << round
              << " scope " << disjoint[k] << " of " << Describe(disjoint)
              << ": " << text;
        }
      }
    }
  }
}

// The level shortcut under writes and forks. `c` occurs at two depths;
// `b` starts one level below the root only, so `/a/b` is a span of the
// `b` list. A `b` inserted a level deeper turns the shortcut off for that
// list, deleting it leaves the bound raised, and a fork or a snapshot
// pinned before the insert keeps answering its own version.
TEST_P(EvaluatorOrderTest, ChildSpansFollowDeeperInsertsDeletesAndForks) {
  const char* const kXml = "<a><b><c/></b><c/><x><y/></x><b><c/></b><b/></a>";
  const char* const kQueries[] = {"/a/b", "/a/b[2]", "/a/b[./c]", "/a/c",
                                  "//x/b", "/a/*[./c]"};
  const auto scheme = labeling::SchemeByName(GetParam());
  auto parsed = xml::ParseXml(kXml);
  ASSERT_TRUE(parsed.ok());
  RefTree ref = RefTree::FromDocument(*parsed);
  LabeledDocument labeled(*parsed, *scheme);
  const NodeId y = 5;
  ASSERT_EQ(ref.tag[y], "y");

  auto check = [&](const LabeledDocument& doc, const RefTree& tree,
                   const char* when) {
    const RefEvaluator reference(tree);
    for (const char* text : kQueries) {
      auto query = ParseQuery(text);
      ASSERT_TRUE(query.ok()) << text;
      ASSERT_EQ(EvaluateQuery(*query, doc), reference.Evaluate(*query))
          << GetParam() << " " << when << ": " << text;
      ASSERT_EQ(CountQuery(*query, doc, doc.root()),
                reference.Evaluate(*query).size())
          << GetParam() << " " << when << ": " << text;
    }
    // The shortcut rests on the labels' levels being the tree's.
    const labeling::Labeling& lab = doc.labeling();
    for (const NodeId n : tree.PreOrder()) {
      ASSERT_EQ(lab.Level(n), lab.skeleton().level(n)) << GetParam() << n;
    }
  };
  auto scanned = [&](const LabeledDocument& doc) {
    auto query = ParseQuery("/a/b");
    const uint64_t before = CandidatesScanned();
    EvaluateQuery(*query, doc);
    return CandidatesScanned() - before;
  };

  ASSERT_NO_FATAL_FAILURE(check(labeled, ref, "loaded"));
  EXPECT_EQ(labeled.WithTag("b").max_level(), 2);
  EXPECT_EQ(scanned(labeled), 0u) << GetParam();
  const RefTree before_insert = ref;
  const std::unique_ptr<LabeledDocument> fork = labeled.Fork();

  // A `b` next to `y`, deeper than any `b` before it.
  const labeling::InsertResult inserted =
      labeled.InsertSibling(y, /*before=*/false, "b");
  ASSERT_EQ(inserted.new_node, ref.AddSibling(y, /*before=*/false, "b"));
  ASSERT_NO_FATAL_FAILURE(check(labeled, ref, "after the deep insert"));
  EXPECT_EQ(labeled.WithTag("b").max_level(), 3);
  EXPECT_GT(scanned(labeled), 0u) << GetParam();

  // The fork still has only shallow `b`s and answers from its own labels.
  EXPECT_EQ(fork->WithTag("b").max_level(), 2);
  ASSERT_NO_FATAL_FAILURE(check(*fork, before_insert, "fork"));

  labeled.DeleteSubtree(inserted.new_node);
  ref.RemoveSubtree(inserted.new_node);
  ASSERT_NO_FATAL_FAILURE(check(labeled, ref, "after the delete"));
  EXPECT_EQ(labeled.WithTag("b").max_level(), 3);  // never lowered

  // The same through the concurrent engine: a snapshot pinned before the
  // insert keeps its version while the writer moves on.
  ConcurrentXmlDbOptions options;
  options.db.scheme_name = GetParam();
  auto db = ConcurrentXmlDb::OpenFromXml(kXml, options);
  ASSERT_TRUE(db.ok()) << db.status();
  RefTree live = before_insert;
  const ConcurrentXmlDb::Snapshot pinned = (*db)->PinSnapshot();
  Result<uint64_t> deep = (*db)->Submit(WriteOp::InsertAfter(y, "b")).get();
  ASSERT_TRUE(deep.ok()) << deep.status();
  ASSERT_EQ(*deep, live.AddSibling(y, /*before=*/false, "b"));
  {
    const ConcurrentXmlDb::Snapshot now = (*db)->PinSnapshot();
    ASSERT_NO_FATAL_FAILURE(check(now.view(), live, "engine after insert"));
  }
  ASSERT_NO_FATAL_FAILURE(check(pinned.view(), before_insert, "pinned"));
  ASSERT_TRUE((*db)->Submit(WriteOp::Delete(*deep)).get().ok());
  live.RemoveSubtree(*deep);
  {
    const ConcurrentXmlDb::Snapshot now = (*db)->PinSnapshot();
    ASSERT_NO_FATAL_FAILURE(check(now.view(), live, "engine after delete"));
  }
  ASSERT_NO_FATAL_FAILURE(check(pinned.view(), before_insert, "pinned"));
}

// The order key a tag list must carry for `id`: the codec's abbreviation
// of its start value (of its end value with `end`) for a containment
// scheme, and the constant 0 for the others.
std::function<uint32_t(NodeId)> CodecKeyOf(const labeling::Labeling& lab,
                                           bool end = false) {
  std::function<uint32_t(NodeId)> key_of = [](NodeId) { return 0u; };
  labeling::WithContainment(
      lab, [&]<typename Codec>(
               const labeling::ContainmentLabeling<Codec>& containment) {
        key_of = [&containment, end](NodeId id) {
          return Codec::Key(end ? containment.ends()[id]
                                : containment.starts()[id]);
        };
      });
  return key_of;
}

// Every tag list of `doc`, whatever its scheme, is keyed: each key is the
// codec's abbreviation of its id's start value (0 outside the containment
// family), and every run carries a key summary that covers it. Every
// per-tag list also carries end keys, each the abbreviation of its id's
// end value (the list of all elements carries none). Answers are the DOM
// walk's.
void ExpectKeysAndAnswers(const LabeledDocument& doc, const RefTree& ref,
                          const std::string& when) {
  const std::function<uint32_t(NodeId)> key_of = CodecKeyOf(doc.labeling());
  const std::function<uint32_t(NodeId)> end_key_of =
      CodecKeyOf(doc.labeling(), /*end=*/true);
  for (const char* name : {"*", "r", "a", "b", "c"}) {
    const TagList& list = doc.WithTag(name);
    if (list.empty()) continue;  // an unknown tag's shared empty list
    const bool per_tag = std::string(name) != "*";
    ASSERT_EQ(list.has_end_keys(), per_tag) << when << " //" << name;
    ASSERT_TRUE(list.SpineConsistent()) << when << " //" << name;
    ASSERT_EQ(list.summarized_runs(), list.run_count())
        << when << " //" << name;
    for (size_t i = 0; i < list.size(); ++i) {
      ASSERT_EQ(list.key(i), key_of(list[i]))
          << when << " //" << name << " at " << i << " (node " << list[i]
          << ")";
      if (per_tag) {
        ASSERT_EQ(list.end_key(i), end_key_of(list[i]))
            << when << " //" << name << " end at " << i << " (node "
            << list[i] << ")";
      }
    }
  }
  const RefEvaluator reference(ref);
  for (const char* text : kTargetedQueries) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    ASSERT_EQ(EvaluateQuery(*query, doc), reference.Evaluate(*query))
        << when << ": " << text;
  }
}

// The key invariant LabeledDocument owns, for every scheme: random inserts
// and deletes, forks pinned before writes, V-Binary inserts that shift
// values, and skewed inserts at one gap that overflow V-CDBS into a
// re-encode. After every step the keys are the labels' and answers match
// the DOM walk, in the live document and in every pinned fork.
TEST_P(EvaluatorOrderTest, KeysFollowLabelsUnderWritesForksAndRelabels) {
  const auto scheme = labeling::SchemeByName(GetParam());
  std::mt19937_64 rng(21);
  RefTree ref = RandomTree(&rng, 400);
  auto parsed = xml::ParseXml(ref.ToXml());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  LabeledDocument labeled(*parsed, *scheme);
  ASSERT_NO_FATAL_FAILURE(ExpectKeysAndAnswers(labeled, ref, "loaded"));

  uint64_t relabels = 0;
  uint64_t overflows = 0;
  auto insert = [&](NodeId target, bool before, const std::string& tag) {
    const labeling::InsertResult result =
        labeled.InsertSibling(target, before, tag);
    ASSERT_EQ(result.new_node, ref.AddSibling(target, before, tag));
    relabels += result.relabeled > 0 ? 1 : 0;
    overflows += result.overflow ? 1 : 0;
  };
  std::vector<std::pair<std::unique_ptr<LabeledDocument>, RefTree>> forks;
  for (int round = 0; round < 6; ++round) {
    forks.emplace_back(labeled.Fork(), ref);
    for (int op = 0; op < 8; ++op) {
      const std::vector<NodeId> live = ref.PreOrder();
      const NodeId target = live[1 + rng() % (live.size() - 1)];
      if (rng() % 4 == 0 && live.size() > 30) {
        labeled.DeleteSubtree(target);
        ref.RemoveSubtree(target);
      } else {
        ASSERT_NO_FATAL_FAILURE(insert(target, rng() % 2 == 0, RandomTag(&rng)));
      }
      const std::string when = "round " + std::to_string(round) + " op " +
                               std::to_string(op);
      ASSERT_NO_FATAL_FAILURE(ExpectKeysAndAnswers(labeled, ref, when));
    }
  }
  // Skewed inserts, each just before the one inserted last: one gap.
  forks.emplace_back(labeled.Fork(), ref);
  const std::vector<NodeId> live = ref.PreOrder();
  NodeId target = live[live.size() / 2];
  for (int i = 0; i < 40; ++i) {
    ASSERT_NO_FATAL_FAILURE(insert(target, /*before=*/true, "b"));
    target = static_cast<NodeId>(ref.tag.size() - 1);
    ASSERT_NO_FATAL_FAILURE(
        ExpectKeysAndAnswers(labeled, ref, "skewed insert " + std::to_string(i)));
  }
  for (size_t f = 0; f < forks.size(); ++f) {
    ASSERT_NO_FATAL_FAILURE(ExpectKeysAndAnswers(
        *forks[f].first, forks[f].second, "fork " + std::to_string(f)));
  }
  if (GetParam() == "V-Binary-Containment") {
    EXPECT_GT(relabels, 0u) << "no insert shifted values";
  }
  if (GetParam() == "V-CDBS-Containment") {
    EXPECT_GT(overflows, 0u) << "no insert overflowed into a re-encode";
  }
}

// Skewed inserts at one gap, each just before the one inserted last, grow
// the codes there as far as the scheme lets them before it re-encodes.
// Every targeted query must still match the DOM walk, and the navigator
// must have met keys that tie and decided them. The prefix schemes and
// Prime key every label 0, so each of their probes ties. V-/F-CDBS re-encode
// before a code passes 2^field - 1 <= 31 bits, integer values stay below
// 2^32 and floats are keyed exactly, so there the ties are a search
// meeting its own context (a `*` step from an element, `//a/a`). QED codes
// grow past the 16 digits a key holds, so QED-Containment, and Hybrid once
// the skew has switched it to QED, also meet distinct labels that share a
// key. Ties between distinct CDBS words are covered on synthetic words in
// TagListKeyTest (cow_snapshot_test.cc).
TEST_P(EvaluatorOrderTest, SkewedInsertsMeetKeyTiesAndMatchTheDomWalk) {
  const auto scheme = labeling::SchemeByName(GetParam());
  std::mt19937_64 rng(33);
  RefTree ref = RandomTree(&rng, 300);
  auto parsed = xml::ParseXml(ref.ToXml());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  LabeledDocument labeled(*parsed, *scheme);
  const std::vector<NodeId> live = ref.PreOrder();
  NodeId target = live[live.size() / 3];
  const uint64_t ties0 = KeyTies();
  for (int i = 0; i < 60; ++i) {
    const labeling::InsertResult result =
        labeled.InsertSibling(target, /*before=*/true, "a");
    ASSERT_EQ(result.new_node, ref.AddSibling(target, /*before=*/true, "a"));
    target = result.new_node;
    if (i % 10 == 9) {
      ASSERT_NO_FATAL_FAILURE(ExpectKeysAndAnswers(
          labeled, ref, "skewed insert " + std::to_string(i)));
    }
  }
  EXPECT_GT(KeyTies() - ties0, 0u) << "no keyed comparison tied";
  if (GetParam() == "QED-Containment" ||
      GetParam() == "Hybrid-CDBS/QED-Containment") {
    const auto* hybrid = dynamic_cast<const labeling::ContainmentLabeling<
        labeling::HybridContainmentCodec>*>(&labeled.labeling());
    if (hybrid != nullptr) {
      ASSERT_TRUE(std::holds_alternative<core::QedCode>(
          hybrid->starts()[labeled.root()]))
          << "the skewed inserts never switched Hybrid to QED";
    }
    // Distinct labels share a key, and searches after the switch tie.
    const TagList& all = labeled.all_elements();
    bool shared = false;
    for (size_t i = 1; i < all.size() && !shared; ++i) {
      shared = all.key(i - 1) == all.key(i);
    }
    EXPECT_TRUE(shared) << "no two QED codes share their first 16 digits";
    const uint64_t ties1 = KeyTies();
    ASSERT_NO_FATAL_FAILURE(ExpectKeysAndAnswers(labeled, ref, "final"));
    EXPECT_GT(KeyTies() - ties1, 0u) << "no QED-keyed comparison tied";
  }
}

// The list metadata a keyed step decides from, under writes: a `b` put
// inside a `b` flips nested() of the `b` list (and raises its max_level),
// after which child and descendant steps from `b` contexts must still
// match the DOM walk; deleting it lowers neither the bound nor the flag,
// and raises no min_level.
TEST_P(EvaluatorOrderTest, NestingInsertFlipsNestedAndDeletesKeepBounds) {
  const char* const kXml = "<r><b><c/></b><c/><b><c/><a/></b></r>";
  const char* const kQueries[] = {"//b/c",   "//b/b",  "//b//c",
                                  "//b/*",   "/r/b/b", "//b[./b]/c",
                                  "//b/c[1]", "//b//*"};
  const auto scheme = labeling::SchemeByName(GetParam());
  auto parsed = xml::ParseXml(kXml);
  ASSERT_TRUE(parsed.ok());
  RefTree ref = RefTree::FromDocument(*parsed);
  LabeledDocument labeled(*parsed, *scheme);
  auto check = [&](const char* when) {
    const RefEvaluator reference(ref);
    for (const char* text : kQueries) {
      auto query = ParseQuery(text);
      ASSERT_TRUE(query.ok()) << text;
      ASSERT_EQ(EvaluateQuery(*query, labeled), reference.Evaluate(*query))
          << GetParam() << " " << when << ": " << text;
      ASSERT_EQ(CountQuery(*query, labeled, labeled.root()),
                reference.Evaluate(*query).size())
          << GetParam() << " " << when << ": " << text;
    }
  };
  const TagList& b = labeled.WithTag("b");
  ASSERT_NO_FATAL_FAILURE(check("loaded"));
  EXPECT_FALSE(b.nested());
  EXPECT_EQ(b.min_level(), 2);
  EXPECT_EQ(b.max_level(), 2);
  EXPECT_TRUE(labeled.all_elements().nested());
  EXPECT_EQ(labeled.WithTag("r").min_level(), 1);

  // A `b` before the first `b`'s `c`: a `b` inside a `b`.
  const NodeId c = 2;
  ASSERT_EQ(ref.tag[c], "c");
  const labeling::InsertResult inner =
      labeled.InsertSibling(c, /*before=*/true, "b");
  ASSERT_EQ(inner.new_node, ref.AddSibling(c, /*before=*/true, "b"));
  EXPECT_TRUE(b.nested());
  EXPECT_EQ(b.max_level(), 3);
  EXPECT_EQ(b.min_level(), 2);
  ASSERT_NO_FATAL_FAILURE(check("after the nesting insert"));

  labeled.DeleteSubtree(inner.new_node);
  ref.RemoveSubtree(inner.new_node);
  EXPECT_TRUE(b.nested());       // never cleared
  EXPECT_EQ(b.max_level(), 3);   // never lowered
  EXPECT_EQ(b.min_level(), 2);   // never raised
  ASSERT_NO_FATAL_FAILURE(check("after the delete"));
}

std::vector<std::string> AllSchemeNames() {
  std::vector<std::string> names;
  for (const auto& scheme : labeling::AllSchemes()) {
    names.push_back(scheme->name());
  }
  return names;
}

std::string ParamName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name;
  for (const char c : info.param) {
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Schemes, EvaluatorOrderTest,
                         ::testing::ValuesIn(AllSchemeNames()), ParamName);

// The counter itself: Table 3's child/descendant queries never sort on D5,
// while descendant steps from nested contexts must.
TEST(StepsSortedCounterTest, ZeroForTable3DownwardQueriesOnD5) {
  const std::vector<xml::Document> corpus = xml::GenerateShakespeareDataset();
  for (const char* name : {"V-CDBS-Containment", "V-Binary-Containment"}) {
    const auto scheme = labeling::SchemeByName(name);
    std::vector<std::unique_ptr<LabeledDocument>> labeled;
    for (const xml::Document& doc : corpus) {
      labeled.push_back(std::make_unique<LabeledDocument>(doc, *scheme));
    }
    for (const size_t q : {0u, 1u, 4u, 5u}) {  // Q1, Q2, Q5, Q6
      auto query = ParseQuery(Table3Queries()[q]);
      ASSERT_TRUE(query.ok());
      const uint64_t before = StepsSorted();
      uint64_t matches = 0;
      for (const auto& doc : labeled) {
        matches += EvaluateQuery(*query, *doc).size();
      }
      EXPECT_GT(matches, 0u) << name << " Q" << q + 1;
      EXPECT_EQ(StepsSorted() - before, 0u) << name << " Q" << q + 1;
    }
  }
}

TEST(StepsSortedCounterTest, CountsNestedDescendantSteps) {
  auto parsed = xml::ParseXml("<r><a><a><b/></a><b/></a><a><b/></a></r>");
  ASSERT_TRUE(parsed.ok());
  const auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  const LabeledDocument labeled(*parsed, *scheme);
  auto query = ParseQuery("//a//b");
  ASSERT_TRUE(query.ok());
  const uint64_t before = StepsSorted();
  EXPECT_EQ(EvaluateQuery(*query, labeled).size(), 3u);
  EXPECT_EQ(StepsSorted() - before, 1u);
}

TEST(StepsSortedCounterTest, Exported) {
  auto parsed = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(parsed.ok());
  const auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  const LabeledDocument labeled(*parsed, *scheme);
  auto query = ParseQuery("/r/a");
  ASSERT_TRUE(query.ok());
  EvaluateQuery(*query, labeled);
  const obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  EXPECT_NE(obs::ToJson(registry).find("\"query.eval.steps_sorted\""),
            std::string::npos);
  EXPECT_NE(obs::ToPrometheus(registry).find("query_eval_steps_sorted"),
            std::string::npos);
}

// The skip, pinned as exact counts: `*` under /play gallops over each
// child's subtree instead of testing every element in it, and descendant
// steps copy their span without looking at a candidate.
TEST(CandidatesScannedCounterTest, SkipsSubtreesOnAFixedPlay) {
  const xml::Document play = xml::GeneratePlay(/*seed=*/11, 20000);
  for (const char* name : {"V-CDBS-Containment", "QED-Prefix", "Prime"}) {
    const auto scheme = labeling::SchemeByName(name);
    const LabeledDocument labeled(play, *scheme);
    const size_t elements = labeled.all_elements().size();
    ASSERT_GT(elements, 10000u);
    auto scanned = [&](const char* text) {
      auto query = ParseQuery(text);
      EXPECT_TRUE(query.ok()) << text;
      const uint64_t before = CandidatesScanned();
      EXPECT_FALSE(EvaluateQuery(*query, labeled).empty()) << name << text;
      return CandidatesScanned() - before;
    };
    EXPECT_LT(scanned("/play/*//line") * 100, elements) << name;
    EXPECT_EQ(scanned("//line"), 0u) << name;
    EXPECT_EQ(scanned("/play//speech"), 0u) << name;
    // Child steps over lists that never nest below their parents are
    // spans: copied whole, and [n] is an index into them.
    EXPECT_EQ(scanned("//act/scene/speech"), 0u) << name;
    EXPECT_EQ(scanned("/play/act[2]"), 0u) << name;
  }
}

TEST(CandidatesScannedCounterTest, Exported) {
  // The second `a` sits below a `b`, so `a` children of `r` are not a
  // span and the child step scans.
  auto parsed = xml::ParseXml("<r><a/><b><a/></b></r>");
  ASSERT_TRUE(parsed.ok());
  const auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  const LabeledDocument labeled(*parsed, *scheme);
  auto query = ParseQuery("/r/a");
  ASSERT_TRUE(query.ok());
  const uint64_t before = CandidatesScanned();
  EvaluateQuery(*query, labeled);
  // The child `a`, then the nested `a`, a level too deep, stepped over.
  EXPECT_EQ(CandidatesScanned() - before, 2u);
  const obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  EXPECT_NE(obs::ToJson(registry).find("\"query.eval.candidates_scanned\""),
            std::string::npos);
  EXPECT_NE(obs::ToPrometheus(registry).find("query_eval_candidates_scanned"),
            std::string::npos);
}

}  // namespace
}  // namespace cdbs::query
