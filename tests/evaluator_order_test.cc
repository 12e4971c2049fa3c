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
#include <vector>

#include <gtest/gtest.h>

#include "dom_reference.h"
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

uint64_t StepsSorted() {
  return obs::MetricRegistry::Default()
      .GetCounter("query.eval.steps_sorted")
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
      labeling::Labeling* lab = labeled->labeling_mutable();
      const labeling::InsertResult result =
          before ? lab->InsertSiblingBefore(target)
                 : lab->InsertSiblingAfter(target);
      labeled->NoteInsertedNode(result.new_node, tag);
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
// from that scope and counts its size; counting several scopes in one call,
// with the cursors carried from scope to scope, gives each scope's count.
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
      std::vector<NodeId> reversed(disjoint.rbegin(), disjoint.rend());
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
        // Carried cursors (disjoint, in order) and fresh ones (nested or
        // out of order) give every scope its own count.
        for (std::vector<NodeId>* set : {&disjoint, &reversed, &scopes}) {
          const std::vector<uint64_t> counts =
              CountPerScope(*query, labeled, *set);
          ASSERT_EQ(counts.size(), set->size());
          for (size_t k = 0; k < set->size(); ++k) {
            ASSERT_EQ(counts[k], reference((*set)[k]).Evaluate(*query).size())
                << GetParam() << " seed " << seed << " round " << round
                << " scope " << (*set)[k] << " of " << Describe(*set) << ": "
                << text;
          }
        }
      }
    }
  }
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

uint64_t CandidatesScanned() {
  return obs::MetricRegistry::Default()
      .GetCounter("query.eval.candidates_scanned")
      ->value();
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
  }
}

TEST(CandidatesScannedCounterTest, Exported) {
  auto parsed = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(parsed.ok());
  const auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  const LabeledDocument labeled(*parsed, *scheme);
  auto query = ParseQuery("/r/a");
  ASSERT_TRUE(query.ok());
  const uint64_t before = CandidatesScanned();
  EvaluateQuery(*query, labeled);
  EXPECT_EQ(CandidatesScanned() - before, 1u);  // `a`, then the list ends
  const obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  EXPECT_NE(obs::ToJson(registry).find("\"query.eval.candidates_scanned\""),
            std::string::npos);
  EXPECT_NE(obs::ToPrometheus(registry).find("query_eval_candidates_scanned"),
            std::string::npos);
}

}  // namespace
}  // namespace cdbs::query
