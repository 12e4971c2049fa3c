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
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

using labeling::kNoNode;

uint64_t StepsSorted() {
  return obs::MetricRegistry::Default()
      .GetCounter("query.eval.steps_sorted")
      ->value();
}

// The reference DOM. Ids are the labeling's: pre-order at load time, then
// one fresh id per insert, as TreeSkeleton assigns them.
struct RefTree {
  std::vector<std::string> tag;
  std::vector<NodeId> parent;
  std::vector<std::vector<NodeId>> children;  // live children, in order

  NodeId Add(NodeId parent_id, std::string name) {
    const NodeId id = static_cast<NodeId>(tag.size());
    tag.push_back(std::move(name));
    parent.push_back(parent_id);
    children.emplace_back();
    return id;
  }

  // Inserts a new sibling of `target`; returns its id.
  NodeId AddSibling(NodeId target, bool before, std::string name) {
    const NodeId id = Add(parent[target], std::move(name));
    std::vector<NodeId>& kids = children[parent[target]];
    auto pos = std::find(kids.begin(), kids.end(), target);
    kids.insert(before ? pos : pos + 1, id);
    return id;
  }

  // Unlinks `target`; its subtree drops out of every walk from the root.
  void RemoveSubtree(NodeId target) {
    std::vector<NodeId>& kids = children[parent[target]];
    kids.erase(std::find(kids.begin(), kids.end(), target));
  }

  // Live nodes in document order.
  std::vector<NodeId> PreOrder() const {
    std::vector<NodeId> out;
    std::vector<NodeId> stack = {0};
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      out.push_back(n);
      for (size_t i = children[n].size(); i-- > 0;) {
        stack.push_back(children[n][i]);
      }
    }
    return out;
  }

  std::string ToXml(NodeId n = 0) const {
    if (children[n].empty()) return "<" + tag[n] + "/>";
    std::string out = "<" + tag[n] + ">";
    for (const NodeId c : children[n]) out += ToXml(c);
    return out + "</" + tag[n] + ">";
  }
};

// Evaluates the XPath subset by walking RefTree — the semantics
// EvaluateQuery documents, computed without labels.
class RefEvaluator {
 public:
  explicit RefEvaluator(const RefTree& tree)
      : tree_(tree), order_(tree.PreOrder()), rank_(tree.tag.size(), 0) {
    for (size_t i = 0; i < order_.size(); ++i) rank_[order_[i]] = i;
  }

  std::vector<NodeId> Evaluate(const Query& query) const {
    std::vector<NodeId> context;
    for (size_t s = 0; s < query.steps.size(); ++s) {
      const Step& step = query.steps[s];
      std::vector<NodeId> next;
      if (s == 0) {
        if (step.axis == Axis::kChild) {
          if (Matches(step, 0) && step.position <= 1 &&
              Predicates(step, 0)) {
            next.push_back(0);
          }
        } else if (step.axis == Axis::kDescendant) {
          for (const NodeId n : order_) {
            if (!Matches(step, n)) continue;
            if (step.position != 0 && SameTagRank(n) != step.position) {
              continue;
            }
            if (Predicates(step, n)) next.push_back(n);
          }
        }
      } else {
        for (const NodeId c : context) Expand(step, c, &next);
        std::sort(next.begin(), next.end(),
                  [this](NodeId a, NodeId b) { return rank_[a] < rank_[b]; });
        next.erase(std::unique(next.begin(), next.end()), next.end());
      }
      context = std::move(next);
    }
    return context;
  }

 private:
  bool Matches(const Step& step, NodeId n) const {
    return step.name == "*" || step.name == tree_.tag[n];
  }

  bool IsAncestor(NodeId a, NodeId d) const {
    for (NodeId p = tree_.parent[d]; p != kNoNode; p = tree_.parent[p]) {
      if (p == a) return true;
    }
    return false;
  }

  int SameTagRank(NodeId n) const {
    if (n == 0) return 1;
    int rank = 1;
    for (const NodeId sib : tree_.children[tree_.parent[n]]) {
      if (sib == n) break;
      if (tree_.tag[sib] == tree_.tag[n]) ++rank;
    }
    return rank;
  }

  // Descendants of `n` in document order.
  std::vector<NodeId> Descendants(NodeId n) const {
    std::vector<NodeId> out;
    for (size_t i = rank_[n] + 1; i < order_.size(); ++i) {
      if (!IsAncestor(n, order_[i])) break;
      out.push_back(order_[i]);
    }
    return out;
  }

  bool Exists(NodeId n, const std::vector<Step>& steps, size_t i) const {
    if (i == steps.size()) return true;
    const Step& step = steps[i];
    const std::vector<NodeId> cands = step.axis == Axis::kChild
                                          ? tree_.children[n]
                                          : Descendants(n);
    for (const NodeId c : cands) {
      if (Matches(step, c) && Predicates(step, c) && Exists(c, steps, i + 1)) {
        return true;
      }
    }
    return false;
  }

  bool Predicates(const Step& step, NodeId n) const {
    for (const RelativePath& rel : step.predicates) {
      if (!Exists(n, rel.steps, 0)) return false;
    }
    return true;
  }

  void Expand(const Step& step, NodeId c, std::vector<NodeId>* out) const {
    auto emit = [&](NodeId n) {
      if (Matches(step, n) && Predicates(step, n)) out->push_back(n);
    };
    switch (step.axis) {
      case Axis::kChild: {
        int rank = 0;
        for (const NodeId k : tree_.children[c]) {
          if (!Matches(step, k)) continue;
          ++rank;
          if (step.position != 0 && rank != step.position) continue;
          if (Predicates(step, k)) out->push_back(k);
        }
        break;
      }
      case Axis::kDescendant:
        for (const NodeId d : Descendants(c)) {
          if (step.position != 0 && Matches(step, d) &&
              SameTagRank(d) != step.position) {
            continue;
          }
          emit(d);
        }
        break;
      case Axis::kPrecedingSibling:
        if (c == 0) break;
        for (const NodeId sib : tree_.children[tree_.parent[c]]) {
          if (sib == c) break;
          emit(sib);
        }
        break;
      case Axis::kFollowing:
        for (size_t i = rank_[c] + 1; i < order_.size(); ++i) {
          if (!IsAncestor(c, order_[i])) emit(order_[i]);
        }
        break;
      case Axis::kParent:
        if (c != 0) emit(tree_.parent[c]);
        break;
      case Axis::kAncestor:
        for (NodeId p = tree_.parent[c]; p != kNoNode; p = tree_.parent[p]) {
          emit(p);
        }
        break;
    }
  }

  const RefTree& tree_;
  std::vector<NodeId> order_;
  std::vector<size_t> rank_;
};

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

std::string RandomPredicate(std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
    case 0:
      return "[./" + RandomName(rng) + "]";
    case 1:
      return "[.//" + RandomName(rng) + "]";
    case 2:
      return "[" + std::to_string(1 + (*rng)() % 3) + "]";
    default:
      return "";
  }
}

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

class EvaluatorOrderTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EvaluatorOrderTest, MatchesDomWalkUnderRandomUpdates) {
  const auto scheme = labeling::SchemeByName(GetParam());
  // Fast steps: evaluations of 2+ steps with a non-empty answer and no sort.
  uint64_t fast_evals = 0;
  uint64_t sorted_steps = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    RefTree ref = RandomTree(&rng, 60 + seed * 15);
    auto parsed = xml::ParseXml(ref.ToXml());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const xml::Document doc = std::move(parsed).value();
    LabeledDocument labeled(doc, *scheme);
    ASSERT_EQ(labeled.labeling().num_nodes(), ref.tag.size());

    for (int round = 0; round < 4; ++round) {
      // Apply a few random updates, mirrored into the reference.
      for (int op = 0; op < 6; ++op) {
        const std::vector<NodeId> live = ref.PreOrder();
        if (live.size() < 2) break;
        const NodeId target = live[1 + rng() % (live.size() - 1)];
        labeling::Labeling* lab = labeled.labeling_mutable();
        if (rng() % 4 == 0 && live.size() > 30) {
          const labeling::DeleteResult result = lab->DeleteSubtree(target);
          labeled.NoteRemovedNodes(result.removed);
          ref.RemoveSubtree(target);
        } else {
          const bool before = rng() % 2 == 0;
          const std::string tag = RandomTag(&rng);
          const labeling::InsertResult result =
              before ? lab->InsertSiblingBefore(target)
                     : lab->InsertSiblingAfter(target);
          labeled.NoteInsertedNode(result.new_node, tag);
          ASSERT_EQ(result.new_node, ref.AddSibling(target, before, tag));
        }
      }
      const RefEvaluator reference(ref);
      for (int i = 0; i < 40; ++i) {
        const std::string text = RandomQuery(&rng);
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

}  // namespace
}  // namespace cdbs::query
