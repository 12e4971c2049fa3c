#include "query/evaluator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace cdbs::query {

namespace {

using labeling::kNoNode;
using labeling::Labeling;

// Default-registry instrumentation for the navigational evaluator; the
// comparison counter is the paper's cost model (every step is a sequence of
// label comparisons whose per-comparison price differs by scheme).
obs::Counter& QueriesCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.queries", "Navigational query evaluations");
  return *c;
}

obs::Counter& LabelComparisonsCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.label_comparisons",
      "Label order comparisons performed while positioning in tag lists");
  return *c;
}

obs::Counter& NodesEmittedCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.nodes_emitted", "Nodes produced by query evaluations");
  return *c;
}

obs::Counter& StepsSortedCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.steps_sorted",
      "Query steps whose output had to be sorted into document order");
  return *c;
}

// Index of the first node in the document-ordered `list` that comes after
// `node` in document order — found with label comparisons (binary search
// over the list's COW runs; allocation-free).
size_t FirstAfter(const Labeling& lab, const TagList& list, NodeId node) {
  size_t comparisons = 0;
  size_t lo = 0;
  size_t hi = list.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++comparisons;
    if (lab.CompareOrder(node, list[mid]) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  LabelComparisonsCounter().Increment(comparisons);
  return lo;
}

// True when every existence predicate of `step` holds at `node`.
bool PredicatesHold(const LabeledDocument& doc, const Step& step, NodeId node);

// True when the relative path `steps[i..]` matches something under `node`.
bool ExistsFrom(const LabeledDocument& doc, NodeId node,
                const std::vector<Step>& steps, size_t i) {
  if (i == steps.size()) return true;
  const Labeling& lab = doc.labeling();
  const Step& step = steps[i];
  const TagList& cands = doc.WithTag(step.name);
  const TagList::Iterator last = cands.end();
  for (TagList::Iterator it = cands.IteratorAt(FirstAfter(lab, cands, node));
       it != last && lab.IsAncestor(node, *it); ++it) {
    const NodeId cand = *it;
    if (step.axis == Axis::kChild && !lab.IsParent(node, cand)) continue;
    if (!PredicatesHold(doc, step, cand)) continue;
    if (ExistsFrom(doc, cand, steps, i + 1)) return true;
  }
  return false;
}

bool PredicatesHold(const LabeledDocument& doc, const Step& step,
                    NodeId node) {
  for (const RelativePath& rel : step.predicates) {
    if (!ExistsFrom(doc, node, rel.steps, 0)) return false;
  }
  return true;
}

// 1-based rank of `node` among its same-tag siblings, via labels.
size_t SiblingRank(const LabeledDocument& doc, NodeId node) {
  const Labeling& lab = doc.labeling();
  const NodeId parent = FindParent(doc, node);
  if (parent == kNoNode) return 1;  // the root
  const TagList& cands = doc.WithTag(doc.tag(node));
  size_t rank = 1;
  const TagList::Iterator last = cands.end();
  for (TagList::Iterator it = cands.IteratorAt(FirstAfter(lab, cands, parent));
       it != last && lab.CompareOrder(*it, node) < 0; ++it) {
    if (lab.IsParent(parent, *it)) ++rank;
  }
  return rank;
}

// Child/descendant expansion of one context node.
void ExpandDown(const LabeledDocument& doc, NodeId context, const Step& step,
                std::vector<NodeId>* out) {
  const Labeling& lab = doc.labeling();
  const TagList& cands = doc.WithTag(step.name);
  size_t child_rank = 0;  // per-context rank for child-axis positionals
  const TagList::Iterator last = cands.end();
  for (TagList::Iterator it =
           cands.IteratorAt(FirstAfter(lab, cands, context));
       it != last && lab.IsAncestor(context, *it); ++it) {
    const NodeId cand = *it;
    if (step.axis == Axis::kChild) {
      if (!lab.IsParent(context, cand)) continue;
      ++child_rank;
      if (step.position != 0 &&
          child_rank != static_cast<size_t>(step.position)) {
        continue;
      }
    } else if (step.position != 0 &&
               SiblingRank(doc, cand) != static_cast<size_t>(step.position)) {
      continue;  // //name[n]: rank among same-tag siblings
    }
    if (!PredicatesHold(doc, step, cand)) continue;
    out->push_back(cand);
  }
}

void ExpandPrecedingSibling(const LabeledDocument& doc, NodeId context,
                            const Step& step, std::vector<NodeId>* out) {
  const Labeling& lab = doc.labeling();
  const NodeId parent = FindParent(doc, context);
  if (parent == kNoNode) return;
  const TagList& cands = doc.WithTag(step.name);
  const TagList::Iterator last = cands.end();
  for (TagList::Iterator it = cands.IteratorAt(FirstAfter(lab, cands, parent));
       it != last && lab.CompareOrder(*it, context) < 0; ++it) {
    const NodeId cand = *it;
    if (!lab.IsParent(parent, cand)) continue;
    if (!PredicatesHold(doc, step, cand)) continue;
    out->push_back(cand);
  }
}

void ExpandParent(const LabeledDocument& doc, NodeId context,
                  const Step& step, std::vector<NodeId>* out) {
  const NodeId parent = FindParent(doc, context);
  if (parent == kNoNode) return;
  if (step.name != "*" && doc.tag(parent) != step.name) return;
  if (!PredicatesHold(doc, step, parent)) return;
  out->push_back(parent);
}

void ExpandAncestor(const LabeledDocument& doc, NodeId context,
                    const Step& step, std::vector<NodeId>* out) {
  const Labeling& lab = doc.labeling();
  // Candidates with the right tag that start before the context node; keep
  // those whose label encloses it.
  const TagList& cands = doc.WithTag(step.name);
  const size_t end = FirstAfter(lab, cands, context);
  TagList::Iterator it = cands.begin();
  for (size_t idx = 0; idx < end; ++idx, ++it) {
    const NodeId cand = *it;
    if (cand == context || !lab.IsAncestor(cand, context)) continue;
    if (!PredicatesHold(doc, step, cand)) continue;
    out->push_back(cand);
  }
}

void ExpandFollowing(const LabeledDocument& doc, NodeId context,
                     const Step& step, std::vector<NodeId>* out) {
  const Labeling& lab = doc.labeling();
  const TagList& cands = doc.WithTag(step.name);
  const TagList::Iterator last = cands.end();
  TagList::Iterator it = cands.IteratorAt(FirstAfter(lab, cands, context));
  // Skip the context's own descendants (following excludes them).
  while (it != last && lab.IsAncestor(context, *it)) ++it;
  for (; it != last; ++it) {
    if (!PredicatesHold(doc, step, *it)) continue;
    out->push_back(*it);
  }
}

// True when no context node is an ancestor of the next one. For a
// document-ordered list that makes it an antichain: an ancestor of a later
// node is also an ancestor of every node between them in document order.
bool IsAntichain(const Labeling& lab, const std::vector<NodeId>& context) {
  for (size_t k = 1; k < context.size(); ++k) {
    if (lab.IsAncestor(context[k - 1], context[k])) return false;
  }
  return true;
}

// The node of a non-empty document-ordered context whose following:: set is
// the union of all of theirs: the one whose subtree ends first, i.e. the end
// of the leading ancestor chain (every later node starts after it ends).
NodeId FollowingAnchor(const Labeling& lab,
                       const std::vector<NodeId>& context) {
  NodeId anchor = context[0];
  for (size_t k = 1; k < context.size() && lab.IsAncestor(anchor, context[k]);
       ++k) {
    anchor = context[k];
  }
  return anchor;
}

bool NameMatches(const Step& step, const std::string& tag) {
  return step.name == "*" || step.name == tag;
}

}  // namespace

NodeId FindParent(const LabeledDocument& doc, NodeId node) {
  const Labeling& lab = doc.labeling();
  if (node == doc.root()) return kNoNode;
  const TagList& all = doc.all_elements();
  // Position of `node` itself, then scan backwards for the first element
  // that is its parent (ancestors precede the node in document order).
  // Backward scan uses operator[] (O(log runs) per probe).
  size_t idx = FirstAfter(lab, all, node);
  // idx points after `node`; step back past it.
  while (idx > 0) {
    --idx;
    if (lab.CompareOrder(all[idx], node) >= 0) continue;
    if (lab.IsParent(all[idx], node)) return all[idx];
  }
  return kNoNode;
}

std::vector<NodeId> EvaluateQuery(const Query& query,
                                  const LabeledDocument& doc) {
  QueriesCounter().Increment();
  obs::ScopedTimer timer(obs::MetricRegistry::Default().GetHistogram(
      "query.eval.ns", "Wall time per navigational query evaluation"));
  // Fetched up front so the counter is exported (as 0) before any sort.
  obs::Counter& steps_sorted = StepsSortedCounter();
  const Labeling& lab = doc.labeling();
  // Invariant: `context` is strictly increasing in document order.
  std::vector<NodeId> context;
  bool first = true;
  for (const Step& step : query.steps) {
    std::vector<NodeId> next;
    // Whether `next` comes out strictly in document order without a sort.
    bool ordered = true;
    if (first) {
      first = false;
      // The initial context is the (virtual) document node.
      if (step.axis == Axis::kChild) {
        if (NameMatches(step, doc.tag(doc.root())) &&
            (step.position == 0 || step.position == 1) &&
            PredicatesHold(doc, step, doc.root())) {
          next.push_back(doc.root());
        }
      } else if (step.axis == Axis::kDescendant) {
        for (const NodeId cand : doc.WithTag(step.name)) {
          if (step.position != 0 &&
              SiblingRank(doc, cand) != static_cast<size_t>(step.position)) {
            continue;
          }
          if (!PredicatesHold(doc, step, cand)) continue;
          next.push_back(cand);
        }
      }
    } else if (step.axis == Axis::kFollowing) {
      // following:: of the anchor is the whole union, emitted in order.
      ExpandFollowing(doc, FollowingAnchor(lab, context), step, &next);
    } else {
      // Each expansion emits in document order. For child/descendant over
      // disjoint subtrees the runs also follow each other in document order
      // and cannot overlap; nested contexts and the other axes can
      // interleave or repeat, so they are merged by sorting.
      ordered = (step.axis == Axis::kChild ||
                 step.axis == Axis::kDescendant) &&
                IsAntichain(lab, context);
      for (const NodeId c : context) {
        switch (step.axis) {
          case Axis::kChild:
          case Axis::kDescendant:
            ExpandDown(doc, c, step, &next);
            break;
          case Axis::kPrecedingSibling:
            ExpandPrecedingSibling(doc, c, step, &next);
            break;
          case Axis::kFollowing:
            break;  // handled above
          case Axis::kParent:
            ExpandParent(doc, c, step, &next);
            break;
          case Axis::kAncestor:
            ExpandAncestor(doc, c, step, &next);
            break;
        }
      }
    }
    if (!ordered) {
      // Sort by label comparison, since ids assigned by later insertions
      // are not document-ordered.
      steps_sorted.Increment();
      std::sort(next.begin(), next.end(), [&lab](NodeId a, NodeId b) {
        return lab.CompareOrder(a, b) < 0;
      });
      next.erase(std::unique(next.begin(), next.end()), next.end());
    }
    context = std::move(next);
    if (context.empty()) break;
  }
  NodesEmittedCounter().Increment(context.size());
  return context;
}

uint64_t CountMatches(const Query& query,
                      const std::vector<const LabeledDocument*>& corpus) {
  uint64_t total = 0;
  for (const LabeledDocument* doc : corpus) {
    total += EvaluateQuery(query, *doc).size();
  }
  return total;
}

}  // namespace cdbs::query
