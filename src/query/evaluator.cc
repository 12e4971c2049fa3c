#include "query/evaluator.h"

#include <algorithm>
#include <utility>

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
      "Label comparisons performed while positioning in tag lists");
  return *c;
}

obs::Counter& CandidatesScannedCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.candidates_scanned",
      "Tag-list candidates the evaluator's scan loops visited one by one");
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

// Index of the first element of list[from, to) for which `holds` is false,
// given that `holds` is true on a prefix of that range and false on the
// rest. Probes from, from+1, from+3, from+7, ... and then binary-searches
// the last gap: O(log k) probes for an answer k places past `from`, and one
// probe when the answer is `from` itself.
template <typename Holds>
size_t Gallop(const TagList& list, size_t from, size_t to, Holds holds,
              uint64_t* probes) {
  size_t lo = from;  // every index below lo holds
  size_t hi = to;    // the answer is at most hi
  uint64_t count = 0;
  for (size_t offset = 0, step = 1; from + offset < to;
       offset += step, step *= 2) {
    const size_t i = from + offset;
    ++count;
    if (!holds(list[i])) {
      hi = i;
      break;
    }
    lo = i + 1;
  }
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++count;
    if (holds(list[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *probes += count;
  return lo;
}

bool NameMatches(const Step& step, const std::string& tag) {
  return step.name == "*" || step.name == tag;
}

// Steps whose matches are one contiguous span of the tag list, copied
// without looking at a single candidate.
bool CopiesSpan(const Step& step) {
  return step.predicates.empty() &&
         (step.axis == Axis::kFollowing ||
          (step.axis == Axis::kDescendant && step.position == 0));
}

// A visitor that appends every node it is shown to `*out`.
auto Append(std::vector<NodeId>* out) {
  return [out](NodeId n) {
    out->push_back(n);
    return true;
  };
}

// A forward position in one step's tag list, shared by that step's context
// nodes in document order. `at` never passes FirstAfter of the next
// context: contexts strictly ascend, so FirstAfter(c_k) never decreases.
// When no context is an ancestor of the next (`disjoint`), the next context
// also starts after the whole subtree of this one, so `at` may move past
// everything the expansion scanned.
struct Cursor {
  size_t at = 0;
  bool disjoint = false;
};

// One evaluation over one document. Counts label comparisons and scanned
// candidates locally and adds them to the default registry once, when it
// goes out of scope. Hot loops keep `lab_` and their counts in locals: the
// schemes' virtual calls would otherwise force a member reload and store
// per candidate.
//
// Every skip below rests on one fact that holds for every scheme: the
// descendants of a node follow it contiguously in any document-ordered
// list. Structure is still decided only by the scheme's predicates.
class Navigator {
 public:
  explicit Navigator(const LabeledDocument& doc)
      : doc_(doc), lab_(doc.labeling()) {}
  ~Navigator() {
    LabelComparisonsCounter().Increment(comparisons_);
    CandidatesScannedCounter().Increment(scanned_);
  }
  Navigator(const Navigator&) = delete;
  Navigator& operator=(const Navigator&) = delete;

  // Appends the matches of the query's first step, taken from the
  // (virtual) document node, to `*out`.
  void EmitFromDocument(const Step& step, std::vector<NodeId>* out) {
    if (step.axis == Axis::kChild) {
      if (NameMatches(step, doc_.tag(doc_.root())) && step.position <= 1 &&
          PredicatesHold(step, doc_.root())) {
        out->push_back(doc_.root());
      }
    } else if (step.axis == Axis::kDescendant) {
      const TagList& list = doc_.WithTag(step.name);
      if (CopiesSpan(step)) {
        list.AppendRange(0, list.size(), out);
      } else {
        Filter(list, 0, list.size(), step, Append(out));
      }
    }
  }

  // Appends the matches of `step` from `context` to `*out`, in document
  // order. Spans with nothing to test are copied in one piece.
  void Emit(NodeId context, const Step& step, Cursor* cursor,
            std::vector<NodeId>* out) {
    if (CopiesSpan(step)) {
      const TagList& list = doc_.WithTag(step.name);
      const auto [begin, end] = Span(list, context, step, cursor);
      list.AppendRange(begin, end, out);
    } else {
      Expand(context, step, cursor, Append(out));
    }
  }

  // Parent of `node` from labels: a backward scan through all elements for
  // the first one that IsParent of it (ancestors precede it).
  NodeId FindParent(NodeId node) {
    if (node == doc_.root()) return kNoNode;
    const Labeling& lab = lab_;
    const TagList& all = doc_.all_elements();
    // Backward scan uses operator[] (O(log runs) per probe).
    const size_t after = FirstAfter(all, node, 0);
    size_t idx = after;
    NodeId parent = kNoNode;
    while (idx > 0) {
      const NodeId cand = all[--idx];
      // The first candidate is `node` itself.
      if (lab.CompareOrder(cand, node) < 0 && lab.IsParent(cand, node)) {
        parent = cand;
        break;
      }
    }
    scanned_ += after - idx;
    return parent;
  }

 private:
  // Index of the first element of `list` after `node` in document order.
  // `from` is a lower bound on the answer; the search gallops from it.
  size_t FirstAfter(const TagList& list, NodeId node, size_t from) {
    const Labeling& lab = lab_;
    return Gallop(
        list, from, list.size(),
        [&lab, node](NodeId x) { return lab.CompareOrder(node, x) >= 0; },
        &comparisons_);
  }

  // Index of the first element of list[from, to) that is not a descendant
  // of `anchor`. Every element of that range must come after `anchor`, so
  // its descendants there form a prefix.
  size_t SubtreeEnd(const TagList& list, NodeId anchor, size_t from,
                    size_t to) {
    const Labeling& lab = lab_;
    return Gallop(
        list, from, to,
        [&lab, anchor](NodeId x) { return lab.IsAncestor(anchor, x); },
        &comparisons_);
  }

  // Calls visit(child) on each child of `parent` in list[begin, to), in
  // document order, until visit returns false; `begin` is
  // FirstAfter(parent). IsParent true means a child. Otherwise, a candidate
  // that is not a descendant ends the scan; one that is lies under an
  // earlier child, so the rest of the last child's subtree is galloped over
  // at once. Returns the index the scan stopped at.
  template <typename Visit>
  size_t ForEachChild(const TagList& list, NodeId parent, size_t begin,
                      size_t to, Visit&& visit) {
    const Labeling& lab = lab_;
    NodeId last_child = kNoNode;
    uint64_t scanned = 0;
    size_t i = begin;
    TagList::Iterator it = list.IteratorAt(i);
    while (i < to) {
      const NodeId cand = *it;
      ++scanned;
      if (lab.IsParent(parent, cand)) {
        if (!visit(cand)) break;
        last_child = cand;
        ++i;
        ++it;
        continue;
      }
      if (!lab.IsAncestor(parent, cand)) break;
      // Under the last child: gallop past the rest of its subtree. Under a
      // child `list` does not hold: step past it.
      const size_t skip_to = last_child == kNoNode
                                 ? i
                                 : SubtreeEnd(list, last_child, i, to);
      last_child = kNoNode;  // its subtree is behind us either way
      i = std::max(skip_to, i + 1);
      it = list.IteratorAt(i);
    }
    scanned_ += scanned;
    return i;
  }

  // The index span of `list` a descendant or following:: step covers from
  // `context`, positioned from the cursor, which it advances.
  std::pair<size_t, size_t> Span(const TagList& list, NodeId context,
                                 const Step& step, Cursor* cursor) {
    const size_t after = FirstAfter(list, context, cursor->at);
    const size_t end = SubtreeEnd(list, context, after, list.size());
    cursor->at = cursor->disjoint ? end : after;
    if (step.axis == Axis::kDescendant) return {after, end};
    return {end, list.size()};  // following:: skips the subtree
  }

  // Calls visit on each element of list[begin, end) that passes the step's
  // predicates (and, on the descendant axis, its [n] sibling rank). Returns
  // false when visit stopped it.
  template <typename Visit>
  bool Filter(const TagList& list, size_t begin, size_t end, const Step& step,
              Visit&& visit) {
    const bool ranked =
        step.axis == Axis::kDescendant && step.position != 0;
    TagList::Iterator it = list.IteratorAt(begin);
    size_t i = begin;
    for (; i < end; ++i, ++it) {
      const NodeId cand = *it;
      if (ranked && SiblingRank(cand) != static_cast<size_t>(step.position)) {
        continue;
      }
      if (PredicatesHold(step, cand) && !visit(cand)) break;
    }
    scanned_ += std::min(end, i + 1) - begin;
    return i == end;
  }

  // Calls visit on the matches of `step` from `context`, in document order,
  // until it returns false; returns false in that case. The main path and
  // predicate paths share it, so both honour every axis and [n].
  template <typename Visit>
  bool Expand(NodeId context, const Step& step, Cursor* cursor,
              Visit&& visit) {
    const TagList& list = doc_.WithTag(step.name);
    switch (step.axis) {
      case Axis::kChild: {
        const size_t begin = FirstAfter(list, context, cursor->at);
        size_t rank = 0;
        bool stopped = false;
        const size_t end =
            ForEachChild(list, context, begin, list.size(), [&](NodeId c) {
              ++rank;
              if (step.position != 0 &&
                  rank < static_cast<size_t>(step.position)) {
                return true;
              }
              if (PredicatesHold(step, c) && !visit(c)) {
                stopped = true;
                return false;
              }
              return step.position == 0;  // [n] ends at the n-th child
            });
        cursor->at = cursor->disjoint ? end : begin;
        return !stopped;
      }
      case Axis::kDescendant:
      case Axis::kFollowing: {
        const auto [begin, end] = Span(list, context, step, cursor);
        return Filter(list, begin, end, step, visit);
      }
      case Axis::kPrecedingSibling: {
        const NodeId parent = FindParent(context);
        if (parent == kNoNode) return true;
        const size_t begin = FirstAfter(list, parent, 0);
        bool stopped = false;
        // Everything before FirstAfter(context) precedes or is `context`.
        ForEachChild(list, parent, begin, FirstAfter(list, context, begin),
                     [&](NodeId sib) {
                       if (sib == context) return false;
                       if (PredicatesHold(step, sib) && !visit(sib)) {
                         stopped = true;
                         return false;
                       }
                       return true;
                     });
        return !stopped;
      }
      case Axis::kParent: {
        const NodeId parent = FindParent(context);
        if (parent == kNoNode || !NameMatches(step, doc_.tag(parent)) ||
            !PredicatesHold(step, parent)) {
          return true;
        }
        return visit(parent);
      }
      case Axis::kAncestor: {
        // Candidates that start before the context node; keep those whose
        // label encloses it.
        const Labeling& lab = lab_;
        const size_t end = FirstAfter(list, context, 0);
        TagList::Iterator it = list.begin();
        size_t i = 0;
        for (; i < end; ++i, ++it) {
          const NodeId cand = *it;
          if (cand != context && lab.IsAncestor(cand, context) &&
              PredicatesHold(step, cand) && !visit(cand)) {
            break;
          }
        }
        scanned_ += std::min(end, i + 1);
        return i == end;
      }
    }
    return true;
  }

  // True when every existence predicate of `step` holds at `node`.
  bool PredicatesHold(const Step& step, NodeId node) {
    for (const RelativePath& rel : step.predicates) {
      if (!ExistsFrom(node, rel.steps, 0)) return false;
    }
    return true;
  }

  // True when the relative path `steps[i..]` matches something from
  // `node`; stops at the first match.
  bool ExistsFrom(NodeId node, const std::vector<Step>& steps, size_t i) {
    if (i == steps.size()) return true;
    Cursor cursor;
    return !Expand(node, steps[i], &cursor, [&](NodeId next) {
      return !ExistsFrom(next, steps, i + 1);
    });
  }

  // 1-based rank of `node` among its same-tag siblings, via labels.
  size_t SiblingRank(NodeId node) {
    const NodeId parent = FindParent(node);
    if (parent == kNoNode) return 1;  // the root
    const TagList& list = doc_.WithTag(doc_.tag(node));
    size_t rank = 0;
    ForEachChild(list, parent, FirstAfter(list, parent, 0), list.size(),
                 [&](NodeId sib) {
                   ++rank;
                   return sib != node;
                 });
    return rank;
  }

  const LabeledDocument& doc_;
  const Labeling& lab_;
  uint64_t comparisons_ = 0;
  uint64_t scanned_ = 0;
};

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

}  // namespace

NodeId FindParent(const LabeledDocument& doc, NodeId node) {
  return Navigator(doc).FindParent(node);
}

std::vector<NodeId> EvaluateQuery(const Query& query,
                                  const LabeledDocument& doc) {
  QueriesCounter().Increment();
  obs::ScopedTimer timer(obs::MetricRegistry::Default().GetHistogram(
      "query.eval.ns", "Wall time per navigational query evaluation"));
  // Fetched up front so the counter is exported (as 0) before any sort.
  obs::Counter& steps_sorted = StepsSortedCounter();
  const Labeling& lab = doc.labeling();
  Navigator nav(doc);
  // Invariant: `context` is strictly increasing in document order.
  std::vector<NodeId> context;
  for (size_t s = 0; s < query.steps.size(); ++s) {
    const Step& step = query.steps[s];
    std::vector<NodeId> next;
    // Whether `next` comes out strictly in document order without a sort.
    bool ordered = true;
    if (s == 0) {
      nav.EmitFromDocument(step, &next);
    } else if (step.axis == Axis::kFollowing) {
      // following:: of the anchor is the whole union, emitted in order.
      Cursor cursor;
      nav.Emit(FollowingAnchor(lab, context), step, &cursor, &next);
    } else {
      // Each expansion emits in document order. For child/descendant over
      // disjoint subtrees the runs also follow each other in document order
      // and cannot overlap; nested contexts and the other axes can
      // interleave or repeat, so they are merged by sorting.
      Cursor cursor;
      cursor.disjoint = (step.axis == Axis::kChild ||
                         step.axis == Axis::kDescendant) &&
                        IsAntichain(lab, context);
      ordered = cursor.disjoint;
      for (const NodeId c : context) nav.Emit(c, step, &cursor, &next);
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
