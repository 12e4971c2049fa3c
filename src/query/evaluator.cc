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

obs::Counter& StepsCountedCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.steps_counted",
      "Last query steps answered as a count, without building a match list");
  return *c;
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

// Where a step's matches go: appended to a list, or only counted.
class Sink {
 public:
  Sink() = default;  // counts
  explicit Sink(std::vector<NodeId>* out) : out_(out) {}

  bool counts() const { return out_ == nullptr; }
  // Matches so far.
  uint64_t size() const { return out_ != nullptr ? out_->size() : count_; }

  // Matches list[begin, end), taken whole.
  void Span(const TagList& list, size_t begin, size_t end) {
    if (out_ != nullptr) {
      list.AppendRange(begin, end, out_);
    } else {
      count_ += end - begin;
    }
  }
  // Takes a finished, document-ordered match list.
  void Take(std::vector<NodeId>&& nodes) {
    if (out_ == nullptr) {
      count_ += nodes.size();
    } else if (out_->empty()) {
      *out_ = std::move(nodes);
    } else {
      out_->insert(out_->end(), nodes.begin(), nodes.end());
    }
  }

  // Calls scan(visit) with a visitor that passes each node it is shown to
  // this sink and returns true. The visitor keeps the list or the count in
  // a local, so a scan's hot loop touches neither the sink nor a branch.
  template <typename Scan>
  void Visit(Scan&& scan) {
    if (out_ != nullptr) {
      std::vector<NodeId>* out = out_;
      scan([out](NodeId n) {
        out->push_back(n);
        return true;
      });
    } else {
      uint64_t count = 0;
      scan([&count](NodeId) {
        ++count;
        return true;
      });
      count_ += count;
    }
  }

 private:
  std::vector<NodeId>* out_ = nullptr;
  uint64_t count_ = 0;
};

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

// One evaluation over one document, inside one scope at a time. Counts
// label comparisons, scanned candidates and sorted/counted steps locally
// and adds them to the default registry once, when it goes out of scope.
// Hot loops keep `lab_` and their counts in locals: the schemes' virtual
// calls would otherwise force a member reload and store per candidate.
//
// Every skip below rests on one fact that holds for every scheme: the
// descendants of a node follow it contiguously in any document-ordered
// list. Structure is still decided only by the scheme's predicates.
class Navigator {
 public:
  explicit Navigator(const LabeledDocument& doc)
      : doc_(doc), lab_(doc.labeling()), scope_(doc.root()) {}
  ~Navigator() {
    LabelComparisonsCounter().Increment(comparisons_);
    CandidatesScannedCounter().Increment(scanned_);
    StepsSortedCounter().Increment(sorted_);
    StepsCountedCounter().Increment(counted_);
  }
  Navigator(const Navigator&) = delete;
  Navigator& operator=(const Navigator&) = delete;

  // Makes `scope`'s subtree the document every later call sees.
  void SetScope(NodeId scope) { scope_ = scope; }

  // Runs `query` inside the scope; its matches go to `*result`. `cursors`
  // holds one lower bound per step, where that step's search starts; it is
  // left at where the step stopped, a lower bound for any later scope.
  void Run(const Query& query, size_t* cursors, Sink* result) {
    const Labeling& lab = lab_;
    const size_t steps = query.steps.size();
    // Invariant: `context` is strictly increasing in document order. Both
    // lists keep their capacity from one scope to the next.
    std::vector<NodeId>& context = context_;
    std::vector<NodeId>& next = next_;
    context.clear();
    for (size_t s = 0; s < steps; ++s) {
      const Step& step = query.steps[s];
      Cursor cursor{cursors[s], false};
      // Whether the step's output comes out strictly in document order
      // without a sort. following:: of the anchor is the whole union,
      // emitted in order. For child/descendant over disjoint subtrees each
      // expansion follows the previous one and cannot overlap it; nested
      // contexts and the other axes can interleave or repeat, so they are
      // merged by sorting.
      bool ordered = true;
      if (s > 0 && step.axis != Axis::kFollowing) {
        cursor.disjoint = (step.axis == Axis::kChild ||
                           step.axis == Axis::kDescendant) &&
                          IsAntichain(lab, context);
        ordered = cursor.disjoint;
      }
      const bool last = s + 1 == steps;
      next.clear();
      Sink collect(&next);
      Sink* sink = last && ordered ? result : &collect;
      if (s == 0) {
        EmitFromScope(step, &cursor, sink);
      } else if (step.axis == Axis::kFollowing) {
        Emit(FollowingAnchor(lab, context), step, &cursor, sink);
      } else {
        for (const NodeId c : context) Emit(c, step, &cursor, sink);
      }
      cursors[s] = cursor.at;
      if (sink == result) {
        if (result->counts()) ++counted_;
        return;
      }
      if (!ordered) {
        // Sort by label comparison, since ids assigned by later insertions
        // are not document-ordered.
        ++sorted_;
        std::sort(next.begin(), next.end(), [&lab](NodeId a, NodeId b) {
          return lab.CompareOrder(a, b) < 0;
        });
        next.erase(std::unique(next.begin(), next.end()), next.end());
      }
      if (last) {
        result->Take(std::move(next));
        return;
      }
      context.swap(next);
      if (context.empty()) return;
    }
  }

  // Parent of `node` from labels: a backward scan through all elements for
  // the first one that IsParent of it (ancestors precede it). The scope
  // has none.
  NodeId FindParent(NodeId node) {
    if (node == scope_) return kNoNode;
    const Labeling& lab = lab_;
    const TagList& all = doc_.all_elements();
    const size_t after = FirstAfter(all, node, 0);
    TagList::Iterator it = all.IteratorAt(after);
    size_t idx = after;
    NodeId parent = kNoNode;
    while (idx > 0) {
      --idx;
      const NodeId cand = *--it;
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
  bool ScopeIsRoot() const { return scope_ == doc_.root(); }

  // Index of the first element of `list` after `node` in document order.
  // `from` is a lower bound on the answer; the search gallops from it.
  size_t FirstAfter(const TagList& list, NodeId node, size_t from) {
    const Labeling& lab = lab_;
    return list.PartitionPoint(
        from, list.size(),
        [&lab, node](NodeId x) { return lab.CompareOrder(node, x) >= 0; },
        &comparisons_);
  }

  // Index of the first element of list[from, to) that is not a descendant
  // of `anchor`. Every element of that range must come after `anchor`, so
  // its descendants there form a prefix.
  size_t SubtreeEnd(const TagList& list, NodeId anchor, size_t from,
                    size_t to) {
    const Labeling& lab = lab_;
    return list.PartitionPoint(
        from, to,
        [&lab, anchor](NodeId x) { return lab.IsAncestor(anchor, x); },
        &comparisons_);
  }

  // Index of the scope itself in `list`, or of the first element after it;
  // `from` is a lower bound.
  size_t ScopeBegin(const TagList& list, size_t from) {
    if (ScopeIsRoot()) return 0;
    const Labeling& lab = lab_;
    const NodeId scope = scope_;
    return list.PartitionPoint(
        from, list.size(),
        [&lab, scope](NodeId x) { return lab.CompareOrder(x, scope) < 0; },
        &comparisons_);
  }

  // Index of the first element of `list` past the scope's subtree; `from`
  // is at least ScopeBegin.
  size_t ScopeEnd(const TagList& list, size_t from) {
    if (ScopeIsRoot()) return list.size();
    const Labeling& lab = lab_;
    const NodeId scope = scope_;
    return list.PartitionPoint(
        from, list.size(),
        [&lab, scope](NodeId x) {
          return x == scope || lab.IsAncestor(scope, x);
        },
        &comparisons_);
  }

  // Passes the matches of the query's first step, taken from the
  // (virtual) document node above the scope, to `*sink`.
  void EmitFromScope(const Step& step, Cursor* cursor, Sink* sink) {
    if (step.axis == Axis::kChild) {
      if (NameMatches(step, doc_.tag(scope_)) && step.position <= 1 &&
          PredicatesHold(step, scope_)) {
        sink->Visit([&](auto visit) { visit(scope_); });
      }
    } else if (step.axis == Axis::kDescendant) {
      const TagList& list = doc_.WithTag(step.name);
      const size_t begin = ScopeBegin(list, cursor->at);
      const size_t end = ScopeEnd(list, begin);
      cursor->at = end;
      if (CopiesSpan(step)) {
        sink->Span(list, begin, end);
      } else {
        sink->Visit([&](auto visit) { Filter(list, begin, end, step, visit); });
      }
    }
  }

  // Passes the matches of `step` from `context` to `*sink`, in document
  // order. Spans with nothing to test are taken in one piece.
  void Emit(NodeId context, const Step& step, Cursor* cursor, Sink* sink) {
    if (CopiesSpan(step)) {
      const TagList& list = doc_.WithTag(step.name);
      const auto [begin, end] = Span(list, context, step, cursor);
      sink->Span(list, begin, end);
    } else {
      sink->Visit([&](auto visit) { Expand(context, step, cursor, visit); });
    }
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
  // `context`, positioned from the cursor, which it advances. following::
  // ends where the scope does.
  std::pair<size_t, size_t> Span(const TagList& list, NodeId context,
                                 const Step& step, Cursor* cursor) {
    const size_t after = FirstAfter(list, context, cursor->at);
    const size_t end = SubtreeEnd(list, context, after, list.size());
    cursor->at = cursor->disjoint ? end : after;
    if (step.axis == Axis::kDescendant) return {after, end};
    return {end, ScopeEnd(list, end)};  // following:: skips the subtree
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
        // Candidates from the scope up to the context node; keep those
        // whose label encloses it.
        const Labeling& lab = lab_;
        const size_t begin = ScopeBegin(list, 0);
        const size_t end = FirstAfter(list, context, begin);
        TagList::Iterator it = list.IteratorAt(begin);
        size_t i = begin;
        for (; i < end; ++i, ++it) {
          const NodeId cand = *it;
          if (cand != context && lab.IsAncestor(cand, context) &&
              PredicatesHold(step, cand) && !visit(cand)) {
            break;
          }
        }
        scanned_ += std::min(end, i + 1) - begin;
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
    if (parent == kNoNode) return 1;  // the scope
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
  NodeId scope_;
  std::vector<NodeId> context_;  // Run's step input
  std::vector<NodeId> next_;     // Run's step output
  uint64_t comparisons_ = 0;
  uint64_t scanned_ = 0;
  uint64_t sorted_ = 0;
  uint64_t counted_ = 0;
};

obs::Histogram* EvalNanos() {
  static obs::Histogram* const h = obs::MetricRegistry::Default().GetHistogram(
      "query.eval.ns", "Wall time per navigational query evaluation");
  return h;
}

// Runs `query` in each of `scopes[0, n)` on one navigator; the matches in
// scopes[k] go to sinks[k]. Scopes in document order, none inside another,
// share the step cursors; any other pair starts them afresh.
void RunScopes(const Query& query, const LabeledDocument& doc,
               const NodeId* scopes, Sink* sinks, size_t n) {
  QueriesCounter().Increment(n);
  obs::ScopedTimer timer(EvalNanos());
  const Labeling& lab = doc.labeling();
  Navigator nav(doc);
  std::vector<size_t> cursors(query.steps.size(), 0);
  uint64_t emitted = 0;
  for (size_t k = 0; k < n; ++k) {
    if (k > 0 && (lab.CompareOrder(scopes[k - 1], scopes[k]) >= 0 ||
                  lab.IsAncestor(scopes[k - 1], scopes[k]))) {
      std::fill(cursors.begin(), cursors.end(), 0);
    }
    nav.SetScope(scopes[k]);
    nav.Run(query, cursors.data(), &sinks[k]);
    emitted += sinks[k].size();
  }
  NodesEmittedCounter().Increment(emitted);
}

}  // namespace

NodeId FindParent(const LabeledDocument& doc, NodeId node) {
  return Navigator(doc).FindParent(node);
}

std::vector<NodeId> EvaluateQuery(const Query& query,
                                  const LabeledDocument& doc) {
  return EvaluateQuery(query, doc, doc.root());
}

std::vector<NodeId> EvaluateQuery(const Query& query,
                                  const LabeledDocument& doc, NodeId scope) {
  std::vector<NodeId> matches;
  Sink sink(&matches);
  RunScopes(query, doc, &scope, &sink, 1);
  return matches;
}

uint64_t CountQuery(const Query& query, const LabeledDocument& doc,
                    NodeId scope) {
  Sink sink;
  RunScopes(query, doc, &scope, &sink, 1);
  return sink.size();
}

std::vector<uint64_t> CountPerScope(const Query& query,
                                    const LabeledDocument& doc,
                                    const std::vector<NodeId>& scopes) {
  std::vector<Sink> sinks(scopes.size());
  RunScopes(query, doc, scopes.data(), sinks.data(), scopes.size());
  std::vector<uint64_t> counts;
  counts.reserve(sinks.size());
  for (const Sink& sink : sinks) counts.push_back(sink.size());
  return counts;
}

uint64_t CountMatches(const Query& query,
                      const std::vector<const LabeledDocument*>& corpus) {
  uint64_t total = 0;
  for (const LabeledDocument* doc : corpus) {
    total += CountQuery(query, *doc, doc->root());
  }
  return total;
}

}  // namespace cdbs::query
