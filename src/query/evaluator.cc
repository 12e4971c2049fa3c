#include "query/evaluator.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "labeling/containment.h"
#include "labeling/hybrid.h"
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

// The navigator reads structure through a view. Besides the predicates, a
// view makes the tests a positioning search probes with, each true on a
// prefix of a document-ordered list: NotAfter(n) through `n`, Before(n)
// up to just before `n`, and InSubtree(a), on elements from `a` on,
// through a's last descendant.
//
// This view asks the scheme's virtual predicates: Dewey, OrdPath, the
// prefix schemes and Prime are read through it.
class LabelingView {
 public:
  static constexpr bool kColumns = false;

  explicit LabelingView(const Labeling& lab) : lab_(&lab) {}

  int CompareOrder(NodeId a, NodeId b) const {
    return lab_->CompareOrder(a, b);
  }
  bool IsAncestor(NodeId a, NodeId d) const { return lab_->IsAncestor(a, d); }
  bool IsParent(NodeId p, NodeId c) const { return lab_->IsParent(p, c); }
  int Level(NodeId n) const { return lab_->Level(n); }

  auto NotAfter(NodeId n) const {
    return [lab = lab_, n](NodeId x) { return lab->CompareOrder(n, x) >= 0; };
  }
  auto Before(NodeId n) const {
    return [lab = lab_, n](NodeId x) { return lab->CompareOrder(x, n) < 0; };
  }
  auto InSubtree(NodeId a) const {
    return [lab = lab_, a](NodeId x) {
      return x == a || lab->IsAncestor(a, x);
    };
  }

 private:
  const Labeling* lab_;
};

// Structure from the containment columns, read in place: `a` is an
// ancestor of `d` iff start(a) < start(d) and end(d) < end(a), document
// order is start order, and the level is stored. One view serves every
// containment codec (V/F-Binary, Float, V/F-CDBS, QED, Hybrid): each
// orders its values by `<`. It depends only on the value type, so codecs
// with the same one (Binary and CDBS words) share one navigator. Word
// values have order keys (Codec::Key), which the document's tag lists
// carry, so a search over them probes keys and reads a start value only
// on a tie.
template <typename Value>
class ContainmentView {
 public:
  static constexpr bool kColumns = true;
  static constexpr bool kKeyed = std::is_same_v<Value, uint64_t>;

  template <typename Codec>
  explicit ContainmentView(const labeling::ContainmentLabeling<Codec>& lab)
      : start_(&lab.starts()), end_(&lab.ends()), level_(&lab.levels()) {
    static_assert(labeling::ContainmentLabeling<Codec>::kKeyed == kKeyed);
    if constexpr (kKeyed) key_ = &Codec::Key;
  }

  const Value& Start(NodeId n) const { return (*start_)[n]; }
  const Value& End(NodeId n) const { return (*end_)[n]; }
  int Level(NodeId n) const { return (*level_)[n]; }

  int CompareOrder(NodeId a, NodeId b) const {
    const Value& x = Start(a);
    const Value& y = Start(b);
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  bool IsAncestor(NodeId a, NodeId d) const {
    return Start(a) < Start(d) && End(d) < End(a);
  }
  bool IsParent(NodeId p, NodeId c) const {
    return Level(c) - Level(p) == 1 && IsAncestor(p, c);
  }

  // Each probe compares an element's start value (or its key) with a bound
  // read once. From `a` on, an element is in a's subtree iff it starts
  // before `a` ends.
  auto NotAfter(NodeId n) const { return Probe<true>(Start(n)); }
  auto Before(NodeId n) const { return Probe<false>(Start(n)); }
  auto InSubtree(NodeId a) const { return Probe<false>(End(a)); }

 private:
  // True for elements that start below `bound` (or at it, kOrAt). Words are
  // held by value, strings by reference into their column.
  template <bool kOrAt>
  struct StartsBelow {
    ContainmentView view;
    std::conditional_t<std::is_scalar_v<Value>, Value, const Value&> bound;
    bool operator()(NodeId x) const {
      return kOrAt ? !(bound < view.Start(x)) : view.Start(x) < bound;
    }
  };

  // The search for elements starting below `bound` (or at it): by key, with
  // the start value deciding ties, where the lists are keyed.
  template <bool kOrAt>
  auto Probe(const Value& bound) const {
    const StartsBelow<kOrAt> below{*this, bound};
    if constexpr (kKeyed) {
      return KeyProbe<StartsBelow<kOrAt>>{key_(bound), below};
    } else {
      return below;
    }
  }

  const util::CowVector<Value>* start_;
  const util::CowVector<Value>* end_;
  const util::CowVector<uint16_t>* level_;
  uint32_t (*key_)(uint64_t) = nullptr;
};

// Calls f(view) over the columns of `lab` when it is a containment
// labeling over `Codec`; returns whether it was.
template <typename Codec, typename F>
bool WithColumns(const Labeling& lab, F& f) {
  const auto* containment =
      dynamic_cast<const labeling::ContainmentLabeling<Codec>*>(&lab);
  if (containment != nullptr) {
    f(ContainmentView<typename Codec::Value>(*containment));
  }
  return containment != nullptr;
}

// Calls f(view) with the view `lab` is read through: its containment
// columns, or else its virtual predicates. Once per evaluation, never per
// probe.
template <typename F>
void WithView(const Labeling& lab, F&& f) {
  if (!WithColumns<labeling::CdbsContainmentCodec>(lab, f) &&
      !WithColumns<labeling::IntContainmentCodec>(lab, f) &&
      !WithColumns<labeling::FloatContainmentCodec>(lab, f) &&
      !WithColumns<labeling::QedContainmentCodec>(lab, f) &&
      !WithColumns<labeling::HybridContainmentCodec>(lab, f)) {
    f(LabelingView(lab));
  }
}

// A step with its tag list, looked up once per evaluation rather than once
// per context. Predicate paths are planned the same way.
struct PlannedStep {
  const Step* step = nullptr;
  const TagList* list = nullptr;
  std::vector<std::vector<PlannedStep>> predicates;  // one path each
};

std::vector<PlannedStep> Plan(const std::vector<Step>& steps,
                              const LabeledDocument& doc) {
  std::vector<PlannedStep> plan(steps.size());
  for (size_t s = 0; s < steps.size(); ++s) {
    plan[s].step = &steps[s];
    plan[s].list = &doc.WithTag(steps[s].name);
    for (const RelativePath& rel : steps[s].predicates) {
      plan[s].predicates.push_back(Plan(rel.steps, doc));
    }
  }
  return plan;
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

// True when no context node is an ancestor of the next one. For a
// document-ordered list that makes it an antichain: an ancestor of a later
// node is also an ancestor of every node between them in document order.
template <typename View>
bool IsAntichain(const View& view, const std::vector<NodeId>& context) {
  for (size_t k = 1; k < context.size(); ++k) {
    if (view.IsAncestor(context[k - 1], context[k])) return false;
  }
  return true;
}

// The node of a non-empty document-ordered context whose following:: set is
// the union of all of theirs: the one whose subtree ends first, i.e. the end
// of the leading ancestor chain (every later node starts after it ends).
template <typename View>
NodeId FollowingAnchor(const View& view, const std::vector<NodeId>& context) {
  NodeId anchor = context[0];
  for (size_t k = 1;
       k < context.size() && view.IsAncestor(anchor, context[k]); ++k) {
    anchor = context[k];
  }
  return anchor;
}

// One evaluation over one document, inside one scope at a time, reading
// structure through `View`. Counts label comparisons, scanned candidates
// and sorted/counted steps locally and adds them to the default registry
// once, when it goes out of scope. Hot loops keep the view and their counts
// in locals: a per-candidate member reload and store would otherwise stay.
//
// Every skip below rests on one fact that holds for every scheme: the
// descendants of a node follow it contiguously in any document-ordered
// list. A child step adds the level: inside a parent's span, a child is a
// node one level below it, and when the list holds nothing deeper than
// that, the whole span is children.
template <typename View>
class Navigator {
 public:
  Navigator(const LabeledDocument& doc, View view)
      : doc_(doc), view_(view), scope_(doc.root()) {}
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

  // Runs the planned query inside the scope; its matches go to `*result`.
  // `cursors` holds one lower bound per step, where that step's search
  // starts; it is left at where the step stopped, a lower bound for any
  // later scope.
  void Run(const std::vector<PlannedStep>& plan, size_t* cursors,
           Sink* result) {
    const View view = view_;
    const size_t steps = plan.size();
    // Invariant: `context` is strictly increasing in document order. Both
    // lists keep their capacity from one scope to the next.
    std::vector<NodeId>& context = context_;
    std::vector<NodeId>& next = next_;
    context.clear();
    for (size_t s = 0; s < steps; ++s) {
      const PlannedStep& step = plan[s];
      const Axis axis = step.step->axis;
      Cursor cursor{cursors[s], false};
      // Whether the step's output comes out strictly in document order
      // without a sort. following:: of the anchor is the whole union,
      // emitted in order. For child/descendant over disjoint subtrees each
      // expansion follows the previous one and cannot overlap it; nested
      // contexts and the other axes can interleave or repeat, so they are
      // merged by sorting.
      bool ordered = true;
      if (s > 0 && axis != Axis::kFollowing) {
        cursor.disjoint =
            (axis == Axis::kChild || axis == Axis::kDescendant) &&
            IsAntichain(view, context);
        ordered = cursor.disjoint;
      }
      const bool last = s + 1 == steps;
      next.clear();
      Sink collect(&next);
      Sink* sink = last && ordered ? result : &collect;
      if (s == 0) {
        EmitFromScope(step, &cursor, sink);
      } else if (axis == Axis::kFollowing) {
        Emit(FollowingAnchor(view, context), step, &cursor, sink);
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
        std::sort(next.begin(), next.end(), [view](NodeId a, NodeId b) {
          return view.CompareOrder(a, b) < 0;
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
  // the first one that is its parent (ancestors precede it). The scope has
  // none.
  NodeId FindParent(NodeId node) {
    if (node == scope_) return kNoNode;
    const View view = view_;
    const TagList& all = doc_.all_elements();
    const size_t after = FirstAfter(all, node, 0);
    TagList::Iterator it = all.IteratorAt(after);
    size_t idx = after;
    NodeId parent = kNoNode;
    while (idx > 0) {
      --idx;
      const NodeId cand = *--it;
      // The first candidate is `node` itself.
      if (cand != node && view.IsParent(cand, node)) {
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
    return list.PartitionPoint(from, list.size(), view_.NotAfter(node),
                               &comparisons_);
  }

  // Index of the first element of list[from, to) that is not a descendant
  // of `anchor`. Every element of that range must come after `anchor`, so
  // its descendants there form a prefix.
  size_t SubtreeEnd(const TagList& list, NodeId anchor, size_t from,
                    size_t to) {
    return list.PartitionPoint(from, to, view_.InSubtree(anchor),
                               &comparisons_);
  }

  // Index of the scope itself in `list`, or of the first element after it;
  // `from` is a lower bound.
  size_t ScopeBegin(const TagList& list, size_t from) {
    if (ScopeIsRoot()) return 0;
    return list.PartitionPoint(from, list.size(), view_.Before(scope_),
                               &comparisons_);
  }

  // Index of the first element of `list` past the scope's subtree; `from`
  // is at least ScopeBegin.
  size_t ScopeEnd(const TagList& list, size_t from) {
    if (ScopeIsRoot()) return list.size();
    return list.PartitionPoint(from, list.size(), view_.InSubtree(scope_),
                               &comparisons_);
  }

  // True when every descendant of `parent` in `list` is a child of it: the
  // list never held a node deeper than one level below `parent`.
  bool ChildrenOnly(const TagList& list, NodeId parent) const {
    return view_.Level(parent) + 1 >= list.max_level();
  }

  // Steps whose matches from `context` are one contiguous span of the tag
  // list, taken without looking at a single candidate.
  bool CopiesSpan(NodeId context, const PlannedStep& step) const {
    const Step& s = *step.step;
    if (!s.predicates.empty() || s.position != 0) return false;
    return s.axis == Axis::kFollowing || s.axis == Axis::kDescendant ||
           (s.axis == Axis::kChild && ChildrenOnly(*step.list, context));
  }

  // Passes the matches of the query's first step, taken from the
  // (virtual) document node above the scope, to `*sink`.
  void EmitFromScope(const PlannedStep& step, Cursor* cursor, Sink* sink) {
    const Step& s = *step.step;
    if (s.axis == Axis::kChild) {
      if (NameMatches(s, doc_.tag(scope_)) && s.position <= 1 &&
          PredicatesHold(step, scope_)) {
        sink->Visit([&](auto visit) { visit(scope_); });
      }
    } else if (s.axis == Axis::kDescendant) {
      const TagList& list = *step.list;
      const size_t begin = ScopeBegin(list, cursor->at);
      const size_t end = ScopeEnd(list, begin);
      cursor->at = end;
      if (CopiesSpan(scope_, step)) {
        sink->Span(list, begin, end);
      } else {
        sink->Visit([&](auto visit) { Filter(begin, end, step, visit); });
      }
    }
  }

  // Passes the matches of `step` from `context` to `*sink`, in document
  // order. Spans with nothing to test are taken in one piece.
  void Emit(NodeId context, const PlannedStep& step, Cursor* cursor,
            Sink* sink) {
    if (CopiesSpan(context, step)) {
      const auto [begin, end] = Span(context, step, cursor);
      sink->Span(*step.list, begin, end);
    } else {
      sink->Visit([&](auto visit) { Expand(context, step, cursor, visit); });
    }
  }

  // Calls visit(child) on each child of `parent` in list[begin, to), in
  // document order, until visit returns false; `begin` is
  // FirstAfter(parent). Returns the index the scan stopped at. From
  // containment columns, the parent's span costs one search and a child is
  // a node in it one level below the parent; other schemes test IsParent
  // per candidate, and a candidate that is not a descendant ends the scan.
  // A descendant that is not a child lies under an earlier child, so the
  // rest of the last child's subtree is galloped over at once.
  template <typename Visit>
  size_t ForEachChild(const TagList& list, NodeId parent, size_t begin,
                      size_t to, Visit&& visit) {
    const View view = view_;
    const size_t end =
        View::kColumns ? SubtreeEnd(list, parent, begin, to) : to;
    const int child_level = View::kColumns ? view.Level(parent) + 1 : 0;
    NodeId last_child = kNoNode;
    uint64_t scanned = 0;
    size_t i = begin;
    TagList::Iterator it = list.IteratorAt(i);
    while (i < end) {
      const NodeId cand = *it;
      ++scanned;
      const bool child = View::kColumns ? view.Level(cand) == child_level
                                        : view.IsParent(parent, cand);
      if (child) {
        if (!visit(cand)) break;
        last_child = cand;
        ++i;
        ++it;
        continue;
      }
      if (!View::kColumns && !view.IsAncestor(parent, cand)) break;
      // Under the last child: gallop past the rest of its subtree. Under a
      // child `list` does not hold: step past it.
      const size_t skip_to = last_child == kNoNode
                                 ? i
                                 : SubtreeEnd(list, last_child, i, end);
      last_child = kNoNode;  // its subtree is behind us either way
      i = std::max(skip_to, i + 1);
      it = list.IteratorAt(i);
    }
    scanned_ += scanned;
    return i;
  }

  // The index span of the step's list that a child, descendant or
  // following:: step covers from `context`, positioned from the cursor,
  // which it advances. For a child step the span is the descendant span
  // (the caller checks ChildrenOnly). following:: ends where the scope
  // does.
  std::pair<size_t, size_t> Span(NodeId context, const PlannedStep& step,
                                 Cursor* cursor) {
    const TagList& list = *step.list;
    const size_t after = FirstAfter(list, context, cursor->at);
    const size_t end = SubtreeEnd(list, context, after, list.size());
    cursor->at = cursor->disjoint ? end : after;
    if (step.step->axis != Axis::kFollowing) return {after, end};
    return {end, ScopeEnd(list, end)};  // following:: skips the subtree
  }

  // Calls visit on each element of list[begin, end) that passes the step's
  // predicates (and, on the descendant axis, its [n] sibling rank). Returns
  // false when visit stopped it.
  template <typename Visit>
  bool Filter(size_t begin, size_t end, const PlannedStep& step,
              Visit&& visit) {
    const Step& s = *step.step;
    const size_t rank =
        s.axis == Axis::kDescendant ? static_cast<size_t>(s.position) : 0;
    TagList::Iterator it = step.list->IteratorAt(begin);
    size_t i = begin;
    for (; i < end; ++i, ++it) {
      const NodeId cand = *it;
      if (rank != 0 && SiblingRank(cand, step) != rank) continue;
      if (PredicatesHold(step, cand) && !visit(cand)) break;
    }
    scanned_ += std::min(end, i + 1) - begin;
    return i == end;
  }

  // Calls visit on the matches of `step` from `context`, in document order,
  // until it returns false; returns false in that case. The main path and
  // predicate paths share it, so both honour every axis and [n].
  template <typename Visit>
  bool Expand(NodeId context, const PlannedStep& step, Cursor* cursor,
              Visit&& visit) {
    const Step& s = *step.step;
    const TagList& list = *step.list;
    switch (s.axis) {
      case Axis::kChild: {
        if (ChildrenOnly(list, context)) {
          // The span is the children: [n] is an index, predicates filter.
          const auto [begin, end] = Span(context, step, cursor);
          if (s.position == 0) return Filter(begin, end, step, visit);
          const size_t at = begin + static_cast<size_t>(s.position) - 1;
          if (at >= end) return true;
          const NodeId child = list[at];
          return !PredicatesHold(step, child) || visit(child);
        }
        const size_t begin = FirstAfter(list, context, cursor->at);
        size_t rank = 0;
        bool stopped = false;
        const size_t end =
            ForEachChild(list, context, begin, list.size(), [&](NodeId c) {
              ++rank;
              if (s.position != 0 && rank < static_cast<size_t>(s.position)) {
                return true;
              }
              if (PredicatesHold(step, c) && !visit(c)) {
                stopped = true;
                return false;
              }
              return s.position == 0;  // [n] ends at the n-th child
            });
        cursor->at = cursor->disjoint ? end : begin;
        return !stopped;
      }
      case Axis::kDescendant:
      case Axis::kFollowing: {
        const auto [begin, end] = Span(context, step, cursor);
        return Filter(begin, end, step, visit);
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
        if (parent == kNoNode || !NameMatches(s, doc_.tag(parent)) ||
            !PredicatesHold(step, parent)) {
          return true;
        }
        return visit(parent);
      }
      case Axis::kAncestor: {
        // Candidates from the scope up to the context node; keep those
        // whose label encloses it.
        const View view = view_;
        const size_t begin = ScopeBegin(list, 0);
        const size_t end = FirstAfter(list, context, begin);
        TagList::Iterator it = list.IteratorAt(begin);
        size_t i = begin;
        for (; i < end; ++i, ++it) {
          const NodeId cand = *it;
          if (cand != context && view.IsAncestor(cand, context) &&
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
  bool PredicatesHold(const PlannedStep& step, NodeId node) {
    for (const std::vector<PlannedStep>& path : step.predicates) {
      if (!ExistsFrom(node, path, 0)) return false;
    }
    return true;
  }

  // True when the relative path `path[i..]` matches something from `node`;
  // stops at the first match.
  bool ExistsFrom(NodeId node, const std::vector<PlannedStep>& path,
                  size_t i) {
    if (i == path.size()) return true;
    Cursor cursor;
    return !Expand(node, path[i], &cursor, [&](NodeId next) {
      return !ExistsFrom(next, path, i + 1);
    });
  }

  // 1-based rank of `node`, a match of `step`, among its same-tag
  // siblings, via labels.
  size_t SiblingRank(NodeId node, const PlannedStep& step) {
    const NodeId parent = FindParent(node);
    if (parent == kNoNode) return 1;  // the scope
    const TagList& list = step.step->name == "*" ? doc_.WithTag(doc_.tag(node))
                                                 : *step.list;
    size_t rank = 0;
    ForEachChild(list, parent, FirstAfter(list, parent, 0), list.size(),
                 [&](NodeId sib) {
                   ++rank;
                   return sib != node;
                 });
    return rank;
  }

  const LabeledDocument& doc_;
  const View view_;
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
  const std::vector<PlannedStep> plan = Plan(query.steps, doc);
  std::vector<size_t> cursors(plan.size(), 0);
  uint64_t emitted = 0;
  WithView(doc.labeling(), [&](auto view) {
    Navigator<decltype(view)> nav(doc, view);
    for (size_t k = 0; k < n; ++k) {
      if (k > 0 && (view.CompareOrder(scopes[k - 1], scopes[k]) >= 0 ||
                    view.IsAncestor(scopes[k - 1], scopes[k]))) {
        std::fill(cursors.begin(), cursors.end(), 0);
      }
      nav.SetScope(scopes[k]);
      nav.Run(plan, cursors.data(), &sinks[k]);
      emitted += sinks[k].size();
    }
  });
  NodesEmittedCounter().Increment(emitted);
}

}  // namespace

NodeId FindParent(const LabeledDocument& doc, NodeId node) {
  NodeId parent = kNoNode;
  WithView(doc.labeling(), [&](auto view) {
    parent = Navigator<decltype(view)>(doc, view).FindParent(node);
  });
  return parent;
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
