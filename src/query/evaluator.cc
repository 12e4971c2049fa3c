#include "query/evaluator.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "labeling/containment.h"
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

obs::Counter& KeyTiesCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.key_ties",
      "Keyed comparisons whose two keys were equal, decided by node identity "
      "or else from the label columns");
  return *c;
}

bool NameMatches(const Step& step, const std::string& tag) {
  return step.name == "*" || step.name == tag;
}

// Where a step's matches go: appended to the match list, collected as the
// next step's contexts, or only counted. A context is a KeyedId: an id
// with its interval keys.
class Sink {
 public:
  Sink() = default;  // counts
  explicit Sink(std::vector<NodeId>* ids) : ids_(ids) {}
  // Collects the next step's contexts into `*nodes`.
  static Sink Contexts(std::vector<KeyedId>* nodes) {
    Sink sink;
    sink.nodes_ = nodes;
    return sink;
  }

  bool counts() const { return ids_ == nullptr && nodes_ == nullptr; }
  // Matches so far.
  uint64_t size() const {
    return ids_ != nullptr ? ids_->size()
                           : (nodes_ != nullptr ? nodes_->size() : count_);
  }

  // Matches list[begin, end), taken whole. Contexts copy their keys
  // straight from the runs.
  void Span(const TagList& list, size_t begin, size_t end) {
    if (nodes_ != nullptr) {
      list.AppendRange(begin, end, nodes_);
    } else if (ids_ != nullptr) {
      list.AppendRange(begin, end, ids_);
    } else {
      count_ += end - begin;
    }
  }
  // Takes a finished, document-ordered match list (a match list or count
  // sink only).
  void Take(std::vector<KeyedId>&& nodes) {
    if (ids_ == nullptr) {
      count_ += nodes.size();
    } else {
      for (const KeyedId& n : nodes) ids_->push_back(n.id);
    }
  }

  // Calls scan(visit) with a visitor that passes each node it is shown to
  // this sink and returns true. The visitor keeps the list or the count in
  // a local, so a scan's hot loop touches neither the sink nor a branch.
  template <typename Scan>
  void Visit(Scan&& scan) {
    if (nodes_ != nullptr) {
      std::vector<KeyedId>* out = nodes_;
      scan([out](const KeyedId& n) {
        out->push_back(n);
        return true;
      });
    } else if (ids_ != nullptr) {
      std::vector<NodeId>* out = ids_;
      scan([out](const KeyedId& n) {
        out->push_back(n.id);
        return true;
      });
    } else {
      uint64_t count = 0;
      scan([&count](const KeyedId&) {
        ++count;
        return true;
      });
      count_ += count;
    }
  }

 private:
  std::vector<NodeId>* ids_ = nullptr;
  std::vector<KeyedId>* nodes_ = nullptr;  // contexts
  uint64_t count_ = 0;
};

// The navigator reads structure through a view. Besides the predicates and
// the keys, a view makes the untied tests a positioning search decides a
// key tie with, each true on a prefix of a document-ordered list:
// NotAfter(n, x) through `n`, Before(n, x) up to just before `n`, and
// InSubtree(a, x), on elements from `a` on, through a's last descendant.
//
// This view asks the scheme's virtual predicates and keys: Dewey,
// OrdPath, the prefix schemes and Prime are read through it. Their keys
// are the constant 0, so every search probe ties and the tests decide.
class LabelingView {
 public:
  explicit LabelingView(const Labeling& lab) : lab_(&lab) {}

  uint32_t Key(NodeId n) const { return lab_->OrderKey(n); }
  uint32_t EndKey(NodeId n) const { return lab_->EndKey(n); }
  int CompareOrder(NodeId a, NodeId b) const {
    return lab_->CompareOrder(a, b);
  }
  bool IsAncestor(NodeId a, NodeId d) const { return lab_->IsAncestor(a, d); }
  bool IsParent(NodeId p, NodeId c) const { return lab_->IsParent(p, c); }
  int Level(NodeId n) const { return lab_->Level(n); }

  bool NotAfter(NodeId n, NodeId x) const {
    return lab_->CompareOrder(n, x) >= 0;
  }
  bool Before(NodeId n, NodeId x) const {
    return lab_->CompareOrder(x, n) < 0;
  }
  bool InSubtree(NodeId a, NodeId x) const {
    return x == a || lab_->IsAncestor(a, x);
  }

 private:
  const Labeling* lab_;
};

// Structure from the containment columns, read in place: `a` is an
// ancestor of `d` iff start(a) < start(d) and end(d) < end(a), document
// order is start order, and the level is stored. One view serves every
// containment codec (V/F-Binary, Float, V/F-CDBS, QED, Hybrid): each
// orders its values by `<` and abbreviates them to order keys
// (Codec::Key). It depends only on the value type, so codecs with the same
// one (Binary and CDBS words) share one navigator. From `a` on, an element
// is in a's subtree iff it starts before `a` ends.
template <typename Value>
class ContainmentView {
 public:
  template <typename Codec>
  explicit ContainmentView(const labeling::ContainmentLabeling<Codec>& lab)
      : start_(&lab.starts()),
        end_(&lab.ends()),
        level_(&lab.levels()),
        key_(&Codec::Key) {}

  const Value& Start(NodeId n) const { return (*start_)[n]; }
  const Value& End(NodeId n) const { return (*end_)[n]; }
  int Level(NodeId n) const { return (*level_)[n]; }
  uint32_t Key(NodeId n) const { return key_(Start(n)); }
  uint32_t EndKey(NodeId n) const { return key_(End(n)); }

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

  bool NotAfter(NodeId n, NodeId x) const { return !(Start(n) < Start(x)); }
  bool Before(NodeId n, NodeId x) const { return Start(x) < Start(n); }
  bool InSubtree(NodeId a, NodeId x) const { return Start(x) < End(a); }

 private:
  // Words and floats are passed by value, strings and variants by
  // reference.
  using KeyOf =
      uint32_t (*)(std::conditional_t<std::is_scalar_v<Value>, Value,
                                      const Value&>);

  const util::CowVector<Value>* start_;
  const util::CowVector<Value>* end_;
  const util::CowVector<uint16_t>* level_;
  KeyOf key_;
};

// Calls f(view) with the view `lab` is read through: its containment
// columns, or else its virtual predicates. Once per evaluation, never per
// probe.
template <typename F>
void WithView(const Labeling& lab, F&& f) {
  const bool columns =
      labeling::WithContainment(lab, [&f](const auto& containment) {
        using Value = typename std::decay_t<decltype(containment)>::Value;
        f(ContainmentView<Value>(containment));
      });
  if (!columns) f(LabelingView(lab));
}

// A step with its tag list, looked up once per evaluation rather than once
// per context. Predicate paths are planned the same way.
//
// Every context of a step is an id of the list its previous step read (for
// a predicate path's first step, of the list of the step it tests), so two
// facts about all of them are decided here, once, from list metadata; the
// navigator reads them instead of asking each context:
//  * `child_spans`: every context lies between min_level() and max_level()
//    of its list, so when the first plus one reaches the step list's
//    max_level(), a child step from any context is its whole descendant
//    span, and when not even the second does, from none; otherwise each
//    context's level decides;
//  * `contexts_disjoint`: the contexts' list never nested, so no context
//    is an ancestor of another.
enum class ChildSpans : uint8_t { kPerContext, kAll, kNone };

struct PlannedPath;

struct PlannedStep {
  const Step* step = nullptr;
  const TagList* list = nullptr;
  ChildSpans child_spans = ChildSpans::kPerContext;
  bool contexts_disjoint = false;
  std::vector<PlannedPath> predicates;
};

// A predicate path, numbered within its query (`slot`), so the navigator
// can keep one cursor per path.
struct PlannedPath {
  std::vector<PlannedStep> steps;
  size_t slot = 0;
};

// Plans `steps`, whose first step's contexts come from `from` (nullptr for
// the document node above the scope). Numbers predicate paths from
// `*paths` on, which it leaves at the next free number.
std::vector<PlannedStep> Plan(const std::vector<Step>& steps,
                              const LabeledDocument& doc, const TagList* from,
                              size_t* paths) {
  std::vector<PlannedStep> plan(steps.size());
  for (size_t s = 0; s < steps.size(); ++s) {
    PlannedStep& step = plan[s];
    step.step = &steps[s];
    step.list = &doc.WithTag(steps[s].name);
    if (from != nullptr) {
      const int deepest = step.list->max_level();
      step.child_spans = from->min_level() + 1 >= deepest
                             ? ChildSpans::kAll
                             : (from->max_level() + 1 < deepest
                                    ? ChildSpans::kNone
                                    : ChildSpans::kPerContext);
      step.contexts_disjoint = !from->nested();
    }
    for (const RelativePath& rel : steps[s].predicates) {
      const size_t slot = (*paths)++;
      step.predicates.push_back({Plan(rel.steps, doc, step.list, paths), slot});
    }
    from = step.list;
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

// One evaluation over one document, inside one scope at a time, reading
// structure through `View`. Counts label comparisons, scanned candidates,
// key ties and sorted/counted steps locally and adds them to the default
// registry once, when it goes out of scope. Hot loops keep the view and
// their counts in locals: a per-candidate member reload and store would
// otherwise stay.
//
// Every skip below rests on one fact that holds for every scheme: the
// descendants of a node follow it contiguously in any document-ordered
// list. A child step adds the level: inside a parent's span, a child is a
// node one level below it, and when the list holds nothing deeper than
// that, the whole span is children.
//
// A context is a KeyedId: the id with the keys of its start and end,
// copied from the tag list it came from. A search from it compares keys
// and asks the view's untied test only when two keys tie.
template <typename View>
class Navigator {
 public:
  // `paths`: the number of predicate paths in the plans it will run.
  Navigator(const LabeledDocument& doc, View view, size_t paths = 0)
      : doc_(doc), view_(view), path_cursors_(paths) {
    SetScope(doc.root());
  }
  ~Navigator() {
    LabelComparisonsCounter().Increment(comparisons_);
    CandidatesScannedCounter().Increment(scanned_);
    StepsSortedCounter().Increment(sorted_);
    StepsCountedCounter().Increment(counted_);
    KeyTiesCounter().Increment(ties_);
  }
  Navigator(const Navigator&) = delete;
  Navigator& operator=(const Navigator&) = delete;

  // Makes `scope`'s subtree the document every later call sees.
  void SetScope(NodeId scope) { scope_ = NodeOf(scope); }

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
    std::vector<KeyedId>& context = context_;
    std::vector<KeyedId>& next = next_;
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
            (step.contexts_disjoint || IsAntichain(context));
        ordered = cursor.disjoint;
      }
      const bool last = s + 1 == steps;
      next.clear();
      Sink collect = Sink::Contexts(&next);
      Sink* sink = last && ordered ? result : &collect;
      if (s == 0) {
        EmitFromScope(step, &cursor, sink);
      } else if (axis == Axis::kFollowing) {
        Emit(FollowingAnchor(context), step, &cursor, sink);
      } else {
        for (const KeyedId& c : context) Emit(c, step, &cursor, sink);
      }
      cursors[s] = cursor.at;
      if (sink == result) {
        if (result->counts()) ++counted_;
        return;
      }
      if (!ordered) {
        // Sort by label order, since ids assigned by later insertions are
        // not document-ordered: by the carried keys, and by label
        // comparison on a tie.
        ++sorted_;
        std::sort(next.begin(), next.end(),
                  [view](const KeyedId& a, const KeyedId& b) {
                    if (a.key != b.key) return a.key < b.key;
                    return view.CompareOrder(a.id, b.id) < 0;
                  });
        next.erase(std::unique(next.begin(), next.end(),
                               [](const KeyedId& a, const KeyedId& b) {
                                 return a.id == b.id;
                               }),
                   next.end());
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
    size_t parent_at = 0;
    size_t node_after = 0;
    return FindParent(NodeOf(node), &parent_at, &node_after);
  }

 private:
  // FindParent of `node`, which also sets *node_after to the index just
  // past `node` in the list of all elements and, when there is a parent,
  // *parent_at to the parent's index there.
  NodeId FindParent(const KeyedId& node, size_t* parent_at,
                    size_t* node_after) {
    const NodeId id = node.id;
    if (id == scope_.id) return kNoNode;
    const View view = view_;
    const TagList& all = doc_.all_elements();
    const size_t after = FirstAfter(all, node, 0);
    *node_after = after;
    TagList::Iterator it = all.IteratorAt(after);
    size_t idx = after;
    NodeId parent = kNoNode;
    while (idx > 0) {
      --idx;
      const NodeId cand = *--it;
      // The first candidate is `node` itself.
      if (cand != id && view.IsParent(cand, id)) {
        parent = cand;
        *parent_at = idx;
        break;
      }
    }
    scanned_ += after - idx;
    return parent;
  }

  bool ScopeIsRoot() const { return scope_.id == doc_.root(); }

  // `n` as a context: its start key read from the label, its end key left
  // to be read when a search needs it.
  KeyedId NodeOf(NodeId n) const {
    return KeyedId{n, view_.Key(n), KeyedId::kNoEndKey};
  }

  // The entry under `it` as a context, with the start key its run stores.
  // The end key is left to EndKeyOf, so a node that never becomes a
  // context (a predicate's last match) reads none.
  static KeyedId NodeAt(const TagList::Iterator& it) {
    return KeyedId{*it, it.key(), KeyedId::kNoEndKey};
  }

  // A context's end key: carried, or read from the label when its list
  // stores none.
  uint32_t EndKeyOf(const KeyedId& n) const {
    return n.end_key != KeyedId::kNoEndKey ? n.end_key : view_.EndKey(n.id);
  }

  // Whether `a` is an ancestor of `d`, a node after it in document order:
  // whether d starts before a ends. Compares the carried keys and asks the
  // view only when they tie.
  bool Encloses(const KeyedId& a, const KeyedId& d) {
    const uint32_t end_key = EndKeyOf(a);
    if (d.key != end_key) return d.key < end_key;
    ++ties_;
    return view_.InSubtree(a.id, d.id);
  }

  // True when no context node is an ancestor of the next one. For a
  // document-ordered list that makes it an antichain: an ancestor of a
  // later node is also an ancestor of every node between them in document
  // order.
  bool IsAntichain(const std::vector<KeyedId>& context) {
    for (size_t k = 1; k < context.size(); ++k) {
      if (Encloses(context[k - 1], context[k])) return false;
    }
    return true;
  }

  // The node of a non-empty document-ordered context whose following:: set
  // is the union of all of theirs: the one whose subtree ends first, i.e.
  // the end of the leading ancestor chain (every later node starts after it
  // ends).
  KeyedId FollowingAnchor(const std::vector<KeyedId>& context) {
    KeyedId anchor = context[0];
    for (size_t k = 1; k < context.size() && Encloses(anchor, context[k]);
         ++k) {
      anchor = context[k];
    }
    return anchor;
  }

  // Index of the first element of list[from, to) whose key is not below
  // `key`, or that ties it and fails `test`: the search every positioning
  // below makes. A tie is counted and decided by test(x), one of the
  // view's untied tests.
  template <typename Test>
  size_t Search(const TagList& list, size_t from, size_t to, uint32_t key,
                Test test) {
    const auto tie = [test, ties = &ties_](NodeId x) {
      ++*ties;
      return test(x);
    };
    return list.PartitionPoint(from, to, KeyProbe<decltype(tie)>{key, tie},
                               &comparisons_);
  }

  // Index of the first element of `list` after `node` in document order,
  // by its start key. `from` is a lower bound on the answer; the search
  // gallops from it. A tie is `node` itself, or else the view decides.
  size_t FirstAfter(const TagList& list, const KeyedId& node, size_t from) {
    return Search(list, from, list.size(), node.key,
                  [view = view_, id = node.id](NodeId x) {
                    return x == id || view.NotAfter(id, x);
                  });
  }

  // Index of the first element of list[from, to) that is not a descendant
  // of `anchor`, by its end key. Every element of that range must come
  // after `anchor`, so its descendants there form a prefix.
  size_t SubtreeEnd(const TagList& list, const KeyedId& anchor, size_t from,
                    size_t to) {
    return Search(list, from, to, EndKeyOf(anchor),
                  [view = view_, id = anchor.id](NodeId x) {
                    return x == id || view.InSubtree(id, x);
                  });
  }

  // Index of the scope itself in `list`, or of the first element after it,
  // by the scope's start key; `from` is a lower bound.
  size_t ScopeBegin(const TagList& list, size_t from) {
    if (ScopeIsRoot()) return 0;
    return Search(list, from, list.size(), scope_.key,
                  [view = view_, id = scope_.id](NodeId x) {
                    return x != id && view.Before(id, x);
                  });
  }

  // Index of the first element of `list` past the scope's subtree, by the
  // scope's end key; `from` is at least ScopeBegin.
  size_t ScopeEnd(const TagList& list, size_t from) {
    if (ScopeIsRoot()) return list.size();
    return SubtreeEnd(list, scope_, from, list.size());
  }

  // True when every descendant of `parent` in the step's list is a child of
  // it: the list never held a node deeper than one level below `parent`.
  // The step's decision for all its contexts comes first.
  bool ChildrenOnly(const PlannedStep& step, const KeyedId& parent) const {
    if (step.child_spans != ChildSpans::kPerContext) {
      return step.child_spans == ChildSpans::kAll;
    }
    return view_.Level(parent.id) + 1 >= step.list->max_level();
  }

  // Steps whose matches from `context` are one contiguous span of the tag
  // list, taken without looking at a single candidate.
  bool CopiesSpan(const KeyedId& context, const PlannedStep& step) const {
    const Step& s = *step.step;
    if (!s.predicates.empty() || s.position != 0) return false;
    return s.axis == Axis::kFollowing || s.axis == Axis::kDescendant ||
           (s.axis == Axis::kChild && ChildrenOnly(step, context));
  }

  // Passes the matches of the query's first step, taken from the
  // (virtual) document node above the scope, to `*sink`.
  void EmitFromScope(const PlannedStep& step, Cursor* cursor, Sink* sink) {
    const Step& s = *step.step;
    if (s.axis == Axis::kChild) {
      if (NameMatches(s, doc_.tag(scope_.id)) && s.position <= 1 &&
          PredicatesHold(step, scope_)) {
        sink->Visit([&](auto visit) { visit(scope_); });
      }
    } else if (s.axis == Axis::kDescendant) {
      const TagList& list = *step.list;
      const size_t begin = ScopeBegin(list, cursor->at);
      const size_t end = ScopeEnd(list, begin);
      cursor->at = end;
      if (!s.predicates.empty() || s.position != 0) {
        sink->Visit([&](auto visit) { Filter(begin, end, step, visit); });
      } else {
        sink->Span(list, begin, end);
      }
    }
  }

  // Passes the matches of `step` from `context` to `*sink`, in document
  // order. Spans with nothing to test are taken in one piece.
  void Emit(const KeyedId& context, const PlannedStep& step, Cursor* cursor,
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
  // FirstAfter(parent). Returns the index the scan stopped at. The
  // parent's span costs one search, and a child is a node in it one level
  // below the parent. A descendant that is not a child lies under an
  // earlier child, so the rest of the last child's subtree is galloped
  // over at once.
  template <typename Visit>
  size_t ForEachChild(const TagList& list, const KeyedId& parent,
                      size_t begin, size_t to, Visit&& visit) {
    const View view = view_;
    const size_t end = SubtreeEnd(list, parent, begin, to);
    const int child_level = view.Level(parent.id) + 1;
    KeyedId last_child{};
    bool have_last_child = false;
    uint64_t scanned = 0;
    size_t i = begin;
    TagList::Iterator it = list.IteratorAt(i);
    while (i < end) {
      ++scanned;
      if (view.Level(*it) == child_level) {
        const KeyedId node = NodeAt(it);
        if (!visit(node)) break;
        last_child = node;
        have_last_child = true;
        ++i;
        ++it;
        continue;
      }
      // Under the last child: gallop past the rest of its subtree. Under a
      // child `list` does not hold: step past it.
      const size_t skip_to =
          have_last_child ? SubtreeEnd(list, last_child, i, end) : i;
      have_last_child = false;  // its subtree is behind us either way
      i = std::max(skip_to, i + 1);
      it = list.IteratorAt(i);
    }
    scanned_ += scanned;
    return i;
  }

  // ForEachChild over the list of all elements, for the `*` child step.
  // Inside the parent's span, the first element is its first child, and
  // the first element past a child's subtree is the next child: one search
  // by the child's end key (its one label read) per child, and no level
  // read. (A sibling scan keeps ForEachChild: its candidates are mostly
  // leaves, whose levels lie closer together than their ends.)
  template <typename Visit>
  size_t ForEachChildOfAll(const KeyedId& parent, size_t begin, size_t to,
                           Visit&& visit) {
    const TagList& all = doc_.all_elements();
    const size_t end = SubtreeEnd(all, parent, begin, to);
    uint64_t scanned = 0;
    size_t i = begin;
    while (i < end) {
      KeyedId child = NodeAt(all.IteratorAt(i));
      child.end_key = view_.EndKey(child.id);
      ++scanned;
      if (!visit(child)) break;
      i = SubtreeEnd(all, child, i + 1, end);
    }
    scanned_ += scanned;
    return i;
  }

  // The index span of the step's list that a child, descendant or
  // following:: step covers from `context`, positioned from the cursor,
  // which it advances. For a child step the span is the descendant span
  // (the caller checks ChildrenOnly). following:: ends where the scope
  // does.
  std::pair<size_t, size_t> Span(const KeyedId& context,
                                 const PlannedStep& step, Cursor* cursor) {
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
    const TagList& list = *step.list;
    const size_t rank =
        s.axis == Axis::kDescendant ? static_cast<size_t>(s.position) : 0;
    TagList::Iterator it = list.IteratorAt(begin);
    size_t i = begin;
    for (; i < end; ++i, ++it) {
      const KeyedId node = NodeAt(it);
      if (rank != 0 && SiblingRank(node, step) != rank) continue;
      if (PredicatesHold(step, node) && !visit(node)) break;
    }
    scanned_ += std::min(end, i + 1) - begin;
    return i == end;
  }

  // Calls visit on the matches of `step` from `context`, in document order,
  // until it returns false; returns false in that case. The main path and
  // predicate paths share it, so both honour every axis and [n].
  template <typename Visit>
  bool Expand(const KeyedId& context, const PlannedStep& step, Cursor* cursor,
              Visit&& visit) {
    const Step& s = *step.step;
    const TagList& list = *step.list;
    switch (s.axis) {
      case Axis::kChild: {
        if (ChildrenOnly(step, context)) {
          // The span is the children: [n] is an index, predicates filter.
          const auto [begin, end] = Span(context, step, cursor);
          if (s.position == 0) return Filter(begin, end, step, visit);
          const size_t at = begin + static_cast<size_t>(s.position) - 1;
          if (at >= end) return true;
          const KeyedId child = NodeAt(list.IteratorAt(at));
          return !PredicatesHold(step, child) || visit(child);
        }
        const size_t begin = FirstAfter(list, context, cursor->at);
        size_t rank = 0;
        bool stopped = false;
        const auto on_child = [&](const KeyedId& c) {
          ++rank;
          if (s.position != 0 && rank < static_cast<size_t>(s.position)) {
            return true;
          }
          if (PredicatesHold(step, c) && !visit(c)) {
            stopped = true;
            return false;
          }
          return s.position == 0;  // [n] ends at the n-th child
        };
        const size_t end =
            &list == &doc_.all_elements()
                ? ForEachChildOfAll(context, begin, list.size(), on_child)
                : ForEachChild(list, context, begin, list.size(), on_child);
        cursor->at = cursor->disjoint ? end : begin;
        return !stopped;
      }
      case Axis::kDescendant:
      case Axis::kFollowing: {
        const auto [begin, end] = Span(context, step, cursor);
        return Filter(begin, end, step, visit);
      }
      case Axis::kPrecedingSibling: {
        size_t parent_at = 0;
        size_t context_after = 0;
        const NodeId parent_id =
            FindParent(context, &parent_at, &context_after);
        if (parent_id == kNoNode) return true;
        const KeyedId parent = NodeOf(parent_id);
        // Over all elements, FindParent has found both bounds already.
        const bool found = &list == &doc_.all_elements();
        const size_t begin =
            found ? parent_at + 1 : FirstAfter(list, parent, 0);
        bool stopped = false;
        // Everything before FirstAfter(context) precedes or is `context`.
        ForEachChild(list, parent, begin,
                     found ? context_after : FirstAfter(list, context, begin),
                     [&](const KeyedId& sib) {
                       if (sib.id == context.id) return false;
                       if (PredicatesHold(step, sib) && !visit(sib)) {
                         stopped = true;
                         return false;
                       }
                       return true;
                     });
        return !stopped;
      }
      case Axis::kParent: {
        size_t parent_at = 0;
        size_t context_after = 0;
        const NodeId parent_id =
            FindParent(context, &parent_at, &context_after);
        if (parent_id == kNoNode || !NameMatches(s, doc_.tag(parent_id))) {
          return true;
        }
        const KeyedId parent = NodeOf(parent_id);
        return !PredicatesHold(step, parent) || visit(parent);
      }
      case Axis::kAncestor: {
        // Candidates from the scope up to the context node; keep those
        // whose label encloses it.
        const View view = view_;
        const NodeId node = context.id;
        const size_t begin = ScopeBegin(list, 0);
        const size_t end = FirstAfter(list, context, begin);
        TagList::Iterator it = list.IteratorAt(begin);
        size_t i = begin;
        for (; i < end; ++i, ++it) {
          const NodeId cand = *it;
          if (cand == node || !view.IsAncestor(cand, node)) continue;
          const KeyedId ancestor = NodeAt(it);
          if (PredicatesHold(step, ancestor) && !visit(ancestor)) break;
        }
        scanned_ += std::min(end, i + 1) - begin;
        return i == end;
      }
    }
    return true;
  }

  // True when every existence predicate of `step` holds at `node`.
  bool PredicatesHold(const PlannedStep& step, const KeyedId& node) {
    for (const PlannedPath& path : step.predicates) {
      if (!ExistsFrom(node, path, 0)) return false;
    }
    return true;
  }

  // True when the relative path `path[i..]` matches something from `node`;
  // stops at the first match. The path's first step starts its search
  // where it left off for the last node it was asked from, when `node`
  // keys after that one: the nodes a predicate is tested on mostly ascend,
  // so the search gallops on instead of starting from the front.
  bool ExistsFrom(const KeyedId& node, const PlannedPath& path, size_t i) {
    if (i == path.steps.size()) return true;
    Cursor cursor;
    PathCursor* carried = nullptr;
    if (i == 0) {
      carried = &path_cursors_[path.slot];
      if (carried->used && node.key > carried->key) cursor.at = carried->at;
    }
    const bool stopped = !Expand(node, path.steps[i], &cursor,
                                 [&](const KeyedId& next) {
                                   return !ExistsFrom(next, path, i + 1);
                                 });
    if (carried != nullptr) *carried = {node.key, cursor.at, true};
    return stopped;
  }

  // 1-based rank of `node`, a match of `step`, among its same-tag
  // siblings, via labels.
  size_t SiblingRank(const KeyedId& node, const PlannedStep& step) {
    size_t parent_at = 0;
    size_t node_after = 0;
    const NodeId parent_id = FindParent(node, &parent_at, &node_after);
    if (parent_id == kNoNode) return 1;  // the scope
    const TagList& list = step.step->name == "*"
                              ? doc_.WithTag(doc_.tag(node.id))
                              : *step.list;
    const KeyedId parent = NodeOf(parent_id);
    size_t rank = 0;
    ForEachChild(list, parent, FirstAfter(list, parent, 0), list.size(),
                 [&](const KeyedId& sib) {
                   ++rank;
                   return sib.id != node.id;
                 });
    return rank;
  }

  // Where a predicate path's first step last stopped searching, and the
  // key of the node it was asked from: a lower bound for any node after it.
  struct PathCursor {
    uint32_t key = 0;
    size_t at = 0;
    bool used = false;
  };

  const LabeledDocument& doc_;
  const View view_;
  KeyedId scope_;
  std::vector<KeyedId> context_;  // Run's step input
  std::vector<KeyedId> next_;     // Run's step output
  std::vector<PathCursor> path_cursors_;  // by PlannedPath::slot
  uint64_t comparisons_ = 0;
  uint64_t scanned_ = 0;
  uint64_t sorted_ = 0;
  uint64_t counted_ = 0;
  uint64_t ties_ = 0;
};

obs::Histogram* EvalNanos() {
  static obs::Histogram* const h = obs::MetricRegistry::Default().GetHistogram(
      "query.eval.ns", "Wall time per navigational query evaluation");
  return h;
}

// Runs `query` in each of `scopes[0, n)` on one navigator. The matches go
// to `*matches` (n == 1) when it is given; counts[k] receives the number
// in scopes[k]. The scopes share the step cursors, so they must be in
// document order with none inside another (checked in Debug builds).
void RunScopes(const Query& query, const LabeledDocument& doc,
               const NodeId* scopes, size_t n, std::vector<NodeId>* matches,
               uint64_t* counts) {
  QueriesCounter().Increment(n);
  obs::ScopedTimer timer(EvalNanos());
  size_t paths = 0;
  const std::vector<PlannedStep> plan =
      Plan(query.steps, doc, nullptr, &paths);
  std::vector<size_t> cursors(plan.size(), 0);
  uint64_t emitted = 0;
  WithView(doc.labeling(), [&](auto view) {
    Navigator<decltype(view)> nav(doc, view, paths);
    for (size_t k = 0; k < n; ++k) {
      CDBS_DCHECK(k == 0 || (view.CompareOrder(scopes[k - 1], scopes[k]) < 0 &&
                             !view.IsAncestor(scopes[k - 1], scopes[k])));
      Sink sink = matches != nullptr ? Sink(matches) : Sink();
      nav.SetScope(scopes[k]);
      nav.Run(plan, cursors.data(), &sink);
      counts[k] = sink.size();
      emitted += sink.size();
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
  uint64_t count = 0;
  RunScopes(query, doc, &scope, 1, &matches, &count);
  return matches;
}

uint64_t CountQuery(const Query& query, const LabeledDocument& doc,
                    NodeId scope) {
  uint64_t count = 0;
  RunScopes(query, doc, &scope, 1, nullptr, &count);
  return count;
}

std::vector<uint64_t> CountPerScope(const Query& query,
                                    const LabeledDocument& doc,
                                    const std::vector<NodeId>& scopes) {
  std::vector<uint64_t> counts(scopes.size());
  RunScopes(query, doc, scopes.data(), scopes.size(), nullptr, counts.data());
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
