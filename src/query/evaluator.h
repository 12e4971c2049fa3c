#ifndef CDBS_QUERY_EVALUATOR_H_
#define CDBS_QUERY_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "query/tag_index.h"
#include "query/xpath.h"

/// \file
/// Label-driven evaluation of the XPath subset: every structural decision
/// (child, descendant, sibling, order) is answered from labels, so response
/// times directly reflect each scheme's label comparison costs — exactly
/// what Figure 6 measures. The containment family is read from its own
/// start/end/level columns, the other schemes through their virtual
/// predicates; the choice is made once per evaluation, and everything
/// else below is the same for every scheme.
///
/// The evaluator moves through the document-ordered tag lists by skipping
/// ranges rather than testing every candidate. Every skip rests on one fact
/// that holds for every scheme: a node's descendants follow it contiguously
/// in any document-ordered list. So:
///
///  * Positioning is `TagList::PartitionPoint`: a galloping search that
///    indexes the run it starts in directly and moves on by run ends, so a
///    search pays one or two run lookups, not one per probe. A descendant
///    step finds where a context's subtree ends with it (O(log k) probes
///    to pass k descendants; each probe compares an entry's 32-bit order
///    key with the context's end key). With nothing to test per
///    match, the whole span is taken in one piece; with `[n]` or
///    predicates, only the span is iterated. A following:: step skips the
///    anchor's subtree the same way.
///  * A child step over a tag list that never held a node deeper than one
///    level below the context (`TagList::max_level`) is the context's
///    descendant span: taken whole, `[n]` an index into it. Otherwise it
///    tests each candidate inside the context's span for being a child by
///    its level; a deeper descendant lies under an earlier child, so the
///    rest of the last child's subtree is galloped over, and a child `[n]`
///    ends the scan at the n-th child.
///
/// A context is an interval, not just an id (`KeyedId`): the id with the
/// keys of its start and end, copied straight from the tag-list runs a
/// span was taken from (query/tag_list.h). Every scheme has order keys
/// (Labeling::OrderKey): the containment codecs abbreviate their values,
/// and the prefix schemes and Prime key every label 0. So:
///
///  * FirstAfter and SubtreeEnd from a context compare list keys with the
///    context's own start or end key. Only when two keys tie does a lazy
///    tie ask the view's untied test, which reads the labels
///    (`query.eval.key_ties` counts ties; a tie with the context itself is
///    decided by its id). Under constant keys every probe ties, so those
///    schemes compare labels on every probe, as a search over ids would. A
///    context that was visited one by one, not taken from a span, carries
///    its start key and reads its end from the label when a search first
///    needs it; one made from a bare id (the scope, a parent found by
///    FindParent) reads its start there too.
///  * Whether a child step is a descendant span, and whether a step's
///    contexts are an antichain, is decided once per step from list
///    metadata: every context of a step is an id of the previous step's
///    list (a predicate path's first step: of the tested step's list), so
///    `min_level`/`max_level` of that list bound the contexts' levels, and
///    a list that never `nested` yields antichains. The plan carries these
///    decisions; contexts are asked only when the bounds leave it open, by
///    their level, or by comparing carried keys for the antichain test.
///  * The `*` child step walks the list of all elements child to child:
///    inside a parent's span, the element past a child's subtree is the
///    next child, found by one search on that child's end key. No level is
///    read per candidate.
///  * A predicate path's first step keeps its cursor from one tested node
///    to the next while they ascend in key order, so it gallops on instead
///    of searching from the front of its list (never under constant keys).
///  * One forward cursor per step: the context list is strictly in document
///    order, so each context's first position in the step's list is never
///    before the previous one's, and the search gallops on from there
///    (O(log gap), not O(log |list|)). When no context is an ancestor of
///    the next, the next one also starts after the previous subtree, so
///    the cursor moves past everything that expansion scanned.
///
/// Each step's tag list is looked up once per evaluation. The last step
/// writes into a sink: the match list, or a counter. A count whose last
/// step needs no sort (the first step, following::, or child/descendant
/// over an antichain) never builds the list: a span adds its length and a
/// visited node adds one (`query.eval.steps_counted`).
///
/// Every evaluation runs inside a scope: a node whose subtree is treated as
/// the whole document, with the scope as its root element. The first step
/// starts at the scope, descendant spans cover its subtree (the scope
/// included), following:: stops at the end of that subtree, parent:: and
/// preceding-sibling:: of the scope are empty, ancestor:: stops at it, and
/// its sibling rank is 1. Predicate paths use the same expansion, so they
/// are clipped too. A sharded corpus scopes each read to one merged
/// document this way (docs/SHARDING.md). Counting several scopes, which
/// must be in document order with none inside another, carries each
/// step's cursor from one scope to the next: everything in scope k+1
/// follows scope k, so it stays a lower bound.
///
/// Predicate paths run through the same per-axis expansion as the main
/// path, stopping at the first match. `query.eval.candidates_scanned`
/// counts the candidates visited one at a time (docs/OBSERVABILITY.md).

namespace cdbs::query {

/// Evaluates `query` over one labeled document; returns matching element
/// ids in document order.
std::vector<NodeId> EvaluateQuery(const Query& query,
                                  const LabeledDocument& doc);

/// Evaluates `query` with the subtree of `scope` (a live element) as the
/// whole document; returns matching element ids in document order.
std::vector<NodeId> EvaluateQuery(const Query& query,
                                  const LabeledDocument& doc, NodeId scope);

/// Number of matches of `query` inside `scope`: EvaluateQuery(...).size(),
/// without building the match list when the last step needs no sort.
uint64_t CountQuery(const Query& query, const LabeledDocument& doc,
                    NodeId scope);

/// Match counts of `query` inside each of `scopes`, index-aligned.
/// Precondition: the scopes are in document order, none inside another
/// (checked in Debug builds), so each step's cursor carries from one to
/// the next. A sharded corpus's document roots are, by construction.
std::vector<uint64_t> CountPerScope(const Query& query,
                                    const LabeledDocument& doc,
                                    const std::vector<NodeId>& scopes);

/// Evaluates `query` over a corpus of labeled documents and returns the
/// total number of matches (the Table 3 metric).
uint64_t CountMatches(const Query& query,
                      const std::vector<const LabeledDocument*>& corpus);

/// Finds the parent of `node` using labels only (scan back through the
/// document-ordered element list to the first ancestor one level up).
/// Exposed for tests.
NodeId FindParent(const LabeledDocument& doc, NodeId node);

}  // namespace cdbs::query

#endif  // CDBS_QUERY_EVALUATOR_H_
