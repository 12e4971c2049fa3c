#ifndef CDBS_QUERY_EVALUATOR_H_
#define CDBS_QUERY_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "query/tag_index.h"
#include "query/xpath.h"

/// \file
/// Label-driven evaluation of the XPath subset: every structural decision
/// (child, descendant, sibling, order) is answered by the labeling's
/// predicates, so response times directly reflect each scheme's label
/// comparison costs — exactly what Figure 6 measures.
///
/// The evaluator moves through the document-ordered tag lists by skipping
/// ranges rather than testing every candidate. Every skip rests on one fact
/// that holds for every scheme: a node's descendants follow it contiguously
/// in any document-ordered list. So:
///
///  * Positioning is `TagList::PartitionPoint`: a galloping search that
///    indexes the run it starts in directly and moves on by run ends, so a
///    search pays one or two run lookups, not one per probe. A descendant
///    step finds where a context's subtree ends with it (O(log k)
///    `IsAncestor` probes to pass k descendants). With nothing to test per
///    match, the whole span is taken in one piece; with `[n]` or
///    predicates, only the span is iterated. A following:: step skips the
///    anchor's subtree the same way.
///  * A child step tests `IsParent` per candidate. A candidate that fails
///    it but is still a descendant lies under an earlier child, so the rest
///    of the last child's subtree is galloped over. A non-descendant ends
///    the scan, and a child `[n]` ends it at the n-th child.
///  * One forward cursor per step: the context list is strictly in document
///    order, so each context's first position in the step's list is never
///    before the previous one's, and the search gallops on from there
///    (O(log gap), not O(log |list|)). When no context is an ancestor of
///    the next, the next one also starts after the previous subtree, so
///    the cursor moves past everything that expansion scanned.
///
/// The last step writes into a sink: the match list, or a counter. A count
/// whose last step needs no sort (the first step, following::, or child/
/// descendant over an antichain) never builds the list: a span adds its
/// length and a visited node adds one (`query.eval.steps_counted`).
///
/// Every evaluation runs inside a scope: a node whose subtree is treated as
/// the whole document, with the scope as its root element. The first step
/// starts at the scope, descendant spans cover its subtree (the scope
/// included), following:: stops at the end of that subtree, parent:: and
/// preceding-sibling:: of the scope are empty, ancestor:: stops at it, and
/// its sibling rank is 1. Predicate paths use the same expansion, so they
/// are clipped too. A sharded corpus scopes each read to one merged
/// document this way (docs/SHARDING.md). Counting several scopes in
/// document order carries each step's cursor from one scope to the next:
/// everything in scope k+1 follows scope k, so it stays a lower bound.
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

/// Match counts of `query` inside each of `scopes`, index-aligned. Scopes
/// in document order with none inside another carry each step's cursor
/// from one to the next; others are counted from scratch each.
std::vector<uint64_t> CountPerScope(const Query& query,
                                    const LabeledDocument& doc,
                                    const std::vector<NodeId>& scopes);

/// Evaluates `query` over a corpus of labeled documents and returns the
/// total number of matches (the Table 3 metric).
uint64_t CountMatches(const Query& query,
                      const std::vector<const LabeledDocument*>& corpus);

/// Finds the parent of `node` using labels only (scan back through the
/// document-ordered element list until IsParent matches). Exposed for
/// tests.
NodeId FindParent(const LabeledDocument& doc, NodeId node);

}  // namespace cdbs::query

#endif  // CDBS_QUERY_EVALUATOR_H_
