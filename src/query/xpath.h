#ifndef CDBS_QUERY_XPATH_H_
#define CDBS_QUERY_XPATH_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file
/// The XPath subset the paper's workload (Table 3, Q1-Q6) needs:
///
///   /step/step        child axis
///   //step            descendant axis
///   *                 wildcard name test
///   name[4]           positional predicate among same-name siblings
///                     (child and descendant steps only; rejected on the
///                     other axes)
///   name[./title]     child-existence predicate
///   name[.//grpdescr] descendant-existence predicate
///   preceding-sibling::* , following::name   ordered axes
///
/// Parsed into a step list; evaluation lives in query/evaluator.h.

namespace cdbs::query {

/// Axis of one location step.
enum class Axis {
  kChild,
  kDescendant,        // the step after "//"
  kPrecedingSibling,  // preceding-sibling::
  kFollowing,         // following::
  kParent,            // parent::
  kAncestor,          // ancestor::
};

struct Step;

/// A relative path used inside an existence predicate ("./title",
/// ".//x/y").
struct RelativePath {
  std::vector<Step> steps;
};

/// One location step.
struct Step {
  Axis axis = Axis::kChild;
  std::string name;  // "*" means any element
  /// 1-based positional predicate among same-name siblings; 0 = none.
  int position = 0;
  /// Existence predicates; all must match.
  std::vector<RelativePath> predicates;
};

/// A parsed absolute query.
struct Query {
  std::string text;  // original text, for reporting
  std::vector<Step> steps;
};

/// Parses an absolute XPath expression from the supported subset.
Result<Query> ParseQuery(std::string_view text);

/// The six queries of Table 3.
const std::vector<std::string>& Table3Queries();

}  // namespace cdbs::query

#endif  // CDBS_QUERY_XPATH_H_
