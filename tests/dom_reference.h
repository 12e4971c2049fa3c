// A label-free reference for the navigational evaluator: a plain DOM and a
// walk over it that computes the XPath subset's documented semantics. Tests
// compare EvaluateQuery against it.

#ifndef CDBS_TESTS_DOM_REFERENCE_H_
#define CDBS_TESTS_DOM_REFERENCE_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "labeling/label.h"
#include "query/xpath.h"
#include "xml/tree.h"

namespace cdbs::query {

using labeling::kNoNode;
using labeling::NodeId;

// The reference DOM. Ids are the labeling's: pre-order at load time, then
// one fresh id per insert, as TreeSkeleton assigns them.
struct RefTree {
  std::vector<std::string> tag;  // empty for text nodes
  std::vector<NodeId> parent;
  std::vector<std::vector<NodeId>> children;  // live children, in order

  // Mirrors a parsed or generated document, node for node.
  static RefTree FromDocument(const xml::Document& doc) {
    RefTree tree;
    std::vector<std::pair<const xml::Node*, NodeId>> stack = {
        {doc.root(), kNoNode}};
    while (!stack.empty()) {
      const auto [node, parent_id] = stack.back();
      stack.pop_back();
      const NodeId id =
          tree.Add(parent_id, node->is_element() ? node->name() : "");
      if (parent_id != kNoNode) tree.children[parent_id].push_back(id);
      const std::vector<xml::Node*>& kids = node->children();
      for (size_t i = kids.size(); i-- > 0;) stack.push_back({kids[i], id});
    }
    return tree;
  }

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
// EvaluateQuery documents, computed without labels. A predicate path runs
// through the same per-axis expansion as the main path. With a `scope`, the
// scope's subtree is the whole document and the scope its root element:
// nothing outside it is ever reached.
class RefEvaluator {
 public:
  explicit RefEvaluator(const RefTree& tree, NodeId scope = 0)
      : tree_(tree), scope_(scope), rank_(tree.tag.size(), 0) {
    const std::vector<NodeId> all = tree.PreOrder();
    for (const NodeId n : all) {
      if (n == scope || IsAncestor(scope, n)) order_.push_back(n);
    }
    for (size_t i = 0; i < order_.size(); ++i) rank_[order_[i]] = i;
  }

  std::vector<NodeId> Evaluate(const Query& query) const {
    std::vector<NodeId> context;
    for (size_t s = 0; s < query.steps.size(); ++s) {
      const Step& step = query.steps[s];
      std::vector<NodeId> next;
      if (s == 0) {
        if (step.axis == Axis::kChild) {
          if (Matches(step, scope_) && step.position <= 1 &&
              Predicates(step, scope_)) {
            next.push_back(scope_);
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
    return !tree_.tag[n].empty() &&
           (step.name == "*" || step.name == tree_.tag[n]);
  }

  bool IsAncestor(NodeId a, NodeId d) const {
    for (NodeId p = tree_.parent[d]; p != kNoNode; p = tree_.parent[p]) {
      if (p == a) return true;
    }
    return false;
  }

  int SameTagRank(NodeId n) const {
    if (n == scope_) return 1;
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
    std::vector<NodeId> matches;
    Expand(steps[i], n, &matches);
    for (const NodeId m : matches) {
      if (Exists(m, steps, i + 1)) return true;
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
        if (c == scope_) break;
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
        if (c != scope_) emit(tree_.parent[c]);
        break;
      case Axis::kAncestor:
        for (NodeId p = c; p != scope_;) {
          p = tree_.parent[p];
          emit(p);
        }
        break;
    }
  }

  const RefTree& tree_;
  NodeId scope_;
  std::vector<NodeId> order_;  // the scope's subtree, in document order
  std::vector<size_t> rank_;
};

}  // namespace cdbs::query

#endif  // CDBS_TESTS_DOM_REFERENCE_H_
