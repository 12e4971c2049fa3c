#include "labeling/label.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace cdbs::labeling {

void NoteOverflowEvent() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "labeling.overflow_events",
      "Forced full re-encodes after a length-field overflow (Example 6.1)");
  c->Increment();
}

TreeSkeleton TreeSkeleton::FromDocument(
    const xml::Document& doc, std::vector<const xml::Node*>* order_out) {
  TreeSkeleton sk;
  if (order_out != nullptr) order_out->clear();
  // Pre-order walk assigning ids in document order; map Node* -> id via a
  // parallel stack-free pass.
  struct Frame {
    const xml::Node* node;
    NodeId parent_id;
  };
  std::vector<Frame> stack;
  if (doc.root() != nullptr) stack.push_back({doc.root(), kNoNode});
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const NodeId id = sk.AddNode(frame.parent_id);
    if (order_out != nullptr) order_out->push_back(frame.node);
    const auto& kids = frame.node->children();
    for (size_t i = kids.size(); i-- > 0;) stack.push_back({kids[i], id});
  }
  return sk;
}

void TreeSkeleton::PushLevel(int level) {
  CDBS_CHECK(level <= std::numeric_limits<uint16_t>::max());
  level_.PushBack(static_cast<uint16_t>(level));
}

NodeId TreeSkeleton::AddNode(NodeId parent_id) {
  const NodeId id = static_cast<NodeId>(parent_.size());
  CDBS_CHECK(parent_id == kNoNode ? id == 0 : parent_id < id);
  ++live_count_;
  parent_.PushBack(parent_id);
  PushLevel(parent_id == kNoNode ? 1 : level_[parent_id] + 1);
  prev_sibling_.PushBack(kNoNode);
  next_sibling_.PushBack(kNoNode);
  first_child_.PushBack(kNoNode);
  if (parent_id != kNoNode && first_child_[parent_id] == kNoNode) {
    first_child_.Set(parent_id, id);
  } else if (parent_id != kNoNode) {
    // The parent's last child so far: in a pre-order build, the ancestor
    // of the node added last that sits just below the parent. A node the
    // walk passes is closed for good, so a whole build walks each node at
    // most once.
    NodeId prev = id - 1;
    while (prev != kNoNode && parent_[prev] != parent_id) {
      prev = parent_[prev];
    }
    if (prev == kNoNode || next_sibling_[prev] != kNoNode) {
      prev = last_child(parent_id);  // not a pre-order add
    }
    prev_sibling_.Set(id, prev);
    next_sibling_.Set(prev, id);
  }
  return id;
}

NodeId TreeSkeleton::last_child(NodeId n) const {
  NodeId child = first_child_[n];
  if (child == kNoNode) return kNoNode;
  while (next_sibling_[child] != kNoNode) child = next_sibling_[child];
  return child;
}

uint64_t TreeSkeleton::SubtreeSize(NodeId n) const {
  uint64_t count = 0;
  std::vector<NodeId> stack = {n};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    ++count;
    for (NodeId c = first_child_[cur]; c != kNoNode; c = next_sibling_[c]) {
      stack.push_back(c);
    }
  }
  return count;
}

NodeId TreeSkeleton::AddSiblingBefore(NodeId target) {
  ++live_count_;
  CDBS_CHECK(target < parent_.size());
  CDBS_CHECK(!is_removed(target));
  const NodeId parent_id = parent_[target];
  CDBS_CHECK(parent_id != kNoNode);  // cannot insert beside the root
  const NodeId id = static_cast<NodeId>(parent_.size());
  parent_.PushBack(parent_id);
  PushLevel(level_[parent_id] + 1);
  first_child_.PushBack(kNoNode);
  const NodeId prev = prev_sibling_[target];
  prev_sibling_.PushBack(prev);
  next_sibling_.PushBack(target);
  prev_sibling_.Set(target, id);
  if (prev != kNoNode) {
    next_sibling_.Set(prev, id);
  } else {
    first_child_.Set(parent_id, id);
  }
  return id;
}

NodeId TreeSkeleton::AddSiblingAfter(NodeId target) {
  ++live_count_;
  CDBS_CHECK(target < parent_.size());
  CDBS_CHECK(!is_removed(target));
  const NodeId parent_id = parent_[target];
  CDBS_CHECK(parent_id != kNoNode);
  const NodeId id = static_cast<NodeId>(parent_.size());
  parent_.PushBack(parent_id);
  PushLevel(level_[parent_id] + 1);
  first_child_.PushBack(kNoNode);
  const NodeId next = next_sibling_[target];
  prev_sibling_.PushBack(target);
  next_sibling_.PushBack(next);
  next_sibling_.Set(target, id);
  if (next != kNoNode) prev_sibling_.Set(next, id);
  return id;
}

std::vector<NodeId> TreeSkeleton::RemoveSubtree(NodeId target) {
  CDBS_CHECK(target < parent_.size());
  CDBS_CHECK(!is_removed(target));
  const NodeId parent_id = parent_[target];
  CDBS_CHECK(parent_id != kNoNode);  // cannot remove the root
  // Collect the subtree in document order before unlinking.
  std::vector<NodeId> removed;
  std::vector<NodeId> stack = {target};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    removed.push_back(cur);
    const size_t first = stack.size();
    for (NodeId c = first_child_[cur]; c != kNoNode; c = next_sibling_[c]) {
      stack.push_back(c);
    }
    std::reverse(stack.begin() + first, stack.end());  // first child on top
  }
  // Unlink target from its sibling chain.
  const NodeId prev = prev_sibling_[target];
  const NodeId next = next_sibling_[target];
  if (prev != kNoNode) {
    next_sibling_.Set(prev, next);
  } else {
    first_child_.Set(parent_id, next);
  }
  if (next != kNoNode) prev_sibling_.Set(next, prev);
  for (const NodeId n : removed) parent_.Set(n, kNoNode);
  live_count_ -= removed.size();
  return removed;
}

size_t TreeSkeleton::ChildRank(NodeId n) const {
  size_t rank = 1;
  for (NodeId p = prev_sibling_[n]; p != kNoNode; p = prev_sibling_[p]) {
    ++rank;
  }
  return rank;
}

}  // namespace cdbs::labeling
