#include "labeling/dewey.h"

#include <vector>

#include "util/check.h"
#include "util/cow_vector.h"
#include "util/ordered_varint.h"

namespace cdbs::labeling {

namespace {

size_t GammaBits(uint64_t v) {
  CDBS_CHECK(v >= 1);
  size_t log = 0;
  while (v >> (log + 1)) ++log;
  return 2 * log + 1;
}

class DeweyLabeling : public Labeling {
 public:
  DeweyLabeling(std::string name, DeweySizing sizing, TreeSkeleton skeleton)
      : name_(std::move(name)), sizing_(sizing) {
    skeleton_ = std::move(skeleton);
    const NodeId count = static_cast<NodeId>(skeleton_.size());
    labels_.Resize(count);
    // Ranks computed incrementally: ids are document-ordered, so a node's
    // previous sibling always has a smaller id.
    std::vector<uint64_t> rank(count, 1);
    for (NodeId n = 0; n < count; ++n) {
      const NodeId parent = skeleton_.parent(n);
      if (parent == kNoNode) {
        labels_.Set(n, {1});
        continue;
      }
      const NodeId prev = skeleton_.prev_sibling(n);
      if (prev != kNoNode) rank[n] = rank[prev] + 1;
      // Copy the parent's label locally before Set: Set may path-copy the
      // chunk the parent's label lives in.
      std::vector<uint64_t> label = labels_[parent];
      label.push_back(rank[n]);
      labels_.Set(n, std::move(label));
    }
  }

  const std::string& scheme_name() const override { return name_; }
  size_t num_nodes() const override { return skeleton_.size(); }

  uint64_t TotalLabelBits() const override {
    uint64_t total = 0;
    for (size_t n = 0; n < labels_.size(); ++n) {
      for (const uint64_t component : labels_[n]) {
        total += sizing_ == DeweySizing::kUtf8
                     ? 8 * util::OrderedVarintLength(component)
                     : GammaBits(component);
      }
    }
    return total;
  }

  bool IsAncestor(NodeId a, NodeId d) const override {
    const auto& la = labels_[a];
    const auto& ld = labels_[d];
    if (la.size() >= ld.size()) return false;
    for (size_t i = 0; i < la.size(); ++i) {
      if (la[i] != ld[i]) return false;
    }
    return true;
  }

  bool IsParent(NodeId p, NodeId c) const override {
    return labels_[c].size() == labels_[p].size() + 1 && IsAncestor(p, c);
  }

  int CompareOrder(NodeId a, NodeId b) const override {
    const auto& la = labels_[a];
    const auto& lb = labels_[b];
    const size_t n = std::min(la.size(), lb.size());
    for (size_t i = 0; i < n; ++i) {
      if (la[i] != lb[i]) return la[i] < lb[i] ? -1 : 1;
    }
    if (la.size() == lb.size()) return 0;
    return la.size() < lb.size() ? -1 : 1;  // ancestor first
  }

  int Level(NodeId n) const override {
    return static_cast<int>(labels_[n].size());
  }

  InsertResult InsertSiblingBefore(NodeId target) override {
    InsertResult result;
    // The new node takes target's ordinal; target and every following
    // sibling move up by one, which rewrites their labels and the labels of
    // all their descendants.
    const size_t depth_index = labels_[target].size() - 1;
    const uint64_t new_ordinal = labels_[target][depth_index];
    for (NodeId s = target; s != kNoNode; s = skeleton_.next_sibling(s)) {
      result.relabeled += BumpComponentInSubtree(s, depth_index);
    }
    const NodeId id = skeleton_.AddSiblingBefore(target);
    std::vector<uint64_t> label = labels_[skeleton_.parent(id)];
    label.push_back(new_ordinal);
    labels_.PushBack(std::move(label));
    result.new_node = id;
    return result;
  }

  InsertResult InsertSiblingAfter(NodeId target) override {
    InsertResult result;
    const size_t depth_index = labels_[target].size() - 1;
    const uint64_t new_ordinal = labels_[target][depth_index] + 1;
    for (NodeId s = skeleton_.next_sibling(target); s != kNoNode;
         s = skeleton_.next_sibling(s)) {
      result.relabeled += BumpComponentInSubtree(s, depth_index);
    }
    const NodeId id = skeleton_.AddSiblingAfter(target);
    std::vector<uint64_t> label = labels_[skeleton_.parent(id)];
    label.push_back(new_ordinal);
    labels_.PushBack(std::move(label));
    result.new_node = id;
    return result;
  }

  std::string SerializeLabel(NodeId n) const override {
    std::string out;
    for (const uint64_t component : labels_[n]) {
      CDBS_CHECK(util::EncodeOrderedVarint(component, &out).ok());
    }
    return out;
  }

  DeleteResult DeleteSubtree(NodeId target) override {
    DeleteResult result;
    result.removed = skeleton_.RemoveSubtree(target);
    // Remaining labels keep their relative order; nothing is rewritten.
    return result;
  }

  const TreeSkeleton& skeleton() const override { return skeleton_; }

  std::unique_ptr<Labeling> ForkShared() const override {
    // Copy construction is COW (CowVector labels + COW TreeSkeleton).
    return std::make_unique<DeweyLabeling>(*this);
  }

  /// Test hook: the raw component path.
  const std::vector<uint64_t>& label(NodeId n) const { return labels_[n]; }

 private:
  // Adds one to the component at `depth_index` throughout the subtree of
  // `s`, appending the touched node ids to *touched.
  // Bumps component `depth_index` of every label in `s`'s subtree;
  // returns how many labels changed.
  uint64_t BumpComponentInSubtree(NodeId s, size_t depth_index) {
    uint64_t touched = 0;
    std::vector<NodeId> stack = {s};
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      ++labels_.Mutable(cur)[depth_index];
      ++touched;
      for (NodeId c = skeleton_.first_child(cur); c != kNoNode;
           c = skeleton_.next_sibling(c)) {
        stack.push_back(c);
      }
    }
    return touched;
  }

  std::string name_;
  DeweySizing sizing_;
  TreeSkeleton skeleton_;
  util::CowVector<std::vector<uint64_t>> labels_;
};

}  // namespace

std::unique_ptr<LabelingScheme> MakeDeweyPrefix() {
  return MakeScheme<DeweyLabeling>("DeweyID(UTF8)-Prefix",
                                   DeweySizing::kUtf8);
}

std::unique_ptr<LabelingScheme> MakeBinaryStringPrefix() {
  return MakeScheme<DeweyLabeling>("Binary-String-Prefix",
                                   DeweySizing::kGamma);
}

}  // namespace cdbs::labeling
