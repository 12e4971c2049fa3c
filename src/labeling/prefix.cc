#include "labeling/prefix.h"

#include <algorithm>
#include <vector>

#include "core/bit_string.h"
#include "core/cdbs.h"
#include "core/qed.h"
#include "util/check.h"
#include "util/cow_vector.h"

namespace cdbs::labeling {

namespace {

/// ---- Self-code policies -------------------------------------------------

// V-CDBS self codes with a per-component length field sized, like the
// containment codec, with headroom for first insertions (see DESIGN.md).
class CdbsSelfPolicy {
 public:
  using Self = core::BitString;

  void Init(size_t max_sibling_group) {
    const size_t width =
        static_cast<size_t>(core::FixedWidthForCount(max_sibling_group));
    length_field_bits_ = 0;
    while ((width + 2) >> length_field_bits_) ++length_field_bits_;
    max_self_bits_ = (size_t{1} << length_field_bits_) - 1;
  }

  std::vector<Self> InitialGroup(uint64_t n) const {
    return core::EncodeRange(n);
  }

  static int Compare(const Self& a, const Self& b) { return a.Compare(b); }

  // Returns false on length-field overflow.
  bool InsertBetween(const Self& left, const Self& right, Self* out,
                     uint64_t* neighbor_bits) const {
    Self mid = core::AssignMiddleBinaryString(left, right);
    if (mid.size() > max_self_bits_) return false;
    *neighbor_bits = 1;  // Algorithm 1 touches one bit of a neighbour
    *out = std::move(mid);
    return true;
  }

  size_t SelfStoredBits(const Self& self) const {
    return length_field_bits_ + self.size();
  }

  std::string Serialize(const Self& self) const {
    std::string out;
    out.push_back(static_cast<char>(self.size()));
    for (const uint8_t byte : self.packed_bytes()) {
      out.push_back(static_cast<char>(byte));
    }
    return out;
  }

 private:
  size_t length_field_bits_ = 0;
  size_t max_self_bits_ = 0;
};


/// ---- The labeling -------------------------------------------------------

template <typename Policy>
class DynamicPrefixLabeling : public Labeling {
 public:
  using Self = typename Policy::Self;

  DynamicPrefixLabeling(std::string name, TreeSkeleton skeleton)
      : name_(std::move(name)) {
    skeleton_ = std::move(skeleton);
    InitialEncode();
  }

  const std::string& scheme_name() const override { return name_; }
  size_t num_nodes() const override { return skeleton_.size(); }

  uint64_t TotalLabelBits() const override {
    uint64_t total = 0;
    for (size_t n = 0; n < labels_.size(); ++n) {
      for (const Self& self : labels_[n]) {
        total += policy_.SelfStoredBits(self);
      }
    }
    return total;
  }

  bool IsAncestor(NodeId a, NodeId d) const override {
    const auto& la = labels_[a];
    const auto& ld = labels_[d];
    if (la.size() >= ld.size()) return false;
    for (size_t i = 0; i < la.size(); ++i) {
      if (Policy::Compare(la[i], ld[i]) != 0) return false;
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
      const int c = Policy::Compare(la[i], lb[i]);
      if (c != 0) return c;
    }
    if (la.size() == lb.size()) return 0;
    return la.size() < lb.size() ? -1 : 1;
  }

  int Level(NodeId n) const override {
    return static_cast<int>(labels_[n].size());
  }

  InsertResult InsertSiblingBefore(NodeId target) override {
    const NodeId prev = skeleton_.prev_sibling(target);
    const Self left = prev != kNoNode ? labels_[prev].back() : Self{};
    const Self right = labels_[target].back();
    return Insert(skeleton_.AddSiblingBefore(target), left, right);
  }

  InsertResult InsertSiblingAfter(NodeId target) override {
    const NodeId next = skeleton_.next_sibling(target);
    const Self left = labels_[target].back();
    const Self right = next != kNoNode ? labels_[next].back() : Self{};
    return Insert(skeleton_.AddSiblingAfter(target), left, right);
  }

  std::string SerializeLabel(NodeId n) const override {
    std::string out;
    for (const Self& self : labels_[n]) out += policy_.Serialize(self);
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
    return std::make_unique<DynamicPrefixLabeling>(*this);
  }

  /// Test hook: full label as self components.
  const std::vector<Self>& label(NodeId n) const { return labels_[n]; }

 private:
  void InitialEncode() {
    const NodeId count = static_cast<NodeId>(skeleton_.size());
    // Longest sibling group determines the length-field sizing.
    std::vector<uint32_t> group_size(count, 0);
    size_t max_group = 1;
    for (NodeId n = 0; n < count; ++n) {
      const NodeId parent = skeleton_.parent(n);
      if (parent == kNoNode) continue;
      max_group = std::max<size_t>(max_group, ++group_size[parent]);
    }
    policy_.Init(max_group);

    // An overflow re-encode rewrites every label in place; chunks a fork
    // still shares are path-copied, the rest are written where they sit.
    // Labels of removed nodes stay stale (their ids are dead).
    labels_.Resize(count);
    if (count == 0) return;
    labels_.Set(0, {policy_.InitialGroup(1)[0]});
    // Parents before children: walk down from the root, encoding each
    // sibling group at once (Algorithm 2 applied to the group size, per
    // Example 5.1). Id order is no guide once siblings were inserted: a
    // group's first child can have a larger id than nodes below its later
    // siblings.
    std::vector<NodeId> parents = {0};
    while (!parents.empty()) {
      const NodeId parent = parents.back();
      parents.pop_back();
      const NodeId first = skeleton_.first_child(parent);
      if (first == kNoNode) continue;
      const std::vector<Self> group = policy_.InitialGroup(group_size[parent]);
      size_t i = 0;
      for (NodeId s = first; s != kNoNode; s = skeleton_.next_sibling(s), ++i) {
        std::vector<Self> label = labels_[parent];
        label.push_back(group[i]);
        labels_.Set(s, std::move(label));
        parents.push_back(s);
      }
    }
  }

  InsertResult Insert(NodeId id, const Self& left, const Self& right) {
    InsertResult result;
    result.new_node = id;
    Self self{};
    uint64_t neighbor_bits = 0;
    if (policy_.InsertBetween(left, right, &self, &neighbor_bits)) {
      std::vector<Self> label = labels_[skeleton_.parent(id)];
      label.push_back(std::move(self));
      labels_.PushBack(std::move(label));
      result.neighbor_bits_modified = neighbor_bits;
      return result;
    }
    // Length-field overflow: re-encode everything (Example 6.1).
    const uint64_t existing = skeleton_.size() - 1;
    labels_.PushBack({});  // placeholder; InitialEncode rebuilds all
    InitialEncode();
    result.relabeled = existing;
    result.overflow = true;
    NoteOverflowEvent();
    return result;
  }

  std::string name_;
  Policy policy_;
  TreeSkeleton skeleton_;
  util::CowVector<std::vector<Self>> labels_;
};

// QED-Prefix with the storage the QED paper actually uses: one flat
// quaternary string per node, self codes delimited by the "0" digit. The
// separator sorts below every code digit, so plain string comparison of
// whole labels yields document order, prefix checks give ancestry, and no
// per-component walk is needed — this is why QED-Prefix out-queries
// ORDPATH's odd/even decode in Figure 6.
class QedPrefixLabeling : public Labeling {
 public:
  QedPrefixLabeling(std::string name, TreeSkeleton skeleton)
      : name_(std::move(name)) {
    skeleton_ = std::move(skeleton);
    const NodeId count = static_cast<NodeId>(skeleton_.size());
    labels_.Resize(count);
    selves_.Resize(count);
    std::vector<uint32_t> group_size(count, 0);
    for (NodeId n = 0; n < count; ++n) {
      const NodeId parent = skeleton_.parent(n);
      if (parent != kNoNode) ++group_size[parent];
    }
    for (NodeId n = 0; n < count; ++n) {
      const NodeId parent = skeleton_.parent(n);
      if (parent == kNoNode) {
        selves_.Set(n, "2");
        labels_.Set(n, "20");
        continue;
      }
      if (skeleton_.prev_sibling(n) != kNoNode) continue;
      const std::vector<core::QedCode> group =
          core::QedEncodeRange(group_size[parent]);
      size_t i = 0;
      for (NodeId s = n; s != kNoNode; s = skeleton_.next_sibling(s), ++i) {
        selves_.Set(s, group[i]);
        labels_.Set(s, labels_[parent] + group[i] + '0');
      }
    }
  }

  const std::string& scheme_name() const override { return name_; }
  size_t num_nodes() const override { return skeleton_.size(); }

  /// Every character (code digit or separator) is one 2-bit quaternary
  /// digit.
  uint64_t TotalLabelBits() const override {
    uint64_t total = 0;
    for (size_t n = 0; n < labels_.size(); ++n) {
      total += 2 * labels_[n].size();
    }
    return total;
  }

  bool IsAncestor(NodeId a, NodeId d) const override {
    const std::string& la = labels_[a];
    const std::string& ld = labels_[d];
    return la.size() < ld.size() && ld.compare(0, la.size(), la) == 0;
  }

  bool IsParent(NodeId p, NodeId c) const override {
    if (!IsAncestor(p, c)) return false;
    // Exactly one more component: a single separator in the suffix.
    const std::string& lp = labels_[p];
    const std::string& lc = labels_[c];
    return std::count(lc.begin() + static_cast<ptrdiff_t>(lp.size()),
                      lc.end(), '0') == 1;
  }

  int CompareOrder(NodeId a, NodeId b) const override {
    const int c = labels_[a].compare(labels_[b]);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }

  int Level(NodeId n) const override {
    return static_cast<int>(
        std::count(labels_[n].begin(), labels_[n].end(), '0'));
  }

  InsertResult InsertSiblingBefore(NodeId target) override {
    const NodeId prev = skeleton_.prev_sibling(target);
    const core::QedCode left =
        prev != kNoNode ? selves_[prev] : core::QedCode();
    const core::QedCode right = selves_[target];
    return Insert(skeleton_.AddSiblingBefore(target), left, right);
  }

  InsertResult InsertSiblingAfter(NodeId target) override {
    const NodeId next = skeleton_.next_sibling(target);
    const core::QedCode left = selves_[target];
    const core::QedCode right =
        next != kNoNode ? selves_[next] : core::QedCode();
    return Insert(skeleton_.AddSiblingAfter(target), left, right);
  }

  DeleteResult DeleteSubtree(NodeId target) override {
    DeleteResult result;
    result.removed = skeleton_.RemoveSubtree(target);
    return result;
  }

  std::string SerializeLabel(NodeId n) const override { return labels_[n]; }

  const TreeSkeleton& skeleton() const override { return skeleton_; }

  std::unique_ptr<Labeling> ForkShared() const override {
    return std::make_unique<QedPrefixLabeling>(*this);
  }

 private:
  InsertResult Insert(NodeId id, const core::QedCode& left,
                      const core::QedCode& right) {
    InsertResult result;
    result.new_node = id;
    const core::QedCode self = core::QedInsertBetween(left, right);
    selves_.PushBack(self);
    labels_.PushBack(labels_[skeleton_.parent(id)] + self + '0');
    result.neighbor_bits_modified = 2;  // one quaternary digit
    return result;
  }

  std::string name_;
  TreeSkeleton skeleton_;
  util::CowVector<std::string> labels_;    // flat, separator-delimited
  util::CowVector<core::QedCode> selves_;  // last component per node
};

}  // namespace

std::unique_ptr<LabelingScheme> MakeCdbsPrefix() {
  return MakeScheme<DynamicPrefixLabeling<CdbsSelfPolicy>>("CDBS-Prefix");
}

std::unique_ptr<LabelingScheme> MakeQedPrefix() {
  return MakeScheme<QedPrefixLabeling>("QED-Prefix");
}

}  // namespace cdbs::labeling
