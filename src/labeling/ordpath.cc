#include "labeling/ordpath.h"

#include <algorithm>

#include "util/check.h"
#include "util/cow_vector.h"

namespace cdbs::labeling {

namespace {

bool IsOdd(int64_t v) { return (v & 1) != 0; }

// Smallest odd value strictly between a and b near their midpoint, or 0 if
// none exists (0 is never a valid odd result since 0 is even).
int64_t OddBetween(int64_t a, int64_t b) {
  if (b - a < 2) return 0;
  int64_t o = a + (b - a) / 2;
  if (!IsOdd(o)) {
    if (o + 1 < b) {
      ++o;
    } else if (o - 1 > a) {
      --o;
    } else {
      return 0;
    }
  }
  return o;
}

}  // namespace

bool IsValidOrdPathSelf(const OrdPathSelf& self) {
  if (self.empty()) return false;
  for (size_t i = 0; i + 1 < self.size(); ++i) {
    if (IsOdd(self[i])) return false;  // carets are even
  }
  return IsOdd(self.back());
}

OrdPathSelf OrdPathInsertBetween(const OrdPathSelf& left,
                                 const OrdPathSelf& right) {
  CDBS_CHECK(left.empty() || IsValidOrdPathSelf(left));
  CDBS_CHECK(right.empty() || IsValidOrdPathSelf(right));
  if (left.empty() && right.empty()) return {1};
  if (right.empty()) {
    // After the last sibling: one past its first component, made odd.
    const int64_t f = left[0];
    return {IsOdd(f) ? f + 2 : f + 1};
  }
  if (left.empty()) {
    const int64_t f = right[0];
    return {IsOdd(f) ? f - 2 : f - 1};
  }
  // First differing component. The even*odd self structure guarantees one
  // sequence is never a prefix of the other.
  size_t i = 0;
  while (i < left.size() && i < right.size() && left[i] == right[i]) ++i;
  CDBS_CHECK(i < left.size() && i < right.size());
  const int64_t a = left[i];
  const int64_t b = right[i];
  CDBS_CHECK(a < b);
  OrdPathSelf out(left.begin(), left.begin() + static_cast<ptrdiff_t>(i));
  const int64_t o = OddBetween(a, b);
  if (o != 0) {
    out.push_back(o);
    return out;
  }
  if (b - a == 2) {
    // Two adjacent odds: caret into the even between them.
    CDBS_CHECK(IsOdd(a));
    out.push_back(a + 1);
    out.push_back(1);
    return out;
  }
  // b == a + 1: recurse into whichever side continues past the caret.
  if (!IsOdd(a)) {
    // `a` is a caret, so `left` continues after i.
    out.push_back(a);
    const OrdPathSelf tail(left.begin() + static_cast<ptrdiff_t>(i) + 1,
                           left.end());
    const OrdPathSelf sub = OrdPathInsertBetween(tail, {});
    out.insert(out.end(), sub.begin(), sub.end());
    return out;
  }
  // `b` is a caret, so `right` continues after i.
  CDBS_CHECK(!IsOdd(b));
  out.push_back(b);
  const OrdPathSelf tail(right.begin() + static_cast<ptrdiff_t>(i) + 1,
                         right.end());
  const OrdPathSelf sub = OrdPathInsertBetween({}, tail);
  out.insert(out.end(), sub.begin(), sub.end());
  return out;
}

int OrdPathCompare(const std::vector<int64_t>& a,
                   const std::vector<int64_t>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

size_t OrdPath1ComponentBits(int64_t v) {
  // Reconstruction of the SIGMOD paper's prefix-free code: symmetric
  // classes of growing payload width around zero.
  struct Class {
    int64_t lo;
    int64_t hi;
    size_t bits;  // prefix + payload
  };
  static constexpr Class kClasses[] = {
      {-8, 7, 2 + 3},            // "01"/"10" + 3 payload bits
      {-72, 71, 3 + 6},          // "001"/"110" + 6
      {-4168, 4167, 4 + 12},     // "0001"/"1110" + 12
      {-69704, 69703, 5 + 16},   // "00001"/"11110" + 16
  };
  for (const Class& c : kClasses) {
    if (v >= c.lo && v <= c.hi) return c.bits;
  }
  return 6 + 32;  // "000001"/"111110" + 32
}

size_t OrdPath2ComponentBits(int64_t v) {
  // Byte-aligned zig-zag varint: 7 payload bits per byte.
  uint64_t z = (static_cast<uint64_t>(v) << 1) ^
               static_cast<uint64_t>(v >> 63);
  size_t bytes = 1;
  while (z >>= 7) ++bytes;
  return 8 * bytes;
}

namespace {

class OrdPathLabeling : public Labeling {
 public:
  OrdPathLabeling(std::string name, bool variant1, TreeSkeleton skeleton)
      : name_(std::move(name)), variant1_(variant1) {
    skeleton_ = std::move(skeleton);
    const NodeId count = static_cast<NodeId>(skeleton_.size());
    std::vector<int64_t> ordinal(count, 1);
    for (NodeId n = 0; n < count; ++n) {
      self_len_.PushBack(1);
      const NodeId parent = skeleton_.parent(n);
      if (parent == kNoNode) {
        labels_.PushBack({1});
        continue;
      }
      const NodeId prev = skeleton_.prev_sibling(n);
      if (prev != kNoNode) ordinal[n] = ordinal[prev] + 2;  // odd ordinals
      std::vector<int64_t> label = labels_[parent];
      label.push_back(ordinal[n]);
      labels_.PushBack(std::move(label));
    }
  }

  const std::string& scheme_name() const override { return name_; }
  size_t num_nodes() const override { return skeleton_.size(); }

  uint64_t TotalLabelBits() const override {
    uint64_t total = 0;
    for (size_t n = 0; n < labels_.size(); ++n) {
      for (const int64_t component : labels_[n]) {
        total += variant1_ ? OrdPath1ComponentBits(component)
                           : OrdPath2ComponentBits(component);
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
    // Parent iff prefix and exactly one odd (level-bearing) component in
    // the remaining suffix — this odd/even decoding is what the paper
    // blames for ORDPATH's slower queries.
    const auto& lp = labels_[p];
    const auto& lc = labels_[c];
    if (lp.size() >= lc.size()) return false;
    for (size_t i = 0; i < lp.size(); ++i) {
      if (lp[i] != lc[i]) return false;
    }
    int odd = 0;
    for (size_t i = lp.size(); i < lc.size(); ++i) {
      if ((lc[i] & 1) != 0) ++odd;
    }
    return odd == 1;
  }

  int CompareOrder(NodeId a, NodeId b) const override {
    return OrdPathCompare(labels_[a], labels_[b]);
  }

  int Level(NodeId n) const override {
    int level = 0;
    for (const int64_t c : labels_[n]) {
      if ((c & 1) != 0) ++level;
    }
    return level;
  }

  InsertResult InsertSiblingBefore(NodeId target) override {
    const NodeId prev = skeleton_.prev_sibling(target);
    const OrdPathSelf left =
        prev != kNoNode ? SelfOf(prev) : OrdPathSelf{};
    const OrdPathSelf right = SelfOf(target);
    return Insert(skeleton_.AddSiblingBefore(target), left, right);
  }

  InsertResult InsertSiblingAfter(NodeId target) override {
    const NodeId next = skeleton_.next_sibling(target);
    const OrdPathSelf left = SelfOf(target);
    const OrdPathSelf right =
        next != kNoNode ? SelfOf(next) : OrdPathSelf{};
    return Insert(skeleton_.AddSiblingAfter(target), left, right);
  }

  std::string SerializeLabel(NodeId n) const override {
    std::string out;
    for (const int64_t component : labels_[n]) {
      uint64_t z = (static_cast<uint64_t>(component) << 1) ^
                   static_cast<uint64_t>(component >> 63);
      do {
        uint8_t byte = z & 0x7F;
        z >>= 7;
        if (z != 0) byte |= 0x80;
        out.push_back(static_cast<char>(byte));
      } while (z != 0);
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
    return std::make_unique<OrdPathLabeling>(*this);
  }

  /// Test hooks.
  const std::vector<int64_t>& label(NodeId n) const { return labels_[n]; }
  OrdPathSelf SelfOf(NodeId n) const {
    const auto& l = labels_[n];
    const size_t len = self_len_[n];
    return OrdPathSelf(l.end() - static_cast<ptrdiff_t>(len), l.end());
  }

 private:
  InsertResult Insert(NodeId id, const OrdPathSelf& left,
                      const OrdPathSelf& right) {
    InsertResult result;
    result.new_node = id;
    const OrdPathSelf self = OrdPathInsertBetween(left, right);
    std::vector<int64_t> label = labels_[skeleton_.parent(id)];
    label.insert(label.end(), self.begin(), self.end());
    labels_.PushBack(std::move(label));
    self_len_.PushBack(static_cast<uint32_t>(self.size()));
    return result;  // relabeled == 0: the ORDPATH guarantee
  }

  std::string name_;
  bool variant1_;
  TreeSkeleton skeleton_;
  // Copy-on-write, like the skeleton: a fork shares every chunk.
  util::CowVector<std::vector<int64_t>> labels_;
  util::CowVector<uint32_t> self_len_;
};

}  // namespace

std::unique_ptr<LabelingScheme> MakeOrdPath1Prefix() {
  return MakeScheme<OrdPathLabeling>("OrdPath1-Prefix", true);
}

std::unique_ptr<LabelingScheme> MakeOrdPath2Prefix() {
  return MakeScheme<OrdPathLabeling>("OrdPath2-Prefix", false);
}

}  // namespace cdbs::labeling
