#include "labeling/prime.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "bigint/bigint.h"
#include "util/check.h"
#include "util/cow_vector.h"

namespace cdbs::labeling {

using bigint::BigInt;

std::vector<uint64_t> FirstPrimes(uint64_t count) {
  CDBS_CHECK(count >= 1);
  // Upper bound on the count-th prime: n(ln n + ln ln n) for n >= 6.
  uint64_t bound = 16;
  if (count >= 6) {
    const double n = static_cast<double>(count);
    bound = static_cast<uint64_t>(n * (std::log(n) + std::log(std::log(n)))) +
            16;
  }
  for (;;) {
    std::vector<bool> composite(bound + 1, false);
    std::vector<uint64_t> primes;
    primes.reserve(count);
    for (uint64_t p = 2; p <= bound && primes.size() < count; ++p) {
      if (composite[p]) continue;
      primes.push_back(p);
      for (uint64_t m = p * p; m <= bound; m += p) composite[m] = true;
    }
    if (primes.size() >= count) return primes;
    bound *= 2;  // bound was too tight (cannot happen for count >= 6)
  }
}

namespace {

constexpr size_t kScGroupSize = 5;  // nodes per SC value, per the paper

class PrimeLabeling : public Labeling {
 public:
  explicit PrimeLabeling(std::string name, TreeSkeleton skeleton)
      : name_(std::move(name)) {
    skeleton_ = std::move(skeleton);
    const NodeId count = static_cast<NodeId>(skeleton_.size());
    // Node at document position k (1-based) takes the k-th prime; the k-th
    // prime always exceeds k, so order residues round-trip through CRT.
    primes_ = std::make_shared<const std::vector<uint64_t>>(
        FirstPrimes(count + 1));  // headroom for one insertion
    order_.resize(count);
    by_order_.resize(count);
    for (NodeId n = 0; n < count; ++n) {
      self_.PushBack((*primes_)[n]);  // ids are document-ordered
      order_[n] = n + 1;
      by_order_[n] = n;
      const NodeId parent = skeleton_.parent(n);
      label_.PushBack(parent == kNoNode ? BigInt(self_[n])
                                        : label_[parent].MulSmall(self_[n]));
    }
    next_prime_index_ = count;
    RecomputeScFrom(0);
  }

  const std::string& scheme_name() const override { return name_; }
  size_t num_nodes() const override { return skeleton_.size(); }

  uint64_t TotalLabelBits() const override {
    uint64_t total = 0;
    for (size_t i = 0; i < label_.size(); ++i) {
      // Label product plus the self prime each node must also keep for
      // parent/order tests.
      size_t self_bits = 0;
      while (self_[i] >> self_bits) ++self_bits;
      total += label_[i].BitLength() + self_bits;
    }
    // The SC values are part of the scheme's per-document storage: without
    // them there is no document order.
    for (size_t g = 0; g < sc_.size(); ++g) total += sc_[g].BitLength();
    return total;
  }

  bool IsAncestor(NodeId a, NodeId d) const override {
    if (a == d) return false;
    // label(d) mod label(a) == 0 — big-integer arithmetic on every test.
    if (label_[a].BitLength() > label_[d].BitLength()) return false;
    return label_[d].IsDivisibleBy(label_[a]);
  }

  bool IsParent(NodeId p, NodeId c) const override {
    // label(c) / self(c) == label(p).
    uint64_t rem = 0;
    const BigInt quotient = label_[c].DivModSmall(self_[c], &rem);
    return rem == 0 && quotient == label_[p];
  }

  int CompareOrder(NodeId a, NodeId b) const override {
    // Orders are recovered from SC values with modular arithmetic — the
    // cost the paper attributes to Prime's ordering.
    const uint64_t oa = sc_[GroupOf(a)].ModSmall(self_[a]);
    const uint64_t ob = sc_[GroupOf(b)].ModSmall(self_[b]);
    return oa < ob ? -1 : (oa > ob ? 1 : 0);
  }

  int Level(NodeId n) const override { return skeleton_.level(n); }

  InsertResult InsertSiblingBefore(NodeId target) override {
    const uint32_t position = order_[target];  // new node takes this order
    return Insert(skeleton_.AddSiblingBefore(target), position);
  }

  InsertResult InsertSiblingAfter(NodeId target) override {
    // The new sibling's document position follows target's whole subtree.
    const uint32_t position =
        order_[target] + static_cast<uint32_t>(skeleton_.SubtreeSize(target));
    return Insert(skeleton_.AddSiblingAfter(target), position);
  }

  std::string SerializeLabel(NodeId n) const override {
    // Decimal is fine for the store: size, not format, is what matters.
    return label_[n].ToDecimalString();
  }

  DeleteResult DeleteSubtree(NodeId target) override {
    DeleteResult result;
    // The subtree occupies contiguous document positions starting at
    // order(target).
    const uint32_t first_position = order_[target];
    result.removed = skeleton_.RemoveSubtree(target);
    by_order_.erase(
        by_order_.begin() + (first_position - 1),
        by_order_.begin() + (first_position - 1) +
            static_cast<ptrdiff_t>(result.removed.size()));
    for (size_t pos = first_position - 1; pos < by_order_.size(); ++pos) {
      order_[by_order_[pos]] = static_cast<uint32_t>(pos + 1);
    }
    // Groups from the deletion point on change membership; recompute.
    result.relabeled = RecomputeScFrom((first_position - 1) / kScGroupSize);
    return result;
  }

  const TreeSkeleton& skeleton() const override { return skeleton_; }

  std::unique_ptr<Labeling> ForkShared() const override {
    // Self primes, labels and SC values are COW and the prime table is
    // shared; the two order vectors are copied whole, which is cheap next
    // to the renumbering every Prime insert already does.
    return std::make_unique<PrimeLabeling>(*this);
  }

  /// Test hooks.
  uint64_t self_prime(NodeId n) const { return self_[n]; }
  const BigInt& label(NodeId n) const { return label_[n]; }
  uint64_t order(NodeId n) const { return order_[n]; }
  size_t sc_count() const { return sc_.size(); }

 private:
  size_t GroupOf(NodeId n) const { return (order_[n] - 1) / kScGroupSize; }

  // Replaces the self prime of `n` with a fresh (larger) one and rebuilds
  // the labels of n's subtree. Needed when repeated insertions push a node's
  // document order past its self prime, which would break the SC residue
  // round-trip. Returns the number of labels rewritten.
  uint64_t RePrime(NodeId n) {
    self_.Set(n, NextPrime());
    uint64_t rewritten = 0;
    std::vector<NodeId> stack = {n};
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      const NodeId parent = skeleton_.parent(cur);
      label_.Set(cur, parent == kNoNode
                          ? BigInt(self_[cur])
                          : label_[parent].MulSmall(self_[cur]));
      ++rewritten;
      for (NodeId c = skeleton_.first_child(cur); c != kNoNode;
           c = skeleton_.next_sibling(c)) {
        stack.push_back(c);
      }
    }
    return rewritten;
  }

  // Recomputes SC values for every group index >= first_group. Adds the
  // number of recomputed SC values and any re-primed labels to *relabeled.
  uint64_t RecomputeScFrom(size_t first_group) {
    const size_t group_count =
        (by_order_.size() + kScGroupSize - 1) / kScGroupSize;
    sc_.Resize(group_count);
    uint64_t recomputed = 0;
    std::vector<uint64_t> residues;
    std::vector<uint64_t> moduli;
    for (size_t g = first_group; g < group_count; ++g) {
      residues.clear();
      moduli.clear();
      const size_t begin = g * kScGroupSize;
      const size_t end = std::min(begin + kScGroupSize, by_order_.size());
      for (size_t pos = begin; pos < end; ++pos) {
        const NodeId n = by_order_[pos];
        if (order_[n] >= self_[n]) recomputed += RePrime(n);
        CDBS_CHECK(order_[n] < self_[n]);  // residue must round-trip
        residues.push_back(order_[n]);
        moduli.push_back(self_[n]);
      }
      sc_.Set(g, bigint::CrtCombine(residues, moduli));
      ++recomputed;
    }
    return recomputed;
  }

  // The next unused prime. A table that runs out is replaced by one twice
  // the size; forks keep the table they were made with.
  uint64_t NextPrime() {
    if (next_prime_index_ >= primes_->size()) {
      primes_ = std::make_shared<const std::vector<uint64_t>>(
          FirstPrimes(primes_->size() * 2));
    }
    return (*primes_)[next_prime_index_++];
  }

  InsertResult Insert(NodeId id, uint32_t position) {
    InsertResult result;
    result.new_node = id;
    // Fresh prime for the new node; labels of existing nodes are untouched.
    self_.PushBack(NextPrime());
    const NodeId parent = skeleton_.parent(id);
    label_.PushBack(label_[parent].MulSmall(self_[id]));
    // Shift document orders at/after the insertion point.
    by_order_.insert(by_order_.begin() + (position - 1), id);
    order_.push_back(position);
    for (size_t pos = position; pos < by_order_.size(); ++pos) {
      order_[by_order_[pos]] = static_cast<uint32_t>(pos + 1);
    }
    // Every SC group from the insertion point on changes membership or
    // residues and must be recomputed — this is Prime's update cost.
    result.relabeled = RecomputeScFrom((position - 1) / kScGroupSize);
    return result;
  }

  std::string name_;
  TreeSkeleton skeleton_;
  // Immutable once built, so every fork shares it.
  std::shared_ptr<const std::vector<uint64_t>> primes_;
  size_t next_prime_index_ = 0;
  util::CowVector<uint64_t> self_;
  util::CowVector<BigInt> label_;
  // Plain vectors: every insert renumbers all later positions anyway.
  std::vector<uint32_t> order_;    // 1-based document order per node
  std::vector<NodeId> by_order_;   // node at each document position
  util::CowVector<BigInt> sc_;     // one SC value per group of 5 positions
};

}  // namespace

std::unique_ptr<LabelingScheme> MakePrimeScheme() {
  return MakeScheme<PrimeLabeling>("Prime");
}

}  // namespace cdbs::labeling
