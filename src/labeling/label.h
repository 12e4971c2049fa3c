#ifndef CDBS_LABELING_LABEL_H_
#define CDBS_LABELING_LABEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/cow_vector.h"
#include "xml/tree.h"

/// \file
/// The common interface every labeling scheme implements, plus the shared
/// tree-skeleton bookkeeping updates need.
///
/// A `Labeling` is a labeled snapshot of one document. Node handles
/// (`NodeId`) are assigned in document order at labeling time (so id order
/// == document order for the initial tree); nodes inserted later receive
/// fresh ids. All relationship predicates are answered *from the labels
/// alone* — that is the entire point of the paper's comparison: their cost
/// profile differs per scheme (bit-string comparisons for CDBS, float
/// compares for QRS, modular arithmetic over big integers for Prime, ...).

namespace cdbs::labeling {

/// Dense node handle. Initial ids are document-order ranks.
using NodeId = uint32_t;

/// Sentinel for "no node" (e.g. the root's parent).
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Outcome of one insertion.
struct InsertResult {
  /// Handle of the newly inserted node.
  NodeId new_node = kNoNode;
  /// Existing nodes whose stored labels had to change. For the Prime scheme
  /// this counts recomputed SC values (the paper's Table 4 convention).
  uint64_t relabeled = 0;
  /// Bits modified in a *neighbour's* label value to derive the new label
  /// (1 for CDBS, 2 for QED, 0 where the concept does not apply). This is
  /// the micro update cost Section 7.4 compares.
  uint64_t neighbor_bits_modified = 0;
  /// True when the insertion hit the scheme's overflow condition and forced
  /// a full re-encode (Section 6, Example 6.1).
  bool overflow = false;
};

/// Outcome of one subtree deletion. Deletion never disturbs the relative
/// order of the remaining labels (Section 5.2.1); only the Prime scheme has
/// work to do, because the document order positions behind its SC values
/// shift.
struct DeleteResult {
  /// Ids of the removed nodes (the whole subtree), in document order.
  std::vector<NodeId> removed;
  /// Labels or SC values rewritten (non-zero only for Prime).
  uint64_t relabeled = 0;
};

/// Reports one scheme-level overflow (a forced full re-encode, Example 6.1)
/// to the default metric registry (`labeling.overflow_events`). Schemes call
/// this wherever they set `InsertResult::overflow`.
void NoteOverflowEvent();

/// Structural bookkeeping shared by all schemes: parent/level/sibling links
/// for every labeled node, maintained across insertions. Schemes use it to
/// locate the neighbouring labels an insertion goes between; it is *not*
/// consulted by the relationship predicates (those use labels only). The
/// one exception is the level column, which the containment schemes keep
/// as the level part of their "start, end, level" labels rather than
/// storing a second copy.
class TreeSkeleton {
 public:
  /// Builds the skeleton of `doc` in document order. If `order_out` is
  /// non-null it receives the node pointers so callers can map NodeId ->
  /// xml::Node (for tag lookup).
  static TreeSkeleton FromDocument(const xml::Document& doc,
                                   std::vector<const xml::Node*>* order_out);

  /// Appends a new childless node as the last child of `parent`, or as the
  /// root when `parent` is kNoNode (the skeleton must then be empty).
  /// Returns its id (== old size()). Appending in pre-order keeps ids in
  /// document order, which is what labeling a skeleton requires.
  NodeId AddNode(NodeId parent);

  size_t size() const { return parent_.size(); }

  NodeId parent(NodeId n) const { return parent_[n]; }
  int level(NodeId n) const { return level_[n]; }
  /// The level column: the containment schemes store it as the level
  /// part of their labels instead of keeping a copy.
  const util::CowVector<uint16_t>& levels() const { return level_; }
  NodeId prev_sibling(NodeId n) const { return prev_sibling_[n]; }
  NodeId next_sibling(NodeId n) const { return next_sibling_[n]; }
  NodeId first_child(NodeId n) const { return first_child_[n]; }
  /// Walks n's children: O(#children). No column stores it; only a
  /// pre-order build appends children, and it finds the last one from the
  /// node added before.
  NodeId last_child(NodeId n) const;

  /// Number of nodes in the subtree rooted at `n` (inclusive).
  uint64_t SubtreeSize(NodeId n) const;

  /// Inserts a new childless node as the sibling immediately before
  /// `target` (must not be the root). Returns the new node's id
  /// (== old size()).
  NodeId AddSiblingBefore(NodeId target);

  /// Inserts a new childless node as the sibling immediately after
  /// `target` (must not be the root).
  NodeId AddSiblingAfter(NodeId target);

  /// The 1-based rank of `n` among its parent's children.
  size_t ChildRank(NodeId n) const;

  /// Unlinks the subtree rooted at `target` (must not be the root) from the
  /// tree and returns the ids it contained, in document order. Ids are
  /// never reused; querying links of removed nodes is undefined.
  std::vector<NodeId> RemoveSubtree(NodeId target);

  /// Number of nodes still attached (size() minus removed ones).
  size_t live_count() const { return live_count_; }

  /// True iff `n` was removed by RemoveSubtree: removal unlinks every node
  /// of the subtree from its parent, and only the root has none otherwise.
  bool is_removed(NodeId n) const { return n != 0 && parent_[n] == kNoNode; }

 private:
  // Appends a node's level.
  void PushLevel(int level);

  // All per-node state is chunked copy-on-write (util/cow_vector.h): copying
  // a TreeSkeleton shares every chunk, and link updates path-copy only the
  // touched chunks. This is what makes Labeling::ForkShared O(touched).
  size_t live_count_ = 0;
  util::CowVector<NodeId> parent_;  ///< kNoNode: the root or a removed node
  util::CowVector<uint16_t> level_;  ///< root == 1; CHECKed to fit
  util::CowVector<NodeId> prev_sibling_;
  util::CowVector<NodeId> next_sibling_;
  util::CowVector<NodeId> first_child_;
};

/// A labeled document snapshot: relationship predicates over labels plus
/// order-preserving insertion.
class Labeling {
 public:
  virtual ~Labeling() = default;

  /// Scheme name, paper style (e.g. "V-CDBS-Containment").
  virtual const std::string& scheme_name() const = 0;

  /// Number of labeled nodes (grows with insertions).
  virtual size_t num_nodes() const = 0;

  /// Total stored label bits across all nodes (the Figure 5 metric).
  virtual uint64_t TotalLabelBits() const = 0;

  /// Mean stored label bits per node.
  double AvgLabelBits() const {
    return num_nodes() == 0 ? 0.0
                            : static_cast<double>(TotalLabelBits()) /
                                  static_cast<double>(num_nodes());
  }

  /// True iff `a` is a strict ancestor of `d` — decided from labels.
  virtual bool IsAncestor(NodeId a, NodeId d) const = 0;

  /// True iff `p` is the parent of `c` — decided from labels.
  virtual bool IsParent(NodeId p, NodeId c) const = 0;

  /// Document-order comparison of two nodes (-1, 0, +1) — from labels.
  virtual int CompareOrder(NodeId a, NodeId b) const = 0;

  /// Tree level of `n` (root == 1).
  virtual int Level(NodeId n) const = 0;

  /// A 32-bit abbreviation of `n`'s document-order label: OrderKey(a) <
  /// OrderKey(b) implies a precedes b, and equal keys leave the order to
  /// CompareOrder. Tag lists store one per entry so a search probes keys,
  /// not labels (query/tag_list.h). Every containment codec abbreviates
  /// its values (Codec::Key). The prefix schemes and Prime keep this
  /// constant 0, which the contract allows: every comparison ties, and the
  /// labels decide it.
  virtual uint32_t OrderKey(NodeId) const { return 0; }

  /// The same abbreviation of the value that closes `n`'s interval:
  /// OrderKey(d) < EndKey(a) implies that a node `d` after `a` lies in a's
  /// subtree, OrderKey(d) > EndKey(a) that it does not, and equal keys
  /// leave it to the labels. The per-tag lists store one per entry, so a
  /// step from a context reads no label to bound its subtree. Constant 0
  /// for the schemes whose OrderKey is.
  virtual uint32_t EndKey(NodeId) const { return 0; }

  /// Inserts a new element as the sibling immediately before `target`.
  virtual InsertResult InsertSiblingBefore(NodeId target) = 0;

  /// Inserts a new element as the sibling immediately after `target`.
  virtual InsertResult InsertSiblingAfter(NodeId target) = 0;

  /// Deletes the subtree rooted at `target` (not the root). Remaining
  /// labels keep their relative order; removed ids must no longer be used.
  virtual DeleteResult DeleteSubtree(NodeId target) = 0;

  /// Serialized label bytes for the label store (Figure 7's I/O).
  virtual std::string SerializeLabel(NodeId n) const = 0;

  /// SerializeLabel(n).size(), which a scheme may compute without building
  /// the string.
  virtual size_t SerializedLabelSize(NodeId n) const {
    return SerializeLabel(n).size();
  }

  /// Copy-on-write fork: the snapshot primitive behind the concurrent
  /// serving layer (docs/CONCURRENCY.md). The fork is logically independent
  /// of this labeling: one side may keep inserting while the other is read
  /// concurrently. Every scheme keeps its per-node state in
  /// `util::CowVector`s, so a fork shares every chunk and costs O(chunks),
  /// not O(nodes); the side that mutates path-copies only the chunks it
  /// touches (see util/cow_vector.h for the thread contract).
  virtual std::unique_ptr<Labeling> ForkShared() const = 0;

  /// Structural skeleton (shared bookkeeping; not used by predicates).
  virtual const TreeSkeleton& skeleton() const = 0;
};

/// Factory for one labeling scheme.
class LabelingScheme {
 public:
  virtual ~LabelingScheme() = default;

  /// Paper-style scheme name.
  virtual const std::string& name() const = 0;

  /// Labels every node of `skeleton`, whose ids must be in document order
  /// (pre-order), and adopts it as the labeling's skeleton.
  virtual std::unique_ptr<Labeling> Label(TreeSkeleton skeleton) const = 0;

  /// Labels all nodes of `doc` in document order.
  std::unique_ptr<Labeling> Label(const xml::Document& doc) const {
    return Label(TreeSkeleton::FromDocument(doc, nullptr));
  }
};

/// The scheme named `name` whose labelings are `L(name, args..., skeleton)`.
/// Every registered scheme is one (see MakeScheme).
template <typename L, typename... Args>
class SchemeOf final : public LabelingScheme {
 public:
  explicit SchemeOf(std::string name, Args... args)
      : name_(std::move(name)), args_(std::move(args)...) {}

  const std::string& name() const override { return name_; }

  using LabelingScheme::Label;
  std::unique_ptr<Labeling> Label(TreeSkeleton skeleton) const override {
    return std::apply(
        [&](const Args&... args) {
          return std::make_unique<L>(name_, args..., std::move(skeleton));
        },
        args_);
  }

 private:
  std::string name_;
  std::tuple<Args...> args_;
};

template <typename L, typename... Args>
std::unique_ptr<LabelingScheme> MakeScheme(std::string name, Args... args) {
  return std::make_unique<SchemeOf<L, Args...>>(std::move(name),
                                                std::move(args)...);
}

}  // namespace cdbs::labeling

#endif  // CDBS_LABELING_LABEL_H_
