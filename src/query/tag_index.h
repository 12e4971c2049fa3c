#ifndef CDBS_QUERY_TAG_INDEX_H_
#define CDBS_QUERY_TAG_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "labeling/label.h"
#include "query/tag_list.h"
#include "util/cow_vector.h"
#include "xml/tree.h"

/// \file
/// Per-document query inputs: the label-indexed element lists XML databases
/// keep per tag ("element index"), node lists sorted in document order. The
/// evaluator combines these lists with the labeling's predicates —
/// structural joins over labels, which is where the schemes' costs diverge.
///
/// Every tag list is keyed, for every scheme: each id is stored with its
/// start key (Labeling::OrderKey), and in the per-tag lists also with its
/// end key (EndKey), so a per-tag entry is the element's whole interval;
/// the list of all elements keeps start keys only. The prefix schemes and
/// Prime key every label 0, so their searches decide every probe from
/// the labels. This class alone keeps the keys equal to the labeling's, across
/// inserts, relabels and deletes; Index fills them in its one pass straight
/// from the label columns and seals every list, which computes each run's
/// key summary. It also keeps each list's level bounds and `nested` flag
/// (query/tag_list.h): Index sets them in the same pass, an insert walks
/// the new leaf's skeleton parents for an ancestor with its tag, and an
/// erase never narrows them. The keys live in memory only; nothing on disk
/// or on the wire carries them.
///
/// Everything per-node is copy-on-write (util/cow_vector.h,
/// query/tag_list.h): `Fork()` — the unit the concurrent engine publishes
/// as a read snapshot, once per group commit — shares every chunk and run
/// with the original, and a subsequent mutation path-copies only what it
/// touches. Publishing is therefore O(touched), not O(N)
/// (docs/CONCURRENCY.md).

namespace cdbs::query {

using labeling::NodeId;

/// One document labeled by one scheme, with its tag index.
class LabeledDocument {
 public:
  /// Labels `doc` with `scheme` and builds the tag index.
  LabeledDocument(const xml::Document& doc,
                  const labeling::LabelingScheme& scheme);

  /// Labels `skeleton` (ids in document order) with `scheme` and indexes
  /// `tags`, each node's tag interned in `pool` (0 for text nodes).
  LabeledDocument(labeling::TreeSkeleton skeleton, util::CowVector<TagId> tags,
                  std::shared_ptr<const TagPool> pool,
                  const labeling::LabelingScheme& scheme);

  /// Logically independent copy — the snapshot the concurrent engine
  /// publishes. The fork can be read from any thread while the original
  /// keeps mutating. Cost: O(chunks shared), not O(nodes): the labeling is
  /// forked via `Labeling::ForkShared()` (COW for every scheme) and the tag
  /// index shares all runs/chunks copy-on-write.
  std::unique_ptr<LabeledDocument> Fork() const;

  const labeling::Labeling& labeling() const { return *labeling_; }

  /// Ids of elements with tag `name`, in document order; empty list for
  /// unknown tags. Pass "*" for all elements. Allocation-free: the returned
  /// list is read in place over its (possibly shared) runs.
  const TagList& WithTag(const std::string& name) const;

  /// All element ids in document order.
  const TagList& all_elements() const { return all_elements_; }

  /// The root element's id.
  NodeId root() const { return 0; }

  /// Tag of a node (empty for text nodes). The reference lives as long as
  /// this document's tag pool (shared with every fork).
  const std::string& tag(NodeId n) const { return pool_->name(tags_[n]); }

  /// Interned tag id of a node (0 for text nodes).
  TagId tag_id(NodeId n) const { return tags_[n]; }

  /// The interning pool behind `tag_id` (shared with every fork). Ids are
  /// dense: names 0..size()-1 are valid, id 0 is the empty tag. The engine
  /// mirrors this table into the label store's header so on-disk records
  /// can carry a TagId instead of the tag string (docs/ENCODING.md).
  const std::shared_ptr<const TagPool>& tag_pool() const { return pool_; }

  /// Inserts a new element tagged `tag` as the sibling just before
  /// `target` (after it when `before` is false) and returns the labeling's
  /// result. Records the tag and splices the id, with its keys, into the
  /// document-ordered tag lists (position found by label-order binary
  /// search; one run per list is copied), widening their level bounds to its level and marking its tag's list nested when an
  /// ancestor carries the same tag. When the insert moved other labels (a
  /// V-Binary shift, an overflow re-encode), every start and end key is
  /// recomputed, and only the runs whose keys changed are copied.
  labeling::InsertResult InsertSibling(NodeId target, bool before,
                                       const std::string& tag);

  /// Deletes the subtree rooted at `target` (not the root) from the
  /// labeling and the tag lists, ids and keys together; its ids become
  /// invalid. The lists are updated first, while the subtree's labels
  /// still compare: positions are found by label-order binary search and
  /// batch-erased, O(k log N + touched runs) for a k-node delete.
  labeling::DeleteResult DeleteSubtree(NodeId target);

 private:
  LabeledDocument() = default;  // for Fork

  // Labels `skeleton` and builds the tag lists, with their keys, from
  // tags_ in one pass.
  void Index(labeling::TreeSkeleton skeleton,
             const labeling::LabelingScheme& scheme);

  // Index's pass: appends every element to its lists with the keys `lab`
  // (the labeling, as its final type where it is a containment one) gives
  // it, notes levels and nesting, then seals the lists.
  template <typename Lab>
  void Fill(const Lab& lab);

  // Debug builds: after a write, checks that `list`'s spine and summaries
  // agree with its runs and that the keys of the runs holding [from, to)
  // are the labeling's OrderKey of their ids, and the end keys its
  // EndKey.
  void CheckKeys(const TagList& list, size_t from, size_t to) const;

  std::unique_ptr<labeling::Labeling> labeling_;
  std::shared_ptr<const TagPool> pool_;
  util::CowVector<TagId> tags_;
  TagList all_elements_;
  std::unordered_map<TagId, TagList> by_tag_;
};

}  // namespace cdbs::query

#endif  // CDBS_QUERY_TAG_INDEX_H_
