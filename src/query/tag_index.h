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
  /// Labels `doc` with `scheme` and builds the tag index. The document must
  /// outlive this object.
  LabeledDocument(const xml::Document& doc,
                  const labeling::LabelingScheme& scheme);

  /// Logically independent copy — the snapshot the concurrent engine
  /// publishes. The fork can be read from any thread while the original
  /// keeps mutating. Cost: O(chunks shared), not O(nodes): the labeling is
  /// forked via `Labeling::ForkShared()` (COW for the containment and
  /// Dewey families, deep `Clone()` fallback elsewhere) and the tag index
  /// shares all runs/chunks copy-on-write.
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

  /// Mutable access to the labeling (used by the update engine; queries use
  /// the const accessor).
  labeling::Labeling* labeling_mutable() { return labeling_.get(); }

  /// Registers a node freshly inserted through the labeling: records its
  /// tag and splices it into the document-ordered tag lists (position found
  /// by label-order binary search; exactly one run per list is copied).
  void NoteInsertedNode(NodeId id, const std::string& tag);

  /// Deletes the subtree rooted at `target` (not the root) from the
  /// labeling and the tag lists; its ids become invalid. The lists are
  /// updated first, while the subtree's labels still compare: positions are
  /// found by label-order binary search and batch-erased, O(k log N +
  /// touched runs) for a k-node delete.
  labeling::DeleteResult DeleteSubtree(NodeId target);

 private:
  LabeledDocument() = default;  // for Fork

  std::unique_ptr<labeling::Labeling> labeling_;
  std::shared_ptr<const TagPool> pool_;
  util::CowVector<TagId> tags_;
  TagList all_elements_;
  std::unordered_map<TagId, TagList> by_tag_;
};

}  // namespace cdbs::query

#endif  // CDBS_QUERY_TAG_INDEX_H_
