#include "query/tag_index.h"

#include <algorithm>

namespace cdbs::query {

namespace {

const TagList& EmptyTagList() {
  static const TagList* const kEmpty = new TagList();
  return *kEmpty;
}

}  // namespace

LabeledDocument::LabeledDocument(const xml::Document& doc,
                                 const labeling::LabelingScheme& scheme) {
  labeling_ = scheme.Label(doc);
  pool_ = TagPool::Empty();
  // The labeling assigned ids in document order; recover the same order to
  // attach tags. Ids ascend in document order here, so the tag lists are
  // built by pure appends (runs sealed at kRunTarget).
  const std::vector<xml::Node*> nodes = doc.NodesInDocumentOrder();
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const xml::Node* node = nodes[id];
    if (!node->is_element()) {
      tags_.PushBack(TagId{0});
      continue;
    }
    const TagId tag = TagPool::Intern(&pool_, node->name());
    tags_.PushBack(tag);
    all_elements_.Append(id);
    by_tag_[tag].Append(id);
  }
}

std::unique_ptr<LabeledDocument> LabeledDocument::Fork() const {
  std::unique_ptr<LabeledDocument> copy(new LabeledDocument());
  copy->labeling_ = labeling_->ForkShared();
  copy->pool_ = pool_;          // immutable, shared by pointer
  copy->tags_ = tags_;          // COW chunks
  copy->all_elements_ = all_elements_;  // COW runs
  copy->by_tag_ = by_tag_;      // map of COW runs: O(#tags + #runs) pointers
  return copy;
}

const TagList& LabeledDocument::WithTag(const std::string& name) const {
  if (name == "*") return all_elements_;
  const TagId tag = pool_->Find(name);
  if (tag == TagPool::kNoTag) return EmptyTagList();
  const auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? EmptyTagList() : it->second;
}

void LabeledDocument::NoteInsertedNode(NodeId id, const std::string& tag) {
  const TagId tag_id = TagPool::Intern(&pool_, tag);
  if (tags_.size() < static_cast<size_t>(id) + 1) {
    tags_.Resize(static_cast<size_t>(id) + 1);
  }
  tags_.Set(id, tag_id);
  const auto less = [this](NodeId a, NodeId b) {
    return labeling_->CompareOrder(a, b) < 0;
  };
  // Splice into the touched tag run only; all other runs stay shared with
  // any published snapshot. InsertSorted asserts (debug-only) that the
  // splice lands between its neighbors, pinning the invariant the COW runs
  // rely on — runs stay CompareOrder-sorted, no full-list re-sort ever
  // runs.
  all_elements_.InsertSorted(id, less);
  by_tag_[tag_id].InsertSorted(id, less);
}

labeling::DeleteResult LabeledDocument::DeleteSubtree(NodeId target) {
  // Leave the tag lists first, while every label still compares: once the
  // labeling drops the subtree, a scheme may free the state its labels were
  // read from (Prime shrinks its SC table).
  if (tags_[target] != TagId{0}) {
    const labeling::Labeling& lab = *labeling_;
    const auto less = [&lab](NodeId a, NodeId b) {
      return lab.CompareOrder(a, b) < 0;
    };
    // The subtree's elements are one block of the document-ordered list,
    // starting at `target`. Batch by tag so each touched list is rewritten
    // once.
    std::vector<NodeId> elements;
    std::unordered_map<TagId, std::vector<NodeId>> by_tag_ids;
    TagList::Iterator it =
        all_elements_.IteratorAt(all_elements_.UpperBound(target, less) - 1);
    for (; it != all_elements_.end(); ++it) {
      const NodeId id = *it;
      if (id != target && !lab.IsAncestor(target, id)) break;
      elements.push_back(id);
      by_tag_ids[tags_[id]].push_back(id);
    }
    all_elements_.EraseIds(elements, less);
    for (auto& [tag, tag_ids] : by_tag_ids) {
      by_tag_[tag].EraseIds(tag_ids, less);
    }
  }
  return labeling_->DeleteSubtree(target);
}

}  // namespace cdbs::query
