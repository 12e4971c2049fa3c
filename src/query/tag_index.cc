#include "query/tag_index.h"

#include <algorithm>
#include <utility>

#include "labeling/containment.h"
#include "util/check.h"

namespace cdbs::query {

namespace {

const TagList& EmptyTagList() {
  static const TagList* const kEmpty = new TagList();
  return *kEmpty;
}

}  // namespace

LabeledDocument::LabeledDocument(const xml::Document& doc,
                                 const labeling::LabelingScheme& scheme)
    : pool_(TagPool::Empty()) {
  std::vector<const xml::Node*> order;
  labeling::TreeSkeleton skeleton =
      labeling::TreeSkeleton::FromDocument(doc, &order);
  for (const xml::Node* node : order) {
    tags_.PushBack(node->is_element() ? TagPool::Intern(&pool_, node->name())
                                      : TagId{0});
  }
  Index(std::move(skeleton), scheme);
}

LabeledDocument::LabeledDocument(labeling::TreeSkeleton skeleton,
                                 util::CowVector<TagId> tags,
                                 std::shared_ptr<const TagPool> pool,
                                 const labeling::LabelingScheme& scheme)
    : pool_(std::move(pool)), tags_(std::move(tags)) {
  Index(std::move(skeleton), scheme);
}

void LabeledDocument::Index(labeling::TreeSkeleton skeleton,
                            const labeling::LabelingScheme& scheme) {
  CDBS_CHECK(skeleton.size() == tags_.size());
  labeling_ = scheme.Label(std::move(skeleton));
  // A containment labeling is read as its final type, so its keys come
  // straight from the label columns; any other through its virtual keys.
  const auto fill = [this](const auto& lab) { Fill(lab); };
  if (!labeling::WithContainment(*labeling_, fill)) fill(*labeling_);
}

template <typename Lab>
void LabeledDocument::Fill(const Lab& lab) {
  all_elements_ = TagList();
  // Ids ascend in document order, so the tag lists are built by pure
  // appends (runs sealed at kRunTarget), and the elements enclosing a node
  // are the last ones seen on each level above it: `open` holds their tags,
  // `open_count` how many of them carry each tag. Levels come from the
  // skeleton's column, and a containment labeling's keys from its label
  // columns, with no per-node virtual call.
  const labeling::TreeSkeleton& tree = labeling_->skeleton();
  std::vector<TagId> open;
  std::vector<uint32_t> open_count(pool_->size(), 0);
  for (NodeId id = 0; id < tags_.size(); ++id) {
    const TagId tag = tags_[id];
    if (tag == TagId{0}) continue;  // text node
    const int level = tree.level(id);
    while (open.size() >= static_cast<size_t>(level)) {
      --open_count[open.back()];
      open.pop_back();
    }
    TagList& list =
        by_tag_.try_emplace(tag, /*end_keys=*/true).first->second;
    if (!open.empty()) all_elements_.MarkNested();
    if (open_count[tag] > 0) list.MarkNested();
    open.push_back(tag);
    ++open_count[tag];
    const uint32_t key = lab.OrderKey(id);
    all_elements_.Append(id, key);
    list.Append(id, key, lab.EndKey(id));
    all_elements_.NoteLevel(level);
    list.NoteLevel(level);
  }
  all_elements_.Seal();
  for (auto& [tag, list] : by_tag_) list.Seal();
}

void LabeledDocument::CheckKeys(const TagList& list, size_t from,
                                size_t to) const {
#ifndef NDEBUG
  const labeling::Labeling& lab = *labeling_;
  CDBS_CHECK(list.has_end_keys() == (&list != &all_elements_));
  CDBS_CHECK(list.SpineConsistent());
  CDBS_CHECK(list.KeysMatch([&lab](NodeId n) { return lab.OrderKey(n); },
                            [&lab](NodeId n) { return lab.EndKey(n); }, from,
                            to));
#else
  static_cast<void>(list);
  static_cast<void>(from);
  static_cast<void>(to);
#endif
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

labeling::InsertResult LabeledDocument::InsertSibling(
    NodeId target, bool before, const std::string& tag) {
  labeling::Labeling& lab = *labeling_;
  const labeling::InsertResult result = before
                                            ? lab.InsertSiblingBefore(target)
                                            : lab.InsertSiblingAfter(target);
  const NodeId id = result.new_node;
  const TagId tag_id = TagPool::Intern(&pool_, tag);
  if (tags_.size() < static_cast<size_t>(id) + 1) {
    tags_.Resize(static_cast<size_t>(id) + 1);
  }
  tags_.Set(id, tag_id);
  const auto less = [&lab](NodeId a, NodeId b) {
    return lab.CompareOrder(a, b) < 0;
  };
  // Splice into the touched tag run only; all other runs stay shared with
  // any published snapshot. InsertSorted asserts (debug-only) that the
  // splice lands between its neighbors, pinning the invariant the COW runs
  // rely on — runs stay CompareOrder-sorted, no full-list re-sort ever
  // runs.
  const uint32_t key = lab.OrderKey(id);
  const int level = lab.Level(id);
  const size_t all_at = all_elements_.InsertSorted(id, less, key);
  all_elements_.NoteLevel(level);
  all_elements_.MarkNested();  // below its parent, an element
  TagList& list = by_tag_.try_emplace(tag_id, /*end_keys=*/true).first->second;
  const size_t at = list.InsertSorted(id, less, key, lab.EndKey(id));
  list.NoteLevel(level);
  // The new node is a leaf, so it nests in its list iff an ancestor
  // carries its tag. Index maintenance, not a relationship predicate.
  const labeling::TreeSkeleton& tree = lab.skeleton();
  for (NodeId p = tree.parent(id); p != labeling::kNoNode && !list.nested();
       p = tree.parent(p)) {
    if (tags_[p] == tag_id) list.MarkNested();
  }
  if (result.relabeled > 0 || result.overflow) {
    // The insert moved other labels: a V-Binary shift, a re-encode, a
    // DeweyID renumbering. Only the containment keys abbreviate label
    // values, so only they can move; the other schemes key every label 0
    // (label.h), and a scan of their lists would find nothing to change.
    labeling::WithContainment(lab, [this](const auto& containment) {
      const auto key_of = [&](NodeId n) { return containment.OrderKey(n); };
      const auto end_of = [&](NodeId n) { return containment.EndKey(n); };
      all_elements_.Rekey(key_of, end_of);
      for (auto& [other_tag, other] : by_tag_) other.Rekey(key_of, end_of);
    });
    CheckKeys(all_elements_, 0, all_elements_.size());
    for (const auto& [other_tag, other] : by_tag_) {
      CheckKeys(other, 0, other.size());
    }
  } else {
    CheckKeys(all_elements_, all_at, all_at + 1);
    CheckKeys(list, at, at + 1);
  }
  return result;
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
    const size_t all_at = all_elements_.EraseIds(elements, less);
    CheckKeys(all_elements_, all_at, all_at + 1);
    for (auto& [tag, tag_ids] : by_tag_ids) {
      TagList& list = by_tag_.at(tag);
      const size_t at = list.EraseIds(tag_ids, less);
      CheckKeys(list, at, at + 1);
    }
  }
  return labeling_->DeleteSubtree(target);
}

}  // namespace cdbs::query
