#include "engine/xml_db.h"

#include <functional>
#include <unordered_map>
#include <utility>

#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/xpath.h"
#include "util/check.h"
#include "util/ordered_varint.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace cdbs::engine {

XmlDb::XmlDb(xml::Document doc,
             std::unique_ptr<labeling::LabelingScheme> scheme)
    : doc_(std::move(doc)), scheme_(std::move(scheme)) {
  labeled_ = std::make_unique<query::LabeledDocument>(doc_, *scheme_);
  node_of_id_ = doc_.NodesInDocumentOrder();
  original_count_ = node_of_id_.size();

  insertions_ = registry_.GetCounter("engine.inserts", "Element insertions");
  deletions_ = registry_.GetCounter("engine.deletes", "Nodes removed");
  relabeled_total_ = registry_.GetCounter(
      "engine.relabels", "Stored labels rewritten by updates");
  overflow_events_ = registry_.GetCounter(
      "engine.overflows", "Full re-encodes forced by overflow (Example 6.1)");
  insert_ns_ =
      registry_.GetHistogram("engine.insert.ns", "Wall time per insertion");
  delete_ns_ =
      registry_.GetHistogram("engine.delete.ns", "Wall time per deletion");
  query_ns_ = registry_.GetHistogram("engine.query.ns", "Wall time per query");
  obs::MetricRegistry& global = obs::MetricRegistry::Default();
  global_insertions_ =
      global.GetCounter("engine.inserts", "Element insertions, all databases");
  global_deletions_ =
      global.GetCounter("engine.deletes", "Nodes removed, all databases");
  global_relabeled_ = global.GetCounter(
      "engine.relabels", "Stored labels rewritten by updates, all databases");
  global_overflows_ = global.GetCounter(
      "engine.overflows", "Overflow re-encodes, all databases");

  // Seed the process-wide label-size distribution (the Figure 5 metric).
  obs::Histogram* label_bits = global.GetHistogram(
      "labeling.label_bits", "Stored label size in bits per node");
  const labeling::Labeling& lab = labeled_->labeling();
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    label_bits->Record(8 * lab.SerializeLabel(n).size());
  }
}

Result<std::unique_ptr<XmlDb>> XmlDb::Open(xml::Document doc,
                                           const XmlDbOptions& options) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root");
  }
  auto scheme = labeling::SchemeByName(options.scheme_name);
  std::unique_ptr<XmlDb> db(new XmlDb(std::move(doc), std::move(scheme)));
  CDBS_RETURN_NOT_OK(db->InitStore(options));
  return db;
}

Result<std::unique_ptr<XmlDb>> XmlDb::OpenFromXml(
    std::string_view xml, const XmlDbOptions& options) {
  Result<xml::Document> parsed = xml::ParseXml(xml);
  if (!parsed.ok()) return parsed.status();
  return Open(std::move(parsed).value(), options);
}

BootstrapSpec XmlDb::CaptureBootstrapSpec() const {
  BootstrapSpec spec;
  spec.xml = ToXml();
  spec.original_count = original_count_;
  spec.next_id = node_of_id_.size();
  std::unordered_map<const xml::Node*, NodeId> id_of;
  id_of.reserve(node_of_id_.size());
  for (size_t i = 0; i < node_of_id_.size(); ++i) {
    id_of.emplace(node_of_id_[i], static_cast<NodeId>(i));
  }
  const std::vector<xml::Node*> order = doc_.NodesInDocumentOrder();
  spec.ids.reserve(order.size());
  for (const xml::Node* node : order) spec.ids.push_back(id_of.at(node));
  return spec;
}

Result<std::unique_ptr<XmlDb>> XmlDb::OpenFromBootstrap(
    const BootstrapSpec& spec, const XmlDbOptions& options) {
  Result<xml::Document> parsed = xml::ParseXml(spec.xml);
  if (!parsed.ok()) return parsed.status();
  const std::vector<xml::Node*> order = parsed->NodesInDocumentOrder();
  const size_t n = order.size();
  if (n == 0 || spec.ids.size() != n) {
    return Status::Corruption("bootstrap spec: id list does not match tree");
  }
  // Fast path: the source never saw an update, so document order IS id
  // order and a plain open mints the identical id space.
  bool identity = spec.next_id == n;
  for (size_t i = 0; identity && i < n; ++i) identity = spec.ids[i] == i;
  if (identity) return Open(std::move(parsed).value(), options);

  const uint64_t n0 = spec.original_count;
  const uint64_t next_id = spec.next_id;
  if (n0 == 0 || n0 > next_id) {
    return Status::Corruption("bootstrap spec: bad original_count");
  }
  std::vector<xml::Node*> node_at(next_id, nullptr);  // id -> parsed node
  std::unordered_map<const xml::Node*, NodeId> id_at;  // parsed node -> id
  id_at.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = spec.ids[i];
    if (id >= next_id || node_at[id] != nullptr) {
      return Status::Corruption("bootstrap spec: id duplicated or out of range");
    }
    node_at[id] = order[i];
    id_at.emplace(order[i], id);
    // Post-open mutations are sibling element inserts and subtree deletes
    // only, so every node inserted after open is a leaf element forever;
    // interior and text nodes must be originals.
    if (id >= n0 &&
        (!order[i]->is_element() || !order[i]->children().empty())) {
      return Status::Corruption("bootstrap spec: inserted node is interior");
    }
  }
  if (id_at.at(order[0]) != 0) {
    return Status::Corruption("bootstrap spec: root id is not 0");
  }
  // Surviving originals in document order. Sibling inserts never reorder
  // originals and deletes only remove, so their ids must still be strictly
  // increasing — each survivor's id is its pre-order rank at open time.
  std::vector<xml::Node*> survivors;
  for (xml::Node* node : order) {
    if (id_at.at(node) < n0) survivors.push_back(node);
  }
  for (size_t i = 1; i < survivors.size(); ++i) {
    if (id_at.at(survivors[i - 1]) >= id_at.at(survivors[i])) {
      return Status::Corruption("bootstrap spec: originals out of id order");
    }
  }

  // --- Stage 1: rebuild the open-time document shape. ---
  // Labels assign ids by pre-order rank at open, so the base document must
  // put every surviving original at exactly its original rank. It contains
  // the survivors (their hierarchy is intact: an original's parent is
  // always an original) plus disposable gap dummies standing in for the
  // deleted originals' ranks.
  xml::Document base;
  std::unordered_map<const xml::Node*, xml::Node*> base_of;  // parsed -> base
  base_of.reserve(survivors.size());
  std::function<void(xml::Node*, xml::Node*)> clone_originals =
      [&](xml::Node* src, xml::Node* parent) {
        xml::Node* fresh;
        if (parent == nullptr) {
          fresh = base.CreateRoot(src->name());
        } else if (src->is_text()) {
          fresh = base.CreateText(src->text());
          base.AppendChild(parent, fresh);
        } else {
          fresh = base.CreateElement(src->name());
          base.AppendChild(parent, fresh);
        }
        for (const auto& attr : src->attributes()) {
          fresh->SetAttribute(attr.first, attr.second);
        }
        base_of.emplace(src, fresh);
        for (xml::Node* child : src->children()) {
          if (id_at.at(child) < n0) clone_originals(child, fresh);
        }
      };
  clone_originals(order[0], nullptr);

  constexpr const char* kGapTag = "cdbs-bootstrap-gap";
  std::vector<xml::Node*> gap_nodes;  // base dummies, deleted in stage 3
  // Replay can only insert siblings, so a parent whose original children
  // were all deleted could never receive its first (inserted) child back.
  // Such a parent is guaranteed a gap at rank id+1 — its deleted original
  // first child — and that one dummy is seeded as the parent's first
  // child. Every other dummy in a gap goes immediately before the next
  // surviving original (or, past the last survivor, at the end of the
  // root), where leaves occupy exactly the consecutive pre-order ranks.
  std::unordered_map<const xml::Node*, xml::Node*> seed_of;  // parsed parent
  auto fill_gap = [&](xml::Node* after, xml::Node* before) -> Status {
    const uint64_t lo = id_at.at(after);
    const uint64_t hi = before != nullptr ? id_at.at(before) : n0;
    uint64_t need = hi - lo - 1;
    if (need == 0) return Status::OK();
    bool seed = !after->children().empty();
    for (xml::Node* child : after->children()) {
      if (seed && id_at.at(child) < n0) seed = false;
    }
    if (seed) {
      xml::Node* dummy = base.CreateElement(kGapTag);
      base.InsertChildAt(base_of.at(after), 0, dummy);
      gap_nodes.push_back(dummy);
      seed_of.emplace(after, dummy);
      --need;
    }
    if (before != nullptr) {
      xml::Node* anchor = base_of.at(before);
      xml::Node* parent = anchor->parent();
      if (parent == nullptr) {
        return Status::Corruption("bootstrap spec: survivor lost its parent");
      }
      const size_t index = parent->IndexOfChild(anchor);
      for (uint64_t j = 0; j < need; ++j) {
        xml::Node* dummy = base.CreateElement(kGapTag);
        base.InsertChildAt(parent, index + j, dummy);
        gap_nodes.push_back(dummy);
      }
    } else {
      for (uint64_t j = 0; j < need; ++j) {
        xml::Node* dummy = base.CreateElement(kGapTag);
        base.AppendChild(base.root(), dummy);
        gap_nodes.push_back(dummy);
      }
    }
    return Status::OK();
  };
  for (size_t i = 0; i + 1 < survivors.size(); ++i) {
    CDBS_RETURN_NOT_OK(fill_gap(survivors[i], survivors[i + 1]));
  }
  CDBS_RETURN_NOT_OK(fill_gap(survivors.back(), nullptr));

  Result<std::unique_ptr<XmlDb>> built = Open(std::move(base), options);
  if (!built.ok()) return built.status();
  std::unique_ptr<XmlDb> db = std::move(built).value();
  if (db->node_of_id_.size() != n0) {
    return Status::Corruption("bootstrap reconstruction: base rank count");
  }
  std::unordered_map<const xml::Node*, NodeId> base_id;  // base node -> id
  base_id.reserve(n0);
  for (size_t i = 0; i < db->node_of_id_.size(); ++i) {
    base_id.emplace(db->node_of_id_[i], static_cast<NodeId>(i));
  }
  for (xml::Node* survivor : survivors) {
    if (base_id.at(base_of.at(survivor)) != id_at.at(survivor)) {
      return Status::Corruption("bootstrap reconstruction: rank drifted");
    }
  }

  // --- Stage 2: replay the insertion history in id order. ---
  // Each surviving inserted leaf is placed adjacent to a sibling that is
  // already present (an original, an earlier-replayed insert — both carry
  // their final id already — or the seeded gap dummy). Ids attached
  // nowhere are burnt with an insert+delete pair, just as a delete or
  // rollback burnt them on the source. Either way one id per step.
  for (uint64_t i = n0; i < next_id; ++i) {
    xml::Node* node = node_at[i];
    if (node == nullptr) {
      // Rank 1 always exists here: a burnt id implies an insert happened,
      // and the first-ever insert needed a non-root original target.
      if (db->node_of_id_.size() < 2) {
        return Status::Corruption("bootstrap spec: burnt id in a root-only tree");
      }
      Result<NodeId> burnt = db->InsertElementAfter(1, kGapTag);
      if (!burnt.ok()) return burnt.status();
      if (*burnt != i) {
        return Status::Corruption("bootstrap reconstruction: burnt id drifted");
      }
      Result<uint64_t> removed = db->DeleteElement(*burnt);
      if (!removed.ok()) return removed.status();
      continue;
    }
    xml::Node* parent = node->parent();
    if (parent == nullptr) {
      return Status::Corruption("bootstrap spec: inserted node has no parent");
    }
    const std::vector<xml::Node*>& siblings = parent->children();
    const size_t index = parent->IndexOfChild(node);
    xml::Node* next_present = nullptr;
    for (size_t j = index + 1; j < siblings.size() && next_present == nullptr;
         ++j) {
      if (id_at.at(siblings[j]) < i) next_present = siblings[j];
    }
    xml::Node* prev_present = nullptr;
    for (size_t j = index; j > 0 && prev_present == nullptr; --j) {
      if (id_at.at(siblings[j - 1]) < i) prev_present = siblings[j - 1];
    }
    Result<NodeId> got = [&]() -> Result<NodeId> {
      if (next_present != nullptr) {
        return db->InsertElementBefore(id_at.at(next_present), node->name());
      }
      if (prev_present != nullptr) {
        return db->InsertElementAfter(id_at.at(prev_present), node->name());
      }
      const auto seed = seed_of.find(parent);
      if (seed == seed_of.end()) {
        return Status::Corruption("bootstrap reconstruction: no anchor");
      }
      return db->InsertElementAfter(base_id.at(seed->second), node->name());
    }();
    if (!got.ok()) return got.status();
    if (*got != i) {
      return Status::Corruption("bootstrap reconstruction: inserted id drifted");
    }
  }

  // --- Stage 3: drop the dummies and verify the whole reconstruction. ---
  for (xml::Node* dummy : gap_nodes) {
    Result<uint64_t> removed = db->DeleteElement(base_id.at(dummy));
    if (!removed.ok()) return removed.status();
    if (*removed != 1) {
      return Status::Corruption("bootstrap reconstruction: dummy grew a subtree");
    }
  }
  if (db->node_of_id_.size() != next_id) {
    return Status::Corruption("bootstrap reconstruction: id counter drifted");
  }
  if (db->ToXml() != xml::WriteXml(*parsed)) {
    return Status::Corruption("bootstrap reconstruction: tree mismatch");
  }
  const std::vector<xml::Node*> rebuilt = db->doc_.NodesInDocumentOrder();
  if (rebuilt.size() != n) {
    return Status::Corruption("bootstrap reconstruction: node count mismatch");
  }
  std::unordered_map<const xml::Node*, NodeId> rebuilt_id;
  rebuilt_id.reserve(db->node_of_id_.size());
  for (size_t i = 0; i < db->node_of_id_.size(); ++i) {
    rebuilt_id.emplace(db->node_of_id_[i], static_cast<NodeId>(i));
  }
  for (size_t i = 0; i < n; ++i) {
    if (rebuilt_id.at(rebuilt[i]) != spec.ids[i]) {
      return Status::Corruption("bootstrap reconstruction: id space mismatch");
    }
  }
  return db;
}

std::string XmlDb::SerializeRecord(NodeId n) const {
  std::string rec;
  if (store_tags_enabled_) {
    (void)util::EncodeOrderedVarint(labeled_->tag_id(n), &rec);
  }
  rec += labeled_->labeling().SerializeLabel(n);
  return rec;
}

void XmlDb::SyncTagTable(storage::LabelStore* store) {
  const std::shared_ptr<const query::TagPool>& pool = labeled_->tag_pool();
  if (store_tags_enabled_ && pool->size() == pushed_tags_) return;
  std::vector<std::string> names;
  names.reserve(pool->size());
  for (size_t id = 0; id < pool->size(); ++id) {
    names.push_back(pool->name(static_cast<query::TagId>(id)));
  }
  const bool was_enabled = store_tags_enabled_;
  store_tags_enabled_ = store->SetTagTable(names).ok();
  pushed_tags_ = store_tags_enabled_ ? names.size() : 0;
  if (was_enabled && !store_tags_enabled_) {
    // Records with tag prefixes are on disk but the header can no longer
    // describe them; the next persist rebuilds everything bare-label.
    store_needs_reload_ = true;
  }
}

Status XmlDb::InitStore(const XmlDbOptions& options) {
  if (options.storage_path.empty()) return Status::OK();
  storage_path_ = options.storage_path;
  store_headroom_ = options.store_headroom;
  failpoint_scope_ = options.failpoint_scope;
  store_ = std::make_unique<storage::LabelStore>();
  store_->set_failpoint_scope(failpoint_scope_);
  CDBS_RETURN_NOT_OK(store_->Open(options.storage_path));
  SyncTagTable(store_.get());
  const labeling::Labeling& lab = labeled_->labeling();
  std::vector<std::string> records;
  records.reserve(lab.num_nodes());
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    records.push_back(SerializeRecord(n));
  }
  return store_->BulkLoad(records, options.store_headroom);
}

Status XmlDb::ReopenStore() {
  if (store_ == nullptr) return Status::OK();
  // A fresh LabelStore instance: an injected-crash poison flag on the old
  // one does not carry over, exactly like a process restart.
  auto fresh = std::make_unique<storage::LabelStore>();
  fresh->set_failpoint_scope(failpoint_scope_);
  Status recovered = fresh->OpenExisting(storage_path_);
  if (recovered.ok()) recovered = fresh->VerifyChecksums();
  if (!recovered.ok()) {
    // Corrupt beyond WAL repair: rebuild the file outright. The in-memory
    // labels are exactly the acked state, so nothing durable is lost.
    fresh = std::make_unique<storage::LabelStore>();
    fresh->set_failpoint_scope(failpoint_scope_);
    CDBS_RETURN_NOT_OK(fresh->Open(storage_path_));
  }
  // Re-sync the store content with the acked in-memory labels. WAL redo can
  // leave the recovered store a step AHEAD of memory: a group whose WAL
  // append was fsynced but whose page writes failed was rolled back in
  // memory, yet OpenExisting just replayed it. Memory is authoritative —
  // it holds precisely the acknowledged writes.
  store_tags_enabled_ = false;  // re-negotiate against the fresh handle
  pushed_tags_ = 0;
  SyncTagTable(fresh.get());
  const labeling::Labeling& lab = labeled_->labeling();
  std::vector<std::string> records;
  records.reserve(lab.num_nodes());
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    records.push_back(SerializeRecord(n));
  }
  storage::StoreBatch reload;
  reload.Reload(std::move(records), store_headroom_);
  CDBS_RETURN_NOT_OK(fresh->ApplyBatch(reload));
  CDBS_RETURN_NOT_OK(fresh->VerifyChecksums());
  store_ = std::move(fresh);
  store_needs_reload_ = false;
  return Status::OK();
}

Result<std::vector<NodeId>> XmlDb::Query(const std::string& xpath) const {
  obs::ScopedTimer timer(query_ns_);
  Result<query::Query> parsed = query::ParseQuery(xpath);
  if (!parsed.ok()) return parsed.status();
  return query::EvaluateQuery(*parsed, *labeled_);
}

Result<uint64_t> XmlDb::Count(const std::string& xpath) const {
  obs::ScopedTimer timer(query_ns_);
  Result<query::Query> parsed = query::ParseQuery(xpath);
  if (!parsed.ok()) return parsed.status();
  return query::CountQuery(*parsed, *labeled_, labeled_->root());
}

Result<NodeId> XmlDb::QueryOne(const std::string& xpath) const {
  Result<std::vector<NodeId>> matches = Query(xpath);
  if (!matches.ok()) return matches.status();
  if (matches->empty()) return Status::NotFound("no match for " + xpath);
  if (matches->size() > 1) {
    return Status::InvalidArgument("query is not unique: " + xpath);
  }
  return (*matches)[0];
}

Result<NodeId> XmlDb::Insert(NodeId target, const std::string& tag,
                             bool before) {
  obs::ScopedTimer timer(insert_ns_);
  AppliedInsert applied;
  const Result<NodeId> id = ApplyInsertInMemory(target, tag, before, &applied);
  if (!id.ok()) return id;
  std::vector<storage::StoreBatch> batches;
  if (store_ != nullptr) {
    batches.emplace_back();
    BuildPersistOps(applied.result, &batches.back());
  }
  const Status persisted = PersistBatches(batches);
  if (!persisted.ok()) {
    RollbackInsert(applied);
    return persisted;
  }
  NoteInsertCommitted(applied.result);
  return id;
}

Result<NodeId> XmlDb::ApplyInsertInMemory(NodeId target, const std::string& tag,
                                          bool before,
                                          AppliedInsert* applied) {
  if (target >= node_of_id_.size()) {
    return Status::OutOfRange("no such node");
  }
  if (target == 0) {
    return Status::InvalidArgument("cannot insert a sibling of the root");
  }
  xml::Node* target_node = node_of_id_[target];
  xml::Node* parent = target_node->parent();
  if (parent == nullptr) {
    // Deleted targets are detached from the tree (only the root has no
    // parent otherwise, and target != 0 here).
    return Status::NotFound("target node was deleted");
  }
  labeling::Labeling* lab = labeled_->labeling_mutable();
  const labeling::InsertResult result = before
                                            ? lab->InsertSiblingBefore(target)
                                            : lab->InsertSiblingAfter(target);
  // Mirror the insertion into the tree.
  xml::Node* fresh = doc_.CreateElement(tag);
  const size_t index =
      parent->IndexOfChild(target_node) + (before ? 0 : 1);
  doc_.InsertChildAt(parent, index, fresh);
  CDBS_CHECK(result.new_node == node_of_id_.size());
  node_of_id_.push_back(fresh);
  labeled_->NoteInsertedNode(result.new_node, tag);
  applied->result = result;
  applied->parent = parent;
  applied->fresh = fresh;
  return result.new_node;
}

void XmlDb::BuildPersistOps(const labeling::InsertResult& result,
                            storage::StoreBatch* out) const {
  for (const NodeId n : result.relabeled_nodes) {
    out->Rewrite(n, SerializeRecord(n));
  }
  out->Append(SerializeRecord(result.new_node));
}

Status XmlDb::PersistBatches(const std::vector<storage::StoreBatch>& batches) {
  if (store_ == nullptr) return Status::OK();
  // A brand-new tag name interned by this group must reach the header's
  // tag table in the same commit as the records referencing its id. If the
  // grown table no longer fits, SyncTagTable flips to bare-label records
  // and forces the reload below, which subsumes the prefixed batches.
  SyncTagTable(store_.get());
  if (!store_needs_reload_) {
    std::vector<const storage::StoreBatch*> group;
    group.reserve(batches.size());
    for (const storage::StoreBatch& batch : batches) group.push_back(&batch);
    const Status status = store_->ApplyBatchGroup(group);
    if (status.code() != StatusCode::kOutOfRange) return status;
    // Some label outgrew its slot — fall through to a full reload with
    // fresh slot sizing, a storage-level re-labeling. The reload serializes
    // the labels as they stand *after* every insertion in the group, so it
    // subsumes all of the incremental batches.
  }
  const labeling::Labeling& lab = labeled_->labeling();
  std::vector<std::string> records;
  records.reserve(lab.num_nodes());
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    records.push_back(SerializeRecord(n));
  }
  storage::StoreBatch reload;
  reload.Reload(std::move(records), 16);
  CDBS_RETURN_NOT_OK(store_->ApplyBatch(reload));
  store_needs_reload_ = false;
  return Status::OK();
}

void XmlDb::RollbackInsert(const AppliedInsert& applied) {
  // The store did not take the update (atomically: on disk it is all-or-
  // nothing, see LabelStore::ApplyBatch) — roll the in-memory mutation
  // back by deleting the fresh node again, exactly like DeleteElement
  // does. Node ids are never reused, so the id stays burnt and the
  // node_of_id_ entry stays (detached, like any deleted node). Existing
  // labels the insert rewrote in memory stay rewritten — they remain a
  // valid labeling without the new node — so the whole store is re-synced
  // on the next successful persist.
  labeled_->DeleteSubtree(applied.result.new_node);
  doc_.RemoveChild(applied.parent, applied.fresh);
  store_needs_reload_ = true;
}

void XmlDb::NoteInsertCommitted(const labeling::InsertResult& result) {
  insertions_->Increment();
  global_insertions_->Increment();
  relabeled_total_->Increment(result.relabeled);
  global_relabeled_->Increment(result.relabeled);
  if (result.overflow) {
    overflow_events_->Increment();
    global_overflows_->Increment();
  }
}

Result<uint64_t> XmlDb::DeleteElement(NodeId target) {
  obs::ScopedTimer timer(delete_ns_);
  if (target >= node_of_id_.size()) {
    return Status::OutOfRange("no such node");
  }
  if (target == 0) {
    return Status::InvalidArgument("cannot delete the root");
  }
  xml::Node* node = node_of_id_[target];
  if (node->parent() == nullptr) {
    return Status::NotFound("node already deleted");
  }
  const labeling::DeleteResult result = labeled_->DeleteSubtree(target);
  doc_.RemoveChild(node->parent(), node);
  deletions_->Increment(result.removed.size());
  global_deletions_->Increment(result.removed.size());
  relabeled_total_->Increment(result.relabeled);
  global_relabeled_->Increment(result.relabeled);
  // Orphaned store records are simply left behind; a compaction pass would
  // reclaim them in a production system.
  return static_cast<uint64_t>(result.removed.size());
}

Result<NodeId> XmlDb::InsertElementBefore(NodeId target,
                                          const std::string& tag) {
  return Insert(target, tag, /*before=*/true);
}

Result<NodeId> XmlDb::InsertElementAfter(NodeId target,
                                         const std::string& tag) {
  return Insert(target, tag, /*before=*/false);
}

const std::string& XmlDb::TagOf(NodeId node) const {
  return labeled_->tag(node);
}

bool XmlDb::IsAncestor(NodeId a, NodeId d) const {
  return labeled_->labeling().IsAncestor(a, d);
}

bool XmlDb::IsParent(NodeId p, NodeId c) const {
  return labeled_->labeling().IsParent(p, c);
}

int XmlDb::CompareOrder(NodeId a, NodeId b) const {
  return labeled_->labeling().CompareOrder(a, b);
}

std::string XmlDb::ToXml() const { return xml::WriteXml(doc_); }

XmlDbStats XmlDb::Stats() const {
  XmlDbStats stats;
  const labeling::Labeling& lab = labeled_->labeling();
  stats.node_count = lab.num_nodes();
  stats.label_bits = lab.TotalLabelBits();
  stats.avg_label_bits = lab.AvgLabelBits();
  stats.insertions = insertions_->value();
  stats.deletions = deletions_->value();
  stats.relabeled_total = relabeled_total_->value();
  stats.overflow_events = overflow_events_->value();
  if (store_ != nullptr) {
    stats.store_page_writes = store_->io_stats().page_writes;
  }
  return stats;
}

}  // namespace cdbs::engine
