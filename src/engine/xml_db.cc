#include "engine/xml_db.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/xpath.h"
#include "util/check.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace cdbs::engine {

std::string_view NodePayloads::Of(NodeId n) const {
  const auto it = std::lower_bound(ids.begin(), ids.end(), n);
  if (it == ids.end() || *it != n) return {};
  const size_t i = static_cast<size_t>(it - ids.begin());
  const uint64_t begin = i == 0 ? 0 : ends[i - 1];
  return std::string_view(bytes).substr(begin, ends[i] - begin);
}

NodeId XmlTree::AddElement(const std::string& tag, NodeId parent) {
  const NodeId id = skeleton_.AddNode(parent);
  tags_.PushBack(query::TagPool::Intern(&pool_, tag));
  return id;
}

NodeId XmlTree::AddNode(const xml::Node& node, NodeId parent) {
  const NodeId id = skeleton_.AddNode(parent);
  std::string& bytes = payloads_.bytes;
  const size_t start = bytes.size();
  if (node.is_text()) {
    tags_.PushBack(query::TagId{0});
    bytes += xml::EscapeText(node.text());
  } else {
    tags_.PushBack(query::TagPool::Intern(&pool_, node.name()));
    for (const auto& [name, value] : node.attributes()) {
      bytes += ' ';
      bytes += name;
      bytes += "=\"";
      bytes += xml::EscapeText(value);
      bytes += '"';
    }
  }
  if (bytes.size() > start) {
    payloads_.ids.push_back(id);
    payloads_.ends.push_back(bytes.size());
  }
  return id;
}

NodeId XmlTree::Ingest(xml::Document doc, NodeId parent) {
  CDBS_CHECK(doc.root() != nullptr);
  const NodeId root = static_cast<NodeId>(size());
  // Pre-order with an explicit stack, so ids are document-order ranks.
  std::vector<std::pair<const xml::Node*, NodeId>> stack = {
      {doc.root(), parent}};
  while (!stack.empty()) {
    const auto [node, node_parent] = stack.back();
    stack.pop_back();
    const NodeId id = AddNode(*node, node_parent);
    const auto& kids = node->children();
    for (size_t i = kids.size(); i-- > 0;) stack.push_back({kids[i], id});
  }
  return root;
}

XmlDb::XmlDb(XmlTree tree, std::unique_ptr<labeling::LabelingScheme> scheme)
    : scheme_(std::move(scheme)), payloads_(std::move(tree.payloads_)) {
  payloads_.ids.shrink_to_fit();
  payloads_.ends.shrink_to_fit();
  payloads_.bytes.shrink_to_fit();
  labeled_ = std::make_unique<query::LabeledDocument>(
      std::move(tree.skeleton_), std::move(tree.tags_), std::move(tree.pool_),
      *scheme_);
  original_count_ = labeled_->labeling().num_nodes();

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
  // Seed the process-wide label-size distribution (the Figure 5 metric).
  obs::Histogram* label_bits = obs::MetricRegistry::Default().GetHistogram(
      "labeling.label_bits", "Stored label size in bits per node");
  const labeling::Labeling& lab = labeled_->labeling();
  obs::Histogram::Batch sizes;
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    sizes.Record(8 * lab.SerializedLabelSize(n));
  }
  label_bits->Merge(sizes);
}

Result<std::unique_ptr<XmlDb>> XmlDb::Open(XmlTree tree,
                                           const XmlDbOptions& options) {
  if (tree.size() == 0) {
    return Status::InvalidArgument("document has no root");
  }
  auto scheme = labeling::SchemeByName(options.scheme_name);
  if (scheme == nullptr) {
    return Status::InvalidArgument("unknown labeling scheme '" +
                                   options.scheme_name + "'");
  }
  std::unique_ptr<XmlDb> db(new XmlDb(std::move(tree), std::move(scheme)));
  if (!options.storage_path.empty()) {
    CDBS_RETURN_NOT_OK(db->CreateLog(options, db->CaptureBootstrapSpec()));
  }
  return db;
}

Result<std::unique_ptr<XmlDb>> XmlDb::Open(xml::Document doc,
                                           const XmlDbOptions& options) {
  XmlTree tree;
  if (doc.root() != nullptr) tree.Ingest(std::move(doc), labeling::kNoNode);
  return Open(std::move(tree), options);
}

Result<std::unique_ptr<XmlDb>> XmlDb::OpenFromXml(
    std::string_view xml, const XmlDbOptions& options) {
  Result<xml::Document> parsed = xml::ParseXml(xml);
  if (!parsed.ok()) return parsed.status();
  return Open(std::move(parsed).value(), options);
}

BootstrapSpec XmlDb::CaptureBootstrapSpec() const {
  BootstrapSpec spec;
  spec.xml = Serialize(&spec.ids);
  spec.original_count = original_count_;
  spec.next_id = labeled_->labeling().num_nodes();
  return spec;
}

Result<std::unique_ptr<XmlDb>> XmlDb::OpenFromBootstrap(
    const BootstrapSpec& spec, const XmlDbOptions& options) {
  if (!options.storage_path.empty()) {
    // Rebuild in memory (the rebuild's own updates are not history), then
    // start the log from `spec` itself.
    XmlDbOptions memory = options;
    memory.storage_path.clear();
    Result<std::unique_ptr<XmlDb>> db = OpenFromBootstrap(spec, memory);
    if (db.ok()) CDBS_RETURN_NOT_OK((*db)->CreateLog(options, spec));
    return db;
  }
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

  // --- Stage 1: rebuild the open-time tree. ---
  // Open assigns ids by pre-order rank, and a tree appended in pre-order
  // takes its ids in append order. The base appends every surviving
  // original at exactly its original rank (their hierarchy is intact: an
  // original's parent is always an original), with disposable gap dummies
  // standing in for the deleted originals' ranks. The dummies of a gap are
  // leaves appended to the next survivor's parent just before it (past
  // the last survivor, to the root), where they take exactly the missing
  // ranks. Replay can only insert siblings, so a parent whose original
  // children were all deleted could never receive its first (inserted)
  // child back. Such a parent is guaranteed a gap at rank id+1 — its
  // deleted original first child — and that one dummy is seeded as its
  // child.
  constexpr const char* kGapTag = "cdbs-bootstrap-gap";
  XmlTree base;
  std::vector<NodeId> gap_ids;  // dummies, deleted in stage 3
  std::unordered_map<const xml::Node*, NodeId> seed_of;  // parsed parent
  const xml::Node* after = nullptr;  // the survivor appended last
  for (size_t i = 0; i <= survivors.size(); ++i) {
    const xml::Node* node = i < survivors.size() ? survivors[i] : nullptr;
    uint64_t need = (node != nullptr ? id_at.at(node) : n0) - base.size();
    if (need > 0 && !after->children().empty() &&
        std::none_of(after->children().begin(), after->children().end(),
                     [&](const xml::Node* c) { return id_at.at(c) < n0; })) {
      gap_ids.push_back(base.AddElement(kGapTag, id_at.at(after)));
      seed_of.emplace(after, gap_ids.back());
      --need;
    }
    const xml::Node* parent = node != nullptr ? node->parent() : order[0];
    for (; need > 0; --need) {
      gap_ids.push_back(base.AddElement(kGapTag, id_at.at(parent)));
    }
    if (node == nullptr) break;
    base.AddNode(*node,
                 parent != nullptr ? id_at.at(parent) : labeling::kNoNode);
    after = node;
  }
  Result<std::unique_ptr<XmlDb>> built = Open(std::move(base), options);
  if (!built.ok()) return built.status();
  std::unique_ptr<XmlDb> db = std::move(built).value();
  const labeling::Labeling& lab = db->labeled_->labeling();

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
      if (lab.num_nodes() < 2) {
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
    const auto at = std::find(siblings.begin(), siblings.end(), node);
    const auto present = [&](const xml::Node* s) { return id_at.at(s) < i; };
    const auto next = std::find_if(at + 1, siblings.end(), present);
    const auto prev = std::find_if(std::make_reverse_iterator(at),
                                   siblings.rend(), present);
    Result<NodeId> got = [&]() -> Result<NodeId> {
      if (next != siblings.end()) {
        return db->InsertElementBefore(id_at.at(*next), node->name());
      }
      if (prev != siblings.rend()) {
        return db->InsertElementAfter(id_at.at(*prev), node->name());
      }
      const auto seed = seed_of.find(parent);
      if (seed == seed_of.end()) {
        return Status::Corruption("bootstrap reconstruction: no anchor");
      }
      return db->InsertElementAfter(seed->second, node->name());
    }();
    if (!got.ok()) return got.status();
    if (*got != i) {
      return Status::Corruption("bootstrap reconstruction: inserted id drifted");
    }
  }

  // --- Stage 3: drop the dummies and verify the whole reconstruction. ---
  for (const NodeId dummy : gap_ids) {
    Result<uint64_t> removed = db->DeleteElement(dummy);
    if (!removed.ok()) return removed.status();
    if (*removed != 1) {
      return Status::Corruption("bootstrap reconstruction: dummy grew a subtree");
    }
  }
  if (lab.num_nodes() != next_id) {
    return Status::Corruption("bootstrap reconstruction: id counter drifted");
  }
  const BootstrapSpec rebuilt = db->CaptureBootstrapSpec();
  if (rebuilt.xml != xml::WriteXml(*parsed)) {
    return Status::Corruption("bootstrap reconstruction: tree mismatch");
  }
  if (rebuilt.ids != spec.ids) {
    return Status::Corruption("bootstrap reconstruction: id space mismatch");
  }
  return db;
}

Result<std::unique_ptr<XmlDb>> XmlDb::Recover(const XmlDbOptions& options) {
  if (options.storage_path.empty()) {
    return Status::InvalidArgument("Recover needs a storage_path");
  }
  auto log = std::make_unique<repl::ReplicationLog>(options.failpoint_scope);
  BootstrapSpec spec;
  std::vector<repl::ReplRecord> tail;
  CDBS_RETURN_NOT_OK(log->Recover(options.storage_path, &spec, &tail));
  XmlDbOptions memory = options;
  memory.storage_path.clear();
  Result<std::unique_ptr<XmlDb>> opened = OpenFromBootstrap(spec, memory);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<XmlDb> db = std::move(opened).value();
  // Redo, the way a follower applies the stream: the same ops on the same
  // tree re-derive the same ids (Theorem 3.1), and each result is checked.
  Tally tally;
  for (const repl::ReplRecord& record : tail) {
    for (const repl::ReplOp& op : record.ops) {
      const Result<uint64_t> replayed = db->Apply(
          {op.kind, static_cast<NodeId>(op.target), op.tag}, &tally);
      if (!replayed.ok() || *replayed != op.new_id) {
        return Status::Corruption("log replay diverged at lsn " +
                                  std::to_string(record.lsn));
      }
    }
  }
  db->Count(tally);
  db->log_ = std::move(log);
  return db;
}

Status XmlDb::CreateLog(const XmlDbOptions& options,
                        const BootstrapSpec& spec) {
  auto log = std::make_unique<repl::ReplicationLog>(options.failpoint_scope);
  CDBS_RETURN_NOT_OK(log->Create(options.storage_path, spec));
  log_ = std::move(log);
  return Status::OK();
}

Status XmlDb::Checkpoint() {
  return log_ == nullptr ? Status::OK()
                         : log_->Checkpoint(CaptureBootstrapSpec());
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

Result<uint64_t> XmlDb::Commit(const WriteOp& op) {
  obs::ScopedTimer timer(op.kind == WriteOp::Kind::kDelete ? delete_ns_
                                                           : insert_ns_);
  // A stored database keeps the pre-op state to restore if the log refuses
  // the op: the id it would have burnt stays free, as replay expects.
  std::unique_ptr<query::LabeledDocument> before =
      log_ != nullptr ? labeled_->Fork() : nullptr;
  Tally tally;
  const Result<uint64_t> result = Apply(op, &tally);
  if (!result.ok()) return result;
  if (log_ != nullptr) {
    const Result<uint64_t> lsn =
        log_->Append({repl::ReplOp{op.kind, op.target, *result, op.tag}});
    if (!lsn.ok()) {
      labeled_ = std::move(before);
      return lsn.status();
    }
  }
  Count(tally);
  return result;
}

Status XmlDb::CheckTarget(NodeId target, const char* root_error) const {
  const labeling::TreeSkeleton& sk = labeled_->labeling().skeleton();
  if (target >= sk.size()) return Status::OutOfRange("no such node");
  if (target == 0) return Status::InvalidArgument(root_error);
  // Every node of a deleted subtree is marked, not only its root.
  if (sk.is_removed(target)) return Status::NotFound("node was deleted");
  return Status::OK();
}

Result<uint64_t> XmlDb::Apply(const WriteOp& op, Tally* tally) {
  if (op.kind == WriteOp::Kind::kDelete) {
    CDBS_RETURN_NOT_OK(CheckTarget(op.target, "cannot delete the root"));
    const labeling::DeleteResult result = labeled_->DeleteSubtree(op.target);
    tally->deleted += result.removed.size();
    tally->relabeled += result.relabeled;
    return static_cast<uint64_t>(result.removed.size());
  }
  CDBS_RETURN_NOT_OK(
      CheckTarget(op.target, "cannot insert a sibling of the root"));
  const labeling::InsertResult result = labeled_->InsertSibling(
      op.target, op.kind == WriteOp::Kind::kInsertBefore, op.tag);
  ++tally->inserts;
  tally->relabeled += result.relabeled;
  if (result.overflow) ++tally->overflows;
  return static_cast<uint64_t>(result.new_node);
}

void XmlDb::Count(const Tally& tally) {
  insertions_->Increment(tally.inserts);
  deletions_->Increment(tally.deleted);
  relabeled_total_->Increment(tally.relabeled);
  overflow_events_->Increment(tally.overflows);
}

Result<uint64_t> XmlDb::DeleteElement(NodeId target) {
  return Commit(WriteOp::Delete(target));
}

Result<NodeId> XmlDb::InsertElementBefore(NodeId target,
                                          const std::string& tag) {
  const Result<uint64_t> id = Commit(WriteOp::InsertBefore(target, tag));
  if (!id.ok()) return id.status();
  return static_cast<NodeId>(*id);
}

Result<NodeId> XmlDb::InsertElementAfter(NodeId target,
                                         const std::string& tag) {
  const Result<uint64_t> id = Commit(WriteOp::InsertAfter(target, tag));
  if (!id.ok()) return id.status();
  return static_cast<NodeId>(*id);
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

std::string XmlDb::ToXml() const { return Serialize(nullptr); }

std::string XmlDb::Serialize(std::vector<NodeId>* ids) const {
  // Pre-order over first_child/next_sibling; deleted subtrees are unlinked
  // from those chains, so the walk never meets them. Mirrors
  // xml::WriteXml's compact form byte for byte.
  const labeling::TreeSkeleton& sk = labeled_->labeling().skeleton();
  std::string out;
  NodeId n = 0;
  for (;;) {
    if (ids != nullptr) ids->push_back(n);
    if (labeled_->tag_id(n) == query::TagId{0}) {  // text node
      out += payloads_.Of(n);
    } else {
      out += '<';
      out += labeled_->tag(n);
      out += payloads_.Of(n);
      if (sk.first_child(n) != labeling::kNoNode) {
        out += '>';
        n = sk.first_child(n);
        continue;
      }
      out += "/>";
    }
    // `n` is complete: close every ancestor it was the last child of.
    while (sk.next_sibling(n) == labeling::kNoNode) {
      n = sk.parent(n);
      if (n == labeling::kNoNode) return out;
      out += "</";
      out += labeled_->tag(n);
      out += '>';
    }
    n = sk.next_sibling(n);
  }
}

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
  return stats;
}

}  // namespace cdbs::engine
