#ifndef CDBS_ENGINE_XML_DB_H_
#define CDBS_ENGINE_XML_DB_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "labeling/label.h"
#include "obs/metrics.h"
#include "query/tag_index.h"
#include "repl/replication.h"
#include "util/cow_vector.h"
#include "util/status.h"
#include "xml/tree.h"

/// \file
/// The downstream-facing face of the library: a single-document XML store
/// that keeps the tree, its labels (any registered scheme), the tag index,
/// and — optionally — a durable log of every committed update on top of a
/// checkpoint (docs/DURABILITY.md). The tree is the labeling's skeleton plus
/// each node's tag and a side table of attributes and text; the parsed
/// document it was opened from is freed on open, never kept.
///
///   auto db = XmlDb::OpenFromXml("<a><b/><c/></a>", {});
///   (*db)->Count("/a/b");                      // query from labels
///   (*db)->InsertElementBefore(target, "new"); // no re-labeling with CDBS
///   (*db)->ToXml();                            // serialized current tree

namespace cdbs::engine {

using labeling::NodeId;

/// Configuration for opening a database.
struct XmlDbOptions {
  /// Labeling scheme name from labeling::AllSchemes(); the default is the
  /// paper's headline scheme.
  std::string scheme_name = "V-CDBS-Containment";
  /// When non-empty, the database is durable: a checkpoint at this path
  /// and, at `<path>.wal`, a log of every update committed after it, each
  /// fsynced before the update returns (repl::ReplicationLog). `Open`
  /// creates both, replacing what was there; `Recover` reopens them.
  std::string storage_path;
  /// When non-empty, the log also evaluates errno-injection failpoints
  /// scoped to this name (e.g. `wal.shard-1.sync.error`), letting chaos
  /// tests fail one shard's storage while others stay healthy. See
  /// storage::Wal.
  std::string failpoint_scope;
};

/// One of the paper's three updates as one value: insert a new element
/// `tag` before or after the sibling `target`, or delete the subtree at
/// `target`. repl::ReplOp is the same op plus its result.
struct WriteOp {
  using Kind = repl::ReplOp::Kind;
  Kind kind = Kind::kInsertAfter;
  NodeId target = 0;
  std::string tag;  // inserts only

  static WriteOp InsertBefore(NodeId target, std::string tag) {
    return {Kind::kInsertBefore, target, std::move(tag)};
  }
  static WriteOp InsertAfter(NodeId target, std::string tag) {
    return {Kind::kInsertAfter, target, std::move(tag)};
  }
  static WriteOp Delete(NodeId target) { return {Kind::kDelete, target, {}}; }
};

/// Aggregate counters for observability. A point-in-time view computed from
/// the database's metric registry (see `XmlDb::metrics()`); the registry is
/// the source of truth.
struct XmlDbStats {
  size_t node_count = 0;
  uint64_t label_bits = 0;
  double avg_label_bits = 0;
  uint64_t insertions = 0;
  uint64_t deletions = 0;          // nodes removed so far
  uint64_t relabeled_total = 0;   // labels rewritten by updates so far
  uint64_t overflow_events = 0;   // full re-encodes (Example 6.1)
};

/// An id-preserving snapshot of a database: the serialized tree plus the
/// id-space history a replica needs to rebuild a *bit-identical* id space.
/// Node ids are assigned in document order at open time and then
/// sequentially by insertions (never reused), so a tree that has seen
/// updates no longer has ids in document order — and a replica that merely
/// re-parsed `xml` would mint a divergent id space, answering queries with
/// the wrong ids and mis-applying every streamed logical op that follows.
/// `OpenFromBootstrap` reconstructs the exact id assignment instead.
struct BootstrapSpec {
  std::string xml;           // serialized current tree
  std::vector<NodeId> ids;   // id of each tree node, in document order
  uint64_t original_count = 0;  // nodes present when the db was opened
  uint64_t next_id = 0;      // ids ever assigned, including burnt ones
};

/// The attributes and text of ingested nodes: the only document content
/// the skeleton and tags do not carry, kept as serialized XML. A text
/// node's entry is its escaped text; an element's is its attributes as its
/// start tag spells them (` name="value"`, in document order). Nodes with
/// neither have no entry. Entries never change once ingested: inserted
/// nodes are bare elements.
struct NodePayloads {
  std::vector<NodeId> ids;     // nodes with an entry, ascending
  std::vector<uint64_t> ends;  // entry i is bytes [ends[i-1], ends[i])
  std::string bytes;

  /// `n`'s entry; empty when it has none.
  std::string_view Of(NodeId n) const;
};

/// The unlabeled tree an XmlDb opens over: the skeleton its labeling
/// adopts, each node's interned tag and the side table. Built by ingesting
/// parsed documents, each destroyed as soon as it is ingested, so opening
/// never holds a document and its labels at once.
class XmlTree {
 public:
  /// Appends a bare element `tag` as the last child of `parent`, or as the
  /// root when `parent` is kNoNode (the tree must then be empty). Returns
  /// its id.
  NodeId AddElement(const std::string& tag, NodeId parent);

  /// Appends `doc`'s nodes in document order as the last child subtree of
  /// `parent`, or as the root when `parent` is kNoNode, then destroys
  /// `doc`. Returns the id of `doc`'s root. Requires that `doc` has a root.
  NodeId Ingest(xml::Document doc, NodeId parent);

  size_t size() const { return skeleton_.size(); }

 private:
  friend class XmlDb;

  // Appends `node` without its children — its tag or text, and its
  // attributes — as the last child of `parent` (kNoNode: the root).
  NodeId AddNode(const xml::Node& node, NodeId parent);

  labeling::TreeSkeleton skeleton_;
  util::CowVector<query::TagId> tags_;
  std::shared_ptr<const query::TagPool> pool_ = query::TagPool::Empty();
  NodePayloads payloads_;
};

/// A labeled, queryable, updatable XML document.
class XmlDb {
 public:
  /// Labels `tree` and builds a database over it. Fails with
  /// InvalidArgument when `options.scheme_name` names no registered scheme.
  static Result<std::unique_ptr<XmlDb>> Open(XmlTree tree,
                                             const XmlDbOptions& options);

  /// Ingests `doc` into a tree (freeing it) and opens over that.
  static Result<std::unique_ptr<XmlDb>> Open(xml::Document doc,
                                             const XmlDbOptions& options);

  /// Parses `xml` and builds a database over it.
  static Result<std::unique_ptr<XmlDb>> OpenFromXml(
      std::string_view xml, const XmlDbOptions& options);

  /// Rebuilds a database whose tree, labels-visible order relations AND
  /// node-id space match the database `spec` was captured from: every
  /// attached node keeps its id, burnt ids stay burnt, and the next
  /// insertion is assigned `spec.next_id` — so logical replication replay
  /// (docs/REPLICATION.md) continues seamlessly after a snapshot
  /// bootstrap. Returns Corruption when `spec` is inconsistent or the
  /// reconstruction fails self-verification.
  static Result<std::unique_ptr<XmlDb>> OpenFromBootstrap(
      const BootstrapSpec& spec, const XmlDbOptions& options);

  /// Reopens the durable database at `options.storage_path` after a
  /// restart or crash: rebuilds the checkpoint through OpenFromBootstrap,
  /// then replays every logged op after it, checking that each re-derives
  /// the id (or removed count) it was logged with. The result holds
  /// exactly the acknowledged updates. NotFound without a checkpoint;
  /// Corruption when the checkpoint or the replay does not check out.
  static Result<std::unique_ptr<XmlDb>> Recover(const XmlDbOptions& options);

  /// Captures the id-preserving snapshot of the current state. Not
  /// synchronized with updates: callers serialize against writes (the
  /// concurrent front-end captures on its writer thread).
  BootstrapSpec CaptureBootstrapSpec() const;

  /// Evaluates an XPath-subset query; returns matching node ids in document
  /// order.
  Result<std::vector<NodeId>> Query(const std::string& xpath) const;

  /// Number of matches of `xpath`, counted without building the match
  /// list where the query allows (query/evaluator.h).
  Result<uint64_t> Count(const std::string& xpath) const;

  /// The unique match of `xpath`; NotFound when there are no matches,
  /// InvalidArgument when there are several.
  Result<NodeId> QueryOne(const std::string& xpath) const;

  /// Inserts a new element `tag` as the sibling immediately before/after
  /// `target` (which must not be the root), updating tree, labels and
  /// index, and logging the insert durably when stored. Returns the new
  /// node's id. A failed log write leaves the database as it was.
  Result<NodeId> InsertElementBefore(NodeId target, const std::string& tag);
  Result<NodeId> InsertElementAfter(NodeId target, const std::string& tag);

  /// Deletes the subtree rooted at `target` (not the root). Returns the
  /// number of nodes removed. Remaining labels are untouched (deletions
  /// never disturb relative order — Section 5.2.1).
  Result<uint64_t> DeleteElement(NodeId target);

  /// Writes the current state as the new checkpoint and empties the log
  /// (retention). No-op for an in-memory database.
  Status Checkpoint();

  /// Tag of a node.
  const std::string& TagOf(NodeId node) const;

  /// Relationship predicates, answered from labels.
  bool IsAncestor(NodeId a, NodeId d) const;
  bool IsParent(NodeId p, NodeId c) const;
  int CompareOrder(NodeId a, NodeId b) const;

  /// Serializes the current tree, byte-identical to xml::WriteXml of the
  /// same document.
  std::string ToXml() const;

  /// Counters — a thin view over metrics().
  XmlDbStats Stats() const;

  /// This database's metric registry: `engine.*` counters and
  /// per-operation latency histograms (`engine.insert.ns`, ...). It is a
  /// child of MetricRegistry::Default(), so process-wide exporters see the
  /// sum across databases.
  const obs::MetricRegistry& metrics() const { return registry_; }

  /// Underlying labeling (for inspection).
  const labeling::Labeling& labeling() const {
    return labeled_->labeling();
  }

  /// The labeled document + tag index (for snapshotting via Fork()).
  const query::LabeledDocument& labeled() const { return *labeled_; }

  /// Nodes present at open: every id at or above it is an inserted leaf.
  size_t original_count() const { return original_count_; }

  /// The durability log; null when the database is in-memory only. Exposed
  /// for inspection (its `wal.*` metrics) in tests and benches.
  const repl::ReplicationLog* store() const { return log_.get(); }

 private:
  // The concurrent front-end applies a group of ops in memory, then logs
  // them under one append + fsync.
  friend class ConcurrentXmlDb;

  // Counter increments of applied ops, made once the ops are durable.
  struct Tally {
    uint64_t inserts = 0;
    uint64_t deleted = 0;
    uint64_t relabeled = 0;
    uint64_t overflows = 0;
  };

  XmlDb(XmlTree tree, std::unique_ptr<labeling::LabelingScheme> scheme);

  // Starts this database's log with `spec` (its current state) as the
  // checkpoint.
  Status CreateLog(const XmlDbOptions& options, const BootstrapSpec& spec);
  // Applies `op` in memory and logs it: the one-op group commit behind the
  // public update methods.
  Result<uint64_t> Commit(const WriteOp& op);
  // Applies `op` to the in-memory state only, adding its effect to
  // `tally`: the per-op apply shared by Commit, the concurrent writer and
  // Recover's replay. Returns the new id or the number of nodes removed.
  Result<uint64_t> Apply(const WriteOp& op, Tally* tally);
  void Count(const Tally& tally);
  // OK when `target` is an attached non-root node: OutOfRange past the
  // last id, InvalidArgument (`root_error`) for the root, NotFound inside
  // a deleted subtree.
  Status CheckTarget(NodeId target, const char* root_error) const;
  // The serialized tree; appends each node's id, in document order, to
  // `ids` when it is non-null.
  std::string Serialize(std::vector<NodeId>* ids) const;

  std::unique_ptr<labeling::LabelingScheme> scheme_;
  std::unique_ptr<query::LabeledDocument> labeled_;
  // Only this writer-side object reads it; snapshots never see it.
  NodePayloads payloads_;
  // Nodes present at construction (ids 0..original_count_-1, document
  // order). Everything at or above this id was inserted later — and since
  // the only mutations are sibling element inserts and subtree deletes,
  // such nodes are leaf elements forever. CaptureBootstrapSpec ships this
  // so OpenFromBootstrap can split originals from inserted leaves.
  size_t original_count_ = 0;
  obs::MetricRegistry registry_{&obs::MetricRegistry::Default()};
  obs::Counter* insertions_;
  obs::Counter* deletions_;
  obs::Counter* relabeled_total_;
  obs::Counter* overflow_events_;
  obs::Histogram* insert_ns_;
  obs::Histogram* delete_ns_;
  obs::Histogram* query_ns_;
  std::unique_ptr<repl::ReplicationLog> log_;  // null when not durable
};

}  // namespace cdbs::engine

#endif  // CDBS_ENGINE_XML_DB_H_
