#ifndef CDBS_ENGINE_XML_DB_H_
#define CDBS_ENGINE_XML_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "labeling/label.h"
#include "obs/metrics.h"
#include "query/tag_index.h"
#include "storage/label_store.h"
#include "util/status.h"
#include "xml/tree.h"

/// \file
/// The downstream-facing face of the library: a single-document XML store
/// that keeps the tree, its labels (any registered scheme), the tag index,
/// and — optionally — a persistent label store consistent across queries
/// and order-preserving updates.
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
  /// When non-empty, serialized labels are persisted to this file through
  /// storage::LabelStore, and every update rewrites exactly the changed
  /// records.
  std::string storage_path;
  /// Slot headroom (bytes) for label growth in the store.
  size_t store_headroom = 16;
  /// When non-empty, the label store also evaluates errno-injection
  /// failpoints scoped to this name (e.g. `storage.shard-1.sync.error`),
  /// letting chaos tests fail one shard's storage while others stay
  /// healthy. See LabelStore::set_failpoint_scope.
  std::string failpoint_scope;
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
  uint64_t store_page_writes = 0;  // 0 when not persistent
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

/// A labeled, queryable, updatable XML document.
class XmlDb {
 public:
  /// Builds a database over `doc` (ownership transferred).
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
  /// `target` (which must not be the root), updating tree, labels, index
  /// and store. Returns the new node's id.
  Result<NodeId> InsertElementBefore(NodeId target, const std::string& tag);
  Result<NodeId> InsertElementAfter(NodeId target, const std::string& tag);

  /// Deletes the subtree rooted at `target` (not the root). Returns the
  /// number of nodes removed. Remaining labels are untouched (deletions
  /// never disturb relative order — Section 5.2.1).
  Result<uint64_t> DeleteElement(NodeId target);

  /// Tag of a node.
  const std::string& TagOf(NodeId node) const;

  /// Relationship predicates, answered from labels.
  bool IsAncestor(NodeId a, NodeId d) const;
  bool IsParent(NodeId p, NodeId c) const;
  int CompareOrder(NodeId a, NodeId b) const;

  /// Serializes the current tree.
  std::string ToXml() const;

  /// Counters — a thin view over metrics().
  XmlDbStats Stats() const;

  /// This database's private metric registry: `engine.*` counters and
  /// per-operation latency histograms (`engine.insert.ns`, ...). Every
  /// increment is mirrored into MetricRegistry::Default() as well, so
  /// process-wide exporters see the aggregate across databases.
  const obs::MetricRegistry& metrics() const { return registry_; }

  /// Underlying labeling (for inspection).
  const labeling::Labeling& labeling() const {
    return labeled_->labeling();
  }

  /// The labeled document + tag index (for snapshotting via Fork()).
  const query::LabeledDocument& labeled() const { return *labeled_; }

  /// The persistent label store; null when the database is in-memory only.
  /// Exposed for store-level inspection (I/O and WAL metrics) in tests and
  /// benches.
  const storage::LabelStore* store() const { return store_.get(); }

 private:
  // The concurrent front-end drives the two-phase update hooks below to
  // batch many insertions under one group-committed store write.
  friend class ConcurrentXmlDb;

  /// Everything needed to undo one in-memory insertion.
  struct AppliedInsert {
    labeling::InsertResult result;
    xml::Node* parent = nullptr;
    xml::Node* fresh = nullptr;
  };

  XmlDb(xml::Document doc, std::unique_ptr<labeling::LabelingScheme> scheme);

  Status InitStore(const XmlDbOptions& options);
  Result<NodeId> Insert(NodeId target, const std::string& tag, bool before);

  // --- two-phase insertion, the building blocks of Insert ---
  // Phase 1: mutate tree + labels + index in memory, remembering how to
  // undo it.
  Result<NodeId> ApplyInsertInMemory(NodeId target, const std::string& tag,
                                     bool before, AppliedInsert* applied);
  // Serializes one insertion's store ops (relabel rewrites + the append).
  void BuildPersistOps(const labeling::InsertResult& result,
                       storage::StoreBatch* out) const;
  /// One node's on-disk record: varint(interned TagId) + serialized label
  /// when the store carries a tag table (docs/ENCODING.md), the bare label
  /// otherwise. The engine never reads records back (memory is
  /// authoritative), so the prefix is pure on-disk self-description.
  std::string SerializeRecord(NodeId n) const;
  /// Mirrors the tag pool into `store`'s header tag table when it grew (or
  /// was never pushed). A store that cannot carry the table — legacy
  /// format, or a pathological table bigger than the header page — drops
  /// this database to bare-label records; when records with prefixes were
  /// already written, the next persist rebuilds them via a Reload.
  void SyncTagTable(storage::LabelStore* store);
  // Phase 2: group-commits the batches (one WAL fsync for all of them),
  // falling back to a full Reload when a label outgrew its slot or a prior
  // failure left the store out of sync. No-op without a store.
  Status PersistBatches(const std::vector<storage::StoreBatch>& batches);
  // Undoes phase 1 after a failed phase 2 (reverse order across a group).
  void RollbackInsert(const AppliedInsert& applied);
  // Bumps the update counters once an insertion is fully committed.
  void NoteInsertCommitted(const labeling::InsertResult& result);

  /// Recovery hook for the supervision layer (docs/ROBUSTNESS.md): closes
  /// the label store and reopens it through the WAL crash-recovery path
  /// (OpenExisting), falling back to a full rebuild (Open + BulkLoad from
  /// the in-memory labels) when the file is corrupt beyond WAL repair.
  /// Either way the store is then re-synced to the acked in-memory state —
  /// a rolled-back group whose WAL record was already durable would
  /// otherwise be replayed, leaving the store a step AHEAD of memory — and
  /// checksum-verified before the old store is swapped out. No-op for an
  /// in-memory database. Called from the concurrent front-end's writer
  /// thread only (it owns all mutation of this object).
  Status ReopenStore();

  xml::Document doc_;
  std::unique_ptr<labeling::LabelingScheme> scheme_;
  std::unique_ptr<query::LabeledDocument> labeled_;
  std::vector<xml::Node*> node_of_id_;  // id -> tree node
  // Nodes present at construction (ids 0..original_count_-1, document
  // order). Everything at or above this id was inserted later — and since
  // the only mutations are sibling element inserts and subtree deletes,
  // such nodes are leaf elements forever. CaptureBootstrapSpec ships this
  // so OpenFromBootstrap can split originals from inserted leaves.
  size_t original_count_ = 0;
  std::unique_ptr<storage::LabelStore> store_;  // null when not persistent
  // Saved from XmlDbOptions so ReopenStore can rebuild the store.
  std::string storage_path_;
  size_t store_headroom_ = 16;
  std::string failpoint_scope_;
  // Set when a persist failure rolled back an update whose in-memory label
  // state may have diverged from the store (e.g. an overflow re-encode):
  // the next successful persist re-syncs everything with a Reload batch.
  bool store_needs_reload_ = false;
  // Records carry an interned-TagId prefix (the store accepted a tag
  // table). False for legacy-format or tableless stores.
  bool store_tags_enabled_ = false;
  // Pool size last pushed via SetTagTable; a bigger pool (a brand-new tag
  // name was interned) re-pushes before the next persist.
  size_t pushed_tags_ = 0;

  obs::MetricRegistry registry_;
  // Per-instance counters/timers and their process-wide mirrors.
  obs::Counter* insertions_;
  obs::Counter* deletions_;
  obs::Counter* relabeled_total_;
  obs::Counter* overflow_events_;
  obs::Histogram* insert_ns_;
  obs::Histogram* delete_ns_;
  obs::Histogram* query_ns_;
  obs::Counter* global_insertions_;
  obs::Counter* global_deletions_;
  obs::Counter* global_relabeled_;
  obs::Counter* global_overflows_;
};

}  // namespace cdbs::engine

#endif  // CDBS_ENGINE_XML_DB_H_
