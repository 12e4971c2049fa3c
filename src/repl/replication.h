#ifndef CDBS_REPL_REPLICATION_H_
#define CDBS_REPL_REPLICATION_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "storage/wal.h"
#include "util/status.h"

/// \file
/// Logical replication records and the durability log they live in
/// (docs/DURABILITY.md, docs/REPLICATION.md). CDBS logs *logical*
/// operations, not label-page images: insertions never relabel existing
/// nodes (Theorem 3.1) and a label depends only on its neighbours', so the
/// same operation sequence applied to the same document derives identical
/// labels and node ids. Each committed group becomes one LSN-stamped
/// `ReplRecord`, fsynced before any write of the group is acknowledged.
/// That one log is the redo log a restart replays on top of the last
/// checkpoint and the stream followers catch up from (`ReadFrom`); a
/// follower behind the last checkpoint, or from another incarnation (see
/// the epoch), re-bootstraps from a snapshot.

namespace cdbs::engine {
struct BootstrapSpec;
}  // namespace cdbs::engine

namespace cdbs::repl {

/// One logical, committed mutation. `new_id` is the node id the primary
/// assigned (inserts) — the follower re-derives the same id and uses the
/// field to detect divergence, which forces a re-bootstrap.
struct ReplOp {
  enum class Kind : uint8_t {
    kInsertBefore = 1,
    kInsertAfter = 2,
    kDelete = 3,
  };
  Kind kind = Kind::kInsertBefore;
  uint64_t target = 0;
  uint64_t new_id = 0;  // inserts: assigned node id; deletes: removed count
  std::string tag;      // inserts only
};

/// One replication-stream record: the ops of one committed group, stamped
/// with the commit LSN the record carries in its WAL header.
struct ReplRecord {
  uint64_t lsn = 0;
  std::vector<ReplOp> ops;
};

/// Serializes a batch of ops into one WAL/wire payload.
std::string EncodeReplOps(const std::vector<ReplOp>& ops);

/// Decodes a payload produced by EncodeReplOps. Corruption on any
/// truncated or malformed field.
Status DecodeReplOps(std::string_view payload, std::vector<ReplOp>* out);

/// Serializes a bootstrap spec (engine::BootstrapSpec — the serialized
/// tree plus its id-space history) into one wire blob:
///   [u8 version=1][u64 next_id][u64 original_count]
///   [u64 id_count][id_count x u64 ids][xml bytes to end of blob]
std::string EncodeBootstrapSpec(const engine::BootstrapSpec& spec);

/// Decodes a blob produced by EncodeBootstrapSpec. Corruption on any
/// truncated, malformed or unknown-version blob.
Status DecodeBootstrapSpec(std::string_view blob, engine::BootstrapSpec* out);

/// A database's one durable log: the checkpoint at `path` (an
/// EncodeBootstrapSpec image plus the LSN it covers, CRC32C-sealed) and the
/// `<path>.wal` of encoded ReplRecords committed after it, plus the
/// incarnation's epoch. Thread-safe: the group-commit writer appends while
/// follower connections read.
class ReplicationLog {
 public:
  /// `failpoint_scope` scopes the WAL's errno-injection sites (see
  /// storage::Wal). The metrics live in the log's own registry, a child
  /// of MetricRegistry::Default().
  explicit ReplicationLog(const std::string& failpoint_scope);

  /// Starts a fresh log whose checkpoint is `spec` at LSN 0: empties any
  /// previous `<path>.wal` first, then writes the checkpoint, so a crash
  /// in between leaves the previous checkpoint with no log after it.
  Status Create(const std::string& path, const engine::BootstrapSpec& spec);

  /// Reopens an existing log after a restart: reads the checkpoint into
  /// `*spec`, truncates a torn WAL tail and appends every record above the
  /// checkpoint's LSN to `*tail`, in order. NotFound without a checkpoint,
  /// Corruption for a damaged one or a gap after it. LSNs continue where
  /// the log left off; the epoch is new.
  Status Recover(const std::string& path, engine::BootstrapSpec* spec,
                 std::vector<ReplRecord>* tail);

  /// Appends one committed group and fsyncs it; returns its LSN. On
  /// failure the log is cut back to the previous record, so nothing of the
  /// group is durable.
  Result<uint64_t> Append(const std::vector<ReplOp>& ops);

  /// Writes `spec` — the state after every record so far — as the new
  /// checkpoint, then empties the WAL. LSNs keep counting; readers below
  /// the new floor must bootstrap.
  Status Checkpoint(const engine::BootstrapSpec& spec);

  /// Recovery after failed appends: reopens the WAL on a fresh handle,
  /// truncates a torn tail, cuts records above `lsn` (never acknowledged)
  /// and syncs. Corruption when records at or below `lsn` are missing.
  Status Reopen(uint64_t lsn);

  /// Reads every retained record with lsn >= `lsn`, in order. Returns
  /// kOutOfRange when `lsn` precedes the retention floor (the reader must
  /// snapshot-bootstrap instead).
  Status ReadFrom(uint64_t lsn, std::vector<ReplRecord>* out) const;

  /// LSN of the last acknowledged (appended and fsynced) record, or of
  /// the checkpoint when no record follows it.
  uint64_t last_lsn() const;

  /// Smallest LSN still retained; equals `last_lsn() + 1` right after a
  /// checkpoint.
  uint64_t oldest_lsn() const;

  /// Bytes in the WAL since the last checkpoint.
  uint64_t size_bytes() const;

  /// This incarnation's identity, stamped on every stream frame.
  uint64_t epoch() const { return epoch_; }

  /// `wal.*` (appends, bytes_written, syncs, ...) and `repl.log.*` metrics.
  const obs::MetricRegistry& metrics() const { return registry_; }

 private:
  // ReadFrom's decode, with mu_ held.
  Status ReadLocked(uint64_t lsn, std::vector<ReplRecord>* out) const;

  obs::MetricRegistry registry_{&obs::MetricRegistry::Default()};
  mutable std::mutex mu_;
  storage::Wal wal_;
  std::string path_;  // the checkpoint; the WAL is `<path_>.wal`
  uint64_t oldest_lsn_ = 1;
  uint64_t last_lsn_ = 0;
  const uint64_t epoch_;

  obs::Counter* evictions_;  // retention checkpoints
};

}  // namespace cdbs::repl

#endif  // CDBS_REPL_REPLICATION_H_
