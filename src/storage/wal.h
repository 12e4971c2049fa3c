#ifndef CDBS_STORAGE_WAL_H_
#define CDBS_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

/// \file
/// A checksummed, length-prefixed write-ahead log: the file behind the
/// serving engine's one durability log (repl::ReplicationLog), which
/// appends each committed group here and fsyncs it before acknowledging. A
/// crash at any point leaves either a replayable record or a torn tail,
/// truncated on recovery. Record layout and the recovery protocol are
/// documented in docs/DURABILITY.md.
///
/// On-disk record: `[u32 crc32c][u32 len][u64 lsn][len payload bytes]`,
/// little-endian, where the CRC covers the length field, the LSN and the
/// payload — a record whose length or LSN was torn mid-write fails its
/// checksum instead of misparsing the tail.
///
/// The high bit of the `len` field marks a zero-RLE-compressed payload
/// (util/label_codec.h): `len` then counts the *stored* (compressed)
/// bytes, and readers decompress after the checksum verifies. Whether a
/// record is compressed depends on its payload alone: a payload of at
/// least 64 bytes that zero-RLE shrinks is stored compressed, any other
/// raw with the bit clear. See docs/ENCODING.md.
///
/// Every record carries a monotonically increasing log sequence number
/// (LSN), assigned at append time and persisted in the header. LSNs let a
/// reader resume from where it left off (`ReadFrom`) — the cursor the
/// replication layer (docs/REPLICATION.md) uses for follower catch-up —
/// and survive reopen: `Recover` restores the counter from the last intact
/// record. `Reset` empties the file but never rewinds the counter, so an
/// LSN is never reused within one WAL lifetime.

namespace cdbs::storage {

/// One recovered or cursor-read WAL record: its persisted LSN + payload.
struct WalRecord {
  uint64_t lsn = 0;
  std::string payload;
  uint64_t end = 0;  // file offset just past the record
};

class Wal {
 public:
  /// Binds this WAL's counters into `registry` (the owning store's or
  /// log's registry). A non-empty `failpoint_scope` also evaluates the
  /// errno-injection sites `wal.<scope>.append.error` and
  /// `wal.<scope>.sync.error` next to the global `wal.append.error` /
  /// `wal.sync.error`, so chaos tests can sicken one shard's log while the
  /// others stay healthy.
  explicit Wal(obs::MetricRegistry* registry,
               const std::string& failpoint_scope = "");
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if missing) the log file, preserving its contents.
  /// The LSN counter is *not* derived here — call `Recover` to scan the
  /// file and restore it (Open alone leaves the counter at its current
  /// value, 1 for a fresh handle).
  Status Open(const std::string& path);

  /// Appends one record at the current tail. Does not sync.
  Status Append(std::string_view payload);

  /// Appends one record per payload at the current tail as a single
  /// contiguous write, without syncing. This is the group-commit split:
  /// batch many logical records with AppendBatch, then pay for ONE `Sync`.
  /// A crash before the sync leaves an all-or-prefix tail — `Recover`
  /// replays whichever leading records are intact and truncates the rest
  /// at a record boundary. Each record gets the next consecutive LSN; on
  /// success `last_lsn()` is the LSN of the final record written.
  Status AppendBatch(const std::vector<std::string_view>& payloads);

  /// Flushes the log to stable storage.
  Status Sync();

  /// Scans the log from the start, appending every intact payload to
  /// `payloads`. A torn or checksum-failing tail is truncated away (the
  /// file is physically cut at the last intact record boundary); intact
  /// records before the tear are still returned. Restores the LSN counter:
  /// after Recover, `next_lsn()` is one past the last intact record (or
  /// unchanged when the log is empty).
  Status Recover(std::vector<std::string>* payloads);

  /// Read-only cursor: appends every intact record whose LSN is >= `lsn`
  /// to `out`, in log order. Unlike `Recover` this never truncates — a
  /// torn or checksum-failing tail simply ends the scan (the intact prefix
  /// is still returned), so it is safe to call on a live log between
  /// appends. Records below `lsn` are skipped, which is how a resumed
  /// cursor avoids re-reading what it already consumed.
  Status ReadFrom(uint64_t lsn, std::vector<WalRecord>* out) const;

  /// Empties the log (after a checkpoint made its records redundant). The
  /// LSN counter is preserved — records appended after a Reset continue the
  /// sequence, so a reader that saw LSN n can detect that records (n, m)
  /// were evicted rather than silently miss them.
  Status Reset();

  /// Cuts the log back to `offset` bytes and the LSN counter back to
  /// `next_lsn`: undoes appends that were never acknowledged. A failed cut
  /// leaves the handle dead (every later call fails) until `Open`.
  Status Truncate(uint64_t offset, uint64_t next_lsn);

  /// Current log tail offset in bytes.
  uint64_t size_bytes() const { return end_offset_; }

  /// LSN the next appended record will receive. Monotonic, never reused.
  uint64_t next_lsn() const { return next_lsn_; }

  /// LSN of the most recently appended record; 0 if nothing was ever
  /// appended (or recovered) through this handle.
  uint64_t last_lsn() const { return next_lsn_ - 1; }

  const std::string& path() const { return path_; }

 private:
  Status WriteAt(uint64_t offset, const char* data, size_t n);
  // Reads the intact records in the first `limit` bytes, appending those
  // with LSN >= `from` to `out`. `*end` is where the intact prefix ends;
  // `*bad_crc` is set when a checksum failure ended it.
  Status Scan(uint64_t limit, uint64_t from, std::vector<WalRecord>* out,
              uint64_t* end, bool* bad_crc) const;
  // The mapped error when the errno-armed `site` or its scoped twin fires,
  // else OK. Such failures are persistent: never retried.
  static Status InjectedError(const std::string& scoped_site,
                              const char* site);

  int fd_ = -1;
  std::string path_;
  uint64_t end_offset_ = 0;
  uint64_t next_lsn_ = 1;
  bool crashed_ = false;  // poisoned by an injected crash failpoint
  const std::string scoped_append_error_;  // empty: no scope
  const std::string scoped_sync_error_;

  // Counters in the owner's registry.
  obs::Counter* appends_;
  obs::Counter* bytes_written_;
  obs::Counter* logical_bytes_;
  obs::Counter* syncs_;
  obs::Counter* replayed_records_;
  obs::Counter* checksum_failures_;
  obs::Counter* truncated_bytes_;
  obs::Counter* io_retries_;
};

/// Replaces `path` with the concatenation of `pieces` crash-atomically: the
/// bytes go to `<path>.tmp`, which is fsynced and renamed over `path`, and
/// then the parent directory is fsynced. A crash leaves the old file or the
/// new one, never a torn or empty one; at worst a stale `.tmp` is left for
/// the next writer (or recovery) to remove. Failpoints `file.sync.crash`
/// and `file.rename.crash` simulate a crash before the fsync and before
/// the rename.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& pieces);

/// Reads the whole file at `path`; NotFound when it does not exist.
Status ReadFile(const std::string& path, std::string* out);

}  // namespace cdbs::storage

#endif  // CDBS_STORAGE_WAL_H_
