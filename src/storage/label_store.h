#ifndef CDBS_STORAGE_LABEL_STORE_H_
#define CDBS_STORAGE_LABEL_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "storage/wal.h"
#include "util/status.h"

/// \file
/// A small paged, file-backed record store for serialized labels. The
/// update-time experiments (Figure 7) measure *total* time — processing
/// plus I/O — and the paper observes that for intermittent updates the I/O
/// dominates, compressing the gap between the dynamic schemes to ~2x. This
/// store reproduces that: every record rewrite is a page read-modify-write
/// against a real file.
///
/// Layout: fixed 4 KiB pages, the last 4 bytes of each holding a CRC32C of
/// the rest (verified on every read); each page holds a contiguous run of
/// fixed-slot records (slot size chosen at bulk load from the largest
/// record, with headroom for label growth). Records are addressed by index.
/// Updates applied through `ApplyBatch` are crash-consistent: the batch is
/// logged to a write-ahead log and fsynced before any page is touched, and
/// `OpenExisting` replays the log / truncates its torn tail. The full
/// on-disk format and recovery protocol are in docs/DURABILITY.md.

namespace cdbs::storage {

/// Counters for the I/O the store performed. A point-in-time view computed
/// from this store's metric registry (`storage.*` metrics); the registry is
/// the source of truth.
struct IoStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t bytes_written = 0;
};

/// One atomic multi-record update: any mix of in-place rewrites and
/// appends.
/// Build it up, then hand it to `LabelStore::ApplyBatch` — the whole batch
/// reaches the store or none of it does, even across a crash.
class StoreBatch {
 public:
  /// Replaces record `index` in place.
  void Rewrite(uint64_t index, std::string record);

  /// Appends a record at the end.
  void Append(std::string record);

  bool empty() const { return ops_.empty(); }

 private:
  friend class LabelStore;

  enum class OpKind { kRewrite, kAppend };
  struct Op {
    OpKind kind;
    uint64_t index;  // kRewrite only
    std::string record;
  };

  std::vector<Op> ops_;
};

/// File-backed label store.
///
/// File layout: one header page (magic, format version, slot size, record
/// count, CRC) followed by data pages of fixed-size slots, each page
/// CRC-protected. A store written by BulkLoad/Append/ApplyBatch can be
/// re-opened later with OpenExisting; a sibling `<path>.wal` write-ahead
/// log makes ApplyBatch updates atomic across crashes.
class LabelStore {
 public:
  static constexpr size_t kPageSize = 4096;
  /// Trailing bytes of every page reserved for its CRC32C.
  static constexpr size_t kPageCrcBytes = 4;
  /// Slot-usable bytes per page.
  static constexpr size_t kPageDataSize = kPageSize - kPageCrcBytes;

  /// On-disk format versions (header offset 4). `kFormatLegacy` is the
  /// fixed-slot layout older stores were written with; `kFormatCompact`
  /// front-codes each page's records and carries a per-store interned tag
  /// table in the header (docs/ENCODING.md). Both open read/write; fresh
  /// stores are written compact.
  static constexpr uint32_t kFormatLegacy = 2;
  static constexpr uint32_t kFormatCompact = 3;

  LabelStore();
  ~LabelStore();

  LabelStore(const LabelStore&) = delete;
  LabelStore& operator=(const LabelStore&) = delete;

  /// Creates (truncates) the store file, writes and syncs an empty header,
  /// and resets the sibling WAL. Writes the current (compact) format.
  Status Open(const std::string& path);

  /// Open, but writing `format` (kFormatLegacy or kFormatCompact): the
  /// escape hatch compatibility tests and the format-comparison benches
  /// use to produce a legacy-layout store with the current code.
  Status OpenWithFormat(const std::string& path, uint32_t format);

  /// Opens an existing store file: replays any pending WAL batch (redo),
  /// truncates a torn WAL tail, then loads and checksums the header.
  /// Returns Truncated for a file cut short, Corruption for a wrong magic
  /// or a failing checksum.
  Status OpenExisting(const std::string& path);

  /// Writes all records, sizing slots to fit the largest plus `headroom`
  /// bytes of growth. Replaces any previous content and syncs. Not WAL-
  /// logged — a crash mid-load leaves a detectable (checksummed) but
  /// unrecoverable partial store; use ApplyBatch for incremental updates.
  Status BulkLoad(const std::vector<std::string>& records, size_t headroom);

  /// Applies `batch` atomically: logs it to the WAL, fsyncs, writes the
  /// affected pages + header, fsyncs, then checkpoints the WAL. After a
  /// crash anywhere inside, OpenExisting recovers either the full batch or
  /// none of it. Returns OutOfRange (before any I/O) when a record does
  /// not fit its slot — the caller re-bulk-loads (a re-labeling).
  Status ApplyBatch(const StoreBatch& batch);

  /// Number of records.
  size_t size() const { return record_count_; }

  /// Reads one record (page read + checksum verify + slot decode).
  Status Read(size_t index, std::string* record);

  /// Rewrites one record in place: page read, modify, page write. The
  /// record must fit the slot; returns OutOfRange otherwise (caller
  /// re-bulk-loads, which is exactly a re-labeling). Not WAL-logged.
  Status Rewrite(size_t index, const std::string& record);

  /// Appends one record at the end (may touch the last page only). Not
  /// WAL-logged.
  Status Append(const std::string& record);

  /// Flushes OS buffers for the file.
  Status Sync();

  /// Reads and checksum-verifies every page (header + data). OK iff the
  /// whole store is intact.
  Status VerifyChecksums();

  /// The sibling WAL path for a store at `store_path`.
  static std::string WalPath(const std::string& store_path) {
    return store_path + ".wal";
  }

  /// I/O counters since Open — a thin view over metrics().
  IoStats io_stats() const;

  /// This store's metric registry (counters reset on Open). It is a child
  /// of MetricRegistry::Default(), which keeps the totals across stores.
  const obs::MetricRegistry& metrics() const { return registry_; }

  /// Slot size chosen at bulk load.
  size_t slot_size() const { return slot_size_; }

  /// On-disk format this store is using (sticky across reopen).
  uint32_t format() const { return format_; }

  /// Installs the per-store interned tag table: `names[id]` is the tag
  /// string record payloads refer to by varint TagId. Persisted in the
  /// header page from the next header write (every batch rewrites the
  /// header, so the table lands with the batch that first references its
  /// new ids). Returns InvalidArgument when the store is legacy-format or
  /// the encoded table does not fit the header page — callers fall back to
  /// tag-free records.
  Status SetTagTable(const std::vector<std::string>& names);

  /// The installed tag table (empty when records carry no tag ids).
  const std::vector<std::string>& tag_table() const { return tag_names_; }

 private:
  /// Records per data page for `slot_size` under the current format: the
  /// legacy layout packs fixed slots; the compact layout reserves the
  /// worst-case front-coded size per record so index→page addressing stays
  /// pure arithmetic even though encoded records vary in length.
  size_t SlotsPerPageFor(uint64_t slot_size) const;
  size_t SlotsPerPage() const { return SlotsPerPageFor(slot_size_); }
  uint64_t PagesFor(uint64_t record_count, size_t slot_size) const;

  /// Builds one full page image holding `n` records (format-aware).
  Status BuildPageImage(const std::string* records, size_t n,
                        uint64_t slot_size, std::vector<char>* page);
  /// Replaces (or appends, when `slot_index` equals the page's record
  /// count) one record inside an existing page image.
  Status SetPageRecord(std::vector<char>* page, size_t slot_index,
                       uint64_t slot_size, const std::string& record);
  /// Extracts one record from a page image.
  Status GetPageRecord(const std::vector<char>& page, size_t slot_index,
                       uint64_t slot_size, std::string* record) const;

  Status ReadPageRaw(uint64_t page_index, std::vector<char>* page);
  Status ReadPage(uint64_t page_index, std::vector<char>* page);
  Status WritePage(uint64_t page_index, std::vector<char>* page);
  Status WriteHeader();
  Status WriteHeaderWith(uint64_t slot_size, uint64_t record_count);
  Status SyncFile();

  /// Writes a set of fully-built page images plus the header, growing or
  /// shrinking the file to `total_pages`. The physical half of ApplyBatch,
  /// shared with WAL replay.
  Status ApplyPageImages(uint64_t new_record_count, uint64_t new_slot_size,
                         uint64_t total_pages,
                         std::map<uint64_t, std::vector<char>>& pages);

  /// Stage 1 of ApplyBatch: folds the batch into the staged state
  /// (`count`/`slot`/`dirty`), recording the page indices it touched.
  /// Reads un-staged pages from disk; performs no writes.
  Status StageBatch(const StoreBatch& batch, uint64_t* count, uint64_t* slot,
                    std::map<uint64_t, std::vector<char>>* dirty,
                    std::set<uint64_t>* touched);

  /// Encodes one batch's WAL record from the staged page images. The
  /// record carries the store format and tag table so replay onto a fresh
  /// handle (whose header may be torn) rebuilds both.
  std::string EncodeWalPayload(
      uint64_t new_count, uint64_t new_slot, uint64_t total_pages,
      const std::map<uint64_t, std::vector<char>>& dirty,
      const std::set<uint64_t>& touched) const;

  /// Decodes one recovered WAL payload and re-applies it (idempotent).
  Status ReplayWalRecord(const std::string& payload);

  int fd_ = -1;
  std::string path_;
  size_t slot_size_ = 0;
  size_t record_count_ = 0;
  uint32_t format_ = kFormatCompact;
  std::vector<std::string> tag_names_;  // interned tag table (may be empty)
  std::string tag_blob_;                // its encoded header form
  bool crashed_ = false;  // poisoned by an injected crash failpoint
  std::unique_ptr<Wal> wal_;

  obs::MetricRegistry registry_{&obs::MetricRegistry::Default()};
  // Per-instance counters (reset on Open).
  obs::Counter* page_reads_;
  obs::Counter* page_writes_;
  obs::Counter* bytes_written_;
  obs::Counter* page_payload_bytes_;
  obs::Counter* checksum_failures_;
  obs::Counter* io_retries_;
  obs::Counter* recoveries_;
  obs::Histogram* read_ns_;
  obs::Histogram* write_ns_;
  obs::Histogram* recovery_ns_;
};

}  // namespace cdbs::storage

#endif  // CDBS_STORAGE_LABEL_STORE_H_
