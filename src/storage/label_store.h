#ifndef CDBS_STORAGE_LABEL_STORE_H_
#define CDBS_STORAGE_LABEL_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

/// \file
/// A small paged, file-backed record store for serialized labels: the page
/// model of the update-time experiment (Figure 7). The paper times an
/// insert as processing plus the page I/O of rewriting every label it
/// changes, and observes that for intermittent updates the I/O dominates.
/// This store reproduces that cost: every record rewrite is a page
/// read-modify-write against a real file. No engine writes it; the serving
/// path's durable state is a checkpoint plus a log of logical ops
/// (docs/DURABILITY.md).
///
/// Layout: fixed 4 KiB pages, the last 4 bytes of each holding a CRC32C of
/// the rest (written on every page write, verified on every page read).
/// Page 0 is the header (magic, format version, slot size, record count);
/// each data page holds a contiguous run of fixed-size slots (slot size
/// chosen at bulk load from the largest record, with headroom for label
/// growth), each slot a u16 record length and the record bytes, zero
/// padded. Records are addressed by index, so index→page is arithmetic.

namespace cdbs::storage {

/// Counters for the I/O the store performed. A point-in-time view computed
/// from this store's metric registry (`storage.*` metrics); the registry is
/// the source of truth.
struct IoStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t bytes_written = 0;
};

/// File-backed label store.
class LabelStore {
 public:
  static constexpr size_t kPageSize = 4096;
  /// Trailing bytes of every page reserved for its CRC32C.
  static constexpr size_t kPageCrcBytes = 4;
  /// Slot-usable bytes per page.
  static constexpr size_t kPageDataSize = kPageSize - kPageCrcBytes;

  LabelStore();
  ~LabelStore();

  LabelStore(const LabelStore&) = delete;
  LabelStore& operator=(const LabelStore&) = delete;

  /// Creates (truncates) the store file and writes and syncs an empty
  /// header.
  Status Open(const std::string& path);

  /// Writes all records, sizing slots to fit the largest plus `headroom`
  /// bytes of growth. Replaces any previous content and syncs.
  Status BulkLoad(const std::vector<std::string>& records, size_t headroom);

  /// Number of records.
  size_t size() const { return record_count_; }

  /// Reads one record (page read + checksum verify + slot decode).
  Status Read(size_t index, std::string* record);

  /// Rewrites one record in place: page read, modify, page write. The
  /// record must fit the slot; returns OutOfRange otherwise (the caller
  /// would re-bulk-load, which is exactly a re-labeling).
  Status Rewrite(size_t index, const std::string& record);

  /// Appends one record at the end (touches the last page and the header).
  Status Append(const std::string& record);

  /// Flushes OS buffers for the file.
  Status Sync();

  /// Reads and checksum-verifies every page (header + data). OK iff the
  /// whole store is intact.
  Status VerifyChecksums();

  /// I/O counters since Open — a thin view over metrics().
  IoStats io_stats() const;

  /// This store's metric registry (counters reset on Open). It is a child
  /// of MetricRegistry::Default(), which keeps the totals across stores.
  const obs::MetricRegistry& metrics() const { return registry_; }

  /// Slot size chosen at bulk load.
  size_t slot_size() const { return slot_size_; }

 private:
  size_t SlotsPerPage() const;
  /// Writes `record` into one zero-padded slot of `slot_size_` bytes.
  void EncodeSlot(char* slot, const std::string& record) const;

  Status ReadPage(uint64_t page_index, std::vector<char>* page);
  Status WritePage(uint64_t page_index, std::vector<char>* page);
  Status WriteHeader();

  int fd_ = -1;
  size_t slot_size_ = 0;
  size_t record_count_ = 0;

  obs::MetricRegistry registry_{&obs::MetricRegistry::Default()};
  // Per-instance counters (reset on Open).
  obs::Counter* page_reads_;
  obs::Counter* page_writes_;
  obs::Counter* bytes_written_;
  obs::Counter* checksum_failures_;
  obs::Counter* io_retries_;
  obs::Histogram* read_ns_;
  obs::Histogram* write_ns_;
};

}  // namespace cdbs::storage

#endif  // CDBS_STORAGE_LABEL_STORE_H_
