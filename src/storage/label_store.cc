#include "storage/label_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <utility>

#include "obs/trace.h"
#include "storage/io_retry.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/label_codec.h"
#include "util/little_endian.h"
#include "util/ordered_varint.h"

namespace cdbs::storage {

namespace {
constexpr size_t kSlotHeader = 2;  // record length, little-endian
constexpr uint32_t kMagic = 0x43444253;  // "CDBS"
// Compact (v3) data pages lead with a u16 record count.
constexpr size_t kPageCountBytes = 2;
// Header page layout: magic(4) version(4) slot(8) count(8), then — compact
// format only — a u32 tag-table length at 24 and the table itself at 28.
constexpr size_t kHeaderTagOffset = 24;
constexpr size_t kMaxTagBlobBytes =
    LabelStore::kPageDataSize - kHeaderTagOffset - 4;

void EncodeSlot(char* slot, size_t slot_size, const std::string& record) {
  std::memset(slot, 0, slot_size);
  slot[0] = static_cast<char>(record.size() & 0xFF);
  slot[1] = static_cast<char>((record.size() >> 8) & 0xFF);
  std::memcpy(slot + kSlotHeader, record.data(), record.size());
}

/// Decodes every record of a compact (v3) page image: u16 count followed by
/// the front-coded run. A zeroed page decodes as zero records.
Status DecodeCompactPage(const std::vector<char>& page,
                         std::vector<std::string>* records) {
  const size_t n = static_cast<uint8_t>(page[0]) |
                   (static_cast<size_t>(static_cast<uint8_t>(page[1])) << 8);
  size_t pos = 0;
  const std::string_view body(page.data() + kPageCountBytes,
                              LabelStore::kPageDataSize - kPageCountBytes);
  return util::DecodeFrontCodedRun(body, &pos, n, records);
}
}  // namespace

void StoreBatch::Rewrite(uint64_t index, std::string record) {
  ops_.push_back(Op{OpKind::kRewrite, index, std::move(record)});
}

void StoreBatch::Append(std::string record) {
  ops_.push_back(Op{OpKind::kAppend, 0, std::move(record)});
}

LabelStore::LabelStore() {
  page_reads_ = registry_.GetCounter("storage.page_reads",
                                     "Pages read from the label store file");
  page_writes_ = registry_.GetCounter("storage.page_writes",
                                      "Pages written to the label store file");
  bytes_written_ = registry_.GetCounter("storage.bytes_written",
                                        "Bytes written to the label store file");
  page_payload_bytes_ = registry_.GetCounter(
      "storage.page.payload_bytes",
      "Encoded record payload bytes staged into page images (pre-padding)");
  checksum_failures_ = registry_.GetCounter(
      "storage.checksum_failures", "Pages that failed CRC32C verification");
  io_retries_ = registry_.GetCounter(
      "storage.io_retries", "Transient page I/O failures that were retried");
  recoveries_ = registry_.GetCounter(
      "storage.recovery.replays", "WAL replay passes performed at open");
  read_ns_ = registry_.GetHistogram("storage.page_read.ns",
                                    "Wall time per page read");
  write_ns_ = registry_.GetHistogram("storage.page_write.ns",
                                     "Wall time per page write");
  recovery_ns_ = registry_.GetHistogram("storage.recovery.ns",
                                        "Wall time per WAL replay at open");
}

LabelStore::~LabelStore() {
  if (fd_ >= 0) ::close(fd_);
}

IoStats LabelStore::io_stats() const {
  IoStats stats;
  stats.page_reads = page_reads_->value();
  stats.page_writes = page_writes_->value();
  stats.bytes_written = bytes_written_->value();
  return stats;
}

size_t LabelStore::SlotsPerPageFor(uint64_t slot_size) const {
  if (slot_size == 0) return 0;
  if (format_ == kFormatLegacy) {
    return slot_size > kPageDataSize ? 0 : kPageDataSize / slot_size;
  }
  // Compact pages reserve the worst-case front-coded size per record so a
  // page can always hold its full complement, whatever the records share.
  const size_t max_record = slot_size > kSlotHeader ? slot_size - kSlotHeader
                                                    : 0;
  const size_t bound = util::MaxFrontCodedRecordSize(max_record);
  return (kPageDataSize - kPageCountBytes) / bound;
}

uint64_t LabelStore::PagesFor(uint64_t record_count, size_t slot_size) const {
  if (record_count == 0 || slot_size == 0) return 1;  // header only
  const uint64_t per_page = SlotsPerPageFor(slot_size);
  if (per_page == 0) return 1;
  return 1 + (record_count + per_page - 1) / per_page;
}

Status LabelStore::BuildPageImage(const std::string* records, size_t n,
                                  uint64_t slot_size,
                                  std::vector<char>* page) {
  page->assign(kPageSize, 0);
  size_t used = 0;
  if (format_ == kFormatLegacy) {
    for (size_t i = 0; i < n; ++i) {
      EncodeSlot(page->data() + i * slot_size, slot_size, records[i]);
    }
    used = n * slot_size;
  } else {
    std::string body;
    std::string_view prev;
    for (size_t i = 0; i < n; ++i) {
      CDBS_RETURN_NOT_OK(util::AppendFrontCodedRecord(prev, records[i],
                                                      &body));
      prev = records[i];
    }
    if (kPageCountBytes + body.size() > kPageDataSize) {
      return Status::Internal("compact page overflow");
    }
    (*page)[0] = static_cast<char>(n & 0xFF);
    (*page)[1] = static_cast<char>((n >> 8) & 0xFF);
    std::memcpy(page->data() + kPageCountBytes, body.data(), body.size());
    used = kPageCountBytes + body.size();
  }
  page_payload_bytes_->Increment(used);
  return Status::OK();
}

Status LabelStore::SetPageRecord(std::vector<char>* page, size_t slot_index,
                                 uint64_t slot_size,
                                 const std::string& record) {
  if (format_ == kFormatLegacy) {
    EncodeSlot(page->data() + slot_index * slot_size, slot_size, record);
    page_payload_bytes_->Increment(slot_size);
    return Status::OK();
  }
  std::vector<std::string> records;
  CDBS_RETURN_NOT_OK(DecodeCompactPage(*page, &records));
  if (slot_index < records.size()) {
    records[slot_index] = record;
  } else if (slot_index == records.size()) {
    records.push_back(record);
  } else {
    return Status::Internal("compact page record gap");
  }
  return BuildPageImage(records.data(), records.size(), slot_size, page);
}

Status LabelStore::GetPageRecord(const std::vector<char>& page,
                                 size_t slot_index, uint64_t slot_size,
                                 std::string* record) const {
  if (format_ == kFormatLegacy) {
    const char* slot = page.data() + slot_index * slot_size;
    const size_t len =
        static_cast<uint8_t>(slot[0]) |
        (static_cast<size_t>(static_cast<uint8_t>(slot[1])) << 8);
    if (len + kSlotHeader > slot_size) {
      return Status::Corruption("slot length out of bounds");
    }
    record->assign(slot + kSlotHeader, len);
    return Status::OK();
  }
  std::vector<std::string> records;
  CDBS_RETURN_NOT_OK(DecodeCompactPage(page, &records));
  if (slot_index >= records.size()) {
    return Status::Corruption("compact page record index out of bounds");
  }
  *record = std::move(records[slot_index]);
  return Status::OK();
}

Status LabelStore::Open(const std::string& path) {
  return OpenWithFormat(path, kFormatCompact);
}

Status LabelStore::OpenWithFormat(const std::string& path, uint32_t format) {
  if (format != kFormatLegacy && format != kFormatCompact) {
    return Status::InvalidArgument("unknown label store format");
  }
  if (fd_ >= 0) ::close(fd_);
  crashed_ = false;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return Status::IoError("cannot open " + path);
  path_ = path;
  record_count_ = 0;
  slot_size_ = 0;
  format_ = format;
  tag_names_.clear();
  tag_blob_.clear();
  registry_.ResetAll();
  if (wal_ == nullptr) wal_ = std::make_unique<Wal>(&registry_);
  CDBS_RETURN_NOT_OK(wal_->Open(WalPath(path)));
  CDBS_RETURN_NOT_OK(wal_->Reset());
  // An empty store is still a valid, reopenable store: header down and
  // durable before the first record arrives.
  CDBS_RETURN_NOT_OK(WriteHeader());
  return SyncFile();
}

Status LabelStore::OpenExisting(const std::string& path) {
  if (fd_ >= 0) ::close(fd_);
  crashed_ = false;
  fd_ = ::open(path.c_str(), O_RDWR, 0644);
  if (fd_ < 0) return Status::IoError("cannot open " + path);
  path_ = path;
  tag_names_.clear();
  tag_blob_.clear();
  registry_.ResetAll();
  if (wal_ == nullptr) wal_ = std::make_unique<Wal>(&registry_);
  CDBS_RETURN_NOT_OK(wal_->Open(WalPath(path)));

  // Redo phase: a synced WAL batch wins over whatever page state the crash
  // left behind. Replay needs nothing from the (possibly torn) header —
  // records carry full page images plus the new header fields.
  std::vector<std::string> pending;
  CDBS_RETURN_NOT_OK(wal_->Recover(&pending));
  if (!pending.empty()) {
    obs::ScopedTimer timer(recovery_ns_);
    for (const std::string& payload : pending) {
      CDBS_RETURN_NOT_OK(ReplayWalRecord(payload));
    }
    CDBS_RETURN_NOT_OK(SyncFile());
    CDBS_RETURN_NOT_OK(wal_->Reset());
    recoveries_->Increment();
  }

  struct stat st;
  if (::fstat(fd_, &st) != 0) return Status::IoError("fstat failed");
  if (static_cast<uint64_t>(st.st_size) < kPageSize) {
    return Status::Truncated(path + ": file shorter than the header page");
  }
  std::vector<char> header;
  CDBS_RETURN_NOT_OK(ReadPageRaw(0, &header));
  if (util::LoadU32(header.data()) != kMagic) {
    return Status::Corruption(path + " is not a label store");
  }
  const uint32_t version = util::LoadU32(header.data() + 4);
  if (version != kFormatLegacy && version != kFormatCompact) {
    return Status::Corruption(path + ": unsupported label store version");
  }
  const uint32_t stored_crc = util::LoadU32(header.data() + kPageDataSize);
  if (stored_crc != util::Crc32c(header.data(), kPageDataSize)) {
    checksum_failures_->Increment();
    return Status::Corruption(path + ": header checksum mismatch");
  }
  format_ = version;
  slot_size_ = static_cast<size_t>(util::LoadU64(header.data() + 8));
  record_count_ = static_cast<size_t>(util::LoadU64(header.data() + 16));
  if (slot_size_ > kPageDataSize || (slot_size_ == 0 && record_count_ != 0) ||
      (record_count_ != 0 && SlotsPerPageFor(slot_size_) == 0)) {
    return Status::Corruption("label store header has a bad slot size");
  }
  tag_names_.clear();
  tag_blob_.clear();
  if (format_ == kFormatCompact) {
    const uint32_t blob_len = util::LoadU32(header.data() + kHeaderTagOffset);
    if (blob_len > kMaxTagBlobBytes) {
      return Status::Corruption("label store tag table overruns the header");
    }
    tag_blob_.assign(header.data() + kHeaderTagOffset + 4, blob_len);
    size_t pos = 0;
    uint64_t ntags = 0;
    if (blob_len > 0) {
      CDBS_RETURN_NOT_OK(util::DecodeOrderedVarint(tag_blob_, &pos, &ntags));
      for (uint64_t i = 0; i < ntags; ++i) {
        uint64_t len = 0;
        CDBS_RETURN_NOT_OK(util::DecodeOrderedVarint(tag_blob_, &pos, &len));
        if (len > tag_blob_.size() - pos) {
          return Status::Corruption("label store tag table is truncated");
        }
        tag_names_.emplace_back(tag_blob_.data() + pos, len);
        pos += len;
      }
    }
  }
  const uint64_t expected_pages = PagesFor(record_count_, slot_size_);
  if (static_cast<uint64_t>(st.st_size) < expected_pages * kPageSize) {
    return Status::Truncated(path + ": data pages cut short");
  }
  return Status::OK();
}

Status LabelStore::WriteHeaderWith(uint64_t slot_size, uint64_t record_count) {
  std::vector<char> header(kPageSize, 0);
  util::StoreU32(header.data(), kMagic);
  util::StoreU32(header.data() + 4, format_);
  util::StoreU64(header.data() + 8, slot_size);
  util::StoreU64(header.data() + 16, record_count);
  if (format_ == kFormatCompact) {
    CDBS_CHECK(tag_blob_.size() <= kMaxTagBlobBytes);
    util::StoreU32(header.data() + kHeaderTagOffset,
           static_cast<uint32_t>(tag_blob_.size()));
    std::memcpy(header.data() + kHeaderTagOffset + 4, tag_blob_.data(),
                tag_blob_.size());
  }
  return WritePage(0, &header);
}

Status LabelStore::SetTagTable(const std::vector<std::string>& names) {
  if (format_ != kFormatCompact) {
    return Status::InvalidArgument(
        "legacy-format store cannot carry a tag table");
  }
  std::string blob;
  CDBS_RETURN_NOT_OK(util::EncodeOrderedVarint(names.size(), &blob));
  for (const std::string& name : names) {
    CDBS_RETURN_NOT_OK(util::EncodeOrderedVarint(name.size(), &blob));
    blob.append(name);
    if (blob.size() > kMaxTagBlobBytes) {
      return Status::InvalidArgument("tag table does not fit the header page");
    }
  }
  if (blob.size() > kMaxTagBlobBytes) {
    return Status::InvalidArgument("tag table does not fit the header page");
  }
  tag_names_ = names;
  tag_blob_ = std::move(blob);
  return Status::OK();
}

Status LabelStore::WriteHeader() {
  return WriteHeaderWith(slot_size_, record_count_);
}

Status LabelStore::BulkLoad(const std::vector<std::string>& records,
                            size_t headroom) {
  if (fd_ < 0) return Status::Internal("store not open");
  size_t max_record = 1;
  for (const std::string& r : records) {
    max_record = std::max(max_record, r.size());
  }
  slot_size_ = max_record + kSlotHeader + headroom;
  const size_t per_page = SlotsPerPage();
  if (per_page == 0) {
    return Status::InvalidArgument("record larger than a page");
  }
  if (::ftruncate(fd_, 0) != 0) return Status::IoError("truncate failed");

  std::vector<char> page(kPageSize, 0);
  for (size_t start = 0; start < records.size(); start += per_page) {
    const size_t n = std::min(per_page, records.size() - start);
    CDBS_RETURN_NOT_OK(
        BuildPageImage(records.data() + start, n, slot_size_, &page));
    CDBS_RETURN_NOT_OK(WritePage(1 + start / per_page, &page));
  }
  record_count_ = records.size();
  CDBS_RETURN_NOT_OK(WriteHeader());
  CDBS_RETURN_NOT_OK(SyncFile());
  // The fresh content supersedes any logged batch.
  return wal_->Reset();
}

Status LabelStore::StageBatch(const StoreBatch& batch, uint64_t* count,
                              uint64_t* slot,
                              std::map<uint64_t, std::vector<char>>* dirty,
                              std::set<uint64_t>* touched) {
  if (*slot == 0) return Status::Internal("batch before bulk load");
  const size_t per_page = SlotsPerPageFor(*slot);
  if (per_page == 0) return Status::Internal("staged slot size is invalid");
  for (const StoreBatch::Op& op : batch.ops_) {
    if (op.record.size() + kSlotHeader > *slot) {
      return Status::OutOfRange("record does not fit a slot");
    }
    uint64_t index = 0;
    if (op.kind == StoreBatch::OpKind::kRewrite) {
      if (op.index >= *count) return Status::OutOfRange("record index");
      index = op.index;
    } else {
      index = (*count)++;
    }
    const uint64_t page_index = 1 + index / per_page;
    auto it = dirty->find(page_index);
    if (it == dirty->end()) {
      std::vector<char> page;
      if (index % per_page == 0 && op.kind == StoreBatch::OpKind::kAppend) {
        page.assign(kPageSize, 0);  // fresh page
      } else {
        CDBS_RETURN_NOT_OK(ReadPage(page_index, &page));
      }
      it = dirty->emplace(page_index, std::move(page)).first;
    }
    CDBS_RETURN_NOT_OK(
        SetPageRecord(&it->second, index % per_page, *slot, op.record));
    touched->insert(page_index);
  }
  return Status::OK();
}

std::string LabelStore::EncodeWalPayload(
    uint64_t new_count, uint64_t new_slot, uint64_t total_pages,
    const std::map<uint64_t, std::vector<char>>& dirty,
    const std::set<uint64_t>& touched) const {
  // Record layout (see docs/DURABILITY.md, docs/ENCODING.md):
  //   [u64 new_count][u64 new_slot][u64 total_pages][u32 npages]
  //   npages x ([u64 page_index][kPageDataSize image bytes])
  //   [u32 format][u32 tag_blob_len][tag blob]
  // The trailing format/tag-table extension lets replay rebuild the header
  // on a fresh handle; records written before the extension existed are
  // exactly the base size and imply the legacy format.
  std::string payload(
      8 * 3 + 4 + touched.size() * (8 + kPageDataSize) + 8 + tag_blob_.size(),
      '\0');
  char* out = payload.data();
  util::StoreU64(out, new_count);
  util::StoreU64(out + 8, new_slot);
  util::StoreU64(out + 16, total_pages);
  util::StoreU32(out + 24, static_cast<uint32_t>(touched.size()));
  out += 28;
  for (const uint64_t page_index : touched) {
    util::StoreU64(out, page_index);
    std::memcpy(out + 8, dirty.at(page_index).data(), kPageDataSize);
    out += 8 + kPageDataSize;
  }
  util::StoreU32(out, format_);
  util::StoreU32(out + 4, static_cast<uint32_t>(tag_blob_.size()));
  std::memcpy(out + 8, tag_blob_.data(), tag_blob_.size());
  return payload;
}

Status LabelStore::ApplyBatch(const StoreBatch& batch) {
  if (fd_ < 0) return Status::Internal("store not open");
  if (crashed_) return Status::IoError("store crashed (injected)");
  if (batch.empty()) return Status::OK();

  // Stage 1 — build the after-image of every page the batch touches, in
  // memory, validating everything. No I/O errors past this point can tear
  // the store: the WAL record below carries these exact images.
  obs::TraceSpan stage_span(obs::SpanName::kCommitStage);
  uint64_t new_count = record_count_;
  uint64_t new_slot = slot_size_;
  std::map<uint64_t, std::vector<char>> dirty;  // page index -> full page
  std::set<uint64_t> touched;
  CDBS_RETURN_NOT_OK(
      StageBatch(batch, &new_count, &new_slot, &dirty, &touched));
  const std::string payload = EncodeWalPayload(
      new_count, new_slot, PagesFor(new_count, new_slot), dirty, touched);
  stage_span.End();

  // Stage 2 — make the batch durable in the WAL before touching any page.
  CDBS_RETURN_NOT_OK(wal_->Append(payload));
  CDBS_RETURN_NOT_OK(wal_->Sync());

  // Stage 3 — apply. A crash from here on is repaired by redo at reopen.
  obs::TraceSpan apply_span(obs::SpanName::kStoreApply);
  const uint64_t total_pages = PagesFor(new_count, new_slot);
  CDBS_RETURN_NOT_OK(
      ApplyPageImages(new_count, new_slot, total_pages, dirty));
  CDBS_RETURN_NOT_OK(SyncFile());

  // Stage 4 — checkpoint: pages and header are durable, drop the records.
  // (A crash before this lands merely replays the batch, idempotently.)
  return wal_->Reset();
}

Status LabelStore::ApplyPageImages(
    uint64_t new_record_count, uint64_t new_slot_size, uint64_t total_pages,
    std::map<uint64_t, std::vector<char>>& pages) {
  if (::ftruncate(fd_, static_cast<off_t>(total_pages * kPageSize)) != 0) {
    return Status::IoError("cannot resize store file");
  }
  for (auto& [page_index, page] : pages) {
    CDBS_RETURN_NOT_OK(WritePage(page_index, &page));
  }
  CDBS_RETURN_NOT_OK(WriteHeaderWith(new_slot_size, new_record_count));
  slot_size_ = static_cast<size_t>(new_slot_size);
  record_count_ = static_cast<size_t>(new_record_count);
  return Status::OK();
}

Status LabelStore::ReplayWalRecord(const std::string& payload) {
  if (payload.size() < 28) return Status::Corruption("bad WAL record");
  const char* in = payload.data();
  const uint64_t new_count = util::LoadU64(in);
  const uint64_t new_slot = util::LoadU64(in + 8);
  const uint64_t total_pages = util::LoadU64(in + 16);
  const uint32_t npages = util::LoadU32(in + 24);
  const size_t base =
      28 + static_cast<size_t>(npages) * (8 + kPageDataSize);
  if (payload.size() < base) {
    return Status::Corruption("bad WAL record length");
  }
  in += 28;
  std::map<uint64_t, std::vector<char>> pages;
  for (uint32_t i = 0; i < npages; ++i) {
    const uint64_t page_index = util::LoadU64(in);
    std::vector<char> page(kPageSize, 0);
    std::memcpy(page.data(), in + 8, kPageDataSize);
    pages.emplace(page_index, std::move(page));
    in += 8 + kPageDataSize;
  }
  // Format/tag-table extension. Replay may run on a fresh handle before
  // the (possibly torn) header was ever read, and the header rewritten by
  // ApplyPageImages below is format-dependent — so restore the format and
  // table first. A record with no extension predates it: legacy format.
  if (payload.size() == base) {
    format_ = kFormatLegacy;
    tag_names_.clear();
    tag_blob_.clear();
  } else {
    if (payload.size() < base + 8) {
      return Status::Corruption("bad WAL record extension");
    }
    const uint32_t format = util::LoadU32(in);
    const uint32_t blob_len = util::LoadU32(in + 4);
    if ((format != kFormatLegacy && format != kFormatCompact) ||
        blob_len > kMaxTagBlobBytes ||
        payload.size() != base + 8 + blob_len) {
      return Status::Corruption("bad WAL record extension");
    }
    format_ = format;
    tag_blob_.assign(in + 8, blob_len);
    tag_names_.clear();
    size_t pos = 0;
    if (blob_len > 0) {
      uint64_t ntags = 0;
      CDBS_RETURN_NOT_OK(util::DecodeOrderedVarint(tag_blob_, &pos, &ntags));
      for (uint64_t t = 0; t < ntags; ++t) {
        uint64_t len = 0;
        CDBS_RETURN_NOT_OK(util::DecodeOrderedVarint(tag_blob_, &pos, &len));
        if (len > tag_blob_.size() - pos) {
          return Status::Corruption("bad WAL record tag table");
        }
        tag_names_.emplace_back(tag_blob_.data() + pos, len);
        pos += len;
      }
    }
  }
  return ApplyPageImages(new_count, new_slot, total_pages, pages);
}

Status LabelStore::Read(size_t index, std::string* record) {
  if (index >= record_count_) return Status::OutOfRange("record index");
  const size_t per_page = SlotsPerPage();
  std::vector<char> page;
  CDBS_RETURN_NOT_OK(ReadPage(1 + index / per_page, &page));
  return GetPageRecord(page, index % per_page, slot_size_, record);
}

Status LabelStore::Rewrite(size_t index, const std::string& record) {
  if (index >= record_count_) return Status::OutOfRange("record index");
  if (record.size() + kSlotHeader > slot_size_) {
    return Status::OutOfRange("record no longer fits its slot");
  }
  const size_t per_page = SlotsPerPage();
  std::vector<char> page;
  CDBS_RETURN_NOT_OK(ReadPage(1 + index / per_page, &page));
  CDBS_RETURN_NOT_OK(
      SetPageRecord(&page, index % per_page, slot_size_, record));
  return WritePage(1 + index / per_page, &page);
}

Status LabelStore::Append(const std::string& record) {
  if (fd_ < 0) return Status::Internal("store not open");
  if (slot_size_ == 0) {
    return Status::Internal("append before bulk load");
  }
  if (record.size() + kSlotHeader > slot_size_) {
    return Status::OutOfRange("record does not fit a slot");
  }
  const size_t per_page = SlotsPerPage();
  const size_t index = record_count_;
  const uint64_t page_index = 1 + index / per_page;
  std::vector<char> page;
  if (index % per_page == 0) {
    page.assign(kPageSize, 0);  // fresh page
  } else {
    CDBS_RETURN_NOT_OK(ReadPage(page_index, &page));
  }
  CDBS_RETURN_NOT_OK(
      SetPageRecord(&page, index % per_page, slot_size_, record));
  CDBS_RETURN_NOT_OK(WritePage(page_index, &page));
  ++record_count_;
  return WriteHeader();
}

Status LabelStore::Sync() { return SyncFile(); }

Status LabelStore::SyncFile() {
  if (fd_ < 0) return Status::Internal("store not open");
  if (crashed_) return Status::IoError("store crashed (injected)");
  if (CDBS_FAILPOINT("storage.sync.crash")) {
    crashed_ = true;
    return Status::IoError("injected crash: store sync");
  }
  // Errno-classified injection (ENOSPC/EDQUOT/EIO): persistent failures are
  // surfaced immediately without retrying — a full disk does not clear on
  // its own; the supervision layer owns recovery (docs/ROBUSTNESS.md).
  int injected_errno = 0;
  if (CDBS_FAILPOINT_ERRNO("storage.sync.error", &injected_errno)) {
    return ErrnoToStatus(injected_errno, "injected sync error");
  }
  for (int attempt = 0;; ++attempt) {
    const bool injected = CDBS_FAILPOINT("storage.sync.io_error");
    if (!injected) {
      if (::fdatasync(fd_) == 0) return Status::OK();
      if (errno == ENOSPC || errno == EDQUOT) {
        return ErrnoToStatus(errno, "fdatasync failed");
      }
    }
    if (attempt + 1 >= internal::kMaxIoAttempts) {
      return Status::IoError("fdatasync failed after retries");
    }
    io_retries_->Increment();
    internal::BackoffSleep(attempt);
  }
}

Status LabelStore::VerifyChecksums() {
  if (fd_ < 0) return Status::Internal("store not open");
  const uint64_t pages = PagesFor(record_count_, slot_size_);
  std::vector<char> page;
  for (uint64_t p = 0; p < pages; ++p) {
    CDBS_RETURN_NOT_OK(ReadPage(p, &page));
  }
  return Status::OK();
}

Status LabelStore::ReadPageRaw(uint64_t page_index, std::vector<char>* page) {
  obs::ScopedTimer timer(read_ns_);
  page->assign(kPageSize, 0);
  for (int attempt = 0;; ++attempt) {
    const bool injected = CDBS_FAILPOINT("storage.read_page.io_error");
    if (!injected) {
      const ssize_t n = ::pread(fd_, page->data(), kPageSize,
                                static_cast<off_t>(page_index * kPageSize));
      if (n == static_cast<ssize_t>(kPageSize)) break;
      if (n >= 0) {
        return Status::Truncated("page " + std::to_string(page_index) +
                                 " is past the end of the file");
      }
      if (errno != EINTR && errno != EAGAIN) {
        return Status::IoError("pread failed");
      }
    }
    if (attempt + 1 >= internal::kMaxIoAttempts) {
      return Status::IoError("pread failed after retries");
    }
    io_retries_->Increment();
    internal::BackoffSleep(attempt);
  }
  page_reads_->Increment();
  return Status::OK();
}

Status LabelStore::ReadPage(uint64_t page_index, std::vector<char>* page) {
  CDBS_RETURN_NOT_OK(ReadPageRaw(page_index, page));
  const uint32_t stored = util::LoadU32(page->data() + kPageDataSize);
  if (stored != util::Crc32c(page->data(), kPageDataSize)) {
    checksum_failures_->Increment();
    return Status::Corruption("page " + std::to_string(page_index) +
                              " checksum mismatch");
  }
  return Status::OK();
}

Status LabelStore::WritePage(uint64_t page_index, std::vector<char>* page) {
  obs::ScopedTimer timer(write_ns_);
  if (crashed_) return Status::IoError("store crashed (injected)");
  util::StoreU32(page->data() + kPageDataSize,
         util::Crc32c(page->data(), kPageDataSize));
  if (CDBS_FAILPOINT("storage.write_page.crash")) {
    crashed_ = true;
    return Status::IoError("injected crash: page write");
  }
  if (CDBS_FAILPOINT("storage.write_page.short_write")) {
    // Simulated torn write: half the page lands, then the process "dies".
    ::pwrite(fd_, page->data(), kPageSize / 2,
             static_cast<off_t>(page_index * kPageSize));
    crashed_ = true;
    return Status::IoError("injected crash: short page write");
  }
  // Errno-classified injection: persistent, never retried (see SyncFile).
  int injected_errno = 0;
  if (CDBS_FAILPOINT_ERRNO("storage.write_page.error", &injected_errno)) {
    return ErrnoToStatus(injected_errno, "injected page-write error");
  }
  for (int attempt = 0;; ++attempt) {
    const bool injected = CDBS_FAILPOINT("storage.write_page.io_error");
    if (!injected) {
      const ssize_t n = ::pwrite(fd_, page->data(), kPageSize,
                                 static_cast<off_t>(page_index * kPageSize));
      if (n == static_cast<ssize_t>(kPageSize)) break;
      if (n < 0 && errno != EINTR && errno != EAGAIN) {
        return ErrnoToStatus(errno, "pwrite failed");
      }
      // A genuine short write is retried whole: pwrite is positioned, so
      // re-issuing the full page is idempotent.
    }
    if (attempt + 1 >= internal::kMaxIoAttempts) {
      return Status::IoError("pwrite failed after retries");
    }
    io_retries_->Increment();
    internal::BackoffSleep(attempt);
  }
  page_writes_->Increment();
  bytes_written_->Increment(kPageSize);
  return Status::OK();
}

}  // namespace cdbs::storage
