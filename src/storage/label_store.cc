#include "storage/label_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "storage/io_retry.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/little_endian.h"

namespace cdbs::storage {

namespace {
constexpr size_t kSlotHeader = 2;  // record length, little-endian
constexpr uint32_t kMagic = 0x43444253;  // "CDBS"
constexpr uint32_t kFormatVersion = 2;   // the fixed-slot layout
}  // namespace

LabelStore::LabelStore() {
  page_reads_ = registry_.GetCounter("storage.page_reads",
                                     "Pages read from the label store file");
  page_writes_ = registry_.GetCounter("storage.page_writes",
                                      "Pages written to the label store file");
  bytes_written_ = registry_.GetCounter("storage.bytes_written",
                                        "Bytes written to the label store file");
  checksum_failures_ = registry_.GetCounter(
      "storage.checksum_failures", "Pages that failed CRC32C verification");
  io_retries_ = registry_.GetCounter(
      "storage.io_retries", "Transient page I/O failures that were retried");
  read_ns_ = registry_.GetHistogram("storage.page_read.ns",
                                    "Wall time per page read");
  write_ns_ = registry_.GetHistogram("storage.page_write.ns",
                                     "Wall time per page write");
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

size_t LabelStore::SlotsPerPage() const {
  return slot_size_ == 0 ? 0 : kPageDataSize / slot_size_;
}

Status LabelStore::Open(const std::string& path) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return Status::IoError("cannot open " + path);
  record_count_ = 0;
  slot_size_ = 0;
  registry_.ResetAll();
  CDBS_RETURN_NOT_OK(WriteHeader());
  return Sync();
}

Status LabelStore::WriteHeader() {
  std::vector<char> header(kPageSize, 0);
  util::StoreU32(header.data(), kMagic);
  util::StoreU32(header.data() + 4, kFormatVersion);
  util::StoreU64(header.data() + 8, slot_size_);
  util::StoreU64(header.data() + 16, record_count_);
  return WritePage(0, &header);
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

  std::vector<char> page;
  for (size_t start = 0; start < records.size(); start += per_page) {
    const size_t n = std::min(per_page, records.size() - start);
    page.assign(kPageSize, 0);
    for (size_t i = 0; i < n; ++i) {
      EncodeSlot(page.data() + i * slot_size_, records[start + i]);
    }
    CDBS_RETURN_NOT_OK(WritePage(1 + start / per_page, &page));
  }
  record_count_ = records.size();
  CDBS_RETURN_NOT_OK(WriteHeader());
  return Sync();
}

Status LabelStore::Read(size_t index, std::string* record) {
  if (index >= record_count_) return Status::OutOfRange("record index");
  const size_t per_page = SlotsPerPage();
  std::vector<char> page;
  CDBS_RETURN_NOT_OK(ReadPage(1 + index / per_page, &page));
  const char* slot = page.data() + (index % per_page) * slot_size_;
  const size_t len = util::LoadLE<uint16_t>(slot);
  if (len + kSlotHeader > slot_size_) {
    return Status::Corruption("slot length out of bounds");
  }
  record->assign(slot + kSlotHeader, len);
  return Status::OK();
}

Status LabelStore::Rewrite(size_t index, const std::string& record) {
  if (index >= record_count_) return Status::OutOfRange("record index");
  if (record.size() + kSlotHeader > slot_size_) {
    return Status::OutOfRange("record no longer fits its slot");
  }
  const size_t per_page = SlotsPerPage();
  std::vector<char> page;
  CDBS_RETURN_NOT_OK(ReadPage(1 + index / per_page, &page));
  EncodeSlot(page.data() + (index % per_page) * slot_size_, record);
  return WritePage(1 + index / per_page, &page);
}

Status LabelStore::Append(const std::string& record) {
  if (fd_ < 0) return Status::Internal("store not open");
  if (slot_size_ == 0) return Status::Internal("append before bulk load");
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
  EncodeSlot(page.data() + (index % per_page) * slot_size_, record);
  CDBS_RETURN_NOT_OK(WritePage(page_index, &page));
  ++record_count_;
  return WriteHeader();
}

void LabelStore::EncodeSlot(char* slot, const std::string& record) const {
  std::memset(slot, 0, slot_size_);
  util::StoreLE<uint16_t>(slot, static_cast<uint16_t>(record.size()));
  std::memcpy(slot + kSlotHeader, record.data(), record.size());
}

Status LabelStore::Sync() {
  if (fd_ < 0) return Status::Internal("store not open");
  // Errno-classified injection (ENOSPC/EDQUOT/EIO): persistent failures are
  // surfaced immediately without retrying — a full disk does not clear on
  // its own (docs/ROBUSTNESS.md).
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
  const size_t per_page = SlotsPerPage();
  const uint64_t data_pages =
      per_page == 0 ? 0 : (record_count_ + per_page - 1) / per_page;
  std::vector<char> page;
  for (uint64_t p = 0; p <= data_pages; ++p) {
    CDBS_RETURN_NOT_OK(ReadPage(p, &page));
  }
  return Status::OK();
}

Status LabelStore::ReadPage(uint64_t page_index, std::vector<char>* page) {
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
  util::StoreU32(page->data() + kPageDataSize,
                 util::Crc32c(page->data(), kPageDataSize));
  // Errno-classified injection: persistent, never retried (see Sync).
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
