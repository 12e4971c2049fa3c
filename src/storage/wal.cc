#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>

#include "obs/trace.h"
#include "storage/io_retry.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/label_codec.h"
#include "util/little_endian.h"

namespace cdbs::storage {

namespace {

constexpr size_t kRecordHeader = 16;  // u32 crc32c + u32 len + u64 lsn

// High bit of the record's len field: the payload is stored zero-RLE
// compressed. Legacy records never set it (a WAL payload is far below
// 2 GiB), so the flag is unambiguous across versions.
constexpr uint32_t kCompressedLenBit = 0x80000000u;
constexpr uint32_t kLenMask = 0x7FFFFFFFu;
// Payloads below this size are never worth the token overhead.
constexpr size_t kCompressMinBytes = 64;

}  // namespace

Wal::Wal(obs::MetricRegistry* registry, const std::string& failpoint_scope)
    : scoped_append_error_(failpoint_scope.empty()
                               ? ""
                               : "wal." + failpoint_scope + ".append.error"),
      scoped_sync_error_(failpoint_scope.empty()
                             ? ""
                             : "wal." + failpoint_scope + ".sync.error") {
  appends_ = registry->GetCounter("wal.appends", "Records appended to the WAL");
  bytes_written_ =
      registry->GetCounter("wal.bytes_written", "Bytes appended to the WAL");
  logical_bytes_ = registry->GetCounter(
      "wal.logical_bytes", "Pre-compression bytes handed to WAL appends");
  syncs_ = registry->GetCounter("wal.syncs", "WAL fsyncs");
  replayed_records_ = registry->GetCounter(
      "wal.replayed_records", "Intact records replayed during recovery");
  checksum_failures_ = registry->GetCounter(
      "wal.checksum_failures", "WAL records dropped for a bad checksum");
  truncated_bytes_ = registry->GetCounter(
      "wal.truncated_bytes", "Torn-tail bytes truncated during recovery");
  io_retries_ = registry->GetCounter(
      "wal.io_retries", "Transient WAL I/O failures that were retried");
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::Open(const std::string& path) {
  if (fd_ >= 0) ::close(fd_);
  crashed_ = false;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return Status::IoError("cannot open WAL " + path);
  path_ = path;
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Status::IoError("fstat failed on WAL");
  end_offset_ = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status Wal::InjectedError(const std::string& scoped_site, const char* site) {
  int injected = 0;
  const bool fired = CDBS_FAILPOINT_ERRNO(site, &injected) ||
                     (!scoped_site.empty() &&
                      CDBS_FAILPOINT_ERRNO(scoped_site, &injected));
  return fired ? ErrnoToStatus(injected, std::string("injected ") + site)
               : Status::OK();
}

Status Wal::WriteAt(uint64_t offset, const char* data, size_t n) {
  CDBS_RETURN_NOT_OK(InjectedError(scoped_append_error_, "wal.append.error"));
  for (int attempt = 0;; ++attempt) {
    bool failed = CDBS_FAILPOINT("wal.append.io_error");
    if (!failed) {
      const ssize_t written =
          ::pwrite(fd_, data, n, static_cast<off_t>(offset));
      if (written == static_cast<ssize_t>(n)) return Status::OK();
      failed = (written < 0 && (errno == EINTR || errno == EAGAIN)) ||
               written >= 0;  // short write: retry the whole record
      if (!failed) return Status::IoError("pwrite failed on WAL");
    }
    if (attempt + 1 >= internal::kMaxIoAttempts) {
      return Status::IoError("WAL write failed after retries");
    }
    io_retries_->Increment();
    internal::BackoffSleep(attempt);
  }
}

Status Wal::Append(std::string_view payload) {
  return AppendBatch({payload});
}

Status Wal::AppendBatch(const std::vector<std::string_view>& payloads) {
  if (fd_ < 0) return Status::Internal("WAL not open");
  if (crashed_) return Status::IoError("WAL crashed (injected)");
  if (payloads.empty()) return Status::OK();
  // Traced when the caller's thread carries a scope (the group-commit
  // writer); free otherwise.
  obs::TraceSpan span(obs::SpanName::kWalAppend);
  // Compress each payload that shrinks; the stored length carries the
  // compressed-bit flag so the CRC (computed over the stored bytes) stays
  // self-consistent for readers of either form.
  size_t logical = 0;
  std::vector<std::string> compressed(payloads.size());
  std::vector<std::string_view> stored(payloads.size());
  std::vector<bool> is_compressed(payloads.size(), false);
  size_t total = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    logical += kRecordHeader + payloads[i].size();
    stored[i] = payloads[i];
    if (util::MaybeCompressBytes(payloads[i], kCompressMinBytes,
                                 &compressed[i])) {
      stored[i] = compressed[i];
      is_compressed[i] = true;
    }
    total += kRecordHeader + stored[i].size();
  }
  std::string buf(total, '\0');
  char* out = buf.data();
  uint64_t lsn = next_lsn_;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::string_view payload = stored[i];
    const uint32_t len = static_cast<uint32_t>(payload.size()) |
                         (is_compressed[i] ? kCompressedLenBit : 0);
    util::StoreU32(out + 4, len);
    util::StoreU64(out + 8, lsn++);
    std::memcpy(out + kRecordHeader, payload.data(), payload.size());
    util::StoreU32(out,
                   util::Crc32c(out + 4, kRecordHeader - 4 + payload.size()));
    out += kRecordHeader + payload.size();
  }

  if (CDBS_FAILPOINT("wal.append.short_write")) {
    // Simulated crash mid-append: half the buffer reaches the file, then
    // this WAL handle is dead. Recovery must replay whichever leading
    // records survived whole and truncate the torn tail.
    ::pwrite(fd_, buf.data(), buf.size() / 2,
             static_cast<off_t>(end_offset_));
    crashed_ = true;
    return Status::IoError("injected crash: WAL short write");
  }
  CDBS_RETURN_NOT_OK(WriteAt(end_offset_, buf.data(), buf.size()));
  end_offset_ += buf.size();
  next_lsn_ = lsn;
  appends_->Increment(payloads.size());
  bytes_written_->Increment(buf.size());
  logical_bytes_->Increment(logical);
  return Status::OK();
}

Status Wal::Sync() {
  if (fd_ < 0) return Status::Internal("WAL not open");
  if (crashed_) return Status::IoError("WAL crashed (injected)");
  obs::TraceSpan span(obs::SpanName::kWalFsync);
  if (CDBS_FAILPOINT("wal.sync.crash")) {
    crashed_ = true;
    return Status::IoError("injected crash: WAL sync");
  }
  CDBS_RETURN_NOT_OK(InjectedError(scoped_sync_error_, "wal.sync.error"));
  for (int attempt = 0;; ++attempt) {
    const bool failed =
        CDBS_FAILPOINT("wal.sync.io_error") || ::fdatasync(fd_) != 0;
    if (!failed) break;
    if (attempt + 1 >= internal::kMaxIoAttempts) {
      return Status::IoError("WAL fdatasync failed after retries");
    }
    io_retries_->Increment();
    internal::BackoffSleep(attempt);
  }
  syncs_->Increment();
  return Status::OK();
}

Status Wal::Scan(uint64_t limit, uint64_t from, std::vector<WalRecord>* out,
                 uint64_t* end, bool* bad_crc) const {
  uint64_t offset = 0;
  while (offset + kRecordHeader <= limit) {
    char header[kRecordHeader];
    if (::pread(fd_, header, kRecordHeader, static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(kRecordHeader)) {
      return Status::IoError("pread failed on WAL header");
    }
    const uint32_t crc = util::LoadU32(header);
    const uint32_t len_field = util::LoadU32(header + 4);
    const bool compressed = (len_field & kCompressedLenBit) != 0;
    const uint32_t len = len_field & kLenMask;
    const uint64_t lsn = util::LoadU64(header + 8);
    if (offset + kRecordHeader + len > limit) break;  // torn append
    std::string payload(len, '\0');
    if (len > 0 &&
        ::pread(fd_, payload.data(), len,
                static_cast<off_t>(offset + kRecordHeader)) !=
            static_cast<ssize_t>(len)) {
      return Status::IoError("pread failed on WAL payload");
    }
    uint32_t actual = util::Crc32c(header + 4, kRecordHeader - 4);
    actual = util::Crc32c(payload.data(), payload.size(), actual);
    if (actual != crc) {
      *bad_crc = true;
      break;
    }
    offset += kRecordHeader + len;
    if (lsn < from) continue;
    if (compressed) {
      // The CRC verified, so the stored bytes are exactly what the writer
      // produced; a decompression failure here is real corruption, not a
      // torn tail — surface it instead of silently truncating.
      std::string raw;
      size_t pos = 0;
      CDBS_RETURN_NOT_OK(util::DecompressBytes(payload, &pos, kLenMask, &raw));
      payload = std::move(raw);
    }
    out->push_back(WalRecord{lsn, std::move(payload), offset});
  }
  *end = offset;
  return Status::OK();
}

Status Wal::Recover(std::vector<std::string>* payloads) {
  if (fd_ < 0) return Status::Internal("WAL not open");
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Status::IoError("fstat failed on WAL");
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  std::vector<WalRecord> records;
  bool bad_crc = false;
  CDBS_RETURN_NOT_OK(Scan(size, 0, &records, &end_offset_, &bad_crc));
  if (bad_crc) checksum_failures_->Increment();
  for (WalRecord& record : records) {
    if (record.lsn + 1 > next_lsn_) next_lsn_ = record.lsn + 1;
    payloads->push_back(std::move(record.payload));
  }
  replayed_records_->Increment(records.size());
  if (end_offset_ < size) {  // a torn or checksum-failing tail
    if (::ftruncate(fd_, static_cast<off_t>(end_offset_)) != 0) {
      return Status::IoError("cannot truncate torn WAL tail");
    }
    truncated_bytes_->Increment(size - end_offset_);
  }
  return Status::OK();
}

Status Wal::ReadFrom(uint64_t lsn, std::vector<WalRecord>* out) const {
  if (fd_ < 0) return Status::Internal("WAL not open");
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Status::IoError("fstat failed on WAL");
  // Bound the scan to the logical tail: bytes past end_offset_ belong to
  // an append that has not completed (or a torn tail Recover has not seen
  // yet) and must not be surfaced to a cursor. A torn or checksum-failing
  // tail simply ends the scan; nothing is truncated.
  uint64_t end = 0;
  bool bad_crc = false;
  return Scan(std::min(static_cast<uint64_t>(st.st_size), end_offset_), lsn,
              out, &end, &bad_crc);
}

Status Wal::Reset() { return Truncate(0, next_lsn_); }

Status Wal::Truncate(uint64_t offset, uint64_t next_lsn) {
  if (fd_ < 0) return Status::Internal("WAL not open");
  if (crashed_) return Status::IoError("WAL crashed (injected)");
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    crashed_ = true;
    return Status::IoError("cannot truncate WAL");
  }
  end_offset_ = offset;
  next_lsn_ = next_lsn;
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& pieces) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoToStatus(errno, "cannot create " + tmp);
  bool ok = true;
  for (std::string_view piece : pieces) {
    while (ok && !piece.empty()) {
      const ssize_t n = ::write(fd, piece.data(), piece.size());
      ok = n > 0 || (n < 0 && errno == EINTR);
      if (n > 0) piece.remove_prefix(static_cast<size_t>(n));
    }
  }
  // An injected crash leaves the temp file behind, as a real one would.
  if (ok && CDBS_FAILPOINT("file.sync.crash")) {
    ::close(fd);
    return Status::IoError("injected crash: file sync");
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (ok && CDBS_FAILPOINT("file.rename.crash")) {
    return Status::IoError("injected crash: file rename");
  }
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status failed = ErrnoToStatus(errno, "cannot write " + path);
    ::unlink(tmp.c_str());
    return failed;
  }
  // Make the rename itself durable.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  ok = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  return ok ? Status::OK() : Status::IoError("cannot fsync " + dir);
}

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return errno == ENOENT ? Status::NotFound("no file " + path)
                           : Status::IoError("cannot open " + path);
  }
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return in.bad() ? Status::IoError("cannot read " + path) : Status::OK();
}

}  // namespace cdbs::storage
