#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/trace.h"
#include "storage/io_retry.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/label_codec.h"

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

// -1: consult the env knob; 0/1: programmatic override (benches).
std::atomic<int> g_compression_override{-1};

bool EnvCompressionEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("CDBS_WAL_COMPRESS");
    return v == nullptr || std::string_view(v) != "0";
  }();
  return enabled;
}

void PutU32(char* dst, uint32_t v) { std::memcpy(dst, &v, sizeof(v)); }
void PutU64(char* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }
uint32_t GetU32(const char* src) {
  uint32_t v = 0;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
uint64_t GetU64(const char* src) {
  uint64_t v = 0;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

}  // namespace

void Wal::set_compression_enabled(bool enabled) {
  g_compression_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool Wal::compression_enabled() {
  const int o = g_compression_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return EnvCompressionEnabled();
}

Wal::Wal(obs::MetricRegistry* registry) {
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

Status Wal::WriteAt(uint64_t offset, const char* data, size_t n) {
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
  const bool compress = compression_enabled();
  size_t logical = 0;
  std::vector<std::string> compressed(payloads.size());
  std::vector<std::string_view> stored(payloads.size());
  std::vector<bool> is_compressed(payloads.size(), false);
  size_t total = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    logical += kRecordHeader + payloads[i].size();
    stored[i] = payloads[i];
    if (compress && util::MaybeCompressBytes(payloads[i], kCompressMinBytes,
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
    PutU32(out + 4, len);
    PutU64(out + 8, lsn++);
    std::memcpy(out + kRecordHeader, payload.data(), payload.size());
    PutU32(out, util::Crc32c(out + 4, kRecordHeader - 4 + payload.size()));
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

Status Wal::Recover(std::vector<std::string>* payloads) {
  if (fd_ < 0) return Status::Internal("WAL not open");
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Status::IoError("fstat failed on WAL");
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  uint64_t offset = 0;
  bool torn = false;
  while (offset + kRecordHeader <= size) {
    char header[kRecordHeader];
    if (::pread(fd_, header, kRecordHeader, static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(kRecordHeader)) {
      return Status::IoError("pread failed on WAL header");
    }
    const uint32_t crc = GetU32(header);
    const uint32_t len_field = GetU32(header + 4);
    const bool compressed = (len_field & kCompressedLenBit) != 0;
    const uint32_t len = len_field & kLenMask;
    const uint64_t lsn = GetU64(header + 8);
    if (offset + kRecordHeader + len > size) {
      torn = true;  // length runs past the tail: torn append
      break;
    }
    std::string payload(len, '\0');
    if (len > 0 &&
        ::pread(fd_, payload.data(), len,
                static_cast<off_t>(offset + kRecordHeader)) !=
            static_cast<ssize_t>(len)) {
      return Status::IoError("pread failed on WAL payload");
    }
    uint32_t actual = util::Crc32c(header + 4, kRecordHeader - 4);
    actual = util::Crc32c(payload.data(), payload.size(),
                          actual);
    if (actual != crc) {
      checksum_failures_->Increment();
      torn = true;
      break;
    }
    if (compressed) {
      // The CRC verified, so the stored bytes are exactly what the writer
      // produced; a decompression failure here is real corruption, not a
      // torn tail — surface it instead of silently truncating.
      std::string raw;
      size_t pos = 0;
      CDBS_RETURN_NOT_OK(
          util::DecompressBytes(payload, &pos, kLenMask, &raw));
      payload = std::move(raw);
    }
    payloads->push_back(std::move(payload));
    if (lsn + 1 > next_lsn_) next_lsn_ = lsn + 1;
    replayed_records_->Increment();
    offset += kRecordHeader + len;
  }
  if (offset < size) torn = true;  // trailing sub-header bytes
  if (torn) {
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
      return Status::IoError("cannot truncate torn WAL tail");
    }
    truncated_bytes_->Increment(size - offset);
  }
  end_offset_ = offset;
  return Status::OK();
}

Status Wal::ReadFrom(uint64_t lsn, std::vector<WalRecord>* out) const {
  if (fd_ < 0) return Status::Internal("WAL not open");
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Status::IoError("fstat failed on WAL");
  // Bound the scan to the logical tail: bytes past end_offset_ belong to
  // an append that has not completed (or a torn tail Recover has not seen
  // yet) and must not be surfaced to a cursor.
  const uint64_t size =
      std::min(static_cast<uint64_t>(st.st_size), end_offset_);
  uint64_t offset = 0;
  while (offset + kRecordHeader <= size) {
    char header[kRecordHeader];
    if (::pread(fd_, header, kRecordHeader, static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(kRecordHeader)) {
      return Status::IoError("pread failed on WAL header");
    }
    const uint32_t crc = GetU32(header);
    const uint32_t len_field = GetU32(header + 4);
    const bool compressed = (len_field & kCompressedLenBit) != 0;
    const uint32_t len = len_field & kLenMask;
    const uint64_t record_lsn = GetU64(header + 8);
    if (offset + kRecordHeader + len > size) break;  // torn tail: stop
    std::string payload(len, '\0');
    if (len > 0 &&
        ::pread(fd_, payload.data(), len,
                static_cast<off_t>(offset + kRecordHeader)) !=
            static_cast<ssize_t>(len)) {
      return Status::IoError("pread failed on WAL payload");
    }
    uint32_t actual = util::Crc32c(header + 4, kRecordHeader - 4);
    actual = util::Crc32c(payload.data(), payload.size(), actual);
    if (actual != crc) break;  // checksum-failing tail: stop, no truncate
    if (record_lsn >= lsn) {
      if (compressed) {
        std::string raw;
        size_t pos = 0;
        CDBS_RETURN_NOT_OK(
            util::DecompressBytes(payload, &pos, kLenMask, &raw));
        payload = std::move(raw);
      }
      out->push_back(WalRecord{record_lsn, std::move(payload)});
    }
    offset += kRecordHeader + len;
  }
  return Status::OK();
}

Status Wal::Reset() {
  if (fd_ < 0) return Status::Internal("WAL not open");
  if (crashed_) return Status::IoError("WAL crashed (injected)");
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IoError("cannot reset WAL");
  }
  end_offset_ = 0;
  return Status::OK();
}

}  // namespace cdbs::storage
