#include "storage/wal.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/little_endian.h"
#include "util/status.h"

namespace cdbs::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/wal_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".wal";
    std::remove(path_.c_str());
  }

  void TearDown() override {
    util::Failpoints::Deactivate("wal.append.short_write");
    util::Failpoints::Deactivate("wal.sync.crash");
    std::remove(path_.c_str());
  }

  uint64_t FileSize() const {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return static_cast<uint64_t>(size);
  }

  void AppendRawBytes(const std::string& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }

  void TruncateTo(uint64_t size) {
    std::error_code ec;
    std::filesystem::resize_file(path_, size, ec);
    ASSERT_FALSE(ec);
  }

  void FlipByteAt(long offset) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    std::fseek(f, offset, SEEK_SET);
    std::fputc(byte ^ 0xFF, f);
    std::fclose(f);
  }

  std::string path_;
  obs::MetricRegistry registry_;
};

TEST_F(WalTest, AppendRecoverRoundTrip) {
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append("first-record").ok());
    ASSERT_TRUE(wal.Append("").ok());  // empty payloads are legal
    ASSERT_TRUE(wal.Append(std::string(10000, 'x')).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "first-record");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], std::string(10000, 'x'));
}

TEST_F(WalTest, RecoverTruncatesTornTail) {
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append("intact-one").ok());
    ASSERT_TRUE(wal.Append("intact-two").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  const uint64_t intact_size = FileSize();
  AppendRawBytes("torn");  // a crash mid-append: header fragment only

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "intact-one");
  EXPECT_EQ(payloads[1], "intact-two");
  // The torn bytes were physically cut away.
  EXPECT_EQ(FileSize(), intact_size);
  EXPECT_EQ(reopened.size_bytes(), intact_size);
}

TEST_F(WalTest, RecoverTruncatesRecordWithLengthPastEof) {
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append("good").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  const uint64_t intact_size = FileSize();
  // A full 16-byte header whose length field points far past the tail —
  // the payload never made it to disk.
  std::string header(16, '\0');
  header[4] = static_cast<char>(0xFF);
  header[5] = static_cast<char>(0xFF);
  AppendRawBytes(header);

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "good");
  EXPECT_EQ(FileSize(), intact_size);
}

TEST_F(WalTest, BitFlipDropsRecordAndCountsChecksumFailure) {
  uint64_t first_record_end = 0;
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append("record-one").ok());
    first_record_end = wal.size_bytes();
    ASSERT_TRUE(wal.Append("record-two").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // Flip one payload byte inside the second record.
  FlipByteAt(static_cast<long>(first_record_end) + 16 + 2);

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  const uint64_t failures_before =
      registry_.GetCounter("wal.checksum_failures")->value();
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "record-one");
  EXPECT_EQ(registry_.GetCounter("wal.checksum_failures")->value(),
            failures_before + 1);
  // The log was cut back to the last intact boundary.
  EXPECT_EQ(FileSize(), first_record_end);
}

TEST_F(WalTest, ResetEmptiesTheLog) {
  Wal wal(&registry_);
  ASSERT_TRUE(wal.Open(path_).ok());
  ASSERT_TRUE(wal.Append("soon gone").ok());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.size_bytes(), 0u);
  std::vector<std::string> payloads;
  ASSERT_TRUE(wal.Recover(&payloads).ok());
  EXPECT_TRUE(payloads.empty());
}

TEST_F(WalTest, InjectedShortWritePoisonsHandleAndRecoversClean) {
  Wal wal(&registry_);
  ASSERT_TRUE(wal.Open(path_).ok());
  ASSERT_TRUE(wal.Append("durable").ok());
  ASSERT_TRUE(wal.Sync().ok());
  const uint64_t intact_size = wal.size_bytes();

  ASSERT_TRUE(
      util::Failpoints::Activate("wal.append.short_write", "oneshot").ok());
  EXPECT_EQ(wal.Append("never lands").code(), StatusCode::kIoError);
  // The handle simulates a dead process: everything fails from here on.
  EXPECT_EQ(wal.Append("also fails").code(), StatusCode::kIoError);
  EXPECT_EQ(wal.Sync().code(), StatusCode::kIoError);

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "durable");
  EXPECT_EQ(reopened.size_bytes(), intact_size);
}

TEST_F(WalTest, AppendBatchRoundTripsEveryRecord) {
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(
        wal.AppendBatch({"alpha", "", std::string(5000, 'y'), "omega"}).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // The batch is one physical write but four logical records.
  EXPECT_EQ(registry_.GetCounter("wal.appends")->value(), 4u);
  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 4u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], std::string(5000, 'y'));
  EXPECT_EQ(payloads[3], "omega");
}

TEST_F(WalTest, PartiallySyncedBatchRecoversIntactPrefix) {
  // The group-commit regression: a batch whose tail never reached disk
  // must recover to an intact *prefix* of its records, with the torn tail
  // physically truncated at a record boundary.
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.AppendBatch({"batch-one", "batch-two"}).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // Record layout: 16-byte header + payload. Cut the file mid-way through
  // the second record's payload, as a crash between write-out and fsync
  // would.
  const uint64_t first_record_size = 16 + std::string("batch-one").size();
  TruncateTo(first_record_size + 16 + 3);

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "batch-one");
  EXPECT_EQ(FileSize(), first_record_size);
  EXPECT_EQ(reopened.size_bytes(), first_record_size);
}

TEST_F(WalTest, InjectedShortWriteTearsBatchAtRecordBoundary) {
  Wal wal(&registry_);
  ASSERT_TRUE(wal.Open(path_).ok());
  ASSERT_TRUE(wal.Append("durable").ok());
  ASSERT_TRUE(wal.Sync().ok());
  const uint64_t intact_size = wal.size_bytes();

  // The failpoint lands only half the batch buffer: the small first record
  // survives whole, the big second one is torn.
  ASSERT_TRUE(
      util::Failpoints::Activate("wal.append.short_write", "oneshot").ok());
  EXPECT_EQ(wal.AppendBatch({"tiny", std::string(1000, 'z')}).code(),
            StatusCode::kIoError);

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "durable");
  EXPECT_EQ(payloads[1], "tiny");
  EXPECT_EQ(reopened.size_bytes(), intact_size + 16 + 4);
}

TEST_F(WalTest, LsnsAreMonotonicAndSurviveReopen) {
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    EXPECT_EQ(wal.next_lsn(), 1u);
    EXPECT_EQ(wal.last_lsn(), 0u);
    ASSERT_TRUE(wal.AppendBatch({"one", "two"}).ok());
    EXPECT_EQ(wal.last_lsn(), 2u);
    ASSERT_TRUE(wal.Append("three").ok());
    EXPECT_EQ(wal.last_lsn(), 3u);
    ASSERT_TRUE(wal.Sync().ok());
  }
  // A reopened handle restores the counter from the persisted headers: the
  // next record continues the sequence instead of reusing LSN 1.
  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(reopened.next_lsn(), 4u);
  ASSERT_TRUE(reopened.Append("four").ok());
  EXPECT_EQ(reopened.last_lsn(), 4u);
}

TEST_F(WalTest, ReadFromResumesMidFile) {
  Wal wal(&registry_);
  ASSERT_TRUE(wal.Open(path_).ok());
  ASSERT_TRUE(wal.AppendBatch({"r1", "r2", "r3"}).ok());
  ASSERT_TRUE(wal.AppendBatch({"r4", "r5"}).ok());
  ASSERT_TRUE(wal.Sync().ok());

  // A fresh cursor sees everything, with the persisted LSNs.
  std::vector<WalRecord> all;
  ASSERT_TRUE(wal.ReadFrom(1, &all).ok());
  ASSERT_EQ(all.size(), 5u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].lsn, i + 1);
    EXPECT_EQ(all[i].payload, "r" + std::to_string(i + 1));
  }

  // A cursor resumed mid-file (a follower that already applied LSNs 1-3)
  // skips the consumed prefix and picks up exactly at the requested LSN.
  std::vector<WalRecord> resumed;
  ASSERT_TRUE(wal.ReadFrom(4, &resumed).ok());
  ASSERT_EQ(resumed.size(), 2u);
  EXPECT_EQ(resumed[0].lsn, 4u);
  EXPECT_EQ(resumed[0].payload, "r4");
  EXPECT_EQ(resumed[1].lsn, 5u);
  EXPECT_EQ(resumed[1].payload, "r5");

  // Past the tail: empty, not an error (the cursor is simply caught up).
  std::vector<WalRecord> caught_up;
  ASSERT_TRUE(wal.ReadFrom(6, &caught_up).ok());
  EXPECT_TRUE(caught_up.empty());
}

TEST_F(WalTest, ReadFromStopsCleanlyAtTornTail) {
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.AppendBatch({"intact-a", "intact-b"}).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  const uint64_t intact_size = FileSize();
  AppendRawBytes("torn-header-fragment");

  // A read-only cursor over the torn log returns the intact prefix and —
  // unlike Recover — leaves the file untouched.
  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(reopened.ReadFrom(1, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, "intact-a");
  EXPECT_EQ(records[1].payload, "intact-b");
  EXPECT_GT(FileSize(), intact_size);  // no truncation happened

  // Resuming across the tear: a cursor positioned past the last intact
  // record sees nothing rather than garbage.
  std::vector<WalRecord> past;
  ASSERT_TRUE(reopened.ReadFrom(3, &past).ok());
  EXPECT_TRUE(past.empty());
}

TEST_F(WalTest, ReadFromSkipsChecksumFailingTail) {
  uint64_t first_record_end = 0;
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append("kept").ok());
    first_record_end = wal.size_bytes();
    ASSERT_TRUE(wal.Append("flipped").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  FlipByteAt(static_cast<long>(first_record_end) + 16 + 1);

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(reopened.ReadFrom(1, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].payload, "kept");
}

TEST_F(WalTest, ResetPreservesLsnCounter) {
  Wal wal(&registry_);
  ASSERT_TRUE(wal.Open(path_).ok());
  ASSERT_TRUE(wal.AppendBatch({"a", "b", "c"}).ok());
  EXPECT_EQ(wal.last_lsn(), 3u);
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.size_bytes(), 0u);
  // The sequence continues: a reader holding LSN 3 can tell that 4 is the
  // next record, and that nothing in (3, 4) was silently skipped.
  ASSERT_TRUE(wal.Append("d").ok());
  EXPECT_EQ(wal.last_lsn(), 4u);
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadFrom(1, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 4u);
  EXPECT_EQ(records[0].payload, "d");
}

TEST_F(WalTest, InjectedSyncCrashPoisonsHandle) {
  Wal wal(&registry_);
  ASSERT_TRUE(wal.Open(path_).ok());
  ASSERT_TRUE(wal.Append("buffered").ok());
  ASSERT_TRUE(
      util::Failpoints::Activate("wal.sync.crash", "oneshot").ok());
  EXPECT_EQ(wal.Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(wal.Append("after death").code(), StatusCode::kIoError);
}

// Compression is a function of the payload alone: a zero-heavy payload of
// at least 64 bytes is stored zero-RLE compressed, a short one raw, and one
// log holds both. Recovery and the cursor return each byte-identical.
TEST_F(WalTest, CompressedAndRawRecordsRoundTrip) {
  const std::string big = "head" + std::string(200, '\0') + "tail";
  const std::string small = "tiny";  // under the threshold: stored raw
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.AppendBatch({big, small}).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  const uint64_t logical = 2 * 16 + big.size() + small.size();
  EXPECT_EQ(registry_.GetCounter("wal.logical_bytes")->value(), logical);
  EXPECT_LT(FileSize(), logical - 150) << "the big record was not compressed";
  EXPECT_EQ(registry_.GetCounter("wal.bytes_written")->value(), FileSize());

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  EXPECT_EQ(payloads, (std::vector<std::string>{big, small}));
  std::vector<WalRecord> records;
  ASSERT_TRUE(reopened.ReadFrom(1, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].payload, big);
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[1].payload, small);
}

// A compressed record torn mid-write is cut like any other torn tail.
TEST_F(WalTest, TornCompressedTailIsCut) {
  const std::string big = "head" + std::string(200, '\0') + "tail";
  uint64_t intact_size = 0;
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append("raw").ok());
    intact_size = wal.size_bytes();
    ASSERT_TRUE(wal.Append(big).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  ASSERT_LT(FileSize(), intact_size + 16 + big.size());  // compressed
  TruncateTo(FileSize() - 3);

  Wal reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE(reopened.Recover(&payloads).ok());
  EXPECT_EQ(payloads, std::vector<std::string>{"raw"});
  EXPECT_EQ(FileSize(), intact_size);
  EXPECT_EQ(reopened.next_lsn(), 2u);
}

// ---------------------------------------------------------------------------
// Compression skew: logs written with and without payload compression must
// replay under the current code in both directions.

class WalCompressionSkewTest : public WalTest {
 protected:
  void TearDown() override {
    ::unsetenv("CDBS_WAL_COMPRESS");
    WalTest::TearDown();
  }

  // Zero-padded payloads: each clears the 64-byte threshold and shrinks
  // under zero-RLE, so a compressing writer stores it compressed.
  static std::vector<std::string> CompressiblePayloads() {
    std::vector<std::string> payloads;
    for (int i = 0; i < 4; ++i) {
      payloads.push_back("record" + std::to_string(i) +
                         std::string(96, '\0') + "tail");
    }
    return payloads;
  }

  // One record exactly as a writer with compression off lays it down
  // (pre-compression code, or the retired CDBS_WAL_COMPRESS=0): the len
  // field's high bit clear and the payload stored verbatim.
  static std::string RawRecord(uint64_t lsn, const std::string& payload) {
    std::string record(16 + payload.size(), '\0');
    util::StoreU32(record.data() + 4, static_cast<uint32_t>(payload.size()));
    util::StoreU64(record.data() + 8, lsn);
    std::memcpy(record.data() + 16, payload.data(), payload.size());
    util::StoreU32(record.data(),
                   util::Crc32c(record.data() + 4, record.size() - 4));
    return record;
  }

  // Recover and ReadFrom both return `expected`, with LSNs 1..n.
  void ExpectReplays(const std::vector<std::string>& expected) {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    std::vector<std::string> payloads;
    ASSERT_TRUE(wal.Recover(&payloads).ok());
    EXPECT_EQ(payloads, expected);
    std::vector<WalRecord> records;
    ASSERT_TRUE(wal.ReadFrom(1, &records).ok());
    ASSERT_EQ(records.size(), expected.size());
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].lsn, i + 1);
      EXPECT_EQ(records[i].payload, expected[i]);
    }
    EXPECT_EQ(wal.next_lsn(), expected.size() + 1);
  }
};

// An uncompressed log of compressible payloads replays under the current
// (always-compressing) code, which then appends compressed records after
// it; the mixed log replays byte-identical.
TEST_F(WalCompressionSkewTest, UncompressedWalReplaysUnderNewSetting) {
  std::vector<std::string> expected = CompressiblePayloads();
  std::string raw_log;
  for (size_t i = 0; i < expected.size(); ++i) {
    raw_log += RawRecord(i + 1, expected[i]);
  }
  AppendRawBytes(raw_log);
  ExpectReplays(expected);

  const std::string appended = "appended" + std::string(96, '\0');
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    std::vector<std::string> payloads;
    ASSERT_TRUE(wal.Recover(&payloads).ok());
    ASSERT_TRUE(wal.Append(appended).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  ASSERT_LT(FileSize(), raw_log.size() + 16 + appended.size())
      << "the appended record was not compressed";
  expected.push_back(appended);
  ExpectReplays(expected);
}

// The compression switch is gone: a process still carrying
// CDBS_WAL_COMPRESS=0 writes compressed records anyway and replays them
// byte-identical.
TEST_F(WalCompressionSkewTest, CompressedWalReplaysUnderDisabledSetting) {
  ASSERT_EQ(::setenv("CDBS_WAL_COMPRESS", "0", 1), 0);
  const std::vector<std::string> expected = CompressiblePayloads();
  uint64_t logical = 0;
  for (const std::string& p : expected) logical += 16 + p.size();
  {
    Wal wal(&registry_);
    ASSERT_TRUE(wal.Open(path_).ok());
    std::vector<std::string_view> views(expected.begin(), expected.end());
    ASSERT_TRUE(wal.AppendBatch(views).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  EXPECT_LT(FileSize(), logical) << "the records were not compressed";
  ExpectReplays(expected);
}

}  // namespace
}  // namespace cdbs::storage
