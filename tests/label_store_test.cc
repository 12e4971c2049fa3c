#include "storage/label_store.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.h"
#include "util/random.h"

namespace cdbs::storage {
namespace {

class LabelStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/label_store_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
    ASSERT_TRUE(store_.Open(path_).ok());
  }

  // Disarms the sites the fault cases arm, even after a failed assertion,
  // then re-arms any CDBS_FAILPOINTS list: Deactivate erases a site however
  // it was armed, and later cases must run under the environment's fault mix.
  void TearDown() override {
    util::Failpoints::Deactivate("storage.write_page.io_error");
    util::Failpoints::Deactivate("storage.write_page.error");
    if (const char* env = std::getenv("CDBS_FAILPOINTS")) {
      ASSERT_TRUE(util::Failpoints::ActivateFromList(env).ok());
    }
    std::remove(path_.c_str());
  }

  std::string path_;
  LabelStore store_;
};

TEST_F(LabelStoreTest, BulkLoadAndReadBack) {
  const std::vector<std::string> records = {"alpha", "b", "gamma-long-one",
                                            ""};
  ASSERT_TRUE(store_.BulkLoad(records, 4).ok());
  EXPECT_EQ(store_.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    std::string got;
    ASSERT_TRUE(store_.Read(i, &got).ok()) << i;
    EXPECT_EQ(got, records[i]) << i;
  }
}

TEST_F(LabelStoreTest, SlotSizeIncludesHeadroom) {
  ASSERT_TRUE(store_.BulkLoad({"12345678"}, 6).ok());
  EXPECT_EQ(store_.slot_size(), 8u + 2u + 6u);
}

TEST_F(LabelStoreTest, RewriteInPlace) {
  ASSERT_TRUE(store_.BulkLoad({"one", "two", "three"}, 8).ok());
  ASSERT_TRUE(store_.Rewrite(1, "TWO-bigger").ok());
  std::string got;
  ASSERT_TRUE(store_.Read(1, &got).ok());
  EXPECT_EQ(got, "TWO-bigger");
  // Neighbours untouched.
  ASSERT_TRUE(store_.Read(0, &got).ok());
  EXPECT_EQ(got, "one");
  ASSERT_TRUE(store_.Read(2, &got).ok());
  EXPECT_EQ(got, "three");
}

TEST_F(LabelStoreTest, RewriteRejectsOversizedRecord) {
  ASSERT_TRUE(store_.BulkLoad({"abc"}, 2).ok());
  const std::string big(64, 'x');
  const Status status = store_.Rewrite(0, big);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST_F(LabelStoreTest, ReadOutOfRange) {
  ASSERT_TRUE(store_.BulkLoad({"abc"}, 2).ok());
  std::string got;
  EXPECT_EQ(store_.Read(5, &got).code(), StatusCode::kOutOfRange);
}

TEST_F(LabelStoreTest, AppendExtends) {
  ASSERT_TRUE(store_.BulkLoad({"a", "b"}, 8).ok());
  ASSERT_TRUE(store_.Append("c").ok());
  EXPECT_EQ(store_.size(), 3u);
  std::string got;
  ASSERT_TRUE(store_.Read(2, &got).ok());
  EXPECT_EQ(got, "c");
}

TEST_F(LabelStoreTest, ManyRecordsSpanPages) {
  std::vector<std::string> records;
  records.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    records.push_back("record-" + std::to_string(i));
  }
  ASSERT_TRUE(store_.BulkLoad(records, 4).ok());
  // Spot-check across pages.
  for (const size_t i : {0u, 1u, 255u, 256u, 1024u, 4999u}) {
    std::string got;
    ASSERT_TRUE(store_.Read(i, &got).ok()) << i;
    EXPECT_EQ(got, records[i]);
  }
}

TEST_F(LabelStoreTest, IoStatsCountPages) {
  std::vector<std::string> records(1000, "0123456789");
  ASSERT_TRUE(store_.BulkLoad(records, 4).ok());
  const uint64_t writes_after_load = store_.io_stats().page_writes;
  EXPECT_GT(writes_after_load, 0u);
  std::string got;
  ASSERT_TRUE(store_.Read(500, &got).ok());
  EXPECT_EQ(store_.io_stats().page_reads, 1u);
  ASSERT_TRUE(store_.Rewrite(500, "new-content").ok());
  EXPECT_EQ(store_.io_stats().page_reads, 2u);
  EXPECT_EQ(store_.io_stats().page_writes, writes_after_load + 1);
}

TEST_F(LabelStoreTest, RewriteAllSimulatesRelabeling) {
  // Mass re-label: rewriting N records touches ~N/slots_per_page pages --
  // the I/O asymmetry behind Figure 7.
  std::vector<std::string> records(2000, "aaaaaaaa");
  ASSERT_TRUE(store_.BulkLoad(records, 4).ok());
  const uint64_t before = store_.io_stats().page_writes;
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store_.Rewrite(i, "bbbbbbbb").ok());
  }
  EXPECT_EQ(store_.io_stats().page_writes - before, 2000u);
}

TEST_F(LabelStoreTest, EmptyStoreHasAValidHeader) {
  // Open() writes and syncs a checksummed header before any record.
  EXPECT_EQ(store_.size(), 0u);
  ASSERT_TRUE(store_.VerifyChecksums().ok());
}

TEST_F(LabelStoreTest, OpenRejectsMissingDirectory) {
  LabelStore other;
  EXPECT_EQ(other.Open("/nonexistent/dir/store.db").code(),
            StatusCode::kIoError);
}

TEST_F(LabelStoreTest, ReadDetectsTruncatedDataPages) {
  std::vector<std::string> records(2000, "0123456789");
  ASSERT_TRUE(store_.BulkLoad(records, 4).ok());
  // Chop the file back to the header page only.
  ASSERT_EQ(::truncate(path_.c_str(),
                       static_cast<off_t>(LabelStore::kPageSize)),
            0);
  std::string got;
  EXPECT_EQ(store_.Read(1999, &got).code(), StatusCode::kTruncated);
  EXPECT_EQ(store_.VerifyChecksums().code(), StatusCode::kTruncated);
}

namespace {
uint64_t CounterValue(const LabelStore& store, const std::string& name) {
  for (const auto& m : store.metrics().Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

void FlipByteInFile(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(byte ^ 0x04, f);  // single bit flip
  std::fclose(f);
}
}  // namespace

TEST_F(LabelStoreTest, BitFlipInDataPageIsDetectedOnRead) {
  std::vector<std::string> records(100, "payload");
  ASSERT_TRUE(store_.BulkLoad(records, 4).ok());
  ASSERT_TRUE(store_.Sync().ok());
  // Flip one bit inside the first data page, under the open handle.
  FlipByteInFile(path_, static_cast<long>(LabelStore::kPageSize) + 37);

  std::string got;
  const Status status = store_.Read(0, &got);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(CounterValue(store_, "storage.checksum_failures"), 1u);
  // Whole-store verification flags it too.
  EXPECT_EQ(store_.VerifyChecksums().code(), StatusCode::kCorruption);
}

TEST_F(LabelStoreTest, BitFlipInHeaderFailsVerifyChecksums) {
  ASSERT_TRUE(store_.BulkLoad({"alpha", "beta"}, 4).ok());
  ASSERT_TRUE(store_.Sync().ok());
  ASSERT_TRUE(store_.VerifyChecksums().ok());
  FlipByteInFile(path_, 9);  // inside the slot-size field

  EXPECT_EQ(store_.VerifyChecksums().code(), StatusCode::kCorruption);
  EXPECT_EQ(CounterValue(store_, "storage.checksum_failures"), 1u);
  // Data pages are intact; only the header page fails its CRC.
  std::string got;
  ASSERT_TRUE(store_.Read(1, &got).ok());
  EXPECT_EQ(got, "beta");
}

// Transient write errors past the retry budget fail the call but leave the
// handle usable: the same rewrite succeeds once the fault clears.
TEST_F(LabelStoreTest, TransientFailureThenRetrySucceeds) {
  ASSERT_TRUE(store_.BulkLoad({"one", "two", "three"}, 8).ok());
  ASSERT_TRUE(
      util::Failpoints::Activate("storage.write_page.io_error", "always")
          .ok());
  EXPECT_EQ(store_.Rewrite(1, "TWO").code(), StatusCode::kIoError);
  util::Failpoints::Deactivate("storage.write_page.io_error");

  ASSERT_TRUE(store_.Rewrite(1, "TWO").ok());
  ASSERT_TRUE(store_.Append("four").ok());
  ASSERT_TRUE(store_.Sync().ok());
  ASSERT_TRUE(store_.VerifyChecksums().ok());
  const char* expected[] = {"one", "TWO", "three", "four"};
  ASSERT_EQ(store_.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    std::string got;
    ASSERT_TRUE(store_.Read(i, &got).ok()) << i;
    EXPECT_EQ(got, expected[i]) << i;
  }
}

// A single injected I/O error is absorbed by retry-with-backoff: the write
// succeeds and the retry counter moves.
TEST_F(LabelStoreTest, OneTransientErrorIsRetriedAway) {
  ASSERT_TRUE(store_.BulkLoad({"a", "b"}, 8).ok());
  ASSERT_TRUE(
      util::Failpoints::Activate("storage.write_page.io_error", "oneshot")
          .ok());
  ASSERT_TRUE(store_.Rewrite(0, "A").ok());
  EXPECT_GE(CounterValue(store_, "storage.io_retries"), 1u);
  std::string got;
  ASSERT_TRUE(store_.Read(0, &got).ok());
  EXPECT_EQ(got, "A");
}

// An errno-classified failure is persistent: surfaced at once with its
// mapped code (a full disk is ResourceExhausted), never retried.
TEST_F(LabelStoreTest, FullDiskIsNotRetried) {
  ASSERT_TRUE(store_.BulkLoad({"a", "b"}, 8).ok());
  const uint64_t writes = store_.io_stats().page_writes;
  const uint64_t fired =
      util::Failpoints::InjectionCount("storage.write_page.error");
  ASSERT_TRUE(
      util::Failpoints::Activate("storage.write_page.error", "enospc").ok());
  EXPECT_EQ(store_.Rewrite(0, "A").code(), StatusCode::kResourceExhausted);
  util::Failpoints::Deactivate("storage.write_page.error");
  // One evaluation of the site, no page written: the failure was final.
  EXPECT_EQ(util::Failpoints::InjectionCount("storage.write_page.error"),
            fired + 1);
  EXPECT_EQ(store_.io_stats().page_writes, writes);
  std::string got;
  ASSERT_TRUE(store_.Read(0, &got).ok());
  EXPECT_EQ(got, "a");
}

// The store is one file: no log or other sibling is created next to it.
TEST_F(LabelStoreTest, WritesOnlyTheStoreFile) {
  const std::filesystem::path dir =
      std::filesystem::path(path_).concat(".dir");
  std::filesystem::create_directory(dir);
  {
    LabelStore store;
    ASSERT_TRUE(store.Open((dir / "labels.db").string()).ok());
    ASSERT_TRUE(store.BulkLoad({"a", "b", "c"}, 8).ok());
    ASSERT_TRUE(store.Rewrite(1, "B").ok());
    ASSERT_TRUE(store.Append("d").ok());
    ASSERT_TRUE(store.Sync().ok());
  }
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(names, std::vector<std::string>{"labels.db"});
}

TEST_F(LabelStoreTest, SyncSucceeds) {
  ASSERT_TRUE(store_.BulkLoad({"x"}, 2).ok());
  EXPECT_TRUE(store_.Sync().ok());
}

TEST_F(LabelStoreTest, RandomizedRewriteReadBack) {
  util::Random rng(99);
  std::vector<std::string> records;
  records.reserve(800);
  for (int i = 0; i < 800; ++i) {
    records.push_back(std::string(1 + rng.Uniform(12), 'a'));
  }
  ASSERT_TRUE(store_.BulkLoad(records, 8).ok());
  for (int round = 0; round < 500; ++round) {
    const size_t idx = rng.Uniform(records.size());
    records[idx] = std::string(1 + rng.Uniform(16), 'z');
    ASSERT_TRUE(store_.Rewrite(idx, records[idx]).ok());
  }
  for (size_t i = 0; i < records.size(); ++i) {
    std::string got;
    ASSERT_TRUE(store_.Read(i, &got).ok());
    ASSERT_EQ(got, records[i]) << i;
  }
}

}  // namespace
}  // namespace cdbs::storage
