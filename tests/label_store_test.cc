#include "storage/label_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(LabelStore::WalPath(path_).c_str());
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

TEST_F(LabelStoreTest, ReopenExistingPreservesRecords) {
  const std::vector<std::string> records = {"alpha", "beta", "gamma"};
  ASSERT_TRUE(store_.BulkLoad(records, 4).ok());
  ASSERT_TRUE(store_.Append("delta").ok());
  ASSERT_TRUE(store_.Sync().ok());

  LabelStore reopened;
  ASSERT_TRUE(reopened.OpenExisting(path_).ok());
  EXPECT_EQ(reopened.size(), 4u);
  EXPECT_EQ(reopened.slot_size(), store_.slot_size());
  std::string got;
  ASSERT_TRUE(reopened.Read(0, &got).ok());
  EXPECT_EQ(got, "alpha");
  ASSERT_TRUE(reopened.Read(3, &got).ok());
  EXPECT_EQ(got, "delta");
  // The reopened handle is fully writable.
  ASSERT_TRUE(reopened.Rewrite(1, "BETA").ok());
  ASSERT_TRUE(reopened.Read(1, &got).ok());
  EXPECT_EQ(got, "BETA");
}

TEST_F(LabelStoreTest, OpenExistingRejectsGarbage) {
  const std::string garbage = ::testing::TempDir() + "/garbage_store.bin";
  {
    std::FILE* f = std::fopen(garbage.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (size_t i = 0; i < LabelStore::kPageSize; ++i) {
      std::fputc('j', f);  // a full header page of junk: wrong magic
    }
    std::fclose(f);
  }
  LabelStore other;
  EXPECT_EQ(other.OpenExisting(garbage).code(), StatusCode::kCorruption);
  std::remove(garbage.c_str());
  std::remove(LabelStore::WalPath(garbage).c_str());
}

TEST_F(LabelStoreTest, OpenExistingDistinguishesTruncatedFromWrongMagic) {
  // A file cut short of even one header page is Truncated, not Corruption.
  const std::string stub = ::testing::TempDir() + "/short_store.bin";
  {
    std::FILE* f = std::fopen(stub.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a label store", f);
    std::fclose(f);
  }
  LabelStore other;
  EXPECT_EQ(other.OpenExisting(stub).code(), StatusCode::kTruncated);
  std::remove(stub.c_str());
  std::remove(LabelStore::WalPath(stub).c_str());
}

TEST_F(LabelStoreTest, OpenExistingDetectsTruncatedDataPages) {
  std::vector<std::string> records(2000, "0123456789");
  ASSERT_TRUE(store_.BulkLoad(records, 4).ok());
  // Chop the file back to the header page only.
  ASSERT_EQ(::truncate(path_.c_str(),
                       static_cast<off_t>(LabelStore::kPageSize)),
            0);
  LabelStore other;
  EXPECT_EQ(other.OpenExisting(path_).code(), StatusCode::kTruncated);
}

TEST_F(LabelStoreTest, EmptyStoreIsDurableAndReopenable) {
  // Open() syncs a valid header before any record arrives.
  LabelStore reopened;
  ASSERT_TRUE(reopened.OpenExisting(path_).ok());
  EXPECT_EQ(reopened.size(), 0u);
  ASSERT_TRUE(reopened.VerifyChecksums().ok());
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
  // Flip one bit inside the first data page, past the slots we sampled.
  FlipByteInFile(path_, static_cast<long>(LabelStore::kPageSize) + 37);

  LabelStore reopened;
  ASSERT_TRUE(reopened.OpenExisting(path_).ok());  // header is fine
  std::string got;
  const Status status = reopened.Read(0, &got);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(CounterValue(reopened, "storage.checksum_failures"), 1u);
  // Whole-store verification flags it too.
  EXPECT_EQ(reopened.VerifyChecksums().code(), StatusCode::kCorruption);
}

TEST_F(LabelStoreTest, BitFlipInHeaderIsDetectedOnOpen) {
  ASSERT_TRUE(store_.BulkLoad({"alpha", "beta"}, 4).ok());
  ASSERT_TRUE(store_.Sync().ok());
  FlipByteInFile(path_, 9);  // inside the slot-size field

  LabelStore reopened;
  const Status status = reopened.OpenExisting(path_);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(CounterValue(reopened, "storage.checksum_failures"), 1u);
}

TEST_F(LabelStoreTest, ApplyBatchAppliesRewritesAndAppendsTogether) {
  ASSERT_TRUE(store_.BulkLoad({"one", "two", "three"}, 8).ok());
  StoreBatch batch;
  batch.Rewrite(0, "ONE");
  batch.Rewrite(2, "THREE");
  batch.Append("four");
  batch.Append("five");
  ASSERT_TRUE(store_.ApplyBatch(batch).ok());
  EXPECT_EQ(store_.size(), 5u);
  const char* expected[] = {"ONE", "two", "THREE", "four", "five"};
  for (size_t i = 0; i < 5; ++i) {
    std::string got;
    ASSERT_TRUE(store_.Read(i, &got).ok()) << i;
    EXPECT_EQ(got, expected[i]) << i;
  }
  ASSERT_TRUE(store_.VerifyChecksums().ok());
}

TEST_F(LabelStoreTest, ApplyBatchRejectsOversizedRecordBeforeAnyIo) {
  ASSERT_TRUE(store_.BulkLoad({"abc"}, 2).ok());
  const uint64_t writes_before = store_.io_stats().page_writes;
  StoreBatch batch;
  batch.Rewrite(0, "ok");
  batch.Append(std::string(64, 'x'));
  EXPECT_EQ(store_.ApplyBatch(batch).code(), StatusCode::kOutOfRange);
  // Validation failed before the WAL or any page was touched.
  EXPECT_EQ(store_.io_stats().page_writes, writes_before);
  EXPECT_EQ(CounterValue(store_, "wal.appends"), 0u);
  std::string got;
  ASSERT_TRUE(store_.Read(0, &got).ok());
  EXPECT_EQ(got, "abc");
}

TEST_F(LabelStoreTest, ApplyBatchReloadResizesSlots) {
  ASSERT_TRUE(store_.BulkLoad({"a", "b", "c"}, 2).ok());
  StoreBatch batch;
  batch.Reload({std::string(200, 'x'), "tiny", std::string(150, 'y')}, 16);
  ASSERT_TRUE(store_.ApplyBatch(batch).ok());
  EXPECT_EQ(store_.size(), 3u);
  EXPECT_EQ(store_.slot_size(), 200u + 2u + 16u);
  std::string got;
  ASSERT_TRUE(store_.Read(0, &got).ok());
  EXPECT_EQ(got, std::string(200, 'x'));

  LabelStore reopened;
  ASSERT_TRUE(reopened.OpenExisting(path_).ok());
  EXPECT_EQ(reopened.size(), 3u);
  ASSERT_TRUE(reopened.Read(2, &got).ok());
  EXPECT_EQ(got, std::string(150, 'y'));
}

TEST_F(LabelStoreTest, ApplyBatchCheckpointsTheWal) {
  ASSERT_TRUE(store_.BulkLoad({"a", "b"}, 8).ok());
  StoreBatch batch;
  batch.Rewrite(1, "B");
  ASSERT_TRUE(store_.ApplyBatch(batch).ok());
  // After a clean apply the WAL is empty again (checkpointed).
  struct stat st;
  ASSERT_EQ(::stat(LabelStore::WalPath(path_).c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 0);
  EXPECT_EQ(CounterValue(store_, "wal.appends"), 1u);
  EXPECT_GE(CounterValue(store_, "wal.syncs"), 1u);
}

TEST_F(LabelStoreTest, OpenExistingRejectsMissingFile) {
  LabelStore other;
  EXPECT_EQ(other.OpenExisting("/nonexistent/dir/store.db").code(),
            StatusCode::kIoError);
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
