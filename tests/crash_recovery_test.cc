#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/xml_db.h"
#include "storage/label_store.h"
#include "util/failpoint.h"
#include "util/ordered_varint.h"
#include "util/random.h"

/// \file
/// The crash matrix (docs/DURABILITY.md): for every registered crash
/// failpoint site in the update path, and for every occurrence of that site
/// within one update, kill the store at that point, reopen, and verify the
/// survivor (a) passes full checksum verification and (b) contains either
/// the whole update or none of it — never a torn mix.

namespace cdbs::storage {
namespace {

using cdbs::util::Failpoints;

// Every site whose firing simulates the process dying mid-update.
const char* const kCrashSites[] = {
    "storage.write_page.crash",  "storage.write_page.short_write",
    "wal.append.short_write",    "wal.sync.crash",
    "storage.sync.crash",
};

// Engine-written records carry a varint TagId prefix when the store's
// header holds a tag table (docs/ENCODING.md); strip (and sanity-check)
// it so comparisons see the bare serialized label.
std::string BareLabel(const LabelStore& store, const std::string& record) {
  if (store.tag_table().empty()) return record;
  size_t pos = 0;
  uint64_t tag_id = 0;
  EXPECT_TRUE(util::DecodeOrderedVarint(record, &pos, &tag_id).ok());
  EXPECT_LT(tag_id, store.tag_table().size());
  return record.substr(pos);
}

std::vector<std::string> ReadAll(LabelStore* store) {
  std::vector<std::string> records;
  records.reserve(store->size());
  for (size_t i = 0; i < store->size(); ++i) {
    std::string record;
    EXPECT_TRUE(store->Read(i, &record).ok()) << "record " << i;
    records.push_back(BareLabel(*store, record));
  }
  return records;
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/crash_matrix_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
  }

  void TearDown() override {
    for (const char* site : kCrashSites) Failpoints::Deactivate(site);
    Failpoints::Deactivate("storage.write_page.io_error");
    std::remove(path_.c_str());
    std::remove(LabelStore::WalPath(path_).c_str());
  }

  std::string path_;
};

// For each crash site, and each N, crash on the N-th evaluation of that
// site during one multi-record batch. Reopening must always yield a fully
// checksummed store equal to exactly the pre- or the post-batch state.
TEST_F(CrashMatrixTest, EveryCrashSiteYieldsPreOrPostState) {
  // 400 small records span two data pages; the batch touches both, appends
  // into a third, and rewrites the header — a multi-page update.
  std::vector<std::string> pre;
  for (int i = 0; i < 400; ++i) pre.push_back("rec-" + std::to_string(i));

  // Replacements must fit the slots BulkLoad sized ("rec-399" + 4 bytes of
  // headroom) — an oversized record would be rejected with OutOfRange
  // before the batch ever reaches the WAL.
  std::vector<std::string> post = pre;
  post[0] = "RW-zero";
  post[350] = "RW-350";
  post.push_back("AP-a");
  post.push_back("AP-b");

  for (const char* site : kCrashSites) {
    bool injected = true;
    for (int n = 0; injected; ++n) {
      ASSERT_LT(n, 64) << site << ": matrix failed to terminate";
      LabelStore store;
      ASSERT_TRUE(store.Open(path_).ok());
      ASSERT_TRUE(store.BulkLoad(pre, 4).ok());

      StoreBatch batch;
      batch.Rewrite(0, post[0]);
      batch.Rewrite(350, post[350]);
      batch.Append("AP-a");
      batch.Append("AP-b");

      ASSERT_TRUE(
          Failpoints::Activate(site, "after=" + std::to_string(n)).ok());
      const uint64_t before = Failpoints::InjectionCount(site);
      const Status status = store.ApplyBatch(batch);
      Failpoints::Deactivate(site);
      injected = Failpoints::InjectionCount(site) > before;

      LabelStore survivor;
      ASSERT_TRUE(survivor.OpenExisting(path_).ok())
          << site << " n=" << n;
      ASSERT_TRUE(survivor.VerifyChecksums().ok()) << site << " n=" << n;
      const std::vector<std::string> got = ReadAll(&survivor);
      if (injected) {
        EXPECT_FALSE(status.ok()) << site << " n=" << n;
        EXPECT_TRUE(got == pre || got == post)
            << site << " n=" << n << ": torn state, " << got.size()
            << " records";
      } else {
        // The failpoint never fired: the batch ran crash-free, so this
        // site's matrix is exhausted and the update must be complete.
        EXPECT_TRUE(status.ok()) << site << " n=" << n;
        EXPECT_EQ(got, post) << site;
      }
    }
  }
}

// The same invariant under randomized batches and crash points.
TEST_F(CrashMatrixTest, RandomizedCrashesNeverTearTheStore) {
  util::Random rng(20260806);
  for (int round = 0; round < 25; ++round) {
    std::vector<std::string> pre;
    const size_t count = 50 + rng.Uniform(500);
    for (size_t i = 0; i < count; ++i) {
      pre.push_back(std::string(1 + rng.Uniform(10), 'a' + i % 26));
    }
    LabelStore store;
    ASSERT_TRUE(store.Open(path_).ok());
    ASSERT_TRUE(store.BulkLoad(pre, 4).ok());

    std::vector<std::string> post = pre;
    StoreBatch batch;
    const size_t rewrites = 1 + rng.Uniform(8);
    for (size_t i = 0; i < rewrites; ++i) {
      const size_t idx = rng.Uniform(post.size());
      post[idx] = "rw-" + std::to_string(round) + "-" + std::to_string(i);
      batch.Rewrite(idx, post[idx]);
    }
    const size_t appends = rng.Uniform(4);
    for (size_t i = 0; i < appends; ++i) {
      post.push_back("ap-" + std::to_string(i));
      batch.Append(post.back());
    }

    const char* site = kCrashSites[rng.Uniform(std::size(kCrashSites))];
    ASSERT_TRUE(
        Failpoints::Activate(site, "after=" + std::to_string(rng.Uniform(6)))
            .ok());
    const Status status = store.ApplyBatch(batch);
    Failpoints::Deactivate(site);

    LabelStore survivor;
    ASSERT_TRUE(survivor.OpenExisting(path_).ok()) << "round " << round;
    ASSERT_TRUE(survivor.VerifyChecksums().ok()) << "round " << round;
    const std::vector<std::string> got = ReadAll(&survivor);
    if (status.ok()) {
      EXPECT_EQ(got, post) << "round " << round;
    } else {
      EXPECT_TRUE(got == pre || got == post)
          << "round " << round << " site " << site;
    }
  }
}

// Transient write errors (retries exhausted) are not crashes: the handle
// stays alive, and re-applying the same batch succeeds once the fault
// clears.
TEST_F(CrashMatrixTest, TransientFailureThenRetrySucceeds) {
  std::vector<std::string> pre = {"one", "two", "three"};
  LabelStore store;
  ASSERT_TRUE(store.Open(path_).ok());
  ASSERT_TRUE(store.BulkLoad(pre, 8).ok());

  StoreBatch batch;
  batch.Rewrite(1, "TWO");
  batch.Append("four");

  ASSERT_TRUE(
      Failpoints::Activate("storage.write_page.io_error", "always").ok());
  EXPECT_EQ(store.ApplyBatch(batch).code(), StatusCode::kIoError);
  Failpoints::Deactivate("storage.write_page.io_error");

  // Same handle, same batch, fault cleared: the update lands.
  ASSERT_TRUE(store.ApplyBatch(batch).ok());
  EXPECT_EQ(ReadAll(&store), (std::vector<std::string>{"one", "TWO", "three",
                                                       "four"}));
  // And the on-disk state agrees.
  LabelStore survivor;
  ASSERT_TRUE(survivor.OpenExisting(path_).ok());
  ASSERT_TRUE(survivor.VerifyChecksums().ok());
  EXPECT_EQ(ReadAll(&survivor), ReadAll(&store));
}

// A crash during recovery itself (the post-replay fsync dies) leaves the
// WAL intact, so the next open replays the very same records on top of
// already-patched pages. Full page images make that redo idempotent: the
// double-replayed store is exactly the intended post state, and the
// completed recovery finally checkpoints the WAL away.
TEST_F(CrashMatrixTest, InterruptedRecoveryReplaysIdempotently) {
  const std::vector<std::string> pre = {"one", "two", "three"};
  const std::vector<std::string> post = {"one", "TWO", "three", "four"};
  {
    LabelStore store;
    ASSERT_TRUE(store.Open(path_).ok());
    ASSERT_TRUE(store.BulkLoad(pre, 8).ok());
    StoreBatch batch;
    batch.Rewrite(1, "TWO");
    batch.Append("four");
    // Crash after the WAL group is durable but before any page lands.
    ASSERT_TRUE(
        Failpoints::Activate("storage.write_page.crash", "oneshot").ok());
    EXPECT_FALSE(store.ApplyBatch(batch).ok());
    Failpoints::Deactivate("storage.write_page.crash");
  }

  // First reopen: redo replays the batch, then dies in the post-replay
  // fsync — pages patched, WAL checkpoint never reached.
  {
    const uint64_t before = Failpoints::InjectionCount("storage.sync.crash");
    ASSERT_TRUE(Failpoints::Activate("storage.sync.crash", "oneshot").ok());
    LabelStore half;
    EXPECT_FALSE(half.OpenExisting(path_).ok());
    Failpoints::Deactivate("storage.sync.crash");
    ASSERT_GT(Failpoints::InjectionCount("storage.sync.crash"), before)
        << "recovery never reached its fsync";
  }

  // Second reopen: the same WAL records replay again over already-applied
  // pages. Clean checksums, exactly the post state, one replay pass.
  LabelStore survivor;
  ASSERT_TRUE(survivor.OpenExisting(path_).ok());
  ASSERT_TRUE(survivor.VerifyChecksums().ok());
  EXPECT_EQ(ReadAll(&survivor), post);
  uint64_t replays = 0;
  for (const auto& m : survivor.metrics().Snapshot()) {
    if (m.name == "storage.recovery.replays") replays = m.counter_value;
  }
  EXPECT_EQ(replays, 1u);

  // That recovery completed, so it checkpointed: a third open finds an
  // empty WAL and nothing to redo.
  LabelStore third;
  ASSERT_TRUE(third.OpenExisting(path_).ok());
  ASSERT_TRUE(third.VerifyChecksums().ok());
  EXPECT_EQ(ReadAll(&third), post);
  replays = 0;
  for (const auto& m : third.metrics().Snapshot()) {
    if (m.name == "storage.recovery.replays") replays = m.counter_value;
  }
  EXPECT_EQ(replays, 0u) << "WAL must be empty after a completed recovery";
}

// A single injected I/O error is absorbed by retry-with-backoff: the batch
// succeeds and the retry counter moves.
TEST_F(CrashMatrixTest, OneTransientErrorIsRetriedAway) {
  LabelStore store;
  ASSERT_TRUE(store.Open(path_).ok());
  ASSERT_TRUE(store.BulkLoad({"a", "b"}, 8).ok());

  ASSERT_TRUE(
      Failpoints::Activate("storage.write_page.io_error", "oneshot").ok());
  StoreBatch batch;
  batch.Rewrite(0, "A");
  ASSERT_TRUE(store.ApplyBatch(batch).ok());
  EXPECT_GE(store.metrics().Snapshot().size(), 1u);
  uint64_t retries = 0;
  for (const auto& m : store.metrics().Snapshot()) {
    if (m.name == "storage.io_retries") retries = m.counter_value;
  }
  EXPECT_GE(retries, 1u);
  std::string got;
  ASSERT_TRUE(store.Read(0, &got).ok());
  EXPECT_EQ(got, "A");
}

class XmlDbCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/xml_db_crash_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
  }

  void TearDown() override {
    for (const char* site : kCrashSites) Failpoints::Deactivate(site);
    Failpoints::Deactivate("storage.write_page.io_error");
    std::remove(path_.c_str());
    std::remove(LabelStore::WalPath(path_).c_str());
  }

  std::string path_;
};

constexpr const char* kDoc = "<r><a/><b/><c/><d/></r>";

constexpr size_t kScriptOps = 5;

// Applies the i-th scripted insert; returns whether it succeeded.
template <typename Db>
bool ApplyScriptOp(Db& db, size_t i) {
  using cdbs::labeling::NodeId;
  static const struct {
    NodeId target;
    bool before;
  } kOps[kScriptOps] = {{1, false}, {3, true}, {5, false}, {2, true},
                        {4, false}};
  const auto result = kOps[i].before
                          ? db->InsertElementBefore(kOps[i].target, "ins")
                          : db->InsertElementAfter(kOps[i].target, "ins");
  return result.ok();
}

// Applies the whole script, stopping at the first failure; returns how
// many inserts succeeded.
template <typename Db>
size_t ApplyScript(Db& db) {
  for (size_t i = 0; i < kScriptOps; ++i) {
    if (!ApplyScriptOp(db, i)) return i;
  }
  return kScriptOps;
}

std::vector<std::string> LabelSnapshot(const cdbs::engine::XmlDb& db) {
  std::vector<std::string> labels;
  const auto& lab = db.labeling();
  labels.reserve(lab.num_nodes());
  for (cdbs::labeling::NodeId n = 0; n < lab.num_nodes(); ++n) {
    labels.push_back(lab.SerializeLabel(n));
  }
  return labels;
}

// End-to-end matrix: crash every site during a sequence of XmlDb inserts;
// the reopened store must checksum clean and hold exactly the label set of
// some prefix of the update sequence (each update atomic, no torn mix).
TEST_F(XmlDbCrashTest, UpdateSequenceSurvivesCrashAtEverySite) {
  // A shadow database replays the same script without storage, capturing
  // the expected full label set after each update.
  std::vector<std::vector<std::string>> snapshots;
  {
    auto shadow = cdbs::engine::XmlDb::OpenFromXml(kDoc, {});
    ASSERT_TRUE(shadow.ok());
    snapshots.push_back(LabelSnapshot(**shadow));
    for (size_t i = 0; i < kScriptOps; ++i) {
      ASSERT_TRUE(ApplyScriptOp(*shadow, i));
      snapshots.push_back(LabelSnapshot(**shadow));
    }
  }

  cdbs::engine::XmlDbOptions options;
  options.storage_path = path_;
  for (const char* site : kCrashSites) {
    bool injected = true;
    for (int n = 0; injected; ++n) {
      ASSERT_LT(n, 128) << site << ": matrix failed to terminate";
      auto db = cdbs::engine::XmlDb::OpenFromXml(kDoc, options);
      ASSERT_TRUE(db.ok());

      ASSERT_TRUE(
          Failpoints::Activate(site, "after=" + std::to_string(n)).ok());
      const uint64_t before = Failpoints::InjectionCount(site);
      const size_t done = ApplyScript(*db);
      Failpoints::Deactivate(site);
      injected = Failpoints::InjectionCount(site) > before;
      if (!injected) {
        EXPECT_EQ(done, kScriptOps);
      }

      LabelStore survivor;
      ASSERT_TRUE(survivor.OpenExisting(path_).ok()) << site << " n=" << n;
      ASSERT_TRUE(survivor.VerifyChecksums().ok()) << site << " n=" << n;
      const std::vector<std::string> got = ReadAll(&survivor);
      // The store equals the state after `done` or `done + 1` updates: the
      // in-flight update either fully landed (crash after its pages were
      // durable, in-memory rolled back anyway) or not at all.
      const bool matches_done = got == snapshots[done];
      const bool matches_next =
          done + 1 < snapshots.size() && got == snapshots[done + 1];
      EXPECT_TRUE(matches_done || matches_next)
          << site << " n=" << n << ": store holds " << got.size()
          << " labels after " << done << " applied updates";
    }
  }
}

// A persist failure must roll the in-memory mutation back: the tree, the
// query surface and the stats all stay at the pre-update state, and the
// next successful update re-syncs the store in full.
TEST_F(XmlDbCrashTest, FailedPersistRollsBackAndNextUpdateHeals) {
  cdbs::engine::XmlDbOptions options;
  options.storage_path = path_;
  auto db = cdbs::engine::XmlDb::OpenFromXml(kDoc, options);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(
      Failpoints::Activate("storage.write_page.io_error", "always").ok());
  const auto failed = (*db)->InsertElementAfter(1, "ghost");
  Failpoints::Deactivate("storage.write_page.io_error");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);

  // Rolled back: no trace of the insert in tree, query results or stats.
  EXPECT_EQ((*db)->ToXml().find("ghost"), std::string::npos);
  auto count = (*db)->Count("//ghost");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  EXPECT_EQ((*db)->Stats().insertions, 0u);
  // Node ids are never reused, so the failed insert burns one id —
  // num_nodes() counts the id space, exactly as after a DeleteElement.
  EXPECT_EQ((*db)->Stats().node_count, 6u);

  // The next insert succeeds and leaves the store holding exactly the
  // database's full label set (the reload-heal path).
  const auto healed = (*db)->InsertElementAfter(1, "real");
  ASSERT_TRUE(healed.ok());
  LabelStore survivor;
  ASSERT_TRUE(survivor.OpenExisting(path_).ok());
  ASSERT_TRUE(survivor.VerifyChecksums().ok());
  EXPECT_EQ(ReadAll(&survivor), LabelSnapshot(**db));
}

}  // namespace
}  // namespace cdbs::storage
