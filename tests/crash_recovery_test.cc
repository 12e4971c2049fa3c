#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/xml_db.h"
#include "storage/label_store.h"
#include "util/failpoint.h"
#include "util/random.h"

/// \file
/// The crash matrices (docs/DURABILITY.md). For the LabelStore substrate:
/// for every crash failpoint site in the update path, and for every
/// occurrence of that site within one update, kill the store at that
/// point, reopen, and verify the survivor (a) passes full checksum
/// verification and (b) contains either the whole update or none of it.
/// For the engine: fail every site of the log and checkpoint path at every
/// ordinal during a script of updates, recover, and verify the database
/// holds exactly the acknowledged updates (plus, at most, the one in
/// flight).

namespace cdbs::storage {
namespace {

using cdbs::util::Failpoints;

// Every site whose firing simulates the process dying mid-update.
const char* const kCrashSites[] = {
    "storage.write_page.crash",  "storage.write_page.short_write",
    "wal.append.short_write",    "wal.sync.crash",
    "storage.sync.crash",
};

std::vector<std::string> ReadAll(LabelStore* store) {
  std::vector<std::string> records;
  records.reserve(store->size());
  for (size_t i = 0; i < store->size(); ++i) {
    std::string record;
    EXPECT_TRUE(store->Read(i, &record).ok()) << "record " << i;
    records.push_back(record);
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

// Every site of the engine's log and checkpoint path: simulated crashes,
// errno failures and (retried) transient ones.
const char* const kLogSites[] = {
    "wal.append.short_write", "wal.append.io_error", "wal.append.error",
    "wal.sync.crash",         "wal.sync.io_error",   "wal.sync.error",
    "file.sync.crash",        "file.rename.crash",
};

class XmlDbCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.storage_path = ::testing::TempDir() + "/xml_db_crash_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(reinterpret_cast<uintptr_t>(this)) +
                            ".db";
  }

  void TearDown() override {
    for (const char* site : kLogSites) Failpoints::Deactivate(site);
    std::remove(options_.storage_path.c_str());
    std::remove((options_.storage_path + ".wal").c_str());
  }

  cdbs::engine::XmlDbOptions options_;
};

using cdbs::engine::BootstrapSpec;
using cdbs::engine::WriteOp;
using cdbs::engine::XmlDb;

constexpr const char* kDoc = "<r><a><x/></a><b/><c/><d/></r>";

// Inserts and deletes, with checkpoints (empty ops) between some of them.
// Node ids: r=0 a=1 x=2 b=3 c=4 d=5; inserts take 6, 7, ...
const std::vector<std::optional<WriteOp>>& Script() {
  static const std::vector<std::optional<WriteOp>> kScript = {
      WriteOp::InsertAfter(1, "i6"), WriteOp::Delete(3),
      WriteOp::InsertBefore(4, "i7"), std::nullopt,
      WriteOp::Delete(1),  // a and x
      WriteOp::InsertAfter(7, "i8"), std::nullopt,
      WriteOp::InsertBefore(5, "i9"), WriteOp::Delete(8),
  };
  return kScript;
}

Status Apply(XmlDb& db, const WriteOp& op) {
  switch (op.kind) {
    case WriteOp::Kind::kInsertBefore:
      return db.InsertElementBefore(op.target, op.tag).status();
    case WriteOp::Kind::kInsertAfter:
      return db.InsertElementAfter(op.target, op.tag).status();
    case WriteOp::Kind::kDelete:
      return db.DeleteElement(op.target).status();
  }
  return Status::Internal("bad op");
}

// Runs the script, stopping at the first failure; returns how many
// updates were acknowledged.
size_t RunScript(XmlDb& db) {
  size_t done = 0;
  for (const std::optional<WriteOp>& step : Script()) {
    if (!(step ? Apply(db, *step) : db.Checkpoint()).ok()) break;
    if (step) ++done;
  }
  return done;
}

// The state after each prefix of the script's updates: ids and XML, not
// label bits (a recovered checkpoint may relabel; ids never change).
std::vector<BootstrapSpec> PrefixStates() {
  auto shadow = XmlDb::OpenFromXml(kDoc, {});
  EXPECT_TRUE(shadow.ok());
  std::vector<BootstrapSpec> states = {(*shadow)->CaptureBootstrapSpec()};
  for (const std::optional<WriteOp>& step : Script()) {
    if (!step) continue;
    EXPECT_TRUE(Apply(**shadow, *step).ok());
    states.push_back((*shadow)->CaptureBootstrapSpec());
  }
  return states;
}

bool SameState(const BootstrapSpec& a, const BootstrapSpec& b) {
  return a.xml == b.xml && a.ids == b.ids && a.next_id == b.next_id;
}

// End-to-end matrix: fail every log and checkpoint site at every ordinal
// during the script; recovery must yield exactly the acknowledged updates
// (`done`), or those plus the one in flight, whose record may have reached
// the disk before the failure.
TEST_F(XmlDbCrashTest, UpdateSequenceSurvivesCrashAtEverySite) {
  const std::vector<BootstrapSpec> states = PrefixStates();
  for (const char* site : kLogSites) {
    bool injected = true;
    for (int n = 0; injected; ++n) {
      ASSERT_LT(n, 128) << site << ": matrix failed to terminate";
      {
        auto db = XmlDb::OpenFromXml(kDoc, options_);
        ASSERT_TRUE(db.ok());
        ASSERT_TRUE(
            Failpoints::Activate(site, "after=" + std::to_string(n)).ok());
        const uint64_t before = Failpoints::InjectionCount(site);
        const size_t done = RunScript(**db);
        Failpoints::Deactivate(site);
        injected = Failpoints::InjectionCount(site) > before;
        if (!injected) {
          EXPECT_EQ(done, states.size() - 1);
        }
        db->reset();

        auto recovered = XmlDb::Recover(options_);
        ASSERT_TRUE(recovered.ok()) << site << " n=" << n << ": "
                                    << recovered.status();
        const BootstrapSpec got = (*recovered)->CaptureBootstrapSpec();
        const bool matches_done = SameState(got, states[done]);
        const bool matches_next =
            done + 1 < states.size() && SameState(got, states[done + 1]);
        EXPECT_TRUE(matches_done || matches_next)
            << site << " n=" << n << ": recovered " << got.xml << " after "
            << done << " acknowledged updates";
      }
      // A crash mid-checkpoint leaves its temp file; recovery removed it.
      EXPECT_NE(::access((options_.storage_path + ".tmp").c_str(), F_OK), 0);
    }
  }
}

// A failed log write acknowledges nothing and leaves memory at the
// acknowledged state: the failed insert's id is free again, so the next
// insert takes it, and a restart recovers the identical id space.
TEST_F(XmlDbCrashTest, FailedPersistRollsBackAndNextUpdateHeals) {
  auto db = XmlDb::OpenFromXml(kDoc, options_);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(Failpoints::Activate("wal.sync.error", "enospc").ok());
  const auto failed = (*db)->InsertElementAfter(1, "ghost");
  const auto failed_delete = (*db)->DeleteElement(3);
  Failpoints::Deactivate("wal.sync.error");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(failed_delete.ok());

  // No trace of either update in tree, query results or stats.
  EXPECT_EQ((*db)->ToXml(), "<r><a><x/></a><b/><c/><d/></r>");
  EXPECT_EQ(*(*db)->Count("//ghost"), 0u);
  EXPECT_EQ((*db)->Stats().insertions, 0u);
  EXPECT_EQ((*db)->Stats().deletions, 0u);
  EXPECT_EQ((*db)->Stats().node_count, 6u);

  const auto healed = (*db)->InsertElementAfter(1, "real");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, 6u) << "the failed insert's id was not burnt";
  const BootstrapSpec before = (*db)->CaptureBootstrapSpec();
  db->reset();
  auto recovered = XmlDb::Recover(options_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(SameState((*recovered)->CaptureBootstrapSpec(), before));
}

}  // namespace
}  // namespace cdbs::storage
