#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/xml_db.h"
#include "util/failpoint.h"

/// \file
/// The engine crash matrix (docs/DURABILITY.md): fail every site of the
/// log and checkpoint path at every ordinal during a script of updates,
/// recover, and verify the database holds exactly the acknowledged updates
/// (plus, at most, the one in flight).

namespace cdbs::storage {
namespace {

using cdbs::util::Failpoints;

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
