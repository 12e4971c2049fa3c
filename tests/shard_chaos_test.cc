#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "shard/sharded_db.h"
#include "shard/supervisor.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "xml/shakespeare.h"

/// \file
/// Chaos test for shard supervision (docs/ROBUSTNESS.md): a 4-shard corpus
/// under sustained multi-client load while one shard's storage develops a
/// persistent fault (injected ENOSPC / EIO through the shard-scoped errno
/// failpoints). The assertions are the supervision invariants, not success
/// rates:
///
///   * blast-radius containment — writes to the healthy shards keep
///     committing all the way through the fault window;
///   * degraded reads — the sick shard keeps answering reads from its last
///     published snapshot while its writes fast-fail;
///   * typed failures — every failed write carries an expected status code
///     (kResourceExhausted / kIoError before the breaker trips,
///     kUnavailable after), never garbage;
///   * self-healing — once the fault clears, the supervisor reopens the
///     shard through WAL recovery and re-admits it without any operator
///     action;
///   * no acked write lost — per-document tag counts equal exactly the
///     number of acknowledged inserts, fault or no fault.

namespace cdbs::shard {
namespace {

using engine::Admission;
using engine::WriteOp;

class ShardChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/shard_chaos_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  void TearDown() override {
    util::Failpoints::DeactivateAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
};

/// Errors a write may legitimately see while its shard is sick.
bool IsExpectedSickWriteFailure(const Status& st) {
  switch (st.code()) {
    case StatusCode::kResourceExhausted:  // injected ENOSPC, pre-breaker
    case StatusCode::kIoError:            // injected EIO, pre-breaker
    case StatusCode::kUnavailable:        // breaker tripped / recovering
    case StatusCode::kRetryAfter:         // queue shed under pressure
    case StatusCode::kDeadlineExceeded:   // expired while sick
      return true;
    default:
      return false;
  }
}

TEST_F(ShardChaosTest, SustainedLoadSurvivesEnospcOnOneShard) {
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kDocs = 8;
  constexpr uint32_t kSickShard = 2;

  ShardedDbOptions options;
  options.shard_count = kShards;
  options.router = RouterKind::kExplicit;
  options.placement = {0, 1, 2, 3, 0, 1, 2, 3};  // doc d -> shard d % 4
  options.storage_dir = dir_;
  options.shard.poison_after_persist_failures = 2;
  options.supervisor.recovery_backoff_ms = 10;
  options.supervisor.max_recovery_backoff_ms = 100;
  options.supervisor.breaker_retry_after_ms = 10;
  std::vector<xml::Document> docs;
  for (uint64_t d = 0; d < kDocs; ++d) {
    docs.push_back(xml::GeneratePlay(/*seed=*/d + 1, /*total_nodes=*/300));
  }
  auto opened = ShardedDb::Open(std::move(docs), options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ShardedDb* db = opened->get();
  ASSERT_NE(db->supervisor(), nullptr);

  // Per-doc write targets (an act inside each play).
  std::vector<engine::NodeId> targets(kDocs);
  for (uint64_t d = 0; d < kDocs; ++d) {
    targets[d] = db->QueryDoc(d, "/play/act").value()[0];
  }

  const int kOps = std::getenv("CDBS_CHAOS_OPS")
                       ? std::atoi(std::getenv("CDBS_CHAOS_OPS"))
                       : 120;

  // One writer per document, each under its own tag so acked inserts are
  // attributable per document; readers scatter-gather throughout.
  std::atomic<bool> stop_writers{false};
  std::atomic<int> unexpected_failures{0};
  std::vector<std::atomic<uint64_t>> acked(kDocs);
  std::vector<std::thread> writers;
  writers.reserve(kDocs);
  for (uint64_t d = 0; d < kDocs; ++d) {
    writers.emplace_back([&, d] {
      const std::string tag = "w" + std::to_string(d);
      for (int i = 0; i < kOps && !stop_writers.load(); ++i) {
        Result<uint64_t> r =
            db->Submit(d, WriteOp::InsertAfter(targets[d], tag),
                       Admission::kBlock, util::Deadline::AfterMillis(5000))
                .get();
        if (r.ok()) {
          acked[d].fetch_add(1);
        } else if (!IsExpectedSickWriteFailure(r.status())) {
          ++unexpected_failures;
          ADD_FAILURE() << "doc " << d
                        << " unexpected: " << r.status().ToString();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::atomic<bool> stop_readers{false};
  std::atomic<uint64_t> gather_ok{0};
  std::thread reader([&] {
    while (!stop_readers.load()) {
      auto g = db->CountAll("/play/act", util::Deadline::AfterMillis(3000));
      if (g.ok()) gather_ok.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Warm up under healthy load, then break shard 2's disk.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(util::Failpoints::Activate(
                  "wal.shard-" + std::to_string(kSickShard) +
                      ".sync.error",
                  "enospc")
                  .ok());

  // The breaker must trip: the background writers' failures poison the
  // shard's writer and the supervisor degrades it.
  const auto trip_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->supervisor()->health(kSickShard) == ShardHealth::kHealthy &&
         std::chrono::steady_clock::now() < trip_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(db->supervisor()->health(kSickShard), ShardHealth::kHealthy);

  // Mid-fault invariants, probed synchronously while the writers hammer
  // on: healthy shards still commit, the sick shard still answers reads
  // from its last snapshot, and sick writes fail with a typed error.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t d = 0; d < kDocs; ++d) {
      if (d % kShards == kSickShard) continue;
      Result<uint64_t> r =
          db->Submit(d,
                     WriteOp::InsertAfter(targets[d], "w" + std::to_string(d)),
                     Admission::kBlock, util::Deadline::AfterMillis(5000))
              .get();
      EXPECT_TRUE(r.ok()) << "healthy doc " << d << " during fault: "
                          << r.status().ToString();
      if (r.ok()) acked[d].fetch_add(1);
    }
  }
  const uint64_t sick_doc = kSickShard;  // doc 2 lives on shard 2
  EXPECT_EQ(db->CountDoc(sick_doc, "/play/act").value(), 5u);
  {
    Result<uint64_t> r =
        db->Submit(sick_doc, WriteOp::InsertAfter(targets[sick_doc], "w2"),
                   Admission::kBlock, util::Deadline::AfterMillis(5000))
            .get();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsExpectedSickWriteFailure(r.status()))
        << r.status().ToString();
    EXPECT_GE(db->RetryAfterHintMillis(sick_doc), 1u);
  }

  // Fault clears: the shard must re-admit itself.
  util::Failpoints::Deactivate("wal.shard-" +
                               std::to_string(kSickShard) + ".sync.error");
  EXPECT_TRUE(db->supervisor()->WaitForHealth(kSickShard,
                                              ShardHealth::kHealthy,
                                              /*timeout_ms=*/15000));
  EXPECT_GE(db->supervisor()->recoveries(), 1u);

  // Recovered: the sick shard commits again (count it like the rest).
  {
    Result<uint64_t> r =
        db->Submit(sick_doc, WriteOp::InsertAfter(targets[sick_doc], "w2"),
                   Admission::kBlock, util::Deadline::AfterMillis(5000))
            .get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) acked[sick_doc].fetch_add(1);
  }

  stop_writers.store(true);
  for (auto& t : writers) t.join();
  stop_readers.store(true);
  reader.join();

  EXPECT_EQ(unexpected_failures.load(), 0);
  EXPECT_GT(gather_ok.load(), 0u);

  // Ground truth: every acknowledged insert — and nothing else — is
  // visible, per document. A rolled-back group that leaked a node, or an
  // acked write lost in recovery, shows up as a count mismatch here.
  for (uint64_t d = 0; d < kDocs; ++d) {
    EXPECT_EQ(db->CountDoc(d, "/play/w" + std::to_string(d)).value(),
              acked[d].load())
        << "doc " << d;
  }
  db->Shutdown();
}

TEST_F(ShardChaosTest, EioPageWriteKillsAndRecoversAShard) {
  // The "kill-shard" variant of the matrix: EIO on the log's write path
  // (not fsync) — a dying disk rather than a full one. Same supervision
  // contract, different injection site and errno class.
  ShardedDbOptions options;
  options.shard_count = 2;
  options.router = RouterKind::kExplicit;
  options.placement = {0, 1};
  options.storage_dir = dir_;
  options.shard.poison_after_persist_failures = 2;
  options.supervisor.recovery_backoff_ms = 10;
  options.supervisor.max_recovery_backoff_ms = 50;
  std::vector<xml::Document> docs;
  docs.push_back(xml::GeneratePlay(1, 300));
  docs.push_back(xml::GeneratePlay(2, 300));
  auto opened = ShardedDb::Open(std::move(docs), options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ShardedDb* db = opened->get();

  const engine::NodeId act1 = db->QueryDoc(1, "/play/act").value()[0];
  ASSERT_TRUE(util::Failpoints::Activate("wal.shard-1.append.error",
                                         "eio")
                  .ok());
  uint64_t acked = 0;
  for (int i = 0; i < 20; ++i) {
    Result<uint64_t> r = db->Submit(1, WriteOp::InsertAfter(act1, "x")).get();
    if (r.ok()) {
      ++acked;
      continue;
    }
    ASSERT_TRUE(IsExpectedSickWriteFailure(r.status()))
        << r.status().ToString();
    if (r.status().code() == StatusCode::kUnavailable) break;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->supervisor()->health(1) == ShardHealth::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(db->supervisor()->health(1), ShardHealth::kHealthy);
  // Shard 0 is untouched the whole time.
  const engine::NodeId act0 = db->QueryDoc(0, "/play/act").value()[0];
  ASSERT_TRUE(db->Submit(0, WriteOp::InsertAfter(act0, "alive")).get().ok());

  util::Failpoints::Deactivate("wal.shard-1.append.error");
  ASSERT_TRUE(db->supervisor()->WaitForHealth(1, ShardHealth::kHealthy,
                                              /*timeout_ms=*/15000));
  Result<uint64_t> r = db->Submit(1, WriteOp::InsertAfter(act1, "x")).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ++acked;
  EXPECT_EQ(db->CountDoc(1, "/play/x").value(), acked);
  db->Shutdown();
}

}  // namespace
}  // namespace cdbs::shard
