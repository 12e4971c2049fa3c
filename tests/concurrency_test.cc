#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/bounded_queue.h"
#include "concurrency/snapshot.h"
#include "concurrency/thread_pool.h"
#include "engine/concurrent_db.h"
#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace cdbs {
namespace {

using concurrency::BoundedQueue;
using concurrency::SnapshotManager;
using concurrency::ThreadPool;
using engine::Admission;
using engine::ConcurrentXmlDb;
using engine::ConcurrentXmlDbOptions;
using engine::NodeId;
using engine::WriteOp;

// The database a restart recovers from `options`' storage path must hold
// exactly `db`'s tree and id space.
void ExpectRecoversAs(const engine::XmlDb& db,
                      const ConcurrentXmlDbOptions& options) {
  auto recovered = ConcurrentXmlDb::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const engine::BootstrapSpec want = db.CaptureBootstrapSpec();
  const engine::BootstrapSpec got =
      (*recovered)->underlying().CaptureBootstrapSpec();
  EXPECT_EQ(got.xml, want.xml);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.next_id, want.next_id);
  EXPECT_EQ((*recovered)->commit_lsn(), db.store()->last_lsn());
}

// --------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, FifoAcrossPopBatches) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(int{i}));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 3), 3u);
  EXPECT_EQ(q.PopBatch(&out, 100), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BoundedQueueTest, TryPushBouncesWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // admission control: full
  std::vector<int> out;
  q.PopBatch(&out, 1);
  EXPECT_TRUE(q.TryPush(3));  // capacity freed
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerDrains) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(2));  // must block: queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still backpressured
  std::vector<int> out;
  q.PopBatch(&out, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  q.PopBatch(&out, 1);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(BoundedQueueTest, CloseFailsPushersAndDrainsConsumers) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(7));
  q.Close();
  EXPECT_FALSE(q.Push(8));
  EXPECT_FALSE(q.TryPush(9));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 10), 1u);  // drains what was queued...
  EXPECT_EQ(q.PopBatch(&out, 10), 0u);  // ...then signals exit
  EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
}

TEST(BoundedQueueTest, ShutdownWakesProducersBlockedOnFullQueue) {
  // Regression for the overload/shutdown interaction: producers blocked in
  // Push on a FULL queue must wake on Shutdown and observe the closure —
  // never block forever. Joined through futures with a hard timeout so a
  // regression fails the test instead of hanging it.
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));  // full
  std::vector<std::future<bool>> pushers;
  for (int i = 0; i < 4; ++i) {
    pushers.push_back(std::async(std::launch::async,
                                 [&q, i] { return q.Push(100 + i); }));
  }
  // Give every pusher time to actually block on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (auto& f : pushers) {
    ASSERT_EQ(f.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);  // still backpressured
  }
  q.Shutdown();
  for (auto& f : pushers) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "producer still blocked after Shutdown";
    EXPECT_FALSE(f.get());  // woke and observed the closure
  }
  // The two pre-shutdown items still drain; then the consumer exits.
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 10), 2u);
  EXPECT_EQ(q.PopBatch(&out, 10), 0u);
}

TEST(BoundedQueueTest, PushUntilTimesOutOnFullQueue) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PushUntil(2, cdbs::util::Deadline::AfterMillis(30)),
            BoundedQueue<int>::PushOutcome::kTimedOut);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 25);
  // The queue itself is untouched; space frees and accepts again.
  std::vector<int> out;
  q.PopBatch(&out, 1);
  EXPECT_EQ(q.PushUntil(2, cdbs::util::Deadline::AfterMillis(1000)),
            BoundedQueue<int>::PushOutcome::kAccepted);
  q.Close();
  EXPECT_EQ(q.PushUntil(3, cdbs::util::Deadline::AfterMillis(10)),
            BoundedQueue<int>::PushOutcome::kClosed);
}

TEST(BoundedQueueTest, PopBatchUntilTimesOutIdlesAndReportsClosure) {
  BoundedQueue<int> q(4);
  std::vector<int> out;
  bool closed = false;

  // Empty queue + expired wait: returns 0 without touching closed_out —
  // the consumer treats it as an idle tick (e.g. a heartbeat), not exit.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PopBatchUntil(&out, 10, cdbs::util::Deadline::AfterMillis(30),
                            &closed),
            0u);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 25);
  EXPECT_FALSE(closed);

  // Queued items pop immediately, bounded by max_items, FIFO.
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  ASSERT_TRUE(q.Push(3));
  EXPECT_EQ(q.PopBatchUntil(&out, 2, cdbs::util::Deadline::AfterMillis(1000),
                            &closed),
            2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_FALSE(closed);  // an item remains; not drained

  // Drain the leftover so the queue is empty again.
  out.clear();
  EXPECT_EQ(q.PopBatchUntil(&out, 10, cdbs::util::Deadline::AfterMillis(1000),
                            &closed),
            1u);
  EXPECT_EQ(out, (std::vector<int>{3}));
  EXPECT_FALSE(closed);

  // A sleeping consumer wakes when an item arrives, well before timeout.
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    static_cast<void>(q.Push(4));
  });
  out.clear();
  EXPECT_EQ(q.PopBatchUntil(&out, 10, cdbs::util::Deadline::AfterMillis(5000),
                            &closed),
            1u);
  EXPECT_EQ(out, (std::vector<int>{4}));
  producer.join();
  EXPECT_FALSE(closed);

  // Close on an empty queue: the wait returns 0 at once, closure reported.
  q.Close();
  out.clear();
  EXPECT_EQ(q.PopBatchUntil(&out, 10, cdbs::util::Deadline::AfterMillis(1000),
                            &closed),
            0u);
  EXPECT_TRUE(closed);
}

// --------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
    }
    pool.Shutdown();  // drains the queue before joining
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  pool.Shutdown();  // idempotent
}

// --------------------------------------------------------------------------
// SnapshotManager

TEST(SnapshotManagerTest, AcquireSeesLatestPublishedVersion) {
  SnapshotManager<int> mgr(std::make_unique<int>(10));
  EXPECT_EQ(mgr.epoch(), 1u);
  {
    auto pin = mgr.Acquire();
    EXPECT_EQ(pin.view(), 10);
    EXPECT_EQ(pin.epoch(), 1u);
  }
  mgr.Publish(std::make_unique<int>(20));
  EXPECT_EQ(mgr.epoch(), 2u);
  auto pin = mgr.Acquire();
  EXPECT_EQ(pin.view(), 20);
  EXPECT_EQ(pin.epoch(), 2u);
}

TEST(SnapshotManagerTest, UnpinnedRetireesAreReclaimed) {
  SnapshotManager<int> mgr(std::make_unique<int>(0));
  for (int i = 1; i <= 50; ++i) mgr.Publish(std::make_unique<int>(i));
  // No reader ever pinned anything: every retired version was freed.
  EXPECT_EQ(mgr.live_versions(), 1u);
  EXPECT_EQ(mgr.reclaimed(), 50u);
}

TEST(SnapshotManagerTest, PinBlocksReclamationUntilReleased) {
  SnapshotManager<int> mgr(std::make_unique<int>(0));
  auto pin = mgr.Acquire();
  mgr.Publish(std::make_unique<int>(1));
  mgr.Publish(std::make_unique<int>(2));
  // The pinned epoch-1 version must survive; the epoch-2 one was never
  // pinned but retired after the pin was announced, so it may go either
  // way — only check the pinned one.
  EXPECT_GE(mgr.live_versions(), 2u);
  EXPECT_EQ(pin.view(), 0);  // still readable, and still version 0
  pin.Release();
  mgr.Publish(std::make_unique<int>(3));
  EXPECT_EQ(mgr.live_versions(), 1u);
}

TEST(SnapshotManagerTest, MovedPinReleasesExactlyOnce) {
  SnapshotManager<int> mgr(std::make_unique<int>(5));
  auto pin = mgr.Acquire();
  auto moved = std::move(pin);
  EXPECT_FALSE(pin);  // NOLINT(bugprone-use-after-move): testing the move
  EXPECT_TRUE(moved);
  EXPECT_EQ(moved.view(), 5);
  moved.Release();
  moved.Release();  // idempotent
  mgr.Publish(std::make_unique<int>(6));
  EXPECT_EQ(mgr.live_versions(), 1u);
}

// --------------------------------------------------------------------------
// ConcurrentXmlDb

constexpr char kSmallDoc[] =
    "<root><a><b/><b/></a><c><b/></c></root>";

uint64_t CounterValue(const obs::MetricRegistry& registry,
                      const std::string& name) {
  for (const obs::MetricSnapshot& m : registry.Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

/// Runs `check(op, admission)` for every kind of write under every
/// admission, each under a SCOPED_TRACE naming the pair.
template <typename Check>
void ForEveryWriteShape(NodeId target, Check check) {
  for (const WriteOp::Kind kind :
       {WriteOp::Kind::kInsertBefore, WriteOp::Kind::kInsertAfter,
        WriteOp::Kind::kDelete}) {
    for (const Admission admission : {Admission::kBlock, Admission::kShed}) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   (admission == Admission::kShed ? ", shed" : ", block"));
      check(WriteOp{kind, target, "x"}, admission);
    }
  }
}

TEST(ConcurrentXmlDbTest, ReadsSeeInitialDocument) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  Result<uint64_t> count = (*db)->Count("//b");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
}

TEST(ConcurrentXmlDbTest, InsertIsVisibleOnceItsFutureResolves) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  const std::vector<NodeId> cs = (*db)->Query("//c").value();
  ASSERT_FALSE(cs.empty());
  Result<uint64_t> fresh =
      (*db)->Submit(WriteOp::InsertAfter(cs[0], "d")).get();
  ASSERT_TRUE(fresh.ok());
  // Read-your-writes: the snapshot was published before the future
  // resolved.
  EXPECT_EQ(*(*db)->Count("//d"), 1u);
  EXPECT_EQ((*db)->TagOf(*fresh), "d");
}

TEST(ConcurrentXmlDbTest, DeleteRemovesSubtreeFromNewSnapshots) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  const NodeId a = (*db)->Query("/root/a").value()[0];
  Result<uint64_t> removed = (*db)->Submit(WriteOp::Delete(a)).get();
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 3u);  // <a> and its two <b/> children
  EXPECT_EQ(*(*db)->Count("//b"), 1u);
}

TEST(ConcurrentXmlDbTest, InvalidTargetsFailTheirFutures) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(
      (*db)->Submit(WriteOp::InsertAfter(9999, "x")).get().status().code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(
      (*db)->Submit(WriteOp::InsertBefore(0, "x")).get().status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->Submit(WriteOp::Delete(0)).get().status().code(),
            StatusCode::kInvalidArgument);
  // A target deleted earlier in the pipeline fails cleanly, even when both
  // requests ride the same group commit.
  const NodeId a = (*db)->Query("/root/a").value()[0];
  std::future<Result<uint64_t>> del = (*db)->Submit(WriteOp::Delete(a));
  std::future<Result<uint64_t>> ins =
      (*db)->Submit(WriteOp::InsertAfter(a, "x"));
  EXPECT_TRUE(del.get().ok());
  EXPECT_EQ(ins.get().status().code(), StatusCode::kNotFound);
}

// Every node of a deleted subtree is gone, not only its root: writes aimed
// at a descendant fail with NotFound instead of aborting the writer, also
// when the delete rides the same group commit.
TEST(ConcurrentXmlDbTest, WritesUnderADeletedSubtreeFailTheirFutures) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  const std::vector<NodeId> bs = (*db)->Query("//a/b").value();
  ASSERT_EQ(bs.size(), 2u);
  const NodeId a = (*db)->Query("//a").value()[0];
  std::future<Result<uint64_t>> del = (*db)->Submit(WriteOp::Delete(a));
  std::future<Result<uint64_t>> del_child =
      (*db)->Submit(WriteOp::Delete(bs[0]));
  std::future<Result<uint64_t>> ins =
      (*db)->Submit(WriteOp::InsertAfter(bs[1], "x"));
  EXPECT_EQ(*del.get(), 3u);
  EXPECT_EQ(del_child.get().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ins.get().status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*db)->Submit(WriteOp::Delete(bs[1])).get().status().code(),
            StatusCode::kNotFound);
  // The writer is still alive and applying.
  const NodeId c = (*db)->Query("//c").value()[0];
  EXPECT_TRUE((*db)->Submit(WriteOp::InsertAfter(c, "d")).get().ok());
  EXPECT_EQ(*(*db)->Count("/*/*"), 2u);
}

TEST(ConcurrentXmlDbTest, SubmissionsFailCleanlyAfterShutdown) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];
  (*db)->Shutdown();
  // Every write fails with IoError, shed or not; a closed queue is no
  // admission-control bounce, so `rejected` stays at 0.
  ForEveryWriteShape(b, [&](WriteOp op, Admission admission) {
    EXPECT_EQ((*db)->Submit(std::move(op), admission).get().status().code(),
              StatusCode::kIoError);
  });
  EXPECT_EQ(CounterValue((*db)->metrics(), "engine.concurrent.rejected"), 0u);
  Result<std::vector<uint64_t>> read = (*db)->SubmitCount("//b", {0}).get();
  EXPECT_FALSE(read.ok());
  // Snapshot reads still work after shutdown (the last version persists).
  EXPECT_EQ(*(*db)->Count("//b"), 3u);
}

TEST(ConcurrentXmlDbTest, SubmittedQueriesRunOnTheWorkerPool) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  std::vector<std::future<Result<std::vector<uint64_t>>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back((*db)->SubmitCount("//b", {0}));
  }
  for (auto& f : futures) {
    Result<std::vector<uint64_t>> r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, std::vector<uint64_t>{3});
  }
}

TEST(ConcurrentXmlDbTest, GroupCommitAmortizesStoreFsyncs) {
  const std::string path = ::testing::TempDir() + "/concurrent_group.bin";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ConcurrentXmlDbOptions options;
  options.db.storage_path = path;
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, options);
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];

  // Fire a burst of insertions without waiting: while the writer fsyncs
  // the first group, the rest pile up and commit under later, larger
  // groups.
  constexpr int kInserts = 64;
  std::vector<std::future<Result<uint64_t>>> futures;
  futures.reserve(kInserts);
  for (int i = 0; i < kInserts; ++i) {
    futures.push_back((*db)->Submit(WriteOp::InsertAfter(b, "n")));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  uint64_t syncs = 0;
  uint64_t appends = 0;
  for (const obs::MetricSnapshot& m :
       (*db)->underlying().store()->metrics().Snapshot()) {
    if (m.name == "wal.syncs") syncs = m.counter_value;
    if (m.name == "wal.appends") appends = m.counter_value;
  }
  uint64_t groups = 0;
  for (const obs::MetricSnapshot& m : (*db)->metrics().Snapshot()) {
    if (m.name == "engine.concurrent.commit.batch") groups = m.count;
  }
  // One log record and one fsync per group, however many inserts it
  // holds. (On a single-core runner the writer may still drain
  // one-at-a-time, so only assert it never does *worse* than one sync per
  // insert.)
  EXPECT_EQ(appends, groups);
  EXPECT_EQ(syncs, groups);
  EXPECT_LE(groups, static_cast<uint64_t>(kInserts));
  EXPECT_GT(syncs, 0u);

  // And everything is durably correct: a restart recovers the same tree
  // and id space.
  (*db)->Shutdown();
  ExpectRecoversAs((*db)->underlying(), options);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// --------------------------------------------------------------------------
// Deadline propagation

TEST(ConcurrentXmlDbTest, ExpiredWriteNeverReachesWal) {
  const std::string path = ::testing::TempDir() + "/deadline_write.bin";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ConcurrentXmlDbOptions options;
  options.db.storage_path = path;
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, options);
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];

  // Already expired at submission: rejected before it is even enqueued,
  // whatever the write and its admission.
  ForEveryWriteShape(b, [&](WriteOp op, Admission admission) {
    EXPECT_EQ((*db)->Submit(std::move(op), admission,
                            util::Deadline::AfterMillis(-10))
                  .get()
                  .status()
                  .code(),
              StatusCode::kDeadlineExceeded);
  });
  EXPECT_EQ(CounterValue((*db)->underlying().store()->metrics(),
                         "wal.appends"),
            0u)
      << "an expired write must never produce a WAL record";

  // A live write still goes through — proving the WAL counter works.
  ASSERT_TRUE((*db)->Submit(WriteOp::InsertAfter(b, "n")).get().ok());
  EXPECT_EQ(CounterValue((*db)->underlying().store()->metrics(),
                         "wal.appends"),
            1u);
  (*db)->Shutdown();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ConcurrentXmlDbTest, WriteExpiredWhileQueuedIsShedBeforeTheWal) {
  const std::string path = ::testing::TempDir() + "/deadline_queued.bin";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ConcurrentXmlDbOptions options;
  options.db.storage_path = path;
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, options);
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];

  // Slow the writer so a short-deadline request ages out while queued (or
  // while its group waits on the injected delay — both are "before the
  // writer spends time on it").
  ASSERT_TRUE(
      util::Failpoints::Activate("engine.concurrent.write.delay", "delay=150")
          .ok());
  std::future<Result<uint64_t>> live =
      (*db)->Submit(WriteOp::InsertAfter(b, "n"));
  std::future<Result<uint64_t>> doomed =
      (*db)->Submit(WriteOp::InsertAfter(b, "n"), Admission::kBlock,
                    util::Deadline::AfterMillis(25));
  Result<uint64_t> live_result = live.get();
  Result<uint64_t> doomed_result = doomed.get();
  util::Failpoints::Deactivate("engine.concurrent.write.delay");

  ASSERT_TRUE(live_result.ok());
  EXPECT_EQ(doomed_result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(CounterValue((*db)->metrics(),
                         "engine.concurrent.deadline_exceeded"),
            1u);

  // Only the live write reached the WAL; a later fresh write appends again.
  EXPECT_EQ(CounterValue((*db)->underlying().store()->metrics(),
                         "wal.appends"),
            1u);
  ASSERT_TRUE((*db)->Submit(WriteOp::InsertAfter(b, "n")).get().ok());
  EXPECT_EQ(CounterValue((*db)->underlying().store()->metrics(),
                         "wal.appends"),
            2u);
  (*db)->Shutdown();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ConcurrentXmlDbTest, QueryExpiredWhileQueuedIsShedWithoutRunning) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());

  // Already expired at submission: never reaches the reader pool.
  Result<std::vector<uint64_t>> dead =
      (*db)->SubmitCount("//b", {0}, util::Deadline::AfterMillis(-10)).get();
  EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded);

  // Expired while queued: the worker sees the delay-injected latency, then
  // sheds the query without evaluating it — the reads counter stays put.
  const uint64_t reads_before =
      CounterValue((*db)->metrics(), "engine.concurrent.reads");
  ASSERT_TRUE(
      util::Failpoints::Activate("engine.concurrent.read.delay", "delay=100")
          .ok());
  Result<std::vector<uint64_t>> doomed =
      (*db)->SubmitCount("//b", {0}, util::Deadline::AfterMillis(20)).get();
  util::Failpoints::Deactivate("engine.concurrent.read.delay");
  EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue((*db)->metrics(), "engine.concurrent.reads"),
            reads_before)
      << "a shed query must not have been evaluated";
  EXPECT_GE(CounterValue((*db)->metrics(),
                         "engine.concurrent.deadline_exceeded"),
            2u);

  // A live query still runs fine afterwards.
  Result<std::vector<uint64_t>> live =
      (*db)->SubmitCount("//b", {0}, util::Deadline::AfterMillis(5000)).get();
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, std::vector<uint64_t>{3});
}

TEST(ConcurrentXmlDbTest, AdmissionControlReturnsRetryAfterWithHint) {
  // A tiny queue plus a slowed writer forces kShed submits to shed. The
  // rejection carries kRetryAfter (not a generic error) and the hint is a
  // positive bounded backoff.
  ConcurrentXmlDbOptions options;
  options.write_queue_capacity = 2;
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, options);
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];
  ASSERT_TRUE(
      util::Failpoints::Activate("engine.concurrent.write.delay", "delay=100")
          .ok());
  // A shed write's future fails with kRetryAfter; every other one commits
  // once the writer catches up.
  std::vector<std::future<Result<uint64_t>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(
        (*db)->Submit(WriteOp::InsertAfter(b, "n"), Admission::kShed));
  }
  const uint64_t hint = (*db)->RetryAfterHintMillis();
  EXPECT_GE(hint, 1u);
  EXPECT_LE(hint, 2000u);
  util::Failpoints::Deactivate("engine.concurrent.write.delay");
  uint64_t shed = 0;
  for (auto& f : futures) {
    Result<uint64_t> r = f.get();
    if (r.ok()) continue;
    EXPECT_EQ(r.status().code(), StatusCode::kRetryAfter);
    ++shed;
  }
  EXPECT_GE(shed, 1u) << "32 bursts into a 2-deep queue behind a "
                         "100ms-delayed writer must shed";
  EXPECT_EQ(CounterValue((*db)->metrics(), "engine.concurrent.rejected"),
            shed);
}

TEST(ConcurrentXmlDbTest, StatsAndMetricsReflectActivity) {
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];
  ASSERT_TRUE((*db)->Submit(WriteOp::InsertAfter(b, "n")).get().ok());
  engine::XmlDbStats stats = (*db)->Stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.node_count, 7u);  // 6 initial + 1 inserted
  EXPECT_GE((*db)->snapshot_epoch(), 2u);  // initial + 1 publish

  uint64_t reads = 0;
  uint64_t writes = 0;
  for (const obs::MetricSnapshot& m : (*db)->metrics().Snapshot()) {
    if (m.name == "engine.concurrent.reads") reads = m.counter_value;
    if (m.name == "engine.concurrent.writes") writes = m.counter_value;
  }
  EXPECT_GE(reads, 1u);
  EXPECT_EQ(writes, 1u);
}

// --------------------------------------------------------------------------
// Persistent persist failures, writer poisoning and Reopen
// (docs/ROBUSTNESS.md)

class ConcurrentPersistFailureTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::Failpoints::Deactivate("wal.sync.error");
  }

  static std::string FreshPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    return path;
  }
};

TEST_F(ConcurrentPersistFailureTest, RepeatedFailuresRollBackEachGroup) {
  const std::string path = FreshPath("persist_rollback.bin");
  ConcurrentXmlDbOptions options;
  options.db.storage_path = path;
  options.poison_after_persist_failures = 0;  // breaker off: pure rollback
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, options);
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];
  const uint64_t before = (*db)->Count("//b").value();
  const uint64_t next_id = (*db)->Stats().node_count;

  ASSERT_TRUE(
      util::Failpoints::Activate("wal.sync.error", "enospc").ok());
  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> r = (*db)->Submit(WriteOp::InsertAfter(b, "b")).get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    // Each failed group rolled back cleanly: readers never see the node.
    EXPECT_EQ((*db)->Count("//b").value(), before);
  }
  EXPECT_EQ((*db)->consecutive_persist_failures(), 5u);
  EXPECT_FALSE((*db)->poisoned());  // threshold 0 disables the breaker
  EXPECT_EQ((*db)->last_persist_error().code(),
            StatusCode::kResourceExhausted);

  // Fault clears: service resumes without any reopen (rollback left the
  // log consistent) and the failure streak resets. The failed inserts
  // burnt no id: the next one takes the id the first of them had, and a
  // restart recovers the same id space.
  util::Failpoints::Deactivate("wal.sync.error");
  EXPECT_EQ((*db)->Submit(WriteOp::InsertAfter(b, "b")).get().value(),
            next_id);
  EXPECT_EQ((*db)->Count("//b").value(), before + 1);
  EXPECT_EQ((*db)->consecutive_persist_failures(), 0u);
  (*db)->Shutdown();
  ExpectRecoversAs((*db)->underlying(), options);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST_F(ConcurrentPersistFailureTest, PersistentFailuresPoisonDeterministically) {
  const std::string path = FreshPath("persist_poison.bin");
  ConcurrentXmlDbOptions options;
  options.db.storage_path = path;
  options.poison_after_persist_failures = 3;
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, options);
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];

  ASSERT_TRUE(
      util::Failpoints::Activate("wal.sync.error", "enospc").ok());
  // Sequential submits — each .get() forces its own group — so strikes
  // accumulate deterministically: exactly 3 storage-failed groups poison.
  for (int i = 0; i < 3; ++i) {
    Result<uint64_t> r = (*db)->Submit(WriteOp::InsertAfter(b, "b")).get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE((*db)->poisoned());

  // Poisoned: writes fast-fail with kUnavailable without touching storage,
  // while reads keep serving the last published snapshot.
  Result<uint64_t> bounced =
      (*db)->Submit(WriteOp::InsertAfter(b, "b")).get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE((*db)->Count("//b").ok());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST_F(ConcurrentPersistFailureTest, ReopenRestoresServiceLosingNoAckedWrite) {
  const std::string path = FreshPath("persist_reopen.bin");
  ConcurrentXmlDbOptions options;
  options.db.storage_path = path;
  options.poison_after_persist_failures = 2;
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, options);
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];

  // Some acked writes before the fault.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*db)->Submit(WriteOp::InsertAfter(b, "pre")).get().ok());
  }
  const uint64_t acked_pre = (*db)->Count("//pre").value();
  ASSERT_EQ(acked_pre, 4u);

  // Fault: poison the writer.
  ASSERT_TRUE(
      util::Failpoints::Activate("wal.sync.error", "enospc").ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE((*db)->Submit(WriteOp::InsertAfter(b, "lost")).get().ok());
  }
  ASSERT_TRUE((*db)->poisoned());

  // Reopen with the fault still live fails and stays poisoned.
  EXPECT_FALSE((*db)->Reopen().ok());
  EXPECT_TRUE((*db)->poisoned());

  // Fault clears -> Reopen recovers through the WAL path and un-poisons.
  util::Failpoints::Deactivate("wal.sync.error");
  ASSERT_TRUE((*db)->Reopen().ok());
  EXPECT_FALSE((*db)->poisoned());
  EXPECT_EQ((*db)->consecutive_persist_failures(), 0u);
  EXPECT_TRUE((*db)->last_persist_error().ok());

  // Service restored: new writes commit durably.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*db)->Submit(WriteOp::InsertAfter(b, "post")).get().ok());
  }

  // Ground truth: exactly the acked writes survive — the rolled-back
  // "lost" inserts are gone, every acked one is present, and a restart
  // recovers the same tree and id space.
  EXPECT_EQ((*db)->Count("//pre").value(), 4u);
  EXPECT_EQ((*db)->Count("//lost").value(), 0u);
  EXPECT_EQ((*db)->Count("//post").value(), 3u);
  (*db)->Shutdown();
  ExpectRecoversAs((*db)->underlying(), options);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST_F(ConcurrentPersistFailureTest, InMemoryDatabaseNeverPoisons) {
  // No log, no persist path: the breaker has nothing to trip on even
  // with the log failpoints armed.
  ASSERT_TRUE(
      util::Failpoints::Activate("wal.sync.error", "enospc").ok());
  auto db = ConcurrentXmlDb::OpenFromXml(kSmallDoc, {});
  ASSERT_TRUE(db.ok());
  const NodeId b = (*db)->Query("//b").value()[0];
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*db)->Submit(WriteOp::InsertAfter(b, "n")).get().ok());
  }
  EXPECT_FALSE((*db)->poisoned());
  EXPECT_EQ((*db)->consecutive_persist_failures(), 0u);
}

}  // namespace
}  // namespace cdbs
