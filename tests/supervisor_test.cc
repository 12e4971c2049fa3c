#include "shard/supervisor.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "shard/sharded_db.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "xml/shakespeare.h"

// Shard supervision and self-healing (docs/ROBUSTNESS.md): the health state
// machine, the per-shard circuit breaker, auto-reopen recovery, and
// whole-corpus read-only degradation. Faults are injected through the
// shard-scoped errno failpoints (`wal.shard-<i>.sync.error`), so
// exactly one shard's storage gets sick while the others stay healthy.

namespace cdbs::shard {
namespace {

using engine::WriteOp;

std::vector<xml::Document> Plays(size_t n) {
  std::vector<xml::Document> docs;
  for (size_t i = 0; i < n; ++i) {
    docs.push_back(
        xml::GeneratePlay(/*seed=*/i + 1, /*total_nodes=*/300 + 40 * i));
  }
  return docs;
}

/// Supervisor options tuned for test speed: short backoff.
SupervisorOptions FastSupervisor() {
  SupervisorOptions o;
  o.half_open_probes = 2;
  o.recovery_backoff_ms = 10;
  o.max_recovery_backoff_ms = 50;
  o.breaker_retry_after_ms = 25;
  return o;
}

uint64_t Scans() {
  return obs::MetricRegistry::Default().GetCounter("supervisor.scans")->value();
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/supervisor_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  void TearDown() override {
    util::Failpoints::DeactivateAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// A persistent two-shard corpus, doc i on shard i, breaker after 2
  /// strikes.
  std::unique_ptr<ShardedDb> OpenTwoShards(
      const SupervisorOptions& supervisor = FastSupervisor()) {
    ShardedDbOptions options;
    options.shard_count = 2;
    options.router = RouterKind::kExplicit;
    options.placement = {0, 1};
    options.storage_dir = dir_;
    options.shard.poison_after_persist_failures = 2;
    options.supervisor = supervisor;
    auto db = ShardedDb::Open(Plays(2), options);
    EXPECT_TRUE(db.ok()) << db.status();
    return db.ok() ? std::move(*db) : nullptr;
  }

  /// Drives doc 0's shard into the tripped breaker: arms the scoped ENOSPC
  /// failpoint and submits writes until the writer poisons. Returns a valid
  /// write target inside doc 0.
  engine::NodeId PoisonShard0(ShardedDb* db) {
    EXPECT_TRUE(util::Failpoints::Activate("wal.shard-0.sync.error",
                                           "enospc")
                    .ok());
    const engine::NodeId act = db->QueryDoc(0, "/play/act").value()[0];
    // Threshold is 2: two storage-failed groups poison the writer. More
    // submissions may be needed if the supervisor's gate starts bouncing
    // first (that IS the breaker working), so stop on kUnavailable too.
    for (int i = 0; i < 20; ++i) {
      Result<uint64_t> r =
          db->Submit(0, WriteOp::InsertAfter(act, "sick")).get();
      EXPECT_FALSE(r.ok());
      if (r.status().code() == StatusCode::kUnavailable) break;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << r.status().ToString();
    }
    return act;
  }

  /// PoisonShard0, then waits until the supervisor has taken the shard
  /// down (its first reopen fails while the fault is live).
  engine::NodeId TripShard0(ShardedDb* db) {
    const engine::NodeId act = PoisonShard0(db);
    EXPECT_TRUE(db->supervisor()->WaitForHealth(0, ShardHealth::kDown,
                                                /*timeout_ms=*/5000) ||
                db->supervisor()->health(0) == ShardHealth::kDegraded ||
                db->supervisor()->health(0) == ShardHealth::kRecovering);
    return act;
  }

  std::string dir_;
};

TEST(ShardHealthTest, NamesAreStable) {
  EXPECT_STREQ(ShardHealthName(ShardHealth::kHealthy), "healthy");
  EXPECT_STREQ(ShardHealthName(ShardHealth::kDegraded), "degraded");
  EXPECT_STREQ(ShardHealthName(ShardHealth::kDown), "down");
  EXPECT_STREQ(ShardHealthName(ShardHealth::kRecovering), "recovering");
}

TEST_F(SupervisorTest, HealthyCorpusReportsHealthyEverywhere) {
  auto db = OpenTwoShards();
  ASSERT_NE(db, nullptr);
  ASSERT_NE(db->supervisor(), nullptr);
  EXPECT_EQ(db->supervisor()->shard_count(), 2u);
  EXPECT_FALSE(db->supervisor()->read_only());
  for (uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(db->supervisor()->health(s), ShardHealth::kHealthy);
    EXPECT_TRUE(db->supervisor()->CheckWritable(s).ok());
  }
  const std::string json = db->HealthJson();
  EXPECT_NE(json.find("\"read_only\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"health\":\"healthy\""), std::string::npos) << json;
}

// An in-memory corpus has no log and cannot poison: it runs unsupervised.
TEST_F(SupervisorTest, DisabledSupervisionKeepsTheOldBehavior) {
  ShardedDbOptions options;
  options.shard_count = 2;
  auto db = ShardedDb::Open(Plays(3), options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->supervisor(), nullptr);
  EXPECT_EQ((*db)->HealthJson(), "{}");
  const engine::NodeId act = (*db)->QueryDoc(0, "/play/act").value()[0];
  EXPECT_TRUE((*db)->Submit(0, WriteOp::InsertAfter(act, "x")).get().ok());
}

TEST_F(SupervisorTest, BreakerTripsFastFailsAndAutoRecovers) {
  auto db = OpenTwoShards();
  ASSERT_NE(db, nullptr);
  const engine::NodeId act0 = TripShard0(db.get());

  // Tripped: writes to the sick shard bounce with kUnavailable before they
  // ever queue, and the hint reflects the recovery schedule.
  Result<uint64_t> bounced =
      db->Submit(0, WriteOp::InsertAfter(act0, "bounced")).get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(db->RetryAfterHintMillis(0), 1u);

  // The sick shard still serves reads (the last published snapshot) and
  // the healthy shard still serves writes: one shard's disk never costs
  // the corpus.
  EXPECT_EQ(db->CountDoc(0, "/play/act").value(), 5u);
  const engine::NodeId act1 = db->QueryDoc(1, "/play/act").value()[0];
  ASSERT_TRUE(db->Submit(1, WriteOp::InsertAfter(act1, "alive")).get().ok());
  EXPECT_EQ(db->supervisor()->health(1), ShardHealth::kHealthy);

  // Fault clears: the supervisor reopens the shard's log,
  // re-admits after half-open probes, and service resumes by itself.
  util::Failpoints::Deactivate("wal.shard-0.sync.error");
  ASSERT_TRUE(db->supervisor()->WaitForHealth(0, ShardHealth::kHealthy,
                                              /*timeout_ms=*/10000));
  EXPECT_GE(db->supervisor()->recoveries(), 1u);
  ASSERT_TRUE(
      db->Submit(0, WriteOp::InsertAfter(act0, "recovered")).get().ok());
  EXPECT_EQ(db->CountDoc(0, "/play/recovered").value(), 1u);
  // No rolled-back write ever became visible.
  EXPECT_EQ(db->CountDoc(0, "/play/sick").value(), 0u);
  EXPECT_EQ(db->CountDoc(0, "/play/bounced").value(), 0u);
}

TEST_F(SupervisorTest, RecoveryWaitsOutAPersistentFault) {
  auto db = OpenTwoShards();
  ASSERT_NE(db, nullptr);
  TripShard0(db.get());

  // While the fault is live every reopen fails (the fresh log handle's
  // sync hits the same injected ENOSPC): the shard must stay sick, cycling down ->
  // recovering attempts with backoff, never falsely healthy.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_NE(db->supervisor()->health(0), ShardHealth::kHealthy);
  EXPECT_EQ(db->supervisor()->recoveries(), 0u);

  util::Failpoints::Deactivate("wal.shard-0.sync.error");
  EXPECT_TRUE(db->supervisor()->WaitForHealth(0, ShardHealth::kHealthy,
                                              /*timeout_ms=*/10000));
}

TEST_F(SupervisorTest, IdleCorpusSleepsUntilABreakerTrips) {
  // Backoffs far beyond the test: after the trip no clock wakes the loop.
  SupervisorOptions slow = FastSupervisor();
  slow.recovery_backoff_ms = 60000;
  slow.max_recovery_backoff_ms = 60000;
  auto db = OpenTwoShards(slow);
  ASSERT_NE(db, nullptr);
  const uint64_t idle = Scans();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(Scans(), idle) << "a healthy idle corpus must not be scanned";

  // The poisoning writer wakes the supervisor: one pass sees the trip.
  PoisonShard0(db.get());
  ASSERT_TRUE(db->supervisor()->WaitForHealth(0, ShardHealth::kDegraded,
                                              /*timeout_ms=*/5000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(Scans(), idle + 1);
  EXPECT_EQ(db->supervisor()->health(0), ShardHealth::kDegraded);
  EXPECT_EQ(db->supervisor()->health(1), ShardHealth::kHealthy);
  // The hint tells clients the first reopen is about a minute away.
  EXPECT_GT(db->RetryAfterHintMillis(0), 30000u);
}

TEST_F(SupervisorTest, ManifestDirUnwritableDegradesToReadOnly) {
  auto db = OpenTwoShards();
  ASSERT_NE(db, nullptr);
  const engine::NodeId act1 = db->QueryDoc(1, "/play/act").value()[0];

  // The manifest directory is probed when a breaker trips.
  ASSERT_TRUE(
      util::Failpoints::Activate("shard.manifest.unwritable", "always").ok());
  const engine::NodeId act0 = TripShard0(db.get());
  ASSERT_TRUE(db->supervisor()->read_only());

  // Read-only: every write bounces, the healthy shard's too, reads keep
  // serving, health JSON says so.
  for (const auto& [doc, act] : {std::pair{0, act0}, std::pair{1, act1}}) {
    Result<uint64_t> w = db->Submit(doc, WriteOp::InsertAfter(act, "x")).get();
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(db->supervisor()->health(1), ShardHealth::kHealthy);
  EXPECT_EQ(db->CountDoc(0, "/play/act").value(), 5u);
  EXPECT_EQ(db->CountDoc(1, "/play/act").value(), 5u);
  EXPECT_NE(db->HealthJson().find("\"read_only\":true"), std::string::npos);

  // Faults clear: the probe on the recovery clock clears the degradation
  // and the shard recovers, both automatically.
  util::Failpoints::Deactivate("shard.manifest.unwritable");
  util::Failpoints::Deactivate("wal.shard-0.sync.error");
  ASSERT_TRUE(db->supervisor()->WaitForHealth(0, ShardHealth::kHealthy,
                                              /*timeout_ms=*/10000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (db->supervisor()->read_only() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(db->supervisor()->read_only());
  EXPECT_TRUE(db->Submit(0, WriteOp::InsertAfter(act0, "x")).get().ok());
  EXPECT_TRUE(db->Submit(1, WriteOp::InsertAfter(act1, "x")).get().ok());
}

// --------------------------------------------------------------------------
// Over the wire: retry-after hints on breaker bounces, health in introspect

class SupervisorServerTest : public SupervisorTest {
 protected:
  void SetUp() override {
    SupervisorTest::SetUp();
    db_ = OpenTwoShards();
    ASSERT_NE(db_, nullptr);
    auto server = net::Server::StartSharded(db_.get(), net::ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  void TearDown() override {
    util::Failpoints::DeactivateAll();
    if (server_) server_->Shutdown();
    if (db_) db_->Shutdown();
    db_.reset();
    SupervisorTest::TearDown();
  }

  net::ClientOptions ClientFor(int max_attempts) const {
    net::ClientOptions o;
    o.port = server_->port();
    o.max_attempts = max_attempts;
    o.base_backoff_ms = 1;
    o.max_backoff_ms = 20;
    o.jitter_seed = 4242;
    return o;
  }

  std::unique_ptr<ShardedDb> db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(SupervisorServerTest, IntrospectCarriesPerShardHealth) {
  auto client = net::CdbsClient::Connect(ClientFor(/*max_attempts=*/3));
  ASSERT_TRUE(client.ok()) << client.status();
  auto intro = (*client)->Introspect();
  ASSERT_TRUE(intro.ok()) << intro.status();
  EXPECT_NE(intro->stats_json.find("\"health\":"), std::string::npos);
  EXPECT_NE(intro->stats_json.find("\"health\":\"healthy\""),
            std::string::npos);
  EXPECT_NE(intro->stats_json.find("\"read_only\":false"),
            std::string::npos);
}

TEST_F(SupervisorServerTest, BreakerBounceCarriesRetryAfterAndClientHonorsIt) {
  const engine::NodeId act0 = TripShard0(db_.get());

  // A single-attempt client surfaces the raw bounce: kUnavailable WITH a
  // retry-after hint (the satellite bugfix — it used to arrive hintless).
  {
    auto client = net::CdbsClient::Connect(ClientFor(/*max_attempts=*/1));
    ASSERT_TRUE(client.ok()) << client.status();
    auto w = (*client)->InsertAfterIn(0, act0, "x");
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.status().code(), StatusCode::kUnavailable);
  }

  // A retrying client rides the hint through recovery: clear the fault,
  // and the SAME logical call eventually commits once the supervisor
  // re-admits the shard — no manual retry loop in the caller.
  util::Failpoints::Deactivate("wal.shard-0.sync.error");
  auto client = net::CdbsClient::Connect(ClientFor(/*max_attempts=*/200));
  ASSERT_TRUE(client.ok()) << client.status();
  auto w = (*client)->InsertAfterIn(0, act0, "healed");
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(*(*client)->CountIn(0, "/play/healed"), 1u);
}

}  // namespace
}  // namespace cdbs::shard
