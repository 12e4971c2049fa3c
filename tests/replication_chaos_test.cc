#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus_util.h"
#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "repl/follower.h"
#include "shard/sharded_db.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/status.h"

/// \file
/// Chaos tests for WAL-shipping replication (docs/REPLICATION.md). Two
/// failure stories, asserted as invariants rather than success rates:
///
///   * kill-primary under sync commit — every write a client got an OK for
///     is readable on the promoted follower. The OK is the contract; the
///     failover must honour it.
///   * faulty stream — with latency, drops, and frame corruption injected
///     into the replication stream itself, a follower that is repeatedly
///     torn down still converges to the byte-identical document (CDBS
///     replay determinism, Theorem 3.1), matching a pristine follower
///     bootstrapped after the chaos lifts.
///
/// CDBS_CHAOS_OPS scales the write volume, as in net_chaos_test.

namespace cdbs::repl {
namespace {

using engine::ConcurrentXmlDb;
using engine::ConcurrentXmlDbOptions;
using engine::NodeId;
using engine::WriteOp;

constexpr char kDoc[] = "<root><a><b/><b/></a><c><b/></c></root>";

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 15000) {
  const util::Deadline d = util::Deadline::AfterMillis(timeout_ms);
  while (!d.expired()) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// True when `st` is an error the chaos profile legitimately produces.
bool IsExpectedChaosFailure(const Status& st) {
  switch (st.code()) {
    case StatusCode::kIoError:            // drops, resets, dead primary
    case StatusCode::kCorruption:         // CRC-detected torn frame
    case StatusCode::kDeadlineExceeded:   // shed under injected latency
    case StatusCode::kRetryAfter:         // shed with attempts exhausted
    case StatusCode::kInternal:           // stream resync
      return true;
    default:
      return false;
  }
}

class ReplicationChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/repl_chaos_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    for (const std::string& site : util::Failpoints::ActiveSites()) {
      if (site.rfind("net.", 0) == 0 ||
          site.rfind("engine.concurrent.", 0) == 0) {
        util::Failpoints::Deactivate(site);
      }
    }
    if (replica_server_) replica_server_->Shutdown();
    if (follower_) follower_->Stop();
    if (primary_server_) primary_server_->Shutdown();
    if (primary_) primary_->Shutdown();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void StartPrimary(ReplicationSenderOptions repl) {
    ConcurrentXmlDbOptions o;
    o.replication_log_path = dir_ + "/primary.repl";
    auto corpus = OpenCorpus(kDoc, o);
    ASSERT_TRUE(corpus.ok()) << corpus.status().message();
    primary_ = std::move(*corpus);
    primary_db_ = primary_->shard(0);
    net::ServerOptions so;
    so.repl = repl;
    so.repl.heartbeat_ms = 20;
    auto server = net::Server::StartSharded(primary_.get(), so);
    ASSERT_TRUE(server.ok()) << server.status().message();
    primary_server_ = std::move(*server);
    primary_port_ = primary_server_->port();
  }

  std::unique_ptr<Follower> StartFollowerNode(const std::string& name) {
    FollowerOptions fo;
    fo.primary_port = primary_port_;
    fo.db.replication_log_path = dir_ + "/" + name + ".repl";
    fo.reconnect_backoff_ms = 20;
    return Follower::Start(std::move(fo));
  }

  static std::string DocXml(ConcurrentXmlDb* db) {
    Result<engine::BootstrapImage> image = db->CaptureBootstrap();
    EXPECT_TRUE(image.ok()) << image.status().message();
    return image.ok() ? image->spec.xml : std::string();
  }

  /// Stream (re)connection attempts of one follower, from its registry.
  static uint64_t Reconnects(const Follower& follower) {
    for (const obs::MetricSnapshot& m : follower.metrics().Snapshot()) {
      if (m.name == "repl.follower.reconnects") return m.counter_value;
    }
    return 0;
  }

  static int ChaosOps(int fallback) {
    const char* raw = std::getenv("CDBS_CHAOS_OPS");
    return raw != nullptr ? std::atoi(raw) : fallback;
  }

  std::string dir_;
  uint16_t primary_port_ = 0;
  std::unique_ptr<shard::ShardedDb> primary_;
  ConcurrentXmlDb* primary_db_ = nullptr;  // the primary's one shard
  std::unique_ptr<net::Server> primary_server_;
  std::unique_ptr<Follower> follower_;
  std::unique_ptr<net::Server> replica_server_;
};

// The failover contract. Writers hammer a sync-commit primary; mid-burst
// the primary is killed (graceful drain — a crash without drain voids the
// not-yet-responded tail, but never a delivered OK, because in sync mode
// the OK itself is withheld until the follower acked). Afterwards the
// follower is promoted and every acked write must be readable there,
// exactly once.
TEST_F(ReplicationChaosTest, KillPrimaryLosesNoAckedWrites) {
  ReplicationSenderOptions repl;
  repl.sync_commit = true;
  StartPrimary(repl);
  follower_ = StartFollowerNode("replica");
  // Sync commit vouches only for *subscribed* followers: wait for the
  // stream to be live before counting any write as protected.
  ASSERT_TRUE(WaitUntil([&] {
    return follower_->state() == Follower::State::kStreaming;
  })) << "follower never subscribed";
  auto replica_server = net::Server::StartReplica(follower_.get(), {});
  ASSERT_TRUE(replica_server.ok()) << replica_server.status().message();
  replica_server_ = std::move(*replica_server);

  const std::vector<NodeId> anchors = primary_db_->Query("//b").value();
  ASSERT_FALSE(anchors.empty());

  constexpr int kThreads = 3;
  const int kOpsPerThread = ChaosOps(60);
  std::atomic<bool> kill_started{false};
  std::atomic<uint64_t> total_acked{0};
  std::atomic<int> unexpected_failures{0};
  std::vector<std::vector<std::string>> acked(kThreads);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      net::ClientOptions copts;
      copts.port = primary_port_;
      copts.max_attempts = 2;
      copts.base_backoff_ms = 1;
      copts.max_backoff_ms = 10;
      copts.connect_timeout_ms = 500;
      copts.jitter_seed = 100 + static_cast<uint64_t>(t);
      auto client = net::CdbsClient::Connect(copts);
      if (!client.ok()) return;  // raced the kill before the first write
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string tag(1, 'w');
        tag += std::to_string(t);
        tag += 'x';
        tag += std::to_string(i);
        Result<uint64_t> r = (*client)->InsertAfter(
            static_cast<uint64_t>(anchors[t % anchors.size()]), tag,
            util::Deadline::AfterMillis(5000));
        if (r.ok()) {
          acked[t].push_back(tag);
          total_acked.fetch_add(1);
          continue;
        }
        if (kill_started.load()) break;  // the primary is going away
        if (!IsExpectedChaosFailure(r.status())) {
          unexpected_failures.fetch_add(1);
          ADD_FAILURE() << "pre-kill failure: " << r.status().ToString();
          break;
        }
        // Pre-kill shed (overload): the write is not counted, move on.
      }
    });
  }

  // Let traffic build, then kill the primary mid-burst. The flag flips
  // first so in-flight failures classify as expected.
  ASSERT_TRUE(WaitUntil([&] { return total_acked.load() >= 20; }))
      << "writers never got going";
  kill_started.store(true);
  primary_server_->Shutdown();
  primary_server_.reset();
  for (std::thread& w : writers) w.join();
  ASSERT_EQ(unexpected_failures.load(), 0);
  ASSERT_GE(total_acked.load(), 20u);

  // Failover: promote over the wire, as the operator runbook would.
  net::ClientOptions po;
  po.port = replica_server_->port();
  po.jitter_seed = 7;
  auto pclient = net::CdbsClient::Connect(po);
  ASSERT_TRUE(pclient.ok());
  Result<uint64_t> epoch = (*pclient)->Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().message();
  ASSERT_TRUE(follower_->promoted());

  // The contract: every OK the clients saw is on the promoted node.
  std::shared_ptr<shard::ShardedDb> promoted = follower_->db();
  ASSERT_NE(promoted, nullptr);
  uint64_t verified = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& tag : acked[t]) {
      Result<std::vector<NodeId>> found =
          promoted->shard(0)->Query("//" + tag);
      ASSERT_TRUE(found.ok()) << found.status().message();
      EXPECT_EQ(found->size(), 1u)
          << "acked write " << tag << " lost in failover";
      ++verified;
    }
  }
  EXPECT_EQ(verified, total_acked.load());
}

// Replay determinism under a hostile stream. The chaos profile tears the
// follower's subscribe stream over and over (injected latency triggers
// buffer overflow drops; injected drops and corruption tear the socket);
// each time the follower resubscribes from its applied LSN or, if the log
// moved on, re-bootstraps. When the chaos lifts it must converge to the
// same serialized bytes as the primary — and as a pristine follower that
// never saw a single fault.
TEST_F(ReplicationChaosTest, FaultyStreamStillConvergesBitIdentically) {
  ReplicationSenderOptions repl;
  repl.follower_buffer_records = 8;  // small buffer: delays become drops
  StartPrimary(repl);
  follower_ = StartFollowerNode("replica");
  ASSERT_TRUE(WaitUntil([&] {
    return follower_->state() == Follower::State::kStreaming;
  }));
  const uint64_t reconnects_before = Reconnects(*follower_);

  // Chaos on: every net frame — including each replicated record — may be
  // delayed, dropped, or corrupted. Writes go straight into the engine so
  // only the replication path is perturbed.
  ASSERT_TRUE(util::Failpoints::ActivateFromList(
                  "net.conn.delay=delay=5:prob=0.3;"
                  "net.conn.drop=prob=0.02;"
                  "net.frame.corrupt=prob=0.02")
                  .ok());
  const int kOps = ChaosOps(120);
  for (int i = 0; i < kOps; ++i) {
    const std::vector<NodeId> bs = primary_db_->Query("//b").value();
    ASSERT_FALSE(bs.empty());
    std::string tag(1, 'n');
    tag += std::to_string(i);
    Result<uint64_t> after =
        primary_db_->Submit(WriteOp::InsertAfter(bs[0], tag)).get();
    ASSERT_TRUE(after.ok()) << after.status().message();
    if (i % 4 == 3) {
      Result<uint64_t> extra =
          primary_db_->Submit(WriteOp::InsertBefore(bs[0], "m")).get();
      ASSERT_TRUE(extra.ok());
      ASSERT_TRUE(primary_db_->Submit(WriteOp::Delete(*extra)).get().ok());
    }
  }
  util::Failpoints::Deactivate("net.conn.delay");
  util::Failpoints::Deactivate("net.conn.drop");
  util::Failpoints::Deactivate("net.frame.corrupt");

  // Chaos off: the battered follower converges...
  ASSERT_TRUE(WaitUntil([&] {
    return follower_->state() == Follower::State::kStreaming &&
           follower_->applied_lsn() == primary_db_->commit_lsn();
  })) << "follower never recovered from the chaos profile";

  // ...to the identical document a never-faulted follower reaches.
  std::unique_ptr<Follower> pristine = StartFollowerNode("pristine");
  ASSERT_TRUE(WaitUntil([&] {
    return pristine->state() == Follower::State::kStreaming &&
           pristine->applied_lsn() == primary_db_->commit_lsn();
  })) << "pristine follower never converged";

  const std::string truth = DocXml(primary_db_);
  EXPECT_EQ(DocXml(follower_->db()->shard(0)), truth);
  EXPECT_EQ(DocXml(pristine->db()->shard(0)), truth);
  pristine->Stop();

  const uint64_t reconnects_after = Reconnects(*follower_);
  EXPECT_GT(reconnects_after, reconnects_before)
      << "the chaos profile never actually tore the stream";
}

}  // namespace
}  // namespace cdbs::repl
