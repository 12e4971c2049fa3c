#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "repl/follower.h"
#include "repl/replication.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace cdbs::repl {
namespace {

using engine::ConcurrentXmlDb;
using engine::ConcurrentXmlDbOptions;
using engine::NodeId;

// --------------------------------------------------------------------------
// ReplOp codec

TEST(ReplOpCodecTest, RoundtripsMixedBatches) {
  std::vector<ReplOp> ops(3);
  ops[0].kind = ReplOp::Kind::kInsertBefore;
  ops[0].target = 7;
  ops[0].new_id = 12;
  ops[0].tag = "chapter";
  ops[1].kind = ReplOp::Kind::kInsertAfter;
  ops[1].target = 12;
  ops[1].new_id = 13;
  ops[1].tag = "x";
  ops[2].kind = ReplOp::Kind::kDelete;
  ops[2].target = 3;
  ops[2].new_id = 4;  // deletes: removed count
  ops[2].tag.clear();

  std::vector<ReplOp> out;
  ASSERT_TRUE(DecodeReplOps(EncodeReplOps(ops), &out).ok());
  ASSERT_EQ(out.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(out[i].kind, ops[i].kind) << i;
    EXPECT_EQ(out[i].target, ops[i].target) << i;
    EXPECT_EQ(out[i].new_id, ops[i].new_id) << i;
    EXPECT_EQ(out[i].tag, ops[i].tag) << i;
  }

  // The empty batch is legal (it is never produced, but must not crash).
  std::vector<ReplOp> none;
  ASSERT_TRUE(DecodeReplOps(EncodeReplOps({}), &none).ok());
  EXPECT_TRUE(none.empty());
}

TEST(ReplOpCodecTest, RejectsTruncationGarbageAndTrailingBytes) {
  std::vector<ReplOp> ops(1);
  ops[0].kind = ReplOp::Kind::kInsertAfter;
  ops[0].target = 1;
  ops[0].new_id = 2;
  ops[0].tag = "t";
  const std::string good = EncodeReplOps(ops);

  std::vector<ReplOp> out;
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(
        DecodeReplOps(std::string_view(good.data(), n), &out).ok())
        << "prefix of " << n << " bytes decoded";
  }
  std::string trailing = good;
  trailing.push_back('x');
  EXPECT_FALSE(DecodeReplOps(trailing, &out).ok());  // trailing byte

  // An op kind outside the enum is corruption, not a silent skip.
  std::string bad_kind = good;
  bad_kind[4] = '\x09';
  EXPECT_FALSE(DecodeReplOps(bad_kind, &out).ok());

  // A count far beyond what the payload can hold fails before allocating.
  std::string bad_count = good;
  bad_count[0] = '\xFF';
  bad_count[1] = '\xFF';
  EXPECT_FALSE(DecodeReplOps(bad_count, &out).ok());
}

TEST(BootstrapSpecCodecTest, RoundtripsAndRejectsMalformedBlobs) {
  engine::BootstrapSpec spec;
  spec.xml = "<r><a/><b/></r>";
  spec.ids = {0, 2, 1};
  spec.original_count = 3;
  spec.next_id = 5;
  const std::string blob = EncodeBootstrapSpec(spec);

  engine::BootstrapSpec out;
  ASSERT_TRUE(DecodeBootstrapSpec(blob, &out).ok());
  EXPECT_EQ(out.xml, spec.xml);
  EXPECT_EQ(out.ids, spec.ids);
  EXPECT_EQ(out.original_count, spec.original_count);
  EXPECT_EQ(out.next_id, spec.next_id);

  EXPECT_FALSE(DecodeBootstrapSpec("", &out).ok());
  std::string bad_version = blob;
  bad_version[0] = '\x7F';
  EXPECT_FALSE(DecodeBootstrapSpec(bad_version, &out).ok());
  // A truncated header or id list is corruption, never a short read.
  for (size_t n = 1; n < 1 + 3 * 8 + spec.ids.size() * 8; ++n) {
    EXPECT_FALSE(
        DecodeBootstrapSpec(std::string_view(blob.data(), n), &out).ok())
        << "prefix of " << n << " bytes decoded";
  }
  // An id count the payload cannot hold fails before allocating.
  std::string bad_count = blob;
  bad_count[1 + 16] = '\xFF';
  bad_count[1 + 17] = '\xFF';
  bad_count[1 + 18] = '\xFF';
  EXPECT_FALSE(DecodeBootstrapSpec(bad_count, &out).ok());
}

// --------------------------------------------------------------------------
// ReplicationLog: retention, eviction, epoch

class ReplicationLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/repl_log_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::vector<ReplOp> OneInsert(uint64_t target, uint64_t new_id) {
    std::vector<ReplOp> ops(1);
    ops[0].kind = ReplOp::Kind::kInsertAfter;
    ops[0].target = target;
    ops[0].new_id = new_id;
    ops[0].tag.assign(1, 'n');
    return ops;
  }

  std::string path_;
  obs::MetricRegistry registry_;
};

TEST_F(ReplicationLogTest, AppendsStampMonotonicLsnsAndReadFromCursors) {
  ReplicationLog log(&registry_);
  ASSERT_TRUE(log.Open(path_).ok());
  EXPECT_EQ(log.last_lsn(), 0u);
  EXPECT_EQ(log.oldest_lsn(), 1u);
  EXPECT_NE(log.epoch(), 0u);

  for (uint64_t i = 1; i <= 3; ++i) {
    Result<uint64_t> lsn = log.Append(OneInsert(i, 10 + i));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, i);
  }
  std::vector<ReplRecord> records;
  ASSERT_TRUE(log.ReadFrom(2, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 2u);
  EXPECT_EQ(records[1].lsn, 3u);
  ASSERT_EQ(records[0].ops.size(), 1u);
  EXPECT_EQ(records[0].ops[0].new_id, 12u);

  // A cursor below the floor (0 is never a valid LSN) must bootstrap.
  records.clear();
  EXPECT_EQ(log.ReadFrom(0, &records).code(), StatusCode::kOutOfRange);
}

TEST_F(ReplicationLogTest, EvictionMovesTheFloorAndKeepsLsnsCounting) {
  ReplicationLogOptions options;
  options.retain_bytes = 64;  // a couple of records, then evict
  ReplicationLog log(&registry_, options);
  ASSERT_TRUE(log.Open(path_).ok());

  uint64_t last = 0;
  for (uint64_t i = 1; i <= 20; ++i) {
    Result<uint64_t> lsn = log.Append(OneInsert(i, i));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, i) << "LSNs keep counting across evictions";
    last = *lsn;
  }
  EXPECT_GT(log.oldest_lsn(), 1u) << "retention must have evicted";
  EXPECT_LE(log.oldest_lsn(), last + 1);

  // Below the floor: the reader is told to bootstrap.
  std::vector<ReplRecord> records;
  EXPECT_EQ(log.ReadFrom(1, &records).code(), StatusCode::kOutOfRange);
  // At the floor: whatever is retained (possibly nothing) reads cleanly.
  records.clear();
  EXPECT_TRUE(log.ReadFrom(log.oldest_lsn(), &records).ok());
  for (const ReplRecord& r : records) EXPECT_GE(r.lsn, log.oldest_lsn());
}

TEST_F(ReplicationLogTest, ReopenContinuesLsnsButMintsAFreshEpoch) {
  uint64_t first_epoch = 0;
  {
    ReplicationLog log(&registry_);
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(OneInsert(1, 1)).ok());
    ASSERT_TRUE(log.Append(OneInsert(2, 2)).ok());
    first_epoch = log.epoch();
  }
  ReplicationLog reopened(&registry_);
  ASSERT_TRUE(reopened.Open(path_).ok());
  EXPECT_EQ(reopened.last_lsn(), 2u) << "LSN counter survives a restart";
  EXPECT_NE(reopened.epoch(), first_epoch)
      << "every incarnation must be distinguishable on the wire";
  Result<uint64_t> next = reopened.Append(OneInsert(3, 3));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
}

// --------------------------------------------------------------------------
// End-to-end: primary + sender + follower (+ replica server)

constexpr char kDoc[] = "<root><a><b/><b/></a><c><b/></c></root>";

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const util::Deadline d = util::Deadline::AfterMillis(timeout_ms);
  while (!d.expired()) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class ReplicationE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/repl_e2e_" +
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
    if (primary_db_) primary_db_->Shutdown();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Starts (or restarts, on the same port) the primary database + server.
  void StartPrimary(uint64_t retain_bytes = 4ull << 20,
                    ReplicationSenderOptions repl = {}) {
    if (primary_db_ == nullptr) {
      ConcurrentXmlDbOptions o;
      o.replication_log_path = dir_ + "/primary.repl";
      o.replication_retain_bytes = retain_bytes;
      auto db = ConcurrentXmlDb::OpenFromXml(kDoc, o);
      ASSERT_TRUE(db.ok()) << db.status().message();
      primary_db_ = std::move(*db);
    }
    net::ServerOptions so;
    so.port = primary_port_;  // 0 first time; the bound port on restarts
    so.repl = repl;
    so.repl.heartbeat_ms = 20;  // fast staleness refresh in tests
    auto server = net::Server::Start(primary_db_.get(), so);
    ASSERT_TRUE(server.ok()) << server.status().message();
    primary_server_ = std::move(*server);
    primary_port_ = primary_server_->port();
  }

  std::unique_ptr<Follower> StartFollowerNode(
      int64_t max_staleness_ms = 0, const std::string& name = "replica") {
    FollowerOptions fo;
    fo.primary_port = primary_port_;
    fo.db.replication_log_path = dir_ + "/" + name + ".repl";
    fo.max_staleness_ms = max_staleness_ms;
    fo.reconnect_backoff_ms = 20;
    return Follower::Start(std::move(fo));
  }

  /// Follower has applied everything the primary committed and is live.
  ::testing::AssertionResult Converged(Follower* f) {
    const bool ok = WaitUntil([&] {
      return f->state() == Follower::State::kStreaming &&
             f->applied_lsn() == primary_db_->commit_lsn();
    });
    if (ok) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "follower stuck: state=" << static_cast<int>(f->state())
           << " applied=" << f->applied_lsn()
           << " primary=" << primary_db_->commit_lsn();
  }

  /// Serialized document — label-order identical across replicas by
  /// Theorem 3.1 (replay never relabels; assignment is neighbour-local).
  static std::string DocXml(ConcurrentXmlDb* db) {
    Result<engine::BootstrapImage> image = db->CaptureBootstrap();
    EXPECT_TRUE(image.ok()) << image.status().message();
    return image.ok() ? image->spec.xml : std::string();
  }

  /// Applies a deterministic write mix through the primary.
  void WriteMix(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const std::vector<NodeId> bs = primary_db_->Query("//b").value();
      ASSERT_FALSE(bs.empty());
      std::string tag(1, 'n');
      tag += std::to_string(i);
      Result<NodeId> after = primary_db_->InsertElementAfter(bs[0], tag);
      ASSERT_TRUE(after.ok()) << after.status().message();
      Result<NodeId> before = primary_db_->InsertElementBefore(bs[0], "m");
      ASSERT_TRUE(before.ok());
      if (i % 3 == 2) {
        ASSERT_TRUE(primary_db_->DeleteElement(*before).ok());
      }
    }
  }

  uint64_t DefaultCounter(const std::string& name) {
    return obs::MetricRegistry::Default().GetCounter(name, "")->value();
  }
  uint64_t PrimaryCounter(const std::string& name) {
    return primary_db_->registry().GetCounter(name, "")->value();
  }

  std::string dir_;
  uint16_t primary_port_ = 0;
  std::unique_ptr<ConcurrentXmlDb> primary_db_;
  std::unique_ptr<net::Server> primary_server_;
  std::unique_ptr<Follower> follower_;
  std::unique_ptr<net::Server> replica_server_;
};

TEST_F(ReplicationE2ETest, FollowerBootstrapsStreamsAndConverges) {
  StartPrimary();
  follower_ = StartFollowerNode();
  ASSERT_TRUE(WaitUntil([&] { return follower_->db() != nullptr; }))
      << "bootstrap never landed";

  WriteMix(6);
  ASSERT_TRUE(Converged(follower_.get()));

  // Logical replay reproduced the primary bit for bit: same serialized
  // document, and the same node ids answer the same query.
  std::shared_ptr<ConcurrentXmlDb> replica = follower_->db();
  EXPECT_EQ(DocXml(replica.get()), DocXml(primary_db_.get()));
  EXPECT_EQ(replica->Query("//n0").value(),
            primary_db_->Query("//n0").value());
  EXPECT_EQ(follower_->primary_last_lsn(), primary_db_->commit_lsn());
  EXPECT_LT(follower_->staleness_ms(), INT64_MAX);
}

TEST_F(ReplicationE2ETest, ReplicaServerServesReadsAndRedirectsWrites) {
  StartPrimary();
  WriteMix(2);
  follower_ = StartFollowerNode();
  ASSERT_TRUE(Converged(follower_.get()));
  auto replica_server = net::Server::StartReplica(follower_.get(), {});
  ASSERT_TRUE(replica_server.ok()) << replica_server.status().message();
  replica_server_ = std::move(*replica_server);

  // Reads on the replica answer with the primary's node ids.
  net::ClientOptions ro;
  ro.port = replica_server_->port();
  ro.max_attempts = 2;
  ro.jitter_seed = 7;
  auto rclient = net::CdbsClient::Connect(ro);
  ASSERT_TRUE(rclient.ok());
  Result<std::vector<uint64_t>> bs = (*rclient)->Query("//b");
  ASSERT_TRUE(bs.ok()) << bs.status().message();
  const std::vector<NodeId> direct = primary_db_->Query("//b").value();
  ASSERT_EQ(bs->size(), direct.size());
  // Id for id, not just count for count: the follower bootstrapped from a
  // snapshot taken *after* updates, so only an id-preserving bootstrap
  // (XmlDb::OpenFromBootstrap) makes replica answers interchangeable.
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ((*bs)[i], direct[i]) << "replica answered with divergent ids";
  }

  // Writes bounce with kNotLeader — the replica did not execute them.
  Result<uint64_t> rejected = (*rclient)->InsertAfter((*bs)[0], "w");
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotLeader);
  EXPECT_TRUE(primary_db_->Query("//w").value().empty());

  // With both endpoints configured, the client rides the redirect to the
  // primary and the write lands exactly once.
  net::ClientOptions fo;
  fo.endpoints = {{"127.0.0.1", replica_server_->port()},
                  {"127.0.0.1", primary_port_}};
  fo.jitter_seed = 7;
  auto fclient = net::CdbsClient::Connect(fo);
  ASSERT_TRUE(fclient.ok());
  Result<uint64_t> through = (*fclient)->InsertAfter((*bs)[0], "w");
  ASSERT_TRUE(through.ok()) << through.status().message();
  EXPECT_EQ((*fclient)->endpoint_index(), 1u) << "failover landed on primary";
  EXPECT_EQ(primary_db_->Query("//w").value().size(), 1u);
}

TEST_F(ReplicationE2ETest, TornStreamCatchesUpFromTheLogWithoutBootstrap) {
  StartPrimary();
  follower_ = StartFollowerNode();
  WriteMix(3);
  ASSERT_TRUE(Converged(follower_.get()));
  const uint64_t bootstraps_before = DefaultCounter("repl.follower.bootstraps");

  // Tear every stream (server restart), write while the follower is cut
  // off, then come back on the same port. Same database, same log, same
  // epoch: the follower must resume from applied+1 via the retained log.
  primary_server_->Shutdown();
  primary_server_.reset();
  WriteMix(4);
  StartPrimary();
  ASSERT_TRUE(Converged(follower_.get()));

  EXPECT_EQ(DefaultCounter("repl.follower.bootstraps"), bootstraps_before)
      << "catch-up within the retention window must not re-bootstrap";
  std::shared_ptr<ConcurrentXmlDb> replica = follower_->db();
  EXPECT_EQ(DocXml(replica.get()), DocXml(primary_db_.get()));
}

TEST_F(ReplicationE2ETest, FallingBehindRetentionForcesSnapshotBootstrap) {
  StartPrimary(/*retain_bytes=*/256);
  follower_ = StartFollowerNode();
  WriteMix(1);
  ASSERT_TRUE(Converged(follower_.get()));
  const uint64_t bootstraps_before = DefaultCounter("repl.follower.bootstraps");

  // Cut the follower off and push the log far past the retention bound:
  // its resubscribe cursor now precedes the floor, so the primary answers
  // kOutOfRange and the follower falls back to a snapshot.
  primary_server_->Shutdown();
  primary_server_.reset();
  WriteMix(20);
  ASSERT_GT(PrimaryCounter("repl.log.evictions"), 0u);
  StartPrimary(/*retain_bytes=*/256);
  ASSERT_TRUE(Converged(follower_.get()));

  EXPECT_GT(DefaultCounter("repl.follower.bootstraps"), bootstraps_before);
  std::shared_ptr<ConcurrentXmlDb> replica = follower_->db();
  EXPECT_EQ(DocXml(replica.get()), DocXml(primary_db_.get()));
  // The snapshot covered a mutated id space (inserted, deleted AND burnt
  // ids): the reconstruction must hand back the primary's ids...
  EXPECT_EQ(replica->Query("//n5").value(), primary_db_->Query("//n5").value());
  EXPECT_EQ(replica->Query("//m").value(), primary_db_->Query("//m").value());

  // ...and the op stream must keep applying on top of it — more writes
  // converge logically, with no further snapshot.
  const uint64_t bootstraps_after = DefaultCounter("repl.follower.bootstraps");
  WriteMix(3);
  ASSERT_TRUE(Converged(follower_.get()));
  EXPECT_EQ(DefaultCounter("repl.follower.bootstraps"), bootstraps_after)
      << "post-bootstrap stream diverged and forced another snapshot";
  replica = follower_->db();
  EXPECT_EQ(DocXml(replica.get()), DocXml(primary_db_.get()));
  EXPECT_EQ(replica->Query("//m").value(), primary_db_->Query("//m").value());
}

TEST_F(ReplicationE2ETest, SlowFollowerIsDroppedThenCatchesBackUp) {
  ReplicationSenderOptions repl;
  repl.follower_buffer_records = 1;  // any burst overflows
  StartPrimary(4ull << 20, repl);
  follower_ = StartFollowerNode();
  WriteMix(1);
  ASSERT_TRUE(Converged(follower_.get()));
  const uint64_t dropped_before = PrimaryCounter("repl.followers_dropped");

  // Stall the stream thread (per-record injected delay) while committing a
  // burst: the 1-record buffer overflows and the follower is dropped —
  // bounded memory beats an unbounded backlog.
  ASSERT_TRUE(util::Failpoints::Activate("net.conn.delay", "delay=200").ok());
  WriteMix(4);
  ASSERT_TRUE(WaitUntil([&] {
    return PrimaryCounter("repl.followers_dropped") > dropped_before;
  })) << "overflowing follower was never dropped";
  util::Failpoints::Deactivate("net.conn.delay");

  // The drop is not fatal: resubscribe from applied+1, catch up, converge.
  ASSERT_TRUE(Converged(follower_.get()));
  std::shared_ptr<ConcurrentXmlDb> replica = follower_->db();
  EXPECT_EQ(DocXml(replica.get()), DocXml(primary_db_.get()));
}

TEST_F(ReplicationE2ETest, StalenessBoundGatesReadsUntilContactResumes) {
  StartPrimary();
  follower_ = StartFollowerNode(/*max_staleness_ms=*/100);
  WriteMix(1);
  ASSERT_TRUE(Converged(follower_.get()));

  // Live stream, 20ms heartbeats: comfortably inside the 100ms bound.
  ASSERT_TRUE(WaitUntil([&] { return follower_->ReadableDb().ok(); }));

  // Silence the primary. With no heartbeats the replica cannot vouch for
  // its freshness, so bounded reads start bouncing...
  primary_server_->Shutdown();
  primary_server_.reset();
  ASSERT_TRUE(WaitUntil([&] {
    return follower_->ReadableDb().status().code() == StatusCode::kRetryAfter;
  })) << "stale reads were never rejected";
  EXPECT_GT(follower_->staleness_ms(), 100);
  // ...while explicitly-unbounded reads still serve the last snapshot.
  EXPECT_TRUE(follower_->ReadableDb(/*max_staleness_ms=*/0).ok());
}

TEST_F(ReplicationE2ETest, PromotedReplicaServesWritesAndNewFollowers) {
  StartPrimary();
  WriteMix(3);
  follower_ = StartFollowerNode();
  ASSERT_TRUE(Converged(follower_.get()));
  auto replica_server = net::Server::StartReplica(follower_.get(), {});
  ASSERT_TRUE(replica_server.ok());
  replica_server_ = std::move(*replica_server);
  const std::string at_failover = DocXml(follower_->db().get());

  // The primary dies. Promote the replica over the wire.
  primary_server_->Shutdown();
  primary_server_.reset();
  net::ClientOptions po;
  po.port = replica_server_->port();
  po.jitter_seed = 7;
  auto pclient = net::CdbsClient::Connect(po);
  ASSERT_TRUE(pclient.ok());
  Result<uint64_t> epoch = (*pclient)->Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().message();
  EXPECT_NE(*epoch, 0u);
  EXPECT_TRUE(follower_->promoted());

  // A writer configured with [dead primary, replica] finds the new leader.
  net::ClientOptions wo;
  wo.endpoints = {{"127.0.0.1", primary_port_},
                  {"127.0.0.1", replica_server_->port()}};
  wo.jitter_seed = 7;
  wo.connect_timeout_ms = 200;
  auto wclient = net::CdbsClient::Connect(wo);
  ASSERT_TRUE(wclient.ok());
  Result<std::vector<uint64_t>> bs = (*wclient)->Query("//b");
  ASSERT_TRUE(bs.ok());
  Result<uint64_t> written = (*wclient)->InsertAfter((*bs)[0], "postfail");
  ASSERT_TRUE(written.ok()) << written.status().message();
  Result<std::vector<uint64_t>> check = (*wclient)->Query("//postfail");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->size(), 1u);

  // The promoted node is a full primary: a brand-new follower bootstraps
  // from it (fresh epoch, fresh LSN space) and converges on its stream.
  const uint16_t promoted_port = replica_server_->port();
  FollowerOptions fo;
  fo.primary_port = promoted_port;
  fo.db.replication_log_path = dir_ + "/second.repl";
  fo.reconnect_backoff_ms = 20;
  std::unique_ptr<Follower> second = Follower::Start(std::move(fo));
  std::shared_ptr<ConcurrentXmlDb> promoted = follower_->db();
  ASSERT_TRUE(WaitUntil([&] {
    return second->state() == Follower::State::kStreaming &&
           second->applied_lsn() == promoted->commit_lsn();
  })) << "second-generation follower never converged";
  EXPECT_EQ(DocXml(second->db().get()), DocXml(promoted.get()));
  EXPECT_NE(DocXml(second->db().get()), at_failover)
      << "post-failover write must be part of the replicated state";
  second->Stop();
}

}  // namespace
}  // namespace cdbs::repl
