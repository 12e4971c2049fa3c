// Compatibility matrix for the compact-encoding rollout
// (docs/ENCODING.md): legacy fixed-slot stores must keep working under
// the new code (open, read, write, crash-recover), WAL streams written
// with either compression setting must replay under the other, and the
// wire protocol must interoperate between hello-negotiating and
// plain-frame peers in both directions.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "storage/label_store.h"
#include "storage/wal.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace cdbs {
namespace {

using storage::LabelStore;
using storage::StoreBatch;

// Per-process paths: the test runner executes cases of this file in
// parallel processes that must not share a store.
std::string TempPath(const char* stem) {
  return testing::TempDir() + "/" + stem + "." + std::to_string(getpid()) +
         ".cdbs";
}

void RemoveStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

std::vector<std::string> ReadAll(LabelStore* store) {
  std::vector<std::string> records;
  for (size_t i = 0; i < store->size(); ++i) {
    std::string record;
    EXPECT_TRUE(store->Read(i, &record).ok()) << "record " << i;
    records.push_back(std::move(record));
  }
  return records;
}

// ---------------------------------------------------------------------------
// Legacy (fixed-slot, v2) stores under the new code

TEST(LegacyFormatTest, OpensReadsAndWritesUnderNewCode) {
  const std::string path = TempPath("legacy_rw");
  const std::vector<std::string> records = {"alpha", "beta", "gamma"};
  {
    LabelStore store;
    ASSERT_TRUE(store.OpenWithFormat(path, LabelStore::kFormatLegacy).ok());
    ASSERT_TRUE(store.BulkLoad(records, 8).ok());
    EXPECT_EQ(store.format(), LabelStore::kFormatLegacy);
  }
  {
    // Reopen: the format sticks — the store is NOT silently upgraded, so a
    // rollback to older code keeps working against the same file.
    LabelStore store;
    ASSERT_TRUE(store.OpenExisting(path).ok());
    EXPECT_EQ(store.format(), LabelStore::kFormatLegacy);
    EXPECT_EQ(ReadAll(&store), records);

    // Incremental writes go through the same WAL-backed path.
    StoreBatch batch;
    batch.Rewrite(1, "BETA");
    batch.Append("delta");
    ASSERT_TRUE(store.ApplyBatch(batch).ok());
  }
  {
    LabelStore store;
    ASSERT_TRUE(store.OpenExisting(path).ok());
    ASSERT_TRUE(store.VerifyChecksums().ok());
    EXPECT_EQ(ReadAll(&store),
              (std::vector<std::string>{"alpha", "BETA", "gamma", "delta"}));
  }
  RemoveStore(path);
}

TEST(LegacyFormatTest, SurvivesCrashRecovery) {
  const std::string path = TempPath("legacy_crash");
  const std::vector<std::string> records = {"one", "two", "three"};
  {
    LabelStore store;
    ASSERT_TRUE(store.OpenWithFormat(path, LabelStore::kFormatLegacy).ok());
    ASSERT_TRUE(store.BulkLoad(records, 8).ok());

    // Crash after the WAL append is durable but before the pages land:
    // recovery must redo the whole batch.
    ASSERT_TRUE(
        util::Failpoints::Activate("storage.write_page.crash", "oneshot")
            .ok());
    StoreBatch batch;
    batch.Rewrite(0, "ONE");
    batch.Append("four");
    EXPECT_FALSE(store.ApplyBatch(batch).ok());
    util::Failpoints::Deactivate("storage.write_page.crash");
  }
  {
    LabelStore store;
    ASSERT_TRUE(store.OpenExisting(path).ok());
    ASSERT_TRUE(store.VerifyChecksums().ok());
    EXPECT_EQ(store.format(), LabelStore::kFormatLegacy);
    EXPECT_EQ(ReadAll(&store),
              (std::vector<std::string>{"ONE", "two", "three", "four"}));
  }
  RemoveStore(path);
}

TEST(LegacyFormatTest, RejectsTagTableSoEnginesFallBackToBareLabels) {
  // The v2 header has no room for a tag table; SetTagTable must refuse (the
  // engine then writes bare-label records) rather than corrupt the header.
  const std::string path = TempPath("legacy_tags");
  LabelStore legacy;
  ASSERT_TRUE(legacy.OpenWithFormat(path, LabelStore::kFormatLegacy).ok());
  EXPECT_FALSE(legacy.SetTagTable({"", "a", "b"}).ok());
  EXPECT_TRUE(legacy.tag_table().empty());
  RemoveStore(path);

  const std::string path3 = TempPath("compact_tags");
  LabelStore compact;
  ASSERT_TRUE(compact.Open(path3).ok());
  EXPECT_TRUE(compact.SetTagTable({"", "a", "b"}).ok());
  EXPECT_EQ(compact.tag_table().size(), 3u);
  RemoveStore(path3);
}

// ---------------------------------------------------------------------------
// WAL payload compression: both directions of a version skew

class WalCompressionSkewTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::Failpoints::Deactivate("storage.write_page.crash");
    storage::Wal::set_compression_enabled(true);  // restore the default
  }

  // Writes a store, then a batch whose WAL record is durable but whose
  // pages never land (injected crash), all under `write_compressed`.
  // Recovery then runs under `read_compressed` — the reader must accept
  // both layouts regardless of its own writing mode.
  void WriteCrashThenRecover(bool write_compressed, bool read_compressed) {
    const std::string path = TempPath("wal_skew");
    // Records with a zero-padded tail so the WAL payload clears the
    // compression threshold and genuinely compresses when enabled.
    std::vector<std::string> records;
    for (int i = 0; i < 8; ++i) {
      records.push_back("record" + std::to_string(i) +
                        std::string(64, '\0') + "tail");
    }
    storage::Wal::set_compression_enabled(write_compressed);
    {
      LabelStore store;
      ASSERT_TRUE(store.Open(path).ok());
      ASSERT_TRUE(store.BulkLoad(records, 8).ok());
      ASSERT_TRUE(
          util::Failpoints::Activate("storage.write_page.crash", "oneshot")
              .ok());
      StoreBatch batch;
      batch.Rewrite(2, "REWRITTEN" + std::string(64, '\0'));
      batch.Append("appended" + std::string(64, '\0'));
      EXPECT_FALSE(store.ApplyBatch(batch).ok());
      util::Failpoints::Deactivate("storage.write_page.crash");
    }
    storage::Wal::set_compression_enabled(read_compressed);
    {
      LabelStore store;
      ASSERT_TRUE(store.OpenExisting(path).ok());
      ASSERT_TRUE(store.VerifyChecksums().ok());
      std::vector<std::string> expected = records;
      expected[2] = "REWRITTEN" + std::string(64, '\0');
      expected.push_back("appended" + std::string(64, '\0'));
      EXPECT_EQ(ReadAll(&store), expected);
    }
    RemoveStore(path);
  }
};

TEST_F(WalCompressionSkewTest, UncompressedWalReplaysUnderNewSetting) {
  WriteCrashThenRecover(/*write_compressed=*/false, /*read_compressed=*/true);
}

TEST_F(WalCompressionSkewTest, CompressedWalReplaysUnderDisabledSetting) {
  WriteCrashThenRecover(/*write_compressed=*/true, /*read_compressed=*/false);
}

// ---------------------------------------------------------------------------
// Wire protocol: hello negotiation vs plain-frame peers

constexpr char kDoc[] = "<root><a><b/><b/></a><c><b/></c></root>";

class FrameCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = engine::ConcurrentXmlDb::OpenFromXml(kDoc, {});
    ASSERT_TRUE(db.ok()) << db.status().message();
    db_ = std::move(*db);
    auto server = net::Server::Start(db_.get(), {});
    ASSERT_TRUE(server.ok()) << server.status().message();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
    if (db_) db_->Shutdown();
  }

  net::ClientOptions ClientFor(bool enable_compression) const {
    net::ClientOptions o;
    o.port = server_->port();
    o.max_attempts = 3;
    o.base_backoff_ms = 1;
    o.max_backoff_ms = 20;
    o.jitter_seed = 7;
    o.enable_compression = enable_compression;
    return o;
  }

  std::unique_ptr<engine::ConcurrentXmlDb> db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(FrameCompatTest, NegotiatingClientGetsCompressedSession) {
  auto client = net::CdbsClient::Connect(ClientFor(true));
  ASSERT_TRUE(client.ok()) << client.status().message();
  EXPECT_TRUE((*client)->compression_negotiated());
  // The negotiated session serves real traffic: queries and writes agree
  // with the engine exactly as over plain frames.
  Result<std::vector<uint64_t>> bs = (*client)->Query("//b");
  ASSERT_TRUE(bs.ok()) << bs.status().message();
  EXPECT_EQ(bs->size(), db_->Query("//b").value().size());
  Result<uint64_t> fresh = (*client)->InsertAfter((*bs)[0], "n");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*db_->Count("//n"), 1u);
}

TEST_F(FrameCompatTest, CompressionDisabledClientStaysPlain) {
  auto client = net::CdbsClient::Connect(ClientFor(false));
  ASSERT_TRUE(client.ok()) << client.status().message();
  EXPECT_FALSE((*client)->compression_negotiated());
  EXPECT_TRUE((*client)->Ping().ok());
  Result<std::vector<uint64_t>> bs = (*client)->Query("//b");
  ASSERT_TRUE(bs.ok());
  EXPECT_EQ(bs->size(), 3u);
}

TEST_F(FrameCompatTest, RawLegacyFramesInteroperate) {
  // An old-build peer: raw plain frames, no kHello, no compressed bit. The
  // server must answer in kind — plain frames only.
  Result<int> fd = net::ConnectTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  net::Request req;
  req.op = net::Opcode::kQuery;
  req.request_id = 41;
  req.deadline_ms = 1000;
  req.xpath = "//b";
  ASSERT_TRUE(
      net::WriteFrame(*fd, net::EncodeFrame(net::EncodeRequest(req)), 1000)
          .ok());
  std::string payload;
  ASSERT_TRUE(net::ReadFrame(*fd, &payload, 2000).ok());
  net::Response resp;
  ASSERT_TRUE(net::DecodeResponse(payload, &resp).ok());
  EXPECT_EQ(resp.request_id, 41u);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.node_ids.size(), 3u);
  close(*fd);
}

TEST_F(FrameCompatTest, ManualHelloUpgradesTheConnectionMidStream) {
  // A hand-rolled peer sends kHello itself: the server accepts the offered
  // features and starts compressing ITS side; the peer may keep sending
  // plain frames (asymmetric sessions are legal — receivers always accept
  // both). ReadFrame below transparently decodes the now-compressed
  // responses, exercising the compressed server→client path end to end.
  Result<int> fd = net::ConnectTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok());
  net::Request hello;
  hello.op = net::Opcode::kHello;
  hello.request_id = 1;
  hello.target = net::kFeatureCompressedFrames;
  ASSERT_TRUE(
      net::WriteFrame(*fd, net::EncodeFrame(net::EncodeRequest(hello)), 1000)
          .ok());
  std::string payload;
  ASSERT_TRUE(net::ReadFrame(*fd, &payload, 2000).ok());
  net::Response resp;
  ASSERT_TRUE(net::DecodeResponse(payload, &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.id_or_count, net::kFeatureCompressedFrames);

  // The same connection keeps serving requests after the upgrade.
  net::Request ping;
  ping.op = net::Opcode::kPing;
  ping.request_id = 2;
  ASSERT_TRUE(
      net::WriteFrame(*fd, net::EncodeFrame(net::EncodeRequest(ping)), 1000)
          .ok());
  payload.clear();
  ASSERT_TRUE(net::ReadFrame(*fd, &payload, 2000).ok());
  ASSERT_TRUE(net::DecodeResponse(payload, &resp).ok());
  EXPECT_EQ(resp.request_id, 2u);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  close(*fd);
}

}  // namespace
}  // namespace cdbs
