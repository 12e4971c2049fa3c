// Compatibility matrix for the compact wire encoding (docs/ENCODING.md):
// the wire protocol must interoperate between hello-negotiating and
// plain-frame peers in both directions, and every byte format is pinned
// by hex fixtures.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "corpus_util.h"
#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "repl/replication.h"
#include "shard/sharded_db.h"
#include "util/label_codec.h"
#include "util/status.h"

namespace cdbs {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol: hello negotiation vs plain-frame peers

constexpr char kDoc[] = "<root><a><b/><b/></a><c><b/></c></root>";

class FrameCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto corpus = OpenCorpus(kDoc);
    ASSERT_TRUE(corpus.ok()) << corpus.status().message();
    corpus_ = std::move(*corpus);
    db_ = corpus_->shard(0);
    auto server = net::Server::StartSharded(corpus_.get(), {});
    ASSERT_TRUE(server.ok()) << server.status().message();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
    if (corpus_) corpus_->Shutdown();
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

  std::unique_ptr<shard::ShardedDb> corpus_;
  engine::ConcurrentXmlDb* db_ = nullptr;  // the corpus's one shard
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


// ---------------------------------------------------------------------------
// Byte identity: frames, replication batches, bootstrap images and the
// shard MANIFEST are pinned to the bytes the byte-loop codec wrote, so a
// change of how integers are copied cannot change a format.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// The payload of one encoded frame, checked and decompressed as a receiver
// does it.
std::string Unframe(const std::string& frame) {
  uint32_t len = 0;
  bool compressed = false;
  EXPECT_TRUE(net::ParseFrameHeader(frame.data(), &len, &compressed).ok());
  EXPECT_EQ(len, frame.size() - net::kFrameHeaderBytes);
  const std::string stored = frame.substr(net::kFrameHeaderBytes);
  EXPECT_TRUE(net::VerifyFrame(frame.data(), stored).ok());
  if (!compressed) return stored;
  std::string payload;
  size_t pos = 0;
  EXPECT_TRUE(util::DecompressBytes(stored, &pos, net::kMaxFramePayloadBytes,
                                    &payload)
                  .ok());
  EXPECT_EQ(pos, stored.size());
  return payload;
}

TEST(WireBytesTest, QueryResponseFrames) {
  net::Response q;
  q.request_id = 0x0102030405060708ull;
  q.op = net::Opcode::kQuery;
  q.node_ids = {1, 255, 256, 65536, (1ull << 32) + 5};
  const std::string five =
      "541897733e000000080706050403020102000000000000000000050000000100000000"
      "000000ff000000000000000001000000000000000001000000000005000000010000"
      "00";
  const std::string payload = net::EncodeResponse(q);
  EXPECT_EQ(Hex(net::EncodeFrame(payload)), five);
  // 62 bytes: under the compression floor, so the frame stays plain.
  EXPECT_EQ(Hex(net::EncodeFrame(payload, true)), five);

  const std::vector<uint64_t> ids = q.node_ids;
  for (int r = 0; r < 2; ++r) {
    q.node_ids.insert(q.node_ids.end(), ids.begin(), ids.end());
  }
  const std::string fifteen = net::EncodeResponse(q);
  EXPECT_EQ(Hex(net::EncodeFrame(fifteen)),
            "10cca54c8e0000000807060504030201020000000000000000000f0000000100"
            "000000000000ff00000000000000000100000000000000000100000000000500"
            "0000010000000100000000000000ff0000000000000000010000000000000000"
            "01000000000005000000010000000100000000000000ff000000000000000001"
            "00000000000000000100000000000500000001000000");
  const std::string compressed = net::EncodeFrame(fifteen, true);
  EXPECT_EQ(Hex(compressed),
            "be76fefd46000080c28e1208070605040302010213020f0702010f02ff11020111"
            "02010b02050702010702010f02ff1102011102010b02050702010702010f02ff"
            "1102011102010b020507020107");
  net::Response back;
  ASSERT_TRUE(net::DecodeResponse(Unframe(compressed), &back).ok());
  EXPECT_EQ(back.node_ids, q.node_ids);
  EXPECT_EQ(back.request_id, q.request_id);
}

TEST(WireBytesTest, CountResponseFrames) {
  net::Response c;
  c.request_id = 77;
  c.op = net::Opcode::kCount;
  c.id_or_count = 300;
  c.shard_counts = {{0, StatusCode::kOk, 100, ""},
                    {1, StatusCode::kOk, 200, ""},
                    {2, StatusCode::kUnavailable, 0,
                     "failpoint shard.2.unavailable"}};
  const std::string payload = net::EncodeResponse(c);
  EXPECT_EQ(Hex(net::EncodeFrame(payload)),
            "54fb78496e0000004d000000000000000d0000000000000000002c0100000000"
            "00000300000000000000006400000000000000000000000100000000c8000000"
            "0000000000000000020000000d00000000000000001d0000006661696c706f69"
            "6e742073686172642e322e756e617661696c61626c65");
  const std::string compressed = net::EncodeFrame(payload, true);
  EXPECT_EQ(Hex(compressed),
            "5e04ec9a3e0000806e024d0f020d13042c010d02031102641702010902c81702"
            "0207020d11021d073a6661696c706f696e742073686172642e322e756e617661"
            "696c61626c65");
  net::Response back;
  ASSERT_TRUE(net::DecodeResponse(Unframe(compressed), &back).ok());
  EXPECT_EQ(back.id_or_count, 300u);
  ASSERT_EQ(back.shard_counts.size(), 3u);
  EXPECT_EQ(back.shard_counts[2].message, "failpoint shard.2.unavailable");
}

TEST(WireBytesTest, RequestWithDocAndTraceIds) {
  net::Request r;
  r.op = net::Opcode::kQuery;
  r.request_id = 42;
  r.deadline_ms = 250;
  r.xpath = "//speech[2]/line";
  r.trace_id = 0xdeadbeefcafef00dull;
  r.doc_id = 36;
  const std::string frame = net::EncodeFrame(net::EncodeRequest(r));
  EXPECT_EQ(Hex(frame),
            "ababafd231000000022a00000000000000fa000000100000002f2f7370656563"
            "685b325d2f6c696e650df0fecaefbeadde2400000000000000");
  net::Request back;
  ASSERT_TRUE(net::DecodeRequest(Unframe(frame), &back).ok());
  EXPECT_EQ(back.trace_id, r.trace_id);
  EXPECT_EQ(back.doc_id, r.doc_id);
  EXPECT_EQ(back.xpath, r.xpath);
}

TEST(WireBytesTest, ReplOpsBootstrapSpecAndManifest) {
  const std::vector<repl::ReplOp> ops = {
      {repl::ReplOp::Kind::kInsertBefore, 5, 70000, "encore"},
      {repl::ReplOp::Kind::kInsertAfter, 65536, 70001, "x"},
      {repl::ReplOp::Kind::kDelete, 300, 4, ""}};
  const std::string batch = repl::EncodeReplOps(ops);
  EXPECT_EQ(Hex(batch),
            "0300000001050000000000000070110100000000000600000065"
            "6e636f726502000001000000000071110100000000000100000078032c01"
            "000000000000040000000000000000000000");
  std::vector<repl::ReplOp> ops_back;
  ASSERT_TRUE(repl::DecodeReplOps(batch, &ops_back).ok());
  ASSERT_EQ(ops_back.size(), 3u);
  EXPECT_EQ(ops_back[1].target, 65536u);
  EXPECT_EQ(ops_back[0].tag, "encore");

  engine::BootstrapSpec spec;
  spec.xml = "<play><act><scene/></act><encore/></play>";
  spec.ids = {0, 1, 2, 70000};
  spec.original_count = 3;
  spec.next_id = 70001;
  const std::string blob = repl::EncodeBootstrapSpec(spec);
  EXPECT_EQ(Hex(blob),
            "0171110100000000000300000000000000040000000000000000000000000000"
            "000100000000000000020000000000000070110100000000003c706c61793e3c"
            "6163743e3c7363656e652f3e3c2f6163743e3c656e636f72652f3e3c2f706c61"
            "793e");
  engine::BootstrapSpec spec_back;
  ASSERT_TRUE(repl::DecodeBootstrapSpec(blob, &spec_back).ok());
  EXPECT_EQ(spec_back.ids, spec.ids);
  EXPECT_EQ(spec_back.next_id, spec.next_id);
  EXPECT_EQ(spec_back.xml, spec.xml);

  const shard::ShardManifest manifest{3, shard::RouterKind::kExplicit,
                                      {0, 2, 1, 2}};
  const std::string bytes = shard::EncodeManifest(manifest);
  EXPECT_EQ(Hex(bytes),
            "434442535348524401000000030000000104000000000000000200000001000000"
            "0200000041f59238");
  shard::ShardManifest manifest_back;
  ASSERT_TRUE(shard::DecodeManifest(bytes, &manifest_back).ok());
  EXPECT_EQ(manifest_back.placement, manifest.placement);
}

}  // namespace
}  // namespace cdbs
