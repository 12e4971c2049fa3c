// Compatibility checks for the wire encoding (docs/ENCODING.md): plain
// frames from older peers are served, the two things only an older peer
// still sends (opcode 14 and a flagged length word) fail cleanly, and
// every byte format is pinned by hex fixtures.

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
#include "util/crc32c.h"
#include "util/little_endian.h"
#include "util/status.h"

namespace cdbs {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol: one plain frame format, and what older peers see

constexpr char kDoc[] = "<root><a><b/><b/></a><c><b/></c></root>";

class FrameCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto corpus = OpenCorpus(kDoc);
    ASSERT_TRUE(corpus.ok()) << corpus.status().message();
    corpus_ = std::move(*corpus);
    auto server = net::Server::StartSharded(corpus_.get(), {});
    ASSERT_TRUE(server.ok()) << server.status().message();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
    if (corpus_) corpus_->Shutdown();
  }

  std::unique_ptr<shard::ShardedDb> corpus_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(FrameCompatTest, RawLegacyFramesInteroperate) {
  // A hand-rolled peer that writes raw plain frames and never opens with a
  // handshake, as every peer built before or after feature negotiation
  // could. The server answers in kind.
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

TEST_F(FrameCompatTest, RetiredOpcodeFourteenGetsAnErrorThenAHangUp) {
  // A peer built when opcode 14 still negotiated compressed frames opens
  // every connection with it. The server answers with a decodable error
  // (request id 0: the request never decoded) and drops the connection;
  // that peer takes this as an old server and reconnects with plain frames.
  Result<int> fd = net::ConnectTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  // The retired request layout: u8 op, u64 request id, u32 deadline,
  // u64 offered feature bits.
  std::string hello;
  hello.push_back(14);
  util::AppendU64(&hello, 1);
  util::AppendU32(&hello, 1000);
  util::AppendU64(&hello, 1);
  ASSERT_TRUE(net::WriteFrame(*fd, net::EncodeFrame(hello), 1000).ok());
  std::string payload;
  ASSERT_TRUE(net::ReadFrame(*fd, &payload, 2000).ok());
  net::Response resp;
  ASSERT_TRUE(net::DecodeResponse(payload, &resp).ok());
  EXPECT_EQ(resp.request_id, 0u);
  EXPECT_EQ(resp.code, StatusCode::kCorruption);
  EXPECT_NE(resp.message.find("bad opcode 14"), std::string::npos)
      << resp.message;
  bool clean_eof = false;
  EXPECT_FALSE(net::ReadFrame(*fd, &payload, 2000, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  close(*fd);

  // The fallback: a fresh plain connection is served as usual.
  net::ClientOptions o;
  o.port = server_->port();
  auto client = net::CdbsClient::Connect(o);
  ASSERT_TRUE(client.ok()) << client.status().message();
  Result<std::vector<uint64_t>> bs = (*client)->Query("//b");
  ASSERT_TRUE(bs.ok()) << bs.status().message();
  EXPECT_EQ(bs->size(), 3u);
}

TEST_F(FrameCompatTest, FlaggedLengthWordIsCorruption) {
  // Bit 31 of the length word once flagged a compressed payload. Such a
  // length is now beyond the 4 MiB cap: corruption, before any allocation.
  char header[net::kFrameHeaderBytes];
  util::StoreU32(header + 4, 0x80000010u);
  util::StoreU32(header, util::Crc32c(header + 4, 4));
  uint32_t len = 0;
  EXPECT_EQ(net::ParseFrameHeader(header, &len).code(),
            StatusCode::kCorruption);

  // A server that reads this header drops the connection without waiting
  // for the 16 payload bytes it announces (none are ever sent).
  Result<int> fd = net::ConnectTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  ASSERT_TRUE(net::WriteFull(*fd, header, sizeof(header), 1000).ok());
  std::string payload;
  bool clean_eof = false;
  EXPECT_FALSE(net::ReadFrame(*fd, &payload, 2000, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  EXPECT_EQ(server_->requests_served(), 0u);
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

// The payload of one encoded frame, checked as a receiver does it.
std::string Unframe(const std::string& frame) {
  uint32_t len = 0;
  EXPECT_TRUE(net::ParseFrameHeader(frame.data(), &len).ok());
  EXPECT_EQ(len, frame.size() - net::kFrameHeaderBytes);
  const std::string payload = frame.substr(net::kFrameHeaderBytes);
  EXPECT_TRUE(net::VerifyFrame(frame.data(), payload).ok());
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

  const std::vector<uint64_t> ids = q.node_ids;
  for (int r = 0; r < 2; ++r) {
    q.node_ids.insert(q.node_ids.end(), ids.begin(), ids.end());
  }
  const std::string frame = net::EncodeFrame(net::EncodeResponse(q));
  EXPECT_EQ(Hex(frame),
            "10cca54c8e0000000807060504030201020000000000000000000f0000000100"
            "000000000000ff00000000000000000100000000000000000100000000000500"
            "0000010000000100000000000000ff0000000000000000010000000000000000"
            "01000000000005000000010000000100000000000000ff000000000000000001"
            "00000000000000000100000000000500000001000000");
  net::Response back;
  ASSERT_TRUE(net::DecodeResponse(Unframe(frame), &back).ok());
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
  const std::string frame = net::EncodeFrame(net::EncodeResponse(c));
  EXPECT_EQ(Hex(frame),
            "54fb78496e0000004d000000000000000d0000000000000000002c0100000000"
            "00000300000000000000006400000000000000000000000100000000c8000000"
            "0000000000000000020000000d00000000000000001d0000006661696c706f69"
            "6e742073686172642e322e756e617661696c61626c65");
  net::Response back;
  ASSERT_TRUE(net::DecodeResponse(Unframe(frame), &back).ok());
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
