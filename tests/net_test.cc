#include <unistd.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus_util.h"
#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "obs/trace.h"
#include "shard/sharded_db.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace cdbs::net {
namespace {

using engine::Admission;
using engine::ConcurrentXmlDb;
using engine::ConcurrentXmlDbOptions;
using engine::NodeId;
using engine::WriteOp;

// --------------------------------------------------------------------------
// Protocol: payload (de)serialization

TEST(ProtocolTest, RequestRoundtripsEveryOpcode) {
  for (Opcode op :
       {Opcode::kPing, Opcode::kQuery, Opcode::kInsertBefore,
        Opcode::kInsertAfter, Opcode::kDelete, Opcode::kStats,
        Opcode::kIntrospect, Opcode::kSubscribe, Opcode::kBootstrap,
        Opcode::kPromote, Opcode::kReplAck}) {
    Request req;
    req.op = op;
    req.request_id = 0x1122334455667788ull;
    req.deadline_ms = 1500;
    req.xpath = "//b[1]/c";
    req.target = 0xDEADBEEFull;
    req.tag = "element-tag";
    req.epoch = 0x0F1E2D3C4B5A6978ull;
    req.trace_id = 0xA1B2C3D4E5F60718ull;
    Request out;
    ASSERT_TRUE(DecodeRequest(EncodeRequest(req), &out).ok())
        << "opcode " << static_cast<int>(op);
    EXPECT_EQ(out.op, req.op);
    EXPECT_EQ(out.request_id, req.request_id);
    EXPECT_EQ(out.deadline_ms, req.deadline_ms);
    EXPECT_EQ(out.trace_id, req.trace_id);
    // Op-specific fields survive exactly where they matter.
    if (op == Opcode::kQuery) {
      EXPECT_EQ(out.xpath, req.xpath);
    }
    if (op == Opcode::kInsertBefore || op == Opcode::kInsertAfter) {
      EXPECT_EQ(out.target, req.target);
      EXPECT_EQ(out.tag, req.tag);
    }
    if (op == Opcode::kDelete || op == Opcode::kReplAck) {
      EXPECT_EQ(out.target, req.target);
    }
    if (op == Opcode::kSubscribe) {
      EXPECT_EQ(out.target, req.target);
      EXPECT_EQ(out.epoch, req.epoch);
    }
  }
}

TEST(ProtocolTest, ReplicationResponsesRoundtripLsnEpochAndBlob) {
  // kSubscribe / kPromote carry an LSN + epoch; kBootstrap / kReplBatch
  // additionally carry a blob (the snapshot image or the encoded batch).
  for (Opcode op : {Opcode::kSubscribe, Opcode::kPromote}) {
    Response resp;
    resp.request_id = 11;
    resp.op = op;
    resp.code = StatusCode::kOk;
    resp.id_or_count = 0x123456789ABCDEF0ull;
    resp.epoch = 0xFEDCBA9876543210ull;
    Response out;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &out).ok())
        << "opcode " << static_cast<int>(op);
    EXPECT_EQ(out.id_or_count, resp.id_or_count);
    EXPECT_EQ(out.epoch, resp.epoch);
  }
  for (Opcode op : {Opcode::kBootstrap, Opcode::kReplBatch}) {
    Response resp;
    resp.request_id = 12;
    resp.op = op;
    resp.code = StatusCode::kOk;
    resp.id_or_count = 42;
    resp.epoch = 7;
    resp.blob = std::string("binary\x00payload", 14);
    Response out;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &out).ok())
        << "opcode " << static_cast<int>(op);
    EXPECT_EQ(out.id_or_count, resp.id_or_count);
    EXPECT_EQ(out.epoch, resp.epoch);
    EXPECT_EQ(out.blob, resp.blob);
  }
  // An empty kReplBatch blob (a heartbeat) survives too.
  Response hb;
  hb.op = Opcode::kReplBatch;
  hb.code = StatusCode::kOk;
  hb.id_or_count = 99;  // primary's last LSN rides on heartbeats
  hb.epoch = 3;
  Response out;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(hb), &out).ok());
  EXPECT_EQ(out.id_or_count, 99u);
  EXPECT_TRUE(out.blob.empty());
}

TEST(ProtocolTest, ResponseRoundtripsResultsAndErrors) {
  Response ok;
  ok.request_id = 7;
  ok.op = Opcode::kQuery;
  ok.code = StatusCode::kOk;
  ok.node_ids = {1, 5, 0xFFFFFFFFFFFFFFFFull};
  Response out;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(ok), &out).ok());
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_EQ(out.code, StatusCode::kOk);
  EXPECT_EQ(out.node_ids, ok.node_ids);

  Response shed;
  shed.request_id = 8;
  shed.op = Opcode::kInsertAfter;
  shed.code = StatusCode::kRetryAfter;
  shed.retry_after_ms = 42;
  shed.message = "write queue full";
  ASSERT_TRUE(DecodeResponse(EncodeResponse(shed), &out).ok());
  EXPECT_EQ(out.code, StatusCode::kRetryAfter);
  EXPECT_EQ(out.retry_after_ms, 42u);
  EXPECT_EQ(out.message, "write queue full");

  Response stats;
  stats.request_id = 9;
  stats.op = Opcode::kStats;
  stats.code = StatusCode::kOk;
  stats.stats_json = "{\"metrics\":[]}";
  ASSERT_TRUE(DecodeResponse(EncodeResponse(stats), &out).ok());
  EXPECT_EQ(out.stats_json, stats.stats_json);

  // A breaker bounce: kResourceExhausted is the newest wire code and
  // kUnavailable carries a retry-after hint — both must survive the trip.
  Response sick;
  sick.request_id = 10;
  sick.op = Opcode::kInsertAfter;
  sick.code = StatusCode::kUnavailable;
  sick.retry_after_ms = 100;
  sick.message = "shard 1 is degraded";
  ASSERT_TRUE(DecodeResponse(EncodeResponse(sick), &out).ok());
  EXPECT_EQ(out.code, StatusCode::kUnavailable);
  EXPECT_EQ(out.retry_after_ms, 100u);

  Response full;
  full.request_id = 11;
  full.op = Opcode::kInsertAfter;
  full.code = StatusCode::kResourceExhausted;
  full.message = "disk full";
  ASSERT_TRUE(DecodeResponse(EncodeResponse(full), &out).ok());
  EXPECT_EQ(out.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(out.message, "disk full");
}

TEST(ProtocolTest, DecodersRejectTruncatedAndGarbagePayloads) {
  Request req;
  req.op = Opcode::kQuery;
  req.xpath = "//b";
  const std::string good = EncodeRequest(req);
  Request out;
  // Every strict prefix must fail cleanly (never read out of bounds).
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(
        DecodeRequest(std::string_view(good.data(), n), &out).ok())
        << "prefix of " << n << " bytes decoded";
  }
  EXPECT_FALSE(DecodeRequest("\xFF\xFF\xFF\xFF garbage", &out).ok());

  Response resp;
  resp.op = Opcode::kQuery;
  resp.node_ids = {1, 2, 3};
  const std::string good_resp = EncodeResponse(resp);
  Response rout;
  for (size_t n = 0; n < good_resp.size(); ++n) {
    EXPECT_FALSE(
        DecodeResponse(std::string_view(good_resp.data(), n), &rout).ok());
  }
}

TEST(ProtocolTest, FrameRoundtripAndCorruptionDetection) {
  const std::string payload = "hello, cdbs";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  uint32_t len = 0;
  ASSERT_TRUE(ParseFrameHeader(frame.data(), &len).ok());
  EXPECT_EQ(len, payload.size());
  EXPECT_TRUE(
      VerifyFrame(frame.data(), std::string_view(payload)).ok());

  // Flip any single byte — header or payload — and the CRC catches it.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string bent = frame;
    bent[i] ^= 0x01;
    uint32_t bent_len = 0;
    const Status header = ParseFrameHeader(bent.data(), &bent_len);
    if (header.ok() && bent_len == payload.size()) {
      EXPECT_EQ(VerifyFrame(bent.data(),
                            std::string_view(bent.data() + kFrameHeaderBytes,
                                             bent_len))
                    .code(),
                StatusCode::kCorruption)
          << "flipped byte " << i << " went undetected";
    }
  }
}

TEST(ProtocolTest, OversizedFrameLengthIsCorruptionNotAllocation) {
  // A frame claiming a 512 MiB payload is a torn/hostile header; the parser
  // must refuse before anyone allocates that much.
  std::string header(kFrameHeaderBytes, '\0');
  const uint32_t huge = (1u << 29);
  for (int i = 0; i < 4; ++i) header[4 + i] = char((huge >> (8 * i)) & 0xFF);
  uint32_t len = 0;
  EXPECT_EQ(ParseFrameHeader(header.data(), &len).code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, TraceIdIsAnOptionalTrailingField) {
  // A request encoded without a trace id (trace_id == 0 omits the field)
  // is byte-identical to the pre-tracing wire format; decoders from either
  // side of the upgrade interoperate.
  Request plain;
  plain.op = Opcode::kQuery;
  plain.xpath = "//b";
  Request out;
  out.trace_id = 0xFFFFFFFFFFFFFFFFull;  // must be overwritten, not kept
  ASSERT_TRUE(DecodeRequest(EncodeRequest(plain), &out).ok());
  EXPECT_EQ(out.trace_id, 0u);

  Request traced = plain;
  traced.trace_id = 0x0123456789ABCDEFull;
  const std::string with_id = EncodeRequest(traced);
  EXPECT_EQ(with_id.size(), EncodeRequest(plain).size() + 8)
      << "trace id must cost exactly one trailing u64";
  ASSERT_TRUE(DecodeRequest(with_id, &out).ok());
  EXPECT_EQ(out.trace_id, traced.trace_id);
}

TEST(ProtocolTest, IntrospectResponseRoundtripsBothJsonBodies) {
  Response resp;
  resp.request_id = 11;
  resp.op = Opcode::kIntrospect;
  resp.code = StatusCode::kOk;
  resp.stats_json = "{\"metrics\":[]}";
  resp.traces_json = "{\"traceEvents\":[]}";
  Response out;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &out).ok());
  EXPECT_EQ(out.stats_json, resp.stats_json);
  EXPECT_EQ(out.traces_json, resp.traces_json);
}

TEST(ProtocolTest, IdempotencyClassification) {
  EXPECT_TRUE(IsIdempotent(Opcode::kPing));
  EXPECT_TRUE(IsIdempotent(Opcode::kQuery));
  EXPECT_TRUE(IsIdempotent(Opcode::kStats));
  EXPECT_TRUE(IsIdempotent(Opcode::kIntrospect));
  EXPECT_FALSE(IsIdempotent(Opcode::kInsertBefore));
  EXPECT_FALSE(IsIdempotent(Opcode::kInsertAfter));
  EXPECT_FALSE(IsIdempotent(Opcode::kDelete));
  // Replication control ops are all safely resendable: subscribing again,
  // re-requesting a snapshot, re-promoting an already-promoted node, and
  // re-reporting applied progress are no-ops the second time.
  EXPECT_TRUE(IsIdempotent(Opcode::kSubscribe));
  EXPECT_TRUE(IsIdempotent(Opcode::kBootstrap));
  EXPECT_TRUE(IsIdempotent(Opcode::kPromote));
  EXPECT_TRUE(IsIdempotent(Opcode::kReplAck));
  EXPECT_FALSE(IsIdempotent(Opcode::kReplBatch));  // server-push only
}

// --------------------------------------------------------------------------
// CDBS_NET_DRAIN_MS knob (strict parse, like the CDBS_TRACE_* knobs)

TEST(ServerKnobTest, DrainMsKnobParsesWholeNonNegativeIntegersOnly) {
  // Unset or empty keeps the compiled-in default.
  EXPECT_EQ(ApplyDrainMsKnob(nullptr, 2000), 2000);
  EXPECT_EQ(ApplyDrainMsKnob("", 2000), 2000);
  // Valid values override it, zero included (drain = force-close now).
  EXPECT_EQ(ApplyDrainMsKnob("750", 2000), 750);
  EXPECT_EQ(ApplyDrainMsKnob("0", 2000), 0);
  // Anything short of a whole non-negative integer warns and keeps the
  // default: the server must come up even with a mangled knob.
  EXPECT_EQ(ApplyDrainMsKnob(" 750", 2000), 2000);   // leading space
  EXPECT_EQ(ApplyDrainMsKnob("750ms", 2000), 2000);  // trailing unit
  EXPECT_EQ(ApplyDrainMsKnob("-5", 2000), 2000);     // negative
  EXPECT_EQ(ApplyDrainMsKnob("7.5", 2000), 2000);    // fractional
  EXPECT_EQ(ApplyDrainMsKnob("abc", 2000), 2000);    // garbage
  EXPECT_EQ(ApplyDrainMsKnob("99999999999999999999", 2000), 2000);  // overflow
}

// --------------------------------------------------------------------------
// Server + client integration

constexpr char kSmallDoc[] = "<root><a><b/><b/></a><c><b/></c></root>";

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override { Restart(); }

  void TearDown() override {
    for (const std::string& site : util::Failpoints::ActiveSites()) {
      if (site.rfind("net.", 0) == 0 ||
          site.rfind("engine.concurrent.", 0) == 0) {
        util::Failpoints::Deactivate(site);
      }
    }
    if (server_) server_->Shutdown();
    if (corpus_) corpus_->Shutdown();
  }

  /// Tears down and rebuilds the corpus and server with the current
  /// db_options_ / server_options_ (for tests needing a tiny queue or cap).
  void Restart() {
    server_.reset();
    corpus_.reset();
    auto corpus = OpenCorpus(kSmallDoc, db_options_);
    ASSERT_TRUE(corpus.ok()) << corpus.status().message();
    corpus_ = std::move(*corpus);
    db_ = corpus_->shard(0);
    auto server = Server::StartSharded(corpus_.get(), server_options_);
    ASSERT_TRUE(server.ok()) << server.status().message();
    server_ = std::move(*server);
  }

  /// Stalls the writer via the delay failpoint and fills the write queue to
  /// capacity. Returns the futures of the queued writes (all must succeed
  /// once the failpoint is lifted). Deterministic: waits for the writer to
  /// dequeue the pilot write (and start sleeping in the injected delay)
  /// before filling, so the queue genuinely sits at capacity afterwards.
  std::vector<std::future<Result<uint64_t>>> StallWriterAndFillQueue(
      NodeId target, int delay_ms) {
    EXPECT_TRUE(util::Failpoints::Activate("engine.concurrent.write.delay",
                                           "delay=" +
                                               std::to_string(delay_ms))
                    .ok());
    std::vector<std::future<Result<uint64_t>>> futures;
    futures.push_back(db_->Submit(WriteOp::InsertAfter(target, "n")));
    while (db_->write_queue_depth() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (size_t i = 0; i < db_->write_queue_capacity(); ++i) {
      std::future<Result<uint64_t>> f =
          db_->Submit(WriteOp::InsertAfter(target, "n"), Admission::kShed);
      // The writer is stalled, so only a shed write resolves this early.
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        EXPECT_EQ(f.get().status().code(), StatusCode::kRetryAfter);
        break;
      }
      futures.push_back(std::move(f));
    }
    EXPECT_EQ(db_->write_queue_depth(), db_->write_queue_capacity());
    return futures;
  }

  ClientOptions ClientFor(int max_attempts = 5) const {
    ClientOptions o;
    o.port = server_->port();
    o.max_attempts = max_attempts;
    o.base_backoff_ms = 1;
    o.max_backoff_ms = 20;
    o.jitter_seed = 12345;  // deterministic backoff in tests
    return o;
  }

  ConcurrentXmlDbOptions db_options_;
  ServerOptions server_options_;
  std::unique_ptr<shard::ShardedDb> corpus_;
  ConcurrentXmlDb* db_ = nullptr;  // the corpus's one shard
  std::unique_ptr<Server> server_;
};

TEST_F(NetTest, PingQueryInsertDeleteEndToEnd) {
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok()) << client.status().message();
  ASSERT_TRUE((*client)->Ping().ok());

  // The wire answer matches a direct engine query, ids and order included.
  Result<std::vector<uint64_t>> bs = (*client)->Query("//b");
  ASSERT_TRUE(bs.ok());
  const std::vector<NodeId> direct = db_->Query("//b").value();
  ASSERT_EQ(bs->size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ((*bs)[i], static_cast<uint64_t>(direct[i]));
  }

  Result<uint64_t> fresh = (*client)->InsertAfter((*bs)[0], "n");
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();
  EXPECT_EQ(*db_->Count("//n"), 1u);
  EXPECT_EQ(db_->TagOf(static_cast<NodeId>(*fresh)), "n");

  Result<uint64_t> before = (*client)->InsertBefore((*bs)[0], "m");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*db_->Count("//m"), 1u);

  Result<uint64_t> removed = (*client)->Delete(*fresh);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  EXPECT_EQ(*db_->Count("//n"), 0u);

  EXPECT_GE(server_->requests_served(), 5u);
}

TEST_F(NetTest, ServerErrorsTravelBackWithTheirCodes) {
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  // A malformed xpath fails parse-side; an unknown target fails apply-side.
  EXPECT_FALSE((*client)->Query("///[").ok());
  // [n] on an axis that does not rank siblings is rejected, not ignored.
  for (const char* text : {"/r/a[1]/following::a[2]",
                           "//b/preceding-sibling::a[1]", "//b/parent::a[1]",
                           "//b/ancestor::a[2]"}) {
    EXPECT_EQ((*client)->Query(text).status().code(),
              StatusCode::kInvalidArgument)
        << text;
    EXPECT_EQ((*client)->Count(text).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
  Result<uint64_t> bad_target = (*client)->InsertAfter(999999, "x");
  EXPECT_EQ(bad_target.status().code(), StatusCode::kOutOfRange);
  Result<uint64_t> bad_delete = (*client)->Delete(1);  // the document root
  EXPECT_EQ(bad_delete.status().code(), StatusCode::kInvalidArgument);
  // The connection survives error responses: the next call still works.
  EXPECT_TRUE((*client)->Ping().ok());
}

// A one-document corpus holds document 0. A request scoped to any other
// document is rejected before it reaches the engine, instead of being
// answered from (or applied to) the one document there is.
TEST_F(NetTest, UnshardedServerRejectsOtherDocumentIds) {
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  const NodeId b = db_->Query("//b").value()[0];
  EXPECT_EQ((*client)->DeleteIn(7, b).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->InsertAfterIn(7, b, "x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->InsertBeforeIn(7, b, "x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->QueryDoc(7, "//b").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->CountIn(7, "//b").status().code(),
            StatusCode::kInvalidArgument);
  // Nothing was written, and document 0 still answers.
  EXPECT_EQ(db_->Query("//b").value(), std::vector<NodeId>({3, 4, 6}));
  Result<uint64_t> count = (*client)->CountIn(0, "//b");
  ASSERT_TRUE(count.ok()) << count.status().message();
  EXPECT_EQ(*count, 3u);
  EXPECT_EQ((*client)->QueryDoc(0, "//b").value(),
            std::vector<uint64_t>({3, 4, 6}));
}

// A node-addressed request without a doc_id addresses a one-document
// corpus's only document; on a corpus of two it names no node and bounces.
TEST_F(NetTest, RequestsWithoutADocIdAddressTheOnlyDocument) {
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->Query("//b").value(),
            (*client)->QueryDoc(0, "//b").value());
  Result<uint64_t> fresh = (*client)->InsertAfter(3, "x");
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();
  EXPECT_EQ(corpus_->QueryDoc(0, "//x").value(),
            std::vector<NodeId>({static_cast<NodeId>(*fresh)}));
  Result<uint64_t> removed = (*client)->Delete(*fresh);
  ASSERT_TRUE(removed.ok()) << removed.status().message();
  EXPECT_EQ(*removed, 1u);
  EXPECT_EQ(*corpus_->CountDoc(0, "//x"), 0u);

  auto two = OpenCorpus(kSmallDoc, {}, /*copies=*/2);
  ASSERT_TRUE(two.ok()) << two.status().message();
  auto server = Server::StartSharded(two->get(), server_options_);
  ASSERT_TRUE(server.ok()) << server.status().message();
  ClientOptions o = ClientFor();
  o.port = (*server)->port();
  auto other = CdbsClient::Connect(o);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ((*other)->Query("//b").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*other)->InsertAfter(3, "x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*other)->Delete(3).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*other)->QueryDoc(1, "//b").value().size(), 3u);
  EXPECT_EQ(*(*two)->CountDoc(0, "//x"), 0u);
  other->reset();
  (*server)->Shutdown();
  (*two)->Shutdown();
}

// Wire targets are 64-bit, engine node ids 32-bit: a target past 2^32 - 1
// is out of range, not the node its low 32 bits name.
TEST_F(NetTest, WriteTargetsBeyondTheNodeIdRangeAreOutOfRange) {
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  const uint64_t aliases_a = (uint64_t{1} << 32) + 2;  // a is node 2
  EXPECT_EQ((*client)->Delete(aliases_a).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*client)->InsertAfter(aliases_a, "x").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(*db_->Count("//a"), 1u);
  EXPECT_EQ(*db_->Count("//x"), 0u);
}

// Writes aimed inside a deleted subtree are NotFound over the wire, and the
// server keeps serving: the labeling aborts on a removed id, so the writer
// must reject every node of the subtree, not only its root.
TEST_F(NetTest, WritesUnderADeletedSubtreeAreNotFoundAndTheServerLives) {
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  // kSmallDoc ids: root=1 a=2 b=3 b=4 c=5 b=6.
  Result<uint64_t> removed = (*client)->Delete(2);
  ASSERT_TRUE(removed.ok()) << removed.status().message();
  EXPECT_EQ(*removed, 3u);
  EXPECT_EQ((*client)->Delete(3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*client)->InsertAfter(4, "x").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*client)->InsertBefore(3, "x").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE((*client)->Ping().ok());
  Result<uint64_t> fresh = (*client)->InsertAfter(6, "x");
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();
  Result<std::vector<uint64_t>> bs = (*client)->Query("//b");
  ASSERT_TRUE(bs.ok());
  EXPECT_EQ(*bs, std::vector<uint64_t>{6});
}

TEST_F(NetTest, StatsReturnsTheMetricRegistryAsJson) {
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());
  Result<std::string> stats = (*client)->StatsJson();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("serve.requests"), std::string::npos);
  EXPECT_NE(stats->find("net.connections_active"), std::string::npos);
}

TEST_F(NetTest, DeadlineTravelsToTheServerAndShedsQueuedWork) {
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      util::Failpoints::Activate("engine.concurrent.read.delay", "delay=150")
          .ok());
  // 30ms of budget against a 150ms reader delay: the client's socket reads
  // are clamped to the remaining budget, so it gives up on time instead of
  // waiting out the delay; the server independently sheds the expired work
  // once the reader reaches it.
  Result<std::vector<uint64_t>> shed =
      (*client)->Query("//b", util::Deadline::AfterMillis(30));
  util::Failpoints::Deactivate("engine.concurrent.read.delay");
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  // The server is still inside the injected delay when the client returns;
  // wait for it to record the shed.
  const util::Deadline observed = util::Deadline::AfterMillis(2000);
  while (server_->deadline_exceeded() == 0 && !observed.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->deadline_exceeded(), 1u);
  // Plenty of budget afterwards: same query succeeds.
  EXPECT_TRUE((*client)->Query("//b", util::Deadline::AfterMillis(5000)).ok());
}

TEST_F(NetTest, PerIoTimeoutsAreClampedToTheCallDeadline) {
  // The server sits in a 1000ms injected per-request delay while the caller
  // has a 150ms budget and a 5000ms io_timeout. Without the per-IO clamp
  // the frame read would block until the server finally answered (~1s);
  // with it, every socket operation is bounded by the remaining budget, so
  // the call returns kDeadlineExceeded close to the deadline.
  ASSERT_TRUE(
      util::Failpoints::Activate("net.conn.delay", "delay=1000").ok());
  auto client = CdbsClient::Connect(ClientFor(/*max_attempts=*/2));
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  const Status s = (*client)->Ping(util::Deadline::AfterMillis(150));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  util::Failpoints::Deactivate("net.conn.delay");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.message();
  EXPECT_LT(elapsed.count(), 700)
      << "socket read overshot the caller's deadline";
}

TEST_F(NetTest, FullWriteQueueShedsWithRetryAfterOnTheRawWire) {
  // Stall the writer and fill a small queue, then speak the protocol
  // directly so no client-side retry can mask the shed response.
  db_options_.write_queue_capacity = 8;
  Restart();
  const NodeId b = db_->Query("//b").value()[0];
  std::vector<std::future<Result<uint64_t>>> queued =
      StallWriterAndFillQueue(b, /*delay_ms=*/400);

  Result<int> fd = ConnectTcp("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(fd.ok());
  Request req;
  req.op = Opcode::kInsertAfter;
  req.request_id = 1;
  req.target = b;
  req.tag = "n";
  ASSERT_TRUE(
      WriteFrame(*fd, EncodeFrame(EncodeRequest(req)), 2000).ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(*fd, &payload, 2000).ok());
  Response resp;
  ASSERT_TRUE(DecodeResponse(payload, &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kRetryAfter);
  EXPECT_GE(resp.retry_after_ms, 1u);
  EXPECT_LE(resp.retry_after_ms, 2000u);
  ::close(*fd);
  EXPECT_GE(server_->requests_shed(), 1u);

  util::Failpoints::Deactivate("engine.concurrent.write.delay");
  for (auto& f : queued) EXPECT_TRUE(f.get().ok());
}

TEST_F(NetTest, ClientHonorsRetryAfterAndEventuallySucceeds) {
  // A tiny queue behind a 200ms-stalled writer: the client's first attempts
  // shed with kRetryAfter, and the backoff loop rides out the drain.
  db_options_.write_queue_capacity = 4;
  Restart();
  const NodeId b = db_->Query("//b").value()[0];
  auto client = CdbsClient::Connect(ClientFor(/*max_attempts=*/30));
  ASSERT_TRUE(client.ok());
  std::vector<std::future<Result<uint64_t>>> backlog =
      StallWriterAndFillQueue(b, /*delay_ms=*/200);
  Result<uint64_t> through = (*client)->InsertAfter(b, "w");
  util::Failpoints::Deactivate("engine.concurrent.write.delay");
  ASSERT_TRUE(through.ok()) << through.status().message();
  EXPECT_GE((*client)->retries(), 1u) << "the write must have been shed at "
                                         "least once before going through";
  EXPECT_EQ(*db_->Count("//w"), 1u);
  for (auto& f : backlog) EXPECT_TRUE(f.get().ok());
}

TEST_F(NetTest, ReconnectAfterAcceptFailureInjection) {
  // The first accept is eaten by the failpoint (connection closed at the
  // server); the client sees a broken stream on its first read, reconnects,
  // and the retry succeeds because the failpoint was oneshot.
  ASSERT_TRUE(
      util::Failpoints::Activate("net.accept.io_error", "oneshot").ok());
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_GE((*client)->retries(), 1u);
}

TEST_F(NetTest, CorruptResponseFramesAreDetectedNeverDelivered) {
  auto client = CdbsClient::Connect(ClientFor(/*max_attempts=*/2));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());
  ASSERT_TRUE(util::Failpoints::Activate("net.frame.corrupt", "always").ok());
  // Reads retry and keep hitting corruption; the final status is the CRC
  // failure — never a garbage payload accepted as data.
  Result<std::vector<uint64_t>> read = (*client)->Query("//b");
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  // A write must NOT be resent on a torn stream: outcome unknown.
  Result<uint64_t> write = (*client)->InsertAfter(2, "x");
  EXPECT_EQ(write.status().code(), StatusCode::kIoError);
  EXPECT_NE(write.status().message().find("unknown"), std::string::npos);
  util::Failpoints::Deactivate("net.frame.corrupt");
  // Clean frames again: the client recovers by reconnecting.
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(NetTest, ConnectionCapShedsExcessConnections) {
  // Rebuild the server with a cap of one connection.
  server_->Shutdown();
  server_options_.max_connections = 1;
  auto server = Server::StartSharded(corpus_.get(), server_options_);
  ASSERT_TRUE(server.ok());
  server_ = std::move(*server);

  auto first = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->Ping().ok());

  // A second client connects at TCP level but is shed server-side; with a
  // single attempt it observes the broken stream as a failure.
  auto second = CdbsClient::Connect(ClientFor(/*max_attempts=*/1));
  ASSERT_TRUE(second.ok());  // connect itself lands in the accept queue
  EXPECT_FALSE((*second)->Ping().ok());

  // Once the first client leaves, its slot frees and new connections serve.
  first->reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Status served = Status::IoError("never tried");
  while (std::chrono::steady_clock::now() < deadline) {
    auto retry = CdbsClient::Connect(ClientFor(/*max_attempts=*/1));
    if (retry.ok() && (served = (*retry)->Ping()).ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(served.ok()) << "slot never freed after client disconnect";
}

TEST_F(NetTest, GracefulDrainFinishesInFlightRequests) {
  auto client = CdbsClient::Connect(ClientFor(/*max_attempts=*/1));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());
  // Hold a request in the server for 300ms, then shut down mid-flight: the
  // drain must let it finish (drain_timeout_ms = 2000 default).
  ASSERT_TRUE(
      util::Failpoints::Activate("net.conn.delay", "delay=300").ok());
  std::future<Result<std::vector<uint64_t>>> in_flight = std::async(
      std::launch::async, [&] { return (*client)->Query("//b"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  util::Failpoints::Deactivate("net.conn.delay");  // only the one delay
  server_->Shutdown();
  Result<std::vector<uint64_t>> result = in_flight.get();
  ASSERT_TRUE(result.ok()) << "in-flight request was cut off by shutdown: "
                           << result.status().message();
  EXPECT_EQ(result->size(), 3u);
  // After the drain no new connection is served.
  EXPECT_FALSE(CdbsClient::Connect(ClientFor(/*max_attempts=*/1)).ok());
}

// Shutdown waits only for requests in flight: connected clients that sit
// idle between requests are shut down at once, not drained until the
// drain timeout.
TEST_F(NetTest, IdleConnectionsDoNotStallShutdown) {
  auto first = CdbsClient::Connect(ClientFor(/*max_attempts=*/1));
  auto second = CdbsClient::Connect(ClientFor(/*max_attempts=*/1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE((*first)->Ping().ok());
  ASSERT_TRUE((*second)->Ping().ok());
  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(took.count(), server_options_.drain_timeout_ms / 2);
}

TEST_F(NetTest, DroppedConnectionFailsReadsAfterRetriesNotHangs) {
  ASSERT_TRUE(util::Failpoints::Activate("net.conn.drop", "always").ok());
  auto client = CdbsClient::Connect(ClientFor(/*max_attempts=*/3));
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE((*client)->Ping().ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 30) << "retry loop must stay bounded";
  util::Failpoints::Deactivate("net.conn.drop");
  EXPECT_TRUE((*client)->Ping().ok());
}

// --------------------------------------------------------------------------
// Request tracing over the wire

/// Scopes tracer configuration to a test: samples everything on entry,
/// restores the all-off default (and drops retained traces) on exit so the
/// rest of the suite runs untraced regardless of ordering.
class ScopedSampledTracing {
 public:
  ScopedSampledTracing() {
    obs::TraceOptions opts;
    opts.sample_every = 1;
    opts.retain = 16;
    obs::Tracer::Instance().Clear();
    obs::Tracer::Instance().Configure(opts);
  }
  ~ScopedSampledTracing() {
    obs::Tracer::Instance().Configure(obs::TraceOptions{});
    obs::Tracer::Instance().Clear();
  }
};

TEST_F(NetTest, RetriedReadKeepsItsTraceIdAcrossAttempts) {
  // One response frame is torn in flight. The client detects the CRC
  // mismatch, reconnects, and resends the idempotent read under the SAME
  // trace id (a retry is the same request, not a new one) — so the
  // retained trace shows both attempts under one entry.
  ScopedSampledTracing tracing;
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());
  ASSERT_TRUE(
      util::Failpoints::Activate("net.frame.corrupt", "oneshot").ok());
  Result<std::vector<uint64_t>> read = (*client)->Query("//b");
  util::Failpoints::Deactivate("net.frame.corrupt");
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_GE((*client)->retries(), 1u);

  const uint64_t id = (*client)->last_trace_id();
  ASSERT_NE(id, 0u);
  bool found = false;
  for (const obs::RetainedTrace& trace :
       obs::Tracer::Instance().Retained()) {
    if (trace.trace_id != id) continue;
    found = true;
    EXPECT_GE(trace.attempts, 2u);
    size_t evals = 0;
    for (const obs::Span& span : trace.spans) {
      if (span.name == obs::SpanName::kEval) ++evals;
    }
    EXPECT_GE(evals, 2u) << "both server-side executions must be visible";
  }
  EXPECT_TRUE(found) << "no retained trace for the client's last request";
}

TEST_F(NetTest, IntrospectReturnsMetricsAndTracesOverTheWire) {
  ScopedSampledTracing tracing;
  auto client = CdbsClient::Connect(ClientFor());
  ASSERT_TRUE(client.ok());
  // Generate one traced request so the introspection has an event to show.
  ASSERT_TRUE((*client)->Query("//b").ok());
  Result<CdbsClient::Introspection> info = (*client)->Introspect();
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_NE(info->stats_json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(info->stats_json.find("serve.requests"), std::string::npos);
  EXPECT_NE(info->stats_json.find("query.eval.steps_sorted"),
            std::string::npos);
  EXPECT_NE(info->stats_json.find("query.eval.candidates_scanned"),
            std::string::npos);
  EXPECT_NE(info->stats_json.find("query.eval.steps_counted"),
            std::string::npos);
  EXPECT_NE(info->traces_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(info->traces_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(info->traces_json.find("\"name\":\"eval\""), std::string::npos);
}

}  // namespace
}  // namespace cdbs::net
