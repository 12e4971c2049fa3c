#ifndef CDBS_NET_PROTOCOL_H_
#define CDBS_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file
/// The CDBS wire protocol: a length-prefixed, CRC-protected binary
/// request/response framing over TCP (see docs/NETWORKING.md for the byte
/// layout and the retry semantics built on top of it).
///
/// Frame: `[u32 crc32c][u32 len][len payload bytes]`, little-endian, where
/// the CRC covers the length field plus the payload — the same torn-write
/// discipline as the WAL (src/storage/wal.h): a frame whose length or body
/// was corrupted in flight fails its checksum instead of desynchronizing
/// the stream. A receiver that sees a bad CRC must treat the connection as
/// broken (there is no way to resynchronize mid-stream).
///
/// Payloads are flat little-endian structs with u32-length-prefixed
/// strings; `EncodeRequest`/`DecodeRequest` and the response pair below are
/// the only (de)serializers — both ends share them, so a corrupt or
/// truncated payload decodes to a Status, never UB.

namespace cdbs::net {

/// Hard cap on one frame's payload. A decoded length beyond this is
/// corruption (or a hostile peer), not a big request. Sized to fit a
/// snapshot-bootstrap response (the serialized document, see
/// docs/REPLICATION.md) with headroom; documents beyond this cannot be
/// bootstrapped over the wire.
constexpr uint32_t kMaxFramePayloadBytes = 4u << 20;

/// Bytes before the payload: u32 CRC + u32 length.
constexpr size_t kFrameHeaderBytes = 8;

/// Request operations.
enum class Opcode : uint8_t {
  kPing = 1,
  kQuery = 2,
  kInsertBefore = 3,
  kInsertAfter = 4,
  kDelete = 5,
  kStats = 6,
  /// Live introspection: the server's metrics snapshot plus its retained
  /// request traces (Chrome trace_event JSON), without restarting it.
  kIntrospect = 7,
  /// Replication (docs/REPLICATION.md). kSubscribe turns the connection
  /// into a one-way replication stream: the primary pushes kReplBatch
  /// frames (committed op batches and heartbeats) and reads kReplAck
  /// frames back on the same socket. kBootstrap ships a full document
  /// snapshot + LSN for a follower too far behind the primary's log.
  /// kPromote flips a follower into an accepting-writes primary.
  kSubscribe = 8,
  kBootstrap = 9,
  kPromote = 10,
  kReplBatch = 11,
  kReplAck = 12,
  /// Cross-shard count (docs/SHARDING.md): with `doc_id` set, counts the
  /// query's matches inside that one document; without it, scatter-gathers
  /// across every shard and returns per-shard partial results.
  kCount = 13,
};

/// True for operations that are safe to resend after a broken stream (they
/// do not mutate the database).
bool IsIdempotent(Opcode op);

/// A decoded request.
struct Request {
  Opcode op = Opcode::kPing;
  uint64_t request_id = 0;
  /// Relative deadline budget in milliseconds; 0 means none. Relative (not
  /// absolute) so client and server clocks never need to agree.
  uint32_t deadline_ms = 0;
  std::string xpath;   // kQuery
  uint64_t target = 0; // kInsertBefore/kInsertAfter/kDelete; kSubscribe:
                       // first LSN wanted; kReplAck: last applied LSN
  std::string tag;     // kInsertBefore/kInsertAfter
  /// kSubscribe: the primary epoch the follower last replicated from
  /// (0 = none). A mismatch means the follower's LSN coordinates belong to
  /// a different primary incarnation and it must re-bootstrap.
  uint64_t epoch = 0;
  /// End-to-end trace id (obs/trace.h); 0 = untraced. Encoded as an
  /// *optional trailing* field — omitted when 0 — so new clients can talk
  /// to old servers and vice versa: a decoder only reads it when bytes
  /// remain after the opcode-specific fields. A retry of the same logical
  /// call reuses the id (the retained trace shows every attempt).
  uint64_t trace_id = 0;
  /// Document addressed by a sharded server (docs/SHARDING.md); kNoDoc on
  /// an unsharded connection. Same optional-trailing trick as trace_id: it
  /// is encoded only when set (after the trace-id slot, which is then
  /// always written so field order stays fixed), so old servers and clients
  /// interoperate with doc-less frames.
  uint64_t doc_id = kNoDoc;

  static constexpr uint64_t kNoDoc = ~0ull;
};

/// One shard's leg of a scatter-gathered kCount response.
struct ShardCountEntry {
  uint32_t shard = 0;
  StatusCode code = StatusCode::kOk;
  uint64_t count = 0;   // meaningful when code == kOk
  std::string message;  // non-OK detail
};

/// A decoded response. `code` mirrors cdbs::StatusCode on the wire;
/// `retry_after_ms` is meaningful only with StatusCode::kRetryAfter.
struct Response {
  uint64_t request_id = 0;
  Opcode op = Opcode::kPing;
  StatusCode code = StatusCode::kOk;
  uint32_t retry_after_ms = 0;
  std::string message;              // non-OK: human-readable detail
  std::vector<uint64_t> node_ids;   // kQuery result
  uint64_t id_or_count = 0;         // insert: new node id; delete: removed;
                                    // kSubscribe/kPromote: current last LSN;
                                    // kBootstrap: snapshot LSN; kReplBatch:
                                    // record LSN (heartbeat: primary's last)
  std::string stats_json;           // kStats / kIntrospect: metrics JSON
  std::string traces_json;          // kIntrospect: Chrome trace_event JSON
  /// Replication ops: the primary epoch stamped on every kSubscribe /
  /// kBootstrap / kPromote / kReplBatch payload.
  uint64_t epoch = 0;
  /// kBootstrap: the serialized document XML. kReplBatch: an encoded
  /// repl::ReplOp batch (empty = heartbeat).
  std::string blob;
  /// kCount without a doc_id: one entry per shard, shard order. A shard
  /// that could not serve its leg carries a non-OK code here while the
  /// response itself stays kOk — partial results, not whole-request
  /// failure. `id_or_count` is the total over the OK shards.
  std::vector<ShardCountEntry> shard_counts;
};

/// Payload (de)serialization. Decoders validate opcode/status ranges and
/// every length against the payload size.
std::string EncodeRequest(const Request& req);
Status DecodeRequest(std::string_view payload, Request* out);
std::string EncodeResponse(const Response& resp);
Status DecodeResponse(std::string_view payload, Response* out);

/// Wraps `payload` in a frame (header + payload), ready to write.
std::string EncodeFrame(std::string_view payload);

/// Parses a frame header. Returns the payload length to read next, or
/// Corruption when the length exceeds kMaxFramePayloadBytes (a length word
/// with its top bit set always does). `header` must hold kFrameHeaderBytes
/// bytes.
Status ParseFrameHeader(const char* header, uint32_t* payload_len);

/// Verifies the payload against the header's CRC. Corruption on mismatch.
Status VerifyFrame(const char* header, std::string_view payload);

}  // namespace cdbs::net

#endif  // CDBS_NET_PROTOCOL_H_
