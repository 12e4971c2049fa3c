#include "net/protocol.h"

#include <cstring>

#include "util/crc32c.h"
#include "util/little_endian.h"

namespace cdbs::net {

namespace {

using util::AppendU32;
using util::AppendU64;

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// A bounds-checked little-endian reader over one payload.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  /// Reads one fixed-width value (`n` into `v[0..n)`).
  template <typename T>
  Status Read(T* v, size_t n = 1) {
    return util::ReadLE(data_, &pos_, v, n) ? Status::OK() : Truncated();
  }

  /// A u32 count, then that many u64 values, read as one block.
  Status ReadU64Array(std::vector<uint64_t>* v) {
    uint32_t n = 0;
    CDBS_RETURN_NOT_OK(Read(&n));
    // Checked before the resize: a hostile count must not allocate.
    if ((data_.size() - pos_) / sizeof(uint64_t) < n) return Truncated();
    v->resize(n);
    return Read(v->data(), n);
  }

  Status ReadString(std::string* v) {
    uint32_t len = 0;
    CDBS_RETURN_NOT_OK(Read(&len));
    if (data_.size() - pos_ < len) return Truncated();
    v->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  bool exhausted() const { return pos_ == data_.size(); }

 private:
  static Status Truncated() {
    return Status::Corruption("protocol payload truncated");
  }

  std::string_view data_;
  size_t pos_ = 0;
};

Status ValidateOpcode(uint8_t raw, Opcode* out) {
  if (raw < static_cast<uint8_t>(Opcode::kPing) ||
      raw > static_cast<uint8_t>(Opcode::kCount)) {
    return Status::Corruption("bad opcode " + std::to_string(raw));
  }
  *out = static_cast<Opcode>(raw);
  return Status::OK();
}

Status ValidateStatusCode(uint8_t raw, StatusCode* out) {
  if (raw > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::Corruption("bad status code " + std::to_string(raw));
  }
  *out = static_cast<StatusCode>(raw);
  return Status::OK();
}

}  // namespace

bool IsIdempotent(Opcode op) {
  switch (op) {
    case Opcode::kPing:
    case Opcode::kQuery:
    case Opcode::kCount:
    case Opcode::kStats:
    case Opcode::kIntrospect:
    case Opcode::kSubscribe:
    case Opcode::kBootstrap:
    // Promoting a node that is already primary is a no-op, so a resend
    // after a torn stream cannot change the outcome.
    case Opcode::kPromote:
    // Acks are pure notifications; a duplicate only re-reports progress.
    case Opcode::kReplAck:
      return true;
    case Opcode::kInsertBefore:
    case Opcode::kInsertAfter:
    case Opcode::kDelete:
      return false;
    case Opcode::kReplBatch:
      break;  // server-push only; never resent by a client
  }
  return false;
}

std::string EncodeRequest(const Request& req) {
  std::string out;
  AppendU8(&out, static_cast<uint8_t>(req.op));
  AppendU64(&out, req.request_id);
  AppendU32(&out, req.deadline_ms);
  switch (req.op) {
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kIntrospect:
      break;
    case Opcode::kQuery:
    case Opcode::kCount:
      AppendString(&out, req.xpath);
      break;
    case Opcode::kInsertBefore:
    case Opcode::kInsertAfter:
      AppendU64(&out, req.target);
      AppendString(&out, req.tag);
      break;
    case Opcode::kDelete:
      AppendU64(&out, req.target);
      break;
    case Opcode::kSubscribe:
      AppendU64(&out, req.target);  // first LSN wanted
      AppendU64(&out, req.epoch);
      break;
    case Opcode::kBootstrap:
    case Opcode::kPromote:
      break;
    case Opcode::kReplAck:
      AppendU64(&out, req.target);  // last applied LSN
      break;
    case Opcode::kReplBatch:
      break;  // server-push only; a request with this op is never encoded
  }
  // Optional trailing fields, in fixed order: present only when set, so
  // old decoders (which reject trailing bytes) still interoperate with
  // plain requests and old encoders produce frames new decoders accept.
  // A doc_id forces the trace-id slot to be written (even untraced) so the
  // decoder can tell the two apart by position.
  if (req.trace_id != 0 || req.doc_id != Request::kNoDoc) {
    AppendU64(&out, req.trace_id);
  }
  if (req.doc_id != Request::kNoDoc) AppendU64(&out, req.doc_id);
  return out;
}

Status DecodeRequest(std::string_view payload, Request* out) {
  Cursor cur(payload);
  uint8_t op_raw = 0;
  CDBS_RETURN_NOT_OK(cur.Read(&op_raw));
  CDBS_RETURN_NOT_OK(ValidateOpcode(op_raw, &out->op));
  CDBS_RETURN_NOT_OK(cur.Read(&out->request_id));
  CDBS_RETURN_NOT_OK(cur.Read(&out->deadline_ms));
  switch (out->op) {
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kIntrospect:
      break;
    case Opcode::kQuery:
    case Opcode::kCount:
      CDBS_RETURN_NOT_OK(cur.ReadString(&out->xpath));
      break;
    case Opcode::kInsertBefore:
    case Opcode::kInsertAfter:
      CDBS_RETURN_NOT_OK(cur.Read(&out->target));
      CDBS_RETURN_NOT_OK(cur.ReadString(&out->tag));
      break;
    case Opcode::kDelete:
      CDBS_RETURN_NOT_OK(cur.Read(&out->target));
      break;
    case Opcode::kSubscribe:
      CDBS_RETURN_NOT_OK(cur.Read(&out->target));
      CDBS_RETURN_NOT_OK(cur.Read(&out->epoch));
      break;
    case Opcode::kBootstrap:
    case Opcode::kPromote:
    case Opcode::kReplBatch:
      break;
    case Opcode::kReplAck:
      CDBS_RETURN_NOT_OK(cur.Read(&out->target));
      break;
  }
  out->trace_id = 0;
  out->doc_id = Request::kNoDoc;
  if (!cur.exhausted()) {
    CDBS_RETURN_NOT_OK(cur.Read(&out->trace_id));
  }
  if (!cur.exhausted()) {
    CDBS_RETURN_NOT_OK(cur.Read(&out->doc_id));
  }
  if (!cur.exhausted()) {
    return Status::Corruption("trailing bytes after request");
  }
  return Status::OK();
}

std::string EncodeResponse(const Response& resp) {
  std::string out;
  out.reserve(22 + resp.message.size() + 8 * resp.node_ids.size());
  AppendU64(&out, resp.request_id);
  AppendU8(&out, static_cast<uint8_t>(resp.op));
  AppendU8(&out, static_cast<uint8_t>(resp.code));
  AppendU32(&out, resp.retry_after_ms);
  AppendString(&out, resp.message);
  if (resp.code == StatusCode::kOk) {
    switch (resp.op) {
      case Opcode::kPing:
        break;
      case Opcode::kQuery:
        AppendU32(&out, static_cast<uint32_t>(resp.node_ids.size()));
        util::AppendU64s(&out, resp.node_ids.data(), resp.node_ids.size());
        break;
      case Opcode::kInsertBefore:
      case Opcode::kInsertAfter:
      case Opcode::kDelete:
        AppendU64(&out, resp.id_or_count);
        break;
      case Opcode::kStats:
        AppendString(&out, resp.stats_json);
        break;
      case Opcode::kIntrospect:
        AppendString(&out, resp.stats_json);
        AppendString(&out, resp.traces_json);
        break;
      case Opcode::kSubscribe:
      case Opcode::kPromote:
        AppendU64(&out, resp.id_or_count);
        AppendU64(&out, resp.epoch);
        break;
      case Opcode::kBootstrap:
      case Opcode::kReplBatch:
        AppendU64(&out, resp.id_or_count);
        AppendU64(&out, resp.epoch);
        AppendString(&out, resp.blob);
        break;
      case Opcode::kCount:
        AppendU64(&out, resp.id_or_count);  // total over OK shards
        AppendU32(&out, static_cast<uint32_t>(resp.shard_counts.size()));
        for (const auto& e : resp.shard_counts) {
          AppendU32(&out, e.shard);
          AppendU8(&out, static_cast<uint8_t>(e.code));
          AppendU64(&out, e.count);
          AppendString(&out, e.message);
        }
        break;
      case Opcode::kReplAck:
        break;  // client-push only; never answered
    }
  }
  return out;
}

Status DecodeResponse(std::string_view payload, Response* out) {
  Cursor cur(payload);
  CDBS_RETURN_NOT_OK(cur.Read(&out->request_id));
  uint8_t op_raw = 0;
  CDBS_RETURN_NOT_OK(cur.Read(&op_raw));
  CDBS_RETURN_NOT_OK(ValidateOpcode(op_raw, &out->op));
  uint8_t code_raw = 0;
  CDBS_RETURN_NOT_OK(cur.Read(&code_raw));
  CDBS_RETURN_NOT_OK(ValidateStatusCode(code_raw, &out->code));
  CDBS_RETURN_NOT_OK(cur.Read(&out->retry_after_ms));
  CDBS_RETURN_NOT_OK(cur.ReadString(&out->message));
  if (out->code == StatusCode::kOk) {
    switch (out->op) {
      case Opcode::kPing:
        break;
      case Opcode::kQuery:
        CDBS_RETURN_NOT_OK(cur.ReadU64Array(&out->node_ids));
        break;
      case Opcode::kInsertBefore:
      case Opcode::kInsertAfter:
      case Opcode::kDelete:
        CDBS_RETURN_NOT_OK(cur.Read(&out->id_or_count));
        break;
      case Opcode::kStats:
        CDBS_RETURN_NOT_OK(cur.ReadString(&out->stats_json));
        break;
      case Opcode::kIntrospect:
        CDBS_RETURN_NOT_OK(cur.ReadString(&out->stats_json));
        CDBS_RETURN_NOT_OK(cur.ReadString(&out->traces_json));
        break;
      case Opcode::kSubscribe:
      case Opcode::kPromote:
        CDBS_RETURN_NOT_OK(cur.Read(&out->id_or_count));
        CDBS_RETURN_NOT_OK(cur.Read(&out->epoch));
        break;
      case Opcode::kBootstrap:
      case Opcode::kReplBatch:
        CDBS_RETURN_NOT_OK(cur.Read(&out->id_or_count));
        CDBS_RETURN_NOT_OK(cur.Read(&out->epoch));
        CDBS_RETURN_NOT_OK(cur.ReadString(&out->blob));
        break;
      case Opcode::kCount: {
        CDBS_RETURN_NOT_OK(cur.Read(&out->id_or_count));
        uint32_t n = 0;
        CDBS_RETURN_NOT_OK(cur.Read(&n));
        // Each entry is at least 17 bytes (u32 + u8 + u64 + empty string).
        if (static_cast<size_t>(n) * 17 > payload.size()) {
          return Status::Corruption("shard count entries exceed payload");
        }
        out->shard_counts.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          auto& e = out->shard_counts[i];
          CDBS_RETURN_NOT_OK(cur.Read(&e.shard));
          uint8_t code_byte = 0;
          CDBS_RETURN_NOT_OK(cur.Read(&code_byte));
          CDBS_RETURN_NOT_OK(ValidateStatusCode(code_byte, &e.code));
          CDBS_RETURN_NOT_OK(cur.Read(&e.count));
          CDBS_RETURN_NOT_OK(cur.ReadString(&e.message));
        }
        break;
      }
      case Opcode::kReplAck:
        break;
    }
  }
  if (!cur.exhausted()) {
    return Status::Corruption("trailing bytes after response");
  }
  return Status::OK();
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.resize(kFrameHeaderBytes);
  out.append(payload.data(), payload.size());
  util::StoreU32(out.data() + 4, static_cast<uint32_t>(payload.size()));
  util::StoreU32(out.data(), util::Crc32c(out.data() + 4, 4 + payload.size()));
  return out;
}

Status ParseFrameHeader(const char* header, uint32_t* payload_len) {
  const uint32_t len = util::LoadU32(header + 4);
  if (len > kMaxFramePayloadBytes) {
    return Status::Corruption("frame length " + std::to_string(len) +
                              " exceeds cap");
  }
  *payload_len = len;
  return Status::OK();
}

Status VerifyFrame(const char* header, std::string_view payload) {
  const uint32_t expected = util::LoadU32(header);
  uint32_t crc = util::Crc32c(header + 4, 4);
  crc = util::Crc32c(payload.data(), payload.size(), crc);
  if (crc != expected) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

}  // namespace cdbs::net
