#include "repl/replication.h"

#include <unistd.h>

#include <chrono>
#include <limits>
#include <random>

#include "engine/xml_db.h"
#include "util/crc32c.h"
#include "util/little_endian.h"

namespace cdbs::repl {

namespace {

using util::AppendU32;
using util::AppendU64;
using util::ReadLE;

uint64_t MintEpoch() {
  // Random, not sequential: two primaries must never mint the same epoch,
  // or a follower could splice LSN streams from different incarnations.
  std::random_device rd;
  uint64_t epoch = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  epoch ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  if (epoch == 0) epoch = 1;  // 0 means "no epoch" on the wire
  return epoch;
}

}  // namespace

std::string EncodeReplOps(const std::vector<ReplOp>& ops) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(ops.size()));
  for (const ReplOp& op : ops) {
    out.push_back(static_cast<char>(op.kind));
    AppendU64(&out, op.target);
    AppendU64(&out, op.new_id);
    AppendU32(&out, static_cast<uint32_t>(op.tag.size()));
    out.append(op.tag);
  }
  return out;
}

Status DecodeReplOps(std::string_view payload, std::vector<ReplOp>* out) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadLE(payload, &pos, &count)) {
    return Status::Corruption("repl batch truncated at count");
  }
  // Each op occupies at least 21 bytes; a count beyond that is corruption,
  // not a huge batch.
  if (static_cast<size_t>(count) * 21 > payload.size()) {
    return Status::Corruption("repl batch count exceeds payload");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ReplOp op;
    if (pos >= payload.size()) {
      return Status::Corruption("repl batch truncated at op kind");
    }
    const uint8_t kind = static_cast<uint8_t>(payload[pos++]);
    if (kind < static_cast<uint8_t>(ReplOp::Kind::kInsertBefore) ||
        kind > static_cast<uint8_t>(ReplOp::Kind::kDelete)) {
      return Status::Corruption("bad repl op kind " + std::to_string(kind));
    }
    op.kind = static_cast<ReplOp::Kind>(kind);
    uint32_t tag_len = 0;
    if (!ReadLE(payload, &pos, &op.target) ||
        !ReadLE(payload, &pos, &op.new_id) ||
        !ReadLE(payload, &pos, &tag_len)) {
      return Status::Corruption("repl op truncated");
    }
    if (pos + tag_len > payload.size()) {
      return Status::Corruption("repl op tag truncated");
    }
    op.tag.assign(payload.data() + pos, tag_len);
    pos += tag_len;
    out->push_back(std::move(op));
  }
  if (pos != payload.size()) {
    return Status::Corruption("trailing bytes after repl batch");
  }
  return Status::OK();
}

namespace {
constexpr uint8_t kBootstrapVersion = 1;
}  // namespace

namespace {

// Everything of EncodeBootstrapSpec's blob but the trailing xml.
std::string EncodeBootstrapHeader(const engine::BootstrapSpec& spec,
                                  size_t reserve_xml) {
  std::string out;
  out.reserve(1 + 3 * 8 + 8 * spec.ids.size() + reserve_xml);
  out.push_back(static_cast<char>(kBootstrapVersion));
  AppendU64(&out, spec.next_id);
  AppendU64(&out, spec.original_count);
  AppendU64(&out, static_cast<uint64_t>(spec.ids.size()));
  // Ids widen from NodeId to u64: one store each into the pre-sized tail.
  out.resize(out.size() + 8 * spec.ids.size());
  char* p = out.data() + out.size() - 8 * spec.ids.size();
  for (const engine::NodeId id : spec.ids) {
    util::StoreU64(p, id);
    p += 8;
  }
  return out;
}

}  // namespace

std::string EncodeBootstrapSpec(const engine::BootstrapSpec& spec) {
  std::string out = EncodeBootstrapHeader(spec, spec.xml.size());
  out.append(spec.xml);
  return out;
}

Status DecodeBootstrapSpec(std::string_view blob, engine::BootstrapSpec* out) {
  size_t pos = 0;
  if (blob.empty() ||
      static_cast<uint8_t>(blob[pos++]) != kBootstrapVersion) {
    return Status::Corruption("bootstrap blob: missing or unknown version");
  }
  uint64_t count = 0;
  if (!ReadLE(blob, &pos, &out->next_id) ||
      !ReadLE(blob, &pos, &out->original_count) ||
      !ReadLE(blob, &pos, &count)) {
    return Status::Corruption("bootstrap blob: truncated header");
  }
  if (count > (blob.size() - pos) / 8) {
    return Status::Corruption("bootstrap blob: id count exceeds payload");
  }
  out->ids.resize(count);
  for (engine::NodeId& id : out->ids) {
    const uint64_t wide = util::LoadU64(blob.data() + pos);
    pos += 8;
    if (wide > std::numeric_limits<engine::NodeId>::max()) {
      return Status::Corruption("bootstrap blob: id overflows NodeId");
    }
    id = static_cast<engine::NodeId>(wide);
  }
  out->xml.assign(blob.substr(pos));
  return Status::OK();
}

namespace {

// Checkpoint file: [8 magic][u64 lsn][EncodeBootstrapSpec blob][u32 crc32c
// of everything before it].
constexpr char kCheckpointMagic[8] = {'C', 'D', 'B', 'S', 'C', 'K', 'P', 'T'};

Status WriteCheckpoint(const std::string& path, uint64_t lsn,
                       const engine::BootstrapSpec& spec) {
  std::string head(kCheckpointMagic, sizeof(kCheckpointMagic));
  AppendU64(&head, lsn);
  // The xml is written from `spec` itself, not copied into a blob.
  const std::string ids = EncodeBootstrapHeader(spec, 0);
  uint32_t crc = util::Crc32c(head.data(), head.size());
  crc = util::Crc32c(ids.data(), ids.size(), crc);
  crc = util::Crc32c(spec.xml.data(), spec.xml.size(), crc);
  std::string tail;
  AppendU32(&tail, crc);
  return storage::WriteFileAtomic(path, {head, ids, spec.xml, tail});
}

Status ReadCheckpoint(const std::string& path, uint64_t* lsn,
                      engine::BootstrapSpec* spec) {
  std::string bytes;
  CDBS_RETURN_NOT_OK(storage::ReadFile(path, &bytes));
  constexpr size_t kFixed = sizeof(kCheckpointMagic) + 8 + 4;
  if (bytes.size() < kFixed ||
      bytes.compare(0, sizeof(kCheckpointMagic), kCheckpointMagic,
                    sizeof(kCheckpointMagic)) != 0) {
    return Status::Corruption("checkpoint " + path + ": bad magic or size");
  }
  size_t pos = bytes.size() - 4;
  uint32_t stored = 0;
  ReadLE(bytes, &pos, &stored);
  if (util::Crc32c(bytes.data(), bytes.size() - 4) != stored) {
    return Status::Corruption("checkpoint " + path + ": checksum mismatch");
  }
  pos = sizeof(kCheckpointMagic);
  ReadLE(bytes, &pos, lsn);
  return DecodeBootstrapSpec(
      std::string_view(bytes).substr(pos, bytes.size() - 4 - pos), spec);
}

}  // namespace

ReplicationLog::ReplicationLog(const std::string& failpoint_scope)
    : wal_(&registry_, failpoint_scope), epoch_(MintEpoch()) {
  evictions_ = registry_.GetCounter(
      "repl.log.evictions",
      "Checkpoints that emptied the log (retention evictions)");
}

Status ReplicationLog::Create(const std::string& path,
                              const engine::BootstrapSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = path;
  CDBS_RETURN_NOT_OK(wal_.Open(path + ".wal"));
  if (wal_.size_bytes() > 0) {  // a previous database's log
    CDBS_RETURN_NOT_OK(wal_.Truncate(0, 1));
    CDBS_RETURN_NOT_OK(wal_.Sync());
  }
  oldest_lsn_ = 1;
  last_lsn_ = 0;
  return WriteCheckpoint(path, 0, spec);
}

Status ReplicationLog::Recover(const std::string& path,
                               engine::BootstrapSpec* spec,
                               std::vector<ReplRecord>* tail) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = path;
  // A crash mid-checkpoint leaves its temp file; the old checkpoint holds.
  ::unlink((path + ".tmp").c_str());
  uint64_t checkpoint_lsn = 0;
  CDBS_RETURN_NOT_OK(ReadCheckpoint(path, &checkpoint_lsn, spec));
  CDBS_RETURN_NOT_OK(wal_.Open(path + ".wal"));
  std::vector<std::string> discard;
  CDBS_RETURN_NOT_OK(wal_.Recover(&discard));  // restores the LSN counter
  if (wal_.last_lsn() <= checkpoint_lsn) {
    // The checkpoint covers the whole log: finish the interrupted reset.
    CDBS_RETURN_NOT_OK(wal_.Truncate(0, checkpoint_lsn + 1));
  }
  oldest_lsn_ = checkpoint_lsn + 1;
  last_lsn_ = wal_.last_lsn();
  CDBS_RETURN_NOT_OK(ReadLocked(oldest_lsn_, tail));
  for (size_t i = 0; i < tail->size(); ++i) {
    if ((*tail)[i].lsn != oldest_lsn_ + i) {
      return Status::Corruption("log " + path + ": a gap before lsn " +
                                std::to_string((*tail)[i].lsn));
    }
  }
  return Status::OK();
}

Result<uint64_t> ReplicationLog::Append(const std::vector<ReplOp>& ops) {
  const std::string payload = EncodeReplOps(ops);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t end = wal_.size_bytes();
  const uint64_t next = wal_.next_lsn();
  Status status = wal_.Append(payload);
  if (status.ok()) status = wal_.Sync();
  if (!status.ok()) {
    // Best effort: a handle that cannot cut stays dead until Reopen.
    static_cast<void>(wal_.Truncate(end, next));
    return status;
  }
  last_lsn_ = wal_.last_lsn();
  return last_lsn_;
}

Status ReplicationLog::Checkpoint(const engine::BootstrapSpec& spec) {
  // Only the writer appends, so last_lsn() cannot move under the write. It
  // is the last acknowledged record, even when a failed append could not
  // be cut back.
  const uint64_t lsn = last_lsn();
  CDBS_RETURN_NOT_OK(WriteCheckpoint(path_, lsn, spec));
  std::lock_guard<std::mutex> lock(mu_);
  // Whole-log eviction: the floor moves with it, so a reader below it is
  // told to bootstrap instead of silently skipping records.
  CDBS_RETURN_NOT_OK(wal_.Reset());
  oldest_lsn_ = lsn + 1;
  evictions_->Increment();
  return Status::OK();
}

Status ReplicationLog::Reopen(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  CDBS_RETURN_NOT_OK(wal_.Open(path_ + ".wal"));
  std::vector<std::string> discard;
  CDBS_RETURN_NOT_OK(wal_.Recover(&discard));  // truncates a torn tail
  std::vector<storage::WalRecord> records;
  CDBS_RETURN_NOT_OK(wal_.ReadFrom(0, &records));
  uint64_t keep = 0;                 // bytes of the records up to `lsn`
  uint64_t last = oldest_lsn_ - 1;   // the checkpoint covers up to here
  for (const storage::WalRecord& rec : records) {
    if (rec.lsn > lsn) break;
    keep = rec.end;
    last = rec.lsn;
  }
  if (last != lsn) {
    return Status::Corruption("log ends at lsn " + std::to_string(last) +
                              ", not at the acknowledged " +
                              std::to_string(lsn));
  }
  CDBS_RETURN_NOT_OK(wal_.Truncate(keep, lsn + 1));
  last_lsn_ = lsn;
  return wal_.Sync();
}

Status ReplicationLog::ReadFrom(uint64_t lsn,
                                std::vector<ReplRecord>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (lsn < oldest_lsn_) {
    return Status::OutOfRange(
        "lsn " + std::to_string(lsn) + " evicted (retention floor " +
        std::to_string(oldest_lsn_) + "); bootstrap required");
  }
  return ReadLocked(lsn, out);
}

Status ReplicationLog::ReadLocked(uint64_t lsn,
                                  std::vector<ReplRecord>* out) const {
  std::vector<storage::WalRecord> raw;
  CDBS_RETURN_NOT_OK(wal_.ReadFrom(lsn, &raw));
  out->reserve(out->size() + raw.size());
  for (storage::WalRecord& rec : raw) {
    ReplRecord decoded;
    decoded.lsn = rec.lsn;
    CDBS_RETURN_NOT_OK(DecodeReplOps(rec.payload, &decoded.ops));
    out->push_back(std::move(decoded));
  }
  return Status::OK();
}

uint64_t ReplicationLog::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_lsn_;
}

uint64_t ReplicationLog::oldest_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return oldest_lsn_;
}

uint64_t ReplicationLog::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.size_bytes();
}

}  // namespace cdbs::repl
