#include "shard/sharded_db.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "labeling/registry.h"
#include "query/xpath.h"
#include "storage/wal.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/little_endian.h"

namespace cdbs::shard {

namespace {

// --- manifest wire helpers (little-endian, like the store/WAL formats) ---

constexpr char kManifestMagic[8] = {'C', 'D', 'B', 'S', 'S', 'H', 'R', 'D'};
constexpr uint32_t kManifestVersion = 1;
constexpr size_t kManifestHeaderBytes = 8 + 4 + 4 + 1 + 4;  // magic..count
constexpr size_t kManifestCrcBytes = 4;

using util::AppendU32;
using util::LoadU32;

// --- tiny filesystem helpers (POSIX; no std::filesystem dependency) ------

/// mkdir that tolerates an existing directory.
Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IoError("mkdir " + path + ": " + std::strerror(errno));
}

}  // namespace

std::string EncodeManifest(const ShardManifest& manifest) {
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  AppendU32(&out, kManifestVersion);
  AppendU32(&out, manifest.shard_count);
  out.push_back(static_cast<char>(manifest.router));
  AppendU32(&out, static_cast<uint32_t>(manifest.placement.size()));
  for (uint32_t p : manifest.placement) AppendU32(&out, p);
  AppendU32(&out, util::Crc32c(out.data(), out.size()));
  return out;
}

Status DecodeManifest(std::string_view bytes, ShardManifest* out) {
  if (bytes.size() < kManifestHeaderBytes + kManifestCrcBytes) {
    return Status::Corruption("shard manifest too short (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::Corruption("bad shard manifest magic");
  }
  const uint32_t stored =
      LoadU32(bytes.data() + bytes.size() - kManifestCrcBytes);
  const uint32_t actual =
      util::Crc32c(bytes.data(), bytes.size() - kManifestCrcBytes);
  if (stored != actual) {
    return Status::Corruption("shard manifest checksum mismatch");
  }
  const char* p = bytes.data() + sizeof(kManifestMagic);
  const uint32_t version = LoadU32(p);
  p += 4;
  if (version != kManifestVersion) {
    return Status::Corruption("unsupported shard manifest version " +
                              std::to_string(version));
  }
  out->shard_count = LoadU32(p);
  p += 4;
  if (out->shard_count == 0) {
    return Status::Corruption("shard manifest has zero shards");
  }
  const uint8_t router = static_cast<uint8_t>(*p);
  p += 1;
  if (router > static_cast<uint8_t>(RouterKind::kExplicit)) {
    return Status::Corruption("bad router kind in shard manifest");
  }
  out->router = static_cast<RouterKind>(router);
  const uint32_t n = LoadU32(p);
  p += 4;
  if (bytes.size() !=
      kManifestHeaderBytes + 4ull * n + kManifestCrcBytes) {
    return Status::Corruption("shard manifest length mismatch");
  }
  out->placement.resize(n);
  for (uint32_t i = 0; i < n; ++i, p += 4) {
    const uint32_t v = LoadU32(p);
    if (v >= out->shard_count) {
      return Status::Corruption("shard manifest places document " +
                                std::to_string(i) + " on shard " +
                                std::to_string(v) + " of " +
                                std::to_string(out->shard_count));
    }
    out->placement[i] = v;
  }
  return Status::OK();
}

uint32_t HashShardOf(uint64_t doc, uint32_t shard_count) {
  // splitmix64 finalizer: a few multiplies, avalanches every input bit, and
  // is trivially stable across platforms/processes — what a persisted
  // placement needs.
  uint64_t z = doc + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<uint32_t>(z % shard_count);
}

Result<std::unique_ptr<ShardedDb>> ShardedDb::Open(
    std::vector<xml::Document> docs, const ShardedDbOptions& options) {
  if (options.shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (options.read_workers == 0) {
    return Status::InvalidArgument("read_workers must be >= 1");
  }
  if (!options.shard.db.storage_path.empty()) {
    return Status::InvalidArgument(
        "per-shard store paths are derived from ShardedDbOptions::"
        "storage_dir; leave shard.db.storage_path empty");
  }
  if (options.shard.shared_readers != nullptr) {
    return Status::InvalidArgument(
        "the reader pool is owned by the ShardedDb; leave "
        "shard.shared_readers empty");
  }

  // Every shard would fail the same way; reject the name before anything
  // (a MANIFEST included) reaches storage_dir.
  if (labeling::SchemeByName(options.shard.db.scheme_name) == nullptr) {
    return Status::InvalidArgument("unknown labeling scheme '" +
                                   options.shard.db.scheme_name + "'");
  }

  // A manifest on disk is authoritative — documents never move between
  // shards because options changed across restarts — and means every
  // shard's checkpoint exists (it is written last): the corpus recovers
  // from its shards' logs and the documents are not read.
  ShardManifest manifest;
  bool from_disk = false;
  std::string manifest_path;
  if (!options.storage_dir.empty()) {
    CDBS_RETURN_NOT_OK(MakeDir(options.storage_dir));
    manifest_path = options.storage_dir + "/MANIFEST";
    std::string bytes;
    const Status read = storage::ReadFile(manifest_path, &bytes);
    if (read.code() != StatusCode::kNotFound) {
      CDBS_RETURN_NOT_OK(read);
      CDBS_RETURN_NOT_OK(DecodeManifest(bytes, &manifest));
      if (!docs.empty() && manifest.placement.size() != docs.size()) {
        return Status::InvalidArgument(
            "manifest at " + manifest_path + " places " +
            std::to_string(manifest.placement.size()) +
            " documents but the corpus has " + std::to_string(docs.size()));
      }
      from_disk = true;
      if (manifest.shard_count != options.shard_count) {
        std::fprintf(stderr,
                     "warning: shard manifest %s pins %u shards; ignoring "
                     "requested shard_count=%zu\n",
                     manifest_path.c_str(), manifest.shard_count,
                     options.shard_count);
      }
    }
  }
  if (!from_disk) {
    if (docs.empty()) {
      return Status::InvalidArgument(
          "a sharded corpus needs at least one document");
    }
    for (size_t i = 0; i < docs.size(); ++i) {
      if (docs[i].root() == nullptr) {
        return Status::InvalidArgument("document " + std::to_string(i) +
                                       " has no root element");
      }
    }
    manifest.shard_count = static_cast<uint32_t>(options.shard_count);
    manifest.router = options.router;
    if (options.router == RouterKind::kExplicit) {
      if (options.placement.size() != docs.size()) {
        return Status::InvalidArgument(
            "explicit placement covers " +
            std::to_string(options.placement.size()) + " of " +
            std::to_string(docs.size()) + " documents");
      }
      for (size_t i = 0; i < options.placement.size(); ++i) {
        if (options.placement[i] >= manifest.shard_count) {
          return Status::InvalidArgument(
              "placement sends document " + std::to_string(i) +
              " to shard " + std::to_string(options.placement[i]) + " of " +
              std::to_string(manifest.shard_count));
        }
      }
      manifest.placement = options.placement;
    } else {
      if (!options.placement.empty()) {
        return Status::InvalidArgument(
            "an explicit placement vector requires RouterKind::kExplicit");
      }
      manifest.placement.resize(docs.size());
      for (size_t i = 0; i < docs.size(); ++i) {
        manifest.placement[i] = HashShardOf(i, manifest.shard_count);
      }
    }
  }

  std::unique_ptr<ShardedDb> db(new ShardedDb());
  db->manifest_ = manifest;
  db->doc_shard_ = manifest.placement;
  db->doc_root_.resize(manifest.placement.size());
  db->shard_docs_.resize(manifest.shard_count);
  for (size_t i = 0; i < manifest.placement.size(); ++i) {
    db->shard_docs_[manifest.placement[i]].push_back(i);
  }
  db->readers_ =
      std::make_shared<concurrency::ThreadPool>(options.read_workers);

  for (uint32_t s = 0; s < manifest.shard_count; ++s) {
    engine::ConcurrentXmlDbOptions opts = options.shard;
    opts.shared_readers = db->readers_;
    // Scope errno-injection failpoints to this shard, so chaos tests can
    // sicken exactly one shard's log (`wal.shard-1.sync.error`) while the
    // others stay healthy.
    opts.db.failpoint_scope = "shard-" + std::to_string(s);
    if (!options.storage_dir.empty()) {
      const std::string dir =
          options.storage_dir + "/shard-" + std::to_string(s);
      CDBS_RETURN_NOT_OK(MakeDir(dir));
      opts.db.storage_path = dir + "/labels.cdbs";
    }
    auto shard = from_disk ? engine::ConcurrentXmlDb::Recover(opts)
                           : engine::ConcurrentXmlDb::Open(
                                 db->IngestShard(s, &docs), opts);
    if (!shard.ok()) return shard.status();
    db->shards_.push_back(std::move(shard).value());
    if (from_disk) CDBS_RETURN_NOT_OK(db->FindDocRoots(s));
  }
  if (!from_disk && !manifest_path.empty()) {
    CDBS_RETURN_NOT_OK(storage::WriteFileAtomic(
        manifest_path, {EncodeManifest(manifest)}));
  }
  db->RegisterMetrics();

  // Supervision (docs/ROBUSTNESS.md): each shard's probe target is its
  // first document root — a probe insert right after it lands between
  // documents (a child of the synthetic shard root), invisible to every
  // document-scoped query. An empty shard has nothing safe to probe.
  if (options.supervisor.enabled) {
    std::vector<ShardSupervisor::ShardHandle> handles(manifest.shard_count);
    for (uint32_t s = 0; s < manifest.shard_count; ++s) {
      handles[s].engine = db->shards_[s].get();
      handles[s].probe_target = db->shard_docs_[s].empty()
                                    ? 0
                                    : db->doc_root_[db->shard_docs_[s][0]];
    }
    db->supervisor_ = std::make_unique<ShardSupervisor>(
        std::move(handles), options.storage_dir, options.supervisor);
    db->supervisor_->Start();
  }
  return db;
}

engine::XmlTree ShardedDb::IngestShard(uint32_t s,
                                       std::vector<xml::Document>* docs) {
  // The shard's documents under one synthetic root, in corpus order. Each
  // input is freed as soon as it is ingested, before the shard is labeled,
  // so the labeling reuses its heap and no document outlives Open.
  engine::XmlTree tree;
  const engine::NodeId root = tree.AddElement(kShardRootTag, labeling::kNoNode);
  for (uint64_t d : shard_docs_[s]) {
    doc_root_[d] = tree.Ingest(std::move((*docs)[d]), root);
  }
  return tree;
}

Status ShardedDb::FindDocRoots(uint32_t s) {
  // The document roots are the shard root's children that were there at
  // open, in corpus order; later children are supervisor probes.
  engine::ConcurrentXmlDb& shard = *shards_[s];
  const size_t original = shard.underlying().original_count();
  const auto pin = shard.PinSnapshot();
  const labeling::TreeSkeleton& sk = pin->labeling().skeleton();
  size_t k = 0;
  for (engine::NodeId c = sk.first_child(0); c != labeling::kNoNode;
       c = sk.next_sibling(c)) {
    if (c >= original) continue;
    if (k == shard_docs_[s].size()) break;
    doc_root_[shard_docs_[s][k++]] = c;
  }
  if (k != shard_docs_[s].size() || pin->tag(0) != kShardRootTag) {
    return Status::Corruption("shard " + std::to_string(s) +
                              " does not hold the " +
                              std::to_string(shard_docs_[s].size()) +
                              " documents its manifest places there");
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardedDb>> ShardedDb::OpenFromImage(
    const engine::BootstrapSpec& spec,
    engine::ConcurrentXmlDbOptions options) {
  if (options.shared_readers != nullptr) {
    return Status::InvalidArgument(
        "the reader pool is owned by the ShardedDb; leave shared_readers "
        "empty");
  }
  // Ids list the tree in document order: node 0 first, then its first
  // child.
  if (spec.ids.size() < 2 || spec.ids[0] != 0 || spec.ids[1] != 1) {
    return Status::Corruption(
        "bootstrap image is not a one-document shard: node 1 is not the "
        "first child of node 0");
  }
  std::unique_ptr<ShardedDb> db(new ShardedDb());
  db->manifest_ = {1, RouterKind::kHash, {0}};
  db->doc_shard_ = {0};
  db->doc_root_ = {1};
  db->shard_docs_ = {{0}};
  db->readers_ =
      std::make_shared<concurrency::ThreadPool>(options.read_workers);
  options.shared_readers = db->readers_;
  auto shard = engine::ConcurrentXmlDb::OpenFromImage(spec, options);
  if (!shard.ok()) return shard.status();
  if ((*shard)->TagOf(0) != kShardRootTag) {
    return Status::Corruption("bootstrap image root is <" +
                              (*shard)->TagOf(0) + ">, not the <" +
                              kShardRootTag + "> shard root");
  }
  db->shards_.push_back(std::move(shard).value());
  db->RegisterMetrics();
  return db;
}

void ShardedDb::RegisterMetrics() {
  obs::MetricRegistry& reg = registry_;
  routed_reads_ = reg.GetCounter(
      "shard.routed.reads", "document-scoped reads routed to their shard");
  routed_writes_ = reg.GetCounter(
      "shard.routed.writes", "document-scoped writes routed to their shard");
  scatter_queries_ = reg.GetCounter(
      "shard.scatter.queries", "cross-shard scatter-gather queries");
  scatter_partial_ = reg.GetCounter(
      "shard.scatter.partial", "gathers that returned partial results");
  scatter_shard_errors_ = reg.GetCounter(
      "shard.scatter.shard_errors", "per-shard failures inside gathers");
  shard_count_gauge_ =
      reg.GetGauge("shard.count", "number of shards being served");
  shard_count_gauge_->Set(static_cast<double>(shards_.size()));
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "shard." + std::to_string(s);
    PerShardMetrics m;
    m.reads = reg.GetCounter(prefix + ".reads",
                             "document-scoped reads served by this shard");
    m.writes = reg.GetCounter(prefix + ".writes",
                              "document-scoped writes served by this shard");
    m.unavailable = reg.GetCounter(
        prefix + ".unavailable", "gather legs this shard failed to serve");
    per_shard_metrics_.push_back(m);
  }
}

ShardedDb::~ShardedDb() { Shutdown(); }

void ShardedDb::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    // Supervisor first (it submits probe writes and reopens into the
    // shards), then the shards (each drains its writer and stops
    // submitting reads), then the pool they all share.
    if (supervisor_ != nullptr) supervisor_->Stop();
    for (auto& s : shards_) s->Shutdown();
    if (readers_ != nullptr) readers_->Shutdown();
  });
}

Status ShardedDb::CheckDoc(uint64_t doc) const {
  if (doc >= doc_count()) {
    return Status::InvalidArgument("no document " + std::to_string(doc) +
                                   " (corpus has " +
                                   std::to_string(doc_count()) + ")");
  }
  return Status::OK();
}

std::future<Result<std::vector<uint64_t>>> ShardedDb::SubmitLeg(
    uint32_t s, const std::string& xpath, util::Deadline deadline) {
  std::vector<engine::NodeId> roots;
  roots.reserve(shard_docs_[s].size());
  for (const uint64_t doc : shard_docs_[s]) roots.push_back(doc_root_[doc]);
  if (s + 1 < shards_.size()) {
    return shards_[s]->SubmitCount(xpath, std::move(roots), deadline);
  }
  std::promise<Result<std::vector<uint64_t>>> here;
  here.set_value(shards_[s]->CountPerScope(xpath, roots, deadline));
  return here.get_future();
}

Result<std::vector<engine::NodeId>> ShardedDb::QueryDoc(
    uint64_t doc, const std::string& xpath, util::Deadline deadline) {
  CDBS_RETURN_NOT_OK(CheckDoc(doc));
  const uint32_t s = doc_shard_[doc];
  routed_reads_->Increment();
  per_shard_metrics_[s].reads->Increment();
  return shards_[s]->Query(xpath, doc_root_[doc], deadline);
}

Result<uint64_t> ShardedDb::CountDoc(uint64_t doc, const std::string& xpath,
                                     util::Deadline deadline) {
  CDBS_RETURN_NOT_OK(CheckDoc(doc));
  const uint32_t s = doc_shard_[doc];
  routed_reads_->Increment();
  per_shard_metrics_[s].reads->Increment();
  auto res = shards_[s]->CountPerScope(xpath, {doc_root_[doc]}, deadline);
  if (!res.ok()) return res.status();
  return (*res)[0];
}

Result<std::vector<uint64_t>> ShardedDb::CountPerDoc(
    const std::string& xpath, util::Deadline deadline) {
  std::vector<std::future<Result<std::vector<uint64_t>>>> futures;
  futures.reserve(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    futures.push_back(SubmitLeg(s, xpath, deadline));
  }
  std::vector<uint64_t> out(doc_count(), 0);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    auto res = futures[s].get();
    if (!res.ok()) return res.status();
    for (size_t k = 0; k < res->size(); ++k) {
      out[shard_docs_[s][k]] = (*res)[k];
    }
  }
  return out;
}

Result<GatheredCount> ShardedDb::CountAll(const std::string& xpath,
                                          util::Deadline deadline) {
  const auto parsed = query::ParseQuery(xpath);
  if (!parsed.ok()) return parsed.status();
  scatter_queries_->Increment();

  GatheredCount g;
  g.per_shard.resize(shards_.size());
  std::vector<std::future<Result<std::vector<uint64_t>>>> futures(
      shards_.size());
  std::vector<bool> submitted(shards_.size(), false);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    g.per_shard[s].shard = s;
    if (CDBS_FAILPOINT("shard." + std::to_string(s) + ".unavailable")) {
      g.per_shard[s].code = StatusCode::kUnavailable;
      g.per_shard[s].message =
          "failpoint shard." + std::to_string(s) + ".unavailable";
      continue;
    }
    per_shard_metrics_[s].reads->Increment();
    futures[s] = SubmitLeg(s, xpath, deadline);
    submitted[s] = true;
  }
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (!submitted[s]) {
      ++g.failed_shards;
      per_shard_metrics_[s].unavailable->Increment();
      continue;
    }
    auto res = futures[s].get();
    if (res.ok()) {
      uint64_t count = 0;
      for (const uint64_t c : *res) count += c;
      g.per_shard[s].count = count;
      g.total += count;
    } else {
      g.per_shard[s].code = res.status().code();
      g.per_shard[s].message = res.status().message();
      ++g.failed_shards;
      per_shard_metrics_[s].unavailable->Increment();
    }
  }
  if (g.failed_shards > 0) {
    scatter_partial_->Increment();
    scatter_shard_errors_->Increment(g.failed_shards);
  }
  if (g.failed_shards == shards_.size()) {
    std::string first;
    for (const auto& e : g.per_shard) {
      if (e.code != StatusCode::kOk) {
        first = e.message;
        break;
      }
    }
    return Status::Unavailable("all " + std::to_string(shards_.size()) +
                               " shards failed; first: " + first);
  }
  return g;
}

Status ShardedDb::ResolveWrite(uint64_t doc, engine::NodeId target,
                               uint32_t* shard) {
  CDBS_RETURN_NOT_OK(CheckDoc(doc));
  const uint32_t s = doc_shard_[doc];
  const engine::NodeId root = doc_root_[doc];
  if (target == 0) {
    return Status::InvalidArgument(
        "node 0 is the shard's synthetic root, not part of any document");
  }
  if (target == root) {
    return Status::InvalidArgument(
        "node " + std::to_string(target) + " is the root of document " +
        std::to_string(doc) +
        "; a sibling insert would escape the document and deleting the "
        "document root is not supported");
  }
  // Validate against a pinned snapshot. A concurrent delete can still
  // invalidate `target` before the write is applied — the shard's writer
  // revalidates and fails that request cleanly; this check exists to bounce
  // wrong-document and never-existed targets before they queue.
  const auto pin = shards_[s]->PinSnapshot();
  const labeling::Labeling& lab = pin->labeling();
  if (target >= lab.skeleton().size()) {
    return Status::OutOfRange("no node " + std::to_string(target) +
                              " in shard " + std::to_string(s));
  }
  if (lab.skeleton().is_removed(target)) {
    return Status::NotFound("node " + std::to_string(target) +
                            " was deleted");
  }
  if (!lab.IsAncestor(root, target)) {
    return Status::NotFound("node " + std::to_string(target) +
                            " is not inside document " + std::to_string(doc));
  }
  *shard = s;
  return Status::OK();
}

std::future<Result<uint64_t>> ShardedDb::Submit(uint64_t doc,
                                                engine::WriteOp op,
                                                engine::Admission admission,
                                                util::Deadline deadline) {
  uint32_t s = 0;
  Status st = ResolveWrite(doc, op.target, &s);
  if (st.ok()) st = GateWrite(s);
  if (!st.ok()) {
    std::promise<Result<uint64_t>> failed;
    failed.set_value(std::move(st));
    return failed.get_future();
  }
  routed_writes_->Increment();
  per_shard_metrics_[s].writes->Increment();
  return shards_[s]->Submit(std::move(op), admission, deadline);
}

uint64_t ShardedDb::RetryAfterHintMillis(uint64_t doc) const {
  if (doc >= doc_count()) return 1;
  const uint32_t s = doc_shard_[doc];
  if (supervisor_ != nullptr &&
      (supervisor_->read_only() ||
       supervisor_->health(s) != ShardHealth::kHealthy)) {
    // Breaker bounce: the hint reflects the recovery schedule, not the
    // queue (which the fast-fail never touched).
    return supervisor_->RetryAfterHintMillis(s);
  }
  return shards_[s]->RetryAfterHintMillis();
}

uint64_t ShardedDb::TotalNodes() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    const auto pin = s->PinSnapshot();
    // live_count includes the synthetic shard root; the corpus does not.
    total += pin->labeling().skeleton().live_count() - 1;
  }
  return total;
}

uint64_t ShardedDb::TotalLabelBits() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    const auto pin = s->PinSnapshot();
    total += pin->labeling().TotalLabelBits();
  }
  return total;
}

}  // namespace cdbs::shard
