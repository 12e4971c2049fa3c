#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <utility>

#include "labeling/registry.h"
#include "query/evaluator.h"
#include "xml/shakespeare.h"

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

void SpanLog::Merge(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64
                 ",\"parent\":\"%s\"}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request,
                 s.parent.c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // cpu user nice system idle iowait irq softirq steal ...
  uint64_t v[8] = {};
  if (std::fscanf(f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                     " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                  &v[7]) == 8) {
    ticks.steal = v[7];
    for (uint64_t x : v) ticks.total += x;
  }
  std::fclose(f);
  return ticks;
}

const std::vector<std::string>& WorkloadQueries() {
  static const std::vector<std::string>* queries = [] {
    const std::vector<std::string>& t3 = cdbs::query::Table3Queries();
    return new std::vector<std::string>{t3[0], t3[1], t3[2], t3[4], t3[5]};
  }();
  return *queries;
}

const std::vector<std::string>& WorkloadQueryNames() {
  static const std::vector<std::string> names = {"q1", "q2", "q3", "q5",
                                                 "q6"};
  return names;
}

std::unique_ptr<Corpus> LoadCorpus() {
  auto corpus = std::make_unique<Corpus>();
  corpus->plays = cdbs::xml::GenerateShakespeareDataset();
  const auto scheme = cdbs::labeling::SchemeByName("V-CDBS-Containment");
  for (const std::string& q : WorkloadQueries()) {
    corpus->parsed.push_back(cdbs::query::ParseQuery(q).value());
  }
  const auto line_query = cdbs::query::ParseQuery("//line").value();
  corpus->ref_total.assign(corpus->parsed.size(), 0);
  for (const cdbs::xml::Document& play : corpus->plays) {
    auto labeled = std::make_unique<cdbs::query::LabeledDocument>(
        play, *scheme);
    std::vector<uint64_t> counts;
    for (size_t q = 0; q < corpus->parsed.size(); ++q) {
      counts.push_back(
          cdbs::query::EvaluateQuery(corpus->parsed[q], *labeled).size());
      corpus->ref_total[q] += counts.back();
    }
    corpus->ref.push_back(std::move(counts));
    corpus->lines.push_back(cdbs::query::EvaluateQuery(line_query, *labeled));
    corpus->labeled.push_back(std::move(labeled));
  }
  return corpus;
}

std::vector<Target> PickLineTargets(const Corpus& corpus,
                                    const cdbs::shard::ShardedDb& db,
                                    size_t count, cdbs::util::Random* rng) {
  std::vector<Target> all;
  const size_t plays = corpus.plays.size();
  for (uint64_t doc = 0; doc < db.doc_count(); ++doc) {
    for (NodeId local : corpus.lines[doc % plays]) {
      all.push_back({doc, db.DocRoot(doc) + local});
    }
  }
  count = std::min(count, all.size());
  for (size_t i = 0; i < count; ++i) {  // partial Fisher-Yates
    std::swap(all[i], all[i + rng->Uniform(all.size() - i)]);
  }
  all.resize(count);
  return all;
}

Writer::Writer(uint64_t seed, size_t docs, std::vector<Target> targets)
    : rng_(seed),
      targets_(std::move(targets)),
      live_(targets_.size(), 0),
      inserts_(docs, 0),
      deletes_(docs, 0) {}

WriteOp Writer::Next() {
  WriteOp op;
  const bool delete_pick = rng_.Uniform(10) < 2;
  if ((delete_pick && !own_.empty()) || full_ == targets_.size()) {
    op.kind = WriteOp::Kind::kDelete;
    op.own_index = rng_.Uniform(own_.size());
    op.target = own_[op.own_index].w;
    return op;
  }
  op.kind = rng_.Uniform(2) == 0 ? WriteOp::Kind::kInsertBefore
                                 : WriteOp::Kind::kInsertAfter;
  do {
    op.slot = rng_.Uniform(targets_.size());
  } while (live_[op.slot] >= kMaxLivePerTarget);
  op.target = targets_[op.slot];
  return op;
}

void Writer::AckInsert(const WriteOp& op, NodeId id) {
  own_.push_back({{op.target.doc, id}, op.slot});
  if (++live_[op.slot] == kMaxLivePerTarget) ++full_;
  ++inserts_[op.target.doc];
}

void Writer::AckDelete(const WriteOp& op) {
  if (live_[own_[op.own_index].slot]-- == kMaxLivePerTarget) --full_;
  own_[op.own_index] = own_.back();
  own_.pop_back();
  ++deletes_[op.target.doc];
}

uint64_t CheckWrites(cdbs::shard::ShardedDb& db,
                     const std::vector<Writer>& writers,
                     std::vector<std::string>* errors) {
  uint64_t violations = 0;
  auto per_doc = db.CountPerDoc("//w");
  if (!per_doc.ok()) {
    errors->push_back("CountPerDoc(//w) failed: " +
                      per_doc.status().ToString());
    return 1;
  }
  for (size_t doc = 0; doc < db.doc_count(); ++doc) {
    int64_t expected = 0;
    for (const Writer& w : writers) {
      expected += static_cast<int64_t>(w.inserts()[doc]) -
                  static_cast<int64_t>(w.deletes()[doc]);
    }
    const int64_t got = static_cast<int64_t>((*per_doc)[doc]);
    if (got != expected) {
      ++violations;
      errors->push_back("document " + std::to_string(doc) + ": //w = " +
                        std::to_string(got) + ", acknowledged net inserts " +
                        std::to_string(expected));
    }
  }
  for (size_t s = 0; s < db.shard_count(); ++s) {
    const uint64_t relabeled = db.shard(s)->Stats().relabeled_total;
    if (relabeled != 0) {
      ++violations;
      errors->push_back("shard " + std::to_string(s) + " relabeled " +
                        std::to_string(relabeled) + " stored labels");
    }
  }
  return violations;
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RegistryValue ReadMetric(const cdbs::obs::MetricRegistry& reg,
                         const std::string& name) {
  RegistryValue out;
  for (const cdbs::obs::MetricSnapshot& m : reg.Snapshot()) {
    if (m.name != name) continue;
    out.counter = m.counter_value;
    out.sum = m.sum;
    out.count = m.count;
  }
  return out;
}

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Quantile(0.5);
}

}  // namespace perfbench
