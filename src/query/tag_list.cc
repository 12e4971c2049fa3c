#include "query/tag_list.h"

#include <algorithm>

namespace cdbs::query {

// ---------------------------------------------------------------------------
// TagPool

std::shared_ptr<const TagPool> TagPool::Empty() {
  auto pool = std::make_shared<TagPool>();
  pool->names_.push_back(std::string());
  pool->index_.emplace(std::string(), 0);
  return pool;
}

TagId TagPool::Find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kNoTag : it->second;
}

TagId TagPool::Intern(std::shared_ptr<const TagPool>* pool,
                      const std::string& name) {
  const TagId existing = (*pool)->Find(name);
  if (existing != kNoTag) return existing;
  // Copy-on-intern: published snapshots keep the old pool; only the owner's
  // pointer moves forward. New tag names are rare, so the O(pool) copy is
  // off the steady-state hot path.
  auto next = std::make_shared<TagPool>(**pool);
  const TagId id = static_cast<TagId>(next->names_.size());
  next->names_.push_back(name);
  next->index_.emplace(name, id);
  *pool = std::move(next);
  return id;
}

// ---------------------------------------------------------------------------
// TagList

TagList::Run* TagList::MutableRun(size_t r) {
  std::shared_ptr<Run>& run = runs_[r];
  if (run.use_count() != 1) {
    util::CowStats& stats = util::CowStats::Local();
    ++stats.chunk_copies;
    stats.bytes_copied += run->ids.size() * sizeof(NodeId) +
                          (run->keys.size() + run->ends.size()) *
                              sizeof(uint32_t);
    run = std::make_shared<Run>(*run);
  }
  return run.get();
}

void TagList::Summarize(Run* run) const {
  const size_t n = run->ids.size();
  CDBS_CHECK(SummarySlots(n) <= kSummarySlots);
  run->keys[0] = static_cast<uint32_t>(n);
  for (size_t j = 0; j < SummarySlots(n); ++j) {
    run->keys[1 + j] = run->key(j * kSummaryStride);
  }
}

void TagList::RefreshFence(size_t r) {
  const Run& run = *runs_[r];
  Fence& fence = fences_[r];
  fence.ids = run.ids.data();
  fence.keys = run.keys.data() + kKeyHead;
  fence.ends = end_keys_ ? run.ends.data() : nullptr;
  fence.last_key = run.keys.back();
}

void TagList::RebuildSpine() {
  fences_.resize(runs_.size());
  uint32_t total = 0;
  for (size_t r = 0; r < runs_.size(); ++r) {
    total += static_cast<uint32_t>(runs_[r]->ids.size());
    fences_[r].cum = total;
    RefreshFence(r);
  }
  directory_.resize((size_t{total} + (size_t{1} << kBlockLog2) - 1) >>
                    kBlockLog2);
  size_t r = 0;
  for (size_t b = 0; b < directory_.size(); ++b) {
    while (fences_[r].cum <= b << kBlockLog2) ++r;
    directory_[b] = static_cast<uint32_t>(r);
  }
}

bool TagList::SpineConsistent() const {
  if (fences_.size() != runs_.size()) return false;
  size_t total = 0;
  for (size_t r = 0; r < runs_.size(); ++r) {
    const Run& run = *runs_[r];
    const Fence& fence = fences_[r];
    if (run.ids.empty()) return false;
    if (run.keys.size() != kKeyHead + run.ids.size()) return false;
    if (run.ends.size() != (end_keys_ ? run.ids.size() : 0)) return false;
    total += run.ids.size();
    if (fence.cum != total || fence.ids != run.ids.data()) return false;
    if (fence.keys != run.keys.data() + kKeyHead ||
        fence.last_key != run.keys.back()) {
      return false;
    }
    if (fence.ends != (end_keys_ ? run.ends.data() : nullptr)) return false;
    // A summary covers a prefix of the run: the ids it was computed over.
    const size_t covered = run.keys[0];
    if (covered > run.ids.size()) return false;
    for (size_t j = 0; j < SummarySlots(covered); ++j) {
      if (run.keys[1 + j] != run.key(j * kSummaryStride)) return false;
    }
  }
  const size_t block = size_t{1} << kBlockLog2;
  if (directory_.size() != (total + block - 1) / block) return false;
  for (size_t b = 0; b < directory_.size(); ++b) {
    const size_t r = directory_[b];
    if (r >= runs_.size() || RunStart(r) > b * block ||
        fences_[r].cum <= b * block) {
      return false;
    }
  }
  return true;
}

size_t TagList::summarized_runs() const {
  size_t count = 0;
  for (const std::shared_ptr<Run>& run : runs_) {
    count += run->keys[0] == run->ids.size();
  }
  return count;
}

// Flattened, so the searches below inline into it and a search costs one
// call: left to -O2, GCC keeps them as nested calls, which made V-CDBS Q5
// counts about 15% slower.
__attribute__((flatten)) std::pair<size_t, size_t> TagList::KeyRange(
    size_t from, size_t to, uint32_t key, uint64_t* probes) const {
  uint32_t lo_key = 0;
  const size_t lo = KeysBelow(from, to, key, &lo_key, probes);
  if (lo == to || lo_key != key) return {lo, lo};
  // Some entries tie. Where the last one does too (every key 0, say), they
  // all do from lo on; otherwise they end at the first key above `key`.
  ++*probes;
  if (key == UINT32_MAX || this->key(to - 1) == key) return {lo, to};
  return {lo, KeysBelow(lo + 1, to, key + 1, &lo_key, probes)};
}

size_t TagList::KeysBelow(size_t from, size_t to, uint32_t key, uint32_t* found,
                          uint64_t* probes) const {
  if (from >= to) return from;
  uint64_t count = 0;
  size_t r = RunOf(from);
  size_t start = RunStart(r);
  size_t stop = std::min<size_t>(fences_[r].cum, to);
  size_t at = SearchRun(fences_[r], RunSize(r), from - start, stop - start,
                        key, &count);
  if (at == stop - start && stop < to) {
    // All of run r's in-range part is below: find the first later run
    // whose last in-range key is not, then search inside it.
    const size_t last = to == size() ? runs_.size() - 1 : RunOf(to - 1);
    const size_t run = Gallop(
        r + 1, last + 1,
        [this, last, to, key](size_t q) {
          return (q == last ? fences_[q].keys[to - 1 - RunStart(q)]
                            : fences_[q].last_key) < key;
        },
        &count);
    if (run > last) {
      *probes += count;
      return to;
    }
    r = run;
    start = RunStart(r);
    stop = std::min<size_t>(fences_[r].cum, to);
    // The run's last in-range key is not below; everything before the run
    // is.
    at = BisectRun(fences_[r], RunSize(r), 0, stop - start - 1, key, &count);
  }
  *probes += count;
  if (start + at < to) *found = fences_[r].keys[at];
  return start + at;
}

size_t TagList::BisectRun(const Fence& fence, size_t n, size_t lo, size_t hi,
                          uint32_t key, uint64_t* count) {
  const uint32_t* head = fence.keys - kKeyHead;
  if (hi - lo > 2 * kSummaryStride && head[0] == n) {
    // Slots j with lo < j * kSummaryStride < hi.
    const size_t first = lo / kSummaryStride + 1;
    const size_t stop = (hi - 1) / kSummaryStride + 1;
    const size_t j = Bisect(
        first, stop, [head, key](size_t s) { return head[1 + s] < key; },
        count);
    if (j > first) lo = (j - 1) * kSummaryStride + 1;
    if (j < stop) hi = j * kSummaryStride;
  }
  return Bisect(
      lo, hi, [&fence, key](size_t i) { return fence.keys[i] < key; }, count);
}

size_t TagList::SearchRun(const Fence& fence, size_t n, size_t lo, size_t hi,
                          uint32_t key, uint64_t* count) {
  const auto below = [&fence, key](size_t i) { return fence.keys[i] < key; };
  const uint32_t* head = fence.keys - kKeyHead;
  if (head[0] != n) return Gallop(lo, hi, below, count);
  const size_t near = std::min(hi, lo + kNearProbes);
  const size_t at = Gallop(lo, near, below, count);
  if (at < near || near == hi) return at;
  lo = near - 1;
  ++*count;
  if ((hi == n ? fence.last_key : fence.keys[hi - 1]) < key) return hi;
  // The answer lies in (lo, hi - 1]. Slots j with lo < j * stride < hi.
  const size_t first = lo / kSummaryStride + 1;
  const size_t stop = (hi - 1) / kSummaryStride + 1;
  const size_t j = Gallop(
      first, stop, [head, key](size_t s) { return head[1 + s] < key; },
      count);
  return Bisect(j > first ? (j - 1) * kSummaryStride + 1 : lo + 1,
                j < stop ? j * kSummaryStride : hi - 1, below, count);
}

void TagList::Append(NodeId id, uint32_t key, uint32_t end_key) {
  const size_t n = size();
  if (runs_.empty() || runs_.back()->ids.size() >= kRunTarget) {
    Seal();
    auto run = std::make_shared<Run>();
    run->ids.reserve(kRunTarget);
    run->keys.reserve(kKeyHead + kRunTarget);
    run->keys.assign(kKeyHead, 0);  // no summary yet
    if (end_keys_) run->ends.reserve(kRunTarget);
    runs_.push_back(std::move(run));
    fences_.push_back(Fence{0, static_cast<uint32_t>(n), nullptr, nullptr,
                            nullptr});
  }
  Run* run = MutableRun(runs_.size() - 1);
  run->ids.push_back(id);
  run->keys.push_back(key);
  if (end_keys_) run->ends.push_back(end_key);
  ++fences_.back().cum;
  RefreshFence(runs_.size() - 1);
  if ((n & ((size_t{1} << kBlockLog2) - 1)) == 0) {
    directory_.push_back(static_cast<uint32_t>(runs_.size() - 1));
  }
}

void TagList::Seal() {
  if (runs_.empty() || runs_.back()->keys[0] == runs_.back()->ids.size()) {
    return;
  }
  Run* run = MutableRun(runs_.size() - 1);
  // A bulk build reserved kRunTarget entries; a sealed run keeps only its
  // own.
  run->ids.shrink_to_fit();
  run->keys.shrink_to_fit();
  run->ends.shrink_to_fit();
  Summarize(run);
  RefreshFence(runs_.size() - 1);
}

void TagList::InsertAt(size_t pos, NodeId id, uint32_t key,
                       uint32_t end_key) {
  if (runs_.empty()) {
    Append(id, key, end_key);
    Seal();
    return;
  }
  // pos == size() lands in the final run (append to it rather than opening
  // a fresh run, keeping runs near kRunTarget).
  const size_t r = pos == size() ? runs_.size() - 1 : RunOf(pos);
  const size_t offset = pos - RunStart(r);
  Run* run = MutableRun(r);
  run->ids.insert(run->ids.begin() + offset, id);
  run->keys.insert(run->keys.begin() + kKeyHead + offset, key);
  if (end_keys_) run->ends.insert(run->ends.begin() + offset, end_key);
  if (run->ids.size() > kRunMax) {
    // Split in half so both halves accept ~kRunTarget further splices
    // before copying more than kRunMax ids again.
    const size_t half = run->ids.size() / 2;
    auto right = std::make_shared<Run>();
    right->ids.assign(run->ids.begin() + half, run->ids.end());
    run->ids.resize(half);
    right->keys.assign(kKeyHead, 0);
    right->keys.insert(right->keys.end(), run->keys.begin() + kKeyHead + half,
                       run->keys.end());
    run->keys.resize(kKeyHead + half);
    if (end_keys_) {
      right->ends.assign(run->ends.begin() + half, run->ends.end());
      run->ends.resize(half);
    }
    Summarize(right.get());
    runs_.insert(runs_.begin() + r + 1, std::move(right));
  }
  Summarize(run);
  RebuildSpine();
}

size_t TagList::ErasePositions(std::vector<size_t>* positions) {
  if (positions->empty()) return size();
  std::sort(positions->begin(), positions->end());
  positions->erase(std::unique(positions->begin(), positions->end()),
                   positions->end());
  // Walk runs once; rewrite each touched run once, skipping its erased
  // offsets. The fences keep the counts from before the erase until the
  // spine is rebuilt.
  size_t p = 0;
  for (size_t r = 0; r < runs_.size() && p < positions->size(); ++r) {
    const size_t start = RunStart(r);
    if ((*positions)[p] >= fences_[r].cum) continue;
    Run* run = MutableRun(r);
    size_t out = 0;
    size_t q = p;
    for (size_t i = 0; i < run->ids.size(); ++i) {
      if (q < positions->size() && (*positions)[q] == start + i) {
        ++q;
        continue;
      }
      run->ids[out] = run->ids[i];
      run->key(out) = run->key(i);
      if (end_keys_) run->ends[out] = run->ends[i];
      ++out;
    }
    run->ids.resize(out);
    run->keys.resize(kKeyHead + out);
    if (end_keys_) run->ends.resize(out);
    Summarize(run);
    p = q;
  }
  // Drop emptied runs.
  size_t kept = 0;
  for (size_t r = 0; r < runs_.size(); ++r) {
    if (!runs_[r]->ids.empty()) runs_[kept++] = std::move(runs_[r]);
  }
  runs_.resize(kept);
  RebuildSpine();
  return (*positions)[0];
}

void TagList::AppendRange(size_t from, size_t to,
                          std::vector<NodeId>* out) const {
  CDBS_CHECK(to <= size());
  if (from >= to) return;
  size_t r = RunOf(from);
  size_t offset = from - RunStart(r);
  while (from < to) {
    const NodeId* ids = fences_[r].ids;
    const size_t take = std::min(RunSize(r) - offset, to - from);
    out->insert(out->end(), ids + offset, ids + offset + take);
    from += take;
    ++r;
    offset = 0;
  }
}

void TagList::AppendRange(size_t from, size_t to,
                          std::vector<KeyedId>* out) const {
  if (from >= to) return;  // the shared empty list of an unknown tag
  CDBS_CHECK(to <= size());
  size_t r = RunOf(from);
  size_t offset = from - RunStart(r);
  while (from < to) {
    const Fence& fence = fences_[r];
    const size_t take = std::min(RunSize(r) - offset, to - from);
    for (size_t i = offset; i < offset + take; ++i) {
      out->push_back({fence.ids[i], fence.keys[i],
                      fence.ends != nullptr ? fence.ends[i]
                                            : KeyedId::kNoEndKey});
    }
    from += take;
    ++r;
    offset = 0;
  }
}

std::vector<NodeId> TagList::ToVector() const {
  std::vector<NodeId> out;
  out.reserve(size());
  for (const std::shared_ptr<Run>& run : runs_) {
    out.insert(out.end(), run->ids.begin(), run->ids.end());
  }
  return out;
}

}  // namespace cdbs::query
