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

size_t TagList::RunOf(size_t i) const {
  // First run whose cumulative size exceeds i.
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), i);
  CDBS_CHECK(it != cum_.end());
  return static_cast<size_t>(it - cum_.begin());
}

std::vector<NodeId>* TagList::MutableRun(size_t r) {
  std::shared_ptr<std::vector<NodeId>>& run = runs_[r];
  if (run.use_count() != 1) {
    util::CowStats& stats = util::CowStats::Local();
    ++stats.chunk_copies;
    stats.bytes_copied += run->size() * sizeof(NodeId);
    run = std::make_shared<std::vector<NodeId>>(*run);
  }
  return run.get();
}

void TagList::RebuildCum() {
  cum_.resize(runs_.size());
  uint32_t total = 0;
  for (size_t r = 0; r < runs_.size(); ++r) {
    total += static_cast<uint32_t>(runs_[r]->size());
    cum_[r] = total;
  }
}

void TagList::Append(NodeId id) {
  if (runs_.empty() || runs_.back()->size() >= kRunTarget) {
    runs_.push_back(std::make_shared<std::vector<NodeId>>());
    runs_.back()->reserve(kRunTarget);
    cum_.push_back(cum_.empty() ? 0 : cum_.back());
  } else {
    MutableRun(runs_.size() - 1);
  }
  runs_.back()->push_back(id);
  ++cum_.back();
}

void TagList::InsertAt(size_t pos, NodeId id) {
  if (runs_.empty()) {
    Append(id);
    return;
  }
  // pos == size() lands in the final run (append to it rather than opening
  // a fresh run, keeping runs near kRunTarget).
  const size_t r = pos == size() ? runs_.size() - 1 : RunOf(pos);
  std::vector<NodeId>* run = MutableRun(r);
  run->insert(run->begin() + (pos - RunStart(r)), id);
  if (run->size() > kRunMax) {
    // Split in half so both halves accept ~kRunTarget further splices
    // before copying more than kRunMax ids again.
    const size_t half = run->size() / 2;
    auto right = std::make_shared<std::vector<NodeId>>(
        run->begin() + half, run->end());
    run->resize(half);
    runs_.insert(runs_.begin() + r + 1, std::move(right));
  }
  RebuildCum();
}

void TagList::ErasePositions(std::vector<size_t>* positions) {
  if (positions->empty()) return;
  std::sort(positions->begin(), positions->end());
  positions->erase(std::unique(positions->begin(), positions->end()),
                   positions->end());
  // Walk runs once; rewrite each touched run once, skipping its erased
  // offsets.
  size_t p = 0;
  for (size_t r = 0; r < runs_.size() && p < positions->size(); ++r) {
    const size_t start = RunStart(r);
    const size_t stop = cum_[r];
    if ((*positions)[p] >= stop) continue;
    std::vector<NodeId>* run = MutableRun(r);
    size_t out = 0;
    size_t q = p;
    for (size_t i = 0; i < run->size(); ++i) {
      if (q < positions->size() && (*positions)[q] == start + i) {
        ++q;
        continue;
      }
      (*run)[out++] = (*run)[i];
    }
    run->resize(out);
    p = q;
  }
  // Drop emptied runs.
  size_t kept = 0;
  for (size_t r = 0; r < runs_.size(); ++r) {
    if (!runs_[r]->empty()) runs_[kept++] = std::move(runs_[r]);
  }
  runs_.resize(kept);
  RebuildCum();
}

void TagList::AppendRange(size_t from, size_t to,
                          std::vector<NodeId>* out) const {
  CDBS_CHECK(to <= size());
  if (from >= to) return;
  size_t r = RunOf(from);
  size_t offset = from - RunStart(r);
  while (from < to) {
    const std::vector<NodeId>& run = *runs_[r];
    const size_t take = std::min(run.size() - offset, to - from);
    out->insert(out->end(), run.begin() + offset, run.begin() + offset + take);
    from += take;
    ++r;
    offset = 0;
  }
}

std::vector<NodeId> TagList::ToVector() const {
  std::vector<NodeId> out;
  out.reserve(size());
  for (const std::shared_ptr<std::vector<NodeId>>& run : runs_) {
    out.insert(out.end(), run->begin(), run->end());
  }
  return out;
}

}  // namespace cdbs::query
