#ifndef CDBS_QUERY_TAG_LIST_H_
#define CDBS_QUERY_TAG_LIST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "labeling/label.h"
#include "util/check.h"
#include "util/cow_vector.h"

/// \file
/// The COW building blocks of the tag index (query/tag_index.h):
///
///  * `TagList` — a document-ordered node-id list stored as a sequence of
///    immutable sorted runs held by `shared_ptr`. Forking shares every run;
///    splicing or erasing path-copies only the touched run. This is what
///    makes snapshot publication O(touched): the hot write path
///    (`NoteInsertedNode`) copies one run of at most kRunMax ids instead of
///    a whole per-tag vector.
///  * `TagPool` — an immutable interning pool mapping tag names to dense
///    `TagId`s. All snapshot versions share one pool by `shared_ptr`;
///    interning a brand-new tag name (rare) copies the pool, never touching
///    the versions already published.

namespace cdbs::query {

using labeling::NodeId;

/// Dense interned tag handle. Id 0 is always the empty tag (text nodes).
using TagId = uint32_t;

/// An immutable tag-name interning pool. Shared across every snapshot
/// version of a document; mutation (`Intern`) swaps the owner's pointer to
/// a copied pool and leaves published versions untouched.
class TagPool {
 public:
  static constexpr TagId kNoTag = static_cast<TagId>(-1);

  /// A fresh pool containing only the empty tag (id 0).
  static std::shared_ptr<const TagPool> Empty();

  /// Id of `name`, or kNoTag when the pool does not know it.
  TagId Find(const std::string& name) const;

  /// Name of `id`. The reference lives as long as the pool.
  const std::string& name(TagId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

  /// Returns `name`'s id in `*pool`, interning it first if needed. A miss
  /// replaces `*pool` with a copy extended by `name` — O(pool size), paid
  /// only the first time a tag name ever appears in the document.
  static TagId Intern(std::shared_ptr<const TagPool>* pool,
                      const std::string& name);

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, TagId> index_;
};

/// A document-ordered list of node ids as COW sorted runs. Forks share all
/// runs; one insert or erase copies exactly one run (plus an O(#runs)
/// offset rebuild). Reads are allocation-free.
class TagList {
 public:
  /// Runs are sealed at kRunTarget ids during in-order bulk builds and
  /// split once an insertion grows one past kRunMax.
  static constexpr size_t kRunTarget = 256;
  static constexpr size_t kRunMax = 512;

  TagList() = default;

  /// O(#runs) spine copy; every run becomes shared.
  TagList(const TagList& other) : runs_(other.runs_), cum_(other.cum_) {
    util::CowStats::Local().chunks_shared += runs_.size();
  }
  TagList& operator=(const TagList& other) {
    if (this != &other) {
      runs_ = other.runs_;
      cum_ = other.cum_;
      util::CowStats::Local().chunks_shared += runs_.size();
    }
    return *this;
  }
  TagList(TagList&&) noexcept = default;
  TagList& operator=(TagList&&) noexcept = default;

  size_t size() const { return cum_.empty() ? 0 : cum_.back(); }
  bool empty() const { return size() == 0; }
  size_t run_count() const { return runs_.size(); }

  /// Random access by logical index: O(log #runs).
  NodeId operator[](size_t i) const {
    const size_t r = RunOf(i);
    return (*runs_[r])[i - RunStart(r)];
  }

  /// Allocation-free forward iterator with O(1) increment; the sequential
  /// complement to operator[]'s random access.
  class Iterator {
   public:
    Iterator() = default;
    NodeId operator*() const { return (*list_->runs_[run_])[offset_]; }
    Iterator& operator++() {
      if (++offset_ == list_->runs_[run_]->size()) {
        ++run_;
        offset_ = 0;
      }
      return *this;
    }
    /// Steps back one element; O(1). Must not be called on begin().
    Iterator& operator--() {
      if (offset_ == 0) offset_ = list_->runs_[--run_]->size();
      --offset_;
      return *this;
    }
    bool operator==(const Iterator& o) const {
      return run_ == o.run_ && offset_ == o.offset_;
    }
    bool operator!=(const Iterator& o) const { return !(*this == o); }

   private:
    friend class TagList;
    Iterator(const TagList* list, size_t run, size_t offset)
        : list_(list), run_(run), offset_(offset) {}
    const TagList* list_ = nullptr;
    size_t run_ = 0;
    size_t offset_ = 0;
  };

  Iterator begin() const { return Iterator(this, 0, 0); }
  Iterator end() const { return Iterator(this, runs_.size(), 0); }
  /// Iterator positioned at logical index `i` (end() when i == size()).
  Iterator IteratorAt(size_t i) const {
    if (i >= size()) return end();
    const size_t r = RunOf(i);
    return Iterator(this, r, i - RunStart(r));
  }

  /// Index of the first element of [from, to) for which `holds` is false,
  /// given that `holds` is true on a prefix of that range and false on the
  /// rest; `to` when it holds throughout. Gallops inside `from`'s run,
  /// indexing that run directly: one probe when the answer is `from`,
  /// O(log k) for an answer k places on. When the whole run holds, it
  /// gallops over the last in-range element of each later run, then
  /// binary-searches the run it lands in. So a call costs one or two run
  /// lookups, not one per probe. Adds the number of `holds` calls to
  /// `*probes`.
  template <typename Holds>
  size_t PartitionPoint(size_t from, size_t to, Holds holds,
                        uint64_t* probes) const {
    if (from >= to) return from;
    uint64_t count = 0;
    size_t r = RunOf(from);
    size_t start = RunStart(r);
    size_t stop = std::min<size_t>(cum_[r], to);
    const std::vector<NodeId>* run = runs_[r].get();
    size_t at = Gallop(
        from - start, stop - start,
        [run, &holds](size_t i) { return holds((*run)[i]); }, &count);
    if (at == stop - start && stop < to) {
      // All of run r's in-range part holds: find the first later run whose
      // last in-range element fails, then search inside it.
      const size_t last = to == size() ? runs_.size() - 1 : RunOf(to - 1);
      const size_t found = Gallop(
          r + 1, last + 1,
          [this, last, to, &holds](size_t q) {
            return holds(q == last ? (*runs_[q])[to - 1 - RunStart(q)]
                                   : runs_[q]->back());
          },
          &count);
      if (found > last) {
        *probes += count;
        return to;
      }
      r = found;
      start = RunStart(r);
      stop = std::min<size_t>(cum_[r], to);
      run = runs_[r].get();
      // The run's last in-range element fails; everything before the run
      // holds.
      at = Bisect(
          0, stop - start - 1,
          [run, &holds](size_t i) { return holds((*run)[i]); }, &count);
    }
    *probes += count;
    return start + at;
  }

  /// Appends `id` (must come last in the list's order): in-order bulk
  /// build. Touches only the final run.
  void Append(NodeId id);

  /// Splices `id` at its ordered position under `less` (a strict weak
  /// order; here: label document order). Copies exactly the touched run.
  template <typename Less>
  void InsertSorted(NodeId id, Less less) {
    const size_t pos = UpperBound(id, less);
    InsertAt(pos, id);
#ifndef NDEBUG
    // O(1) inductive sortedness pin: the splice landed strictly between its
    // neighbors, so runs that were sorted stay sorted.
    CDBS_CHECK(pos == 0 || less((*this)[pos - 1], id));
    CDBS_CHECK(pos + 1 >= size() || less(id, (*this)[pos + 1]));
#endif
  }

  /// Index of the first element strictly greater than `id` under `less`.
  template <typename Less>
  size_t UpperBound(NodeId id, Less less) const {
    size_t lo = 0;
    size_t hi = size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (less(id, (*this)[mid])) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  /// Removes every id of `ids` present in the list. Positions are located
  /// by `less` binary search (the lists are sorted by label order), so the
  /// labels of `ids` must still be live: erase before the labeling deletes
  /// them. Each touched run is copied once.
  template <typename Less>
  void EraseIds(const std::vector<NodeId>& ids, Less less) {
    std::vector<size_t> positions;
    positions.reserve(ids.size());
    for (const NodeId id : ids) {
      // lower_bound by `less`, then verify the hit: labels are unique, so
      // the element at the boundary either is `id` or `id` is absent here.
      size_t lo = 0;
      size_t hi = size();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (less((*this)[mid], id)) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < size() && (*this)[lo] == id) positions.push_back(lo);
    }
    ErasePositions(&positions);
  }

  /// Appends the ids at logical indexes [from, to) to `*out`, one run slice
  /// at a time. Leaves the growth of `*out` to the vector's own geometric
  /// policy, so repeated appends stay amortized linear.
  void AppendRange(size_t from, size_t to, std::vector<NodeId>* out) const;

  /// Materializes the list (for callers that need a plain vector, e.g. the
  /// structural-join pipeline seed).
  std::vector<NodeId> ToVector() const;

  /// Debug invariant: every run is internally sorted by `less` and run
  /// boundaries are ordered — the property splices rely on.
  template <typename Less>
  bool RunsSorted(Less less) const {
    NodeId prev = 0;
    bool have_prev = false;
    for (const std::shared_ptr<std::vector<NodeId>>& run : runs_) {
      for (const NodeId id : *run) {
        if (have_prev && less(id, prev)) return false;
        prev = id;
        have_prev = true;
      }
    }
    return true;
  }

 private:
  /// First index of [lo, hi) at which `holds(i)` is false (`hi` when none
  /// is), given a true prefix: probes lo, lo+1, lo+3, lo+7, ... clamped to
  /// hi-1, then bisects the last gap. A range that holds throughout costs
  /// O(log) probes, ending with hi-1. Counts probes into `*count`.
  template <typename HoldsAt>
  static size_t Gallop(size_t lo, size_t hi, HoldsAt holds, uint64_t* count) {
    const size_t from = lo;
    uint64_t n = 0;
    for (size_t offset = 0, step = 1; lo < hi; offset += step, step *= 2) {
      const size_t i = std::min(from + offset, hi - 1);
      ++n;
      if (!holds(i)) {
        *count += n;
        return Bisect(lo, i, holds, count);
      }
      lo = i + 1;
    }
    *count += n;
    return lo;
  }

  /// Binary search: first index of [lo, hi) at which `holds(i)` is false,
  /// given a true prefix. Counts probes into `*count`.
  template <typename HoldsAt>
  static size_t Bisect(size_t lo, size_t hi, HoldsAt holds, uint64_t* count) {
    uint64_t n = 0;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      ++n;
      if (holds(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    *count += n;
    return lo;
  }

  /// Index of the run containing logical index `i`.
  size_t RunOf(size_t i) const;
  size_t RunStart(size_t r) const { return r == 0 ? 0 : cum_[r - 1]; }

  void InsertAt(size_t pos, NodeId id);
  /// Erases the given positions (any order, repeats allowed), copying each
  /// touched run once.
  void ErasePositions(std::vector<size_t>* positions);
  /// Clones runs_[r] iff shared; charges CowStats.
  std::vector<NodeId>* MutableRun(size_t r);
  void RebuildCum();

  std::vector<std::shared_ptr<std::vector<NodeId>>> runs_;
  std::vector<uint32_t> cum_;  ///< cum_[r] = ids in runs_[0..r] inclusive
};

}  // namespace cdbs::query

#endif  // CDBS_QUERY_TAG_LIST_H_
