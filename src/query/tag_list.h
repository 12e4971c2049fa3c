#ifndef CDBS_QUERY_TAG_LIST_H_
#define CDBS_QUERY_TAG_LIST_H_

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
  /// by `less` binary search (the lists are sorted by label order), with a
  /// linear fallback for ids whose labels no longer compare faithfully
  /// after deletion (scheme-dependent); each touched run is copied once.
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
      if (lo < size() && (*this)[lo] == id) {
        positions.push_back(lo);
        continue;
      }
      // Fallback: a removed id whose label ordering went stale (e.g. a
      // scheme that rewrites state on delete). Correctness over speed.
      for (size_t i = 0; i < size(); ++i) {
        if ((*this)[i] == id) {
          positions.push_back(i);
          break;
        }
      }
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
  /// Index of the run containing logical index `i`.
  size_t RunOf(size_t i) const;
  size_t RunStart(size_t r) const { return r == 0 ? 0 : cum_[r - 1]; }

  void InsertAt(size_t pos, NodeId id);
  /// Erases the (ascending, deduplicated-by-construction) positions,
  /// copying each touched run once.
  void ErasePositions(std::vector<size_t>* positions);
  /// Clones runs_[r] iff shared; charges CowStats.
  std::vector<NodeId>* MutableRun(size_t r);
  void RebuildCum();

  std::vector<std::shared_ptr<std::vector<NodeId>>> runs_;
  std::vector<uint32_t> cum_;  ///< cum_[r] = ids in runs_[0..r] inclusive
};

}  // namespace cdbs::query

#endif  // CDBS_QUERY_TAG_LIST_H_
