#ifndef CDBS_QUERY_TAG_LIST_H_
#define CDBS_QUERY_TAG_LIST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "labeling/label.h"
#include "util/check.h"
#include "util/cow_vector.h"

/// \file
/// The COW building blocks of the tag index (query/tag_index.h):
///
///  * `TagList` — a document-ordered node-id list stored as a sequence of
///    immutable sorted runs held by `shared_ptr`. Each id carries the
///    32-bit order key of its start, and in the per-tag lists also the key
///    of its end: the entry is the element's whole interval. Forking
///    shares every run; splicing or erasing path-copies only the touched
///    run. This is what makes snapshot publication O(touched): the hot
///    write path
///    (`LabeledDocument::InsertSibling`) copies one run of at most kRunMax
///    entries instead of a whole per-tag vector.
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

/// How a search over a list compares an entry with its bound: the entry
/// holds where its key is below `key` and fails where it is above. Where
/// the key equals `key` (two labels that share their abbreviation, or a
/// scheme whose keys are all 0), `tie(id)` decides from the full label. A
/// key must never order two entries against their labels: key(a) < key(b)
/// only if a precedes b.
template <typename Tie>
struct KeyProbe {
  uint32_t key;
  Tie tie;
};

/// A node id with the keys of its interval's start and end, as a list's
/// entries hold them: what the evaluator's contexts carry, so a search
/// from a context reads no label column unless a key ties.
struct KeyedId {
  /// An end key not at hand (the list stores none): read the labeling's
  /// instead. A real end key of this value is only read again.
  static constexpr uint32_t kNoEndKey = UINT32_MAX;

  NodeId id = 0;
  uint32_t key = 0;              ///< key of the start (Labeling::OrderKey)
  uint32_t end_key = kNoEndKey;  ///< key of the end (Labeling::EndKey)
};

/// A document-ordered list of node ids as COW sorted runs. Forks share all
/// runs; one insert or erase copies exactly one run (plus an O(#runs)
/// spine rebuild). Reads are allocation-free.
///
/// Every list also stores, next to each id in the same run, a 32-bit key:
/// an order-preserving abbreviation of the id's label (LabeledDocument
/// keeps it equal to the labeling's OrderKey). A search then probes the
/// run's contiguous keys and reads a label only on a tie. A list with end
/// keys (`has_end_keys`) stores a third array, the abbreviation of each
/// id's end value (Labeling::EndKey), so an entry is (id, start key, end
/// key): all that a containment step needs from a context.
///
/// A run also keeps a summary, every kSummaryStride-th key, at the
/// head of its key array, where a search that lands in the run reads it
/// first: it then reads one stride of keys instead of probing across the
/// whole run. The summary is computed when a run is sealed (a bulk build
/// moves on to the next run, or `Seal` is called) or copied by a splice,
/// an erase or a rekey; `Append` never touches it, and a run that has grown
/// since its summary was computed is searched without one.
///
/// Two spine arrays, rebuilt whenever runs change, spare a search every
/// pointer chase but the one into the run it lands in:
///
///  * the run directory maps each block of 2^kBlockLog2 logical indexes to
///    the run holding its first index, so finding an index's run is O(1);
///  * the fences hold, for each run, its cumulative count, its last key and
///    pointers to its ids, keys and end keys, so a gallop across runs reads
///    one contiguous array of 32-byte entries.
///
/// The list also keeps bounds on its entries' tree levels and whether any
/// entry ever had an ancestor with the same tag (`nested`), so a query step
/// can decide once, for all its contexts, whether a child step is a
/// descendant span and whether its contexts are an antichain.
class TagList {
 public:
  /// Runs are sealed at kRunTarget ids during in-order bulk builds and
  /// split once an insertion grows one past kRunMax.
  static constexpr size_t kRunTarget = 256;
  static constexpr size_t kRunMax = 512;
  /// log2 of the logical indexes one run-directory entry covers.
  static constexpr size_t kBlockLog2 = 7;
  /// A run's summary holds the keys at offsets 0, kSummaryStride, ...
  static constexpr size_t kSummaryStride = 16;
  /// Entries a search gallops through (probing lo, lo+1, lo+3, lo+7)
  /// before it turns to the run's last key and summary.
  static constexpr size_t kNearProbes = 8;

  /// A list whose entries carry a start key each, and with `end_keys`
  /// also an end key.
  explicit TagList(bool end_keys = false) : end_keys_(end_keys) {}

  /// O(#runs) spine copy; every run becomes shared.
  TagList(const TagList& other)
      : runs_(other.runs_),
        fences_(other.fences_),
        directory_(other.directory_),
        max_level_(other.max_level_),
        min_level_(other.min_level_),
        nested_(other.nested_),
        end_keys_(other.end_keys_) {
    util::CowStats::Local().chunks_shared += runs_.size();
  }
  TagList& operator=(const TagList& other) {
    if (this != &other) {
      runs_ = other.runs_;
      fences_ = other.fences_;
      directory_ = other.directory_;
      max_level_ = other.max_level_;
      min_level_ = other.min_level_;
      nested_ = other.nested_;
      end_keys_ = other.end_keys_;
      util::CowStats::Local().chunks_shared += runs_.size();
    }
    return *this;
  }
  TagList(TagList&&) noexcept = default;
  TagList& operator=(TagList&&) noexcept = default;

  size_t size() const { return fences_.empty() ? 0 : fences_.back().cum; }
  bool empty() const { return size() == 0; }
  size_t run_count() const { return runs_.size(); }
  /// Whether every entry also carries its end key.
  bool has_end_keys() const { return end_keys_; }

  /// An upper bound on the tree level of every id the list has ever held
  /// (0 for a list that never held one). Erasing never lowers it. A node
  /// at level max_level() - 1 or deeper has only children below it in the
  /// list, so a child step from it is its whole descendant span.
  int max_level() const { return max_level_; }
  /// A lower bound on the tree level of every id the list has ever held
  /// (0 for a list that never held one). Erasing never raises it. When
  /// min_level() + 1 >= another list's max_level(), a child step from any
  /// id of this list into that one is a descendant span.
  int min_level() const { return min_level_; }
  /// Widens [min_level(), max_level()] to take `level`; call with the
  /// level of every id added.
  void NoteLevel(int level) {
    min_level_ = max_level_ == 0 ? level : std::min(min_level_, level);
    max_level_ = std::max(max_level_, level);
  }

  /// True once an id of the list has had an ancestor that carries the same
  /// tag (for the list of all elements: any element below another). Never
  /// cleared, not even by an erase. While it is false, no id of the list is
  /// an ancestor of another, so any subset of it is an antichain.
  bool nested() const { return nested_; }
  void MarkNested() { nested_ = true; }

  /// Random access by logical index: O(1).
  NodeId operator[](size_t i) const {
    const size_t r = RunOf(i);
    return fences_[r].ids[i - RunStart(r)];
  }

  /// The key stored with the id at logical index `i`.
  uint32_t key(size_t i) const {
    const size_t r = RunOf(i);
    return fences_[r].keys[i - RunStart(r)];
  }

  /// The end key stored with the id at logical index `i` (lists with end
  /// keys only).
  uint32_t end_key(size_t i) const {
    CDBS_DCHECK(end_keys_);
    const size_t r = RunOf(i);
    return fences_[r].ends[i - RunStart(r)];
  }

  /// Allocation-free forward iterator with O(1) increment; the sequential
  /// complement to operator[]'s random access.
  class Iterator {
   public:
    Iterator() = default;
    NodeId operator*() const { return list_->fences_[run_].ids[offset_]; }
    /// The key stored with the entry.
    uint32_t key() const { return list_->fences_[run_].keys[offset_]; }
    Iterator& operator++() {
      if (++offset_ == list_->RunSize(run_)) {
        ++run_;
        offset_ = 0;
      }
      return *this;
    }
    /// Steps back one element; O(1). Must not be called on begin().
    Iterator& operator--() {
      if (offset_ == 0) offset_ = list_->RunSize(--run_);
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

  /// Index of the first element of [from, to) at which `probe` fails, given
  /// that it holds on a prefix of that range and fails on the rest; `to`
  /// when it holds throughout. Keys decide every entry whose key differs
  /// from the probe's (KeyRange); the probe's tie is asked only over the
  /// entries whose key equals it, galloping from the first of them. So
  /// where keys are distinct a search asks the tie at most at the bound's
  /// own entry, and where they are all 0 it gallops by ties alone. Adds
  /// the number of keys read and ties asked to `*probes`.
  template <typename Tie>
  size_t PartitionPoint(size_t from, size_t to, const KeyProbe<Tie>& probe,
                        uint64_t* probes) const {
    const auto [lo, hi] = KeyRange(from, to, probe.key, probes);
    return Gallop(
        lo, hi, [this, &probe](size_t i) { return probe.tie((*this)[i]); },
        probes);
  }

  /// Appends `id` with its `key` and `end_key` (ignored on a list without
  /// end keys); `id` must come last in the list's order:
  /// in-order bulk build. Touches only the final run. Opening a new run
  /// seals the full one before it.
  void Append(NodeId id, uint32_t key = 0, uint32_t end_key = 0);

  /// Seals the final run: computes its key summary and drops the room a
  /// bulk build reserved in it. Call when a bulk build ends; the runs
  /// before it were sealed as the build moved on.
  void Seal();

  /// Splices `id` (with its `key`, and its `end_key` where the list stores
  /// end keys) at its ordered position under `less` (a strict weak order;
  /// here: label document order). Copies exactly the touched run. Returns
  /// the position.
  template <typename Less>
  size_t InsertSorted(NodeId id, Less less, uint32_t key = 0,
                      uint32_t end_key = 0) {
    const size_t pos = UpperBound(id, less);
    InsertAt(pos, id, key, end_key);
#ifndef NDEBUG
    // O(1) inductive sortedness pin: the splice landed strictly between its
    // neighbors, so runs that were sorted stay sorted.
    CDBS_CHECK(pos == 0 || less((*this)[pos - 1], id));
    CDBS_CHECK(pos + 1 >= size() || less(id, (*this)[pos + 1]));
#endif
    return pos;
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

  /// Removes every id of `ids` present in the list, with its key. Positions
  /// are located by `less` binary search (the lists are sorted by label
  /// order), so the labels of `ids` must still be live: erase before the
  /// labeling deletes them. Each touched run is copied once. Returns the
  /// smallest erased position (size() after the erase when none was).
  template <typename Less>
  size_t EraseIds(const std::vector<NodeId>& ids, Less less) {
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
    return ErasePositions(&positions);
  }

  /// Sets every key to key_of(id), and every end key (on a list with them)
  /// to end_of(id), as after a relabel that moved labels. Copies only the
  /// runs whose keys change, and summarizes them again.
  template <typename KeyOf, typename EndOf>
  void Rekey(KeyOf key_of, EndOf end_of) {
    const auto matches = [this, &key_of, &end_of](const Run& run, size_t i) {
      return run.key(i) == key_of(run.ids[i]) &&
             (!end_keys_ || run.ends[i] == end_of(run.ids[i]));
    };
    for (size_t r = 0; r < runs_.size(); ++r) {
      const Run& run = *runs_[r];
      size_t i = 0;
      while (i < run.ids.size() && matches(run, i)) ++i;
      if (i == run.ids.size()) continue;
      Run* copy = MutableRun(r);
      for (; i < copy->ids.size(); ++i) {
        copy->key(i) = key_of(copy->ids[i]);
        if (end_keys_) copy->ends[i] = end_of(copy->ids[i]);
      }
      Summarize(copy);
      RefreshFence(r);
    }
  }

  /// Appends the ids at logical indexes [from, to) to `*out`, one run slice
  /// at a time. Leaves the growth of `*out` to the vector's own geometric
  /// policy, so repeated appends stay amortized linear.
  void AppendRange(size_t from, size_t to, std::vector<NodeId>* out) const;

  /// The same with keys, copying each id with its key and end key straight
  /// from the runs (kNoEndKey on a list without end keys).
  void AppendRange(size_t from, size_t to, std::vector<KeyedId>* out) const;

  /// Materializes the list (for callers that need a plain vector, e.g. the
  /// structural-join pipeline seed).
  std::vector<NodeId> ToVector() const;

  /// Debug invariant: every run is internally sorted by `less` and run
  /// boundaries are ordered — the property splices rely on.
  template <typename Less>
  bool RunsSorted(Less less) const {
    NodeId prev = 0;
    bool have_prev = false;
    for (const std::shared_ptr<Run>& run : runs_) {
      for (const NodeId id : run->ids) {
        if (have_prev && less(id, prev)) return false;
        prev = id;
        have_prev = true;
      }
    }
    return true;
  }

  /// Debug invariant: no run is empty, every run carries one key (and, with
  /// end keys, one end key) per id, every summary that covers
  /// its run holds the run's keys at its stride, and the fences and the run
  /// directory agree with the runs.
  bool SpineConsistent() const;

  /// Number of runs whose key summary covers them (searches use it).
  size_t summarized_runs() const;

  /// Debug invariant: every key of each run that holds an index of
  /// [from, to) equals key_of of its id, and every end key (on a list with
  /// them) end_of of its id. Indexes past size() are ignored.
  template <typename KeyOf, typename EndOf>
  bool KeysMatch(KeyOf key_of, EndOf end_of, size_t from, size_t to) const {
    to = std::min(to, size());
    for (size_t r = from < to ? RunOf(from) : runs_.size();
         r < runs_.size() && RunStart(r) < to; ++r) {
      const Run& run = *runs_[r];
      for (size_t i = 0; i < run.ids.size(); ++i) {
        if (run.key(i) != key_of(run.ids[i])) return false;
        if (end_keys_ && run.ends[i] != end_of(run.ids[i])) return false;
      }
    }
    return true;
  }

 private:
  /// Summary slots a run can need: runs hold at most kRunMax ids at rest.
  static constexpr size_t kSummarySlots = kRunMax / kSummaryStride;
  /// Words ahead of a run's first key: the number of ids its summary
  /// was computed over, then the summary's slots.
  static constexpr size_t kKeyHead = 1 + kSummarySlots;

  struct Run {
    std::vector<NodeId> ids;
    /// The head (kKeyHead words), then one key per id.
    std::vector<uint32_t> keys;
    std::vector<uint32_t> ends;  ///< one per id with end keys, else empty

    uint32_t& key(size_t i) { return keys[kKeyHead + i]; }
    uint32_t key(size_t i) const { return keys[kKeyHead + i]; }
  };

  /// Run r as a search reads it, without dereferencing its shared_ptr.
  struct Fence {
    uint32_t last_key = 0;  ///< the run's last key
    uint32_t cum = 0;       ///< ids in runs [0, r]
    const uint32_t* keys = nullptr;  ///< the first key, past the head
    const NodeId* ids = nullptr;
    const uint32_t* ends = nullptr;  ///< lists with end keys
  };

  static size_t SummarySlots(size_t n) {
    return (n + kSummaryStride - 1) / kSummaryStride;
  }

  /// The entries of [from, to) whose key equals `key`, as [lo, hi): every
  /// entry before lo keys below it, and every entry from hi on above it.
  std::pair<size_t, size_t> KeyRange(size_t from, size_t to, uint32_t key,
                                     uint64_t* probes) const;

  /// Index of the first entry of [from, to) whose key is not below `key`,
  /// whose key it sets `*found` to (when there is one). Searches `from`'s
  /// run first: one probe when the answer is `from`, O(log k) for an
  /// answer k places on. It reads only `from`'s keys before the run's last
  /// key (in its fence) says whether the answer lies in a later run;
  /// otherwise the summary narrows the rest of the run to one stride (see
  /// SearchRun). When the whole run is below, it gallops
  /// over the fences' last keys of later runs, then bisects the run it
  /// lands in. So a call reads the fences and one or two runs.
  size_t KeysBelow(size_t from, size_t to, uint32_t key, uint32_t* found,
                   uint64_t* probes) const;

  /// First index of [lo, hi) of the run behind `fence`, which holds `n`
  /// ids, whose key is not below `key`, given that [lo, hi) has one. Over
  /// a range wider than two strides it bisects the run's summary first,
  /// when that was computed over all n ids, and then only the stride of
  /// keys the answer lies in.
  static size_t BisectRun(const Fence& fence, size_t n, size_t lo, size_t hi,
                          uint32_t key, uint64_t* count);

  /// The same search of [lo, hi), which may have no such key (then hi).
  /// It first gallops through the kNearProbes entries from lo, where a
  /// search from a cursor usually ends, within a cache line or two. Past
  /// them, the range's last key (read from the fence when it ends the run,
  /// hi == n) says whether the answer lies beyond; if not, a gallop over
  /// the summary's slots from lo on finds the stride it lies in, and a
  /// bisection of that stride ends the search. So an answer k places on
  /// reads lo's keys, the summary and one stride, not the keys between. A
  /// run whose summary does not cover it is galloped through instead.
  static size_t SearchRun(const Fence& fence, size_t n, size_t lo, size_t hi,
                          uint32_t key, uint64_t* count);

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

  /// Index of the run containing logical index `i` (< size()): the
  /// directory names the run holding i's block start, and i lies in it or a
  /// few runs on.
  size_t RunOf(size_t i) const {
    size_t r = directory_[i >> kBlockLog2];
    while (fences_[r].cum <= i) ++r;
    return r;
  }
  size_t RunStart(size_t r) const { return r == 0 ? 0 : fences_[r - 1].cum; }
  size_t RunSize(size_t r) const { return fences_[r].cum - RunStart(r); }

  void InsertAt(size_t pos, NodeId id, uint32_t key, uint32_t end_key);
  /// Erases the given positions (any order, repeats allowed), copying each
  /// touched run once; returns the smallest one (size() when none).
  size_t ErasePositions(std::vector<size_t>* positions);
  /// Clones runs_[r] iff shared; charges CowStats. Refresh its fence after
  /// changing it.
  Run* MutableRun(size_t r);
  /// Recomputes `run`'s key summary.
  void Summarize(Run* run) const;
  /// Points fence r at run r's arrays and last key; its count stays.
  void RefreshFence(size_t r);
  /// Rebuilds every fence and the run directory from the runs.
  void RebuildSpine();

  std::vector<std::shared_ptr<Run>> runs_;
  std::vector<Fence> fences_;          ///< one per run
  std::vector<uint32_t> directory_;    ///< run of index b << kBlockLog2
  int max_level_ = 0;
  int min_level_ = 0;
  bool nested_ = false;
  bool end_keys_ = false;
};

}  // namespace cdbs::query

#endif  // CDBS_QUERY_TAG_LIST_H_
