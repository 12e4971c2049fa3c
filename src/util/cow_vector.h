#ifndef CDBS_UTIL_COW_VECTOR_H_
#define CDBS_UTIL_COW_VECTOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.h"

/// \file
/// Chunked copy-on-write vector: the persistent-structure primitive behind
/// O(touched) snapshot publication (docs/CONCURRENCY.md).
///
/// Elements live in fixed-size immutable chunks held by `shared_ptr`.
/// Copying a `CowVector` copies only the spine (one pointer per chunk), so
/// a fork of N elements costs O(N / kChunkSize) pointers and zero element
/// copies. Mutation goes through `Mutable`/`Set`/`PushBack`, which clone
/// the one touched chunk iff it is shared (path copy); every other chunk
/// stays shared with all forks.
///
/// Thread contract: a CowVector value must be mutated by one thread at a
/// time (in this codebase: the writer thread, or a single-threaded owner).
/// Forks may be *read* from any thread. The in-place fast path (mutating a
/// chunk whose use_count() == 1) additionally requires that the release of
/// any other reference happens-before the mutation. The serving layer
/// guarantees this structurally: snapshot versions are destroyed on the
/// writer thread itself, inside SnapshotManager::Publish's reclamation
/// scan, which is ordered after the readers' seq_cst pin releases.
///
/// Copy accounting: chunk clones and spine shares are tallied into
/// thread-local `CowStats`, which the serving layer samples around each
/// publish to export `engine.concurrent.snapshot.bytes_copied` /
/// `.chunks_shared` — the counters that prove a publish is O(touched).

namespace cdbs::util {

/// Thread-local tallies of copy-on-write activity. Byte counts are
/// `sizeof(T)`-based (heap payloads of elements are not traversed), which
/// is exact for PODs and a stable proxy for everything else — good enough
/// to demonstrate O(touched) vs O(N) scaling.
struct CowStats {
  uint64_t chunk_copies = 0;   ///< chunks cloned by path-copies
  uint64_t bytes_copied = 0;   ///< sizeof-based bytes behind those clones
  uint64_t chunks_shared = 0;  ///< chunks shared (not copied) by forks

  /// The calling thread's tally. Mutations and forks performed by this
  /// thread are charged here and nowhere else.
  static CowStats& Local() {
    thread_local CowStats stats;
    return stats;
  }
};

/// A chunked COW vector. See the file comment for the contract.
template <typename T, size_t kChunkSizeLog2 = 8>
class CowVector {
 public:
  static constexpr size_t kChunkSize = size_t{1} << kChunkSizeLog2;

  CowVector() = default;

  /// O(chunks) spine copy; every chunk becomes shared.
  CowVector(const CowVector& other)
      : spine_(other.spine_), size_(other.size_) {
    CowStats::Local().chunks_shared += spine_.size();
  }

  CowVector& operator=(const CowVector& other) {
    if (this != &other) {
      spine_ = other.spine_;
      size_ = other.size_;
      CowStats::Local().chunks_shared += spine_.size();
    }
    return *this;
  }

  CowVector(CowVector&&) noexcept = default;
  CowVector& operator=(CowVector&&) noexcept = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t chunk_count() const { return spine_.size(); }

  /// Read access. The reference is stable until this *instance* mutates the
  /// containing chunk (forks never invalidate it).
  const T& operator[](size_t i) const {
    return spine_[i >> kChunkSizeLog2]->items[i & kMask];
  }

  /// Mutable access; clones the containing chunk iff it is shared. The
  /// returned reference is invalidated by the next mutation.
  T& Mutable(size_t i) {
    CDBS_CHECK(i < size_);
    const size_t c = i >> kChunkSizeLog2;
    EnsureUnique(c);
    return spine_[c]->items[i & kMask];
  }

  void Set(size_t i, T v) { Mutable(i) = std::move(v); }

  void PushBack(T v) {
    const size_t offset = size_ & kMask;
    if (offset == 0) {
      spine_.push_back(std::make_shared<Chunk>());
    } else {
      EnsureUnique(spine_.size() - 1);
    }
    spine_.back()->items[offset] = std::move(v);
    ++size_;
  }

  /// Resizes to `n` elements; new ones are default-constructed. Shrinking
  /// drops whole chunks past the end and leaves the tail of the last chunk
  /// as it is, to be overwritten by the next PushBack. Per-node state never
  /// shrinks (ids are never reused); Prime's per-group SC values do.
  void Resize(size_t n) {
    while (size_ < n) PushBack(T{});
    if (n < size_) {
      spine_.resize((n + kMask) >> kChunkSizeLog2);
      size_ = n;
    }
  }

  void Clear() {
    spine_.clear();
    size_ = 0;
  }

 private:
  static constexpr size_t kMask = kChunkSize - 1;

  struct Chunk {
    std::array<T, kChunkSize> items{};
  };

  void EnsureUnique(size_t c) {
    std::shared_ptr<Chunk>& chunk = spine_[c];
    // use_count()==1 means this instance holds the only reference: forks
    // are created on this thread, and the serving layer destroys them with
    // a happens-before edge to the writer (see file comment), so in-place
    // mutation is safe and TSan-clean.
    if (chunk.use_count() != 1) {
      chunk = std::make_shared<Chunk>(*chunk);
      CowStats& stats = CowStats::Local();
      ++stats.chunk_copies;
      stats.bytes_copied += kChunkSize * sizeof(T);
    }
  }

  std::vector<std::shared_ptr<Chunk>> spine_;
  size_t size_ = 0;
};

}  // namespace cdbs::util

#endif  // CDBS_UTIL_COW_VECTOR_H_
