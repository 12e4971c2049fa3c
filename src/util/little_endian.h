#ifndef CDBS_UTIL_LITTLE_ENDIAN_H_
#define CDBS_UTIL_LITTLE_ENDIAN_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

/// \file
/// The one fixed-width integer codec behind every byte format here: wire
/// frames, replication batches, bootstrap images and checkpoints, WAL
/// records, the shard MANIFEST and the Figure 7 LabelStore's fixed-slot
/// pages (docs/ENCODING.md).
/// The formats are little-endian, and so is the host (asserted below), so a
/// value or an array of values moves with one memcpy of host words.

namespace cdbs::util {

static_assert(std::endian::native == std::endian::little,
              "the byte formats are read and written as host words; a "
              "big-endian port needs byte swaps here");

template <typename T>
T LoadLE(const char* src) {
  T v = 0;
  std::memcpy(&v, src, sizeof(T));
  return v;
}
inline uint32_t LoadU32(const char* src) { return LoadLE<uint32_t>(src); }
inline uint64_t LoadU64(const char* src) { return LoadLE<uint64_t>(src); }

template <typename T>
void StoreLE(char* dst, T v) {
  std::memcpy(dst, &v, sizeof(T));
}
inline void StoreU32(char* dst, uint32_t v) { StoreLE(dst, v); }
inline void StoreU64(char* dst, uint64_t v) { StoreLE(dst, v); }

/// Appends `n` values as one block of 8n bytes.
inline void AppendU64s(std::string* out, const uint64_t* v, size_t n) {
  out->append(reinterpret_cast<const char*>(v), n * sizeof(uint64_t));
}
inline void AppendU64(std::string* out, uint64_t v) { AppendU64s(out, &v, 1); }
inline void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Reads `n` values of T at `data[*pos]` (`*pos <= data.size()`) into
/// `v[0..n)` and advances `*pos`, behind one bounds check; false, with
/// nothing read, when too few bytes remain.
template <typename T>
bool ReadLE(std::string_view data, size_t* pos, T* v, size_t n = 1) {
  if ((data.size() - *pos) / sizeof(T) < n) return false;
  if (n > 0) std::memcpy(v, data.data() + *pos, n * sizeof(T));
  *pos += n * sizeof(T);
  return true;
}

}  // namespace cdbs::util

#endif  // CDBS_UTIL_LITTLE_ENDIAN_H_
