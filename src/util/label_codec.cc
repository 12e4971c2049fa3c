#include "util/label_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/little_endian.h"
#include "util/ordered_varint.h"

namespace cdbs::util {

namespace {

/// Longest run one zero/literal token may describe. Keeps every token value
/// comfortably inside the ordered-varint range and bounds the memory a
/// single corrupt token can demand.
constexpr size_t kMaxRun = size_t{1} << 24;

/// End of the zero run at `in[i]`: the first non-zero byte before `limit`.
size_t ZeroRunEnd(const char* in, size_t i, size_t limit) {
  for (; i + 8 <= limit; i += 8) {
    const uint64_t w = LoadU64(in + i);
    if (w != 0) return i + std::countr_zero(w) / 8;
  }
  while (i < limit && in[i] == '\0') ++i;
  return i;
}

/// End of the literal run at `in[i]`: the first zero before `limit` that is
/// followed by another zero or ends the `n`-byte input.
size_t LiteralRunEnd(const char* in, size_t i, size_t limit, size_t n) {
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  // Each load tests the pairs that start in its first 7 bytes. `zero` has
  // the high bit of each zero byte set (the add cannot carry out of one).
  for (; i + 8 <= n && i + 7 <= limit; i += 7) {
    const uint64_t w = LoadU64(in + i);
    const uint64_t zero = ~(((w & kLow7) + kLow7) | w) & ~kLow7;
    const uint64_t pair = zero & (zero >> 8);
    if (pair != 0) return i + std::countr_zero(pair) / 8;
  }
  while (i < limit && (in[i] != '\0' || (i + 1 < n && in[i + 1] != '\0'))) {
    ++i;
  }
  return i;
}

}  // namespace

void CompressBytes(std::string_view in, std::string* out) {
  // Stream: [varint original_size] then tokens until original_size bytes
  // are accounted for. Token `t`: odd ⇒ a zero run of t>>1 bytes; even ⇒ a
  // literal run of t>>1 bytes, which follow verbatim. A literal run ends at
  // the next zero PAIR: a lone zero inside otherwise-literal bytes costs
  // more as its own token than inline. The output is sized once: a literal
  // run of L bytes costs at most 1 + L/16 token bytes and the zero run
  // (>= 2 bytes) ending it at least one byte less than it covers.
  CDBS_CHECK(in.size() <= kMaxOrderedVarint);
  const size_t n = in.size();
  const size_t base = out->size();
  out->resize(base + n + n / 8 + 16);
  char* w = PutOrderedVarint(out->data() + base, n);
  for (size_t i = 0; i < n;) {
    const size_t limit = std::min(n, i + kMaxRun);
    const bool literal = in[i] != '\0';
    const size_t end = literal ? LiteralRunEnd(in.data(), i, limit, n)
                               : ZeroRunEnd(in.data(), i, limit);
    w = PutOrderedVarint(w, ((end - i) << 1) | (literal ? 0 : 1));
    if (literal) {
      // A short run copies a whole word; the spare bytes land in the
      // slack and are overwritten or cut off.
      end - i <= 8 && i + 8 <= n ? std::memcpy(w, in.data() + i, 8)
                                 : std::memcpy(w, in.data() + i, end - i);
      w += end - i;
    }
    i = end;
  }
  out->resize(static_cast<size_t>(w - out->data()));
}

Status DecompressBytes(std::string_view data, size_t* pos, size_t max_out,
                       std::string* out) {
  const char* const end = data.data() + data.size();
  const char* p = *pos <= data.size() ? data.data() + *pos : nullptr;
  uint64_t original = 0;
  if (p != nullptr) p = GetOrderedVarint(p, end, &original);
  if (p == nullptr || original > max_out) {
    return Status::Corruption("compressed stream: bad or too large size");
  }
  const size_t base = out->size();
  out->resize(base + original);
  char* w = out->data() + base;
  const char* const w_end = w + original;
  while (w < w_end) {
    uint64_t token = 0;
    p = GetOrderedVarint(p, end, &token);
    const uint64_t run = token >> 1;
    const bool literal = (token & 1) == 0;
    if (p == nullptr || run == 0 || run > static_cast<uint64_t>(w_end - w) ||
        (literal && run > static_cast<uint64_t>(end - p))) {
      out->resize(base);
      return Status::Corruption("compressed stream: bad or truncated run");
    }
    // Every run writes its bytes; a short one writes a whole word, whose
    // spare bytes the next run overwrites.
    const bool word = run <= 8 && w_end - w >= 8;
    if (literal) {
      word && end - p >= 8 ? std::memcpy(w, p, 8) : std::memcpy(w, p, run);
      p += run;
    } else {
      word ? std::memset(w, 0, 8) : std::memset(w, 0, run);
    }
    w += run;
  }
  *pos = static_cast<size_t>(p - data.data());
  return Status::OK();
}

bool MaybeCompressBytes(std::string_view in, size_t min_size,
                        std::string* out) {
  if (in.size() < min_size || in.size() > kMaxOrderedVarint) return false;
  std::string compressed;
  CompressBytes(in, &compressed);
  if (compressed.size() >= in.size()) return false;
  *out = std::move(compressed);
  return true;
}

}  // namespace cdbs::util
