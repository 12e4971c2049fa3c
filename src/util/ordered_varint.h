#ifndef CDBS_UTIL_ORDERED_VARINT_H_
#define CDBS_UTIL_ORDERED_VARINT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

/// \file
/// UTF8-style order-preserving variable-length integer encoding (RFC 2279
/// shape). DeweyID as published stores each label component with UTF-8 so
/// that byte-wise lexicographic comparison of whole labels equals document
/// order; self-delimiting bytes double as the component separator. We use the
/// same scheme for DeweyID(UTF8) and CDBS(UTF8)-Prefix size accounting.
///
/// Encoded forms (v = value, leading byte determines length):
///   v < 2^7  : 0xxxxxxx
///   v < 2^11 : 110xxxxx 10xxxxxx
///   v < 2^16 : 1110xxxx 10xxxxxx 10xxxxxx
///   v < 2^21 : 11110xxx 10xxxxxx (x3)
///   v < 2^26 : 111110xx 10xxxxxx (x4)
///   v < 2^31 : 1111110x 10xxxxxx (x5)
///
/// Within one length class the payload bits compare in order; across classes
/// a longer encoding always starts with a larger lead byte, so byte-wise
/// comparison preserves numeric order.

namespace cdbs::util {

/// Maximum value representable (2^31 - 1, the RFC 2279 six-byte limit).
inline constexpr uint64_t kMaxOrderedVarint = (1ULL << 31) - 1;

/// Number of bytes EncodeOrderedVarint will append for `value`.
/// `value` must be <= kMaxOrderedVarint.
size_t OrderedVarintLength(uint64_t value);

/// Appends the encoding of `value` to `*out`.
/// Returns InvalidArgument if value exceeds kMaxOrderedVarint.
Status EncodeOrderedVarint(uint64_t value, std::string* out);

/// Decodes one varint starting at `data[pos]`; on success stores the value in
/// `*value` and advances `*pos` past it. Returns Corruption on truncated or
/// malformed input.
Status DecodeOrderedVarint(std::string_view data, size_t* pos,
                           uint64_t* value);
inline Status DecodeOrderedVarint(const std::string& data, size_t* pos,
                                  uint64_t* value) {
  return DecodeOrderedVarint(std::string_view(data), pos, value);
}

/// The two codecs above over raw bytes, for hot loops that must not build a
/// Status per value (util/label_codec.h's zero-RLE tokens).
///
/// Writes the encoding of `value` (<= kMaxOrderedVarint) at `dst`, which
/// has room for OrderedVarintLength(value) bytes, and returns its end.
inline char* PutOrderedVarint(char* dst, uint64_t value) {
  if (value < 0x80) {
    *dst = static_cast<char>(value);
    return dst + 1;
  }
  // Lead byte: `len` ones, a zero, then the highest payload bits;
  // continuation bytes carry six bits each, most significant first.
  int len = 2;
  while (value >> (5 * len + 1) != 0) ++len;
  *dst++ = static_cast<char>((0xFF00u >> len) | (value >> (6 * (len - 1))));
  for (int i = len - 2; i >= 0; --i) {
    *dst++ = static_cast<char>(0x80 | ((value >> (6 * i)) & 0x3F));
  }
  return dst;
}

/// Decodes one varint from [p, end) into `*value`; returns its end, or
/// nullptr when the bytes are truncated or malformed.
inline const char* GetOrderedVarint(const char* p, const char* end,
                                    uint64_t* value) {
  if (p == end) return nullptr;
  const uint8_t lead = static_cast<uint8_t>(*p);
  if (lead < 0x80) {
    *value = lead;
    return p + 1;
  }
  const int len = std::countl_one(lead);
  if (len < 2 || len > 6 || end - p < len) return nullptr;
  uint64_t v = lead & (0x7Fu >> len);
  for (int i = 1; i < len; ++i) {
    const uint8_t b = static_cast<uint8_t>(p[i]);
    if ((b & 0xC0) != 0x80) return nullptr;
    v = (v << 6) | (b & 0x3F);
  }
  *value = v;
  return p + len;
}

}  // namespace cdbs::util

#endif  // CDBS_UTIL_ORDERED_VARINT_H_
