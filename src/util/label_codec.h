#ifndef CDBS_UTIL_LABEL_CODEC_H_
#define CDBS_UTIL_LABEL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

/// \file
/// Zero-RLE byte compression for raw payloads: the codec behind WAL
/// payload compression (docs/ENCODING.md).
///
/// `CompressBytes` / `DecompressBytes` write a self-framed token stream that
/// collapses zero runs, the dominant redundancy of the binary records the
/// log carries (zero high bytes of fixed-width ids, counts and flags). They
/// shrink WAL records without changing the record header layout. Lengths
/// and tokens are util/ordered_varint.h varints.

namespace cdbs::util {

/// Appends the zero-RLE compression of `in` to `*out`. `in` must be at
/// most kMaxOrderedVarint bytes; the encoded form is self-framing (it
/// starts with the original size). Worst case the output is slightly
/// LARGER than `in` — callers keep the raw form when that happens (see
/// MaybeCompressBytes, which also enforces the size precondition).
void CompressBytes(std::string_view in, std::string* out);

/// Decodes one CompressBytes stream starting at `data[*pos]`, appending
/// the original bytes to `*out` and advancing `*pos` past the stream.
/// Refuses (Corruption) malformed input or an original size > `max_out`,
/// which bounds the one allocation it makes; on failure `*out` and `*pos`
/// are left as they were.
Status DecompressBytes(std::string_view data, size_t* pos, size_t max_out,
                       std::string* out);

/// Compresses `in` into `*out` iff the compressed form is strictly smaller
/// and `in` is at least `min_size` bytes; returns whether it did. On false
/// `*out` is left untouched.
bool MaybeCompressBytes(std::string_view in, size_t min_size,
                        std::string* out);

}  // namespace cdbs::util

#endif  // CDBS_UTIL_LABEL_CODEC_H_
