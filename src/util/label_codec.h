#ifndef CDBS_UTIL_LABEL_CODEC_H_
#define CDBS_UTIL_LABEL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file
/// Compact encodings for runs of serialized CDBS labels and for raw byte
/// payloads — the codec layer behind the v3 page format, WAL payload
/// compression and compressed network frames (docs/ENCODING.md).
///
/// Two kernels, both built on util/ordered_varint.h lengths:
///
///  * **Front-coded runs** (`EncodeFrontCodedRun` / `DecodeFrontCodedRun`):
///    a run of byte strings where record 0 is stored raw and every later
///    record stores only the length of the prefix it shares with its
///    predecessor plus the differing suffix. CDBS labels in document order
///    compare bytewise (that is the point of the scheme), so a sorted run
///    is a chain of long shared prefixes and the deltas are tiny — the
///    compact-labeling observation of PAPERS.md applied to storage. The
///    encoding is order-preserving in the sense that decoding restores the
///    exact bytes, so every label comparison downstream is unaffected.
///
///  * **Zero-RLE byte compression** (`CompressBytes` / `DecompressBytes`):
///    a self-framed token stream collapsing zero runs, the dominant
///    redundancy of fixed-slot page images (slot padding and the zeroed
///    page tail). Used to shrink WAL records and network frames without
///    changing their header layouts.
///
/// All lengths are ordered varints, so encoded runs of sorted labels stay
/// bytewise comparable prefix-by-prefix.

namespace cdbs::util {

/// Appends the front-coded encoding of `records` to `*out`. The count is
/// NOT stored — callers frame it (page headers store it explicitly).
/// Returns InvalidArgument when a record exceeds the varint length limit.
Status EncodeFrontCodedRun(const std::vector<std::string>& records,
                           std::string* out);

/// Decodes `count` front-coded records starting at `data[*pos]`, appending
/// them to `*out` and advancing `*pos`. Returns Corruption on malformed or
/// truncated input.
Status DecodeFrontCodedRun(std::string_view data, size_t* pos, size_t count,
                           std::vector<std::string>* out);

/// Appends the front-coded form of `record` given its predecessor in the
/// run (`prev`; empty for record 0 — but note record 0 of a run is framed
/// differently by EncodeFrontCodedRun). Exposed for incremental encoders.
Status AppendFrontCodedRecord(std::string_view prev, std::string_view record,
                              std::string* out);

/// Worst-case encoded size of one record of at most `record_size` bytes
/// inside a front-coded run (varint overhead included). Page capacity
/// planning uses this so index→page addressing stays arithmetic.
size_t MaxFrontCodedRecordSize(size_t record_size);

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
