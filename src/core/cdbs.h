#ifndef CDBS_CORE_CDBS_H_
#define CDBS_CORE_CDBS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/bit_string.h"

/// \file
/// The paper's primary contribution: the Compact Dynamic Binary String
/// (CDBS) encoding.
///
///  * `AssignMiddleBinaryString` is Algorithm 1 — given two lexicographically
///    ordered codes it produces a code strictly between them, touching only
///    the last bit(s) of a neighbour; existing codes are never re-encoded
///    (Theorem 3.1).
///  * `AssignTwoMiddleBinaryStrings` realises Corollary 3.3 (containment
///    schemes insert a "start" and an "end" at one gap).
///  * `EncodeRangeWords` is Algorithm 2 — the initial V-CDBS encoding of
///    1..N, exactly as compact as plain binary (Theorem 4.4), one word per
///    code. `EncodeRange` is the same codes decoded to `BitString`s.
///  * `EncodeRangeFixed` is the F-CDBS variant (trailing zero padding).
///  * `RankOfCode` is the inverse computation sketched in Section 5.1.
///  * `VCdbsTotalBits` etc. are the closed-form size formulas of Section 4.2.

namespace cdbs::core {

/// Algorithm 1. Returns a code M with `left` ≺ M ≺ `right`.
///
/// Preconditions (checked): each argument is either empty or ends with "1";
/// if both are non-empty then `left` ≺ `right`. An empty `left` means "no
/// left neighbour" (insert before the first code); an empty `right` means
/// "no right neighbour" (insert after the last code).
///
/// Case (1), size(left) >= size(right): M = left ⊕ "1".
/// Case (2), size(left) <  size(right): M = right with its final "1"
/// replaced by "01". Either way only the tail of one neighbour is touched —
/// the paper's "modify the last 1 bit" update cost.
BitString AssignMiddleBinaryString(const BitString& left,
                                   const BitString& right);

/// Corollary 3.3: two codes M1 ≺ M2 strictly between `left` and `right`.
/// Used when a containment label must place both a start and an end value
/// into a single gap.
std::pair<BitString, BitString> AssignTwoMiddleBinaryStrings(
    const BitString& left, const BitString& right);

/// A CDBS code of at most 63 bits as one word: its bits MSB-aligned,
/// zero-padded below. Every CDBS code ends in "1", so the length is implicit
/// (64 - ctz; the empty code is word 0), distinct codes never pad to the
/// same word, and word order is Definition 3.1 order.
inline size_t WordCodeBits(uint64_t word) {
  return word == 0 ? 0 : 64 - static_cast<size_t>(__builtin_ctzll(word));
}

/// The word of `code`, which must be empty or at most 63 bits ending in "1"
/// (checked).
uint64_t CodeToWord(const BitString& code);

/// The code `word` holds (the inverse of CodeToWord).
BitString WordToCode(uint64_t word);

/// Algorithm 2: the V-CDBS codes for numbers 1..n as words (CodeToWord),
/// index 0 holding the code of number 1. The codes are lexicographically
/// increasing, every code ends with "1", and the multiset of code lengths
/// equals that of V-Binary (one 1-bit code, two 2-bit codes, four 3-bit
/// codes, ...). Each midpoint is Algorithm 1 applied to two words:
///   size(left) >= size(right): M = left | 1 << (63 - size(left));
///   otherwise:                 M = right with bit 64 - size(right) cleared,
///                                  | 1 << (63 - size(right)).
/// The midpoints are bulk work, so they do not count as
/// `core.cdbs.insert_between`; each call counts one `core.cdbs.encode_range`.
std::vector<uint64_t> EncodeRangeWords(uint64_t n);

/// EncodeRangeWords(n) decoded to BitStrings, for the prefix schemes and the
/// tables.
std::vector<BitString> EncodeRange(uint64_t n);

/// Width in bits of the fixed-length encodings (F-Binary / F-CDBS) for a
/// universe of `n` codes: ceil(log2(n + 1)).
int FixedWidthForCount(uint64_t n);

/// F-CDBS codes for numbers 1..n: the V-CDBS codes padded with trailing
/// zeros to FixedWidthForCount(n) bits. Lexicographic order (now equivalent
/// to plain fixed-width binary comparison) is preserved.
std::vector<BitString> EncodeRangeFixed(uint64_t n);

/// Inverse of Algorithm 2 (Section 5.1): the 1-based rank of `code` within
/// EncodeRange(n). Requires that `code` is one of those codes; walks the
/// implicit subdivision tree in O(log n) word comparisons.
uint64_t RankOfCode(const BitString& code, uint64_t n);

/// Closed-form totals from Section 4.2 (logs base 2, ceilings omitted, as in
/// the paper). All in bits, for a universe of `n` codes.
/// Formula (2): total code bits of V-Binary == V-CDBS.
double VCodeTotalBitsFormula(double n);
/// Formula (3): formula (2) plus the per-code length fields.
double VTotalBitsFormula(double n);
/// Formula (5): F-Binary == F-CDBS total, code bits plus one stored width.
double FTotalBitsFormula(double n);

/// Exact discrete counterparts (with real ceilings), for validating the
/// formulas in tests/benchmarks.
uint64_t VCodeTotalBitsExact(uint64_t n);
uint64_t FTotalBitsExact(uint64_t n);

}  // namespace cdbs::core

#endif  // CDBS_CORE_CDBS_H_
