#include "core/cdbs.h"

#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

namespace cdbs::core {

namespace {

// Default-registry counters for the paper's two headline operations.
// Function-local statics: registration happens once, increments are one
// relaxed atomic add.
obs::Counter& InsertBetweenCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "core.cdbs.insert_between",
      "Algorithm 1 calls (a code assigned between two neighbours); "
      "Algorithm 2's bulk midpoints are not counted");
  return *c;
}

obs::Counter& EncodeRangeCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "core.cdbs.encode_range", "Algorithm 2 bulk encodes");
  return *c;
}

// Midpoint with round-half-up, matching the paper's round((PL+PR)/2)
// (e.g. round(9.5) == 10 in the Table 1 walkthrough).
uint64_t RoundMid(uint64_t lo, uint64_t hi) { return (lo + hi + 1) / 2; }

// Algorithm 1 on words (word 0 is the empty code). Both codes are at most
// 62 bits, so the result fits in 63.
uint64_t MiddleWord(uint64_t left, uint64_t right) {
  const size_t left_bits = WordCodeBits(left);
  const size_t right_bits = WordCodeBits(right);
  if (left_bits >= right_bits) {
    // Case (1): left ⊕ "1".
    return left | uint64_t{1} << (63 - left_bits);
  }
  // Case (2): right with its last "1" changed to "01".
  return (right & ~(uint64_t{1} << (64 - right_bits))) |
         uint64_t{1} << (63 - right_bits);
}

}  // namespace

BitString AssignMiddleBinaryString(const BitString& left,
                                   const BitString& right) {
  InsertBetweenCounter().Increment();
  CDBS_CHECK(left.empty() || left.EndsWithOne());
  CDBS_CHECK(right.empty() || right.EndsWithOne());
  if (!left.empty() && !right.empty()) {
    CDBS_CHECK(left.Compare(right) < 0);
  }
  if (left.size() >= right.size()) {
    // Case (1): extend the left neighbour by one "1" bit.
    BitString mid = left;
    mid.AppendBit(true);
    return mid;
  }
  // Case (2): the right neighbour with its last "1" changed to "01".
  BitString mid = right;
  mid.SetBit(mid.size() - 1, false);
  mid.AppendBit(true);
  return mid;
}

std::pair<BitString, BitString> AssignTwoMiddleBinaryStrings(
    const BitString& left, const BitString& right) {
  BitString first = AssignMiddleBinaryString(left, right);
  BitString second = AssignMiddleBinaryString(first, right);
  return {std::move(first), std::move(second)};
}

uint64_t CodeToWord(const BitString& code) {
  CDBS_CHECK(code.size() < 64 && (code.empty() || code.EndsWithOne()));
  return code.empty() ? 0 : code.ToUint() << (64 - code.size());
}

BitString WordToCode(uint64_t word) {
  const size_t bits = WordCodeBits(word);
  return bits == 0 ? BitString()
                   : BitString::FromUint(word >> (64 - bits),
                                         static_cast<int>(bits));
}

std::vector<uint64_t> EncodeRangeWords(uint64_t n) {
  EncodeRangeCounter().Increment();
  // Number n takes floor(log2 n) + 1 bits, which must stay under 64.
  CDBS_CHECK(n < (uint64_t{1} << 62));
  // words[i - 1] is the code of number i.
  std::vector<uint64_t> words(n);
  // SubEncoding with an explicit stack: each entry is an open range of
  // numbers with the codes of its two ends (the virtual numbers 0 and n + 1
  // have the empty code, word 0). A range is split at its midpoint, its
  // left part is split next in place, and its right part is pushed. A
  // midpoint needs only its ends' codes, so the order does not change the
  // result. Depth is O(log n).
  struct Range {
    uint64_t left;
    uint64_t right;
    uint64_t left_word;
    uint64_t right_word;
  };
  std::vector<Range> stack = {{0, n + 1, 0, 0}};
  while (!stack.empty()) {
    Range range = stack.back();
    stack.pop_back();
    while (range.left + 1 < range.right) {
      const uint64_t mid = RoundMid(range.left, range.right);
      const uint64_t word = MiddleWord(range.left_word, range.right_word);
      words[mid - 1] = word;
      if (range.right - mid > 1) {
        stack.push_back({mid, range.right, word, range.right_word});
      }
      range.right = mid;
      range.right_word = word;
    }
  }
  return words;
}

std::vector<BitString> EncodeRange(uint64_t n) {
  const std::vector<uint64_t> words = EncodeRangeWords(n);
  std::vector<BitString> codes;
  codes.reserve(words.size());
  for (const uint64_t word : words) codes.push_back(WordToCode(word));
  return codes;
}

int FixedWidthForCount(uint64_t n) {
  // ceil(log2(n + 1)): width of the binary representation of n.
  if (n == 0) return 1;
  return 64 - __builtin_clzll(n);
}

std::vector<BitString> EncodeRangeFixed(uint64_t n) {
  std::vector<BitString> codes = EncodeRange(n);
  const size_t width = static_cast<size_t>(FixedWidthForCount(n));
  for (BitString& code : codes) {
    CDBS_CHECK(code.size() <= width);
    while (code.size() < width) code.AppendBit(false);
  }
  return codes;
}

uint64_t RankOfCode(const BitString& code, uint64_t n) {
  CDBS_CHECK(!code.empty() && n < (uint64_t{1} << 62));
  const uint64_t word = CodeToWord(code);
  // Walk the same subdivision tree Algorithm 2 builds, re-deriving the code
  // at each midpoint; descend left/right by word (lexicographic) order.
  uint64_t left_pos = 0;
  uint64_t right_pos = n + 1;
  uint64_t left_word = 0;   // empty sentinel
  uint64_t right_word = 0;  // empty sentinel
  while (left_pos + 1 < right_pos) {
    const uint64_t mid_pos = RoundMid(left_pos, right_pos);
    const uint64_t mid_word = MiddleWord(left_word, right_word);
    if (word == mid_word) return mid_pos;
    if (word < mid_word) {
      right_pos = mid_pos;
      right_word = mid_word;
    } else {
      left_pos = mid_pos;
      left_word = mid_word;
    }
  }
  CDBS_CHECK(false && "code is not a member of EncodeRange(n)");
  return 0;
}

double VCodeTotalBitsFormula(double n) {
  return n * std::log2(n + 1) - n + std::log2(n + 1);
}

double VTotalBitsFormula(double n) {
  return VCodeTotalBitsFormula(n) + n * std::log2(std::log2(n));
}

double FTotalBitsFormula(double n) {
  return n * std::log2(n) + std::log2(std::log2(n));
}

uint64_t VCodeTotalBitsExact(uint64_t n) {
  // One 1-bit code, two 2-bit codes, four 3-bit codes, ... both for V-Binary
  // (number i takes floor(log2 i)+1 bits) and for V-CDBS (Theorem 4.4).
  uint64_t total = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    total += static_cast<uint64_t>(64 - __builtin_clzll(i));
  }
  return total;
}

uint64_t FTotalBitsExact(uint64_t n) {
  const uint64_t width = static_cast<uint64_t>(FixedWidthForCount(n));
  // Width field stored once; its size is ceil(log2(width+1)).
  uint64_t width_field = 0;
  while (width >> width_field) ++width_field;
  return n * width + width_field;
}

}  // namespace cdbs::core
