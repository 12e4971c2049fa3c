#include "core/cdbs.h"

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace cdbs::core {
namespace {

BitString B(const char* s) { return BitString::FromString(s); }

// --- Algorithm 1: AssignMiddleBinaryString ---

TEST(AssignMiddleTest, PaperExample32Case1) {
  // Insert between "0011" and "01": size 4 >= 2 -> concatenate "1".
  EXPECT_EQ(AssignMiddleBinaryString(B("0011"), B("01")).ToString(), "00111");
}

TEST(AssignMiddleTest, PaperExample32Case2) {
  // Insert between "01" and "0101": size 2 < 4 -> last "1" becomes "01".
  EXPECT_EQ(AssignMiddleBinaryString(B("01"), B("0101")).ToString(), "01001");
}

TEST(AssignMiddleTest, BothEmptyGivesOne) {
  // Both sentinels empty (first code ever): sizes 0 >= 0 -> Case (1) -> "1".
  EXPECT_EQ(AssignMiddleBinaryString(BitString(), BitString()).ToString(),
            "1");
}

TEST(AssignMiddleTest, EmptyLeftUsesCase2) {
  // S_L empty, S_R = "1": Case (2): "1" -> "01".
  EXPECT_EQ(AssignMiddleBinaryString(BitString(), B("1")).ToString(), "01");
  EXPECT_EQ(AssignMiddleBinaryString(BitString(), B("01")).ToString(), "001");
}

TEST(AssignMiddleTest, EmptyRightUsesCase1) {
  EXPECT_EQ(AssignMiddleBinaryString(B("1"), BitString()).ToString(), "11");
  EXPECT_EQ(AssignMiddleBinaryString(B("11"), BitString()).ToString(), "111");
}

TEST(AssignMiddleTest, ResultStrictlyBetween) {
  const BitString left = B("0011");
  const BitString right = B("01");
  const BitString mid = AssignMiddleBinaryString(left, right);
  EXPECT_LT(left.Compare(mid), 0);
  EXPECT_LT(mid.Compare(right), 0);
}

TEST(AssignMiddleTest, ResultEndsWithOneLemma32) {
  // Lemma 3.2: the returned string ends with "1".
  EXPECT_TRUE(AssignMiddleBinaryString(B("0011"), B("01")).EndsWithOne());
  EXPECT_TRUE(AssignMiddleBinaryString(B("01"), B("0101")).EndsWithOne());
  EXPECT_TRUE(AssignMiddleBinaryString(BitString(), B("1")).EndsWithOne());
}

TEST(AssignMiddleTest, EqualSizesUseCase1) {
  EXPECT_EQ(AssignMiddleBinaryString(B("01"), B("11")).ToString(), "011");
}

TEST(AssignMiddleTest, RepeatedInsertsAtLeftEndGrowLinearly) {
  // Inserting before the smallest code repeatedly: Case (2) each time.
  BitString right = B("1");
  for (int i = 0; i < 50; ++i) {
    BitString mid = AssignMiddleBinaryString(BitString(), right);
    ASSERT_LT(mid.Compare(right), 0);
    ASSERT_TRUE(mid.EndsWithOne());
    right = mid;
  }
  EXPECT_EQ(right.size(), 51u);  // one zero per insertion
}

TEST(AssignMiddleTest, ModifiesOnlyTheNeighborTail) {
  // Case (1) appends one bit to the left neighbour's value; Case (2) flips
  // the right neighbour's final bit and appends one — the "last 1 bit"
  // update cost of Section 7.4.
  const BitString left = B("0101");
  const BitString mid1 = AssignMiddleBinaryString(left, B("011"));
  EXPECT_TRUE(left.IsPrefixOf(mid1));
  EXPECT_EQ(mid1.size(), left.size() + 1);

  const BitString right = B("0101");
  const BitString mid2 = AssignMiddleBinaryString(B("01"), right);
  EXPECT_EQ(mid2.size(), right.size() + 1);
  // Shares all but the last bit with the right neighbour.
  BitString head = right;
  head.PopBit();
  EXPECT_TRUE(head.IsPrefixOf(mid2));
}

// Property sweep: random adjacent pairs drawn from an encoded range always
// accept a middle that preserves strict order and the ends-with-1 invariant.
class AssignMiddlePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AssignMiddlePropertyTest, MiddleExistsBetweenAllAdjacentCodes) {
  const uint64_t n = GetParam();
  const std::vector<BitString> codes = EncodeRange(n);
  for (size_t i = 0; i + 1 < codes.size(); ++i) {
    const BitString mid = AssignMiddleBinaryString(codes[i], codes[i + 1]);
    ASSERT_LT(codes[i].Compare(mid), 0)
        << codes[i].ToString() << " !< " << mid.ToString();
    ASSERT_LT(mid.Compare(codes[i + 1]), 0)
        << mid.ToString() << " !< " << codes[i + 1].ToString();
    ASSERT_TRUE(mid.EndsWithOne());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AssignMiddlePropertyTest,
                         ::testing::Values(1, 2, 3, 7, 18, 100, 1023, 4096));

TEST(AssignTwoMiddleTest, PaperSection521Example) {
  // Between "0011" and "01" the paper inserts "00111" and "001111".
  const auto [m1, m2] = AssignTwoMiddleBinaryStrings(B("0011"), B("01"));
  EXPECT_EQ(m1.ToString(), "00111");
  EXPECT_EQ(m2.ToString(), "001111");
}

TEST(AssignTwoMiddleTest, Corollary33OrderHolds) {
  const auto [m1, m2] = AssignTwoMiddleBinaryStrings(B("01"), B("0101"));
  EXPECT_LT(B("01").Compare(m1), 0);
  EXPECT_LT(m1.Compare(m2), 0);
  EXPECT_LT(m2.Compare(B("0101")), 0);
}

// --- Algorithm 2: EncodeRange ---

TEST(EncodeRangeTest, Table1VCdbsColumn) {
  // The exact V-CDBS column of Table 1 for numbers 1..18.
  const std::vector<std::string> expected = {
      "00001", "0001", "001", "0011", "01",   "01001", "0101", "011", "0111",
      "1",     "10001", "1001", "101", "1011", "11",   "1101", "111", "1111"};
  const std::vector<BitString> codes = EncodeRange(18);
  ASSERT_EQ(codes.size(), 18u);
  for (size_t i = 0; i < 18; ++i) {
    EXPECT_EQ(codes[i].ToString(), expected[i]) << "number " << (i + 1);
  }
}

TEST(EncodeRangeTest, SmallRanges) {
  EXPECT_EQ(EncodeRange(1)[0].ToString(), "1");
  const auto two = EncodeRange(2);
  EXPECT_EQ(two[0].ToString(), "01");
  EXPECT_EQ(two[1].ToString(), "1");
  const auto four = EncodeRange(4);
  // Example 5.1: encoding 4 numbers gives "001", "01", "1" and "11".
  EXPECT_EQ(four[0].ToString(), "001");
  EXPECT_EQ(four[1].ToString(), "01");
  EXPECT_EQ(four[2].ToString(), "1");
  EXPECT_EQ(four[3].ToString(), "11");
}

class EncodeRangePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodeRangePropertyTest, CodesLexicographicallyOrderedTheorem43) {
  const std::vector<BitString> codes = EncodeRange(GetParam());
  for (size_t i = 1; i < codes.size(); ++i) {
    ASSERT_LT(codes[i - 1].Compare(codes[i]), 0)
        << codes[i - 1].ToString() << " vs " << codes[i].ToString();
  }
}

TEST_P(EncodeRangePropertyTest, AllCodesEndWithOneLemma42) {
  for (const BitString& code : EncodeRange(GetParam())) {
    ASSERT_TRUE(code.EndsWithOne()) << code.ToString();
  }
}

TEST_P(EncodeRangePropertyTest, AsCompactAsBinaryTheorem44) {
  // The multiset of code lengths must match V-Binary's: one 1-bit code, two
  // 2-bit codes, four 3-bit codes, ...
  const uint64_t n = GetParam();
  std::map<size_t, uint64_t> length_histogram;
  for (const BitString& code : EncodeRange(n)) ++length_histogram[code.size()];
  uint64_t remaining = n;
  for (size_t len = 1; remaining > 0; ++len) {
    const uint64_t expect = std::min(remaining, uint64_t{1} << (len - 1));
    EXPECT_EQ(length_histogram[len], expect) << "length " << len;
    remaining -= expect;
  }
}

TEST_P(EncodeRangePropertyTest, RankOfCodeInvertsEncoding) {
  const uint64_t n = GetParam();
  const std::vector<BitString> codes = EncodeRange(n);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(RankOfCode(codes[i], n), i + 1) << codes[i].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EncodeRangePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 18, 19, 63, 64,
                                           65, 1000, 4095));

TEST(EncodeRangeTest, LargeRangeStaysOrderedAndCompact) {
  const uint64_t n = 200000;
  const std::vector<BitString> codes = EncodeRange(n);
  ASSERT_EQ(codes.size(), n);
  uint64_t total_bits = 0;
  for (size_t i = 0; i < codes.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(codes[i - 1].Compare(codes[i]), 0);
    }
    total_bits += codes[i].size();
  }
  EXPECT_EQ(total_bits, VCodeTotalBitsExact(n));
}

// --- One Algorithm 2: the word encoder, EncodeRange, the old recursion ---

// The recursive BitString SubEncoding Algorithm 2 used to be, kept as the
// reference: codes[i] is the code of number i, 0 and n + 1 stay empty.
void ReferenceSubEncoding(std::vector<BitString>* codes, uint64_t left,
                          uint64_t right) {
  if (left + 1 >= right) return;
  const uint64_t mid = (left + right + 1) / 2;
  (*codes)[mid] = AssignMiddleBinaryString((*codes)[left], (*codes)[right]);
  ReferenceSubEncoding(codes, left, mid);
  ReferenceSubEncoding(codes, mid, right);
}

std::vector<BitString> ReferenceEncodeRange(uint64_t n) {
  std::vector<BitString> codes(n + 2);
  ReferenceSubEncoding(&codes, 0, n + 1);
  return codes;
}

TEST(OneAlgorithm2Test, WordsEqualEncodeRangeAndTheRecursionUpTo4096) {
  for (uint64_t n = 1; n <= 4096; ++n) {
    const std::vector<uint64_t> words = EncodeRangeWords(n);
    const std::vector<BitString> codes = EncodeRange(n);
    const std::vector<BitString> reference = ReferenceEncodeRange(n);
    ASSERT_EQ(words.size(), n);
    ASSERT_EQ(codes.size(), n);
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(words[i], CodeToWord(reference[i + 1]))
          << "n=" << n << " number " << i + 1;
      ASSERT_EQ(codes[i], reference[i + 1]) << "n=" << n << " number " << i + 1;
      ASSERT_EQ(WordToCode(words[i]), codes[i]);
    }
  }
}

TEST(OneAlgorithm2Test, WordsEqualTheRecursionAtCorpusSizes) {
  // Twice the nodes of one query_corpus shard, and of the whole D5x10
  // corpus: the value counts their containment labels encode.
  for (const uint64_t n : {uint64_t{900348}, uint64_t{3593780}}) {
    const std::vector<uint64_t> words = EncodeRangeWords(n);
    const std::vector<BitString> reference = ReferenceEncodeRange(n);
    ASSERT_EQ(words.size(), n);
    uint64_t total_bits = 0;
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(words[i], CodeToWord(reference[i + 1]))
          << "n=" << n << " number " << i + 1;
      if (i > 0) {
        ASSERT_LT(words[i - 1], words[i]);
      }
      total_bits += WordCodeBits(words[i]);
    }
    EXPECT_EQ(total_bits, VCodeTotalBitsExact(n));
  }
}

TEST(OneAlgorithm2Test, Table1AsWords) {
  // Table 1's V-CDBS column for 1..18, MSB-aligned.
  const std::vector<uint64_t> expected = {
      0x0800000000000000, 0x1000000000000000, 0x2000000000000000,
      0x3000000000000000, 0x4000000000000000, 0x4800000000000000,
      0x5000000000000000, 0x6000000000000000, 0x7000000000000000,
      0x8000000000000000, 0x8800000000000000, 0x9000000000000000,
      0xa000000000000000, 0xb000000000000000, 0xc000000000000000,
      0xd000000000000000, 0xe000000000000000, 0xf000000000000000};
  EXPECT_EQ(EncodeRangeWords(18), expected);
}

TEST(EncodeRangeWordsTest, EmptyRange) {
  EXPECT_TRUE(EncodeRangeWords(0).empty());
  EXPECT_TRUE(EncodeRange(0).empty());
}

// --- F-CDBS ---

TEST(FixedWidthTest, WidthMatchesBinary) {
  EXPECT_EQ(FixedWidthForCount(1), 1);
  EXPECT_EQ(FixedWidthForCount(2), 2);
  EXPECT_EQ(FixedWidthForCount(3), 2);
  EXPECT_EQ(FixedWidthForCount(4), 3);
  EXPECT_EQ(FixedWidthForCount(18), 5);
  EXPECT_EQ(FixedWidthForCount(31), 5);
  EXPECT_EQ(FixedWidthForCount(32), 6);
}

TEST(EncodeRangeFixedTest, Table1FCdbsColumn) {
  const std::vector<std::string> expected = {
      "00001", "00010", "00100", "00110", "01000", "01001", "01010", "01100",
      "01110", "10000", "10001", "10010", "10100", "10110", "11000", "11010",
      "11100", "11110"};
  const std::vector<BitString> codes = EncodeRangeFixed(18);
  ASSERT_EQ(codes.size(), 18u);
  for (size_t i = 0; i < 18; ++i) {
    EXPECT_EQ(codes[i].ToString(), expected[i]) << "number " << (i + 1);
  }
}

TEST(EncodeRangeFixedTest, AllSameWidthAndOrdered) {
  const auto codes = EncodeRangeFixed(100);
  for (size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(codes[i].size(), 7u);
    if (i > 0) {
      ASSERT_LT(codes[i - 1].Compare(codes[i]), 0);
    }
  }
}

// --- Section 4.2 size formulas ---

TEST(SizeFormulaTest, Table1Totals) {
  // Table 1: total size 64 bits for both V-Binary and V-CDBS at N=18.
  EXPECT_EQ(VCodeTotalBitsExact(18), 64u);
  // F-Binary and F-CDBS: 18 codes x 5 bits = 90 bits.
  EXPECT_EQ(18u * static_cast<uint64_t>(FixedWidthForCount(18)), 90u);
}

TEST(SizeFormulaTest, Example42VariableTotalsWithLengthFields) {
  // Example 4.2: storing the 18 code sizes needs 3 bits each:
  // 3*18 + 64 = 118 bits.
  EXPECT_EQ(64u + 3u * 18u, 118u);
}

TEST(SizeFormulaTest, Formula2MatchesExactAtPowersOfTwoMinusOne) {
  // The closed form assumes N = 2^(n+1)-1 exactly; there it is exact.
  for (const uint64_t n : {1u, 3u, 7u, 15u, 63u, 255u, 1023u}) {
    EXPECT_NEAR(VCodeTotalBitsFormula(static_cast<double>(n)),
                static_cast<double>(VCodeTotalBitsExact(n)), 1e-6)
        << n;
  }
}

TEST(SizeFormulaTest, FormulasGrowMonotonically) {
  double prev_v = 0;
  double prev_f = 0;
  for (double n = 4; n <= 1 << 20; n *= 2) {
    const double v = VTotalBitsFormula(n);
    const double f = FTotalBitsFormula(n);
    EXPECT_GT(v, prev_v);
    EXPECT_GT(f, prev_f);
    prev_v = v;
    prev_f = f;
  }
}

TEST(SizeFormulaTest, FixedSmallerThanVariableWithLengthFields) {
  // Example 4.2's observation: once length fields are accounted, variable
  // encodings are larger than fixed ones.
  for (const uint64_t n : {18u, 100u, 1000u, 100000u}) {
    const uint64_t v_total =
        VCodeTotalBitsExact(n) +
        n * 3;  // >= 3-bit length fields at these sizes
    EXPECT_GT(v_total, FTotalBitsExact(n)) << n;
  }
}

// --- Dynamic behaviour: random insertion sequences ---

TEST(CdbsDynamicTest, RandomInsertionsPreserveOrderWithoutRelabeling) {
  util::Random rng(42);
  std::vector<BitString> codes = EncodeRange(16);
  for (int step = 0; step < 2000; ++step) {
    const size_t pos = rng.Uniform(codes.size() + 1);
    const BitString left = pos == 0 ? BitString() : codes[pos - 1];
    const BitString right = pos == codes.size() ? BitString() : codes[pos];
    BitString mid = AssignMiddleBinaryString(left, right);
    // Strictly between neighbours; all other codes untouched by definition.
    if (!left.empty()) {
      ASSERT_LT(left.Compare(mid), 0);
    }
    if (!right.empty()) {
      ASSERT_LT(mid.Compare(right), 0);
    }
    codes.insert(codes.begin() + static_cast<ptrdiff_t>(pos), mid);
  }
  for (size_t i = 1; i < codes.size(); ++i) {
    ASSERT_LT(codes[i - 1].Compare(codes[i]), 0);
  }
}

TEST(CdbsDynamicTest, SkewedInsertionGrowsOneBitPerInsert) {
  // Section 5.2.2: fixed-place insertion is the O(N) worst case.
  std::vector<BitString> codes = EncodeRange(2);
  BitString left = codes[0];
  const BitString right = codes[1];
  size_t prev = left.size();
  for (int i = 0; i < 100; ++i) {
    BitString mid = AssignMiddleBinaryString(left, right);
    ASSERT_GE(mid.size(), prev);
    prev = mid.size();
    left = mid;
  }
  EXPECT_GE(prev, 100u);
}

TEST(CdbsDynamicTest, UniformInsertionKeepsLogarithmicLabels) {
  // Section 5.2.2: uniformly random insertions keep sizes near log2(N).
  util::Random rng(7);
  std::vector<BitString> codes = EncodeRange(64);
  for (int step = 0; step < 4000; ++step) {
    const size_t pos = rng.Uniform(codes.size() + 1);
    const BitString left = pos == 0 ? BitString() : codes[pos - 1];
    const BitString right = pos == codes.size() ? BitString() : codes[pos];
    codes.insert(codes.begin() + static_cast<ptrdiff_t>(pos),
                 AssignMiddleBinaryString(left, right));
  }
  size_t max_bits = 0;
  for (const BitString& c : codes) max_bits = std::max(max_bits, c.size());
  // ~4096 codes; allow a generous constant over log2(4096) = 12.
  EXPECT_LE(max_bits, 48u);
}

}  // namespace
}  // namespace cdbs::core
