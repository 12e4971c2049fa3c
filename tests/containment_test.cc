#include "labeling/containment.h"

#include <gtest/gtest.h>

#include <random>

#include "core/cdbs.h"
#include "labeling/float_containment.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs::labeling {
namespace {

xml::Document Figure2Doc() {
  // A 9-node tree mirroring Figure 2's shape (18 start/end values).
  auto parsed = xml::ParseXml(
      "<r><a><b/><c/></a><d><e/></d><f><g/><h/></f></r>");
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

TEST(EulerRanksTest, SimpleTree) {
  auto parsed = xml::ParseXml("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(parsed.ok());
  const TreeSkeleton sk = TreeSkeleton::FromDocument(*parsed, nullptr);
  std::vector<uint64_t> start;
  std::vector<uint64_t> end;
  ComputeEulerRanks(sk, &start, &end);
  // a=(1,8) b=(2,3) c=(4,7) d=(5,6)
  EXPECT_EQ(start[0], 1u);
  EXPECT_EQ(end[0], 8u);
  EXPECT_EQ(start[1], 2u);
  EXPECT_EQ(end[1], 3u);
  EXPECT_EQ(start[2], 4u);
  EXPECT_EQ(end[2], 7u);
  EXPECT_EQ(start[3], 5u);
  EXPECT_EQ(end[3], 6u);
}

TEST(EulerRanksTest, SingleNode) {
  auto parsed = xml::ParseXml("<a/>");
  ASSERT_TRUE(parsed.ok());
  const TreeSkeleton sk = TreeSkeleton::FromDocument(*parsed, nullptr);
  std::vector<uint64_t> start;
  std::vector<uint64_t> end;
  ComputeEulerRanks(sk, &start, &end);
  EXPECT_EQ(start[0], 1u);
  EXPECT_EQ(end[0], 2u);
}

TEST(EulerRanksTest, RanksAreAPermutationOfTwoN) {
  const xml::Document doc = xml::GeneratePlay(5, 300);
  const TreeSkeleton sk = TreeSkeleton::FromDocument(doc, nullptr);
  std::vector<uint64_t> start;
  std::vector<uint64_t> end;
  ComputeEulerRanks(sk, &start, &end);
  std::vector<bool> seen(601, false);
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_LT(start[i], end[i]);
    ASSERT_FALSE(seen[start[i]]);
    ASSERT_FALSE(seen[end[i]]);
    seen[start[i]] = seen[end[i]] = true;
  }
  for (size_t v = 1; v <= 600; ++v) EXPECT_TRUE(seen[v]) << v;
}

TEST(IntContainmentTest, InsertionShiftsFollowingValues) {
  const xml::Document doc = Figure2Doc();
  auto scheme = MakeVBinaryContainment();
  auto labeling = scheme->Label(doc);
  // ids: r=0 a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8.
  // Insert before d (id 4): everything from d on (d,e,f,g,h = 5 nodes) plus
  // the root's end re-labels: 6 nodes.
  const InsertResult result = labeling->InsertSiblingBefore(4);
  EXPECT_EQ(result.relabeled, 6u);
  EXPECT_TRUE(result.overflow);
  // Structure still consistent.
  EXPECT_TRUE(labeling->IsParent(0, result.new_node));
  EXPECT_LT(labeling->CompareOrder(1, result.new_node), 0);
  EXPECT_LT(labeling->CompareOrder(result.new_node, 4), 0);
}

TEST(IntContainmentTest, InsertBeforeFirstChildRelabelsAlmostEverything) {
  const xml::Document doc = Figure2Doc();
  auto labeling = MakeVBinaryContainment()->Label(doc);
  // Insert before a (id 1): every node except the root's start changes:
  // 8 following nodes + root end = 9... the root is counted once.
  const InsertResult result = labeling->InsertSiblingBefore(1);
  EXPECT_EQ(result.relabeled, 9u);
}

TEST(IntContainmentTest, InsertAfterLastChildRelabelsOnlyAncestors) {
  const xml::Document doc = Figure2Doc();
  auto labeling = MakeVBinaryContainment()->Label(doc);
  // After f (id 6, the last child): only the root's end shifts.
  const InsertResult result = labeling->InsertSiblingAfter(6);
  EXPECT_EQ(result.relabeled, 1u);
}

TEST(IntContainmentTest, SecondInsertReusesOpenedGap) {
  const xml::Document doc = Figure2Doc();
  auto labeling = MakeVBinaryContainment()->Label(doc);
  const InsertResult first = labeling->InsertSiblingBefore(4);
  EXPECT_GT(first.relabeled, 0u);
  // The +2 shift opened no extra room at the same spot: inserting before
  // the SAME node again must shift again.
  const InsertResult second = labeling->InsertSiblingBefore(4);
  EXPECT_GT(second.relabeled, 0u);
}

TEST(CdbsContainmentTest, NoRelabelingOnIntermittentInserts) {
  const xml::Document doc = Figure2Doc();
  for (auto make : {MakeVCdbsContainment, MakeFCdbsContainment}) {
    auto labeling = make()->Label(doc);
    for (NodeId target : {4u, 1u, 6u, 3u}) {
      const InsertResult result = labeling->InsertSiblingBefore(target);
      EXPECT_EQ(result.relabeled, 0u);
      EXPECT_FALSE(result.overflow);
      EXPECT_EQ(result.neighbor_bits_modified, 1u);
    }
  }
}

TEST(CdbsContainmentTest, InitialCodesMatchTable1) {
  const xml::Document doc = Figure2Doc();  // 9 nodes -> 18 values
  auto scheme = MakeVCdbsContainment();
  auto labeling_base = scheme->Label(doc);
  auto* labeling = static_cast<ContainmentLabeling<CdbsContainmentCodec>*>(
      labeling_base.get());
  // Root start = value 1 = "00001", root end = value 18 = "1111".
  EXPECT_EQ(labeling->start_value(0).ToString(), "00001");
  EXPECT_EQ(labeling->end_value(0).ToString(), "1111");
  // Node a: start = value 2 = "0001" (the paper's Figure: "4,9" for "d"
  // corresponds to V-CDBS "0011".."0111").
  EXPECT_EQ(labeling->start_value(1).ToString(), "0001");
}

TEST(CdbsContainmentTest, SkewedInsertionEventuallyOverflows) {
  const xml::Document doc = Figure2Doc();
  auto labeling = MakeVCdbsContainment()->Label(doc);
  // Keep inserting before the same node: codes lengthen by one bit per
  // insertion until the length field overflows and everything re-encodes.
  bool overflowed = false;
  NodeId target = 4;
  for (int i = 0; i < 64 && !overflowed; ++i) {
    const InsertResult result = labeling->InsertSiblingBefore(target);
    target = result.new_node;
    if (result.overflow) {
      overflowed = true;
      EXPECT_GT(result.relabeled, 0u);
    }
  }
  EXPECT_TRUE(overflowed);
}

// The word layout of CDBS codes (CdbsContainmentCodec::Value).

// The serialization the codec had when values were BitStrings: a length
// byte, then the packed MSB-first bytes.
std::string BitStringSerialization(const core::BitString& code) {
  std::string out(1, static_cast<char>(code.size()));
  for (const uint8_t byte : code.packed_bytes()) {
    out.push_back(static_cast<char>(byte));
  }
  return out;
}

int Sign(int v) { return (v > 0) - (v < 0); }

TEST(CdbsWordCodeTest, WordOrderMatchesBitStringOrder) {
  const CdbsContainmentCodec codec(/*fixed_width=*/false);
  for (uint64_t n = 1; n <= 4500; n += (n < 130 ? 1 : 97)) {
    const std::vector<core::BitString> codes = core::EncodeRange(n);
    std::vector<uint64_t> words;
    for (const core::BitString& code : codes) {
      words.push_back(CdbsContainmentCodec::Encode(code));
    }
    const size_t stride = n <= 130 ? 1 : 37;  // every pair for small n
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; j += stride) {
        ASSERT_EQ(Sign(codec.Compare(words[i], words[j])),
                  codes[i].Compare(codes[j]))
            << "n=" << n << " " << codes[i].ToString() << " vs "
            << codes[j].ToString();
      }
      if (i > 0) {
        ASSERT_LT(words[i - 1], words[i]) << "n=" << n;
      }
    }
  }
}

TEST(CdbsWordCodeTest, InsertedCodesUpTo63BitsKeepOrderAndRoundTrip) {
  // Skewed runs of Algorithm 1 (each new code lands next to the previous
  // one, on a random side) grow codes to 63 bits; the word order must track
  // Definition 3.1 at every length.
  std::vector<core::BitString> codes = core::EncodeRange(8);
  std::mt19937_64 rng(7);
  for (int run = 0; run < 6; ++run) {
    size_t gap = rng() % (codes.size() + 1);
    for (;;) {
      const core::BitString left =
          gap == 0 ? core::BitString() : codes[gap - 1];
      const core::BitString right =
          gap == codes.size() ? core::BitString() : codes[gap];
      core::BitString mid = core::AssignMiddleBinaryString(left, right);
      if (mid.size() > 63) break;
      codes.insert(codes.begin() + static_cast<std::ptrdiff_t>(gap),
                   std::move(mid));
      if (rng() % 2 == 0) ++gap;  // next gap: right of the new code
    }
  }
  const CdbsContainmentCodec codec(/*fixed_width=*/false);
  for (size_t i = 0; i < codes.size(); ++i) {
    const uint64_t word = CdbsContainmentCodec::Encode(codes[i]);
    EXPECT_EQ(CdbsContainmentCodec::CodeBits(word), codes[i].size());
    EXPECT_EQ(CdbsContainmentCodec::Decode(word), codes[i]);
    EXPECT_EQ(codec.Serialize(word), BitStringSerialization(codes[i]));
    if (i > 0) {
      EXPECT_LT(CdbsContainmentCodec::Encode(codes[i - 1]), word)
          << codes[i - 1].ToString() << " vs " << codes[i].ToString();
    }
  }
}

TEST(CdbsWordCodeTest, EmptyCodeIsWordZero) {
  EXPECT_EQ(CdbsContainmentCodec::Encode(core::BitString()), 0u);
  EXPECT_TRUE(CdbsContainmentCodec::Decode(0).empty());
  EXPECT_EQ(CdbsContainmentCodec::CodeBits(0), 0u);
  EXPECT_EQ(CdbsContainmentCodec(false).Serialize(0), std::string(1, '\0'));
}

TEST(CdbsWordCodeDeathTest, RejectsCodesTheWordCannotHold) {
  EXPECT_DEATH(CdbsContainmentCodec::Encode(core::BitString::FromString(
                   std::string(63, '0') + "1")),
               "CDBS_CHECK");
  EXPECT_DEATH(CdbsContainmentCodec::Encode(core::BitString::FromString("10")),
               "CDBS_CHECK");
}

TEST(CdbsWordCodeTest, SerializedLabelsMatchTheBitStringCodes) {
  // Bytes on disk, in the WAL and on the wire must not change: each label
  // is (start code, end code, level) serialized as the BitString codes
  // Algorithm 2 assigns to the node's Euler ranks.
  const xml::Document play = xml::GeneratePlay(11, 700);
  for (auto make : {MakeVCdbsContainment, MakeFCdbsContainment}) {
    auto labeling = make()->Label(play);
    std::vector<uint64_t> start;
    std::vector<uint64_t> end;
    ComputeEulerRanks(labeling->skeleton(), &start, &end);
    const std::vector<core::BitString> codes =
        core::EncodeRange(2 * labeling->num_nodes());
    for (NodeId n = 0; n < labeling->num_nodes(); ++n) {
      const std::string expected =
          BitStringSerialization(codes[start[n] - 1]) +
          BitStringSerialization(codes[end[n] - 1]) +
          std::string(1, static_cast<char>(labeling->Level(n)));
      ASSERT_EQ(labeling->SerializeLabel(n), expected) << "node " << n;
    }
    // Inserted labels serialize as their (longer) BitString codes too.
    auto* cdbs =
        static_cast<ContainmentLabeling<CdbsContainmentCodec>*>(labeling.get());
    for (const NodeId before : {5u, 50u, 120u, 260u, 400u, 650u}) {
      const InsertResult result = labeling->InsertSiblingBefore(before);
      ASSERT_FALSE(result.overflow);
      const NodeId target = result.new_node;
      EXPECT_EQ(labeling->SerializeLabel(target),
                BitStringSerialization(cdbs->start_value(target)) +
                    BitStringSerialization(cdbs->end_value(target)) +
                    std::string(1, static_cast<char>(labeling->Level(target))));
    }
  }
}

TEST(CdbsWordCodeTest, SkewedOverflowFiresOnTheSameInsertion) {
  // Figure2Doc: 18 values, width 5, a 3-bit length field, so codes may
  // reach 7 bits. Pinned to the insertion the BitString codec overflowed on.
  const xml::Document doc = Figure2Doc();
  for (auto make : {MakeVCdbsContainment, MakeFCdbsContainment}) {
    auto labeling = make()->Label(doc);
    NodeId target = 4;
    int overflow_at = 0;
    for (int i = 1; i <= 64 && overflow_at == 0; ++i) {
      const InsertResult result = labeling->InsertSiblingBefore(target);
      target = result.new_node;
      if (result.overflow) overflow_at = i;
    }
    EXPECT_EQ(overflow_at, 3);
  }
}

TEST(QedContainmentTest, NeverOverflowsEvenWhenSkewed) {
  const xml::Document doc = Figure2Doc();
  auto labeling = MakeQedContainment()->Label(doc);
  NodeId target = 4;
  for (int i = 0; i < 300; ++i) {
    const InsertResult result = labeling->InsertSiblingBefore(target);
    ASSERT_EQ(result.relabeled, 0u);
    ASSERT_FALSE(result.overflow);
    ASSERT_EQ(result.neighbor_bits_modified, 2u);
    target = result.new_node;
  }
}

TEST(FloatContainmentTest, ExhaustsAfterLimitedFixedPlaceInserts) {
  const xml::Document doc = Figure2Doc();
  auto labeling = MakeFloatContainment()->Label(doc);
  // Insert repeatedly before the same node. 32-bit floats give up after
  // roughly 18-25 midpoint halvings (the paper quotes 18 for QRS).
  int until_relabel = 0;
  NodeId target = 4;
  for (int i = 0; i < 100; ++i) {
    const InsertResult result = labeling->InsertSiblingBefore(target);
    target = result.new_node;
    if (result.relabeled > 0) {
      until_relabel = i + 1;
      break;
    }
  }
  EXPECT_GT(until_relabel, 10);
  EXPECT_LT(until_relabel, 30);
}

TEST(FloatContainmentTest, RelabelRestoresInsertability) {
  const xml::Document doc = Figure2Doc();
  auto labeling = MakeFloatContainment()->Label(doc);
  NodeId target = 4;
  int relabels = 0;
  for (int i = 0; i < 120; ++i) {
    const InsertResult result = labeling->InsertSiblingBefore(target);
    target = result.new_node;
    if (result.relabeled > 0) ++relabels;
  }
  EXPECT_GE(relabels, 2);  // exhaustion repeats after each global renumber
  // Order is still correct.
  EXPECT_LT(labeling->CompareOrder(1, target), 0);
  EXPECT_LT(labeling->CompareOrder(target, 4), 0);
}

TEST(ContainmentSizeTest, VCdbsAsCompactAsVBinary) {
  const xml::Document play = xml::GeneratePlay(23, 1000);
  auto vbin = MakeVBinaryContainment()->Label(play);
  auto vcdbs = MakeVCdbsContainment()->Label(play);
  EXPECT_EQ(vbin->TotalLabelBits(), vcdbs->TotalLabelBits());
}

TEST(ContainmentSizeTest, FCdbsAsCompactAsFBinary) {
  const xml::Document play = xml::GeneratePlay(23, 1000);
  auto fbin = MakeFBinaryContainment()->Label(play);
  auto fcdbs = MakeFCdbsContainment()->Label(play);
  EXPECT_EQ(fbin->TotalLabelBits(), fcdbs->TotalLabelBits());
}

TEST(ContainmentSizeTest, QedLargerThanVCdbsButSmallerThanFloat) {
  const xml::Document play = xml::GeneratePlay(23, 1000);
  auto vcdbs = MakeVCdbsContainment()->Label(play);
  auto qed = MakeQedContainment()->Label(play);
  auto flt = MakeFloatContainment()->Label(play);
  EXPECT_GT(qed->TotalLabelBits(), vcdbs->TotalLabelBits());
  EXPECT_GT(flt->TotalLabelBits(), qed->TotalLabelBits());
}

}  // namespace
}  // namespace cdbs::labeling
