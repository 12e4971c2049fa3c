#include "labeling/hybrid.h"

#include <gtest/gtest.h>

#include <variant>
#include <vector>

#include "labeling/containment.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs::labeling {
namespace {

xml::Document SmallDoc() {
  auto parsed = xml::ParseXml("<a><b/><c/><d/><e/></a>");
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

TEST(HybridTest, BehavesLikeCdbsBeforeOverflow) {
  const xml::Document doc = SmallDoc();
  auto hybrid = MakeHybridContainment()->Label(doc);
  auto cdbs = MakeVCdbsContainment()->Label(doc);
  // Identical initial sizes: the hybrid *is* V-CDBS until skew strikes.
  EXPECT_EQ(hybrid->TotalLabelBits(), cdbs->TotalLabelBits());
  const InsertResult result = hybrid->InsertSiblingBefore(2);
  EXPECT_EQ(result.relabeled, 0u);
  EXPECT_EQ(result.neighbor_bits_modified, 1u);  // the CDBS 1-bit edit
}

TEST(HybridTest, SwitchesToQedOnFirstOverflowThenNeverRelabelsAgain) {
  const xml::Document doc = SmallDoc();
  auto labeling = MakeHybridContainment()->Label(doc);
  NodeId target = 2;
  uint64_t overflows = 0;
  uint64_t relabels_after_switch = 0;
  for (int i = 0; i < 500; ++i) {
    const InsertResult result = labeling->InsertSiblingBefore(target);
    target = result.new_node;
    if (result.overflow) {
      ++overflows;
    } else if (overflows > 0) {
      relabels_after_switch += result.relabeled;
    }
  }
  EXPECT_EQ(overflows, 1u);  // exactly one re-encode, into QED
  EXPECT_EQ(relabels_after_switch, 0u);
  // Order still fully consistent.
  EXPECT_LT(labeling->CompareOrder(1, target), 0);
  EXPECT_LT(labeling->CompareOrder(target, 2), 0);
  EXPECT_TRUE(labeling->IsParent(0, target));
}

// Every live node's start and end keys against the labels they abbreviate:
// Key(a) < Key(b) only where a's value is below b's, over every pair of
// values.
void ExpectKeysFollowLabels(
    const ContainmentLabeling<HybridContainmentCodec>& lab) {
  std::vector<HybridContainmentCodec::Value> values;
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    if (lab.skeleton().is_removed(n)) continue;
    ASSERT_EQ(lab.OrderKey(n), HybridContainmentCodec::Key(lab.starts()[n]));
    ASSERT_EQ(lab.EndKey(n), HybridContainmentCodec::Key(lab.ends()[n]));
    values.push_back(lab.starts()[n]);
    values.push_back(lab.ends()[n]);
  }
  for (const auto& a : values) {
    for (const auto& b : values) {
      ASSERT_EQ(a.index(), b.index()) << "live values in two modes";
      if (HybridContainmentCodec::Key(a) < HybridContainmentCodec::Key(b)) {
        ASSERT_TRUE(a < b);
      }
    }
  }
}

TEST(HybridTest, KeysFollowLabelsBeforeAndAfterTheQedSwitch) {
  const xml::Document doc = SmallDoc();
  auto labeling = MakeHybridContainment()->Label(doc);
  const auto& hybrid =
      dynamic_cast<const ContainmentLabeling<HybridContainmentCodec>&>(
          *labeling);
  ASSERT_NO_FATAL_FAILURE(ExpectKeysFollowLabels(hybrid));
  NodeId target = 2;
  bool switched = false;
  for (int i = 0; i < 80; ++i) {
    const InsertResult result = labeling->InsertSiblingBefore(target);
    target = result.new_node;
    switched |= result.overflow;
    ASSERT_NO_FATAL_FAILURE(ExpectKeysFollowLabels(hybrid)) << "insert " << i;
  }
  ASSERT_TRUE(switched);
  EXPECT_TRUE(std::holds_alternative<core::QedCode>(hybrid.starts()[0]));
}

TEST(HybridTest, PlainCdbsKeepsOverflowingUnderTheSameWorkload) {
  // The contrast that motivates the hybrid: V-CDBS alone re-encodes over
  // and over under sustained skew.
  const xml::Document doc = SmallDoc();
  auto labeling = MakeVCdbsContainment()->Label(doc);
  NodeId target = 2;
  uint64_t overflows = 0;
  for (int i = 0; i < 500; ++i) {
    const InsertResult result = labeling->InsertSiblingBefore(target);
    target = result.new_node;
    overflows += result.overflow ? 1 : 0;
  }
  EXPECT_GT(overflows, 5u);
}

TEST(HybridTest, UniformInsertionsNeverSwitch) {
  const xml::Document play = xml::GeneratePlay(5, 800);
  auto labeling = MakeHybridContainment()->Label(play);
  // One insertion at each of many distinct places: stays in CDBS mode.
  for (NodeId target = 1; target < 790; target += 13) {
    const InsertResult result = labeling->InsertSiblingBefore(target);
    ASSERT_FALSE(result.overflow);
    ASSERT_EQ(result.relabeled, 0u);
  }
}

TEST(HybridTest, QueriesAgreeWithStructureAfterSwitch) {
  auto parsed = xml::ParseXml("<a><b><x/></b><c/><d/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = MakeHybridContainment()->Label(*parsed);
  NodeId target = 3;  // c
  for (int i = 0; i < 60; ++i) {
    target = labeling->InsertSiblingBefore(target).new_node;
  }
  // After the forced switch: ancestry across old and new nodes intact.
  EXPECT_TRUE(labeling->IsAncestor(0, target));
  EXPECT_TRUE(labeling->IsParent(1, 2));
  EXPECT_TRUE(labeling->IsAncestor(0, 2));
  EXPECT_FALSE(labeling->IsAncestor(1, target));
  EXPECT_LT(labeling->CompareOrder(2, target), 0);
}

}  // namespace
}  // namespace cdbs::labeling
