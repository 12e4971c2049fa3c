// Cross-scheme conformance suite: every labeling scheme must answer the
// relationship predicates identically — only their label formats and costs
// differ. Ground truth comes from the tree structure itself.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "labeling/label.h"
#include "labeling/registry.h"
#include "xml/generator.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs::labeling {
namespace {

// Structural ground truth computed from the skeleton (which labelings keep
// for update bookkeeping but must NOT use for predicates — this test would
// still catch wrong labels because the skeleton itself is validated by
// skeleton_test).
bool TrueAncestor(const TreeSkeleton& sk, NodeId a, NodeId d) {
  for (NodeId p = sk.parent(d); p != kNoNode; p = sk.parent(p)) {
    if (p == a) return true;
  }
  return false;
}

class SchemeConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Labeling> LabelDoc(const xml::Document& doc) {
    return SchemeByName(GetParam())->Label(doc);
  }
};

TEST_P(SchemeConformanceTest, PredicatesMatchStructureOnSmallDoc) {
  auto parsed = xml::ParseXml(
      "<a><b><c/><d><e/><f/></d></b><g/><h><i/><j><k/></j></h></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  const TreeSkeleton& sk = labeling->skeleton();
  const NodeId n = static_cast<NodeId>(labeling->num_nodes());
  ASSERT_EQ(n, 11u);
  for (NodeId a = 0; a < n; ++a) {
    EXPECT_EQ(labeling->Level(a), sk.level(a)) << "node " << a;
    for (NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(labeling->IsAncestor(a, b), TrueAncestor(sk, a, b))
          << "ancestor(" << a << "," << b << ")";
      EXPECT_EQ(labeling->IsParent(a, b), sk.parent(b) == a && a != b)
          << "parent(" << a << "," << b << ")";
      // Ids are document-ordered at initial labeling.
      const int want = a == b ? 0 : (a < b ? -1 : 1);
      EXPECT_EQ(labeling->CompareOrder(a, b), want)
          << "order(" << a << "," << b << ")";
    }
  }
}

TEST_P(SchemeConformanceTest, PredicatesMatchStructureOnGeneratedPlay) {
  const xml::Document play = xml::GeneratePlay(17, 400);
  auto labeling = LabelDoc(play);
  const TreeSkeleton& sk = labeling->skeleton();
  const NodeId n = static_cast<NodeId>(labeling->num_nodes());
  ASSERT_EQ(n, 400u);
  // Spot-check a grid of pairs rather than all 160k.
  for (NodeId a = 0; a < n; a += 7) {
    for (NodeId b = 0; b < n; b += 11) {
      ASSERT_EQ(labeling->IsAncestor(a, b), TrueAncestor(sk, a, b))
          << GetParam() << " ancestor(" << a << "," << b << ")";
      ASSERT_EQ(labeling->IsParent(a, b), sk.parent(b) == a && a != b)
          << GetParam() << " parent(" << a << "," << b << ")";
      const int want = a == b ? 0 : (a < b ? -1 : 1);
      ASSERT_EQ(labeling->CompareOrder(a, b), want)
          << GetParam() << " order(" << a << "," << b << ")";
    }
  }
}

TEST_P(SchemeConformanceTest, LabelBitsArePositive) {
  auto parsed = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  EXPECT_GT(labeling->TotalLabelBits(), 0u);
  EXPECT_GT(labeling->AvgLabelBits(), 0.0);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_FALSE(labeling->SerializeLabel(i).empty());
  }
}

TEST_P(SchemeConformanceTest, InsertBeforeKeepsPredicatesConsistent) {
  auto parsed = xml::ParseXml("<a><b/><c/><d/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  const NodeId c = 2;
  const InsertResult result = labeling->InsertSiblingBefore(c);
  const NodeId nn = result.new_node;
  ASSERT_EQ(nn, 4u);
  EXPECT_EQ(labeling->num_nodes(), 5u);
  // New node is a child of the root, between b and c in document order.
  EXPECT_TRUE(labeling->IsParent(0, nn));
  EXPECT_TRUE(labeling->IsAncestor(0, nn));
  EXPECT_FALSE(labeling->IsAncestor(nn, c));
  EXPECT_LT(labeling->CompareOrder(1, nn), 0);  // b before new
  EXPECT_LT(labeling->CompareOrder(nn, c), 0);  // new before c
  EXPECT_GT(labeling->CompareOrder(3, nn), 0);  // d after new
  EXPECT_EQ(labeling->Level(nn), 2);
}

TEST_P(SchemeConformanceTest, InsertAfterLastChild) {
  auto parsed = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  const InsertResult result = labeling->InsertSiblingAfter(2);
  const NodeId nn = result.new_node;
  EXPECT_TRUE(labeling->IsParent(0, nn));
  EXPECT_GT(labeling->CompareOrder(nn, 2), 0);
  EXPECT_GT(labeling->CompareOrder(nn, 1), 0);
}

TEST_P(SchemeConformanceTest, InsertBeforeFirstChild) {
  auto parsed = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  const InsertResult result = labeling->InsertSiblingBefore(1);
  const NodeId nn = result.new_node;
  EXPECT_TRUE(labeling->IsParent(0, nn));
  EXPECT_LT(labeling->CompareOrder(nn, 1), 0);
  EXPECT_GT(labeling->CompareOrder(nn, 0), 0);  // still after the root
}

TEST_P(SchemeConformanceTest, RepeatedInsertionsStayOrdered) {
  auto parsed = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  // Repeatedly insert before c: each new node lands between the previous
  // insertion and c.
  std::vector<NodeId> inserted;
  NodeId target = 2;
  const int rounds = GetParam() == "Prime" ? 8 : 30;
  for (int i = 0; i < rounds; ++i) {
    inserted.push_back(labeling->InsertSiblingBefore(target).new_node);
    target = inserted.back();
  }
  // inserted[k] was inserted before inserted[k-1]: descending document
  // order within the vector.
  for (size_t i = 1; i < inserted.size(); ++i) {
    ASSERT_LT(labeling->CompareOrder(inserted[i], inserted[i - 1]), 0)
        << GetParam() << " at " << i;
  }
  ASSERT_LT(labeling->CompareOrder(1, inserted.back()), 0);
  ASSERT_LT(labeling->CompareOrder(inserted.front(), 2), 0);
}

TEST_P(SchemeConformanceTest, DeleteSubtreeKeepsRemainingOrder) {
  // a(b(c,d), e, f(g)): delete b's subtree; e, f, g keep order/ancestry.
  auto parsed = xml::ParseXml("<a><b><c/><d/></b><e/><f><g/></f></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  // ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6
  const DeleteResult result = labeling->DeleteSubtree(1);
  EXPECT_EQ(result.removed, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_LT(labeling->CompareOrder(4, 5), 0);
  EXPECT_LT(labeling->CompareOrder(0, 4), 0);
  EXPECT_TRUE(labeling->IsParent(0, 4));
  EXPECT_TRUE(labeling->IsParent(5, 6));
  EXPECT_TRUE(labeling->IsAncestor(0, 6));
  EXPECT_EQ(labeling->skeleton().live_count(), 4u);
}

TEST_P(SchemeConformanceTest, InsertIntoGapLeftByDeletion) {
  auto parsed = xml::ParseXml("<a><b/><c/><d/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  labeling->DeleteSubtree(2);  // remove c
  // Insert a new sibling between b and d: the freed label space (or any
  // dynamic gap) must accept it with order intact.
  const InsertResult result = labeling->InsertSiblingAfter(1);
  EXPECT_LT(labeling->CompareOrder(1, result.new_node), 0);
  EXPECT_LT(labeling->CompareOrder(result.new_node, 3), 0);
  EXPECT_TRUE(labeling->IsParent(0, result.new_node));
}

// The size accessor behind the labeling.label_bits histogram agrees with
// the serialized label, also after skewed insertions overflow (CDBS) or
// switch codecs (Hybrid).
TEST_P(SchemeConformanceTest, SerializedLabelSizeMatchesSerializeLabel) {
  auto parsed = xml::ParseXml("<a><b><c/></b><d/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = LabelDoc(*parsed);
  NodeId target = 3;
  for (int i = 0; i < (GetParam() == "Prime" ? 8 : 40); ++i) {
    target = labeling->InsertSiblingBefore(target).new_node;
  }
  labeling->DeleteSubtree(1);
  for (NodeId n = 0; n < labeling->num_nodes(); ++n) {
    if (labeling->skeleton().is_removed(n)) continue;
    EXPECT_EQ(labeling->SerializedLabelSize(n),
              labeling->SerializeLabel(n).size())
        << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeConformanceTest,
    ::testing::Values("Prime", "DeweyID(UTF8)-Prefix", "Binary-String-Prefix",
                      "OrdPath1-Prefix", "OrdPath2-Prefix", "CDBS-Prefix",
                      "QED-Prefix", "Float-point-Containment",
                      "V-Binary-Containment", "F-Binary-Containment",
                      "V-CDBS-Containment", "F-CDBS-Containment",
                      "QED-Containment", "Hybrid-CDBS/QED-Containment"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RegistryTest, AllSchemesHaveUniqueNames) {
  const auto schemes = AllSchemes();
  EXPECT_EQ(schemes.size(), 14u);
  std::vector<std::string> names;
  for (const auto& s : schemes) names.push_back(s->name());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(RegistryTest, DynamicSchemesAreDynamic) {
  // Every "dynamic" scheme must absorb an intermittent insertion with zero
  // re-labeling (the Table 4 claim).
  auto parsed = xml::ParseXml("<a><b/><c/><d/><e/></a>");
  ASSERT_TRUE(parsed.ok());
  for (const auto& scheme : DynamicSchemes()) {
    auto labeling = scheme->Label(*parsed);
    const InsertResult result = labeling->InsertSiblingBefore(2);
    EXPECT_EQ(result.relabeled, 0u) << scheme->name();
    EXPECT_FALSE(result.overflow) << scheme->name();
  }
}

}  // namespace
}  // namespace cdbs::labeling
