#include <vector>

#include <gtest/gtest.h>

#include "labeling/label.h"
#include "xml/parser.h"

namespace cdbs::labeling {
namespace {

xml::Document Sample() {
  auto result = xml::ParseXml("<a><b><d/><e/></b><c/></a>");
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(TreeSkeletonTest, FromDocumentAssignsDocumentOrderIds) {
  const xml::Document doc = Sample();
  std::vector<const xml::Node*> order;
  const TreeSkeleton sk = TreeSkeleton::FromDocument(doc, &order);
  ASSERT_EQ(sk.size(), 5u);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0]->name(), "a");
  EXPECT_EQ(order[1]->name(), "b");
  EXPECT_EQ(order[2]->name(), "d");
  EXPECT_EQ(order[3]->name(), "e");
  EXPECT_EQ(order[4]->name(), "c");
}

TEST(TreeSkeletonTest, Links) {
  const TreeSkeleton sk = TreeSkeleton::FromDocument(Sample(), nullptr);
  // ids: a=0 b=1 d=2 e=3 c=4
  EXPECT_EQ(sk.parent(0), kNoNode);
  EXPECT_EQ(sk.parent(1), 0u);
  EXPECT_EQ(sk.parent(2), 1u);
  EXPECT_EQ(sk.parent(4), 0u);
  EXPECT_EQ(sk.first_child(0), 1u);
  EXPECT_EQ(sk.last_child(0), 4u);
  EXPECT_EQ(sk.next_sibling(1), 4u);
  EXPECT_EQ(sk.prev_sibling(4), 1u);
  EXPECT_EQ(sk.next_sibling(2), 3u);
  EXPECT_EQ(sk.prev_sibling(2), kNoNode);
  EXPECT_EQ(sk.level(0), 1);
  EXPECT_EQ(sk.level(2), 3);
}

TEST(TreeSkeletonTest, SubtreeSize) {
  const TreeSkeleton sk = TreeSkeleton::FromDocument(Sample(), nullptr);
  EXPECT_EQ(sk.SubtreeSize(0), 5u);
  EXPECT_EQ(sk.SubtreeSize(1), 3u);
  EXPECT_EQ(sk.SubtreeSize(2), 1u);
}

TEST(TreeSkeletonTest, ChildRank) {
  const TreeSkeleton sk = TreeSkeleton::FromDocument(Sample(), nullptr);
  EXPECT_EQ(sk.ChildRank(1), 1u);
  EXPECT_EQ(sk.ChildRank(4), 2u);
  EXPECT_EQ(sk.ChildRank(3), 2u);
}

TEST(TreeSkeletonTest, AddSiblingBeforeUpdatesLinks) {
  TreeSkeleton sk = TreeSkeleton::FromDocument(Sample(), nullptr);
  const NodeId id = sk.AddSiblingBefore(4);  // before c
  EXPECT_EQ(id, 5u);
  EXPECT_EQ(sk.parent(id), 0u);
  EXPECT_EQ(sk.level(id), 2);
  EXPECT_EQ(sk.prev_sibling(id), 1u);
  EXPECT_EQ(sk.next_sibling(id), 4u);
  EXPECT_EQ(sk.next_sibling(1), id);
  EXPECT_EQ(sk.prev_sibling(4), id);
}

TEST(TreeSkeletonTest, AddSiblingBeforeFirstChild) {
  TreeSkeleton sk = TreeSkeleton::FromDocument(Sample(), nullptr);
  const NodeId id = sk.AddSiblingBefore(1);  // before b
  EXPECT_EQ(sk.first_child(0), id);
  EXPECT_EQ(sk.prev_sibling(id), kNoNode);
  EXPECT_EQ(sk.next_sibling(id), 1u);
  EXPECT_EQ(sk.ChildRank(1), 2u);
}

TEST(TreeSkeletonTest, AddSiblingAfterLastChild) {
  TreeSkeleton sk = TreeSkeleton::FromDocument(Sample(), nullptr);
  const NodeId id = sk.AddSiblingAfter(4);  // after c
  EXPECT_EQ(sk.last_child(0), id);
  EXPECT_EQ(sk.next_sibling(id), kNoNode);
  EXPECT_EQ(sk.prev_sibling(id), 4u);
}

TEST(TreeSkeletonTest, ChainedInsertions) {
  TreeSkeleton sk = TreeSkeleton::FromDocument(Sample(), nullptr);
  NodeId last = 4;
  for (int i = 0; i < 10; ++i) last = sk.AddSiblingBefore(last);
  // All ten new nodes sit between b (id 1) and c (id 4).
  size_t count = 0;
  for (NodeId n = sk.first_child(0); n != kNoNode; n = sk.next_sibling(n)) {
    ++count;
  }
  EXPECT_EQ(count, 12u);
  EXPECT_EQ(sk.ChildRank(4), 12u);
}

// No column stores `removed` or `last_child`: a removed node is one with no
// parent other than the root, and a parent's last child is found from the
// links, also when children are added out of pre-order.
TEST(TreeSkeletonTest, RemovedAndLastChildComeFromTheLinks) {
  TreeSkeleton sk = TreeSkeleton::FromDocument(Sample(), nullptr);
  // ids: a=0 b=1 d=2 e=3 c=4
  EXPECT_EQ(sk.last_child(1), 3u);
  EXPECT_EQ(sk.RemoveSubtree(1), (std::vector<NodeId>{1, 2, 3}));
  for (const NodeId n : {1u, 2u, 3u}) EXPECT_TRUE(sk.is_removed(n)) << n;
  EXPECT_FALSE(sk.is_removed(0));
  EXPECT_FALSE(sk.is_removed(4));
  EXPECT_EQ(sk.first_child(0), 4u);
  EXPECT_EQ(sk.last_child(0), 4u);
  EXPECT_EQ(sk.live_count(), 2u);

  // Children added to a node after nodes below a later sibling (not a
  // pre-order build) still go last.
  TreeSkeleton built;
  const NodeId root = built.AddNode(kNoNode);
  const NodeId x = built.AddNode(root);
  const NodeId y = built.AddNode(root);
  const NodeId y1 = built.AddNode(y);
  const NodeId x1 = built.AddNode(x);
  const NodeId x2 = built.AddNode(x);
  const NodeId z = built.AddNode(root);
  EXPECT_EQ(built.last_child(root), z);
  EXPECT_EQ(built.next_sibling(y), z);
  EXPECT_EQ(built.prev_sibling(z), y);
  EXPECT_EQ(built.first_child(x), x1);
  EXPECT_EQ(built.next_sibling(x1), x2);
  EXPECT_EQ(built.last_child(x), x2);
  EXPECT_EQ(built.last_child(y), y1);
  EXPECT_EQ(built.level(x2), 3);
}

// Levels are stored in 16 bits; a deeper tree fails loudly rather than
// wrapping.
TEST(TreeSkeletonDeathTest, LevelPastSixteenBitsAborts) {
  TreeSkeleton sk;
  NodeId parent = sk.AddNode(kNoNode);
  for (int level = 2; level <= 65535; ++level) parent = sk.AddNode(parent);
  EXPECT_EQ(sk.level(parent), 65535);
  EXPECT_DEATH(sk.AddNode(parent), "CDBS_CHECK failed");
}

}  // namespace
}  // namespace cdbs::labeling
