#include "xml/tree.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "xml/writer.h"

namespace cdbs::xml {
namespace {

Document MakeSample() {
  // book(title("T"), section(p, p), section(p))
  Document doc;
  Node* book = doc.CreateRoot("book");
  Node* title = doc.CreateElement("title");
  doc.AppendChild(book, title);
  doc.AppendChild(title, doc.CreateText("T"));
  Node* s1 = doc.CreateElement("section");
  doc.AppendChild(book, s1);
  doc.AppendChild(s1, doc.CreateElement("p"));
  doc.AppendChild(s1, doc.CreateElement("p"));
  Node* s2 = doc.CreateElement("section");
  doc.AppendChild(book, s2);
  doc.AppendChild(s2, doc.CreateElement("p"));
  return doc;
}

TEST(TreeTest, EmptyDocument) {
  Document doc;
  EXPECT_EQ(doc.root(), nullptr);
  EXPECT_EQ(doc.node_count(), 0u);
  EXPECT_TRUE(doc.NodesInDocumentOrder().empty());
}

TEST(TreeTest, BuildAndCount) {
  Document doc = MakeSample();
  EXPECT_EQ(doc.node_count(), 8u);
  EXPECT_EQ(doc.root()->name(), "book");
  EXPECT_EQ(doc.root()->child_count(), 3u);
}

TEST(TreeTest, NodeTypes) {
  Document doc = MakeSample();
  EXPECT_TRUE(doc.root()->is_element());
  const Node* title = doc.root()->child(0);
  EXPECT_TRUE(title->is_element());
  ASSERT_EQ(title->child_count(), 1u);
  EXPECT_TRUE(title->child(0)->is_text());
  EXPECT_EQ(title->child(0)->text(), "T");
}

TEST(TreeTest, DocumentOrderIsPreOrder) {
  Document doc = MakeSample();
  std::vector<std::string> names;
  doc.Visit([&](Node* n) {
    names.push_back(n->is_element() ? n->name() : "#text");
  });
  EXPECT_EQ(names,
            (std::vector<std::string>{"book", "title", "#text", "section",
                                      "p", "p", "section", "p"}));
}

TEST(TreeTest, ParentLinks) {
  Document doc = MakeSample();
  const Node* s1 = doc.root()->child(1);
  EXPECT_EQ(s1->parent(), doc.root());
  EXPECT_EQ(s1->child(0)->parent(), s1);
  EXPECT_EQ(doc.root()->parent(), nullptr);
}

TEST(TreeTest, Depth) {
  Document doc = MakeSample();
  EXPECT_EQ(doc.root()->Depth(), 1);
  EXPECT_EQ(doc.root()->child(0)->Depth(), 2);
  EXPECT_EQ(doc.root()->child(1)->child(0)->Depth(), 3);
}

TEST(TreeTest, IndexOfChild) {
  Document doc = MakeSample();
  const Node* root = doc.root();
  EXPECT_EQ(root->IndexOfChild(root->child(0)), 0u);
  EXPECT_EQ(root->IndexOfChild(root->child(2)), 2u);
}

TEST(TreeTest, InsertChildAt) {
  Document doc = MakeSample();
  Node* inserted = doc.CreateElement("preface");
  doc.InsertChildAt(doc.root(), 1, inserted);
  EXPECT_EQ(doc.root()->child(1), inserted);
  EXPECT_EQ(doc.root()->child_count(), 4u);
  EXPECT_EQ(inserted->parent(), doc.root());
  EXPECT_EQ(doc.node_count(), 9u);
}

TEST(TreeTest, InsertChildAtFrontAndBack) {
  Document doc = MakeSample();
  Node* first = doc.CreateElement("first");
  doc.InsertChildAt(doc.root(), 0, first);
  EXPECT_EQ(doc.root()->child(0), first);
  Node* last = doc.CreateElement("last");
  doc.InsertChildAt(doc.root(), doc.root()->child_count(), last);
  EXPECT_EQ(doc.root()->child(doc.root()->child_count() - 1), last);
}

TEST(TreeTest, Attributes) {
  Document doc;
  Node* root = doc.CreateRoot("a");
  root->SetAttribute("id", "42");
  root->SetAttribute("lang", "en");
  ASSERT_EQ(root->attributes().size(), 2u);
  EXPECT_EQ(root->attributes()[0].first, "id");
  EXPECT_EQ(root->attributes()[0].second, "42");
  EXPECT_EQ(root->attributes()[1].first, "lang");
}

TEST(TreeTest, DeepCopyIsStructurallyIdentical) {
  Document src = MakeSample();
  Document dst;
  dst.DeepCopy(src.root(), nullptr);
  EXPECT_EQ(dst.node_count(), src.node_count());
  std::vector<std::string> src_names;
  std::vector<std::string> dst_names;
  src.Visit([&](Node* n) { src_names.push_back(n->name() + n->text()); });
  dst.Visit([&](Node* n) { dst_names.push_back(n->name() + n->text()); });
  EXPECT_EQ(src_names, dst_names);
  // Copies are independent.
  dst.AppendChild(dst.root(), dst.CreateElement("extra"));
  EXPECT_EQ(src.node_count() + 1, dst.node_count());
}

// --- Moves and Adopt: nodes change owner, never address ---

TEST(TreeTest, MoveConstructionLeavesTheSourceEmpty) {
  Document a = MakeSample();
  const std::vector<Node*> nodes = a.NodesInDocumentOrder();
  Document b = std::move(a);
  EXPECT_EQ(a.root(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.node_count(), 0u);
  EXPECT_EQ(b.NodesInDocumentOrder(), nodes);
  // The source is a usable empty document, independent of `b`.
  a.CreateRoot("fresh");
  EXPECT_EQ(a.node_count(), 1u);
  EXPECT_EQ(b.node_count(), 8u);
}

TEST(TreeTest, MoveAssignmentLeavesTheSourceEmpty) {
  Document a = MakeSample();
  const std::vector<Node*> nodes = a.NodesInDocumentOrder();
  Document b;
  b.CreateRoot("replaced");
  b = std::move(a);
  EXPECT_EQ(a.root(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.node_count(), 0u);
  EXPECT_EQ(b.NodesInDocumentOrder(), nodes);
  Document& same = b;
  b = std::move(same);  // self-move keeps the tree
  EXPECT_EQ(b.NodesInDocumentOrder(), nodes);
}

// A reference for Adopt: `parts` deep-copied, in order, under a "shard"
// root.
std::string MergedByDeepCopy(const std::vector<Document>& parts) {
  Document merged;
  Node* root = merged.CreateRoot("shard");
  for (const Document& part : parts) merged.DeepCopy(part.root(), root);
  return WriteXml(merged);
}

TEST(TreeTest, AdoptKeepsEveryNodeAddress) {
  std::vector<Document> parts;
  parts.push_back(MakeSample());
  parts.push_back(MakeSample());
  parts[1].root()->SetAttribute("id", "2");
  const std::string reference = MergedByDeepCopy(parts);

  Document merged;
  Node* root = merged.CreateRoot("shard");
  std::vector<Node*> expected = {root};
  for (Document& part : parts) {
    const std::vector<Node*> nodes = part.NodesInDocumentOrder();
    expected.insert(expected.end(), nodes.begin(), nodes.end());
    EXPECT_EQ(merged.Adopt(std::move(part), root), nodes[0]);
    EXPECT_EQ(nodes[0]->parent(), root);
    EXPECT_EQ(part.root(), nullptr);
    EXPECT_EQ(part.node_count(), 0u);
  }
  EXPECT_EQ(merged.NodesInDocumentOrder(), expected);
  EXPECT_EQ(WriteXml(merged), reference);
}

TEST(TreeTest, AdoptingAnAdopterKeepsAllItsNodesAlive) {
  // inner adopts two samples; outer adopts inner, then the whole tree is
  // moved once more. Every node must survive each hand-over (ASan flags a
  // node freed with an intermediate document).
  Document inner;
  Node* inner_root = inner.CreateRoot("inner");
  std::vector<Node*> expected = {inner_root};
  for (int i = 0; i < 2; ++i) {
    Document part = MakeSample();
    const std::vector<Node*> nodes = part.NodesInDocumentOrder();
    expected.insert(expected.end(), nodes.begin(), nodes.end());
    inner.Adopt(std::move(part), inner_root);
  }
  Document outer;
  Node* outer_root = outer.CreateRoot("outer");
  outer.Adopt(std::move(inner), outer_root);
  expected.insert(expected.begin(), outer_root);
  Document last = std::move(outer);
  EXPECT_EQ(last.NodesInDocumentOrder(), expected);
  EXPECT_EQ(inner_root->parent(), outer_root);
  const std::string book =
      "<book><title>T</title><section><p/><p/></section>"
      "<section><p/></section></book>";
  EXPECT_EQ(WriteXml(last), "<outer><inner>" + book + book + "</inner></outer>");
}

TEST(TreeTest, AdoptedNodesTakeInsertsAndRemovals) {
  Document merged;
  Node* root = merged.CreateRoot("shard");
  Node* book = merged.Adopt(MakeSample(), root);
  Node* s1 = book->child(1);
  Node* added = merged.CreateElement("p");
  merged.InsertChildAt(s1, 1, added);
  EXPECT_EQ(s1->child(1), added);
  EXPECT_EQ(added->parent(), s1);
  Node* s2 = book->child(2);
  merged.RemoveChild(book, s2);
  EXPECT_EQ(s2->parent(), nullptr);
  merged.InsertChildAt(root, 0, s2);  // a detached adopted node re-attaches
  EXPECT_EQ(WriteXml(merged),
            "<shard><section><p/></section><book><title>T</title>"
            "<section><p/><p/><p/></section></book></shard>");
  EXPECT_EQ(merged.node_count(), 10u);
}

TEST(TreeTest, NodesInDocumentOrderMatchesVisit) {
  Document doc = MakeSample();
  const std::vector<Node*> nodes = doc.NodesInDocumentOrder();
  size_t i = 0;
  doc.Visit([&](Node* n) {
    ASSERT_LT(i, nodes.size());
    EXPECT_EQ(nodes[i++], n);
  });
  EXPECT_EQ(i, nodes.size());
}

TEST(TreeTest, LargeFlatTree) {
  Document doc;
  Node* root = doc.CreateRoot("root");
  for (int i = 0; i < 10000; ++i) {
    doc.AppendChild(root, doc.CreateElement("item"));
  }
  EXPECT_EQ(doc.node_count(), 10001u);
  EXPECT_EQ(root->child_count(), 10000u);
}

}  // namespace
}  // namespace cdbs::xml
