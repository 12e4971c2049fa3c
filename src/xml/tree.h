#ifndef CDBS_XML_TREE_H_
#define CDBS_XML_TREE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// The ordered XML tree model the experiments run on: elements, attributes
/// and text nodes, with document order defined by pre-order traversal.
/// Nodes are arena-allocated inside their Document (stable pointers), so a
/// Node* stays valid across insertions and moves of the document.

namespace cdbs::xml {

/// Kind of a tree node.
enum class NodeType {
  kElement,
  kText,
};

class Document;

/// One node of the ordered tree. Created and owned by a Document.
class Node {
 public:
  NodeType type() const { return type_; }
  bool is_element() const { return type_ == NodeType::kElement; }
  bool is_text() const { return type_ == NodeType::kText; }

  /// Element tag name; empty for text nodes.
  const std::string& name() const { return name_; }

  /// Text content; empty for elements.
  const std::string& text() const { return text_; }

  Node* parent() const { return parent_; }

  /// Ordered child list (document order).
  const std::vector<Node*>& children() const { return children_; }
  size_t child_count() const { return children_.size(); }
  Node* child(size_t i) const { return children_[i]; }

  /// Attributes as (name, value) pairs in document order. Attributes are
  /// modeled as metadata, not tree nodes; none of the paper's experiments
  /// label attributes.
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }
  void SetAttribute(std::string name, std::string value) {
    attributes_.emplace_back(std::move(name), std::move(value));
  }

  /// 0-based index of `child` in this node's child list; requires presence.
  size_t IndexOfChild(const Node* child) const;

  /// Depth of this node: the root has depth 1.
  int Depth() const;

 private:
  friend class Document;
  Node(NodeType type, std::string name_or_text);

  NodeType type_;
  std::string name_;
  std::string text_;
  Node* parent_ = nullptr;
  std::vector<Node*> children_;
  std::vector<std::pair<std::string, std::string>> attributes_;
};

/// An XML document: owns its nodes, exposes construction and mutation.
class Document {
 public:
  Document() = default;

  /// Move-only: nodes hold back-pointers into the arenas. Moving transfers
  /// the nodes without relocating them and leaves the source empty (no
  /// root, no nodes).
  Document(Document&& other);
  Document& operator=(Document&& other);
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Root element, or nullptr for an empty document.
  Node* root() const { return root_; }

  /// Creates the root element. Requires no root yet.
  Node* CreateRoot(std::string_view name);

  /// Creates a detached element node (attach with AppendChild/InsertChildAt).
  Node* CreateElement(std::string_view name);

  /// Creates a detached text node.
  Node* CreateText(std::string_view text);

  /// Appends `child` (detached) as the last child of `parent`.
  void AppendChild(Node* parent, Node* child);

  /// Inserts `child` (detached) so it becomes parent->child(index); existing
  /// children at >= index shift right. Requires index <= child_count().
  void InsertChildAt(Node* parent, size_t index, Node* child);

  /// Detaches `child` (and its subtree) from `parent`. The nodes remain
  /// owned by the document's arena but are no longer reachable from the
  /// root. Requires that child is currently a child of parent.
  void RemoveChild(Node* parent, Node* child);

  /// Total number of nodes attached under the root (elements + text).
  size_t node_count() const;

  /// Pre-order (document order) visit of all attached nodes.
  void Visit(const std::function<void(Node*)>& fn) const;

  /// Nodes in document order as a vector (convenience for labeling).
  std::vector<Node*> NodesInDocumentOrder() const;

  /// Deep-copies `other` into this document under `parent` (used by the
  /// dataset scaling helper). `parent == nullptr` makes the copy the root.
  Node* DeepCopy(const Node* source, Node* parent);

 private:
  Node* NewNode(NodeType type, std::string_view payload);

  // Stable addresses: a deque never relocates its elements, and moving a
  // deque hands over its blocks.
  std::deque<Node> arena_;
  Node* root_ = nullptr;
};

}  // namespace cdbs::xml

#endif  // CDBS_XML_TREE_H_
