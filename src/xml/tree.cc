#include "xml/tree.h"

#include <utility>

#include "util/check.h"

namespace cdbs::xml {

Node::Node(NodeType type, std::string name_or_text) : type_(type) {
  if (type_ == NodeType::kElement) {
    name_ = std::move(name_or_text);
  } else {
    text_ = std::move(name_or_text);
  }
}

size_t Node::IndexOfChild(const Node* child) const {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i] == child) return i;
  }
  CDBS_CHECK(false && "child not found");
  return 0;
}

int Node::Depth() const {
  int depth = 1;
  for (const Node* p = parent_; p != nullptr; p = p->parent_) ++depth;
  return depth;
}

Document::Document(Document&& other)
    : arena_(std::move(other.arena_)),
      root_(std::exchange(other.root_, nullptr)) {
  other.arena_.clear();
}

Document& Document::operator=(Document&& other) {
  if (this != &other) {
    arena_ = std::move(other.arena_);
    root_ = std::exchange(other.root_, nullptr);
    other.arena_.clear();
  }
  return *this;
}

Node* Document::NewNode(NodeType type, std::string_view payload) {
  arena_.push_back(Node(type, std::string(payload)));
  return &arena_.back();
}

Node* Document::CreateRoot(std::string_view name) {
  CDBS_CHECK(root_ == nullptr);
  root_ = NewNode(NodeType::kElement, name);
  return root_;
}

Node* Document::CreateElement(std::string_view name) {
  return NewNode(NodeType::kElement, name);
}

Node* Document::CreateText(std::string_view text) {
  return NewNode(NodeType::kText, text);
}

void Document::AppendChild(Node* parent, Node* child) {
  CDBS_CHECK(parent != nullptr && child != nullptr);
  CDBS_CHECK(child->parent_ == nullptr && child != root_);
  child->parent_ = parent;
  parent->children_.push_back(child);
}

void Document::InsertChildAt(Node* parent, size_t index, Node* child) {
  CDBS_CHECK(parent != nullptr && child != nullptr);
  CDBS_CHECK(child->parent_ == nullptr && child != root_);
  CDBS_CHECK(index <= parent->children_.size());
  child->parent_ = parent;
  parent->children_.insert(
      parent->children_.begin() + static_cast<ptrdiff_t>(index), child);
}

void Document::RemoveChild(Node* parent, Node* child) {
  CDBS_CHECK(parent != nullptr && child != nullptr);
  CDBS_CHECK(child->parent_ == parent);
  const size_t index = parent->IndexOfChild(child);
  parent->children_.erase(parent->children_.begin() +
                          static_cast<ptrdiff_t>(index));
  child->parent_ = nullptr;
}

size_t Document::node_count() const {
  size_t count = 0;
  Visit([&count](Node*) { ++count; });
  return count;
}

void Document::Visit(const std::function<void(Node*)>& fn) const {
  if (root_ == nullptr) return;
  // Explicit stack: documents reach hundreds of thousands of nodes and we
  // must not rely on call-stack depth (trees are shallow here, but the
  // iterative form also lets us push children in reverse for document
  // order).
  std::vector<Node*> stack = {root_};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    fn(node);
    const auto& kids = node->children();
    for (size_t i = kids.size(); i-- > 0;) stack.push_back(kids[i]);
  }
}

std::vector<Node*> Document::NodesInDocumentOrder() const {
  std::vector<Node*> nodes;
  Visit([&nodes](Node* n) { nodes.push_back(n); });
  return nodes;
}

Node* Document::DeepCopy(const Node* source, Node* parent) {
  CDBS_CHECK(source != nullptr);
  Node* copy;
  if (source->is_element()) {
    copy = parent == nullptr ? CreateRoot(source->name())
                             : CreateElement(source->name());
  } else {
    CDBS_CHECK(parent != nullptr);  // a text node cannot be the root
    copy = CreateText(source->text());
  }
  for (const auto& [name, value] : source->attributes()) {
    copy->SetAttribute(name, value);
  }
  if (parent != nullptr) AppendChild(parent, copy);
  for (const Node* child : source->children()) {
    DeepCopy(child, copy);
  }
  return copy;
}

}  // namespace cdbs::xml
