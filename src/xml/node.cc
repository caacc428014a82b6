#include "xml/node.h"

namespace hopi::xml {

Element::~Element() {
  // Each descendant gives up its children to `pending` before it is
  // destroyed, so it dies childless and no destructor recurses.
  std::vector<std::unique_ptr<Element>> pending = std::move(children_);
  while (!pending.empty()) {
    std::unique_ptr<Element> e = std::move(pending.back());
    pending.pop_back();
    for (auto& c : e->children_) pending.push_back(std::move(c));
    e->children_.clear();
  }
}

const std::string* Element::FindAttribute(std::string_view name) const {
  for (const Attribute& a : attributes_) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

Element* Element::AddChild(std::unique_ptr<Element> child) {
  children_.push_back(std::move(child));
  return children_.back().get();
}

size_t Element::SubtreeSize() const {
  size_t n = 0;
  std::vector<const Element*> stack = {this};
  while (!stack.empty()) {
    const Element* e = stack.back();
    stack.pop_back();
    ++n;
    for (const auto& c : e->children_) stack.push_back(c.get());
  }
  return n;
}

}  // namespace hopi::xml
