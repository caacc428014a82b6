// DOM-lite XML element tree.
//
// HOPI only needs element structure, attributes (for IDs and XLink hrefs)
// and — for the search-engine layer — element text. The model deliberately
// ignores sibling order beyond document order of storage: the paper's
// formal model (Sec 2) disregards child ordering for schema-less
// collections.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hopi::xml {

/// One attribute name/value pair, e.g. ("xlink:href", "doc42.xml#e7").
struct Attribute {
  std::string name;
  std::string value;
};

/// An XML element. Owns its children. Destruction and SubtreeSize walk
/// the subtree with an explicit stack, so a document nested deeper than
/// the call stack allows is as safe to drop as it is to parse.
class Element {
 public:
  explicit Element(std::string tag) : tag_(std::move(tag)) {}
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;
  ~Element();

  const std::string& tag() const { return tag_; }

  const std::vector<Attribute>& attributes() const { return attributes_; }
  void AddAttribute(std::string name, std::string value) {
    attributes_.push_back({std::move(name), std::move(value)});
  }
  /// Value of the named attribute, or nullptr when absent.
  const std::string* FindAttribute(std::string_view name) const;

  /// Concatenated character data directly inside this element.
  const std::string& text() const { return text_; }
  void AppendText(std::string_view t) { text_.append(t); }

  const std::vector<std::unique_ptr<Element>>& children() const {
    return children_;
  }
  /// Appends a child and returns a borrowed pointer to it.
  Element* AddChild(std::unique_ptr<Element> child);

  /// Number of elements in this subtree including this element.
  size_t SubtreeSize() const;

 private:
  std::string tag_;
  std::vector<Attribute> attributes_;
  std::string text_;
  std::vector<std::unique_ptr<Element>> children_;
};

/// A parsed XML document: a name (acts as its URI for link resolution)
/// plus the root element.
struct Document {
  std::string name;
  std::unique_ptr<Element> root;
};

}  // namespace hopi::xml
