#include "xml/parser.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <optional>
#include <sstream>

namespace hopi::xml {

namespace {

/// Cursor over the input with error context.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char Get() { return input_[pos_++]; }
  size_t pos() const { return pos_; }

  bool StartsWith(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }
  void Skip(size_t n) { pos_ += n; }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  /// Advances past `terminator`, returns false if not found.
  bool SkipPast(std::string_view terminator) {
    size_t found = input_.find(terminator, pos_);
    if (found == std::string_view::npos) return false;
    pos_ = found + terminator.size();
    return true;
  }

  /// Returns the text up to (excluding) `terminator` and advances past it;
  /// nullopt if the terminator is missing.
  std::optional<std::string_view> TakeUntil(std::string_view terminator) {
    size_t found = input_.find(terminator, pos_);
    if (found == std::string_view::npos) return std::nullopt;
    std::string_view content = input_.substr(pos_, found - pos_);
    pos_ = found + terminator.size();
    return content;
  }

  std::string_view Remaining() const { return input_.substr(pos_); }

 private:
  std::string_view input_;
  size_t pos_ = 0;
};

Status ParseError(const Cursor& c, const std::string& what) {
  return Status::Corruption("XML parse error at byte " +
                            std::to_string(c.pos()) + ": " + what);
}

bool IsNameStart(char ch) {
  return std::isalpha(static_cast<unsigned char>(ch)) || ch == '_' ||
         ch == ':';
}
bool IsNameChar(char ch) {
  return IsNameStart(ch) || std::isdigit(static_cast<unsigned char>(ch)) ||
         ch == '-' || ch == '.';
}

std::string ParseName(Cursor* c) {
  std::string name;
  while (!c->AtEnd() && IsNameChar(c->Peek())) name.push_back(c->Get());
  return name;
}

/// The XML 1.0 Char production: #x9 | #xA | #xD | [#x20-#xD7FF] |
/// [#xE000-#xFFFD] | [#x10000-#x10FFFF].
bool IsXmlChar(uint32_t cp) {
  if (cp < 0x20) return cp == 0x9 || cp == 0xA || cp == 0xD;
  return cp <= 0xD7FF || (cp >= 0xE000 && cp <= 0xFFFD) ||
         (cp >= 0x10000 && cp <= 0x10FFFF);
}

/// Decodes entity and character references in raw text.
Status DecodeText(Cursor* c, std::string_view raw, std::string* out) {
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      out->push_back(raw[i]);
      continue;
    }
    size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      return ParseError(*c, "unterminated entity reference");
    }
    std::string_view ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      out->push_back('&');
    } else if (ent == "lt") {
      out->push_back('<');
    } else if (ent == "gt") {
      out->push_back('>');
    } else if (ent == "quot") {
      out->push_back('"');
    } else if (ent == "apos") {
      out->push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      // "#" then decimal digits, or "#x" then hex digits: at least one
      // digit, and nothing else before the ';'.
      const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
      std::string_view digits = ent.substr(hex ? 2 : 1);
      const char* end = digits.data() + digits.size();
      uint32_t cp = 0;
      auto [stop, ec] = std::from_chars(digits.data(), end, cp, hex ? 16 : 10);
      if (ec != std::errc() || stop != end || !IsXmlChar(cp)) {
        return ParseError(*c, "bad character reference &" +
                                  std::string(ent) + ";");
      }
      // UTF-8 encode.
      if (cp < 0x80) {
        out->push_back(static_cast<char>(cp));
      } else if (cp < 0x800) {
        out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else if (cp < 0x10000) {
        out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else {
        out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      }
    } else {
      return ParseError(*c, "unknown entity &" + std::string(ent) + ";");
    }
    i = semi;
  }
  return Status::OK();
}

Status ParseAttributes(Cursor* c, Element* elem) {
  for (;;) {
    c->SkipWhitespace();
    if (c->AtEnd()) return ParseError(*c, "unterminated start tag");
    char ch = c->Peek();
    if (ch == '>' || ch == '/' || ch == '?') return Status::OK();
    if (!IsNameStart(ch)) return ParseError(*c, "expected attribute name");
    std::string name = ParseName(c);
    c->SkipWhitespace();
    if (c->AtEnd() || c->Get() != '=') {
      return ParseError(*c, "expected '=' after attribute name");
    }
    c->SkipWhitespace();
    if (c->AtEnd()) return ParseError(*c, "expected attribute value");
    char quote = c->Get();
    if (quote != '"' && quote != '\'') {
      return ParseError(*c, "attribute value must be quoted");
    }
    std::string raw;
    while (!c->AtEnd() && c->Peek() != quote) raw.push_back(c->Get());
    if (c->AtEnd()) return ParseError(*c, "unterminated attribute value");
    c->Get();  // closing quote
    std::string value;
    HOPI_RETURN_NOT_OK(DecodeText(c, raw, &value));
    elem->AddAttribute(std::move(name), std::move(value));
  }
}

/// Parses one element whose '<' has already been consumed and whose name
/// follows. Returns the element; recurses for children (iteratively via an
/// explicit stack to be robust for deep documents).
Result<std::unique_ptr<Element>> ParseElementTree(Cursor* c) {
  std::vector<Element*> stack;
  std::unique_ptr<Element> root;

  auto open_element = [&](std::unique_ptr<Element> elem,
                          bool self_closing) -> Element* {
    Element* borrowed;
    if (stack.empty()) {
      assert(root == nullptr);
      root = std::move(elem);
      borrowed = root.get();
    } else {
      borrowed = stack.back()->AddChild(std::move(elem));
    }
    if (!self_closing) stack.push_back(borrowed);
    return borrowed;
  };

  for (;;) {
    if (c->AtEnd()) return ParseError(*c, "unexpected end of input");
    if (c->Peek() == '<') {
      c->Get();
      if (c->AtEnd()) return ParseError(*c, "dangling '<'");
      char ch = c->Peek();
      if (ch == '/') {
        // Closing tag.
        c->Get();
        std::string name = ParseName(c);
        c->SkipWhitespace();
        if (c->AtEnd() || c->Get() != '>') {
          return ParseError(*c, "malformed closing tag");
        }
        if (stack.empty()) {
          return ParseError(*c, "closing tag </" + name + "> with no open tag");
        }
        if (stack.back()->tag() != name) {
          return ParseError(*c, "mismatched closing tag </" + name +
                                    ">, expected </" + stack.back()->tag() +
                                    ">");
        }
        stack.pop_back();
        if (stack.empty()) return root;
      } else if (c->StartsWith("!--")) {
        if (!c->SkipPast("-->")) return ParseError(*c, "unterminated comment");
      } else if (c->StartsWith("![CDATA[")) {
        c->Skip(8);
        auto cdata = c->TakeUntil("]]>");
        if (!cdata) return ParseError(*c, "unterminated CDATA");
        if (stack.empty()) {
          return ParseError(*c, "CDATA outside root element");
        }
        stack.back()->AppendText(*cdata);  // CDATA is literal, no decoding
      } else if (ch == '?') {
        if (!c->SkipPast("?>")) return ParseError(*c, "unterminated PI");
      } else if (ch == '!') {
        // DOCTYPE or other declaration; skip to '>' (no internal subset
        // nesting support needed for our collections).
        if (!c->SkipPast(">")) return ParseError(*c, "unterminated declaration");
      } else if (IsNameStart(ch)) {
        std::string name = ParseName(c);
        auto elem = std::make_unique<Element>(name);
        HOPI_RETURN_NOT_OK(ParseAttributes(c, elem.get()));
        c->SkipWhitespace();
        if (c->AtEnd()) return ParseError(*c, "unterminated start tag");
        char end = c->Get();
        if (end == '/') {
          if (c->AtEnd() || c->Get() != '>') {
            return ParseError(*c, "malformed self-closing tag");
          }
          Element* borrowed = open_element(std::move(elem), true);
          (void)borrowed;
          if (stack.empty()) return root;
        } else if (end == '>') {
          open_element(std::move(elem), false);
        } else {
          return ParseError(*c, "malformed start tag");
        }
      } else {
        return ParseError(*c, "unexpected character after '<'");
      }
    } else {
      // Character data up to the next '<'.
      std::string raw;
      while (!c->AtEnd() && c->Peek() != '<') raw.push_back(c->Get());
      if (!stack.empty()) {
        std::string text;
        HOPI_RETURN_NOT_OK(DecodeText(c, raw, &text));
        stack.back()->AppendText(text);
      } else {
        // Whitespace between prolog and root is fine; anything else is not.
        for (char t : raw) {
          if (!std::isspace(static_cast<unsigned char>(t))) {
            return ParseError(*c, "character data outside root element");
          }
        }
      }
    }
  }
}

}  // namespace

Result<Document> ParseDocument(std::string_view input, std::string name) {
  Cursor c(input);
  // Prolog: XML declaration, comments, DOCTYPE, whitespace.
  for (;;) {
    c.SkipWhitespace();
    if (c.AtEnd()) return ParseError(c, "document has no root element");
    if (c.StartsWith("<?")) {
      if (!c.SkipPast("?>")) return ParseError(c, "unterminated declaration");
    } else if (c.StartsWith("<!--")) {
      if (!c.SkipPast("-->")) return ParseError(c, "unterminated comment");
    } else if (c.StartsWith("<!")) {
      if (!c.SkipPast(">")) return ParseError(c, "unterminated DOCTYPE");
    } else {
      break;
    }
  }
  auto root = ParseElementTree(&c);
  if (!root.ok()) return root.status();
  Document doc;
  doc.name = std::move(name);
  doc.root = std::move(root).value();
  return doc;
}

namespace {

void SerializeRec(const Element& e, int depth, std::ostringstream* out) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  *out << indent << '<' << e.tag();
  for (const Attribute& a : e.attributes()) {
    *out << ' ' << a.name << "=\"" << EscapeText(a.value) << '"';
  }
  if (e.children().empty() && e.text().empty()) {
    *out << "/>\n";
    return;
  }
  *out << '>';
  if (!e.text().empty()) *out << EscapeText(e.text());
  if (!e.children().empty()) {
    *out << '\n';
    for (const auto& c : e.children()) SerializeRec(*c, depth + 1, out);
    *out << indent;
  }
  *out << "</" << e.tag() << ">\n";
}

}  // namespace

std::string Serialize(const Element& root) {
  std::ostringstream out;
  SerializeRec(root, 0, &out);
  return out.str();
}

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    switch (ch) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(ch);
    }
  }
  return out;
}

}  // namespace hopi::xml
