#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <string_view>

#include "datagen/dblp.h"
#include "util/rng.h"
#include "xml/parser.h"

namespace hopi::xml {
namespace {

TEST(XmlParserTest, MinimalDocument) {
  auto doc = ParseDocument("<root/>", "a.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->name, "a.xml");
  EXPECT_EQ(doc->root->tag(), "root");
  EXPECT_TRUE(doc->root->children().empty());
}

TEST(XmlParserTest, NestedElementsAndText) {
  auto doc = ParseDocument("<a><b>hello</b><c><d/></c></a>", "x");
  ASSERT_TRUE(doc.ok());
  const Element& a = *doc->root;
  ASSERT_EQ(a.children().size(), 2u);
  EXPECT_EQ(a.children()[0]->tag(), "b");
  EXPECT_EQ(a.children()[0]->text(), "hello");
  EXPECT_EQ(a.children()[1]->children()[0]->tag(), "d");
  EXPECT_EQ(a.SubtreeSize(), 4u);
}

TEST(XmlParserTest, Attributes) {
  auto doc = ParseDocument(
      "<book id=\"b1\" xlink:href='other.xml#e5' empty=\"\"/>", "x");
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->root->FindAttribute("id"), nullptr);
  EXPECT_EQ(*doc->root->FindAttribute("id"), "b1");
  EXPECT_EQ(*doc->root->FindAttribute("xlink:href"), "other.xml#e5");
  EXPECT_EQ(*doc->root->FindAttribute("empty"), "");
  EXPECT_EQ(doc->root->FindAttribute("absent"), nullptr);
}

TEST(XmlParserTest, EntitiesDecoded) {
  auto doc = ParseDocument("<t a=\"&lt;x&gt;\">&amp;&quot;&apos;&#65;&#x42;</t>",
                           "x");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root->FindAttribute("a"), "<x>");
  EXPECT_EQ(doc->root->text(), "&\"'AB");
}

TEST(XmlParserTest, UnicodeCharacterReference) {
  auto doc = ParseDocument("<t>&#228;</t>", "x");  // ä
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->text(), "\xC3\xA4");
}

TEST(XmlParserTest, PrologCommentsDoctype) {
  auto doc = ParseDocument(
      "<?xml version=\"1.0\"?>\n<!-- hi -->\n<!DOCTYPE root>\n<root>x</root>",
      "x");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->text(), "x");
}

TEST(XmlParserTest, CommentsInsideContentSkipped) {
  auto doc = ParseDocument("<a>one<!-- skip -->two</a>", "x");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->text(), "onetwo");
}

TEST(XmlParserTest, CdataPreserved) {
  auto doc = ParseDocument("<a><![CDATA[1 < 2 & so]]></a>", "x");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->text(), "1 < 2 & so");
}

TEST(XmlParserTest, MismatchedTagRejected) {
  auto doc = ParseDocument("<a><b></a></b>", "x");
  EXPECT_FALSE(doc.ok());
  EXPECT_TRUE(doc.status().IsCorruption());
}

TEST(XmlParserTest, TruncatedInputRejected) {
  EXPECT_FALSE(ParseDocument("<a><b>", "x").ok());
  EXPECT_FALSE(ParseDocument("<a attr=", "x").ok());
  EXPECT_FALSE(ParseDocument("", "x").ok());
}

TEST(XmlParserTest, UnknownEntityRejected) {
  EXPECT_FALSE(ParseDocument("<a>&nope;</a>", "x").ok());
}

TEST(XmlParserTest, MalformedCharacterReferencesRejected) {
  // A character reference needs at least one digit, every character
  // before the ';' must be a digit of its base, and the code point must
  // be a Char: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
  // [#x10000-#x10FFFF] (no controls, surrogates, #xFFFE or #xFFFF).
  for (const char* input :
       {"<a>&#;</a>", "<a>&#x;</a>", "<a>&#65zz;</a>", "<a>&#x41g;</a>",
        "<a>&#+65;</a>", "<a>&# 65;</a>", "<a>&#-65;</a>", "<a>&#0;</a>",
        "<a>&#x110000;</a>", "<a>&#99999999999999999999;</a>",
        "<a b=\"&#;\"/>", "<a>&#xD800;</a>", "<a>&#xDFFF;</a>",
        "<a>&#1;</a>", "<a>&#x1F;</a>", "<a>&#xFFFE;</a>",
        "<a>&#xFFFF;</a>"}) {
    auto doc = ParseDocument(input, "x");
    EXPECT_TRUE(doc.status().IsCorruption()) << input << ": " << doc.status();
  }
  auto doc = ParseDocument("<a>&#x10FFFF;&#X41;&#0065;</a>", "x");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root->text(), "\xF4\x8F\xBF\xBF" "AA");
  // The edges of every Char range still decode.
  doc = ParseDocument(
      "<a>&#9;&#xA;&#xD;&#xD7FF;&#xE000;&#xFFFD;&#x10000;</a>", "x");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root->text(), "\t\n\r" "\xED\x9F\xBF" "\xEE\x80\x80"
                               "\xEF\xBF\xBD" "\xF0\x90\x80\x80");
}

TEST(XmlParserTest, TextOutsideRootRejected) {
  EXPECT_FALSE(ParseDocument("stray<a/>", "x").ok());
}

TEST(XmlParserTest, DeeplyNestedNoOverflow) {
  // Deep enough to overflow the call stack of any walk that recurses
  // once per level: parsing, SubtreeSize and destruction must all
  // iterate. (Serialize indents by depth, so its output would be
  // quadratic in it; it stays out of this test.)
  std::string input;
  const int depth = 400000;
  for (int i = 0; i < depth; ++i) input += "<d>";
  for (int i = 0; i < depth; ++i) input += "</d>";
  auto doc = ParseDocument(input, "deep.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->SubtreeSize(), static_cast<size_t>(depth));
}

TEST(XmlParserTest, SeededMutationsParseOrReportCorruption) {
  // Truncations, bit flips and splices of the tokens the parser treats
  // specially, over generated DBLP records: every input must parse or
  // fail with Corruption — never crash, hang, or read out of bounds
  // (the sanitizer CI leg runs this with bounds-checked containers).
  static constexpr std::string_view kTokens[] = {
      "&#",  "&#x", "&#;", "&#x;", "&#65zz;", "&",   "&amp;", ";",
      "<",   ">",   "</",  "/>",   "<!--",    "-->", "<![CDATA[",
      "]]>", "<?",  "?>",  "<!",   "=",       "\"",  "'",     "<d>",
      "</d>"};
  datagen::DblpConfig config;
  Rng rng(20261018);
  size_t parsed = 0, corrupt = 0;
  for (size_t d = 0; d < 20; ++d) {
    Rng doc_rng(d);
    const std::string text =
        Serialize(*datagen::GenerateDblpDocument(config, d, &doc_rng).root);
    ASSERT_TRUE(ParseDocument(text, "pristine.xml").ok());
    for (int round = 0; round < 500; ++round) {
      std::string input = text;
      for (uint64_t m = 1 + rng.NextBounded(3); m > 0; --m) {
        switch (rng.NextBounded(3)) {
          case 0:
            input.resize(rng.NextBounded(input.size() + 1));
            break;
          case 1:
            if (!input.empty()) {
              input[rng.NextBounded(input.size())] ^=
                  static_cast<char>(1u << rng.NextBounded(8));
            }
            break;
          default:
            input.insert(rng.NextBounded(input.size() + 1),
                         kTokens[rng.NextBounded(std::size(kTokens))]);
        }
      }
      auto doc = ParseDocument(input, "fuzz.xml");
      if (doc.ok()) {
        ++parsed;
      } else {
        ++corrupt;
        EXPECT_TRUE(doc.status().IsCorruption())
            << "doc " << d << " round " << round << ": " << doc.status();
      }
    }
  }
  // The mutations exercised both outcomes.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(corrupt, 0u);
}

TEST(XmlSerializeTest, RoundTrip) {
  auto doc = ParseDocument(
      "<lib><book id=\"b1\"><title>T &amp; U</title></book><book id=\"b2\"/>"
      "</lib>",
      "x");
  ASSERT_TRUE(doc.ok());
  std::string text = Serialize(*doc->root);
  auto again = ParseDocument(text, "y");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->root->SubtreeSize(), doc->root->SubtreeSize());
  EXPECT_EQ(*again->root->children()[0]->FindAttribute("id"), "b1");
  EXPECT_EQ(again->root->children()[0]->children()[0]->text(), "T & U");
}

TEST(XmlSerializeTest, EscapesSpecials) {
  EXPECT_EQ(EscapeText("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

}  // namespace
}  // namespace hopi::xml
