#include <gtest/gtest.h>

#include "collection/builder.h"
#include "engine/backends.h"
#include "hopi/build.h"
#include "query/path_query.h"
#include "query/tag_index.h"
#include "test_util.h"
#include "xml/parser.h"

namespace hopi::query {
namespace {

using collection::Collection;

/// A small two-document library: book/chapter/section plus a citation link
/// into a second document.
class QueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d1 = xml::ParseDocument(
        "<book><title>t1</title>"
        "<chapter><section><author>alice</author></section></chapter>"
        "<chapter><cite xlink:href=\"b.xml\"/></chapter></book>",
        "a.xml");
    auto d2 = xml::ParseDocument(
        "<book><chapter><author>bob</author></chapter></book>", "b.xml");
    ASSERT_TRUE(d1.ok() && d2.ok());
    collection::Ingestor ingestor(&c_);
    ASSERT_TRUE(ingestor.Ingest(*d1).ok());
    ASSERT_TRUE(ingestor.Ingest(*d2).ok());
    IndexBuildOptions options;
    options.with_distance = true;
    auto index = BuildIndex(&c_, options);
    ASSERT_TRUE(index.ok());
    index_ = std::make_unique<HopiIndex>(std::move(index).value());
    backend_ = std::make_unique<engine::HopiIndexBackend>(*index_);
    tags_ = std::make_unique<TagIndex>(c_);
  }

  Collection c_;
  std::unique_ptr<HopiIndex> index_;
  std::unique_ptr<engine::HopiIndexBackend> backend_;
  std::unique_ptr<TagIndex> tags_;
};

TEST(PathExpressionTest, ParseForms) {
  auto e1 = PathExpression::Parse("//book//author");
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1->steps,
            (std::vector<PathStep>{{"book", false}, {"author", false}}));
  auto e2 = PathExpression::Parse("book//cite//title");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2->steps.size(), 3u);
  auto e3 = PathExpression::Parse("//a//*//b");
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(e3->steps[1].tag, "*");
  EXPECT_EQ(e3->ToString(), "//a//*//b");
}

TEST(PathExpressionTest, ParseApproximateSteps) {
  auto e = PathExpression::Parse("//~book//author");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->steps,
            (std::vector<PathStep>{{"book", true}, {"author", false}}));
  EXPECT_EQ(e->ToString(), "//~book//author");
}

TEST(PathExpressionTest, RejectsBadInput) {
  EXPECT_FALSE(PathExpression::Parse("").ok());
  EXPECT_FALSE(PathExpression::Parse("//").ok());
  EXPECT_FALSE(PathExpression::Parse("//a/b").ok());  // child axis
  EXPECT_FALSE(PathExpression::Parse("//~//a").ok());  // bare tilde
  EXPECT_FALSE(PathExpression::Parse("//~*").ok());    // approx wildcard
}

TEST(TagSimilarityTest, RegistryBasics) {
  TagSimilarity sim;
  sim.AddSynonym("book", "monography", 0.9);
  EXPECT_DOUBLE_EQ(sim.Sim("book", "book"), 1.0);
  EXPECT_DOUBLE_EQ(sim.Sim("book", "monography"), 0.9);
  EXPECT_DOUBLE_EQ(sim.Sim("monography", "book"), 0.9);  // symmetric
  EXPECT_DOUBLE_EQ(sim.Sim("book", "title"), 0.0);
  // Re-registering keeps the max.
  sim.AddSynonym("monography", "book", 0.5);
  EXPECT_DOUBLE_EQ(sim.Sim("book", "monography"), 0.9);
  auto related = sim.Related("book", 0.5);
  ASSERT_EQ(related.size(), 2u);
  EXPECT_EQ(related[0].first, "book");
  EXPECT_EQ(related[1].first, "monography");
}

TEST_F(QueryFixture, TagIndexLookups) {
  EXPECT_EQ(tags_->Lookup("book").size(), 2u);
  EXPECT_EQ(tags_->Lookup("author").size(), 2u);
  EXPECT_TRUE(tags_->Lookup("nonexistent").empty());
  EXPECT_GT(tags_->NumTags(), 4u);
}

TEST_F(QueryFixture, SingleStepReturnsTagMatches) {
  auto expr = PathExpression::Parse("//author");
  ASSERT_TRUE(expr.ok());
  auto matches = EvaluatePath(*expr, *backend_, c_, *tags_);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 2u);
}

TEST_F(QueryFixture, DescendantAxisCrossesLink) {
  // //book//author must find bob via the citation link from a.xml.
  auto expr = PathExpression::Parse("//book//author");
  ASSERT_TRUE(expr.ok());
  auto matches = EvaluatePath(*expr, *backend_, c_, *tags_);
  ASSERT_TRUE(matches.ok());
  // a-book reaches alice (tree) and bob (via link); b-book reaches bob.
  EXPECT_EQ(matches->size(), 3u);
}

TEST_F(QueryFixture, WildcardStep) {
  auto expr = PathExpression::Parse("//book//*//author");
  ASSERT_TRUE(expr.ok());
  auto matches = EvaluatePath(*expr, *backend_, c_, *tags_);
  ASSERT_TRUE(matches.ok());
  EXPECT_GT(matches->size(), 0u);
}

TEST_F(QueryFixture, RankingPrefersShorterConnections) {
  auto expr = PathExpression::Parse("//book//author");
  ASSERT_TRUE(expr.ok());
  auto matches = EvaluatePath(*expr, *backend_, c_, *tags_);
  ASSERT_TRUE(matches.ok());
  ASSERT_GE(matches->size(), 2u);
  // Sorted by descending score; nearer author pairs first.
  for (size_t i = 1; i < matches->size(); ++i) {
    EXPECT_GE((*matches)[i - 1].score, (*matches)[i].score);
  }
  // The b-book -> bob pair (book > chapter > author, distance 2) must
  // outrank the a-book -> bob pair that travels through the citation.
  EXPECT_EQ((*matches)[0].total_distance, 2u);
}

TEST_F(QueryFixture, MaxStepDistanceFilters) {
  auto expr = PathExpression::Parse("//book//author");
  ASSERT_TRUE(expr.ok());
  PathQueryOptions options;
  options.max_step_distance = 1;
  auto matches = EvaluatePath(*expr, *backend_, c_, *tags_, options);
  ASSERT_TRUE(matches.ok());
  for (const PathMatch& m : *matches) {
    EXPECT_LE(m.total_distance, 1u);
  }
}

TEST_F(QueryFixture, MaxMatchesShortCircuits) {
  auto expr = PathExpression::Parse("//book//author");
  ASSERT_TRUE(expr.ok());
  PathQueryOptions options;
  options.max_matches = 1;
  auto matches = EvaluatePath(*expr, *backend_, c_, *tags_, options);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);
}

TEST_F(QueryFixture, CountMatchesDistinctFinalBindings) {
  auto expr = PathExpression::Parse("//book//author");
  ASSERT_TRUE(expr.ok());
  auto count = CountPathResults(*expr, *backend_, c_, *tags_);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);  // alice and bob (distinct elements)
}

TEST_F(QueryFixture, NoMatchesForDisconnectedChain) {
  auto expr = PathExpression::Parse("//author//book");
  ASSERT_TRUE(expr.ok());
  auto matches = EvaluatePath(*expr, *backend_, c_, *tags_);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST_F(QueryFixture, UnknownTagShortCircuits) {
  auto expr = PathExpression::Parse("//zzz//author");
  ASSERT_TRUE(expr.ok());
  auto matches = EvaluatePath(*expr, *backend_, c_, *tags_);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST_F(QueryFixture, ApproximateStepExpandsSynonyms) {
  TagSimilarity sim;
  sim.AddSynonym("section", "chapter", 0.8);
  PathQueryOptions options;
  options.similarity = &sim;

  auto exact = PathExpression::Parse("//section//author");
  ASSERT_TRUE(exact.ok());
  auto exact_matches = EvaluatePath(*exact, *backend_, c_, *tags_, options);
  ASSERT_TRUE(exact_matches.ok());
  EXPECT_EQ(exact_matches->size(), 1u);  // only alice sits under a section

  auto approx = PathExpression::Parse("//~section//author");
  ASSERT_TRUE(approx.ok());
  auto approx_matches = EvaluatePath(*approx, *backend_, c_, *tags_, options);
  ASSERT_TRUE(approx_matches.ok());
  // Synonym expansion adds the chapter-rooted matches.
  EXPECT_GT(approx_matches->size(), exact_matches->size());
  // Exact-tag matches carry full tag score; synonym matches are scaled by
  // 0.8, so an exact match with equal distance must rank above a synonym
  // match with equal distance.
  for (const PathMatch& m : *approx_matches) {
    EXPECT_GT(m.score, 0.0);
    EXPECT_LE(m.score, 1.0);
  }
}

TEST_F(QueryFixture, ApproximateWithoutRegistryBehavesExactly) {
  auto approx = PathExpression::Parse("//~section//author");
  ASSERT_TRUE(approx.ok());
  auto matches = EvaluatePath(*approx, *backend_, c_, *tags_);  // no similarity
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);
}

TEST(TagSimilarityTest, DblpDefaultsCoverPaperExamples) {
  // Paper Sec 5.1: "the ontological similarity of book to monography or
  // publication".
  TagSimilarity sim = TagSimilarity::DblpDefaults();
  EXPECT_GT(sim.Sim("book", "monography"), 0.5);
  EXPECT_GT(sim.Sim("book", "publication"), 0.5);
  EXPECT_GT(sim.Sim("author", "editor"), 0.5);
}

TEST(QueryOnDblpTest, CiteChains) {
  Collection c = hopi::testing::SmallDblp(40, 3);
  auto index = BuildIndex(&c);
  ASSERT_TRUE(index.ok());
  TagIndex tags(c);
  auto expr = PathExpression::Parse("//inproceedings//cite//title");
  ASSERT_TRUE(expr.ok());
  auto count =
      CountPathResults(*expr, engine::HopiIndexBackend(*index), c, tags);
  ASSERT_TRUE(count.ok());
  // Citations lead to other publications' titles, so matches must exist
  // whenever there are links.
  if (c.NumInterLinks() > 0) {
    EXPECT_GT(*count, 0u);
  }
}

TEST(QueryOnDblpTest, CountNeverExceedsTagPopulation) {
  Collection c = hopi::testing::SmallDblp(30, 4);
  auto index = BuildIndex(&c);
  ASSERT_TRUE(index.ok());
  TagIndex tags(c);
  for (const char* q : {"//inproceedings//author", "//abstract//sentence",
                        "//inproceedings//cite"}) {
    auto expr = PathExpression::Parse(q);
    ASSERT_TRUE(expr.ok());
    auto count =
      CountPathResults(*expr, engine::HopiIndexBackend(*index), c, tags);
    ASSERT_TRUE(count.ok());
    EXPECT_LE(*count, tags.Lookup(expr->steps.back().tag).size());
  }
}

}  // namespace
}  // namespace hopi::query
