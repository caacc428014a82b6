// Whole-system integration tests: generate -> serialize -> reparse ->
// ingest -> build -> query -> persist -> reload -> mutate -> validate.
// These exercise the same flow a downstream user of the library would.
#include <gtest/gtest.h>

#include <cstdio>

#include "collection/builder.h"
#include "datagen/dblp.h"
#include "datagen/xmark.h"
#include "engine/backends.h"
#include "engine/engine.h"
#include "graph/traversal.h"
#include "hopi/baseline.h"
#include "hopi/build.h"
#include "query/path_query.h"
#include "query/tag_index.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "test_util.h"
#include "twohop/builder.h"
#include "xml/parser.h"

namespace hopi {
namespace {

using collection::Collection;

TEST(IntegrationTest, XmlRoundTripThenIndex) {
  // Generate documents, serialize them to XML text, parse the text back,
  // ingest, and index — the full paper pipeline including the parser.
  datagen::DblpConfig config;
  config.num_docs = 40;
  config.seed = 31;
  Rng rng(config.seed);
  Collection c;
  collection::Ingestor ingestor(&c);
  for (size_t i = 0; i < config.num_docs; ++i) {
    xml::Document doc = datagen::GenerateDblpDocument(config, i, &rng);
    std::string text = xml::Serialize(*doc.root);
    auto reparsed = xml::ParseDocument(text, doc.name);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    ASSERT_EQ(reparsed->root->SubtreeSize(), doc.root->SubtreeSize());
    ASSERT_TRUE(ingestor.Ingest(*reparsed).ok());
  }
  EXPECT_EQ(ingestor.report().dangling, 0u);

  auto index = BuildIndex(&c);
  ASSERT_TRUE(index.ok());
  Status valid = twohop::ValidateCover(index->cover(), c.ElementGraph());
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST(IntegrationTest, PersistReloadQueryEquivalence) {
  Collection c = testing::SmallDblp(50, 41);
  IndexBuildOptions options;
  options.with_distance = true;
  auto index = BuildIndex(&c, options);
  ASSERT_TRUE(index.ok());

  std::string path = ::testing::TempDir() + "hopi_integration.idx";
  storage::LinLoutStore store =
      storage::LinLoutStore::FromCover(index->cover(), true);
  ASSERT_TRUE(store.WriteToFile(path).ok());
  auto loaded = storage::MappedLinLoutStore::Open(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::remove(path.c_str());  // the open store keeps its image

  // Serve the reopened file and compare answers with the original.
  engine::QueryEngine reloaded =
      engine::QueryEngine::ForMappedStore(c, *loaded);
  Rng rng(1);
  engine::BatchRequest request;
  request.want_distances = true;
  for (int i = 0; i < 1000; ++i) {
    request.pairs.push_back(
        {static_cast<NodeId>(rng.NextBounded(c.NumElements())),
         static_cast<NodeId>(rng.NextBounded(c.NumElements()))});
  }
  engine::BatchResponse r = reloaded.Batch(request);
  ASSERT_TRUE(r.error.ok()) << r.error;
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    auto [u, v] = request.pairs[i];
    EXPECT_EQ(r.reachable[i], index->IsReachable(u, v)) << u << "->" << v;
    EXPECT_EQ(r.distances[i], index->Distance(u, v)) << u << "->" << v;
  }
}

TEST(IntegrationTest, HopiAgreesWithMaterializedClosure) {
  Collection c = testing::SmallDblp(45, 43);
  auto index = BuildIndex(&c);
  ASSERT_TRUE(index.ok());
  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(c.ElementGraph(), false);
  for (NodeId u = 0; u < c.NumElements(); u += 13) {
    EXPECT_EQ(index->Descendants(u), closure.Descendants(u));
    EXPECT_EQ(index->Ancestors(u), closure.Ancestors(u));
  }
}

TEST(IntegrationTest, ChurnWorkload) {
  // A week in the life of a search engine: interleaved inserts, deletes,
  // link changes and queries; the cover must stay exact throughout.
  Collection c = testing::SmallDblp(35, 47);
  IndexBuildOptions options;
  options.partition.max_connections = 2000;
  auto built = BuildIndex(&c, options);
  ASSERT_TRUE(built.ok());
  HopiIndex index = std::move(built).value();
  collection::Ingestor ingestor(&c);
  Rng rng(53);
  datagen::DblpConfig gen;
  gen.num_docs = 35;
  gen.seed = 99;
  Rng gen_rng(3);

  for (int round = 0; round < 10; ++round) {
    switch (round % 4) {
      case 0: {  // insert a fresh publication
        xml::Document doc =
            datagen::GenerateDblpDocument(gen, 35 + round, &gen_rng);
        doc.name = "churn" + std::to_string(round) + ".xml";
        auto id = ingestor.Ingest(doc);
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(index.InsertDocument(*id).ok());
        break;
      }
      case 1: {  // delete a random live document
        collection::DocId d =
            static_cast<collection::DocId>(rng.NextBounded(c.NumDocuments()));
        if (c.IsLive(d)) {
          ASSERT_TRUE(index.DeleteDocument(d).ok());
        }
        break;
      }
      case 2: {  // add a link
        NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
        NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
        if (u != v && !c.ElementGraph().HasEdge(u, v) &&
            c.IsLive(c.DocOf(u)) && c.IsLive(c.DocOf(v))) {
          ASSERT_TRUE(index.InsertLink(u, v).ok());
        }
        break;
      }
      case 3: {  // remove a link
        if (!c.Links().empty()) {
          collection::Link l =
              c.Links()[rng.NextBounded(c.Links().size())];
          ASSERT_TRUE(index.DeleteLink(l.source, l.target).ok());
        }
        break;
      }
    }
    Status valid = twohop::ValidateCover(index.cover(), c.ElementGraph());
    ASSERT_TRUE(valid.ok()) << "round " << round << ": " << valid;
  }
}

TEST(IntegrationTest, QueriesAcrossGeneratedXmark) {
  Collection c;
  datagen::XmarkConfig config;
  config.num_items = 40;
  config.num_people = 25;
  config.num_auctions = 30;
  ASSERT_TRUE(datagen::GenerateXmarkCollection(config, &c).ok());
  IndexBuildOptions options;
  options.with_distance = true;
  auto index = BuildIndex(&c, options);
  ASSERT_TRUE(index.ok());
  query::TagIndex tags(c);

  auto expr = query::PathExpression::Parse("//open_auction//name");
  ASSERT_TRUE(expr.ok());
  engine::HopiIndexBackend backend(*index);
  auto count = query::CountPathResults(*expr, backend, c, tags);
  ASSERT_TRUE(count.ok());
  EXPECT_GT(*count, 0u);  // every auction references an item with a name

  // Brute-force cross-check on a sample: count via raw BFS reachability.
  auto matches = query::EvaluatePath(*expr, backend, c, tags,
                                     {.max_matches = 100000});
  ASSERT_TRUE(matches.ok());
  size_t brute = 0;
  for (NodeId a : tags.Lookup("open_auction")) {
    for (NodeId n : tags.Lookup("name")) {
      if (a != n && hopi::IsReachable(c.ElementGraph(), a, n)) ++brute;
    }
  }
  EXPECT_EQ(matches->size(), brute);
}

}  // namespace
}  // namespace hopi
