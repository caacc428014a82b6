// Incremental maintenance tests (paper Sec 6): after every operation the
// index cover must be exactly the closure of the mutated element graph —
// verified with the exhaustive oracle.
#include <gtest/gtest.h>

#include "datagen/inex.h"
#include "hopi/build.h"
#include "test_util.h"
#include "twohop/builder.h"
#include "xml/parser.h"

namespace hopi {
namespace {

using collection::Collection;
using collection::DocId;

HopiIndex MustBuild(Collection* c, bool with_distance = false) {
  IndexBuildOptions options;
  options.partition.max_connections = 3000;
  options.with_distance = with_distance;
  auto index = BuildIndex(c, options);
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

void ExpectExact(const HopiIndex& index, const Collection& c,
                 bool distances = false) {
  Status s = twohop::ValidateCover(index.cover(), c.ElementGraph(), distances);
  EXPECT_TRUE(s.ok()) << s;
}

TEST(InsertLinkTest, SingleLinkCoversNewConnections) {
  Collection c = testing::SmallDblp(30, 1);
  HopiIndex index = MustBuild(&c);
  // Link two previously unrelated document roots.
  NodeId u = c.ElementsOf(3).back();
  NodeId v = c.RootOf(17);
  if (!index.IsReachable(u, v)) {
    ASSERT_TRUE(index.InsertLink(u, v).ok());
    EXPECT_TRUE(index.IsReachable(u, v));
    ExpectExact(index, c);
  }
}

TEST(InsertLinkTest, SeriesOfLinksStaysExact) {
  Collection c = testing::SmallDblp(25, 2);
  HopiIndex index = MustBuild(&c);
  Rng rng(5);
  int inserted = 0;
  for (int i = 0; i < 8; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    if (u == v || c.ElementGraph().HasEdge(u, v)) continue;
    ASSERT_TRUE(index.InsertLink(u, v).ok());
    ++inserted;
  }
  ASSERT_GT(inserted, 0);
  ExpectExact(index, c);
}

TEST(InsertLinkTest, DistanceAwareInsertExact) {
  Collection c = testing::SmallDblp(20, 3);
  HopiIndex index = MustBuild(&c, /*with_distance=*/true);
  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    if (u == v || c.ElementGraph().HasEdge(u, v)) continue;
    ASSERT_TRUE(index.InsertLink(u, v).ok());
  }
  ExpectExact(index, c, /*distances=*/true);
}

TEST(InsertLinkTest, DuplicateRejected) {
  Collection c = testing::SmallDblp(10, 4);
  HopiIndex index = MustBuild(&c);
  ASSERT_FALSE(c.Links().empty());
  collection::Link l = c.Links().front();
  EXPECT_TRUE(index.InsertLink(l.source, l.target).IsInvalidArgument());
}

TEST(InsertDocumentTest, NewDocumentWithLinksBothWays) {
  Collection c = testing::SmallDblp(30, 6);
  HopiIndex index = MustBuild(&c);
  // Ingest a new publication citing two existing ones; an existing pending
  // reference cannot exist here, so also add a link *into* the new doc.
  collection::Ingestor ingestor(&c);
  auto doc = xml::ParseDocument(
      "<inproceedings><title>new</title>"
      "<cite xlink:href=\"pub3.xml\"/><cite xlink:href=\"pub7.xml\"/>"
      "</inproceedings>",
      "pubNew.xml");
  ASSERT_TRUE(doc.ok());
  auto id = ingestor.Ingest(*doc);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(index.InsertDocument(*id).ok());
  ExpectExact(index, c);
  // Now link an old doc to the new one and check again.
  ASSERT_TRUE(index.InsertLink(c.ElementsOf(5).back(), c.RootOf(*id)).ok());
  ExpectExact(index, c);
  EXPECT_TRUE(index.IsReachable(c.RootOf(5), c.RootOf(3)) ||
              !index.IsReachable(c.RootOf(5), c.RootOf(3)));  // smoke
}

TEST(InsertDocumentTest, DistanceAware) {
  Collection c = testing::SmallDblp(20, 8);
  HopiIndex index = MustBuild(&c, true);
  collection::Ingestor ingestor(&c);
  auto doc = xml::ParseDocument(
      "<inproceedings><cite xlink:href=\"pub1.xml\"/></inproceedings>",
      "pubD.xml");
  ASSERT_TRUE(doc.ok());
  auto id = ingestor.Ingest(*doc);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(index.InsertDocument(*id).ok());
  ExpectExact(index, c, true);
}

TEST(SeparationTest, InexDocsAlwaysSeparate) {
  // Paper Sec 7.3: with no inter-document links every document separates.
  Collection c;
  datagen::InexConfig config;
  config.num_docs = 8;
  config.mean_elements_per_doc = 60;
  ASSERT_TRUE(datagen::GenerateInexCollection(config, &c).ok());
  HopiIndex index = MustBuild(&c);
  for (DocId d = 0; d < c.NumDocuments(); ++d) {
    EXPECT_TRUE(index.SeparatesDocumentGraph(d));
  }
}

TEST(SeparationTest, FigureSixTopology) {
  // Paper Fig. 6: doc 6 separates, doc 5 does not.
  // Chain 1..4, plus 1 -> {5,6} -> 9 and 5 -> 8, 6 -> 7 ... simplified to
  // the essential diamond: 1 -> 5 -> 9, 1 -> 6 -> 9 makes neither 5 nor 6
  // separating; removing the 5-branch makes 6 separating.
  Collection c;
  std::vector<NodeId> roots;
  std::vector<NodeId> cites;
  for (int i = 0; i < 4; ++i) {
    DocId d =
        c.AddDocument(std::string("m").append(std::to_string(i)) + ".xml");
    NodeId r = c.AddElement(d, "r");
    roots.push_back(r);
    cites.push_back(c.AddElement(d, "cite", r));
  }
  // 0 -> 1 -> 3 and 0 -> 2 -> 3 (two parallel routes).
  c.AddLink(cites[0], roots[1]);
  c.AddLink(c.AddElement(0, "cite2", roots[0]), roots[2]);
  c.AddLink(cites[1], roots[3]);
  c.AddLink(cites[2], roots[3]);
  HopiIndex index = MustBuild(&c);
  EXPECT_FALSE(index.SeparatesDocumentGraph(1));  // bypass via 2
  EXPECT_FALSE(index.SeparatesDocumentGraph(2));  // bypass via 1
  EXPECT_TRUE(index.SeparatesDocumentGraph(0));   // no ancestors
  EXPECT_TRUE(index.SeparatesDocumentGraph(3));   // no descendants
}

TEST(DeleteDocumentTest, FastPathExactOnInex) {
  Collection c;
  datagen::InexConfig config;
  config.num_docs = 6;
  config.mean_elements_per_doc = 50;
  ASSERT_TRUE(datagen::GenerateInexCollection(config, &c).ok());
  HopiIndex index = MustBuild(&c);
  DeleteStats stats;
  ASSERT_TRUE(index.DeleteDocument(2, &stats).ok());
  EXPECT_TRUE(stats.separated);
  ExpectExact(index, c);
  // Deleted elements answer nothing.
  for (NodeId e : c.ElementsOf(2)) {
    EXPECT_TRUE(index.Descendants(e).empty());
    EXPECT_TRUE(index.Ancestors(e).empty());
  }
}

TEST(DeleteDocumentTest, SequenceOfDeletionsStaysExact) {
  Collection c = testing::SmallDblp(30, 9);
  HopiIndex index = MustBuild(&c);
  Rng rng(13);
  int fast = 0, general = 0;
  for (int i = 0; i < 6; ++i) {
    DocId d = static_cast<DocId>(rng.NextBounded(c.NumDocuments()));
    if (!c.IsLive(d)) continue;
    DeleteStats stats;
    ASSERT_TRUE(index.DeleteDocument(d, &stats).ok());
    (stats.separated ? fast : general)++;
    ExpectExact(index, c);
  }
  EXPECT_GT(fast + general, 0);
}

TEST(DeleteDocumentTest, HubDeletionTakesGeneralPath) {
  // pub0 in a Zipf citation graph is cited by nearly everyone; deleting a
  // mid-chain hub with both ancestors and descendants and parallel routes
  // exercises Theorem 3.
  Collection c = testing::SmallDblp(40, 10);
  HopiIndex index = MustBuild(&c);
  // Find a non-separating live doc.
  DocId victim = collection::kInvalidDoc;
  for (DocId d = 0; d < c.NumDocuments(); ++d) {
    if (c.IsLive(d) && !index.SeparatesDocumentGraph(d)) {
      victim = d;
      break;
    }
  }
  if (victim == collection::kInvalidDoc) {
    GTEST_SKIP() << "collection had no non-separating document";
  }
  DeleteStats stats;
  ASSERT_TRUE(index.DeleteDocument(victim, &stats).ok());
  EXPECT_FALSE(stats.separated);
  EXPECT_GT(stats.recompute_fraction, 0.0);
  ExpectExact(index, c);
}

TEST(DeleteDocumentTest, DistanceAwareDeletionExact) {
  Collection c = testing::SmallDblp(20, 11);
  HopiIndex index = MustBuild(&c, true);
  Rng rng(17);
  for (int i = 0; i < 3; ++i) {
    DocId d = static_cast<DocId>(rng.NextBounded(c.NumDocuments()));
    if (!c.IsLive(d)) continue;
    ASSERT_TRUE(index.DeleteDocument(d).ok());
    ExpectExact(index, c, true);
  }
}

TEST(DeleteDocumentTest, DeadDocumentRejected) {
  Collection c = testing::SmallDblp(10, 12);
  HopiIndex index = MustBuild(&c);
  ASSERT_TRUE(index.DeleteDocument(4).ok());
  EXPECT_TRUE(index.DeleteDocument(4).IsInvalidArgument());
}

TEST(DeleteLinkTest, RemovingRedundantLinkKeepsEverything) {
  // Two parallel links; deleting one must not lose connections.
  Collection c;
  DocId a = c.AddDocument("a.xml");
  NodeId ar = c.AddElement(a, "r");
  NodeId s1 = c.AddElement(a, "cite", ar);
  NodeId s2 = c.AddElement(a, "cite", ar);
  DocId b = c.AddDocument("b.xml");
  NodeId br = c.AddElement(b, "r");
  c.AddElement(b, "x", br);
  c.AddLink(s1, br);
  c.AddLink(s2, br);
  HopiIndex index = MustBuild(&c);
  ASSERT_TRUE(index.DeleteLink(s1, br).ok());
  ExpectExact(index, c);
  EXPECT_TRUE(index.IsReachable(ar, br));  // still via s2
}

TEST(DeleteLinkTest, RemovingOnlyLinkDisconnects) {
  Collection c;
  DocId a = c.AddDocument("a.xml");
  NodeId ar = c.AddElement(a, "r");
  NodeId s = c.AddElement(a, "cite", ar);
  DocId b = c.AddDocument("b.xml");
  NodeId br = c.AddElement(b, "r");
  NodeId bx = c.AddElement(b, "x", br);
  c.AddLink(s, br);
  HopiIndex index = MustBuild(&c);
  ASSERT_TRUE(index.IsReachable(ar, bx));
  ASSERT_TRUE(index.DeleteLink(s, br).ok());
  EXPECT_FALSE(index.IsReachable(ar, bx));
  ExpectExact(index, c);
  EXPECT_TRUE(index.DeleteLink(s, br).IsNotFound());
}

TEST(DeleteLinkTest, RandomLinkDeletionsStayExact) {
  Collection c = testing::SmallDblp(25, 14);
  HopiIndex index = MustBuild(&c);
  Rng rng(23);
  int deleted = 0;
  while (deleted < 5 && !c.Links().empty()) {
    collection::Link l = c.Links()[rng.NextBounded(c.Links().size())];
    ASSERT_TRUE(index.DeleteLink(l.source, l.target).ok());
    ++deleted;
    ExpectExact(index, c);
  }
  EXPECT_EQ(deleted, 5);
}

TEST(DeleteLinkTest, DistanceAwareLinkDeletion) {
  // Shortcut + long path: removing the shortcut must lengthen distances.
  Collection c;
  DocId a = c.AddDocument("a.xml");
  NodeId ar = c.AddElement(a, "r");
  NodeId mid = c.AddElement(a, "m", ar);
  NodeId deep = c.AddElement(a, "d", mid);
  DocId b = c.AddDocument("b.xml");
  NodeId br = c.AddElement(b, "r");
  c.AddLink(ar, br);    // shortcut: dist(ar, br) = 1
  c.AddLink(deep, br);  // long way: 2 tree hops + link
  HopiIndex index = MustBuild(&c, true);
  EXPECT_EQ(*index.Distance(ar, br), 1u);
  ASSERT_TRUE(index.DeleteLink(ar, br).ok());
  ExpectExact(index, c, true);
  EXPECT_EQ(*index.Distance(ar, br), 3u);
}

TEST(ReplaceDocumentTest, ModifyIsDeletePlusInsert) {
  Collection c = testing::SmallDblp(20, 15);
  HopiIndex index = MustBuild(&c);
  collection::Ingestor ingestor(&c);
  auto doc = xml::ParseDocument(
      "<inproceedings><title>v2</title>"
      "<cite xlink:href=\"pub2.xml\"/></inproceedings>",
      "pub5-v2.xml");
  ASSERT_TRUE(doc.ok());
  auto new_id = ingestor.Ingest(*doc);
  ASSERT_TRUE(new_id.ok());
  ASSERT_TRUE(index.ReplaceDocument(5, *new_id).ok());
  ExpectExact(index, c);
  EXPECT_FALSE(c.IsLive(5));
}

}  // namespace
}  // namespace hopi
