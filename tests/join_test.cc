// Focused tests for the PSG construction and the two cover-join
// algorithms (paper Sec 3.3 / 4.1), below the BuildIndex integration
// level.
#include <gtest/gtest.h>

#include "graph/subgraph.h"
#include "hopi/join.h"
#include "partition/psg.h"
#include "test_util.h"
#include "twohop/builder.h"

namespace hopi {
namespace {

using collection::Collection;
using collection::DocId;

/// Hand-built two-partition fixture mirroring the paper's Figure 3:
/// partition P1 = {d1}, P2 = {d2, d3}; cross links 3->4 and (7->8 stays
/// inside P2 in our split, so we add another cross pair).
struct TwoPartitionFixture {
  Collection c;
  partition::Partitioning partitioning;
  NodeId e1, e2, e3, e4, e5, e6, e7, e8, e9;

  TwoPartitionFixture() {
    DocId d1 = c.AddDocument("d1.xml");
    e1 = c.AddElement(d1, "r");
    e2 = c.AddElement(d1, "a", e1);
    e3 = c.AddElement(d1, "b", e1);
    DocId d2 = c.AddDocument("d2.xml");
    e4 = c.AddElement(d2, "r");
    e5 = c.AddElement(d2, "a", e4);
    e6 = c.AddElement(d2, "b", e5);
    e7 = c.AddElement(d2, "c", e4);
    DocId d3 = c.AddDocument("d3.xml");
    e8 = c.AddElement(d3, "r");
    e9 = c.AddElement(d3, "a", e8);
    c.AddLink(e3, e4);  // d1 -> d2 (cross partition)
    c.AddLink(e7, e8);  // d2 -> d3 (inside partition 1)
    c.AddLink(e9, e2);  // d3 -> d1 (cross partition, creates a cycle)

    partitioning.partitions = {{d1}, {d2, d3}};
    partitioning.part_of = {0, 1, 1};
    for (const collection::Link& l : c.Links()) {
      if (partitioning.part_of[c.DocOf(l.source)] !=
          partitioning.part_of[c.DocOf(l.target)]) {
        partitioning.cross_links.push_back(l);
      }
    }
  }

  /// Unified partition covers (built per partition, translated to global).
  twohop::IndexedCover PartitionCovers(bool with_distance = false) {
    twohop::TwoHopCover unified(c.NumElements());
    for (const auto& docs : partitioning.partitions) {
      std::vector<NodeId> elements;
      for (DocId d : docs) {
        const auto& els = c.ElementsOf(d);
        elements.insert(elements.end(), els.begin(), els.end());
      }
      InducedSubgraph sub = BuildInducedSubgraph(c.ElementGraph(), elements);
      twohop::CoverBuildOptions options;
      options.with_distance = with_distance;
      auto cover = twohop::BuildCover(sub.graph, options);
      EXPECT_TRUE(cover.ok());
      for (NodeId local = 0; local < cover->NumNodes(); ++local) {
        for (twohop::LabelEntry e : cover->In(local)) {
          unified.AddIn(sub.Global(local), sub.Global(e.center), e.dist);
        }
        for (twohop::LabelEntry e : cover->Out(local)) {
          unified.AddOut(sub.Global(local), sub.Global(e.center), e.dist);
        }
      }
    }
    return twohop::IndexedCover(std::move(unified));
  }
};

TEST(PsgTest, NodesAreCrossLinkEndpoints) {
  TwoPartitionFixture f;
  twohop::IndexedCover covers = f.PartitionCovers();
  auto psg = partition::BuildPsg(f.c, f.partitioning, covers, false);
  // Cross links: e3->e4 and e9->e2. Endpoints: e3, e4, e9, e2.
  EXPECT_EQ(psg.graph.NumNodes(), 4u);
  EXPECT_NE(psg.PsgNodeOf(f.e3), kInvalidNode);
  EXPECT_NE(psg.PsgNodeOf(f.e4), kInvalidNode);
  EXPECT_NE(psg.PsgNodeOf(f.e9), kInvalidNode);
  EXPECT_NE(psg.PsgNodeOf(f.e2), kInvalidNode);
  EXPECT_EQ(psg.PsgNodeOf(f.e7), kInvalidNode);  // internal link only
}

TEST(PsgTest, InternalEdgesUseWithinPartitionReachability) {
  TwoPartitionFixture f;
  twohop::IndexedCover covers = f.PartitionCovers();
  auto psg = partition::BuildPsg(f.c, f.partitioning, covers, false);
  // Inside partition 1: target e4 reaches source e9 via e7 -> e8 -> e9.
  NodeId t = psg.PsgNodeOf(f.e4);
  NodeId s = psg.PsgNodeOf(f.e9);
  ASSERT_NE(t, kInvalidNode);
  ASSERT_NE(s, kInvalidNode);
  EXPECT_TRUE(psg.graph.HasEdge(t, s));
  // Inside partition 0: target e2 does NOT reach source e3 (siblings).
  NodeId t2 = psg.PsgNodeOf(f.e2);
  NodeId s2 = psg.PsgNodeOf(f.e3);
  EXPECT_FALSE(psg.graph.HasEdge(t2, s2));
}

TEST(PsgTest, DistanceModeCarriesWeights) {
  TwoPartitionFixture f;
  twohop::IndexedCover covers = f.PartitionCovers(true);
  auto psg = partition::BuildPsg(f.c, f.partitioning, covers, true);
  NodeId t = psg.PsgNodeOf(f.e4);
  // e4 -> e7 -> e8 -> e9 = 3 hops within partition 1.
  bool found = false;
  for (const partition::PsgEdge& e : psg.weighted_adj[t]) {
    if (e.to == psg.PsgNodeOf(f.e9)) {
      EXPECT_EQ(e.weight, 3u);
      EXPECT_FALSE(e.is_link);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(JoinTest, RecursiveJoinCoversFixture) {
  TwoPartitionFixture f;
  twohop::IndexedCover covers = f.PartitionCovers();
  JoinStats stats;
  ASSERT_TRUE(
      JoinCoversRecursive(f.c, f.partitioning, false, &covers, &stats).ok());
  EXPECT_EQ(stats.cross_links, 2u);
  EXPECT_GT(stats.psg_nodes, 0u);
  Status valid = twohop::ValidateCover(covers.cover(), f.c.ElementGraph());
  EXPECT_TRUE(valid.ok()) << valid;
  // Cross-partition chain d1 -> d2 -> d3: e3 reaches e9 through both
  // links; e9's own link lands on leaf e2, which goes nowhere further.
  EXPECT_TRUE(covers.cover().IsConnected(f.e3, f.e9));
  EXPECT_TRUE(covers.cover().IsConnected(f.e9, f.e2));
  EXPECT_FALSE(covers.cover().IsConnected(f.e9, f.e6));
}

TEST(JoinTest, IncrementalJoinCoversFixture) {
  TwoPartitionFixture f;
  twohop::IndexedCover covers = f.PartitionCovers();
  ASSERT_TRUE(
      JoinCoversIncremental(f.c, f.partitioning, false, &covers).ok());
  Status valid = twohop::ValidateCover(covers.cover(), f.c.ElementGraph());
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST(JoinTest, BothJoinsWithDistance) {
  TwoPartitionFixture f;
  for (bool recursive : {true, false}) {
    twohop::IndexedCover covers = f.PartitionCovers(true);
    Status s = recursive
                   ? JoinCoversRecursive(f.c, f.partitioning, true, &covers)
                   : JoinCoversIncremental(f.c, f.partitioning, true, &covers);
    ASSERT_TRUE(s.ok());
    Status valid =
        twohop::ValidateCover(covers.cover(), f.c.ElementGraph(), true);
    EXPECT_TRUE(valid.ok()) << "recursive=" << recursive << ": " << valid;
    // Spot distance: e1 -> e8 goes e1->e3 (1) -link-> e4 (1) -> e7 (1)
    // -link-> e8 (1) = 4 hops.
    EXPECT_EQ(*covers.cover().Distance(f.e1, f.e8), 4u);
  }
}

TEST(JoinTest, EmptyCrossLinksIsNoop) {
  TwoPartitionFixture f;
  f.partitioning.cross_links.clear();
  twohop::IndexedCover covers = f.PartitionCovers();
  uint64_t before = covers.cover().Size();
  JoinStats stats;
  ASSERT_TRUE(
      JoinCoversRecursive(f.c, f.partitioning, false, &covers, &stats).ok());
  EXPECT_EQ(covers.cover().Size(), before);
  EXPECT_EQ(stats.label_additions, 0u);
}

TEST(JoinTest, PsgPartitionedVariantMatchesWholeTraversal) {
  // Sec 4.1's recursive PSG partitioning must produce an equally valid
  // cover. Force tiny PSG partitions so propagation crosses boundaries.
  TwoPartitionFixture f;
  for (uint64_t cap : {1u, 2u, 3u}) {
    twohop::IndexedCover covers = f.PartitionCovers();
    JoinOptions options;
    options.psg_partition_cap = cap;
    JoinStats stats;
    ASSERT_TRUE(JoinCoversRecursive(f.c, f.partitioning, false, &covers,
                                    &stats, options)
                    .ok());
    EXPECT_GE(stats.psg_partitions, 1u);
    Status valid = twohop::ValidateCover(covers.cover(), f.c.ElementGraph());
    EXPECT_TRUE(valid.ok()) << "cap=" << cap << ": " << valid;
  }
}

TEST(JoinTest, PsgPartitionedVariantWithDistance) {
  TwoPartitionFixture f;
  twohop::IndexedCover covers = f.PartitionCovers(true);
  JoinOptions options;
  options.psg_partition_cap = 2;
  JoinStats stats;
  ASSERT_TRUE(JoinCoversRecursive(f.c, f.partitioning, true, &covers, &stats,
                                  options)
                  .ok());
  EXPECT_GT(stats.psg_partitions, 1u);
  Status valid =
      twohop::ValidateCover(covers.cover(), f.c.ElementGraph(), true);
  EXPECT_TRUE(valid.ok()) << valid;
  EXPECT_EQ(*covers.cover().Distance(f.e1, f.e8), 4u);
}

TEST(JoinTest, HbarUsesLinkTargetsAsCenters) {
  TwoPartitionFixture f;
  twohop::IndexedCover covers = f.PartitionCovers();
  JoinStats stats;
  ASSERT_TRUE(
      JoinCoversRecursive(f.c, f.partitioning, false, &covers, &stats).ok());
  // e3's Lout must mention the reachable cross-link targets (e4 and,
  // through the PSG, e2).
  bool has_e4 = false;
  for (twohop::LabelEntry entry : covers.cover().Out(f.e3)) {
    if (entry.center == f.e4) has_e4 = true;
  }
  EXPECT_TRUE(has_e4);
  EXPECT_GT(stats.hbar_entries, 0u);
  EXPECT_GT(stats.hhat_entries, 0u);
}

}  // namespace
}  // namespace hopi
