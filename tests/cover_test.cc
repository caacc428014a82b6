#include <gtest/gtest.h>

#include "twohop/center_graph.h"
#include "twohop/cover.h"
#include "twohop/reverse_index.h"
#include "util/rng.h"

namespace hopi::twohop {
namespace {

TEST(TwoHopCoverTest, ConnectionViaSharedCenter) {
  TwoHopCover cover(4);
  // Cover the pair (0, 3) with center 1.
  cover.AddOut(0, 1);
  cover.AddIn(3, 1);
  EXPECT_TRUE(cover.IsConnected(0, 3));
  EXPECT_FALSE(cover.IsConnected(3, 0));
  EXPECT_EQ(cover.Size(), 2u);
}

TEST(TwoHopCoverTest, ImplicitSelfEntries) {
  TwoHopCover cover(3);
  // Center 1 = the target itself: 0 -> 1 covered by Lout(0) ∋ 1.
  cover.AddOut(0, 1);
  EXPECT_TRUE(cover.IsConnected(0, 1));
  // Center 1 = the source itself: 1 -> 2 covered by Lin(2) ∋ 1.
  cover.AddIn(2, 1);
  EXPECT_TRUE(cover.IsConnected(1, 2));
  // Reflexive always connected.
  EXPECT_TRUE(cover.IsConnected(2, 2));
}

TEST(TwoHopCoverTest, SelfEntriesNeverStored) {
  TwoHopCover cover(2);
  EXPECT_FALSE(cover.AddIn(1, 1));
  EXPECT_FALSE(cover.AddOut(0, 0));
  EXPECT_EQ(cover.Size(), 0u);
}

TEST(TwoHopCoverTest, DuplicateKeepsMinDistance) {
  TwoHopCover cover(3);
  EXPECT_TRUE(cover.AddOut(0, 1, 5));
  EXPECT_FALSE(cover.AddOut(0, 1, 3));  // no size growth
  EXPECT_FALSE(cover.AddOut(0, 1, 9));  // larger ignored
  EXPECT_EQ(cover.Out(0).n, 1u);
  EXPECT_EQ(cover.Out(0).dist_at(0), 3u);
}

TEST(TwoHopCoverTest, DistanceViaCenters) {
  TwoHopCover cover(4);
  cover.AddOut(0, 1, 2);  // 0 ->2 hops-> 1
  cover.AddIn(3, 1, 4);   // 1 ->4 hops-> 3
  auto d = cover.Distance(0, 3);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 6u);
  // A second, shorter center wins.
  cover.AddOut(0, 2, 1);
  cover.AddIn(3, 2, 2);
  EXPECT_EQ(*cover.Distance(0, 3), 3u);
  EXPECT_EQ(*cover.Distance(0, 0), 0u);
  EXPECT_FALSE(cover.Distance(3, 0).has_value());
}

TEST(TwoHopCoverTest, DistanceViaImplicitSelf) {
  TwoHopCover cover(3);
  cover.AddIn(2, 0, 7);  // center 0 = source
  EXPECT_EQ(*cover.Distance(0, 2), 7u);
  cover.AddOut(1, 2, 4);  // center 2 = target
  EXPECT_EQ(*cover.Distance(1, 2), 4u);
}

TEST(TwoHopCoverTest, UnionWithMergesAndKeepsMin) {
  TwoHopCover a(3), b(3);
  a.AddOut(0, 1, 5);
  b.AddOut(0, 1, 2);
  b.AddIn(2, 1, 1);
  a.UnionWith(b);
  EXPECT_EQ(a.Size(), 2u);
  EXPECT_EQ(a.Out(0).dist_at(0), 2u);
  EXPECT_TRUE(a.IsConnected(0, 2));
}

TEST(TwoHopCoverTest, ClearNodeAccountsSize) {
  TwoHopCover cover(3);
  cover.AddOut(0, 1);
  cover.AddIn(0, 2);
  cover.AddOut(2, 1);
  EXPECT_EQ(cover.Size(), 3u);
  cover.ClearNode(0);
  EXPECT_EQ(cover.Size(), 1u);
  EXPECT_EQ(cover.Out(0).n, 0u);
  EXPECT_EQ(cover.In(0).n, 0u);
}

TEST(TwoHopCoverTest, SetInOutReplaceAndAccount) {
  TwoHopCover cover(3);
  cover.AddIn(0, 1, 3);
  cover.SetIn(0, {{2, 1}});
  EXPECT_EQ(cover.Size(), 1u);
  EXPECT_EQ(cover.In(0).center(0), 2u);
  cover.SetOut(0, {{1, 0}, {2, 0}});
  EXPECT_EQ(cover.Size(), 3u);
}

TEST(TwoHopCoverTest, MentionsCenter) {
  TwoHopCover cover(3);
  cover.AddOut(0, 2);
  EXPECT_TRUE(cover.MentionsCenter(2));
  EXPECT_FALSE(cover.MentionsCenter(1));
}

TEST(TwoHopCoverTest, EnsureNodesGrows) {
  TwoHopCover cover(2);
  cover.EnsureNodes(10);
  EXPECT_EQ(cover.NumNodes(), 10u);
  cover.AddOut(9, 1);
  EXPECT_TRUE(cover.IsConnected(9, 1));
}

TEST(IndexedCoverTest, AncestorsAndDescendants) {
  // Chain 0 -> 1 -> 2 -> 3 covered with center 1 and 2 choices:
  TwoHopCover cover(4);
  cover.AddOut(0, 1);        // 0 ->* 1
  cover.AddIn(2, 1);         // 1 ->* 2
  cover.AddIn(3, 1);         // 1 ->* 3
  cover.AddOut(0, 2);        // redundant second center
  cover.AddIn(3, 2);
  cover.AddOut(1, 2);
  IndexedCover indexed(std::move(cover));
  EXPECT_EQ(indexed.Descendants(0), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(indexed.Ancestors(3), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(indexed.Ancestors(0), (std::vector<NodeId>{}));
}

TEST(IndexedCoverTest, IncrementalAddKeepsMapsInSync) {
  IndexedCover indexed{TwoHopCover(4)};
  indexed.AddOut(0, 1);
  indexed.AddIn(2, 1);
  EXPECT_EQ(indexed.Descendants(0), (std::vector<NodeId>{1, 2}));
  indexed.AddIn(3, 1);
  EXPECT_EQ(indexed.Descendants(0), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(indexed.Ancestors(3), (std::vector<NodeId>{0, 1}));
}

TEST(IndexedCoverTest, RebuildAfterBulkEdit) {
  TwoHopCover cover(3);
  cover.AddOut(0, 1);
  cover.AddIn(2, 1);
  IndexedCover indexed(std::move(cover));
  indexed.mutable_cover()->ClearNode(0);
  indexed.RebuildReverseMaps();
  EXPECT_TRUE(indexed.Descendants(0).empty());
  EXPECT_EQ(indexed.Ancestors(2), (std::vector<NodeId>{1}));
}

TEST(DensestSubgraphTest, CompleteBipartiteIsItself) {
  BipartiteGraph g(3, 2);
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 2; ++j) g.AddEdge(i, j);
  }
  DensestSubgraph ds = ApproxDensestSubgraph(g);
  EXPECT_EQ(ds.in_vertices.size(), 3u);
  EXPECT_EQ(ds.out_vertices.size(), 2u);
  EXPECT_EQ(ds.edges, 6u);
  EXPECT_DOUBLE_EQ(ds.density, 6.0 / 5.0);
}

TEST(DensestSubgraphTest, IsolatedVerticesDropped) {
  BipartiteGraph g(3, 3);
  g.AddEdge(0, 0);
  // Vertices 1,2 on both sides are isolated.
  DensestSubgraph ds = ApproxDensestSubgraph(g);
  EXPECT_EQ(ds.in_vertices, (std::vector<uint32_t>{0}));
  EXPECT_EQ(ds.out_vertices, (std::vector<uint32_t>{0}));
  EXPECT_DOUBLE_EQ(ds.density, 0.5);
}

TEST(DensestSubgraphTest, FindsDenseCore) {
  // A dense 3x3 core plus a long pendant fringe.
  BipartiteGraph g(10, 10);
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) g.AddEdge(i, j);
  }
  for (uint32_t k = 3; k < 10; ++k) g.AddEdge(k, k);
  DensestSubgraph ds = ApproxDensestSubgraph(g);
  // Core density 9/6 = 1.5; fringe pairs have density 0.5. The
  // 2-approximation must find something at least half the optimum.
  EXPECT_GE(ds.density, 0.75);
  EXPECT_LE(ds.in_vertices.size(), 4u);
}

TEST(DensestSubgraphTest, EdgelessGraph) {
  BipartiteGraph g(4, 4);
  DensestSubgraph ds = ApproxDensestSubgraph(g);
  EXPECT_EQ(ds.density, 0.0);
  EXPECT_TRUE(ds.in_vertices.empty());
}

TEST(DensestSubgraphTest, TwoApproximationGuarantee) {
  // Random bipartite graphs: peeling result must be >= (max density)/2.
  // We verify against the density of the full graph (a lower bound on the
  // optimum) as a sanity proxy.
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    BipartiteGraph g(8, 8);
    uint64_t edges = 0;
    for (uint32_t i = 0; i < 8; ++i) {
      for (uint32_t j = 0; j < 8; ++j) {
        if (rng.NextBernoulli(0.3)) {
          g.AddEdge(i, j);
          ++edges;
        }
      }
    }
    if (edges == 0) continue;
    DensestSubgraph ds = ApproxDensestSubgraph(g);
    double whole = static_cast<double>(edges) / 16.0;
    EXPECT_GE(ds.density + 1e-12, whole / 2.0);
  }
}

}  // namespace
}  // namespace hopi::twohop
