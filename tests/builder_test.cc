// Property tests for the greedy 2-hop cover builder: every build, on every
// graph shape, must produce a cover that is complete, sound and (in
// distance mode) metric-exact — checked by the exhaustive validator.
#include <gtest/gtest.h>

#include "graph/closure.h"
#include "test_util.h"
#include "twohop/builder.h"

namespace hopi::twohop {
namespace {

using hopi::testing::ToEntries;

Digraph Chain(size_t n) {
  Digraph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

Digraph BinaryTree(size_t n) {
  Digraph g(n);
  for (NodeId i = 1; i < n; ++i) g.AddEdge((i - 1) / 2, i);
  return g;
}

Digraph Diamond() {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  return g;
}

TEST(CoverBuilderTest, EmptyGraph) {
  Digraph g(5);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->Size(), 0u);
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
}

TEST(CoverBuilderTest, SingleEdge) {
  Digraph g(2);
  g.AddEdge(0, 1);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
  EXPECT_TRUE(cover->IsConnected(0, 1));
  EXPECT_FALSE(cover->IsConnected(1, 0));
}

TEST(CoverBuilderTest, ChainCoverIsCompact) {
  Digraph g = Chain(32);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
  // A chain of n nodes has n(n-1)/2 = 496 connections; the 2-hop cover
  // must be far smaller than the closure.
  EXPECT_LT(cover->Size(), 200u);
}

TEST(CoverBuilderTest, DiamondAndTree) {
  for (const Digraph& g : {Diamond(), BinaryTree(31)}) {
    auto cover = BuildCover(g);
    ASSERT_TRUE(cover.ok());
    EXPECT_TRUE(ValidateCover(*cover, g).ok());
  }
}

TEST(CoverBuilderTest, CyclicGraph) {
  Digraph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);  // 3-cycle
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(4, 3);  // 2-cycle downstream
  g.AddEdge(4, 5);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
  EXPECT_TRUE(cover->IsConnected(0, 5));
  EXPECT_TRUE(cover->IsConnected(1, 0));  // via the cycle
}

TEST(CoverBuilderTest, SelfLoop) {
  Digraph g(3);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
}

TEST(CoverBuilderTest, StatsArepopulated) {
  Digraph g = testing::RandomDag(50, 2.0, 3);
  CoverBuildStats stats;
  auto cover = BuildCover(g, {}, &stats);
  ASSERT_TRUE(cover.ok());
  EXPECT_GT(stats.initial_connections, 0u);
  EXPECT_GT(stats.centers_chosen, 0u);
  EXPECT_GE(stats.densest_recomputations, stats.centers_chosen);
}

TEST(CoverBuilderTest, CompressionBeatsClosureOnDags) {
  Digraph g = testing::RandomDag(120, 3.0, 8);
  auto tc = TransitiveClosure::Build(g);
  ASSERT_TRUE(tc.ok());
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(ValidateCover(*cover, g).ok());
  // The whole point of HOPI: |L| << |T|.
  EXPECT_LT(cover->Size(), tc->NumConnections());
}

TEST(CoverBuilderTest, PreselectedCentersStillValid) {
  Digraph g = testing::RandomDag(40, 2.0, 12);
  CoverBuildOptions options;
  options.preselect_centers = {5, 17, 30};
  CoverBuildStats stats;
  auto cover = BuildCover(g, options, &stats);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
}

TEST(CoverBuilderTest, PreselectionCoversThroughCenter) {
  // 0 -> 1 -> 2: preselecting center 1 covers everything up front.
  Digraph g = Chain(3);
  CoverBuildOptions options;
  options.preselect_centers = {1};
  CoverBuildStats stats;
  auto cover = BuildCover(g, options, &stats);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
  EXPECT_EQ(stats.preselect_covered, 3u);  // (0,1) (0,2) (1,2)
  EXPECT_EQ(stats.centers_chosen, 0u);     // greedy loop had nothing left
}

// ---- Parameterized property sweep: random DAGs ----

struct DagParams {
  size_t nodes;
  double avg_out;
  uint64_t seed;
};

const DagParams kDagSweep[] = {
    {10, 1.5, 1}, {10, 3.0, 2}, {25, 1.0, 3}, {25, 2.5, 4}, {40, 2.0, 5},
    {40, 4.0, 6}, {60, 1.5, 7}, {60, 3.0, 8}, {80, 2.0, 9}, {15, 5.0, 10}};

class CoverBuilderDagProperty : public ::testing::TestWithParam<DagParams> {};

TEST_P(CoverBuilderDagProperty, ValidOnRandomDag) {
  const DagParams& p = GetParam();
  Digraph g = testing::RandomDag(p.nodes, p.avg_out, p.seed);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok()) << "nodes=" << p.nodes
                                             << " seed=" << p.seed;
}

TEST_P(CoverBuilderDagProperty, ValidWithDistanceOnRandomDag) {
  const DagParams& p = GetParam();
  Digraph g = testing::RandomDag(p.nodes, p.avg_out, p.seed);
  CoverBuildOptions options;
  options.with_distance = true;
  auto cover = BuildCover(g, options);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g, /*check_distances=*/true).ok())
      << "nodes=" << p.nodes << " seed=" << p.seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoverBuilderDagProperty,
                         ::testing::ValuesIn(kDagSweep));

// ---- Parameterized property sweep: random cyclic digraphs ----

struct DigraphParams {
  size_t nodes;
  size_t edges;
  uint64_t seed;
};

const DigraphParams kCyclicSweep[] = {{8, 12, 11},  {12, 30, 12}, {20, 40, 13},
                                      {20, 80, 14}, {30, 60, 15}, {30, 120, 16},
                                      {40, 70, 17}, {50, 100, 18}};

class CoverBuilderCyclicProperty
    : public ::testing::TestWithParam<DigraphParams> {};

TEST_P(CoverBuilderCyclicProperty, ValidOnRandomDigraph) {
  const DigraphParams& p = GetParam();
  Digraph g = testing::RandomDigraph(p.nodes, p.edges, p.seed);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok()) << "seed=" << p.seed;
}

TEST_P(CoverBuilderCyclicProperty, ValidWithDistance) {
  const DigraphParams& p = GetParam();
  Digraph g = testing::RandomDigraph(p.nodes, p.edges, p.seed);
  CoverBuildOptions options;
  options.with_distance = true;
  auto cover = BuildCover(g, options);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g, /*check_distances=*/true).ok())
      << "seed=" << p.seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoverBuilderCyclicProperty,
                         ::testing::ValuesIn(kCyclicSweep));

// ---- Bit identity: the sweeps' exact covers, pinned ----
// Each sweep's CoverDigest values folded into one digest per mode. The
// property tests above accept any valid cover; these fail when the
// builder picks different centers, and a deliberate change to the greedy
// choice must re-record them.

template <typename Params, size_t N, typename MakeGraph>
uint64_t SweepDigest(const Params (&sweep)[N], bool with_distance,
                     MakeGraph make_graph) {
  testing::Fnv1a fold;
  for (const Params& p : sweep) {
    CoverBuildOptions options;
    options.with_distance = with_distance;
    auto cover = BuildCover(make_graph(p), options);
    EXPECT_TRUE(cover.ok()) << cover.status();
    if (cover.ok()) fold.Mix(testing::CoverDigest(*cover));
  }
  return fold.value();
}

uint64_t DagSweepDigest(bool with_distance) {
  return SweepDigest(kDagSweep, with_distance, [](const DagParams& p) {
    return testing::RandomDag(p.nodes, p.avg_out, p.seed);
  });
}

uint64_t CyclicSweepDigest(bool with_distance) {
  return SweepDigest(kCyclicSweep, with_distance, [](const DigraphParams& p) {
    return testing::RandomDigraph(p.nodes, p.edges, p.seed);
  });
}

TEST(CoverBuilderDigestTest, DagSweepCoversArePinned) {
  EXPECT_EQ(DagSweepDigest(false), 0xb12baf02f9d43532ULL);
  EXPECT_EQ(DagSweepDigest(true), 0x558824732ecefbf3ULL);
}

TEST(CoverBuilderDigestTest, CyclicSweepCoversArePinned) {
  EXPECT_EQ(CyclicSweepDigest(false), 0x3d68c1dcab66f55dULL);
  EXPECT_EQ(CyclicSweepDigest(true), 0xb20dbe9f966b0477ULL);
}

TEST(CoverBuilderDistanceTest, ExactDistancesOnDiamond) {
  Digraph g = Diamond();
  g.AddEdge(0, 3);  // shortcut of length 1 beside two length-2 paths
  CoverBuildOptions options;
  options.with_distance = true;
  auto cover = BuildCover(g, options);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(ValidateCover(*cover, g, true).ok());
  EXPECT_EQ(*cover->Distance(0, 3), 1u);
}

TEST(CoverBuilderDistanceTest, LongChainDistances) {
  Digraph g(20);
  for (NodeId i = 0; i + 1 < 20; ++i) g.AddEdge(i, i + 1);
  CoverBuildOptions options;
  options.with_distance = true;
  auto cover = BuildCover(g, options);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(ValidateCover(*cover, g, true).ok());
  EXPECT_EQ(*cover->Distance(0, 19), 19u);
  EXPECT_EQ(*cover->Distance(5, 6), 1u);
}

// ---- Parallel build determinism (the snapshot/commit protocol must
// reproduce the sequential build bit for bit) ----

void ExpectCoversIdentical(const TwoHopCover& a, const TwoHopCover& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.Size(), b.Size());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(ToEntries(a.In(v)), ToEntries(b.In(v)))
        << "Lin mismatch at node " << v;
    EXPECT_EQ(ToEntries(a.Out(v)), ToEntries(b.Out(v)))
        << "Lout mismatch at node " << v;
  }
}

class CoverBuilderParallelParity
    : public ::testing::TestWithParam<bool> {};  // param = with_distance

TEST_P(CoverBuilderParallelParity, ParallelCoverIdenticalToSequential) {
  const bool with_distance = GetParam();
  for (uint64_t seed : {21u, 22u, 23u}) {
    Digraph g = testing::RandomDag(60, 2.5, seed);
    CoverBuildOptions sequential;
    sequential.with_distance = with_distance;
    sequential.num_threads = 1;
    CoverBuildStats seq_stats;
    auto base = BuildCover(g, sequential, &seq_stats);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(ValidateCover(*base, g, with_distance).ok());
    for (size_t threads : {2u, 4u, 8u}) {
      CoverBuildOptions parallel = sequential;
      parallel.num_threads = threads;
      CoverBuildStats par_stats;
      auto cover = BuildCover(g, parallel, &par_stats);
      ASSERT_TRUE(cover.ok());
      EXPECT_TRUE(ValidateCover(*cover, g, with_distance).ok())
          << "threads=" << threads << " seed=" << seed;
      ExpectCoversIdentical(*base, *cover);
      // The pop/commit sequence is identical, so the sequence-driven
      // counters must match; only the speculation accounting may differ.
      EXPECT_EQ(par_stats.centers_chosen, seq_stats.centers_chosen);
      EXPECT_EQ(par_stats.queue_reinsertions, seq_stats.queue_reinsertions);
      EXPECT_GE(par_stats.densest_recomputations,
                seq_stats.densest_recomputations);
      EXPECT_GE(par_stats.speculative_evaluations,
                par_stats.speculative_wasted);
    }
  }
}

TEST_P(CoverBuilderParallelParity, ParallelCoverIdenticalOnCyclicGraphs) {
  const bool with_distance = GetParam();
  Digraph g = testing::RandomDigraph(30, 90, 24);
  CoverBuildOptions sequential;
  sequential.with_distance = with_distance;
  auto base = BuildCover(g, sequential);
  ASSERT_TRUE(base.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    CoverBuildOptions parallel = sequential;
    parallel.num_threads = threads;
    auto cover = BuildCover(g, parallel);
    ASSERT_TRUE(cover.ok());
    EXPECT_TRUE(ValidateCover(*cover, g, with_distance).ok());
    ExpectCoversIdentical(*base, *cover);
  }
}

TEST_P(CoverBuilderParallelParity, SpeculationBatchNeverChangesTheCover) {
  const bool with_distance = GetParam();
  Digraph g = testing::RandomDag(50, 3.0, 25);
  CoverBuildOptions sequential;
  sequential.with_distance = with_distance;
  auto base = BuildCover(g, sequential);
  ASSERT_TRUE(base.ok());
  for (uint32_t batch : {1u, 3u, 16u}) {
    CoverBuildOptions parallel = sequential;
    parallel.num_threads = 4;
    parallel.speculation_batch = batch;
    auto cover = BuildCover(g, parallel);
    ASSERT_TRUE(cover.ok());
    ExpectCoversIdentical(*base, *cover);
  }
}

TEST_P(CoverBuilderParallelParity, ParallelPreselectionParity) {
  const bool with_distance = GetParam();
  Digraph g = testing::RandomDag(40, 2.0, 26);
  CoverBuildOptions sequential;
  sequential.with_distance = with_distance;
  sequential.preselect_centers = {3, 11, 29};
  CoverBuildStats seq_stats;
  auto base = BuildCover(g, sequential, &seq_stats);
  ASSERT_TRUE(base.ok());
  CoverBuildOptions parallel = sequential;
  parallel.num_threads = 4;
  CoverBuildStats par_stats;
  auto cover = BuildCover(g, parallel, &par_stats);
  ASSERT_TRUE(cover.ok());
  ExpectCoversIdentical(*base, *cover);
  EXPECT_EQ(par_stats.preselect_covered, seq_stats.preselect_covered);
}

INSTANTIATE_TEST_SUITE_P(PlainAndDistance, CoverBuilderParallelParity,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Distance" : "Plain";
                         });

}  // namespace
}  // namespace hopi::twohop
