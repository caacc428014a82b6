#include <gtest/gtest.h>

#include "graph/closure.h"
#include "graph/subgraph.h"
#include "partition/partitioner.h"
#include "partition/skeleton.h"
#include "test_util.h"

namespace hopi::partition {
namespace {

using collection::Collection;
using collection::DocId;

TEST(SkeletonGraphTest, NodesAreLinkEndpoints) {
  Collection c = hopi::testing::SmallDblp(80, 3);
  SkeletonGraph s = BuildSkeletonGraph(c);
  for (NodeId sk = 0; sk < s.graph.NumNodes(); ++sk) {
    EXPECT_TRUE(s.is_source[sk] || s.is_target[sk]);
  }
  // Every link endpoint must be interned.
  for (const collection::Link& l : c.Links()) {
    EXPECT_NE(s.SkeletonNodeOf(l.source), kInvalidNode);
    EXPECT_NE(s.SkeletonNodeOf(l.target), kInvalidNode);
  }
}

TEST(SkeletonGraphTest, InternalEdgesFollowTreeReachability) {
  // Doc A: root -> cite (source). Doc B: root(target) -> cite2 (source).
  // Link cite -> B-root. B-root is a tree ancestor of cite2, so the
  // skeleton must contain the internal edge B-root -> cite2.
  Collection c;
  DocId a = c.AddDocument("a.xml");
  NodeId ar = c.AddElement(a, "r");
  NodeId cite = c.AddElement(a, "cite", ar);
  DocId b = c.AddDocument("b.xml");
  NodeId br = c.AddElement(b, "r");
  NodeId cite2 = c.AddElement(b, "cite", br);
  DocId z = c.AddDocument("z.xml");
  NodeId zr = c.AddElement(z, "r");
  c.AddLink(cite, br);
  c.AddLink(cite2, zr);
  SkeletonGraph s = BuildSkeletonGraph(c);
  NodeId sk_br = s.SkeletonNodeOf(br);
  NodeId sk_c2 = s.SkeletonNodeOf(cite2);
  ASSERT_NE(sk_br, kInvalidNode);
  ASSERT_NE(sk_c2, kInvalidNode);
  EXPECT_TRUE(s.graph.HasEdge(sk_br, sk_c2));
  // Annotations: br includes itself and cite2 in desc count.
  EXPECT_EQ(s.desc[sk_br], 2u);
  EXPECT_EQ(s.anc[sk_c2], 2u);
}

TEST(SkeletonGraphTest, EstimatesGrowAlongLinkChains) {
  // Chain of 3 docs, each root has a subtree of distinct size.
  Collection c;
  std::vector<NodeId> roots, cites;
  for (int i = 0; i < 3; ++i) {
    DocId d =
        c.AddDocument(std::string("d").append(std::to_string(i)) + ".xml");
    NodeId r = c.AddElement(d, "r");
    for (int k = 0; k < 3 * (i + 1); ++k) c.AddElement(d, "x", r);
    cites.push_back(c.AddElement(d, "cite", r));
    roots.push_back(r);
  }
  c.AddLink(cites[0], roots[1]);
  c.AddLink(cites[1], roots[2]);
  SkeletonGraph s = BuildSkeletonGraph(c);
  AncDescEstimate est = EstimateAncDesc(s, 8);
  // The first link's target gains the downstream document's elements.
  NodeId sk_t1 = s.SkeletonNodeOf(roots[1]);
  ASSERT_NE(sk_t1, kInvalidNode);
  EXPECT_GT(est.D[sk_t1], s.desc[sk_t1]);  // more than its own subtree
}

TEST(EdgeWeightsTest, LinkCountMatchesDocEdges) {
  Collection c = hopi::testing::SmallDblp(60, 5);
  auto weights = ComputeDocEdgeWeights(c, EdgeWeightPolicy::kLinkCount);
  for (const auto& [edge, w] : weights) {
    EXPECT_EQ(w, c.DocEdgeLinkCount(edge.first, edge.second));
  }
}

TEST(EdgeWeightsTest, PoliciesProduceDifferentScales) {
  Collection c = hopi::testing::SmallDblp(60, 5);
  auto links = ComputeDocEdgeWeights(c, EdgeWeightPolicy::kLinkCount);
  auto atimesd = ComputeDocEdgeWeights(c, EdgeWeightPolicy::kAtimesD);
  auto aplusd = ComputeDocEdgeWeights(c, EdgeWeightPolicy::kAplusD);
  ASSERT_FALSE(links.empty());
  EXPECT_EQ(links.size(), atimesd.size());
  EXPECT_EQ(links.size(), aplusd.size());
  // A*D weights dominate A+D which dominate raw link counts (on average).
  uint64_t sum_l = 0, sum_m = 0, sum_p = 0;
  for (const auto& [e, w] : links) sum_l += w;
  for (const auto& [e, w] : atimesd) sum_m += w;
  for (const auto& [e, w] : aplusd) sum_p += w;
  EXPECT_GT(sum_m, sum_p);
  EXPECT_GT(sum_p, sum_l);
}

TEST(EdgeWeightPolicyNameTest, AllNamed) {
  EXPECT_STREQ(EdgeWeightPolicyName(EdgeWeightPolicy::kLinkCount), "links");
  EXPECT_STREQ(EdgeWeightPolicyName(EdgeWeightPolicy::kAtimesD), "A*D");
  EXPECT_STREQ(EdgeWeightPolicyName(EdgeWeightPolicy::kAplusD), "A+D");
}

class PartitionerTest : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(PartitionerTest, EveryLiveDocAssignedExactlyOnce) {
  Collection c = hopi::testing::SmallDblp(100, 11);
  PartitionOptions options;
  options.strategy = GetParam();
  options.max_nodes = 500;
  options.max_connections = 20000;
  auto p = PartitionCollection(c, options);
  ASSERT_TRUE(p.ok());
  std::vector<int> seen(c.NumDocuments(), 0);
  for (const auto& part : p->partitions) {
    for (DocId d : part) ++seen[d];
  }
  for (DocId d = 0; d < c.NumDocuments(); ++d) {
    EXPECT_EQ(seen[d], c.IsLive(d) ? 1 : 0);
    if (c.IsLive(d)) {
      EXPECT_LT(p->part_of[d], p->NumPartitions());
      // part_of consistent with membership lists.
      const auto& members = p->partitions[p->part_of[d]];
      EXPECT_NE(std::find(members.begin(), members.end(), d), members.end());
    }
  }
}

TEST_P(PartitionerTest, CrossLinksAreExactlyTheBoundaryLinks) {
  Collection c = hopi::testing::SmallDblp(100, 13);
  PartitionOptions options;
  options.strategy = GetParam();
  options.max_nodes = 400;
  options.max_connections = 10000;
  auto p = PartitionCollection(c, options);
  ASSERT_TRUE(p.ok());
  size_t expected = 0;
  for (const collection::Link& l : c.Links()) {
    DocId ds = c.DocOf(l.source), dt = c.DocOf(l.target);
    if (ds != dt && p->part_of[ds] != p->part_of[dt]) ++expected;
  }
  EXPECT_EQ(p->cross_links.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PartitionerTest,
                         ::testing::Values(
                             PartitionStrategy::kRandomizedNodeLimit,
                             PartitionStrategy::kTcSizeAware,
                             PartitionStrategy::kDocPerPartition));

TEST(PartitionerTest, DocPerPartitionIsSingletons) {
  Collection c = hopi::testing::SmallDblp(40, 2);
  PartitionOptions options;
  options.strategy = PartitionStrategy::kDocPerPartition;
  auto p = PartitionCollection(c, options);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->NumPartitions(), c.NumLiveDocuments());
  for (const auto& part : p->partitions) EXPECT_EQ(part.size(), 1u);
}

TEST(PartitionerTest, NodeLimitRespected) {
  Collection c = hopi::testing::SmallDblp(120, 19);
  PartitionOptions options;
  options.strategy = PartitionStrategy::kRandomizedNodeLimit;
  options.max_nodes = 300;
  auto p = PartitionCollection(c, options);
  ASSERT_TRUE(p.ok());
  for (const auto& part : p->partitions) {
    uint64_t nodes = 0;
    for (DocId d : part) nodes += c.ElementsOf(d).size();
    // A single oversized document may exceed the cap on its own; multi-doc
    // partitions must respect it.
    if (part.size() > 1) {
      EXPECT_LE(nodes, 300u);
    }
  }
}

TEST(PartitionerTest, TcCapClosesPartitionsPromptly) {
  Collection c = hopi::testing::SmallDblp(120, 23);
  PartitionOptions options;
  options.strategy = PartitionStrategy::kTcSizeAware;
  options.max_connections = 5000;
  auto p = PartitionCollection(c, options);
  ASSERT_TRUE(p.ok());
  EXPECT_GT(p->NumPartitions(), 1u);
  // Verify the closure of each partition: it may overshoot the cap only by
  // the contribution of its final document (the paper closes a partition
  // when the closure is "as large as the available memory").
  for (const auto& part : p->partitions) {
    std::vector<NodeId> elements;
    for (DocId d : part) {
      const auto& els = c.ElementsOf(d);
      elements.insert(elements.end(), els.begin(), els.end());
    }
    InducedSubgraph sub = BuildInducedSubgraph(c.ElementGraph(), elements);
    if (part.size() > 1) {
      // Closure without the last doc must have been under the cap.
      std::vector<NodeId> without_last;
      for (size_t i = 0; i + 1 < part.size(); ++i) {
        const auto& els = c.ElementsOf(part[i]);
        without_last.insert(without_last.end(), els.begin(), els.end());
      }
      InducedSubgraph sub2 =
          BuildInducedSubgraph(c.ElementGraph(), without_last);
      EXPECT_LT(TransitiveClosure::CountConnections(sub2.graph), 5000u);
    }
  }
}

TEST(PartitionerTest, DeterministicForFixedSeed) {
  Collection c = hopi::testing::SmallDblp(80, 31);
  PartitionOptions options;
  options.strategy = PartitionStrategy::kTcSizeAware;
  options.max_connections = 8000;
  options.seed = 99;
  auto p1 = PartitionCollection(c, options);
  auto p2 = PartitionCollection(c, options);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1->partitions, p2->partitions);
}

TEST(PartitionerTest, SkipsRemovedDocuments) {
  Collection c = hopi::testing::SmallDblp(50, 37);
  ASSERT_TRUE(c.RemoveDocument(10).ok());
  ASSERT_TRUE(c.RemoveDocument(20).ok());
  PartitionOptions options;
  auto p = PartitionCollection(c, options);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->part_of[10], kUnassigned);
  EXPECT_EQ(p->part_of[20], kUnassigned);
}

}  // namespace
}  // namespace hopi::partition
