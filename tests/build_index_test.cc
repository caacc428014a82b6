// End-to-end index construction tests: every partitioner x join x
// preselection x distance combination must produce an index whose cover is
// exactly the element-level graph's closure.
#include <gtest/gtest.h>

#include "datagen/inex.h"
#include "datagen/xmark.h"
#include "graph/traversal.h"
#include "hopi/build.h"
#include "test_util.h"
#include "twohop/builder.h"

namespace hopi {
namespace {

using hopi::testing::ToEntries;

using collection::Collection;

struct BuildCase {
  partition::PartitionStrategy strategy;
  JoinAlgorithm join;
  bool preselect;
  bool with_distance;
};

std::string CaseName(const ::testing::TestParamInfo<BuildCase>& info) {
  const BuildCase& c = info.param;
  std::string name;
  switch (c.strategy) {
    case partition::PartitionStrategy::kRandomizedNodeLimit:
      name += "RandNode";
      break;
    case partition::PartitionStrategy::kTcSizeAware:
      name += "TcAware";
      break;
    case partition::PartitionStrategy::kDocPerPartition:
      name += "DocPer";
      break;
  }
  name += c.join == JoinAlgorithm::kRecursive ? "_Recursive" : "_Incremental";
  if (c.preselect) name += "_Preselect";
  if (c.with_distance) name += "_Dist";
  return name;
}

class BuildIndexProperty : public ::testing::TestWithParam<BuildCase> {};

TEST_P(BuildIndexProperty, CoverExactOnDblpCollection) {
  const BuildCase& bc = GetParam();
  Collection c = testing::SmallDblp(60, 101);
  IndexBuildOptions options;
  options.partition.strategy = bc.strategy;
  options.partition.max_nodes = 300;
  options.partition.max_connections = 4000;
  options.join = bc.join;
  options.preselect_link_targets = bc.preselect;
  options.with_distance = bc.with_distance;
  IndexBuildStats stats;
  auto index = BuildIndex(&c, options, &stats);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_GT(stats.num_partitions, 0u);
  EXPECT_EQ(stats.cover_entries, index->CoverSize());
  Status valid = twohop::ValidateCover(index->cover(), c.ElementGraph(),
                                       bc.with_distance);
  EXPECT_TRUE(valid.ok()) << valid;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, BuildIndexProperty,
    ::testing::Values(
        BuildCase{partition::PartitionStrategy::kRandomizedNodeLimit,
                  JoinAlgorithm::kIncremental, false, false},
        BuildCase{partition::PartitionStrategy::kRandomizedNodeLimit,
                  JoinAlgorithm::kRecursive, false, false},
        BuildCase{partition::PartitionStrategy::kTcSizeAware,
                  JoinAlgorithm::kIncremental, false, false},
        BuildCase{partition::PartitionStrategy::kTcSizeAware,
                  JoinAlgorithm::kRecursive, false, false},
        BuildCase{partition::PartitionStrategy::kDocPerPartition,
                  JoinAlgorithm::kRecursive, false, false},
        BuildCase{partition::PartitionStrategy::kDocPerPartition,
                  JoinAlgorithm::kIncremental, false, false},
        BuildCase{partition::PartitionStrategy::kTcSizeAware,
                  JoinAlgorithm::kRecursive, true, false},
        BuildCase{partition::PartitionStrategy::kRandomizedNodeLimit,
                  JoinAlgorithm::kRecursive, true, false},
        BuildCase{partition::PartitionStrategy::kTcSizeAware,
                  JoinAlgorithm::kRecursive, false, true},
        BuildCase{partition::PartitionStrategy::kTcSizeAware,
                  JoinAlgorithm::kIncremental, false, true},
        BuildCase{partition::PartitionStrategy::kRandomizedNodeLimit,
                  JoinAlgorithm::kRecursive, true, true},
        BuildCase{partition::PartitionStrategy::kDocPerPartition,
                  JoinAlgorithm::kRecursive, false, true}),
    CaseName);

// Bit identity: the exact distance-aware index, pinned by CoverDigest
// (ValidateCover accepts any valid cover). A deliberate change to the
// greedy choice must re-record these.
TEST(BuildIndexTest, DistanceIndexDigestIsPinned) {
  Collection c = testing::SmallDblp(60, 101);
  IndexBuildOptions options;
  options.with_distance = true;
  auto index = BuildIndex(&c, options);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(testing::CoverDigest(index->cover()), 0x62a01b9bcfa5af56ULL);
}

TEST(BuildIndexTest, SmallCapDistanceIndexDigestIsPinned) {
  Collection c = testing::SmallDblp(60, 101);
  IndexBuildOptions options;
  options.partition.max_connections = 4000;
  options.join = JoinAlgorithm::kRecursive;
  options.with_distance = true;
  auto index = BuildIndex(&c, options);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(testing::CoverDigest(index->cover()), 0x759383ce6ca07772ULL);
}

// Sec-6 bit identity: the pinned collection's index after a fixed
// seeded sequence of 60 InsertLink and 3 InsertDocument calls (each new
// document cites an existing root and is cited by an existing element).
// Pins the Fig. 2 link merge both maintenance operations run.
uint64_t MaintainedIndexDigest(bool with_distance) {
  Collection c = testing::SmallDblp(60, 101);
  IndexBuildOptions options;
  options.with_distance = with_distance;
  auto index = BuildIndex(&c, options);
  EXPECT_TRUE(index.ok()) << index.status();
  if (!index.ok()) return 0;
  Rng rng(4242);
  for (int links = 0; links < 60;) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    if (u == v || c.ElementGraph().HasEdge(u, v)) continue;
    EXPECT_TRUE(index->InsertLink(u, v).ok());
    ++links;
  }
  for (int i = 0; i < 3; ++i) {
    NodeId cited = c.RootOf(
        static_cast<collection::DocId>(rng.NextBounded(c.NumDocuments())));
    NodeId citing = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    collection::DocId d =
        c.AddDocument(std::string("maint").append(std::to_string(i)));
    NodeId root = c.AddElement(d, "inproceedings");
    c.AddLink(c.AddElement(d, "cite", root), cited);
    c.AddLink(citing, root);
    EXPECT_TRUE(index->InsertDocument(d).ok());
  }
  Status valid =
      twohop::ValidateCover(index->cover(), c.ElementGraph(), with_distance);
  EXPECT_TRUE(valid.ok()) << valid;
  return testing::CoverDigest(index->cover());
}

TEST(BuildIndexTest, MaintainedIndexDigestIsPinned) {
  EXPECT_EQ(MaintainedIndexDigest(false), 0xfd6be6fae50b0f3aULL);
}

TEST(BuildIndexTest, MaintainedDistanceIndexDigestIsPinned) {
  EXPECT_EQ(MaintainedIndexDigest(true), 0x8ae2fc0a4c2e8226ULL);
}

// Sec-6 delete bit identity: the pinned collection's index after a
// fixed seeded sequence of 8 DeleteLink and 4 DeleteDocument calls,
// each checked by ValidateCover. Pins the Theorem-3 region merge both
// deletes run; the counts say how many deletes took that general path
// (a link delete whose endpoints stay connected in a plain cover, and a
// document that separates the document graph, skip it).
struct DeleteDigest {
  uint64_t digest = 0;
  int general_links = 0;
  int general_documents = 0;
};

DeleteDigest DeletedIndexDigest(bool with_distance) {
  DeleteDigest out;
  Collection c = testing::SmallDblp(60, 101);
  IndexBuildOptions options;
  options.with_distance = with_distance;
  auto index = BuildIndex(&c, options);
  EXPECT_TRUE(index.ok()) << index.status();
  if (!index.ok()) return out;
  Rng rng(4343);
  for (int step = 0; step < 12; ++step) {
    if (step % 3 == 2) {
      collection::DocId doc;
      do {
        doc = static_cast<collection::DocId>(rng.NextBounded(c.NumDocuments()));
      } while (!c.IsLive(doc));
      DeleteStats stats;
      EXPECT_TRUE(index->DeleteDocument(doc, &stats).ok());
      if (!stats.separated) ++out.general_documents;
    } else {
      collection::Link link = c.Links()[rng.NextBounded(c.Links().size())];
      EXPECT_TRUE(index->DeleteLink(link.source, link.target).ok());
      if (with_distance ||
          !IsReachable(c.ElementGraph(), link.source, link.target)) {
        ++out.general_links;
      }
    }
    Status valid =
        twohop::ValidateCover(index->cover(), c.ElementGraph(), with_distance);
    EXPECT_TRUE(valid.ok()) << "step " << step << ": " << valid;
  }
  out.digest = testing::CoverDigest(index->cover());
  return out;
}

TEST(BuildIndexTest, DeletedIndexDigestIsPinned) {
  DeleteDigest run = DeletedIndexDigest(false);
  EXPECT_GE(run.general_links, 1);
  EXPECT_GE(run.general_documents, 1);
  EXPECT_EQ(run.digest, 0x1f126ad8d963e91fULL);
}

TEST(BuildIndexTest, DeletedDistanceIndexDigestIsPinned) {
  DeleteDigest run = DeletedIndexDigest(true);
  EXPECT_GE(run.general_links, 1);
  EXPECT_GE(run.general_documents, 1);
  EXPECT_EQ(run.digest, 0xf8577d66e5acc011ULL);
}

TEST(BuildIndexTest, GlobalBuildMatchesPartitionedSemantics) {
  Collection c = testing::SmallDblp(40, 55);
  IndexBuildOptions global;
  global.global = true;
  auto gi = BuildIndex(&c, global);
  ASSERT_TRUE(gi.ok());
  EXPECT_TRUE(twohop::ValidateCover(gi->cover(), c.ElementGraph()).ok());

  IndexBuildOptions parted;
  parted.partition.max_connections = 2000;
  auto pi = BuildIndex(&c, parted);
  ASSERT_TRUE(pi.ok());
  // Same connectivity answers from both.
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    EXPECT_EQ(gi->IsReachable(u, v), pi->IsReachable(u, v));
  }
}

TEST(BuildIndexTest, GlobalCoverSmallerThanPartitionedOnes) {
  // The global cover is the quality ceiling (paper Sec 7.2: global is
  // most compact but infeasible to build at scale).
  Collection c = testing::SmallDblp(50, 77);
  IndexBuildOptions global;
  global.global = true;
  auto gi = BuildIndex(&c, global);
  ASSERT_TRUE(gi.ok());
  IndexBuildOptions parted;
  parted.partition.strategy = partition::PartitionStrategy::kDocPerPartition;
  auto pi = BuildIndex(&c, parted);
  ASSERT_TRUE(pi.ok());
  EXPECT_LE(gi->CoverSize(), pi->CoverSize());
}

TEST(BuildIndexTest, LinkFreeCollectionHasNoCrossLinks) {
  Collection c;
  datagen::InexConfig config;
  config.num_docs = 10;
  config.mean_elements_per_doc = 80;
  ASSERT_TRUE(datagen::GenerateInexCollection(config, &c).ok());
  IndexBuildOptions options;
  IndexBuildStats stats;
  auto index = BuildIndex(&c, options, &stats);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(stats.cross_links, 0u);
  EXPECT_TRUE(twohop::ValidateCover(index->cover(), c.ElementGraph()).ok());
}

TEST(BuildIndexTest, QueriesAnswerCorrectly) {
  Collection c = testing::SmallDblp(40, 88);
  auto index = BuildIndex(&c);
  ASSERT_TRUE(index.ok());
  // Descendants/ancestors agree with graph BFS for sampled nodes.
  for (NodeId u = 0; u < c.NumElements(); u += 97) {
    std::vector<NodeId> expect = ReachableFrom(c.ElementGraph(), u);
    expect.erase(std::remove(expect.begin(), expect.end(), u), expect.end());
    EXPECT_EQ(index->Descendants(u), expect) << "node " << u;
    std::vector<NodeId> anc = ReachingTo(c.ElementGraph(), u);
    anc.erase(std::remove(anc.begin(), anc.end(), u), anc.end());
    EXPECT_EQ(index->Ancestors(u), anc) << "node " << u;
  }
}

TEST(BuildIndexTest, RecursiveJoinFasterPathProducesSmallerCover) {
  // Paper Table 2: the new join reduces cover size vs the incremental
  // baseline (by ~40% at paper scale; we only assert the direction).
  Collection c = testing::SmallDblp(150, 202);
  IndexBuildOptions inc_opts;
  inc_opts.partition.max_connections = 3000;
  inc_opts.join = JoinAlgorithm::kIncremental;
  auto inc = BuildIndex(&c, inc_opts);
  ASSERT_TRUE(inc.ok());
  IndexBuildOptions rec_opts = inc_opts;
  rec_opts.join = JoinAlgorithm::kRecursive;
  auto rec = BuildIndex(&c, rec_opts);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->CoverSize(), inc->CoverSize());
}

TEST(BuildIndexTest, PsgPartitioningEndToEnd) {
  // Force the recursive join to split the PSG and verify exactness of the
  // full pipeline across several cap sizes (property sweep).
  Collection c = testing::SmallDblp(80, 303);
  for (uint64_t cap : {4u, 16u, 64u}) {
    IndexBuildOptions options;
    options.partition.max_connections = 2000;
    options.psg_partition_cap = cap;
    IndexBuildStats stats;
    auto index = BuildIndex(&c, options, &stats);
    ASSERT_TRUE(index.ok());
    Status valid = twohop::ValidateCover(index->cover(), c.ElementGraph());
    EXPECT_TRUE(valid.ok()) << "cap=" << cap << ": " << valid;
  }
}

TEST(BuildIndexTest, PsgPartitioningWithDistanceEndToEnd) {
  Collection c = testing::SmallDblp(40, 304);
  IndexBuildOptions options;
  options.partition.max_connections = 1500;
  options.psg_partition_cap = 8;
  options.with_distance = true;
  auto index = BuildIndex(&c, options);
  ASSERT_TRUE(index.ok());
  Status valid =
      twohop::ValidateCover(index->cover(), c.ElementGraph(), true);
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST(BuildIndexTest, ParallelBuildMatchesSerial) {
  // Partition covers are deterministic per partition, so thread count
  // must not change the result.
  Collection c = testing::SmallDblp(80, 305);
  IndexBuildOptions serial;
  serial.partition.max_connections = 2000;
  auto si = BuildIndex(&c, serial);
  ASSERT_TRUE(si.ok());
  IndexBuildOptions parallel = serial;
  parallel.num_threads = 4;
  auto pi = BuildIndex(&c, parallel);
  ASSERT_TRUE(pi.ok());
  EXPECT_EQ(si->CoverSize(), pi->CoverSize());
  Status valid = twohop::ValidateCover(pi->cover(), c.ElementGraph());
  EXPECT_TRUE(valid.ok()) << valid;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    EXPECT_EQ(si->IsReachable(u, v), pi->IsReachable(u, v));
  }
}

TEST(BuildIndexTest, RebuildAdvisorTracksDegradation) {
  Collection c = testing::SmallDblp(30, 306);
  auto built = BuildIndex(&c);
  ASSERT_TRUE(built.ok());
  HopiIndex index = std::move(built).value();
  EXPECT_NEAR(index.DegradationFactor(), 1.0, 1e-9);
  EXPECT_FALSE(index.ShouldRebuild());
  // Pile on random links; incremental merging adds redundant centers, so
  // density must not shrink and the advisor must eventually trip at a low
  // threshold.
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    if (u != v && !c.ElementGraph().HasEdge(u, v)) {
      ASSERT_TRUE(index.InsertLink(u, v).ok());
    }
  }
  EXPECT_GT(index.DegradationFactor(), 1.0);
  EXPECT_TRUE(index.ShouldRebuild(1.01));
}

TEST(BuildIndexTest, EmptyCollection) {
  Collection c;
  auto index = BuildIndex(&c);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->CoverSize(), 0u);
  EXPECT_NEAR(index->DegradationFactor(), 1.0, 1e-9);
}

TEST(BuildIndexTest, SingleDocumentCollection) {
  Collection c;
  collection::DocId d = c.AddDocument("only.xml");
  NodeId r = c.AddElement(d, "r");
  NodeId x = c.AddElement(d, "x", r);
  NodeId y = c.AddElement(d, "y", x);
  auto index = BuildIndex(&c);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->IsReachable(r, y));
  EXPECT_FALSE(index->IsReachable(y, r));
  EXPECT_TRUE(twohop::ValidateCover(index->cover(), c.ElementGraph()).ok());
}

TEST(BuildIndexTest, DegradationStableUnderDeletions) {
  // Deletions remove labels; the advisor must not overflow or report
  // nonsense when the collection shrinks.
  Collection c = testing::SmallDblp(20, 307);
  auto built = BuildIndex(&c);
  ASSERT_TRUE(built.ok());
  HopiIndex index = std::move(built).value();
  for (collection::DocId d = 0; d < 5; ++d) {
    if (c.IsLive(d)) {
      ASSERT_TRUE(index.DeleteDocument(d).ok());
    }
  }
  double f = index.DegradationFactor();
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 100.0);
}

TEST(BuildIndexTest, ThreadBudgetNeverChangesTheIndex) {
  // Partition covers are bit-deterministic for every thread count, and
  // the unification/join passes are serial — so the whole index must be
  // identical whether the budget is 1 thread or split across outer
  // partition workers and inner cover threads.
  Collection c = testing::SmallDblp(60, 211);
  IndexBuildOptions base;
  base.partition.strategy = partition::PartitionStrategy::kTcSizeAware;
  base.partition.max_connections = 4000;
  base.preselect_link_targets = true;
  base.num_threads = 1;
  auto sequential = BuildIndex(&c, base);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  for (size_t threads : {2u, 4u, 7u}) {
    IndexBuildOptions opts = base;
    opts.num_threads = threads;
    auto threaded = BuildIndex(&c, opts);
    ASSERT_TRUE(threaded.ok()) << threaded.status();
    const twohop::TwoHopCover& a = sequential->cover();
    const twohop::TwoHopCover& b = threaded->cover();
    ASSERT_EQ(a.NumNodes(), b.NumNodes());
    EXPECT_EQ(a.Size(), b.Size());
    for (NodeId v = 0; v < a.NumNodes(); ++v) {
      EXPECT_EQ(ToEntries(a.In(v)), ToEntries(b.In(v)))
          << "threads=" << threads << " node=" << v;
      EXPECT_EQ(ToEntries(a.Out(v)), ToEntries(b.Out(v)))
          << "threads=" << threads << " node=" << v;
    }
  }
}

TEST(BuildIndexTest, GlobalBuildUsesInnerThreadsDeterministically) {
  Collection c = testing::SmallDblp(25, 212);
  IndexBuildOptions base;
  base.global = true;
  base.num_threads = 1;
  auto sequential = BuildIndex(&c, base);
  ASSERT_TRUE(sequential.ok());
  IndexBuildOptions threaded_opts = base;
  threaded_opts.num_threads = 4;
  IndexBuildStats stats;
  auto threaded = BuildIndex(&c, threaded_opts, &stats);
  ASSERT_TRUE(threaded.ok());
  EXPECT_TRUE(
      twohop::ValidateCover(threaded->cover(), c.ElementGraph()).ok());
  EXPECT_EQ(sequential->cover().Size(), threaded->cover().Size());
  const twohop::TwoHopCover& a = sequential->cover();
  const twohop::TwoHopCover& b = threaded->cover();
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(ToEntries(a.In(v)), ToEntries(b.In(v)));
    EXPECT_EQ(ToEntries(a.Out(v)), ToEntries(b.Out(v)));
  }
}

TEST(BuildIndexTest, XmarkCollectionEndToEnd) {
  Collection c;
  datagen::XmarkConfig config;
  config.num_items = 50;
  config.num_people = 30;
  config.num_auctions = 40;
  ASSERT_TRUE(datagen::GenerateXmarkCollection(config, &c).ok());
  IndexBuildOptions options;
  options.partition.max_connections = 3000;
  auto index = BuildIndex(&c, options);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(twohop::ValidateCover(index->cover(), c.ElementGraph()).ok());
}

}  // namespace
}  // namespace hopi
