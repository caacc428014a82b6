// Sharded scatter-gather serving, proven layer by layer:
//
//   - ShardPlan/ShardRouter unit tests: dead documents route to
//     kUnassignedShard, a single-partition collection short-circuits to
//     one shard (everything direct), and the router's precomputed probe
//     sets are exactly the route tables' endpoint sets.
//   - Digest pins of whole shard plans (every shard cover, the route
//     tables, the plan stats), identical at 1 and 2 build threads.
//   - ComposeThreeLegs against hand-computed min-plus fixtures — the
//     merge layer's math with no engine, no threads, no randomness.
//   - Distance batches over a plain shard are a typed Unsupported
//     (detected synchronously), never a silent distance-0 answer.
//   - The fault-injection harness: FaultInjectingShardClient wraps the
//     real PoolShardClient through the ShardedEngine test seam and
//     stalls / drops / fails one shard per scenario. The core contract
//     under every fault: degradation is TYPED — DeadlineExceeded or
//     Unavailable plus a resolved mask — and every pair reported
//     resolved matches the closure oracle exactly. Never a wrong bool.
//   - A swap-churn stress: client threads hammer Batch() while another
//     thread Swap()s fresh snapshots into every shard; every answer is
//     validated against the matrix served by its reported versions
//     (all published snapshots freeze the same shard covers, so the
//     matrix is the closure's — and each reported version must be one
//     that was actually published).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/engine_pool.h"
#include "engine/shard_router.h"
#include "engine/sharded_engine.h"
#include "engine/snapshot.h"
#include "hopi/baseline.h"
#include "hopi/build.h"
#include "query/tag_index.h"
#include "test_util.h"

namespace hopi::engine {
namespace {

using collection::Collection;
using collection::DocId;

// ---- deterministic cross-link-heavy collections ----

/// `docs` documents (root "article" + `extra` children), roots chained
/// root(d) -> root(d+1), plus skip links root(d) -> root(d+skip). With
/// one document per partition, ANY grouping into 2+ shards must cut the
/// chain, so cross-shard links — and multi-hop skeleton routes through
/// intermediate shards — are guaranteed, not seed-dependent.
Collection ChainCollection(size_t docs, size_t extra, size_t skip) {
  Collection c;
  std::vector<NodeId> roots;
  for (size_t d = 0; d < docs; ++d) {
    DocId doc = c.AddDocument("chain" + std::to_string(d) + ".xml");
    NodeId root = c.AddElement(doc, "article");
    roots.push_back(root);
    for (size_t i = 0; i < extra; ++i) {
      c.AddElement(doc, i % 2 == 0 ? "section" : "cite", root);
    }
  }
  for (size_t d = 0; d + 1 < docs; ++d) c.AddLink(roots[d], roots[d + 1]);
  if (skip > 0) {
    for (size_t d = 0; d + skip < docs; ++d) {
      c.AddLink(roots[d], roots[d + skip]);
    }
  }
  return c;
}

ShardPlan MustBuildPlan(Collection* c, size_t num_shards, bool with_distance,
                        uint64_t psg_partition_cap = 0) {
  ShardPlanOptions options;
  options.num_shards = num_shards;
  options.with_distance = with_distance;
  options.partition.strategy = partition::PartitionStrategy::kDocPerPartition;
  options.psg_partition_cap = psg_partition_cap;
  options.num_threads = 2;
  auto plan = BuildShardPlan(c, options);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return std::move(plan).value();
}

/// The never-a-wrong-bool contract: every pair the response claims to
/// have resolved must match the closure exactly (reachability and,
/// when asked, distance); every unresolved pair must carry the typed
/// placeholders (false / nullopt), not a stale or invented answer.
void ExpectTypedDegradation(const ShardedBatchResponse& response,
                            const std::vector<NodePair>& pairs,
                            const TransitiveClosureIndex& closure,
                            bool with_distance, const std::string& context) {
  ASSERT_EQ(response.batch.reachable.size(), pairs.size()) << context;
  ASSERT_EQ(response.resolved.size(), pairs.size()) << context;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    if (response.resolved[i]) {
      EXPECT_EQ(response.batch.reachable[i], closure.IsReachable(u, v))
          << context << ": resolved pair " << u << "->" << v;
      if (with_distance) {
        EXPECT_EQ(response.batch.distances[i], closure.Distance(u, v))
            << context << ": resolved pair " << u << "->" << v;
      }
    } else {
      EXPECT_FALSE(response.batch.reachable[i])
          << context << ": unresolved pair " << u << "->" << v
          << " must report the false placeholder";
      if (with_distance) {
        EXPECT_EQ(response.batch.distances[i], std::nullopt)
            << context << ": unresolved pair " << u << "->" << v;
      }
    }
  }
}

// ---- ShardPlan / ShardRouter units ----

TEST(ShardPlanTest, SinglePartitionCollapsesToOneShardAndRoutesDirect) {
  // One document = one partition; asking for 4 shards must clamp to 1
  // and serve every pair directly (no scatter machinery at all).
  Collection c = ChainCollection(1, 5, 0);
  ShardPlan plan = MustBuildPlan(&c, 4, false);
  EXPECT_EQ(plan.num_shards, 1u);
  EXPECT_EQ(plan.stats.cross_shard_links, 0u);
  EXPECT_EQ(plan.stats.cross_shard_routes, 0u);
  for (NodeId u = 0; u < c.NumElements(); ++u) {
    EXPECT_EQ(plan.ShardOfElement(u), 0u);
  }

  ShardedEngineOptions options;
  options.merge_deadline = std::chrono::milliseconds(0);
  ShardedEngine engine(&c, &plan, options);
  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(c.ElementGraph(), false);
  BatchRequest request;
  for (NodeId u = 0; u < c.NumElements(); ++u) {
    for (NodeId v = 0; v < c.NumElements(); ++v) request.pairs.push_back({u, v});
  }
  std::vector<NodePair> pairs = request.pairs;
  auto response = engine.Batch(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
  ExpectTypedDegradation(*response, pairs, closure, false, "single_shard");
  ShardStats stats = engine.Stats();
  EXPECT_EQ(stats.cross_pairs, 0u);
  // Reflexive pairs resolve at routing time; everything else is direct.
  EXPECT_EQ(stats.direct_pairs, pairs.size() - c.NumElements());
}

TEST(ShardPlanTest, DeadDocumentsAreUnassignedAndAnswerDead) {
  Collection c = ChainCollection(6, 2, 2);
  const DocId dead = 2;
  std::vector<NodeId> dead_elements(c.ElementsOf(dead).begin(),
                                    c.ElementsOf(dead).end());
  ASSERT_TRUE(c.RemoveDocument(dead).ok());
  ShardPlan plan = MustBuildPlan(&c, 3, false);
  EXPECT_EQ(plan.shard_of_doc[dead], kUnassignedShard);
  for (NodeId u : dead_elements) {
    EXPECT_EQ(plan.ShardOfElement(u), kUnassignedShard);
  }
  for (DocId d = 0; d < c.NumDocuments(); ++d) {
    if (d == dead) continue;
    EXPECT_LT(plan.shard_of_doc[d], plan.num_shards) << "doc " << d;
  }
  // Out-of-range ids are unassigned too (the router's bound check).
  EXPECT_EQ(plan.ShardOfElement(static_cast<NodeId>(c.NumElements() + 5)),
            kUnassignedShard);

  // Probes touching the dead document resolve at routing time: dead,
  // except the reflexive pair — exactly what the closure over the
  // mutated element graph says.
  ShardedEngineOptions options;
  options.merge_deadline = std::chrono::milliseconds(0);
  ShardedEngine engine(&c, &plan, options);
  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(c.ElementGraph(), false);
  BatchRequest request;
  NodeId live = 0;  // doc0's root is live
  request.pairs = {{dead_elements[0], live},
                   {live, dead_elements[0]},
                   {dead_elements[0], dead_elements[1]},
                   {dead_elements[0], dead_elements[0]}};
  std::vector<NodePair> pairs = request.pairs;
  auto response = engine.Batch(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok());
  ExpectTypedDegradation(*response, pairs, closure, false, "dead_doc");
  EXPECT_FALSE(response->batch.reachable[0]);
  EXPECT_TRUE(response->batch.reachable[3]);  // reflexive stays reflexive
}

TEST(ShardRouterTest, ProbeSetsAreExactlyTheRouteEndpointSets) {
  Collection c = ChainCollection(8, 2, 3);
  ShardPlan plan = MustBuildPlan(&c, 3, true);
  ASSERT_GT(plan.stats.cross_shard_links, 0u);
  ASSERT_GT(plan.stats.cross_shard_routes, 0u);
  ShardRouter router(&plan);
  ASSERT_EQ(router.num_shards(), plan.num_shards);

  for (uint32_t a = 0; a < plan.num_shards; ++a) {
    for (uint32_t b = 0; b < plan.num_shards; ++b) {
      if (a == b) continue;
      const std::vector<ShardRoute>& routes = router.RoutesBetween(a, b);
      std::set<NodeId> sources, targets;
      for (const ShardRoute& r : routes) {
        // Route endpoints live in the shards they claim to.
        EXPECT_EQ(plan.ShardOfElement(r.source), a);
        EXPECT_EQ(plan.ShardOfElement(r.target), b);
        sources.insert(r.source);
        targets.insert(r.target);
        // Every route is visible through both dense views.
        const auto& from = router.RoutesFrom(r.source);
        EXPECT_NE(std::find(from.begin(), from.end(),
                            std::make_pair(r.target, r.dist)),
                  from.end());
        const auto& into = router.RoutesInto(r.target);
        EXPECT_NE(std::find(into.begin(), into.end(),
                            std::make_pair(r.source, r.dist)),
                  into.end());
      }
      const ShardProbeSet& probes = router.ProbesBetween(a, b);
      EXPECT_EQ(probes.sources,
                std::vector<NodeId>(sources.begin(), sources.end()));
      EXPECT_EQ(probes.targets,
                std::vector<NodeId>(targets.begin(), targets.end()));
      EXPECT_TRUE(std::is_sorted(probes.sources.begin(), probes.sources.end()));
      EXPECT_TRUE(std::is_sorted(probes.targets.begin(), probes.targets.end()));
    }
  }
}

/// Fingerprint of a whole shard plan: the shard count, every shard's
/// cover (CoverDigest), every route table in table order, then the
/// ShardPlanStats fields.
uint64_t ShardPlanDigest(const ShardPlan& plan) {
  testing::Fnv1a fnv;
  fnv.Mix(plan.num_shards);
  for (const auto& index : plan.indexes) {
    fnv.Mix(testing::CoverDigest(index->cover()));
  }
  for (const std::vector<ShardRoute>& table : plan.routes) {
    fnv.Mix(table.size());
    for (const ShardRoute& r : table) {
      fnv.Mix(r.source);
      fnv.Mix(r.target);
      fnv.Mix(r.dist);
    }
  }
  const ShardPlanStats& s = plan.stats;
  for (uint64_t field :
       {s.num_partitions, s.cross_shard_links, s.skeleton_entries,
        s.cross_shard_routes, s.same_shard_routes, s.augmented_labels,
        s.psg_nodes, s.psg_edges}) {
    fnv.Mix(field);
  }
  return fnv.value();
}

// Bit identity of the shard plan, per collection, mode and shard count.
// The DBLP collection is cut into multi-document partitions, so shards
// join intra-shard links; the chain has one document per partition, so
// with 2 shards its skip links stay inside a shard. Each plan is built
// at 1 and 2 threads: the thread budget goes inside each partition's
// cover build and must not change the plan.
TEST(ShardPlanTest, PlanDigestsArePinned) {
  struct Pin {
    bool dblp;
    size_t num_shards;
    bool with_distance;
    uint64_t digest;
  };
  const Pin pins[] = {
      {true, 2, false, 0xfb380fbf43a0f0a8ULL},
      {true, 3, false, 0xbb03da76ba8c6094ULL},
      {true, 2, true, 0xdec41996297b4af6ULL},
      {true, 3, true, 0x9edd98d5c3d754e1ULL},
      {false, 2, false, 0xdd363e91c788a6e2ULL},
      {false, 3, false, 0x9af545b06af4188cULL},
      {false, 2, true, 0x9df75242e4d4d10aULL},
      {false, 3, true, 0x29322ce03afe975bULL},
  };
  for (const Pin& pin : pins) {
    for (size_t threads : {1, 2}) {
      Collection c =
          pin.dblp ? testing::SmallDblp(60, 101) : ChainCollection(12, 3, 2);
      ShardPlanOptions options;
      options.num_shards = pin.num_shards;
      options.with_distance = pin.with_distance;
      options.num_threads = threads;
      if (pin.dblp) {
        options.partition.max_connections = 3000;
      } else {
        options.partition.strategy =
            partition::PartitionStrategy::kDocPerPartition;
      }
      auto plan = BuildShardPlan(&c, options);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_EQ(ShardPlanDigest(*plan), pin.digest)
          << (pin.dblp ? "dblp" : "chain") << " shards " << pin.num_shards
          << (pin.with_distance ? " distance" : " plain") << " threads "
          << threads << ": 0x" << std::hex << ShardPlanDigest(*plan);
    }
  }
}

// ---- ComposeThreeLegs: the merge layer's math, hand-checked ----

TEST(ComposeThreeLegsTest, MinPlusOverRoutesMatchesHandComputation) {
  // Two routes between the shard pair; legs chosen so the SECOND route
  // wins the min despite the first being reachable too:
  //   route A: source leg 4 + psg 5 + target leg 1 = 10
  //   route B: source leg 1 + psg 2 + target leg 3 = 6   <- min
  std::vector<ShardRoute> routes = {{10, 20, 5}, {11, 21, 2}};
  std::map<NodeId, std::optional<uint32_t>> source_legs = {{10, 4u}, {11, 1u}};
  std::map<NodeId, std::optional<uint32_t>> target_legs = {{20, 1u}, {21, 3u}};
  LegLookup source_leg = [&](NodeId s) { return source_legs.at(s); };
  LegLookup target_leg = [&](NodeId t) { return target_legs.at(t); };

  auto [reachable, dist] = ComposeThreeLegs(routes, source_leg, target_leg,
                                            /*want_distance=*/true);
  EXPECT_TRUE(reachable);
  EXPECT_EQ(dist, std::optional<uint32_t>(6));

  // Without distances the same composition reports bare reachability.
  auto [plain_reachable, plain_dist] =
      ComposeThreeLegs(routes, source_leg, target_leg, /*want_distance=*/false);
  EXPECT_TRUE(plain_reachable);
  EXPECT_EQ(plain_dist, std::nullopt);

  // Knock out route B's source leg: route A must carry the answer.
  source_legs[11] = std::nullopt;
  auto [via_a, dist_a] =
      ComposeThreeLegs(routes, source_leg, target_leg, /*want_distance=*/true);
  EXPECT_TRUE(via_a);
  EXPECT_EQ(dist_a, std::optional<uint32_t>(10));

  // Knock out both: unreachable, no distance.
  target_legs[20] = std::nullopt;
  auto [none, no_dist] =
      ComposeThreeLegs(routes, source_leg, target_leg, /*want_distance=*/true);
  EXPECT_FALSE(none);
  EXPECT_EQ(no_dist, std::nullopt);

  // No routes at all: unreachable without consulting any leg.
  auto [routeless, routeless_dist] = ComposeThreeLegs(
      {}, [](NodeId) -> std::optional<uint32_t> { ADD_FAILURE(); return 0; },
      [](NodeId) -> std::optional<uint32_t> { ADD_FAILURE(); return 0; },
      true);
  EXPECT_FALSE(routeless);
  EXPECT_EQ(routeless_dist, std::nullopt);
}

// ---- the ShardClient fault-injection seam ----

/// Wraps a real ShardClient and injects one fault mode at a time:
///   kHealthy  pass-through
///   kStall    the shard does the work but the answer is held until
///             ReleaseStalled() (a slow shard; the deadline fires first)
///   kDrop     the answer is thrown away (a dead shard; deadline fires)
///   kFail     the answer is replaced by a typed Unavailable (a shard
///             that errors mid-batch)
/// Members are declared so `inner_` is destroyed FIRST: the inner
/// pool's shutdown drain may still deliver into the capture lambdas,
/// which touch mu_/stalled_.
class FaultInjectingShardClient : public ShardClient {
 public:
  enum class Mode { kHealthy, kStall, kDrop, kFail };

  explicit FaultInjectingShardClient(std::unique_ptr<ShardClient> inner)
      : inner_(std::move(inner)) {}

  void set_mode(Mode mode) { mode_.store(mode); }

  /// Delivers every held answer (late stragglers the merge must drop
  /// without corrupting the already-finalized response). Returns how
  /// many were delivered.
  size_t ReleaseStalled() {
    std::vector<Held> held;
    {
      std::lock_guard<std::mutex> lock(mu_);
      held.swap(stalled_);
    }
    for (Held& h : held) h.on_done(std::move(h.result));
    return held.size();
  }

  std::string_view name() const override { return inner_->name(); }
  bool with_distance() const override { return inner_->with_distance(); }
  uint64_t snapshot_version() const override {
    return inner_->snapshot_version();
  }
  std::vector<NodeId> Descendants(NodeId u) const override {
    return inner_->Descendants(u);
  }
  std::vector<NodeId> Ancestors(NodeId u) const override {
    return inner_->Ancestors(u);
  }
  Status Swap(std::shared_ptr<const BackendSnapshot> snapshot) override {
    return inner_->Swap(std::move(snapshot));
  }

  Status SubmitBatch(
      BatchRequest request,
      std::function<void(Result<ShardBatchResult>)> on_done) override {
    switch (mode_.load()) {
      case Mode::kHealthy:
        return inner_->SubmitBatch(std::move(request), std::move(on_done));
      case Mode::kStall:
        return inner_->SubmitBatch(
            std::move(request),
            [this, on_done = std::move(on_done)](
                Result<ShardBatchResult> result) {
              std::lock_guard<std::mutex> lock(mu_);
              stalled_.push_back({std::move(on_done), std::move(result)});
            });
      case Mode::kDrop:
        return inner_->SubmitBatch(std::move(request),
                                   [](Result<ShardBatchResult>) {});
      case Mode::kFail:
        return inner_->SubmitBatch(
            std::move(request),
            [on_done = std::move(on_done)](Result<ShardBatchResult>) {
              on_done(Status::Unavailable("injected shard fault"));
            });
    }
    return Status::Internal("unreachable");
  }

 private:
  struct Held {
    std::function<void(Result<ShardBatchResult>)> on_done;
    Result<ShardBatchResult> result;
  };

  std::atomic<Mode> mode_{Mode::kHealthy};
  std::mutex mu_;
  std::vector<Held> stalled_;
  std::unique_ptr<ShardClient> inner_;  // destroyed first — see above
};

/// Downgrades the wrapped shard to a plain (no-distance) cover in the
/// eyes of the router, for the mixed-distance Unsupported test.
class PlainFacadeShardClient : public ShardClient {
 public:
  explicit PlainFacadeShardClient(std::unique_ptr<ShardClient> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  bool with_distance() const override { return false; }
  uint64_t snapshot_version() const override {
    return inner_->snapshot_version();
  }
  std::vector<NodeId> Descendants(NodeId u) const override {
    return inner_->Descendants(u);
  }
  std::vector<NodeId> Ancestors(NodeId u) const override {
    return inner_->Ancestors(u);
  }
  Status SubmitBatch(
      BatchRequest request,
      std::function<void(Result<ShardBatchResult>)> on_done) override {
    return inner_->SubmitBatch(std::move(request), std::move(on_done));
  }

 private:
  std::unique_ptr<ShardClient> inner_;
};

// ---- fault-injection fixture ----

class ShardedFaultFixture : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 3;

  void SetUp() override {
    c_ = ChainCollection(9, 2, 3);
    plan_ = std::make_unique<ShardPlan>(MustBuildPlan(&c_, kShards, true));
    ASSERT_EQ(plan_->num_shards, kShards);
    ASSERT_GT(plan_->stats.cross_shard_links, 0u);
    closure_ = std::make_unique<TransitiveClosureIndex>(
        TransitiveClosureIndex::Build(c_.ElementGraph(), true));
    tags_ = std::make_shared<const query::TagIndex>(c_);
  }

  /// Builds a ShardedEngine whose clients are fault injectors over real
  /// PoolShardClients; `faults_[s]` is the injection handle for shard s.
  std::unique_ptr<ShardedEngine> MakeEngine(
      std::chrono::milliseconds deadline) {
    faults_.clear();
    std::vector<std::unique_ptr<ShardClient>> clients;
    for (size_t s = 0; s < plan_->num_shards; ++s) {
      EnginePoolOptions pool_options;
      pool_options.num_threads = 1;
      auto inner = std::make_unique<PoolShardClient>(
          "shard-" + std::to_string(s),
          BackendSnapshot::OfIndex(plan_->indexes[s], tags_), pool_options);
      auto fault =
          std::make_unique<FaultInjectingShardClient>(std::move(inner));
      faults_.push_back(fault.get());
      clients.push_back(std::move(fault));
    }
    ShardedEngineOptions options;
    options.merge_deadline = deadline;
    return std::make_unique<ShardedEngine>(&c_, plan_.get(),
                                           std::move(clients), options);
  }

  /// Every (u, v): same-shard, cross-shard, and reflexive pairs alike.
  BatchRequest FullMatrixRequest(bool with_distance) const {
    BatchRequest request;
    request.want_distances = with_distance;
    const auto n = static_cast<NodeId>(c_.NumElements());
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) request.pairs.push_back({u, v});
    }
    return request;
  }

  Collection c_;
  std::unique_ptr<ShardPlan> plan_;
  std::unique_ptr<TransitiveClosureIndex> closure_;
  std::shared_ptr<const query::TagIndex> tags_;
  std::vector<FaultInjectingShardClient*> faults_;
};

TEST_F(ShardedFaultFixture, HealthyShardsAnswerTheFullMatrixExactly) {
  auto engine = MakeEngine(std::chrono::milliseconds(0));
  BatchRequest request = FullMatrixRequest(true);
  std::vector<NodePair> pairs = request.pairs;
  auto response = engine->Batch(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
  EXPECT_TRUE(std::all_of(response->resolved.begin(), response->resolved.end(),
                          [](bool r) { return r; }));
  ExpectTypedDegradation(*response, pairs, *closure_, true, "healthy");
  ShardStats stats = engine->Stats();
  EXPECT_GT(stats.cross_pairs, 0u);
  EXPECT_GT(stats.direct_pairs, 0u);
  EXPECT_EQ(stats.partial_batches, 0u);
}

TEST_F(ShardedFaultFixture, StalledShardDegradesToTypedDeadlinePartial) {
  auto engine = MakeEngine(std::chrono::milliseconds(750));
  const size_t stalled = 1;
  faults_[stalled]->set_mode(FaultInjectingShardClient::Mode::kStall);

  BatchRequest request = FullMatrixRequest(true);
  std::vector<NodePair> pairs = request.pairs;
  auto response = engine->Batch(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsDeadlineExceeded()) << response->status;
  EXPECT_FALSE(response->batch.error.ok());
  ExpectTypedDegradation(*response, pairs, *closure_, true, "stalled");

  // Both regimes actually occur: pairs that avoid the stalled shard
  // entirely are resolved; pairs with an endpoint in it are not.
  size_t resolved_count = 0, unresolved_count = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    const bool touches_stalled = plan_->ShardOfElement(u) == stalled ||
                                 plan_->ShardOfElement(v) == stalled;
    if (touches_stalled && u != v) {
      EXPECT_FALSE(response->resolved[i]) << u << "->" << v;
      ++unresolved_count;
    }
    if (response->resolved[i]) ++resolved_count;
  }
  EXPECT_GT(resolved_count, 0u);
  EXPECT_GT(unresolved_count, 0u);
  EXPECT_EQ(engine->Stats().partial_batches, 1u);

  // The stalled answers arrive late: the merge must drop them without
  // disturbing anything (the finalized-state straggler path).
  EXPECT_GT(faults_[stalled]->ReleaseStalled(), 0u);

  // Recovery: heal the shard and the same matrix answers clean.
  faults_[stalled]->set_mode(FaultInjectingShardClient::Mode::kHealthy);
  BatchRequest retry = FullMatrixRequest(true);
  std::vector<NodePair> retry_pairs = retry.pairs;
  auto recovered = engine->Batch(std::move(retry));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->status.ok()) << recovered->status;
  EXPECT_TRUE(std::all_of(recovered->resolved.begin(),
                          recovered->resolved.end(),
                          [](bool r) { return r; }));
  ExpectTypedDegradation(*recovered, retry_pairs, *closure_, true,
                         "recovered");
}

TEST_F(ShardedFaultFixture, DroppedShardHitsTheDeadlineTyped) {
  auto engine = MakeEngine(std::chrono::milliseconds(500));
  faults_[0]->set_mode(FaultInjectingShardClient::Mode::kDrop);
  BatchRequest request = FullMatrixRequest(false);
  std::vector<NodePair> pairs = request.pairs;
  auto response = engine->Batch(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsDeadlineExceeded()) << response->status;
  ExpectTypedDegradation(*response, pairs, *closure_, false, "dropped");
}

TEST_F(ShardedFaultFixture, FailedShardDegradesToTypedUnavailable) {
  // Deadline 0 = wait forever: every sub-batch completes, one failed —
  // the all-done-but-broken arm of the status taxonomy.
  auto engine = MakeEngine(std::chrono::milliseconds(0));
  const size_t failed = 2;
  faults_[failed]->set_mode(FaultInjectingShardClient::Mode::kFail);
  BatchRequest request = FullMatrixRequest(true);
  std::vector<NodePair> pairs = request.pairs;
  auto response = engine->Batch(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsUnavailable()) << response->status;
  ExpectTypedDegradation(*response, pairs, *closure_, true, "failed_shard");
  ShardStats stats = engine->Stats();
  EXPECT_GT(stats.failed_subbatches, 0u);
  EXPECT_EQ(stats.partial_batches, 1u);

  // Failure mid-run, then recovery: later batches are whole again.
  faults_[failed]->set_mode(FaultInjectingShardClient::Mode::kHealthy);
  for (int round = 0; round < 3; ++round) {
    BatchRequest retry = FullMatrixRequest(true);
    std::vector<NodePair> retry_pairs = retry.pairs;
    auto recovered = engine->Batch(std::move(retry));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(recovered->status.ok()) << recovered->status;
    ExpectTypedDegradation(*recovered, retry_pairs, *closure_, true,
                           "post_failure_round" + std::to_string(round));
  }
}

TEST_F(ShardedFaultFixture, DistanceBatchOverPlainShardIsTypedUnsupported) {
  // Shard 1 pretends its cover is plain. A distance batch that consults
  // it must be refused synchronously — never a silent distance-0 —
  // while distance batches confined to the other shards still work.
  std::vector<std::unique_ptr<ShardClient>> clients;
  for (size_t s = 0; s < plan_->num_shards; ++s) {
    EnginePoolOptions pool_options;
    pool_options.num_threads = 1;
    auto inner = std::make_unique<PoolShardClient>(
        "shard-" + std::to_string(s),
        BackendSnapshot::OfIndex(plan_->indexes[s], tags_), pool_options);
    if (s == 1) {
      clients.push_back(
          std::make_unique<PlainFacadeShardClient>(std::move(inner)));
    } else {
      clients.push_back(std::move(inner));
    }
  }
  ShardedEngineOptions options;
  options.merge_deadline = std::chrono::milliseconds(0);
  ShardedEngine engine(&c_, plan_.get(), std::move(clients), options);
  EXPECT_FALSE(engine.with_distance());

  NodeId in_shard1 = kInvalidNode, in_shard0 = kInvalidNode;
  for (NodeId u = 0; u < c_.NumElements(); ++u) {
    if (plan_->ShardOfElement(u) == 1 && in_shard1 == kInvalidNode)
      in_shard1 = u;
    if (plan_->ShardOfElement(u) == 0 && in_shard0 == kInvalidNode)
      in_shard0 = u;
  }
  ASSERT_NE(in_shard1, kInvalidNode);
  ASSERT_NE(in_shard0, kInvalidNode);

  BatchRequest wants_plain_shard;
  wants_plain_shard.want_distances = true;
  wants_plain_shard.pairs = {{in_shard0, in_shard1}};
  auto refused = engine.Batch(std::move(wants_plain_shard));
  EXPECT_TRUE(refused.status().IsUnsupported()) << refused.status();

  // Same-shard distance traffic on a distance-capable shard is fine.
  BatchRequest confined;
  confined.want_distances = true;
  confined.pairs = {{in_shard0, in_shard0}};
  auto allowed = engine.Batch(std::move(confined));
  ASSERT_TRUE(allowed.ok()) << allowed.status();
  EXPECT_TRUE(allowed->status.ok()) << allowed->status;

  // Plain batches through the downgraded shard still answer exactly.
  BatchRequest plain = FullMatrixRequest(false);
  std::vector<NodePair> pairs = plain.pairs;
  auto response = engine.Batch(std::move(plain));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
  ExpectTypedDegradation(*response, pairs, *closure_, false, "plain_facade");
}

TEST_F(ShardedFaultFixture, SubmitAfterShutdownIsFailedPrecondition) {
  auto engine = MakeEngine(std::chrono::milliseconds(0));
  engine->Shutdown();
  Status refused = engine->SubmitBatch(
      FullMatrixRequest(false),
      [](ShardedBatchResponse) { ADD_FAILURE() << "on_done after shutdown"; });
  EXPECT_TRUE(refused.IsFailedPrecondition()) << refused;
  // Idempotent: a second Shutdown (and the destructor's) is a no-op.
  engine->Shutdown();
}

TEST_F(ShardedFaultFixture, PathQueriesMatchTheSingleEngine) {
  // The sharded path adapter (shard-local expansion + one route hop)
  // against the whole-collection single engine, count semantics.
  Collection whole = ChainCollection(9, 2, 3);
  IndexBuildOptions build_options;
  auto single = BuildIndex(&whole, build_options);
  ASSERT_TRUE(single.ok()) << single.status();
  QueryEngine reference = QueryEngine::ForIndex(*single);

  auto engine = MakeEngine(std::chrono::milliseconds(0));
  for (const char* expression :
       {"//article//section", "//article//article", "//article//cite"}) {
    PathQueryRequest request;
    request.expression = expression;
    request.count_only = true;
    auto sharded = engine->Query(request);
    ASSERT_TRUE(sharded.ok()) << expression << ": " << sharded.status();
    ASSERT_TRUE(sharded->result.ok()) << expression << ": "
                                      << sharded->result.status();
    auto expected = reference.Query(request);
    ASSERT_TRUE(expected.ok()) << expression << ": " << expected.status();
    EXPECT_EQ(sharded->result->count, expected->count) << expression;
  }
}

// ---- swap-churn stress ----

TEST_F(ShardedFaultFixture, SwapChurnKeepsEveryAnswerVersionConsistent) {
  ShardedEngineOptions options;
  options.threads_per_shard = 2;
  options.merge_deadline = std::chrono::milliseconds(0);
  ShardedEngine engine(&c_, plan_.get(), options);

  // Every snapshot ever published per shard. Inserted BEFORE Swap so an
  // answer can never report a version the set does not yet contain. All
  // snapshots freeze the same shard cover, so the matrix any version
  // serves is the closure's — "validate against the matrix of the
  // reported versions" and "validate against the closure" coincide,
  // which is exactly what makes the churn safe to run against live
  // clients.
  std::mutex published_mu;
  std::vector<std::set<uint64_t>> published(plan_->num_shards);
  for (size_t s = 0; s < plan_->num_shards; ++s) {
    published[s].insert(engine.client(s).snapshot_version());
  }

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    size_t round = 0;
    while (!stop.load()) {
      size_t s = round++ % plan_->num_shards;
      auto snapshot = BackendSnapshot::OfIndex(plan_->indexes[s], tags_);
      {
        std::lock_guard<std::mutex> lock(published_mu);
        published[s].insert(snapshot->version());
      }
      ASSERT_TRUE(engine.client(s).Swap(std::move(snapshot)).ok());
      std::this_thread::yield();
    }
  });

  const auto n = static_cast<NodeId>(c_.NumElements());
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(t * 7717 + 5);
      for (int round = 0; round < 40; ++round) {
        BatchRequest request;
        request.want_distances = true;
        for (size_t i = 0; i < 64; ++i) {
          request.pairs.push_back({static_cast<NodeId>(rng.NextBounded(n)),
                                   static_cast<NodeId>(rng.NextBounded(n))});
        }
        std::vector<NodePair> pairs = request.pairs;
        auto response = engine.Batch(std::move(request));
        if (!response.ok() || !response->status.ok()) {
          ++failures;
          continue;
        }
        for (size_t i = 0; i < pairs.size(); ++i) {
          const auto [u, v] = pairs[i];
          if (response->batch.reachable[i] != closure_->IsReachable(u, v) ||
              response->batch.distances[i] != closure_->Distance(u, v)) {
            ++failures;
          }
        }
        std::lock_guard<std::mutex> lock(published_mu);
        for (size_t s = 0; s < response->shard_versions.size(); ++s) {
          if (response->shard_versions[s] != 0 &&
              published[s].count(response->shard_versions[s]) == 0) {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  stop.store(true);
  swapper.join();
  EXPECT_EQ(failures.load(), 0u)
      << "answers or versions diverged under swap churn";
  EXPECT_EQ(engine.Stats().partial_batches, 0u);
}

}  // namespace
}  // namespace hopi::engine
