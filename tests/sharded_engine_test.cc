// Sharded scatter-gather serving, proven layer by layer:
//
//   - ShardPlan unit tests: dead documents route to kUnassignedShard, a
//     single-partition collection short-circuits to one shard
//     (everything direct), and the plan's shards split the rows of
//     exactly the cover BuildIndex builds under the same options — each
//     shard holds its own live nodes' rows and nothing else — at 1 and
//     2 build threads.
//   - Distance batches over a plain shard are a typed Unsupported
//     (detected synchronously), never a silent distance-0 answer.
//   - The fault-injection harness: FaultInjectingShardClient wraps the
//     real PoolShardClient through the ShardedEngine test seam and
//     stalls / drops / fails one shard's sub-requests — its direct
//     probes and its row fetches alike — per scenario. The core
//     contract under every fault: degradation is TYPED —
//     DeadlineExceeded or Unavailable plus a resolved mask — and every
//     pair reported resolved matches the closure oracle exactly. Never
//     a wrong bool.
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
#include <span>
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
/// chain, so cross-shard links — and paths through intermediate shards —
/// are guaranteed, not seed-dependent.
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

// ---- ShardPlan units ----

TEST(ShardPlanTest, SinglePartitionCollapsesToOneShardAndRoutesDirect) {
  // One document = one partition; asking for 4 shards must clamp to 1
  // and serve every pair directly (no scatter machinery at all).
  Collection c = ChainCollection(1, 5, 0);
  ShardPlan plan = MustBuildPlan(&c, 4, false);
  EXPECT_EQ(plan.num_shards, 1u);
  EXPECT_EQ(plan.stats.cross_shard_links, 0u);
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
  // Out-of-range ids are unassigned too (ShardOfElement's bound check).
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

// The plan is BuildIndex's cover with its rows split by home shard. The
// DBLP collection is cut into multi-document partitions; the chain has
// one document per partition and loses one document first, so dead
// elements must end up with no rows anywhere. Each plan is built at 1
// and 2 threads: the thread budget goes into the covers phase and must
// not change the plan.
TEST(ShardPlanTest, ShardsSplitTheRowsOfBuildIndexCover) {
  struct Case {
    bool dblp;
    size_t num_shards;
    bool with_distance;
  };
  const Case cases[] = {
      {true, 2, false}, {true, 3, true}, {false, 2, true}, {false, 3, false}};
  for (const Case& tc : cases) {
    for (size_t threads : {1, 2}) {
      Collection c =
          tc.dblp ? testing::SmallDblp(60, 101) : ChainCollection(12, 3, 2);
      if (!tc.dblp) {
        ASSERT_TRUE(c.RemoveDocument(5).ok());
      }
      ShardPlanOptions options;
      options.num_shards = tc.num_shards;
      options.with_distance = tc.with_distance;
      options.num_threads = threads;
      if (tc.dblp) {
        options.partition.max_connections = 3000;
      } else {
        options.partition.strategy =
            partition::PartitionStrategy::kDocPerPartition;
      }
      const std::string context =
          std::string(tc.dblp ? "dblp" : "chain") + " shards " +
          std::to_string(tc.num_shards) +
          (tc.with_distance ? " distance" : " plain") + " threads " +
          std::to_string(threads);
      auto plan = BuildShardPlan(&c, options);
      ASSERT_TRUE(plan.ok()) << context << ": " << plan.status();
      ASSERT_EQ(plan->num_shards, tc.num_shards) << context;
      ASSERT_GT(plan->stats.cross_shard_links, 0u) << context;

      IndexBuildOptions build_options;
      build_options.partition = options.partition;
      build_options.with_distance = tc.with_distance;
      build_options.num_threads = threads;
      auto single = BuildIndex(&c, build_options);
      ASSERT_TRUE(single.ok()) << context << ": " << single.status();

      // Each shard holds its own live nodes' rows and nothing else...
      twohop::TwoHopCover merged(c.NumElements());
      for (uint32_t s = 0; s < plan->num_shards; ++s) {
        const twohop::TwoHopCover& shard = plan->indexes[s]->cover();
        ASSERT_EQ(shard.NumNodes(), c.NumElements()) << context;
        for (NodeId v = 0; v < c.NumElements(); ++v) {
          if (plan->ShardOfElement(v) == s) continue;
          EXPECT_EQ(shard.In(v).n, 0u) << context << " shard " << s << " " << v;
          EXPECT_EQ(shard.Out(v).n, 0u) << context << " shard " << s << " " << v;
        }
        merged.UnionWith(shard);
      }
      // ...and together they are exactly BuildIndex's cover.
      EXPECT_EQ(testing::CoverDigest(merged),
                testing::CoverDigest(single->cover()))
          << context;
      EXPECT_EQ(merged.Size(), single->CoverSize()) << context;
    }
  }
}

// ---- the ShardClient fault-injection seam ----

/// Wraps a real ShardClient and injects one fault mode at a time into
/// every sub-request — its direct probes and its row fetches alike:
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
  std::vector<NodeId> Descendants(
      std::span<const NodeId> centers) const override {
    return inner_->Descendants(centers);
  }
  std::vector<NodeId> Ancestors(
      std::span<const NodeId> centers) const override {
    return inner_->Ancestors(centers);
  }
  Status Swap(std::shared_ptr<const BackendSnapshot> snapshot) override {
    return inner_->Swap(std::move(snapshot));
  }

  Status SubmitBatch(
      ShardRequest request,
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
  std::vector<NodeId> Descendants(
      std::span<const NodeId> centers) const override {
    return inner_->Descendants(centers);
  }
  std::vector<NodeId> Ancestors(
      std::span<const NodeId> centers) const override {
    return inner_->Ancestors(centers);
  }
  Status SubmitBatch(
      ShardRequest request,
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
  // Deadline 0 = wait forever: every sub-request completes, one failed —
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

TEST_F(ShardedFaultFixture, FailedTargetShardLeavesExactlyItsRowFetchesUnresolved) {
  // Sources all live in shard 0, targets anywhere; only shard 2 fails.
  // Shard 0 still answers its direct pairs and every Lout row, so the
  // pairs left unresolved are exactly those that need a Lin row of
  // shard 2 — and every resolved pair is exact.
  auto engine = MakeEngine(std::chrono::milliseconds(0));
  const uint32_t failed = 2;
  faults_[failed]->set_mode(FaultInjectingShardClient::Mode::kFail);
  BatchRequest request;
  request.want_distances = true;
  const auto n = static_cast<NodeId>(c_.NumElements());
  for (NodeId u = 0; u < n; ++u) {
    if (plan_->ShardOfElement(u) != 0) continue;
    for (NodeId v = 0; v < n; ++v) request.pairs.push_back({u, v});
  }
  std::vector<NodePair> pairs = request.pairs;
  auto response = engine->Batch(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsUnavailable()) << response->status;
  ExpectTypedDegradation(*response, pairs, *closure_, true, "failed_target");
  size_t unresolved = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    const bool needs_failed = u != v && plan_->ShardOfElement(v) == failed;
    EXPECT_EQ(response->resolved[i], !needs_failed) << u << "->" << v;
    if (needs_failed) ++unresolved;
  }
  EXPECT_GT(unresolved, 0u);
  EXPECT_LT(unresolved, pairs.size());
  EXPECT_GT(engine->Stats().rows_fetched, 0u);
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

/// Runs each expression through the sharded engine and a single engine
/// over BuildIndex's cover, and expects the same answer: the count, and
/// when `materialize`, the same matches in the same order.
void ExpectPathQueriesMatch(ShardedEngine* engine, Collection* whole,
                            const std::vector<std::string>& expressions,
                            bool materialize) {
  IndexBuildOptions build_options;
  build_options.with_distance = engine->with_distance();
  auto single = BuildIndex(whole, build_options);
  ASSERT_TRUE(single.ok()) << single.status();
  QueryEngine reference = QueryEngine::ForIndex(*single);
  for (const std::string& expression : expressions) {
    PathQueryRequest request;
    request.expression = expression;
    request.count_only = !materialize;
    auto sharded = engine->Query(request);
    ASSERT_TRUE(sharded.ok()) << expression << ": " << sharded.status();
    ASSERT_TRUE(sharded->result.ok()) << expression << ": "
                                      << sharded->result.status();
    auto expected = reference.Query(request);
    ASSERT_TRUE(expected.ok()) << expression << ": " << expected.status();
    EXPECT_EQ(sharded->result->count, expected->count) << expression;
    ASSERT_EQ(sharded->result->matches.size(), expected->matches.size())
        << expression;
    for (size_t m = 0; m < expected->matches.size(); ++m) {
      EXPECT_EQ(sharded->result->matches[m].bindings,
                expected->matches[m].bindings)
          << expression << " match " << m;
      EXPECT_EQ(sharded->result->matches[m].total_distance,
                expected->matches[m].total_distance)
          << expression << " match " << m;
    }
  }
}

TEST_F(ShardedFaultFixture, PathQueriesMatchTheSingleEngine) {
  // The sharded path adapter (row fetch + every shard's backward index)
  // against the whole-collection single engine: count semantics on the
  // chain, then a materializing query too on a 3-shard DBLP plan.
  auto engine = MakeEngine(std::chrono::milliseconds(0));
  Collection chain = ChainCollection(9, 2, 3);
  ExpectPathQueriesMatch(
      engine.get(), &chain,
      {"//article//section", "//article//article", "//article//cite"},
      /*materialize=*/false);

  Collection dblp = testing::SmallDblp(60, 101);
  ShardPlanOptions options;
  options.num_shards = 3;
  options.with_distance = true;
  options.partition.max_connections = 3000;
  auto plan = BuildShardPlan(&dblp, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->num_shards, 3u);
  ASSERT_GT(plan->stats.cross_shard_links, 0u);
  ShardedEngineOptions engine_options;
  engine_options.merge_deadline = std::chrono::milliseconds(0);
  ShardedEngine dblp_engine(&dblp, &*plan, engine_options);
  ExpectPathQueriesMatch(&dblp_engine, &dblp,
                         {"//inproceedings//author", "//cite//title",
                          "//article//title"},
                         /*materialize=*/false);
  ExpectPathQueriesMatch(&dblp_engine, &dblp,
                         {"//inproceedings//cite//title"},
                         /*materialize=*/true);
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
