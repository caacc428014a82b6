#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/backends.h"
#include "engine/engine.h"
#include "engine/label_cache.h"
#include "hopi/build.h"
#include "query/path_query.h"
#include "storage/linlout.h"
#include "test_util.h"
#include "twohop/join_kernel.h"

namespace hopi::engine {
namespace {

using collection::Collection;

/// One distance-aware index over a small DBLP-like collection, exposed
/// through all four backends (the mapped stores are round-tripped
/// through two actual files, one with default blocks opened buffered
/// and one with tiny blocks opened mapped, so this suite also proves
/// the on-disk format preserves every query shape in both open modes).
class BackendParityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    c_ = hopi::testing::SmallDblp(40, 5);
    IndexBuildOptions options;
    options.with_distance = true;
    auto index = BuildIndex(&c_, options);
    ASSERT_TRUE(index.ok()) << index.status();
    index_ = std::make_unique<HopiIndex>(std::move(index).value());
    storage::LinLoutStore store =
        storage::LinLoutStore::FromCover(index_->cover(), true);
    closure_ = std::make_unique<TransitiveClosureIndex>(
        TransitiveClosureIndex::Build(c_.ElementGraph(), true));
    store_path_ = ::testing::TempDir() + "hopi_engine_parity.bin";
    ASSERT_TRUE(store.WriteToFile(store_path_).ok());
    auto mapped = storage::MappedLinLoutStore::Open(store_path_,
                                                    {.prefer_mmap = false});
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    mapped_store_ = std::make_unique<storage::MappedLinLoutStore>(
        std::move(mapped).value());
    // The same cover again, mapped. Tiny blocks force a multi-block
    // layout even on this test-sized cover, so block routing and the
    // cluster split actually get exercised.
    v4_path_ = ::testing::TempDir() + "hopi_engine_parity_v4.bin";
    storage::StoreWriteOptions v4_options;
    v4_options.compress.target_block_bytes = 256;
    v4_options.compress.cluster_split_bytes = 64;
    ASSERT_TRUE(store.WriteToFile(v4_path_, v4_options).ok());
    auto mapped_v4 = storage::MappedLinLoutStore::Open(v4_path_);
    ASSERT_TRUE(mapped_v4.ok()) << mapped_v4.status();
    mapped_v4_store_ = std::make_unique<storage::MappedLinLoutStore>(
        std::move(mapped_v4).value());
    ASSERT_TRUE(mapped_v4_store_->mapped());
    backends_.push_back(std::make_unique<HopiIndexBackend>(*index_));
    backends_.push_back(std::make_unique<ClosureBackend>(*closure_, true));
    backends_.push_back(std::make_unique<MappedStoreBackend>(*mapped_store_));
    backends_.push_back(
        std::make_unique<MappedStoreBackend>(*mapped_v4_store_));
  }

  void TearDown() override {
    std::remove(store_path_.c_str());
    std::remove(v4_path_.c_str());
  }

  Collection c_;
  std::unique_ptr<HopiIndex> index_;
  std::unique_ptr<TransitiveClosureIndex> closure_;
  std::unique_ptr<storage::MappedLinLoutStore> mapped_store_;
  std::unique_ptr<storage::MappedLinLoutStore> mapped_v4_store_;
  std::string store_path_;
  std::string v4_path_;
  std::vector<std::unique_ptr<ReachabilityBackend>> backends_;
};

TEST_F(BackendParityFixture, ReachabilityAndDistanceAgree) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c_.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c_.NumElements()));
    bool expect_reach = backends_[0]->IsReachable(u, v);
    auto expect_dist = backends_[0]->Distance(u, v);
    for (size_t b = 1; b < backends_.size(); ++b) {
      EXPECT_EQ(backends_[b]->IsReachable(u, v), expect_reach)
          << backends_[b]->Name() << " " << u << "->" << v;
      EXPECT_EQ(backends_[b]->Distance(u, v), expect_dist)
          << backends_[b]->Name() << " " << u << "->" << v;
    }
  }
}

TEST_F(BackendParityFixture, AxisEnumerationAgrees) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c_.NumElements()));
    auto expect_desc = backends_[0]->Descendants(u);
    auto expect_anc = backends_[0]->Ancestors(u);
    for (size_t b = 1; b < backends_.size(); ++b) {
      EXPECT_EQ(backends_[b]->Descendants(u), expect_desc)
          << backends_[b]->Name() << " node " << u;
      EXPECT_EQ(backends_[b]->Ancestors(u), expect_anc)
          << backends_[b]->Name() << " node " << u;
    }
  }
}

TEST_F(BackendParityFixture, DefaultTestConnectionsMatchesScalar) {
  Rng rng(17);
  std::vector<NodePair> pairs;
  for (int i = 0; i < 200; ++i) {
    pairs.push_back({static_cast<NodeId>(rng.NextBounded(c_.NumElements())),
                     static_cast<NodeId>(rng.NextBounded(c_.NumElements()))});
  }
  for (const auto& backend : backends_) {
    std::vector<bool> bulk = backend->TestConnections(pairs);
    ASSERT_EQ(bulk.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(bulk[i],
                backend->IsReachable(pairs[i].first, pairs[i].second));
    }
  }
}

TEST_F(BackendParityFixture, PathQueryParityAcrossBackends) {
  query::TagIndex tags(c_);
  for (const char* q : {"//inproceedings//cite//title",
                        "//inproceedings//author", "//abstract//sentence"}) {
    auto expr = query::PathExpression::Parse(q);
    ASSERT_TRUE(expr.ok());
    auto expect = query::EvaluatePath(*expr, *backends_[0], c_, tags);
    ASSERT_TRUE(expect.ok());
    auto expect_count = query::CountPathResults(*expr, *backends_[0], c_, tags);
    ASSERT_TRUE(expect_count.ok());
    for (size_t b = 1; b < backends_.size(); ++b) {
      auto matches = query::EvaluatePath(*expr, *backends_[b], c_, tags);
      ASSERT_TRUE(matches.ok());
      ASSERT_EQ(matches->size(), expect->size()) << backends_[b]->Name();
      for (size_t i = 0; i < matches->size(); ++i) {
        EXPECT_EQ((*matches)[i].bindings, (*expect)[i].bindings)
            << backends_[b]->Name() << " " << q << " match " << i;
        EXPECT_EQ((*matches)[i].total_distance, (*expect)[i].total_distance);
        EXPECT_DOUBLE_EQ((*matches)[i].score, (*expect)[i].score);
      }
      auto count = query::CountPathResults(*expr, *backends_[b], c_, tags);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, *expect_count) << backends_[b]->Name() << " " << q;
    }
  }
}

// ---- the facade ----

class QueryEngineFixture : public BackendParityFixture {
 protected:
  void SetUp() override {
    BackendParityFixture::SetUp();
    engines_.push_back(
        std::make_unique<QueryEngine>(QueryEngine::ForIndex(*index_)));
    engines_.push_back(std::make_unique<QueryEngine>(
        QueryEngine::ForClosure(c_, *closure_, true)));
    engines_.push_back(std::make_unique<QueryEngine>(
        QueryEngine::ForMappedStore(c_, *mapped_store_)));
    engines_.push_back(std::make_unique<QueryEngine>(
        QueryEngine::ForMappedStore(c_, *mapped_v4_store_)));
  }

  std::vector<NodePair> RandomPairs(size_t n, uint64_t seed) const {
    Rng rng(seed);
    std::vector<NodePair> pairs;
    for (size_t i = 0; i < n; ++i) {
      pairs.push_back(
          {static_cast<NodeId>(rng.NextBounded(c_.NumElements())),
           static_cast<NodeId>(rng.NextBounded(c_.NumElements()))});
    }
    return pairs;
  }

  std::vector<std::unique_ptr<QueryEngine>> engines_;
};

TEST_F(QueryEngineFixture, ScalarReachabilityMatchesBackend) {
  for (const auto& engine : engines_) {
    ReachabilityResponse r =
        engine->Reachability({.source = 0, .target = 1, .want_distance = true});
    EXPECT_EQ(r.reachable, engine->backend().IsReachable(0, 1));
    if (r.reachable) {
      EXPECT_EQ(r.distance, engine->backend().Distance(0, 1));
    }
  }
}

TEST_F(QueryEngineFixture, BatchMatchesScalarAcrossAllBackends) {
  std::vector<NodePair> pairs = RandomPairs(300, 19);
  // Append duplicates and reflexive probes.
  for (size_t i = 0; i < 100; ++i) pairs.push_back(pairs[i]);
  pairs.push_back({7, 7});
  for (const auto& engine : engines_) {
    BatchResponse r = engine->Batch({.pairs = pairs, .want_distances = true});
    ASSERT_EQ(r.reachable.size(), pairs.size());
    ASSERT_EQ(r.distances.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto [u, v] = pairs[i];
      EXPECT_EQ(r.reachable[i], engine->backend().IsReachable(u, v))
          << engine->backend().Name() << " " << u << "->" << v;
      EXPECT_EQ(r.distances[i], engine->backend().Distance(u, v))
          << engine->backend().Name() << " " << u << "->" << v;
    }
  }
}

/// Pins the process-wide join kernel for one scope; restores heuristic
/// dispatch on exit so test order cannot leak a forced kernel.
class ScopedJoinKernel {
 public:
  explicit ScopedJoinKernel(twohop::JoinKernel k) {
    twohop::SetForcedJoinKernel(k);
  }
  ~ScopedJoinKernel() {
    twohop::SetForcedJoinKernel(twohop::JoinKernel::kAuto);
  }
};

TEST_F(QueryEngineFixture, AllJoinKernelsAgreeAcrossAllBackends) {
  // The CI matrix forces each kernel via HOPI_JOIN_KERNEL; this is the
  // in-process equivalent: every supported kernel must answer every
  // probe shape identically through all four backends — scalar and
  // batch, reachability and distance — on top of the per-kernel
  // property suite in join_kernel_test.
  std::vector<NodePair> pairs = RandomPairs(400, 23);
  pairs.push_back({3, 3});
  std::vector<bool> golden_reach;
  std::vector<std::optional<uint32_t>> golden_dist;
  {
    ScopedJoinKernel pin(twohop::JoinKernel::kScalar);
    for (auto [u, v] : pairs) {
      golden_reach.push_back(backends_[0]->IsReachable(u, v));
      golden_dist.push_back(backends_[0]->Distance(u, v));
    }
  }
  for (twohop::JoinKernel kernel : twohop::SupportedJoinKernels()) {
    ScopedJoinKernel pin(kernel);
    for (const auto& backend : backends_) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        auto [u, v] = pairs[i];
        EXPECT_EQ(golden_reach[i], backend->IsReachable(u, v))
            << backend->Name() << " kernel " << twohop::JoinKernelName(kernel)
            << " " << u << "->" << v;
        EXPECT_EQ(golden_dist[i], backend->Distance(u, v))
            << backend->Name() << " kernel " << twohop::JoinKernelName(kernel)
            << " " << u << "->" << v;
      }
    }
    for (const auto& engine : engines_) {
      BatchResponse r =
          engine->Batch({.pairs = pairs, .want_distances = true});
      ASSERT_TRUE(r.error.ok());
      for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(golden_reach[i], r.reachable[i])
            << engine->backend().Name() << " kernel "
            << twohop::JoinKernelName(kernel);
        EXPECT_EQ(golden_dist[i], r.distances[i])
            << engine->backend().Name() << " kernel "
            << twohop::JoinKernelName(kernel);
      }
    }
  }
  // Forcing a kernel the host cannot run must degrade, not break: the
  // answers stay correct even when kAVX2 is pinned on a non-AVX2 box.
  ScopedJoinKernel pin(twohop::JoinKernel::kAVX2);
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto [u, v] = pairs[i];
    EXPECT_EQ(golden_reach[i], backends_[0]->IsReachable(u, v));
  }
}

TEST_F(QueryEngineFixture, BatchDedupesRepeatedProbes) {
  QueryEngine& engine = *engines_[3];  // block-compressed v4 store
  std::vector<NodePair> pairs;
  for (int rep = 0; rep < 10; ++rep) {
    for (NodeId v = 0; v < 20; ++v) pairs.push_back({0, v});
  }
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_EQ(r.stats.probes, 200u);
  EXPECT_EQ(r.stats.unique_probes, 20u);
  // Two label fetches per distinct non-reflexive pair (the (0,0) probe
  // needs no labels), each by exactly one route.
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses +
                r.stats.labels_borrowed,
            2u * 19u);
  // LOUT(0) is fetched once per distinct pair but decoded at most once:
  // the 18 fetches after the first hit its resident block.
  ASSERT_TRUE(mapped_v4_store_->LoutBlockHandle(0).has_value());
  EXPECT_GE(r.stats.cache_hits, 18u);
  EXPECT_LE(r.stats.blocks_decoded, r.stats.cache_misses);
  EXPECT_EQ(r.stats.backend_probes, 0u);
}

TEST_F(QueryEngineFixture, HopiBackendBorrowsLabelsZeroCopy) {
  QueryEngine& engine = *engines_[0];  // in-memory cover backend
  std::vector<NodePair> pairs;
  for (int rep = 0; rep < 10; ++rep) {
    for (NodeId v = 0; v < 20; ++v) pairs.push_back({0, v});
  }
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_EQ(r.stats.unique_probes, 20u);
  // In-memory labels are borrowed straight from the cover: no cache
  // traffic, no backend probes, two borrows per non-reflexive pair.
  EXPECT_EQ(r.stats.labels_borrowed, 2u * 19u);
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses, 0u);
  EXPECT_EQ(r.stats.backend_probes, 0u);
}

TEST_F(QueryEngineFixture, RepeatedBatchServedFromLabelCache) {
  QueryEngine& engine = *engines_[3];  // block-compressed v4 store
  std::vector<NodePair> pairs = RandomPairs(100, 23);
  BatchResponse first = engine.Batch({.pairs = pairs});
  EXPECT_GT(first.stats.cache_misses, 0u);
  BatchResponse second = engine.Batch({.pairs = pairs});
  // Every block is hot now (cache capacity far exceeds the file).
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_EQ(second.stats.blocks_decoded, 0u);
  EXPECT_GT(second.stats.cache_hits, 0u);
  EXPECT_EQ(second.reachable, first.reachable);
}

TEST_F(QueryEngineFixture, MappedV4BackendDecodesBlocksThroughCache) {
  QueryEngine& engine = *engines_[3];  // block-compressed v4 store
  std::vector<NodePair> pairs = RandomPairs(200, 37);
  size_t non_reflexive = 0;
  {
    std::vector<NodePair> unique;
    for (const auto& p : pairs) {
      if (std::find(unique.begin(), unique.end(), p) == unique.end()) {
        unique.push_back(p);
        if (p.first != p.second) ++non_reflexive;
      }
    }
  }
  BatchResponse cold = engine.Batch({.pairs = pairs});
  ASSERT_TRUE(cold.error.ok()) << cold.error;
  // Every label fetch takes exactly one route; empty rows are borrowed
  // (the one label a compressed store never decodes), the rest flow
  // through the block cache.
  EXPECT_EQ(cold.stats.cache_hits + cold.stats.cache_misses +
                cold.stats.labels_borrowed,
            2u * non_reflexive);
  EXPECT_GT(cold.stats.blocks_decoded, 0u);
  EXPECT_LE(cold.stats.blocks_decoded, cold.stats.cache_misses);
  EXPECT_EQ(cold.stats.backend_probes, 0u);

  LabelCache::Stats stats = engine.CacheStats();
  EXPECT_EQ(stats.blocks_decoded, cold.stats.blocks_decoded);
  EXPECT_GT(stats.bytes_resident, 0u);
  EXPECT_LE(stats.bytes_resident, stats.byte_budget);
  EXPECT_GT(stats.decode_nanos, 0u);

  // Warm pass: everything is resident (default budget far exceeds this
  // cover), so no block is decoded twice and answers are bit-identical.
  BatchResponse warm = engine.Batch({.pairs = pairs});
  EXPECT_EQ(warm.stats.blocks_decoded, 0u);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_EQ(warm.reachable, cold.reachable);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(cold.reachable[i],
              engine.backend().IsReachable(pairs[i].first, pairs[i].second));
  }
}

TEST_F(QueryEngineFixture, LabelLessBackendFallsBackToDirectProbes) {
  QueryEngine& engine = *engines_[1];  // closure backend: no labels
  std::vector<NodePair> pairs = RandomPairs(50, 29);
  pairs.push_back(pairs[0]);
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_EQ(r.stats.cache_hits, 0u);
  EXPECT_EQ(r.stats.cache_misses, 0u);
  EXPECT_EQ(r.stats.backend_probes, r.stats.unique_probes);
  EXPECT_LT(r.stats.unique_probes, r.stats.probes);
}

TEST_F(QueryEngineFixture, QueryMatchesFreeFunctions) {
  query::TagIndex tags(c_);
  auto expr = query::PathExpression::Parse("//inproceedings//cite//title");
  ASSERT_TRUE(expr.ok());
  for (const auto& engine : engines_) {
    auto response = engine->Query({.expression = "//inproceedings//cite//title"});
    ASSERT_TRUE(response.ok()) << response.status();
    auto expect =
        query::EvaluatePath(*expr, engine->backend(), c_, tags);
    ASSERT_TRUE(expect.ok());
    ASSERT_EQ(response->matches.size(), expect->size());
    EXPECT_EQ(response->count, expect->size());
    for (size_t i = 0; i < expect->size(); ++i) {
      EXPECT_EQ(response->matches[i].bindings, (*expect)[i].bindings);
    }

    auto count = engine->Query(
        {.expression = "//inproceedings//cite//title", .count_only = true});
    ASSERT_TRUE(count.ok());
    auto expect_count =
        query::CountPathResults(*expr, engine->backend(), c_, tags);
    ASSERT_TRUE(expect_count.ok());
    EXPECT_EQ(count->count, *expect_count);
    EXPECT_TRUE(count->matches.empty());
  }
}

TEST_F(QueryEngineFixture, QueryRejectsMalformedExpression) {
  auto response = engines_[0]->Query({.expression = "//a/b"});
  EXPECT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument());
}

TEST_F(QueryEngineFixture, SimilarityOptionExpandsApproximateSteps) {
  QueryEngineOptions options;
  options.similarity = query::TagSimilarity::DblpDefaults();
  QueryEngine engine = QueryEngine::ForIndex(*index_, std::move(options));
  auto exact = engine.Query({.expression = "//book//author"});
  auto approx = engine.Query({.expression = "//~book//author"});
  ASSERT_TRUE(exact.ok() && approx.ok());
  EXPECT_GE(approx->count, exact->count);
}

// ---- the byte-budgeted block cache ----

/// A one-row block for node `key` with `width` entries, the first
/// pointing at `center` (width 1 is the smallest block there is; wider
/// ones charge more bytes).
LabelBlock MakeBlock(NodeId key, NodeId center, uint32_t width = 1) {
  auto block = std::make_shared<storage::DecodedBlock>();
  block->row_keys = {key};
  block->row_begin = {0, width};
  twohop::LabelSummary summary = twohop::LabelSummary::Empty();
  for (uint32_t i = 0; i < width; ++i) {
    block->centers.push_back(center + i);
    block->dists.push_back(1);
    summary.Add(center + i);
  }
  block->row_summaries = {summary.word};
  return block;
}

/// Byte charge of one MakeBlock() block (they are all the same shape).
size_t OneBlockBytes() { return MakeBlock(0, 0)->ApproxBytes(); }

/// The single center of a MakeBlock() block.
uint32_t CenterOf(const LabelBlock& block) {
  return block->JoinRow(0).center(0);
}

TEST(LabelCacheTest, HitsAndMisses) {
  LabelCache cache(1 << 20);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Put(1, MakeBlock(1, 42));
  LabelBlock hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(CenterOf(hit), 42u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.bytes_resident(), OneBlockBytes());
}

TEST(LabelCacheTest, EvictsLeastRecentlyUsedWhenOverBudget) {
  LabelCache cache(3 * OneBlockBytes());
  cache.Put(1, MakeBlock(1, 1));
  cache.Put(2, MakeBlock(2, 2));
  cache.Put(3, MakeBlock(3, 3));
  EXPECT_EQ(cache.bytes_resident(), 3 * OneBlockBytes());
  // Touch 1 so 2 becomes the LRU entry.
  ASSERT_NE(cache.Get(1), nullptr);
  cache.Put(4, MakeBlock(4, 4));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(2), nullptr);  // evicted
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_LE(cache.bytes_resident(), cache.byte_budget());
}

TEST(LabelCacheTest, PutOverwritesInPlace) {
  LabelCache cache(1 << 20);
  cache.Put(1, MakeBlock(1, 1));
  cache.Put(1, MakeBlock(1, 9));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes_resident(), OneBlockBytes());
  EXPECT_EQ(CenterOf(cache.Get(1)), 9u);
}

TEST(LabelCacheTest, ZeroBudgetCachesNothingButPinsStillWork) {
  // Budget 0 is legal: every insert is immediately evicted, yet the
  // caller's shared_ptr pin keeps the returned block usable — the
  // engine stays correct, just cold.
  LabelCache cache(0);
  LabelBlock pinned = cache.Put(1, MakeBlock(1, 7));
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(CenterOf(pinned), 7u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_resident(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(1), nullptr);
}

TEST(LabelCacheTest, EvictionDoesNotInvalidatePinnedBlocks) {
  LabelCache cache(OneBlockBytes());  // room for exactly one block
  LabelBlock pinned = cache.Put(1, MakeBlock(1, 11));
  cache.Put(2, MakeBlock(2, 22));  // evicts block 1
  EXPECT_EQ(cache.Get(1), nullptr);
  // The evicted block is alive for as long as the pin is held: this is
  // the ownership rule PinnedJoin relies on mid-join.
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(CenterOf(pinned), 11u);
  EXPECT_EQ(pinned.use_count(), 1);  // cache reference is gone
}

TEST(LabelCacheTest, EvictsInExactRecencyOrderWithExactBytes) {
  // A seeded run of Gets and (often overwriting) Puts of blocks of
  // different sizes, against a reference LRU: a list of (handle,
  // bytes), most recent first. The test keeps only weak references,
  // so a block is alive exactly while the cache holds it, and after
  // every step the resident set, the byte count and the eviction count
  // must equal the model's.
  constexpr uint64_t kHandles = 8;
  const size_t budget = 4 * OneBlockBytes();
  LabelCache cache(budget);
  std::vector<std::pair<uint64_t, size_t>> model;
  size_t model_bytes = 0;
  uint64_t model_evictions = 0;
  std::vector<std::weak_ptr<const storage::DecodedBlock>> alive(kHandles);
  auto touch = [&](uint64_t handle) -> size_t {
    auto it = std::find_if(model.begin(), model.end(),
                           [&](const auto& e) { return e.first == handle; });
    if (it == model.end()) return 0;
    size_t bytes = it->second;
    model.erase(it);
    model.insert(model.begin(), {handle, bytes});
    return bytes;
  };
  Rng rng(17);
  for (int step = 0; step < 600; ++step) {
    uint64_t handle = rng.NextBounded(kHandles);
    if (rng.NextBounded(2) == 0) {
      bool expect_hit = touch(handle) > 0;
      EXPECT_EQ(cache.Get(handle) != nullptr, expect_hit) << "step " << step;
    } else {
      uint32_t width = 1 + static_cast<uint32_t>(rng.NextBounded(6));
      LabelBlock block = MakeBlock(static_cast<NodeId>(handle), 0, width);
      alive[handle] = block;
      model_bytes -= touch(handle);  // an overwrite re-charges the entry
      if (model.empty() || model.front().first != handle) {
        model.insert(model.begin(), {handle, 0});
      }
      model.front().second = block->ApproxBytes();
      model_bytes += block->ApproxBytes();
      while (model_bytes > budget && !model.empty()) {
        model_bytes -= model.back().second;
        model.pop_back();
        ++model_evictions;
      }
      cache.Put(handle, std::move(block));
    }
    ASSERT_EQ(cache.bytes_resident(), model_bytes) << "step " << step;
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    ASSERT_EQ(cache.evictions(), model_evictions) << "step " << step;
    for (uint64_t h = 0; h < kHandles; ++h) {
      bool resident = std::any_of(model.begin(), model.end(),
                                  [&](const auto& e) { return e.first == h; });
      ASSERT_EQ(!alive[h].expired(), resident)
          << "step " << step << " handle " << h;
    }
  }
  EXPECT_GT(model_evictions, 0u);
}

TEST(LabelCacheTest, DecodeAccountingFlowsIntoStats) {
  LabelCache cache(1 << 20);
  cache.RecordDecode(1500);
  cache.RecordDecode(500);
  LabelCache::Stats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.blocks_decoded, 2u);
  EXPECT_EQ(stats.decode_nanos, 2000u);
  EXPECT_EQ(stats.byte_budget, size_t{1} << 20);
}

TEST(LabelCacheTest, ClearResetsEntriesButKeepsCounters) {
  LabelCache cache(1 << 20);
  cache.Put(1, MakeBlock(1, 1));
  ASSERT_NE(cache.Get(1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_resident(), 0u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(QueryEngineFixture, SmallCacheEvictsUnderPressure) {
  // Room for about two of the v4 file's decoded blocks.
  auto handle = mapped_v4_store_->LoutBlockHandle(0);
  ASSERT_TRUE(handle.has_value());
  auto block = mapped_v4_store_->DecodeBlock(*handle);
  ASSERT_TRUE(block.ok()) << block.status();
  QueryEngineOptions options;
  options.label_cache_bytes = 2 * (*block)->ApproxBytes();
  QueryEngine engine =
      QueryEngine::ForMappedStore(c_, *mapped_v4_store_, std::move(options));
  // Probe far more distinct nodes than the budget holds; answers must
  // stay correct while the cache churns.
  std::vector<NodePair> pairs = RandomPairs(200, 31);
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_GT(engine.label_cache().evictions(), 0u);
  EXPECT_LE(engine.label_cache().bytes_resident(),
            engine.label_cache().byte_budget());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(r.reachable[i],
              engine.backend().IsReachable(pairs[i].first, pairs[i].second));
  }
}

TEST_F(QueryEngineFixture, TinyCacheStillAnswersCompressedStoreCorrectly) {
  // Same pressure test against the v4 block route: a budget smaller
  // than one decoded block means every probe decodes cold — the
  // pathological-but-legal configuration the pinning rule exists for.
  QueryEngineOptions options;
  options.label_cache_bytes = 1;
  QueryEngine engine =
      QueryEngine::ForMappedStore(c_, *mapped_v4_store_, std::move(options));
  std::vector<NodePair> pairs = RandomPairs(100, 41);
  BatchResponse r = engine.Batch({.pairs = pairs});
  ASSERT_TRUE(r.error.ok()) << r.error;
  EXPECT_EQ(engine.label_cache().size(), 0u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(r.reachable[i],
              engine.backend().IsReachable(pairs[i].first, pairs[i].second));
  }
}

}  // namespace
}  // namespace hopi::engine
