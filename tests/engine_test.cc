#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
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
  // Built once per suite: every test only reads this state, and the
  // index, the closure and the two files are most of the suite's time
  // under the sanitizers.
  static void SetUpTestSuite() {
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

  static void TearDownTestSuite() {
    backends_.clear();
    mapped_v4_store_.reset();
    mapped_store_.reset();
    closure_.reset();
    index_.reset();
    std::remove(store_path_.c_str());
    std::remove(v4_path_.c_str());
  }

  static inline Collection c_;
  static inline std::unique_ptr<HopiIndex> index_;
  static inline std::unique_ptr<TransitiveClosureIndex> closure_;
  static inline std::unique_ptr<storage::MappedLinLoutStore> mapped_store_;
  static inline std::unique_ptr<storage::MappedLinLoutStore> mapped_v4_store_;
  static inline std::string store_path_;
  static inline std::string v4_path_;
  static inline std::vector<std::unique_ptr<ReachabilityBackend>> backends_;
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

/// One lookup: a GetMany of one handle.
LabelBlock GetOne(LabelCache& cache, uint64_t handle) {
  LabelBlock block;
  cache.GetMany({&handle, 1}, {&block, 1});
  return block;
}

TEST(LabelCacheTest, HitsAndMisses) {
  LabelCache cache(1 << 20);
  EXPECT_EQ(GetOne(cache, 1), nullptr);
  cache.Put(1, MakeBlock(1, 42));
  LabelBlock hit = GetOne(cache, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(CenterOf(hit), 42u);
  EXPECT_EQ(cache.bytes_resident(), OneBlockBytes());
  // Lookups are counted by the caller and recorded in one call.
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  cache.Record({.hits = 1, .misses = 1});
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

/// The reference CLOCK for a one-shard cache: the ring in the order
/// the hand reaches it (front = under the hand), each entry with its
/// bytes and reference bit.
class ClockModel {
 public:
  explicit ClockModel(size_t budget) : budget_(budget) {}

  /// A Get: true on a hit, which sets the entry's reference bit.
  bool Get(uint64_t handle) {
    Slot* slot = Find(handle);
    if (slot != nullptr) slot->referenced = true;
    return slot != nullptr;
  }

  /// A Put: an overwrite keeps its place and sets the bit; a new entry
  /// goes just behind the hand with the bit clear. Then the hand
  /// sweeps: a set bit is cleared and passed, a clear one is evicted,
  /// until the bytes fit the budget.
  void Put(uint64_t handle, size_t bytes) {
    if (Slot* slot = Find(handle)) {
      bytes_ -= slot->bytes;
      slot->bytes = bytes;
      slot->referenced = true;
    } else {
      ring_.push_back({handle, bytes, false});
    }
    bytes_ += bytes;
    while (bytes_ > budget_) {
      Slot slot = ring_.front();
      ring_.pop_front();
      if (slot.referenced) {
        slot.referenced = false;
        ring_.push_back(slot);
      } else {
        bytes_ -= slot.bytes;
        ++evictions_;
      }
    }
  }

  bool Resident(uint64_t handle) { return Find(handle) != nullptr; }
  size_t bytes() const { return bytes_; }
  size_t size() const { return ring_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Slot {
    uint64_t handle;
    size_t bytes;
    bool referenced;
  };
  Slot* Find(uint64_t handle) {
    auto it = std::find_if(ring_.begin(), ring_.end(),
                           [&](const Slot& s) { return s.handle == handle; });
    return it == ring_.end() ? nullptr : &*it;
  }

  std::deque<Slot> ring_;
  size_t budget_;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
};

/// Runs Gets and Puts on a one-shard LabelCache and on ClockModel side
/// by side. It keeps only weak references to the blocks it puts, so a
/// block is alive exactly while the cache holds it; Check() compares
/// the resident set, the bytes, the evictions and that liveness.
class ClockHarness {
 public:
  ClockHarness(size_t budget, uint64_t handles)
      : cache_(budget), model_(budget), alive_(handles) {
    EXPECT_EQ(cache_.num_shards(), 1u);
  }

  /// Returns whether the cache hit; it must agree with the model.
  bool Get(uint64_t handle) {
    bool hit = GetOne(cache_, handle) != nullptr;
    EXPECT_EQ(hit, model_.Get(handle)) << "handle " << handle;
    return hit;
  }

  /// One GetMany: each lookup must agree with a model Get.
  void GetMany(const std::vector<uint64_t>& handles) {
    std::vector<LabelBlock> blocks(handles.size());
    cache_.GetMany(handles, blocks);
    for (size_t i = 0; i < handles.size(); ++i) {
      EXPECT_EQ(blocks[i] != nullptr, model_.Get(handles[i]))
          << "handle " << handles[i];
      if (blocks[i]) {
        EXPECT_EQ(blocks[i]->row_keys[0], handles[i]);
      }
    }
  }

  void Put(uint64_t handle, uint32_t width = 1) {
    LabelBlock block = MakeBlock(static_cast<NodeId>(handle), 0, width);
    alive_[handle] = block;
    model_.Put(handle, block->ApproxBytes());
    cache_.Put(handle, std::move(block));
  }

  void Check(int step) {
    ASSERT_EQ(cache_.bytes_resident(), model_.bytes()) << "step " << step;
    ASSERT_EQ(cache_.size(), model_.size()) << "step " << step;
    ASSERT_EQ(cache_.evictions(), model_.evictions()) << "step " << step;
    for (uint64_t h = 0; h < alive_.size(); ++h) {
      ASSERT_EQ(!alive_[h].expired(), model_.Resident(h))
          << "step " << step << " handle " << h;
    }
  }

  const LabelCache& cache() const { return cache_; }
  const ClockModel& model() const { return model_; }

 private:
  LabelCache cache_;
  ClockModel model_;
  std::vector<std::weak_ptr<const storage::DecodedBlock>> alive_;
};

TEST(LabelCacheTest, EvictsUnreferencedBlocksFirstWhenOverBudget) {
  // Three blocks fill the budget. A hit gives block 1 a second chance,
  // so the fourth insert evicts block 2: the hand clears 1's bit and
  // passes it, then finds 2 unreferenced.
  ClockHarness clock(3 * OneBlockBytes(), 5);
  int step = 0;
  for (uint64_t h : {1, 2, 3}) {
    clock.Put(h);
    clock.Check(step++);
  }
  EXPECT_EQ(clock.cache().bytes_resident(), 3 * OneBlockBytes());
  EXPECT_TRUE(clock.Get(1));
  clock.Check(step++);
  clock.Put(4);
  clock.Check(step++);
  EXPECT_EQ(clock.cache().evictions(), 1u);
  EXPECT_FALSE(clock.Get(2));  // evicted
  for (uint64_t h : {1, 3, 4}) {
    EXPECT_TRUE(clock.Get(h)) << "handle " << h;
    clock.Check(step++);
  }
  EXPECT_EQ(clock.cache().size(), 3u);
  EXPECT_LE(clock.cache().bytes_resident(), clock.cache().byte_budget());
}

TEST(LabelCacheTest, PutOverwritesInPlace) {
  LabelCache cache(1 << 20);
  cache.Put(1, MakeBlock(1, 1));
  cache.Put(1, MakeBlock(1, 9));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes_resident(), OneBlockBytes());
  EXPECT_EQ(CenterOf(GetOne(cache, 1)), 9u);
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
  EXPECT_EQ(GetOne(cache, 1), nullptr);
}

TEST(LabelCacheTest, EvictionDoesNotInvalidatePinnedBlocks) {
  LabelCache cache(OneBlockBytes());  // room for exactly one block
  LabelBlock pinned = cache.Put(1, MakeBlock(1, 11));
  cache.Put(2, MakeBlock(2, 22));  // evicts block 1
  EXPECT_EQ(GetOne(cache, 1), nullptr);
  // The evicted block is alive for as long as the pin is held: this is
  // the ownership rule a batch relies on mid-join.
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(CenterOf(pinned), 11u);
  EXPECT_EQ(pinned.use_count(), 1);  // cache reference is gone
}

TEST(LabelCacheTest, EvictsInClockOrderWithExactBytes) {
  // A seeded run of lookups (of one handle, or of up to three at once,
  // repeats allowed) and (often overwriting) Puts of blocks of different
  // sizes, against the reference CLOCK: after every step the resident
  // set, the byte count, the eviction count and which blocks are alive
  // must equal the model's.
  constexpr uint64_t kHandles = 8;
  ClockHarness clock(4 * OneBlockBytes(), kHandles);
  Rng rng(17);
  for (int step = 0; step < 900; ++step) {
    uint64_t handle = rng.NextBounded(kHandles);
    const uint64_t op = rng.NextBounded(3);
    if (op == 0) {
      clock.Get(handle);
    } else if (op == 1) {
      std::vector<uint64_t> handles = {handle};
      while (handles.size() < 3 && rng.NextBounded(2) == 0) {
        handles.push_back(rng.NextBounded(kHandles));
      }
      clock.GetMany(handles);
    } else {
      clock.Put(handle, 1 + static_cast<uint32_t>(rng.NextBounded(6)));
    }
    clock.Check(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(clock.model().evictions(), 0u);
}

TEST(LabelCacheTest, ShardCountFollowsTheBudget) {
  // At most 16 shards, each with at least 64 KiB of the budget; a
  // budget under 128 KiB is one shard, so a block or two stays
  // resident.
  EXPECT_EQ(LabelCache(0).num_shards(), 1u);
  EXPECT_EQ(LabelCache(2 * OneBlockBytes()).num_shards(), 1u);
  EXPECT_EQ(LabelCache(128 * 1024 - 1).num_shards(), 1u);
  EXPECT_EQ(LabelCache(128 * 1024).num_shards(), 2u);
  EXPECT_EQ(LabelCache(512 * 1024).num_shards(), 8u);
  EXPECT_EQ(LabelCache(1024 * 1024).num_shards(), 16u);
  EXPECT_EQ(LabelCache(64 * 1024 * 1024).num_shards(), 16u);
  LabelCache two(2 * OneBlockBytes());
  two.Put(1, MakeBlock(1, 1));
  two.Put(2, MakeBlock(2, 2));
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(two.evictions(), 0u);
}

/// Four threads run a seeded mix of lookups (of one handle, or of two at
/// once) and Puts over 32 handles on one cache, each holding its last
/// few pins. A miss puts a fresh block, as
/// an engine does after a decode, and a quarter of the operations put
/// regardless (a duplicate decode). Every pin must read its own
/// block's center after any number of evictions. Each thread records
/// its hits and misses every 64 operations, as an engine does once per
/// batch. Once the threads join, the cache must be within its budget
/// and hold every recorded lookup as a hit or a miss.
void StressSharedCache(size_t budget, size_t expect_shards,
                       uint32_t max_width) {
  constexpr int kThreads = 4;
  constexpr uint64_t kHandles = 32;
  constexpr int kOpsPerThread = 4000;
  constexpr size_t kHeldPins = 8;
  LabelCache cache(budget);
  ASSERT_EQ(cache.num_shards(), expect_shards);
  auto center_of = [](uint64_t h) { return static_cast<NodeId>(1000 + 7 * h); };
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> bad_pins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      std::deque<std::pair<uint64_t, LabelBlock>> held;
      uint64_t gets = 0;
      LabelCache::Tally tally;
      for (int op = 0; op < kOpsPerThread; ++op) {
        uint64_t h = rng.NextBounded(kHandles);
        LabelBlock pin;
        const uint64_t kind = rng.NextBounded(4);
        if (kind == 1) {
          // Two lookups at once, the second of a neighbouring handle.
          const uint64_t handles[2] = {h, (h + 1) % kHandles};
          LabelBlock blocks[2];
          cache.GetMany(handles, blocks);
          gets += 2;
          ++(blocks[1] ? tally.hits : tally.misses);
          if (blocks[1]) held.emplace_back(handles[1], blocks[1]);
          pin = std::move(blocks[0]);
          ++(pin ? tally.hits : tally.misses);
        } else if (kind != 0) {
          ++gets;
          pin = GetOne(cache, h);
          ++(pin ? tally.hits : tally.misses);
        }
        if (op % 64 == 63) {
          cache.Record(tally);
          tally = {};
        }
        if (!pin) {
          uint32_t width =
              1 + static_cast<uint32_t>(rng.NextBounded(max_width));
          pin = cache.Put(h, MakeBlock(static_cast<NodeId>(h), center_of(h),
                                       width));
        }
        held.emplace_back(h, std::move(pin));
        if (held.size() > kHeldPins) held.pop_front();
        for (const auto& [handle, block] : held) {
          if (block == nullptr || block->row_keys[0] != handle ||
              CenterOf(block) != center_of(handle)) {
            bad_pins.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      cache.Record(tally);
      lookups.fetch_add(gets, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad_pins.load(), 0u);
  EXPECT_LE(cache.bytes_resident(), cache.byte_budget());
  EXPECT_EQ(cache.hits() + cache.misses(), lookups.load());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.duplicate_puts(), 0u);
  for (uint64_t h = 0; h < kHandles; ++h) {
    if (LabelBlock block = GetOne(cache, h)) {
      EXPECT_EQ(CenterOf(block), center_of(h)) << "handle " << h;
    }
  }
}

TEST(LabelCacheTest, ConcurrentGetsAndPutsOnOneShard) {
  StressSharedCache(8 * OneBlockBytes(), 1, 1);
}

TEST(LabelCacheTest, ConcurrentGetsAndPutsOnSixteenShards) {
  // Blocks of up to 64 KiB, so the 64 KiB shard slices keep evicting.
  StressSharedCache(1024 * 1024, 16, 8 * 1024);
}

TEST(LabelCacheTest, DecodeAccountingFlowsIntoStats) {
  LabelCache cache(1 << 20);
  cache.Record({.hits = 3, .misses = 1, .blocks_decoded = 1,
                .decode_nanos = 1500});
  cache.Record({.misses = 1, .blocks_decoded = 1, .decode_nanos = 500});
  LabelCache::Stats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.blocks_decoded, 2u);
  EXPECT_EQ(stats.decode_nanos, 2000u);
  EXPECT_EQ(stats.byte_budget, size_t{1} << 20);
}

TEST(LabelCacheTest, ClearResetsEntriesButKeepsCounters) {
  LabelCache cache(1 << 20);
  cache.Put(1, MakeBlock(1, 1));
  ASSERT_NE(GetOne(cache, 1), nullptr);
  cache.Record({.hits = 1});
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_resident(), 0u);
  EXPECT_EQ(GetOne(cache, 1), nullptr);
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

TEST_F(QueryEngineFixture, EnginesSharingACacheHitOnEachOthersBlocks) {
  // Two engines over one store and one cache: the second decodes
  // nothing the first already decoded, and both report the one cache.
  QueryEngineOptions options;
  options.shared_cache = std::make_shared<LabelCache>(1 << 20);
  QueryEngine first =
      QueryEngine::ForMappedStore(c_, *mapped_v4_store_, options);
  QueryEngine second =
      QueryEngine::ForMappedStore(c_, *mapped_v4_store_, options);
  std::vector<NodePair> pairs = RandomPairs(100, 43);
  BatchResponse cold = first.Batch({.pairs = pairs});
  EXPECT_GT(cold.stats.blocks_decoded, 0u);
  BatchResponse warm = second.Batch({.pairs = pairs});
  EXPECT_EQ(warm.stats.blocks_decoded, 0u);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_EQ(warm.reachable, cold.reachable);
  EXPECT_EQ(&first.label_cache(), &second.label_cache());
  EXPECT_EQ(second.CacheStats().blocks_decoded, cold.stats.blocks_decoded);
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
  // The batch pins each block it fetched until it returns, so it
  // decodes each distinct block once, however many of its rows the
  // batch reads and however little the cache keeps.
  std::set<uint64_t> handles;
  size_t block_fetches = 0;
  for (auto [u, v] : std::set<NodePair>(pairs.begin(), pairs.end())) {
    if (u == v) continue;
    for (std::optional<uint64_t> handle :
         {mapped_v4_store_->LoutBlockHandle(u),
          mapped_v4_store_->LinBlockHandle(v)}) {
      if (handle) {
        handles.insert(*handle);
        ++block_fetches;
      }
    }
  }
  ASSERT_LT(handles.size(), block_fetches);
  EXPECT_EQ(r.stats.blocks_decoded, handles.size());
  EXPECT_EQ(r.stats.cache_misses, handles.size());
  EXPECT_EQ(r.stats.cache_hits, block_fetches - handles.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(r.reachable[i],
              engine.backend().IsReachable(pairs[i].first, pairs[i].second));
  }
}

}  // namespace
}  // namespace hopi::engine
