// EnginePool unit + concurrency stress tests.
//
// The stress half is the TSan target: many client threads hammer
// Batch() while another thread Swap()s snapshots in a loop, and every
// response must (a) carry the version of exactly one published
// snapshot and (b) contain answers computed entirely against that
// snapshot — the two graphs differ on known probe pairs, so a torn
// read (half old index, half new) is detected by content, not just by
// the sanitizer. Pool stats are sampled concurrently and must be
// monotonic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine_pool.h"
#include "engine/snapshot.h"
#include "hopi/baseline.h"
#include "hopi/build.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "test_util.h"

namespace hopi::engine {
namespace {

using collection::Collection;

HopiIndex MustBuild(Collection* c, bool with_distance = false) {
  IndexBuildOptions options;
  options.with_distance = with_distance;
  auto index = BuildIndex(c, options);
  EXPECT_TRUE(index.ok()) << index.status();
  return std::move(index).value();
}

// ---- fixtures ----

class EnginePoolFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    c_ = hopi::testing::SmallDblp(30, 41);
    index_ = std::make_unique<HopiIndex>(MustBuild(&c_, true));
    snapshot_ = BackendSnapshot::Freeze(*index_);
  }

  std::vector<NodePair> RandomPairs(size_t count, uint64_t seed) const {
    Rng rng(seed);
    std::vector<NodePair> pairs;
    for (size_t i = 0; i < count; ++i) {
      pairs.push_back(
          {static_cast<NodeId>(rng.NextBounded(c_.NumElements())),
           static_cast<NodeId>(rng.NextBounded(c_.NumElements()))});
    }
    return pairs;
  }

  Collection c_;
  std::unique_ptr<HopiIndex> index_;
  std::shared_ptr<const BackendSnapshot> snapshot_;
};

// First live (u, v) pair with no current edge: an always-valid
// insert_link against `c`. Callers mutating repeatedly keep a mirror
// collection and query against that.
NodePair FindInsertableLink(const Collection& c) {
  std::vector<NodeId> live = hopi::testing::LiveElements(c);
  for (NodeId u : live) {
    for (NodeId v : live) {
      if (u != v && !c.ElementGraph().HasEdge(u, v)) return {u, v};
    }
  }
  ADD_FAILURE() << "no insertable link exists";
  return {0, 0};
}

/// A v4 file of `index`'s cover, opened as a store-backed snapshot over
/// `c`. The caller removes `path`.
std::shared_ptr<const BackendSnapshot> MappedSnapshot(const HopiIndex& index,
                                                      const Collection& c,
                                                      const std::string& path) {
  storage::StoreWriteOptions v4_options;
  v4_options.compress.target_block_bytes = 256;
  EXPECT_TRUE(storage::LinLoutStore::FromCover(index.cover(), true)
                  .WriteToFile(path, v4_options)
                  .ok());
  auto mapped = storage::MappedLinLoutStore::Open(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  return BackendSnapshot::OfMappedStore(
      Unowned(c), std::make_shared<const storage::MappedLinLoutStore>(
                      std::move(mapped).value()));
}

// ---- unit tests ----

TEST_F(EnginePoolFixture, BatchMatchesSingleEngineAcrossWorkers) {
  EnginePool pool(snapshot_, {.num_threads = 4});
  EXPECT_EQ(pool.num_threads(), 4u);

  QueryEngine reference = QueryEngine::ForIndex(*index_);
  std::vector<std::future<PoolBatchResponse>> futures;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    auto submitted = pool.SubmitBatch(
        {.pairs = RandomPairs(200, seed), .want_distances = true});
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    futures.push_back(std::move(submitted).value());
  }
  for (uint64_t seed = 0; seed < 16; ++seed) {
    PoolBatchResponse response = futures[seed].get();
    EXPECT_EQ(response.snapshot_version, snapshot_->version());
    EXPECT_LT(response.worker, 4u);
    BatchResponse expect = reference.Batch(
        {.pairs = RandomPairs(200, seed), .want_distances = true});
    EXPECT_EQ(response.batch.reachable, expect.reachable);
    EXPECT_EQ(response.batch.distances, expect.distances);
  }
  PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.batches, 16u);
  EXPECT_EQ(stats.snapshot_version, snapshot_->version());
  // Every worker was bound at most once (single snapshot).
  EXPECT_LE(stats.rebinds, 4u);
}

TEST_F(EnginePoolFixture, PathQueriesRunThroughThePool) {
  EnginePool pool(snapshot_, {.num_threads = 2});
  QueryEngine reference = QueryEngine::ForIndex(*index_);
  for (const char* expression :
       {"//inproceedings//cite//title", "//abstract//sentence"}) {
    auto response = pool.Query({.expression = expression});
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->result.ok()) << response->result.status();
    auto expect = reference.Query({.expression = expression});
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(response->result->count, expect->count);
    ASSERT_EQ(response->result->matches.size(), expect->matches.size());
    for (size_t i = 0; i < expect->matches.size(); ++i) {
      EXPECT_EQ(response->result->matches[i].bindings,
                expect->matches[i].bindings);
    }
  }
  auto malformed = pool.Query({.expression = "//a/b"});
  ASSERT_TRUE(malformed.ok());  // submission succeeded...
  EXPECT_TRUE(malformed->result.status().IsInvalidArgument());  // ...query not
  EXPECT_EQ(pool.Stats().path_queries, 3u);
}

TEST_F(EnginePoolFixture, IdleWorkerServesWhileAnotherStalls) {
  // Work conservation: one of two workers stalls inside a callback, and
  // every batch submitted meanwhile is served by the other one instead
  // of waiting behind the stall. The gate is captured by value and
  // released before any assertion, so a failure cannot leave the
  // stalled worker waiting on a destroyed future.
  EnginePool pool(snapshot_, {.num_threads = 2});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<size_t> entered;
  ASSERT_TRUE(pool.SubmitBatch({.pairs = RandomPairs(1, 0)},
                               [gate, &entered](Result<PoolBatchResponse> r) {
                                 entered.set_value(r.ok() ? r->worker
                                                          : SIZE_MAX);
                                 gate.wait();
                               })
                  .ok());
  const size_t stalled = entered.get_future().get();

  constexpr int kBatches = 16;
  int refused = 0;
  int late = 0;
  std::vector<size_t> served_by;
  for (uint64_t seed = 1; seed <= kBatches; ++seed) {
    auto submitted = pool.SubmitBatch({.pairs = RandomPairs(50, seed)});
    if (!submitted.ok()) {
      ++refused;
      continue;
    }
    std::future<PoolBatchResponse> future = std::move(submitted).value();
    if (future.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      ++late;
      continue;
    }
    served_by.push_back(future.get().worker);
  }
  release.set_value();

  EXPECT_EQ(refused, 0);
  EXPECT_EQ(late, 0) << "batches queued behind the stalled worker";
  EXPECT_EQ(served_by.size(), static_cast<size_t>(kBatches));
  for (size_t worker : served_by) EXPECT_NE(worker, stalled);
}

TEST_F(EnginePoolFixture, ExactlyOnceUnderSheddingAndShutdown) {
  // Four producers submit callback batches to a tightly bounded pool
  // until Shutdown refuses them; the main thread shuts down after about
  // 2,000 deliveries. Every accepted submission's callback runs exactly
  // once, no shed or refused one ever runs, every submission is one of
  // the three, and both the bound and the shutdown actually bit.
  constexpr int kProducers = 4;
  enum Outcome : uint8_t { kAccepted, kShed, kRefused, kOther };
  struct Producer {
    std::thread thread;
    std::vector<Outcome> outcome;  // one per submission
    // One run count per submission; a deque never moves its elements,
    // so a callback may hold a pointer while the producer appends.
    std::deque<std::atomic<uint32_t>> runs;
  };
  std::vector<Producer> producers(kProducers);
  std::atomic<uint64_t> deliveries{0};
  std::atomic<int> producers_done{0};
  const BatchRequest request{.pairs = RandomPairs(64, 5)};

  EnginePool pool(snapshot_, {.num_threads = 2, .queue_capacity = 1});
  for (Producer& producer : producers) {
    producer.thread = std::thread([&] {
      for (;;) {
        std::atomic<uint32_t>* ran = &producer.runs.emplace_back(0);
        Status status = pool.SubmitBatch(
            request, [ran, &deliveries](Result<PoolBatchResponse>) {
              ran->fetch_add(1, std::memory_order_relaxed);
              deliveries.fetch_add(1, std::memory_order_release);
            });
        producer.outcome.push_back(
            status.ok()                      ? kAccepted
            : status.IsResourceExhausted()  ? kShed
            : status.IsFailedPrecondition() ? kRefused
                                            : kOther);
        if (status.ok()) continue;
        if (!status.IsResourceExhausted()) break;
        std::this_thread::yield();  // shed: give the workers a turn
      }
      producers_done.fetch_add(1);
    });
  }
  while (deliveries.load(std::memory_order_acquire) < 2000 &&
         producers_done.load() < kProducers) {
    std::this_thread::yield();
  }
  pool.Shutdown();
  for (Producer& producer : producers) producer.thread.join();

  uint64_t accepted = 0, shed = 0, refused = 0, submitted = 0;
  int wrong_runs = 0;
  for (const Producer& producer : producers) {
    for (size_t i = 0; i < producer.outcome.size(); ++i) {
      ++submitted;
      uint32_t ran = producer.runs[i].load(std::memory_order_relaxed);
      switch (producer.outcome[i]) {
        case kAccepted:
          ++accepted;
          wrong_runs += ran == 1 ? 0 : 1;
          break;
        case kShed:
          ++shed;
          wrong_runs += ran == 0 ? 0 : 1;
          break;
        case kRefused:
          ++refused;
          wrong_runs += ran == 0 ? 0 : 1;
          break;
        case kOther:
          break;
      }
    }
  }
  EXPECT_EQ(wrong_runs, 0);
  EXPECT_EQ(accepted + shed + refused, submitted);
  EXPECT_EQ(deliveries.load(), accepted);
  EXPECT_GT(shed, 0u) << "the queue bound never bit";
  EXPECT_EQ(refused, static_cast<uint64_t>(kProducers));
  EXPECT_EQ(pool.Stats().sheds, shed);
}

TEST_F(EnginePoolFixture, ShutdownDrainsThenRejects) {
  EnginePool pool(snapshot_, {.num_threads = 2});
  std::vector<std::future<PoolBatchResponse>> futures;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto submitted = pool.SubmitBatch({.pairs = RandomPairs(400, seed)});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  pool.Shutdown();
  pool.Shutdown();  // idempotent
  // Everything queued before Shutdown completes.
  for (auto& future : futures) {
    EXPECT_EQ(future.get().batch.reachable.size(), 400u);
  }
  EXPECT_EQ(pool.Stats().batches, 8u);
  auto rejected = pool.SubmitBatch({.pairs = RandomPairs(4, 9)});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsFailedPrecondition());
  auto rejected_query = pool.Query({.expression = "//a"});
  EXPECT_TRUE(rejected_query.status().IsFailedPrecondition());
}

TEST_F(EnginePoolFixture, SwapRebindsWorkersAndReportsNewVersion) {
  // Second snapshot: same collection shape, one maintenance delta.
  Collection c2 = hopi::testing::SmallDblp(30, 41);
  HopiIndex index2 = MustBuild(&c2, true);
  auto snapshot2 = BackendSnapshot::Freeze(index2);
  ASSERT_NE(snapshot_->version(), snapshot2->version());

  EnginePool pool(snapshot_, {.num_threads = 2});
  auto first = pool.Batch({.pairs = RandomPairs(32, 1)});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->snapshot_version, snapshot_->version());

  pool.Swap(snapshot2);
  EXPECT_EQ(pool.snapshot()->version(), snapshot2->version());
  auto second = pool.Batch({.pairs = RandomPairs(32, 2)});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->snapshot_version, snapshot2->version());
  PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.snapshot_version, snapshot2->version());
}

TEST_F(EnginePoolFixture, WorkerCacheStatsReadableWhileServing) {
  // A v4 (block-route) store exercises the workers' shared cache.
  std::string path = ::testing::TempDir() + "hopi_pool_cache_stats.bin";
  auto snapshot = MappedSnapshot(*index_, c_, path);
  constexpr size_t kPerWorker = 256 * 1024;
  EnginePool pool(snapshot,
                  {.num_threads = 2, .label_cache_bytes = kPerWorker});
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<LabelCache::Stats> caches = pool.WorkerCacheStats();
      ASSERT_EQ(caches.size(), 1u);
      EXPECT_LE(caches[0].bytes_resident, caches[0].byte_budget);
    }
  });
  for (uint64_t seed = 0; seed < 50; ++seed) {
    auto r = pool.Batch({.pairs = RandomPairs(300, seed)});
    ASSERT_TRUE(r.ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  PoolStats stats = pool.Stats();
  EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
  std::vector<LabelCache::Stats> caches = pool.WorkerCacheStats();
  ASSERT_EQ(caches.size(), 1u);
  // One cache for both workers, with both workers' budgets.
  EXPECT_EQ(caches[0].byte_budget, 2 * kPerWorker);
  EXPECT_EQ(caches[0].hits, stats.cache_hits);
  EXPECT_EQ(caches[0].misses, stats.cache_misses);
  EXPECT_EQ(caches[0].blocks_decoded, stats.blocks_decoded);
  pool.Shutdown();
  std::remove(path.c_str());
}

TEST_F(EnginePoolFixture, BlocksOneWorkerDecodedAreHitsForTheOther) {
  // Two workers over a v4 store: the worker that serves a batch first
  // decodes its blocks, and the same batch then decodes nothing, on the
  // other worker (while the first stalls in its callback) and on
  // whichever worker serves it afterwards.
  std::string path = ::testing::TempDir() + "hopi_pool_shared_cache.bin";
  EnginePool pool(MappedSnapshot(*index_, c_, path), {.num_threads = 2});
  const std::vector<NodePair> pairs = RandomPairs(200, 7);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<PoolBatchResponse> first;
  ASSERT_TRUE(pool.SubmitBatch({.pairs = pairs},
                               [gate, &first](Result<PoolBatchResponse> r) {
                                 first.set_value(r.ok() ? std::move(r).value()
                                                        : PoolBatchResponse{});
                                 gate.wait();
                               })
                  .ok());
  PoolBatchResponse cold = first.get_future().get();
  auto other = pool.Batch({.pairs = pairs});
  release.set_value();
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_GT(cold.batch.stats.blocks_decoded, 0u);
  EXPECT_NE(other->worker, cold.worker);
  EXPECT_EQ(other->batch.stats.blocks_decoded, 0u);
  EXPECT_EQ(other->batch.stats.cache_misses, 0u);
  EXPECT_EQ(other->batch.reachable, cold.batch.reachable);
  for (int again = 0; again < 4; ++again) {
    auto warm = pool.Batch({.pairs = pairs});
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->batch.stats.blocks_decoded, 0u);
  }
  EXPECT_EQ(pool.Stats().blocks_decoded, cold.batch.stats.blocks_decoded);
  pool.Shutdown();
  std::remove(path.c_str());
}

TEST_F(EnginePoolFixture, SwapToAnotherSnapshotEmptiesTheOutgoingCache) {
  // Idle workers stay bound to the outgoing snapshot until their next
  // job, so the outgoing cache must not keep its blocks for them.
  std::string path = ::testing::TempDir() + "hopi_pool_cache_clear.bin";
  std::string other_path = ::testing::TempDir() + "hopi_pool_cache_clear2.bin";
  EnginePool pool(MappedSnapshot(*index_, c_, path), {.num_threads = 2});
  auto warm = pool.Batch({.pairs = RandomPairs(200, 11)});
  ASSERT_TRUE(warm.ok()) << warm.status();
  std::shared_ptr<const LabelCache> outgoing = pool.label_cache();
  ASSERT_GT(outgoing->size(), 0u);
  ASSERT_GT(outgoing->bytes_resident(), 0u);

  pool.Swap(MappedSnapshot(*index_, c_, other_path));
  EXPECT_NE(pool.label_cache(), outgoing);
  EXPECT_EQ(outgoing->size(), 0u);
  EXPECT_EQ(outgoing->bytes_resident(), 0u);
  EXPECT_EQ(outgoing->blocks_decoded(), warm->batch.stats.blocks_decoded);

  // A memory-resident snapshot lends its labels: its cache has no bytes.
  pool.Swap(snapshot_);
  EXPECT_EQ(pool.label_cache()->byte_budget(), 0u);
  auto lent = pool.Batch({.pairs = RandomPairs(200, 11)});
  ASSERT_TRUE(lent.ok()) << lent.status();
  EXPECT_EQ(lent->batch.reachable, warm->batch.reachable);
  EXPECT_EQ(lent->batch.stats.cache_hits + lent->batch.stats.cache_misses, 0u);
  pool.Shutdown();
  std::remove(path.c_str());
  std::remove(other_path.c_str());
}

TEST_F(EnginePoolFixture, CacheLivesAsLongAsItsSnapshotObjectIsPublished) {
  std::string path = ::testing::TempDir() + "hopi_pool_cache_swap.bin";
  std::string other_path = ::testing::TempDir() + "hopi_pool_cache_swap2.bin";
  auto snapshot = MappedSnapshot(*index_, c_, path);
  EnginePool pool(snapshot, {.num_threads = 2});
  const std::vector<NodePair> pairs = RandomPairs(200, 9);
  auto decoded_by = [&](EnginePool* p) -> size_t {
    auto r = p->Batch({.pairs = pairs});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->batch.stats.blocks_decoded : SIZE_MAX;
  };
  const size_t cold = decoded_by(&pool);
  ASSERT_GT(cold, 0u);
  const LabelCache::Stats warm = pool.WorkerCacheStats()[0];
  EXPECT_GT(warm.entries, 0u);

  // A Swap to the same snapshot object keeps the warm cache.
  pool.Swap(snapshot);
  EXPECT_EQ(pool.WorkerCacheStats()[0].entries, warm.entries);
  EXPECT_EQ(decoded_by(&pool), 0u);

  // So does a mutation's delta-only publish (overlay probes are
  // label-less and leave the cache alone).
  ASSERT_TRUE(pool.EnableMutations(*index_).ok());
  NodePair link = FindInsertableLink(c_);
  ASSERT_TRUE(
      pool.ApplyMutation(Mutation::InsertLink(link.first, link.second)).ok());
  EXPECT_EQ(pool.WorkerCacheStats()[0].entries, warm.entries);
  EXPECT_EQ(pool.WorkerCacheStats()[0].blocks_decoded, warm.blocks_decoded);

  // A different snapshot, even of the same cover, starts cold.
  pool.Swap(MappedSnapshot(*index_, c_, other_path));
  const LabelCache::Stats fresh = pool.WorkerCacheStats()[0];
  EXPECT_EQ(fresh.entries, 0u);
  EXPECT_EQ(fresh.hits + fresh.misses, 0u);
  EXPECT_EQ(fresh.blocks_decoded, 0u);
  EXPECT_EQ(decoded_by(&pool), cold);
  EXPECT_EQ(pool.Stats().swaps, 2u);
  pool.Shutdown();
  std::remove(path.c_str());
  std::remove(other_path.c_str());
}

// ---- admission control + callback submission (overload path) ----

TEST(AdmissionControllerTest, DisabledGateAdmitsEverything) {
  AdmissionController gate(0, 0);
  EXPECT_TRUE(gate.Admit(0));
  EXPECT_TRUE(gate.Admit(1u << 30));
  EXPECT_FALSE(gate.shedding());
}

TEST(AdmissionControllerTest, TripsAtHighReadmitsAtLow) {
  AdmissionController gate(10, 4);
  EXPECT_TRUE(gate.Admit(9));    // below high
  EXPECT_FALSE(gate.Admit(10));  // trips
  EXPECT_TRUE(gate.shedding());
  // Hysteresis: between low and high it keeps shedding.
  EXPECT_FALSE(gate.Admit(9));
  EXPECT_FALSE(gate.Admit(5));
  // At/below low it re-admits, and stays open below high.
  EXPECT_TRUE(gate.Admit(4));
  EXPECT_FALSE(gate.shedding());
  EXPECT_TRUE(gate.Admit(9));
  EXPECT_FALSE(gate.Admit(11));  // trips again
}

TEST(AdmissionControllerTest, LowDefaultsToHalfHighAndClampsBelowHigh) {
  AdmissionController half(10, 0);  // low -> 5
  EXPECT_FALSE(half.Admit(10));
  EXPECT_FALSE(half.Admit(6));
  EXPECT_TRUE(half.Admit(5));

  AdmissionController clamped(3, 99);  // low clamps to high - 1 = 2
  EXPECT_FALSE(clamped.Admit(3));
  EXPECT_FALSE(clamped.Admit(3));
  EXPECT_TRUE(clamped.Admit(2));
}

TEST_F(EnginePoolFixture, CallbackSubmissionDeliversOnWorker) {
  EnginePool pool(snapshot_, {.num_threads = 2});
  std::promise<Result<PoolBatchResponse>> delivered;
  Status submitted = pool.SubmitBatch(
      {.pairs = RandomPairs(64, 7)},
      [&](Result<PoolBatchResponse> result) {
        delivered.set_value(std::move(result));
      });
  ASSERT_TRUE(submitted.ok());
  Result<PoolBatchResponse> result = delivered.get_future().get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.reachable.size(), 64u);
  EXPECT_EQ(result->snapshot_version, snapshot_->version());

  // Path queries through the same channel; a ground-truth engine
  // agrees with the pool's answer.
  std::promise<Result<PoolPathResponse>> path_delivered;
  ASSERT_TRUE(pool.SubmitQuery({.expression = "//article//author"},
                               [&](Result<PoolPathResponse> result) {
                                 path_delivered.set_value(std::move(result));
                               })
                  .ok());
  Result<PoolPathResponse> path = path_delivered.get_future().get();
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE(path->result.ok());
  QueryEngine reference(c_, snapshot_->MakeBackend());
  auto expected = reference.Query({.expression = "//article//author"});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(path->result.value().count, expected->count);
}

TEST_F(EnginePoolFixture, BoundedQueueShedsDeterministicallyThenReadmits) {
  // One worker whose first job blocks on a promise we hold: with the
  // worker provably stalled, queue occupancy is deterministic and the
  // shed point is exact — no sleeps, no racing.
  EnginePool pool(snapshot_, {.num_threads = 1, .queue_capacity = 1});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  ASSERT_TRUE(pool.SubmitBatch({.pairs = RandomPairs(1, 0)},
                               [&](Result<PoolBatchResponse>) {
                                 entered.set_value();
                                 gate.wait();
                               })
                  .ok());
  entered.get_future().wait();  // worker is now inside the callback

  // Slot 1: fills the queue (capacity 1 × 1 worker). Slot 2: must shed.
  std::promise<Result<PoolBatchResponse>> queued_done;
  ASSERT_TRUE(pool.SubmitBatch({.pairs = RandomPairs(2, 1)},
                               [&](Result<PoolBatchResponse> result) {
                                 queued_done.set_value(std::move(result));
                               })
                  .ok());
  Status shed = pool.SubmitBatch({.pairs = RandomPairs(2, 2)},
                                 [](Result<PoolBatchResponse>) {
                                   FAIL() << "shed submission must never run";
                                 });
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.IsResourceExhausted());
  // The future form sheds identically (it wraps the callback form).
  auto shed_future = pool.SubmitBatch({.pairs = RandomPairs(2, 3)});
  ASSERT_FALSE(shed_future.ok());
  EXPECT_TRUE(shed_future.status().IsResourceExhausted());

  PoolStats during = pool.Stats();
  EXPECT_EQ(during.sheds, 2u);
  EXPECT_EQ(during.queued, 1u);
  EXPECT_EQ(during.executing, 1u);

  release.set_value();  // un-stall; the queued job drains
  ASSERT_TRUE(queued_done.get_future().get().ok());
  // Re-admission: the queue has room again.
  auto after = pool.Batch({.pairs = RandomPairs(2, 4)});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(pool.Stats().sheds, 2u);  // no new sheds
}

TEST_F(EnginePoolFixture, WatermarkGateShedsUntilDrainedToLow) {
  // Capacity stays unbounded; only the admission watermarks act. One
  // stalled worker holds executing=1, so with high=2 the second
  // *queued* item trips the gate (load = queued 1 + executing 1 = 2).
  EnginePool pool(snapshot_,
                  {.num_threads = 1,
                   .shed_high_watermark = 2,
                   .shed_low_watermark = 1});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  ASSERT_TRUE(pool.SubmitBatch({.pairs = RandomPairs(1, 0)},
                               [&](Result<PoolBatchResponse>) {
                                 entered.set_value();
                                 gate.wait();
                               })
                  .ok());
  entered.get_future().wait();

  // load = 1 (executing): admitted.
  std::promise<Result<PoolBatchResponse>> queued_done;
  ASSERT_TRUE(pool.SubmitBatch({.pairs = RandomPairs(2, 1)},
                               [&](Result<PoolBatchResponse> result) {
                                 queued_done.set_value(std::move(result));
                               })
                  .ok());
  // load = 2 = high: sheds, and keeps shedding while tripped.
  Status shed = pool.SubmitBatch({.pairs = RandomPairs(2, 2)},
                                 [](Result<PoolBatchResponse>) {});
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.IsResourceExhausted());
  EXPECT_TRUE(pool.Stats().shedding);

  release.set_value();
  ASSERT_TRUE(queued_done.get_future().get().ok());
  // Drained to 0 <= low: the next submission re-admits.
  auto after = pool.Batch({.pairs = RandomPairs(2, 3)});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(pool.Stats().shedding);
  EXPECT_GE(pool.Stats().sheds, 1u);
}

TEST_F(EnginePoolFixture, ShutdownStillDrainsCallbackJobs) {
  EnginePool pool(snapshot_, {.num_threads = 2});
  std::atomic<int> delivered{0};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(pool.SubmitBatch(
                        {.pairs = RandomPairs(50, static_cast<uint64_t>(i))},
                        [&](Result<PoolBatchResponse> result) {
                          ASSERT_TRUE(result.ok());
                          delivered.fetch_add(1);
                        })
                    .ok());
  }
  pool.Shutdown();
  EXPECT_EQ(delivered.load(), 16);  // OK submission => runs exactly once
  Status rejected = pool.SubmitBatch({.pairs = RandomPairs(2, 99)},
                                     [](Result<PoolBatchResponse>) {});
  EXPECT_TRUE(rejected.IsFailedPrecondition());
}

// ---- ServeBatch: a borrowed worker serves on the caller's thread ----

/// Waits until no worker is busy: a worker lists itself idle only after
/// the callback of its last job has returned.
void WaitUntilIdle(EnginePool* pool) {
  for (int spin = 0; spin < 10000 && pool->Stats().executing != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Serves one batch on a worker thread, which binds the most recently
/// idle worker to the published state, and waits until that worker is
/// idle again: the next ServeBatch borrows it. A borrower serves only
/// through a worker that is already bound.
void BindIdleWorker(EnginePool* pool) {
  ASSERT_TRUE(pool->Batch({.pairs = {{0, 0}}}).ok());
  WaitUntilIdle(pool);
}

/// The thread a ServeBatch of `request` delivered its answer on, and
/// the answer.
std::pair<std::thread::id, PoolBatchResponse> ServeAndWait(
    EnginePool* pool, BatchRequest request) {
  std::promise<std::pair<std::thread::id, PoolBatchResponse>> on;
  auto future = on.get_future();
  Status status = pool->ServeBatch(
      std::move(request), [&on](Result<PoolBatchResponse> result) {
        EXPECT_TRUE(result.ok()) << result.status();
        on.set_value({std::this_thread::get_id(),
                      result.ok() ? std::move(result).value()
                                  : PoolBatchResponse{}});
      });
  EXPECT_TRUE(status.ok()) << status;
  return future.get();
}

TEST_F(EnginePoolFixture, ServeBatchRunsInlineOnAnIdleWorker) {
  EnginePool pool(snapshot_, {.num_threads = 2});
  // Workers are listed idle in index order at construction, so the most
  // recently idle one is the last: worker 1 binds, and is idle last.
  BindIdleWorker(&pool);
  const PoolStats before = pool.Stats();
  const BatchRequest request{
      .pairs = RandomPairs(EnginePool::kMaxInlinePairs, 7),
      .want_distances = true};
  const std::thread::id caller = std::this_thread::get_id();
  std::optional<Result<PoolBatchResponse>> delivered;
  std::thread::id ran_on;
  PoolStats during;
  Status status =
      pool.ServeBatch(request, [&](Result<PoolBatchResponse> result) {
        ran_on = std::this_thread::get_id();
        during = pool.Stats();
        delivered = std::move(result);
      });
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_TRUE(delivered.has_value())
      << "the callback had not run when ServeBatch returned";
  EXPECT_EQ(ran_on, caller);
  ASSERT_TRUE(delivered->ok()) << delivered->status();
  const PoolBatchResponse& response = delivered->value();
  EXPECT_EQ(response.worker, 1u);
  EXPECT_EQ(response.snapshot_version, snapshot_->version());
  BatchResponse expect = QueryEngine::ForIndex(*index_).Batch(request);
  EXPECT_EQ(response.batch.reachable, expect.reachable);
  EXPECT_EQ(response.batch.distances, expect.distances);
  // The loan counts as a busy worker, exactly like a hand-off.
  EXPECT_EQ(during.executing, 1u);
  EXPECT_EQ(during.queued, 0u);
  PoolStats after = pool.Stats();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.probes - before.probes, EnginePool::kMaxInlinePairs);
  EXPECT_EQ(after.executing, 0u);
  EXPECT_EQ(after.rebinds, before.rebinds) << "the borrower rebound";
}

TEST_F(EnginePoolFixture, ServeBatchHandsOffUntilTheWorkerIsBound) {
  // Binding a worker builds an engine and may release the last
  // reference to an old snapshot, so it stays on worker threads: a
  // worker's first batch, and its first after a Swap, are handed off,
  // and the next ones are borrowed.
  EnginePool pool(snapshot_, {.num_threads = 1});
  const std::thread::id caller = std::this_thread::get_id();
  auto [first_on, first] = ServeAndWait(&pool, {.pairs = RandomPairs(8, 1)});
  EXPECT_NE(first_on, caller) << "a worker's first batch ran inline";
  EXPECT_EQ(first.snapshot_version, snapshot_->version());
  WaitUntilIdle(&pool);
  EXPECT_EQ(ServeAndWait(&pool, {.pairs = RandomPairs(8, 2)}).first, caller);

  auto snapshot_b = BackendSnapshot::Freeze(*index_);
  pool.Swap(snapshot_b);
  auto [swapped_on, swapped] =
      ServeAndWait(&pool, {.pairs = RandomPairs(8, 3)});
  EXPECT_NE(swapped_on, caller) << "the first batch after a Swap ran inline";
  EXPECT_EQ(swapped.snapshot_version, snapshot_b->version());
  WaitUntilIdle(&pool);
  auto [next_on, next] = ServeAndWait(&pool, {.pairs = RandomPairs(8, 4)});
  EXPECT_EQ(next_on, caller);
  EXPECT_EQ(next.snapshot_version, snapshot_b->version());
  EXPECT_EQ(pool.Stats().rebinds, 2u);
}

TEST_F(EnginePoolFixture, ServeBatchQueuesBehindAStalledWorkerAndSheds) {
  // The only worker stalls inside a hand-off's callback: ServeBatch
  // finds nobody idle, so its batch queues and a worker thread serves
  // it, and the watermark gate sheds exactly as it does for SubmitBatch
  // (load = 1 executing + queued).
  EnginePool pool(snapshot_, {.num_threads = 1,
                              .shed_high_watermark = 3,
                              .shed_low_watermark = 1});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  ASSERT_TRUE(pool.SubmitBatch({.pairs = RandomPairs(1, 0)},
                               [gate, &entered](Result<PoolBatchResponse>) {
                                 entered.set_value();
                                 gate.wait();
                               })
                  .ok());
  entered.get_future().wait();

  std::promise<std::thread::id> first_on;
  std::promise<std::thread::id> second_on;
  auto record = [](std::promise<std::thread::id>* on) {
    return [on](Result<PoolBatchResponse> result) {
      EXPECT_TRUE(result.ok());
      on->set_value(std::this_thread::get_id());
    };
  };
  std::future<std::thread::id> first = first_on.get_future();
  std::future<std::thread::id> second = second_on.get_future();
  ASSERT_TRUE(
      pool.ServeBatch({.pairs = RandomPairs(8, 1)}, record(&first_on)).ok());
  ASSERT_TRUE(
      pool.ServeBatch({.pairs = RandomPairs(8, 2)}, record(&second_on)).ok());
  EXPECT_EQ(first.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "a queued ServeBatch ran before a worker was free";
  Status shed = pool.ServeBatch({.pairs = RandomPairs(8, 3)},
                                [](Result<PoolBatchResponse>) {
                                  ADD_FAILURE() << "a shed batch ran";
                                });
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed;
  PoolStats during = pool.Stats();
  EXPECT_EQ(during.queued, 2u);
  EXPECT_EQ(during.executing, 1u);
  EXPECT_EQ(during.sheds, 1u);
  EXPECT_TRUE(during.shedding);

  release.set_value();
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_NE(first.get(), caller);
  EXPECT_NE(second.get(), caller);
  pool.Shutdown();
  EXPECT_EQ(pool.Stats().batches, 3u);
}

TEST_F(EnginePoolFixture, JobQueuedDuringALoanGoesToTheBorrowedWorker) {
  // The only worker is on loan, its borrower stalled in the callback; a
  // batch submitted meanwhile queues, and the end of the loan hands it
  // to that worker rather than listing the worker idle beside it.
  EnginePool pool(snapshot_, {.num_threads = 1});
  BindIdleWorker(&pool);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  std::thread borrower([&] {
    const std::thread::id self = std::this_thread::get_id();
    Status status = pool.ServeBatch({.pairs = RandomPairs(4, 1)},
                                    [&](Result<PoolBatchResponse> result) {
                                      EXPECT_TRUE(result.ok());
                                      EXPECT_EQ(std::this_thread::get_id(),
                                                self);
                                      entered.set_value();
                                      gate.wait();
                                    });
    EXPECT_TRUE(status.ok()) << status;
  });
  entered.get_future().wait();

  auto queued = pool.SubmitBatch({.pairs = RandomPairs(16, 2)});
  ASSERT_TRUE(queued.ok()) << queued.status();
  PoolStats during = pool.Stats();
  EXPECT_EQ(during.executing, 1u);
  EXPECT_EQ(during.queued, 1u);
  release.set_value();
  borrower.join();

  std::future<PoolBatchResponse> future = std::move(queued).value();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "the job queued during the loan was stranded";
  EXPECT_EQ(future.get().worker, 0u);
  // Then the worker goes idle, and the next small batch runs inline.
  WaitUntilIdle(&pool);
  bool inline_ran = false;
  ASSERT_TRUE(pool.ServeBatch({.pairs = RandomPairs(4, 3)},
                              [&](Result<PoolBatchResponse>) {
                                inline_ran = true;
                              })
                  .ok());
  EXPECT_TRUE(inline_ran);
  EXPECT_EQ(pool.Stats().batches, 4u);
}

TEST_F(EnginePoolFixture, ShutdownWaitsForALoanAndKeepsItsCallback) {
  // Deterministic half: Shutdown while the only worker is on loan must
  // not return (its worker may not exit and drop the engine) until the
  // loan ends, and the borrower's callback runs exactly once.
  {
    EnginePool pool(snapshot_, {.num_threads = 1});
    BindIdleWorker(&pool);
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::promise<void> entered;
    std::atomic<int> delivered{0};
    std::thread borrower([&] {
      const std::thread::id self = std::this_thread::get_id();
      Status status = pool.ServeBatch(
          {.pairs = RandomPairs(EnginePool::kMaxInlinePairs, 1)},
          [&](Result<PoolBatchResponse> result) {
            EXPECT_TRUE(result.ok());
            EXPECT_EQ(std::this_thread::get_id(), self);
            delivered.fetch_add(1);
            entered.set_value();
            gate.wait();
          });
      EXPECT_TRUE(status.ok()) << status;
    });
    entered.get_future().wait();
    std::atomic<bool> shut{false};
    std::thread closer([&] {
      pool.Shutdown();
      shut.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(shut.load()) << "Shutdown returned while a worker was on loan";
    release.set_value();
    borrower.join();
    closer.join();
    EXPECT_TRUE(shut.load());
    EXPECT_EQ(delivered.load(), 1);
    EXPECT_EQ(pool.Stats().batches, 2u);
    EXPECT_TRUE(pool.ServeBatch({.pairs = RandomPairs(2, 2)},
                                [](Result<PoolBatchResponse>) {})
                    .IsFailedPrecondition());
  }
  // Racing half: two borrowers serve until Shutdown refuses them. Every
  // accepted batch is delivered exactly once, inline or from a worker,
  // and the sanitizer legs watch the engines under the race.
  EnginePool pool(snapshot_, {.num_threads = 2});
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> failed{0};
  const BatchRequest request{
      .pairs = RandomPairs(EnginePool::kMaxInlinePairs, 5)};
  std::vector<std::thread> borrowers;
  for (int t = 0; t < 2; ++t) {
    borrowers.emplace_back([&] {
      for (;;) {
        Status status =
            pool.ServeBatch(request, [&](Result<PoolBatchResponse> result) {
              if (!result.ok()) failed.fetch_add(1);
              delivered.fetch_add(1);
            });
        if (!status.ok()) {
          EXPECT_TRUE(status.IsFailedPrecondition()) << status;
          return;
        }
        accepted.fetch_add(1);
      }
    });
  }
  while (delivered.load() < 500) std::this_thread::yield();
  pool.Shutdown();
  for (std::thread& borrower : borrowers) borrower.join();
  EXPECT_EQ(delivered.load(), accepted.load());
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(pool.Stats().batches, accepted.load());
}

TEST_F(EnginePoolFixture, StoreBackedDeltaAndLargeBatchesTakeTheHandOff) {
  const std::thread::id caller = std::this_thread::get_id();
  auto served_on = [](EnginePool* pool, BatchRequest request) {
    return ServeAndWait(pool, std::move(request)).first;
  };
  // A store-backed snapshot: block decodes may fault file pages in.
  std::string path = ::testing::TempDir() + "hopi_pool_serve_mapped.bin";
  {
    EnginePool mapped_pool(MappedSnapshot(*index_, c_, path),
                           {.num_threads = 1});
    BindIdleWorker(&mapped_pool);
    EXPECT_NE(served_on(&mapped_pool, {.pairs = RandomPairs(8, 1)}), caller);
    EXPECT_EQ(mapped_pool.Stats().batches, 2u);
  }
  std::remove(path.c_str());

  // A buffered delta: an overlay probe may run a BFS.
  {
    EnginePool delta_pool(snapshot_, {.num_threads = 1});
    ASSERT_TRUE(delta_pool.EnableMutations(*index_).ok());
    NodePair link = FindInsertableLink(c_);
    ASSERT_TRUE(
        delta_pool.ApplyMutation(Mutation::InsertLink(link.first, link.second))
            .ok());
    BindIdleWorker(&delta_pool);
    EXPECT_NE(served_on(&delta_pool, {.pairs = RandomPairs(8, 4)}), caller);
    EXPECT_EQ(delta_pool.Stats().batches, 2u);
  }

  // In memory: exactly kMaxInlinePairs pairs run inline, one more does
  // not.
  EnginePool pool(snapshot_, {.num_threads = 1});
  BindIdleWorker(&pool);
  EXPECT_EQ(served_on(&pool, {.pairs = RandomPairs(
                                  EnginePool::kMaxInlinePairs, 2)}),
            caller);
  EXPECT_NE(served_on(&pool, {.pairs = RandomPairs(
                                  EnginePool::kMaxInlinePairs + 1, 3)}),
            caller);
  EXPECT_EQ(pool.Stats().batches, 3u);
}

TEST_F(EnginePoolFixture, InlineAndHandedOffBatchesRaceSwapsConsistently) {
  // The idle list with two kinds of taker under contention: clients mix
  // ServeBatch and SubmitBatch while another thread swaps between two
  // snapshots that disagree on a known pair. Every answer must match
  // the snapshot version it names.
  std::vector<NodeId> live = hopi::testing::LiveElements(c_);
  NodePair flipped{kInvalidNode, kInvalidNode};
  for (NodeId u : live) {
    for (NodeId v : live) {
      if (u != v && !index_->IsReachable(u, v) &&
          !c_.ElementGraph().HasEdge(u, v)) {
        flipped = {u, v};
        break;
      }
    }
    if (flipped.first != kInvalidNode) break;
  }
  ASSERT_NE(flipped.first, kInvalidNode);
  ASSERT_TRUE(index_->InsertLink(flipped.first, flipped.second).ok());
  auto snapshot_b = BackendSnapshot::Freeze(*index_);

  constexpr size_t kRequests = 16;
  std::vector<BatchRequest> requests;
  for (size_t i = 0; i < kRequests; ++i) {
    BatchRequest request{
        .pairs = RandomPairs(EnginePool::kMaxInlinePairs - 1, 100 + i)};
    request.pairs.push_back(flipped);
    requests.push_back(std::move(request));
  }
  std::map<uint64_t, std::vector<std::vector<bool>>> expected;
  for (const auto& snapshot : {snapshot_, snapshot_b}) {
    QueryEngine reference(snapshot->collection(), snapshot->MakeBackend(),
                          {.shared_tags = snapshot->tags()});
    for (const BatchRequest& request : requests) {
      expected[snapshot->version()].push_back(
          reference.Batch(request).reachable);
    }
  }
  ASSERT_NE(expected[snapshot_->version()], expected[snapshot_b->version()]);

  EnginePool pool(snapshot_, {.num_threads = 2});
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> wrong{0};
  auto check = [&](size_t i) {
    return [&, i](Result<PoolBatchResponse> result) {
      auto it = result.ok() ? expected.find(result->snapshot_version)
                            : expected.end();
      if (it == expected.end() || result->batch.reachable != it->second[i]) {
        wrong.fetch_add(1);
      }
      delivered.fetch_add(1);
    };
  };
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    for (int s = 0; !done.load(); ++s) {
      pool.Swap(s % 2 == 0 ? snapshot_b : snapshot_);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      for (int k = 0; k < 150; ++k) {
        size_t i = rng.NextBounded(kRequests);
        Status status = k % 2 == 0 ? pool.ServeBatch(requests[i], check(i))
                                   : pool.SubmitBatch(requests[i], check(i));
        ASSERT_TRUE(status.ok()) << status;
        accepted.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true);
  swapper.join();
  pool.Shutdown();
  EXPECT_EQ(wrong.load(), 0u) << "answers disagree with their snapshot";
  EXPECT_EQ(delivered.load(), accepted.load());
  EXPECT_EQ(pool.Stats().batches, accepted.load());
}

// ---- mutation + rebuild (the serve-during-rebuild write path) ----

TEST_F(EnginePoolFixture, MutationsRequireEnableAndValidateTyped) {
  EnginePool pool(snapshot_, {.num_threads = 1});
  EXPECT_FALSE(pool.mutations_enabled());
  auto off = pool.ApplyMutation(Mutation::InsertLink(0, 1));
  EXPECT_TRUE(off.status().IsFailedPrecondition());

  ASSERT_TRUE(pool.EnableMutations(*index_).ok());
  EXPECT_TRUE(pool.mutations_enabled());
  NodePair link = FindInsertableLink(c_);
  auto receipt = pool.ApplyMutation(Mutation::InsertLink(link.first,
                                                         link.second));
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  EXPECT_EQ(receipt->generation, 1u);
  EXPECT_EQ(receipt->snapshot_version, snapshot_->version());

  // The op is visible to the very next request, which names the
  // serving state it was computed against.
  auto probe = pool.Batch({.pairs = {link}});
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->batch.reachable[0] != 0);
  EXPECT_EQ(probe->delta_generation, 1u);
  EXPECT_EQ(probe->snapshot_version, snapshot_->version());

  // Typed rejects, each leaving the delta untouched: duplicate link,
  // tree-edge deletion, missing link, dead/oob ids.
  auto duplicate =
      pool.ApplyMutation(Mutation::InsertLink(link.first, link.second));
  EXPECT_TRUE(duplicate.status().IsInvalidArgument());
  NodeId child = kInvalidNode;
  for (NodeId e = 0; e < c_.NumElements(); ++e) {
    if (c_.ParentOf(e) != kInvalidNode) {
      child = e;
      break;
    }
  }
  ASSERT_NE(child, kInvalidNode);
  auto tree_edge =
      pool.ApplyMutation(Mutation::DeleteLink(c_.ParentOf(child), child));
  EXPECT_TRUE(tree_edge.status().IsNotFound());
  auto missing = pool.ApplyMutation(Mutation::DeleteLink(link.second,
                                                         link.first));
  EXPECT_TRUE(missing.status().IsNotFound());
  auto oob = pool.ApplyMutation(Mutation::InsertLink(
      static_cast<NodeId>(c_.NumElements() + 3), 0));
  EXPECT_TRUE(oob.status().IsInvalidArgument());
  EXPECT_EQ(pool.delta()->generation(), 1u);
  PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.mutations, 1u);
  EXPECT_EQ(stats.mutation_failures, 4u);
  EXPECT_EQ(stats.delta_ops, 1u);
  EXPECT_EQ(stats.delta_generation, 1u);
}

TEST_F(EnginePoolFixture, SwapDisablesMutationsAndPreservesGeneration) {
  EnginePool pool(snapshot_, {.num_threads = 1});
  ASSERT_TRUE(pool.EnableMutations(*index_).ok());
  NodePair link = FindInsertableLink(c_);
  ASSERT_TRUE(
      pool.ApplyMutation(Mutation::InsertLink(link.first, link.second)).ok());

  // An external snapshot swap cannot keep the maintenance mirror in
  // sync, so it disarms the write path — but the global generation
  // survives (responses stay totally ordered across the swap).
  pool.Swap(snapshot_);
  EXPECT_FALSE(pool.mutations_enabled());
  EXPECT_TRUE(pool.delta()->empty());
  EXPECT_EQ(pool.delta()->generation(), 1u);
  auto disarmed = pool.ApplyMutation(Mutation::InsertLink(link.first,
                                                          link.second));
  EXPECT_TRUE(disarmed.status().IsFailedPrecondition());

  // Re-arming against the (re-published) snapshot continues the count.
  ASSERT_TRUE(pool.EnableMutations(*index_).ok());
  auto receipt =
      pool.ApplyMutation(Mutation::InsertLink(link.first, link.second));
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  EXPECT_EQ(receipt->generation, 2u);
}

TEST_F(EnginePoolFixture, MaxDeltaOpsShedsMutationsUntilRebuild) {
  EnginePoolOptions options;
  options.num_threads = 1;
  options.max_delta_ops = 2;
  EnginePool pool(snapshot_, options);
  ASSERT_TRUE(pool.EnableMutations(*index_).ok());
  Collection mirror = hopi::testing::SmallDblp(30, 41);

  for (int i = 0; i < 2; ++i) {
    NodePair link = FindInsertableLink(mirror);
    Mutation m = Mutation::InsertLink(link.first, link.second);
    ASSERT_TRUE(pool.ApplyMutation(m).ok());
    ASSERT_TRUE(ApplyMutationToCollection(m, &mirror).ok());
  }
  NodePair link = FindInsertableLink(mirror);
  auto shed = pool.ApplyMutation(Mutation::InsertLink(link.first,
                                                      link.second));
  EXPECT_TRUE(shed.status().IsResourceExhausted());

  // A rebuild truncates the delta; the shed op then applies.
  auto rebuilt = pool.RebuildNow(RebuildMode::kAbsorb);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  auto retried = pool.ApplyMutation(Mutation::InsertLink(link.first,
                                                         link.second));
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->generation, 3u);
}

TEST_F(EnginePoolFixture, RebuildFoldsDeltaAndKeepsServingMutations) {
  EnginePool pool(snapshot_, {.num_threads = 2});
  ASSERT_TRUE(pool.EnableMutations(*index_).ok());
  Collection mirror = hopi::testing::SmallDblp(30, 41);
  std::vector<NodePair> inserted;
  for (int i = 0; i < 3; ++i) {
    NodePair link = FindInsertableLink(mirror);
    Mutation m = Mutation::InsertLink(link.first, link.second);
    ASSERT_TRUE(pool.ApplyMutation(m).ok());
    ASSERT_TRUE(ApplyMutationToCollection(m, &mirror).ok());
    inserted.push_back(link);
  }

  const uint64_t version_before = pool.snapshot()->version();
  auto absorbed = pool.RebuildNow(RebuildMode::kAbsorb);
  ASSERT_TRUE(absorbed.ok()) << absorbed.status();
  EXPECT_EQ(absorbed->generation, 3u);
  EXPECT_EQ(absorbed->absorbed_ops, 3u);
  EXPECT_NE(absorbed->snapshot_version, version_before);
  EXPECT_TRUE(pool.delta()->empty());
  EXPECT_EQ(pool.delta()->generation(), 3u);
  EXPECT_TRUE(pool.mutations_enabled());

  // The folded snapshot serves the absorbed links natively (no delta).
  auto probe = pool.Batch({.pairs = inserted});
  ASSERT_TRUE(probe.ok());
  for (size_t i = 0; i < inserted.size(); ++i) {
    EXPECT_TRUE(probe->batch.reachable[i] != 0) << i;
  }
  EXPECT_EQ(probe->snapshot_version, absorbed->snapshot_version);
  EXPECT_EQ(probe->delta_generation, 3u);

  // kFull resets the maintenance index's label degradation to a fresh
  // build and catches up any op applied meanwhile (none here).
  NodePair link = FindInsertableLink(mirror);
  ASSERT_TRUE(
      pool.ApplyMutation(Mutation::InsertLink(link.first, link.second)).ok());
  auto full = pool.RebuildNow(RebuildMode::kFull);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->mode, RebuildMode::kFull);
  EXPECT_EQ(full->generation, 4u);
  EXPECT_EQ(full->absorbed_ops, 1u);
  EXPECT_DOUBLE_EQ(pool.MaintenanceDegradation(), 1.0);
  EXPECT_EQ(pool.Stats().rebuilds, 2u);
}

TEST_F(EnginePoolFixture, RebuildDaemonAbsorbsWhenTheDeltaGrows) {
  EnginePool pool(snapshot_, {.num_threads = 1});
  ASSERT_TRUE(pool.EnableMutations(*index_).ok());
  Collection mirror = hopi::testing::SmallDblp(30, 41);

  RebuildDaemon::Options options;
  options.poll_interval = std::chrono::milliseconds(1);
  options.max_delta_ops = 2;
  options.degradation_threshold = 0;  // absorb-only in this test
  RebuildDaemon daemon(&pool, options);

  for (int i = 0; i < 2; ++i) {
    NodePair link = FindInsertableLink(mirror);
    Mutation m = Mutation::InsertLink(link.first, link.second);
    ASSERT_TRUE(pool.ApplyMutation(m).ok());
    ASSERT_TRUE(ApplyMutationToCollection(m, &mirror).ok());
  }
  daemon.Poke();
  for (int spin = 0; spin < 5000 && pool.Stats().rebuilds == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.Stop();
  EXPECT_GE(pool.Stats().rebuilds, 1u);
  EXPECT_GE(daemon.stats().rebuilds, 1u);
  EXPECT_EQ(daemon.stats().errors, 0u);
  EXPECT_TRUE(pool.delta()->empty());
  EXPECT_EQ(pool.delta()->generation(), 2u);
  EXPECT_TRUE(pool.mutations_enabled());
}

// ---- the swap/stress test ----

// Two graphs that provably disagree: B is A plus one link that creates
// connections absent in A. Expected full matrices are precomputed per
// snapshot version; every pool response must match the matrix of the
// version it claims to have been served from.
TEST(EnginePoolStressTest, ConcurrentBatchesAndSwapsServeConsistentSnapshots) {
  Collection c = hopi::testing::RandomCollection(5, 6, 8, 4242);
  HopiIndex index = MustBuild(&c);
  auto snapshot_a = BackendSnapshot::Freeze(index);

  // Mutate: link two far-apart roots, then freeze again.
  std::vector<NodeId> live = hopi::testing::LiveElements(c);
  bool mutated = false;
  Rng link_rng(7);
  for (int attempt = 0; attempt < 50 && !mutated; ++attempt) {
    NodeId u = live[link_rng.NextBounded(live.size())];
    NodeId v = live[link_rng.NextBounded(live.size())];
    if (u == v || c.ElementGraph().HasEdge(u, v) || index.IsReachable(u, v)) {
      continue;
    }
    ASSERT_TRUE(index.InsertLink(u, v).ok());
    mutated = true;
  }
  ASSERT_TRUE(mutated) << "could not find a connecting link to insert";
  auto snapshot_b = BackendSnapshot::Freeze(index);

  // Precompute both full matrices (n is small).
  const auto n = static_cast<NodeId>(c.NumElements());
  std::map<uint64_t, std::vector<bool>> matrix_of_version;
  for (const auto& snapshot : {snapshot_a, snapshot_b}) {
    QueryEngine engine(snapshot->collection(), snapshot->MakeBackend(),
                       {.shared_tags = snapshot->tags()});
    std::vector<bool>& matrix = matrix_of_version[snapshot->version()];
    matrix.resize(static_cast<size_t>(n) * n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        matrix[static_cast<size_t>(u) * n + v] =
            engine.backend().IsReachable(u, v);
      }
    }
  }
  ASSERT_NE(matrix_of_version[snapshot_a->version()],
            matrix_of_version[snapshot_b->version()])
      << "the two snapshots must disagree somewhere for the test to bite";

  EnginePoolOptions options;
  options.num_threads = 4;
  EnginePool pool(snapshot_a, options);

  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 120;
  std::atomic<bool> clients_done{false};
  std::atomic<size_t> torn_responses{0};
  std::atomic<size_t> unknown_versions{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      Rng rng(1000 + client);
      for (int b = 0; b < kBatchesPerClient; ++b) {
        std::vector<NodePair> pairs;
        for (int i = 0; i < 64; ++i) {
          pairs.push_back({static_cast<NodeId>(rng.NextBounded(n)),
                           static_cast<NodeId>(rng.NextBounded(n))});
        }
        auto response = pool.Batch({.pairs = pairs});
        ASSERT_TRUE(response.ok()) << response.status();
        auto it = matrix_of_version.find(response->snapshot_version);
        if (it == matrix_of_version.end()) {
          unknown_versions.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < pairs.size(); ++i) {
          bool expect = it->second[static_cast<size_t>(pairs[i].first) * n +
                                   pairs[i].second];
          if (response->batch.reachable[i] != expect) {
            torn_responses.fetch_add(1);
          }
        }
      }
    });
  }

  std::thread swapper([&] {
    for (int s = 0; !clients_done.load(); ++s) {
      pool.Swap(s % 2 == 0 ? snapshot_b : snapshot_a);
      std::this_thread::yield();
    }
  });

  // Stats sampler: every field of PoolStats (except snapshot_version)
  // must be monotonic while the pool is being hammered.
  std::thread sampler([&] {
    PoolStats last;
    while (!clients_done.load()) {
      PoolStats now = pool.Stats();
      EXPECT_GE(now.batches, last.batches);
      EXPECT_GE(now.probes, last.probes);
      EXPECT_GE(now.unique_probes, last.unique_probes);
      EXPECT_GE(now.cache_hits, last.cache_hits);
      EXPECT_GE(now.cache_misses, last.cache_misses);
      EXPECT_GE(now.labels_borrowed, last.labels_borrowed);
      EXPECT_GE(now.backend_probes, last.backend_probes);
      EXPECT_GE(now.swaps, last.swaps);
      EXPECT_GE(now.rebinds, last.rebinds);
      last = now;
      std::this_thread::yield();
    }
  });

  for (auto& client : clients) client.join();
  clients_done.store(true);
  swapper.join();
  sampler.join();

  EXPECT_EQ(torn_responses.load(), 0u)
      << "responses mixing two snapshots detected";
  EXPECT_EQ(unknown_versions.load(), 0u);
  PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.batches,
            static_cast<uint64_t>(kClients) * kBatchesPerClient);
  EXPECT_GT(stats.rebinds, 0u);
  EXPECT_GE(stats.swaps, 1u);
}

// Swapping between backend *kinds* (hopi cover -> file with tiny blocks,
// mapped -> file with default blocks, buffered) while serving: the
// label route (borrow from the cover, or the block cache over either
// file image) changes under the clients' feet, answers must not.
TEST(EnginePoolStressTest, SwapAcrossBackendKindsKeepsAnswers) {
  Collection c = hopi::testing::RandomCollection(5, 6, 10, 99);
  HopiIndex index = MustBuild(&c);
  auto hopi_snapshot = BackendSnapshot::Freeze(index);

  storage::LinLoutStore store =
      storage::LinLoutStore::FromCover(index.cover(), false);
  std::string path = ::testing::TempDir() + "hopi_pool_swap_kinds.bin";
  std::string v4_path = ::testing::TempDir() + "hopi_pool_swap_kinds_v4.bin";
  ASSERT_TRUE(store.WriteToFile(path).ok());
  storage::StoreWriteOptions v4_options;
  v4_options.compress.target_block_bytes = 256;
  ASSERT_TRUE(store.WriteToFile(v4_path, v4_options).ok());
  auto open = [](const std::string& file, bool prefer_mmap) {
    auto opened =
        storage::MappedLinLoutStore::Open(file, {.prefer_mmap = prefer_mmap});
    EXPECT_TRUE(opened.ok()) << opened.status();
    return std::make_shared<const storage::MappedLinLoutStore>(
        std::move(opened).value());
  };
  auto collection = std::shared_ptr<const Collection>(
      hopi_snapshot, &hopi_snapshot->collection());
  // The rotated snapshots share the frozen collection, so they can
  // also share its tag index (built once by Freeze).
  auto v4_snapshot = BackendSnapshot::OfMappedStore(
      collection, open(v4_path, true), hopi_snapshot->tags());
  auto mapped_snapshot = BackendSnapshot::OfMappedStore(
      collection, open(path, false), hopi_snapshot->tags());

  const auto n = static_cast<NodeId>(c.NumElements());
  std::vector<bool> matrix(static_cast<size_t>(n) * n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      matrix[static_cast<size_t>(u) * n + v] = index.IsReachable(u, v);
    }
  }

  EnginePool pool(hopi_snapshot, {.num_threads = 3});
  std::atomic<bool> done{false};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> clients;
  for (int client = 0; client < 3; ++client) {
    clients.emplace_back([&, client] {
      Rng rng(500 + client);
      for (int b = 0; b < 150; ++b) {
        BatchRequest request;
        std::vector<NodePair> pairs;
        for (int i = 0; i < 48; ++i) {
          pairs.push_back({static_cast<NodeId>(rng.NextBounded(n)),
                           static_cast<NodeId>(rng.NextBounded(n))});
        }
        request.pairs = pairs;
        auto response = pool.Batch(std::move(request));
        if (!response.ok()) continue;
        for (size_t i = 0; i < pairs.size(); ++i) {
          bool expect = matrix[static_cast<size_t>(pairs[i].first) * n +
                               pairs[i].second];
          if (response->batch.reachable[i] != expect) wrong.fetch_add(1);
        }
      }
    });
  }
  std::thread swapper([&] {
    const std::shared_ptr<const BackendSnapshot> rotation[] = {
        v4_snapshot, mapped_snapshot, hopi_snapshot};
    for (int s = 0; !done.load(); ++s) {
      pool.Swap(rotation[s % 3]);
      std::this_thread::yield();
    }
  });
  for (auto& client : clients) client.join();
  done.store(true);
  swapper.join();
  EXPECT_EQ(wrong.load(), 0u);
  pool.Shutdown();
  std::remove(path.c_str());
  std::remove(v4_path.c_str());
}

// Serve-during-rebuild under fire: client threads hammer Batch() while
// a writer streams mutations and the RebuildDaemon races absorb
// rebuilds, snapshot swap-ins, and delta truncations against both.
//
// The oracle protocol: every accepted mutation advances the global
// delta generation by exactly one, and (snapshot_version,
// delta_generation) always names one unique logical graph — absorbing
// a delta changes the version but *preserves* the generation, so the
// generation alone identifies the graph. The writer publishes, under
// one mutex, {ApplyMutation -> mirror replay -> closure matrix of that
// generation}; a client holding a response for generation g therefore
// finds a matrix that is correct for g (spinning briefly if the writer
// is still inside the critical section). A torn response — answers
// mixing the pre- and post-rebuild state, or a delta truncated before
// its snapshot swapped in — shows up as a content mismatch, not just a
// sanitizer report.
TEST(EnginePoolStressTest, MutationsRebuildsAndProbesRaceConsistently) {
  Collection base = hopi::testing::RandomCollection(4, 5, 8, 31337);
  HopiIndex index = MustBuild(&base);
  auto snapshot = BackendSnapshot::Freeze(index);
  const auto n0 = static_cast<NodeId>(base.NumElements());

  EnginePoolOptions options;
  options.num_threads = 3;
  options.overlay_hop_budget = 2;  // force over-budget searches
  options.max_delta_ops = 64;  // writer must wait for absorbs
  EnginePool pool(snapshot, options);
  ASSERT_TRUE(pool.EnableMutations(index).ok());

  RebuildDaemon::Options daemon_options;
  daemon_options.poll_interval = std::chrono::milliseconds(1);
  daemon_options.max_delta_ops = 8;
  daemon_options.degradation_threshold = 1.5;
  RebuildDaemon daemon(&pool, daemon_options);

  // Clients probe base ids only, so a fixed n0 x n0 matrix per
  // generation suffices even as inserted documents grow the id space.
  auto matrix_for = [n0](const Collection& mirror) {
    TransitiveClosureIndex closure =
        TransitiveClosureIndex::Build(mirror.ElementGraph(), false);
    std::vector<bool> matrix(static_cast<size_t>(n0) * n0);
    for (NodeId u = 0; u < n0; ++u) {
      for (NodeId v = 0; v < n0; ++v) {
        matrix[static_cast<size_t>(u) * n0 + v] = closure.IsReachable(u, v);
      }
    }
    return matrix;
  };

  std::mutex mx;  // guards mirror + matrices, serializes the writer
  Collection mirror = base;
  std::map<uint64_t, std::vector<bool>> matrix_of_generation;
  matrix_of_generation[0] = matrix_for(mirror);

  constexpr int kWriterOps = 120;  // > max_delta_ops: forces absorbs
  std::atomic<size_t> accepted{0};
  std::atomic<size_t> torn{0};
  std::atomic<bool> clients_done{false};

  std::thread writer([&] {
    Rng rng(9001);
    int doc_counter = 0;
    // Valid-by-construction draw against the mirror: mostly links in
    // and out of the combined graph, some document births and deaths.
    auto draw = [&](const Collection& m) -> Mutation {
      switch (rng.NextBounded(5)) {
        case 0:
        case 1: {
          std::vector<NodeId> live = hopi::testing::LiveElements(m);
          for (int attempt = 0; attempt < 10 && live.size() > 1; ++attempt) {
            NodeId u = live[rng.NextBounded(live.size())];
            NodeId v = live[rng.NextBounded(live.size())];
            if (u == v || m.ElementGraph().HasEdge(u, v)) continue;
            return Mutation::InsertLink(u, v);
          }
          break;
        }
        case 2: {
          if (m.Links().empty()) break;
          collection::Link l = m.Links()[rng.NextBounded(m.Links().size())];
          return Mutation::DeleteLink(l.source, l.target);
        }
        case 3: {
          if (m.NumLiveDocuments() <= 2) break;
          for (int attempt = 0; attempt < 10; ++attempt) {
            auto d = static_cast<uint32_t>(rng.NextBounded(m.NumDocuments()));
            if (m.IsLive(d)) return Mutation::DeleteDocument(d);
          }
          break;
        }
        default:
          break;
      }
      std::vector<NewElementSpec> elements;
      elements.push_back({"article", std::nullopt});
      size_t extra = rng.NextBounded(4);
      for (size_t i = 0; i < extra; ++i) {
        elements.push_back(
            {"section",
             static_cast<uint32_t>(rng.NextBounded(elements.size()))});
      }
      return Mutation::InsertDocument(
          "stress" + std::to_string(doc_counter++) + ".xml",
          std::move(elements));
    };

    for (int op = 0; op < kWriterOps; ++op) {
      // Bounded backpressure loop: at the pool's hard delta cap the
      // mutation sheds (429) until the daemon absorbs; a dead daemon
      // fails the test here instead of hanging it.
      bool applied = false;
      for (int attempt = 0; attempt < 5000 && !applied; ++attempt) {
        std::unique_lock<std::mutex> lock(mx);
        Mutation m = draw(mirror);
        auto receipt = pool.ApplyMutation(m);
        if (!receipt.ok()) {
          ASSERT_TRUE(receipt.status().IsResourceExhausted())
              << "op " << op << ": " << receipt.status();
          lock.unlock();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        ASSERT_TRUE(ApplyMutationToCollection(m, &mirror).ok());
        EXPECT_EQ(receipt->generation, accepted.load() + 1);
        matrix_of_generation[receipt->generation] = matrix_for(mirror);
        accepted.fetch_add(1);
        applied = true;
      }
      ASSERT_TRUE(applied) << "writer starved at op " << op
                           << " (daemon never absorbed the delta)";
    }
  });

  constexpr int kClients = 3;
  constexpr int kBatchesPerClient = 150;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      Rng rng(2000 + client);
      for (int b = 0; b < kBatchesPerClient; ++b) {
        std::vector<NodePair> pairs;
        for (int i = 0; i < 48; ++i) {
          pairs.push_back({static_cast<NodeId>(rng.NextBounded(n0)),
                           static_cast<NodeId>(rng.NextBounded(n0))});
        }
        auto response = pool.Batch({.pairs = pairs});
        ASSERT_TRUE(response.ok()) << response.status();
        const uint64_t generation = response->delta_generation;
        // The writer publishes generation g's matrix before releasing
        // mx, so at worst we spin across its critical section.
        std::vector<bool> matrix;
        for (int spin = 0; spin < 200000 && matrix.empty(); ++spin) {
          std::lock_guard<std::mutex> lock(mx);
          auto it = matrix_of_generation.find(generation);
          if (it != matrix_of_generation.end()) matrix = it->second;
        }
        ASSERT_FALSE(matrix.empty())
            << "no matrix ever published for generation " << generation;
        for (size_t i = 0; i < pairs.size(); ++i) {
          bool expect = matrix[static_cast<size_t>(pairs[i].first) * n0 +
                               pairs[i].second];
          if (response->batch.reachable[i] != expect) torn.fetch_add(1);
        }
      }
    });
  }

  // Mutation-era stats must stay monotonic while rebuilds truncate the
  // delta under the counters.
  std::thread sampler([&] {
    PoolStats last;
    while (!clients_done.load()) {
      PoolStats now = pool.Stats();
      EXPECT_GE(now.mutations, last.mutations);
      EXPECT_GE(now.mutation_failures, last.mutation_failures);
      EXPECT_GE(now.rebuilds, last.rebuilds);
      EXPECT_GE(now.delta_generation, last.delta_generation);
      EXPECT_GE(now.overlay_probes, last.overlay_probes);
      EXPECT_GE(now.overlay_bfs_fallbacks, last.overlay_bfs_fallbacks);
      EXPECT_GE(now.overlay_budget_exhaustions,
                last.overlay_budget_exhaustions);
      last = now;
      std::this_thread::yield();
    }
  });

  writer.join();
  for (auto& client : clients) client.join();
  clients_done.store(true);
  sampler.join();
  daemon.Stop();

  EXPECT_EQ(torn.load(), 0u) << "responses disagreeing with the matrix of "
                                "their reported generation";
  EXPECT_EQ(accepted.load(), static_cast<size_t>(kWriterOps));
  EXPECT_EQ(daemon.stats().errors, 0u);
  // kWriterOps > max_delta_ops, so the writer can only have finished
  // if the daemon rebuilt at least once.
  EXPECT_GE(daemon.stats().rebuilds, 1u);
  PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.mutations, static_cast<uint64_t>(kWriterOps));
  EXPECT_EQ(stats.delta_generation, static_cast<uint64_t>(kWriterOps));

  // Post-race convergence: a full rebuild from the maintenance state
  // must agree everywhere with a fresh closure of the final mirror.
  auto full = pool.RebuildNow(RebuildMode::kFull);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_TRUE(pool.delta()->empty());
  ASSERT_EQ(pool.ServingElementCount(), mirror.NumElements());
  const auto n = static_cast<NodeId>(mirror.NumElements());
  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(mirror.ElementGraph(), false);
  size_t mismatches = 0;
  for (NodeId u = 0; u < n; ++u) {
    BatchRequest request;
    for (NodeId v = 0; v < n; ++v) request.pairs.push_back({u, v});
    auto response = pool.Batch(std::move(request));
    ASSERT_TRUE(response.ok()) << response.status();
    for (NodeId v = 0; v < n; ++v) {
      if ((response->batch.reachable[v] != 0) != closure.IsReachable(u, v)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "post-rebuild snapshot disagrees with the "
                               "closure of the final mirror";
  pool.Shutdown();
}

}  // namespace
}  // namespace hopi::engine
