// ShardedEngine: scatter-gather serving over a ShardPlan.
//
// N shard units — each an EnginePool over a BackendSnapshot holding one
// shard's cover (shard_router.h) — behind one batch front door with the
// same answer semantics as a single QueryEngine over the whole
// collection:
//
//   routing   same-shard pairs go straight to their shard (the plan
//             folded same-shard skeleton routes into each cover, so
//             direct routing is exact even for leave-and-return paths);
//             cross-shard pairs SCATTER — the source shard answers
//             u -> every route source, the target shard answers every
//             route target -> v — and the merge layer composes the
//             three legs by min-plus over the router's skeleton routes
//             (ComposeThreeLegs), exactly how hopi/join.cc composes
//             partition covers.
//   merge     one MergeState per submitted batch collects the per-shard
//             sub-batch results; the LAST completion finalizes. A
//             deadline (merge_deadline) arms a watchdog that finalizes
//             early with whatever arrived: pairs whose legs all landed are
//             answered exactly, the rest are marked unresolved — the
//             degradation contract is "typed partial result, never a
//             wrong bool". status taxonomy:
//               OK                 every sub-batch completed cleanly
//               DeadlineExceeded   >=1 sub-batch still pending at the
//                                  deadline (slow/stalled shard)
//               Unavailable        every sub-batch done but >=1 failed
//               Unsupported        want_distances over a consulted
//                                  shard whose cover is plain
//                                  (detected synchronously, no scatter)
//   fan-out   a batch sends one sub-batch to each shard it consults,
//             holding that shard's direct probes and its legs of every
//             cross pair, deduplicated together.
//
// The engine talks to shards ONLY through ShardClient — a narrow,
// callback-based, socket-liftable interface (name / with_distance /
// SubmitBatch / Descendants / Ancestors / Swap). PoolShardClient is the
// in-process binding over an EnginePool; tests inject
// fault-wrapping clients through the same seam, and a TCP client would
// slot in without touching the router or merge layer.
//
// Path queries (/v1/path) reuse the whole single-engine evaluator: a
// private QueryEngine runs over a ShardedBackend adapter whose
// reachability probes are sharded batches and whose
// Descendants/Ancestors expand shard-locally then hop the router's
// route tables once (routes are PSG-closed, so one hop reaches every
// shard). Path work runs on a dedicated worker thread to keep the
// shard pools free for the legs those probes fan into.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "engine/engine.h"
#include "engine/engine_pool.h"
#include "engine/shard_router.h"
#include "engine/snapshot.h"
#include "util/result.h"

namespace hopi::engine {

/// One shard's answer to a scatter sub-batch, with the provenance the
/// stress test validates answers against.
struct ShardBatchResult {
  BatchResponse batch;
  /// Version of the snapshot that served the sub-batch.
  uint64_t snapshot_version = 0;
};

/// The router <-> shard boundary. Deliberately narrow and asynchronous
/// (one submit, one completion callback, no shared memory implied) so
/// the in-process binding below can be replaced by a socket client
/// without touching ShardedEngine. Implementations must be thread-safe;
/// `on_done` may run on any thread and must run exactly once per OK
/// submit (a non-OK SubmitBatch return means it never runs).
class ShardClient {
 public:
  virtual ~ShardClient() = default;

  virtual std::string_view name() const = 0;
  /// Whether this shard's cover carries distances.
  virtual bool with_distance() const = 0;
  /// Version of the snapshot currently serving (advisory; the
  /// authoritative per-answer version rides in ShardBatchResult).
  virtual uint64_t snapshot_version() const = 0;

  virtual Status SubmitBatch(
      BatchRequest request,
      std::function<void(Result<ShardBatchResult>)> on_done) = 0;

  /// Shard-local expansions (the path adapter's building blocks).
  virtual std::vector<NodeId> Descendants(NodeId u) const = 0;
  virtual std::vector<NodeId> Ancestors(NodeId u) const = 0;

  /// Publishes a new serving snapshot (the stress test's churn lever).
  /// Unsupported by default — remote shards manage their own state.
  virtual Status Swap(std::shared_ptr<const BackendSnapshot> snapshot) {
    (void)snapshot;
    return Status::Unsupported("this ShardClient cannot swap snapshots");
  }
};

/// In-process ShardClient over an EnginePool.
class PoolShardClient : public ShardClient {
 public:
  PoolShardClient(std::string name,
                  std::shared_ptr<const BackendSnapshot> snapshot,
                  EnginePoolOptions options);

  std::string_view name() const override { return name_; }
  bool with_distance() const override { return with_distance_; }
  uint64_t snapshot_version() const override;

  Status SubmitBatch(
      BatchRequest request,
      std::function<void(Result<ShardBatchResult>)> on_done) override;

  std::vector<NodeId> Descendants(NodeId u) const override;
  std::vector<NodeId> Ancestors(NodeId u) const override;

  Status Swap(std::shared_ptr<const BackendSnapshot> snapshot) override;

  EnginePool& pool() { return pool_; }

 private:
  std::string name_;
  bool with_distance_;
  EnginePool pool_;
};

/// Aggregated scatter-gather counters (relaxed atomics underneath;
/// monotonic per field, not mutually consistent across fields — same
/// contract as PoolStats).
struct ShardStats {
  uint64_t batches = 0;           ///< Sharded batches finalized.
  uint64_t direct_pairs = 0;      ///< Same-shard pairs routed directly.
  uint64_t cross_pairs = 0;       ///< Pairs scattered across shards.
  /// Cross pairs answered "unreachable" straight from an empty route
  /// table (no probing at all).
  uint64_t routeless_pairs = 0;
  uint64_t subbatches = 0;        ///< Per-shard sub-batches issued.
  uint64_t leg_probes = 0;        ///< Deduplicated leg pairs probed.
  uint64_t partial_batches = 0;   ///< Batches finalized non-OK.
  uint64_t failed_subbatches = 0; ///< Sub-batches that returned errors.
  /// Probes (direct + legs) routed to each shard.
  std::vector<uint64_t> per_shard_probes;
  /// Scatter fan-out per cross pair (leg probes it contributed before
  /// dedup): bucket 0 counts fan-out <= 1 (including routeless pairs),
  /// bucket b >= 1 counts fan-out in [2^b, 2^(b+1)).
  std::array<uint64_t, 16> fanout_histogram{};
  uint64_t merges = 0;                 ///< Finalizations timed.
  uint64_t merge_latency_us_total = 0; ///< Submit -> finalize, summed.
  uint64_t merge_latency_us_max = 0;
};

/// A sharded batch answer. `batch.reachable` / `batch.distances` are
/// parallel to the request pairs as always; `resolved[i]` says whether
/// pair i's answer is authoritative. On an OK status every pair is
/// resolved; on DeadlineExceeded / Unavailable the unresolved pairs
/// report reachable=false / distance=nullopt as PLACEHOLDERS — callers
/// must check `resolved` (the fault-injection suite's core assertion:
/// degradation is typed, never a silently wrong bool). `batch.error`
/// mirrors `status` so the wire layer's partial_error serialization
/// carries it unchanged.
struct ShardedBatchResponse {
  BatchResponse batch;
  std::vector<bool> resolved;
  Status status = Status::OK();
  /// ShardBatchResult::snapshot_version per shard consulted by this
  /// batch; 0 for shards not consulted (or not heard from in time).
  std::vector<uint64_t> shard_versions;
};

struct ShardedEngineOptions {
  /// Serving workers per shard pool (PoolShardClient shards only).
  size_t threads_per_shard = 1;
  /// Decoded-block cache bytes per shard worker. Each shard's workers
  /// share one cache of this value times threads_per_shard
  /// (EnginePoolOptions::label_cache_bytes).
  size_t label_cache_bytes = 4 * 1024 * 1024;
  /// Queued sub-batches allowed per shard worker
  /// (EnginePoolOptions::queue_capacity). 0 = unbounded.
  size_t queue_capacity = 256;
  /// Merge deadline: how long a batch waits for its slowest shard
  /// before finalizing partial with DeadlineExceeded. zero() = wait
  /// forever (a stalled shard then stalls the batch — only sensible in
  /// deterministic tests).
  std::chrono::milliseconds merge_deadline{2000};
};

class ShardedEngine {
 public:
  /// Production form: builds one PoolShardClient per plan shard.
  /// `collection` is the one the plan was built from; both must outlive
  /// the engine.
  ShardedEngine(const collection::Collection* collection,
                const ShardPlan* plan, ShardedEngineOptions options = {});

  /// Test seam: same, but with caller-supplied clients (fault
  /// injectors, socket stand-ins). `clients.size()` must equal
  /// `plan->num_shards`.
  ShardedEngine(const collection::Collection* collection,
                const ShardPlan* plan,
                std::vector<std::unique_ptr<ShardClient>> clients,
                ShardedEngineOptions options = {});

  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- batches (any thread) ----

  /// Routes, scatters, and registers the merge; `on_done` runs exactly
  /// once with the merged response — possibly inline (all pairs
  /// resolved at routing time), on a shard completion thread, or on the
  /// watchdog at the deadline. A non-OK return — Unsupported (distance
  /// batch over a plain consulted shard) or FailedPrecondition (after
  /// Shutdown) — means `on_done` never runs; a shard REJECTING its
  /// sub-batch (shed, shut down) is instead delivered through `on_done`
  /// as a failed sub-batch, i.e. an Unavailable partial result.
  Status SubmitBatch(BatchRequest request,
                     std::function<void(ShardedBatchResponse)> on_done);

  /// Submit + wait.
  Result<ShardedBatchResponse> Batch(BatchRequest request);

  // ---- path queries (any thread) ----

  /// Runs the single-engine path evaluator over the sharded backend on
  /// the dedicated path worker. Contract as EnginePool::SubmitQuery.
  Status SubmitQuery(PathQueryRequest request,
                     std::function<void(Result<PoolPathResponse>)> on_done);
  Result<PoolPathResponse> Query(PathQueryRequest request);

  // ---- introspection ----

  size_t num_shards() const { return clients_.size(); }
  const ShardPlan& plan() const { return *plan_; }
  const ShardRouter& router() const { return router_; }
  ShardClient& client(size_t shard) { return *clients_[shard]; }
  /// True when every shard's cover carries distances.
  bool with_distance() const { return with_distance_; }
  size_t ServingElementCount() const { return collection_->NumElements(); }
  size_t ServingDocumentCount() const { return collection_->NumDocuments(); }
  ShardStats Stats() const;

  /// Stops intake, fails outstanding merges with Unavailable, joins the
  /// watchdog and path worker. Shard pools drain in the clients'
  /// destructors. Idempotent; also run by the destructor.
  void Shutdown();

 private:
  friend class ShardedBackend;
  struct MergeState;
  struct SubBatch;

  /// Shared routing pass: fills the merge state's pair plans and
  /// sub-batches. Returns Unsupported for a distance batch touching a
  /// plain shard.
  Status PlanBatch(const BatchRequest& request, MergeState* state);
  void OnSubBatchDone(const std::shared_ptr<MergeState>& state, size_t sub,
                      Result<ShardBatchResult> result);
  /// Builds and delivers the response. Caller must have won the
  /// finalize race (state->finalized set under state->mu).
  void Finalize(const std::shared_ptr<MergeState>& state, Status status);
  void WatchdogLoop();
  void PathWorkerLoop();

  const collection::Collection* collection_;
  const ShardPlan* plan_;
  ShardRouter router_;
  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<ShardClient>> clients_;
  bool with_distance_;

  // ---- merge watchdog ----
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  /// Active deadline-bearing merges, unordered (the loop scans; batch
  /// counts are small and scans touch only expired entries' locks).
  std::vector<std::shared_ptr<MergeState>> watched_;
  std::thread watchdog_;

  // ---- path worker ----
  struct PathJob {
    PathQueryRequest request;
    std::function<void(Result<PoolPathResponse>)> on_done;
  };
  std::unique_ptr<QueryEngine> path_engine_;  // over ShardedBackend
  std::mutex path_mu_;
  std::condition_variable path_cv_;
  std::deque<PathJob> path_queue_;
  std::thread path_worker_;

  std::atomic<bool> shutdown_{false};
  std::once_flag shutdown_once_;

  // ---- stats (relaxed atomics; snapshot via Stats()) ----
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> direct_pairs_{0};
  std::atomic<uint64_t> cross_pairs_{0};
  std::atomic<uint64_t> routeless_pairs_{0};
  std::atomic<uint64_t> subbatches_{0};
  std::atomic<uint64_t> leg_probes_{0};
  std::atomic<uint64_t> partial_batches_{0};
  std::atomic<uint64_t> failed_subbatches_{0};
  std::vector<std::atomic<uint64_t>> per_shard_probes_;
  std::array<std::atomic<uint64_t>, 16> fanout_histogram_{};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> merge_latency_us_total_{0};
  std::atomic<uint64_t> merge_latency_us_max_{0};
};

}  // namespace hopi::engine
