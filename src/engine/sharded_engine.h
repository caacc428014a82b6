// ShardedEngine: scatter-gather serving over a ShardPlan.
//
// N shard units — each an EnginePool over a BackendSnapshot holding one
// shard's rows of the global cover (shard_router.h) — behind one batch
// front door with the same answers as a single QueryEngine over the
// whole collection:
//
//   routing   a same-shard pair goes to its shard, which holds both of
//             its rows and probes it. For a cross-shard pair the router
//             fetches Lout(u) from u's shard and Lin(v) from v's shard
//             and joins the two rows itself (twohop::JoinViews, the one
//             2-hop join). The rows are those of one cover over the
//             whole collection, so both routes are exact, distances
//             included.
//   fan-out   a batch sends one sub-request to each shard it consults:
//             that shard's direct pairs and the rows its cross pairs
//             need, deduplicated (Lout of sources, Lin of targets). The
//             shard answers probes and rows from one snapshot and
//             reports that snapshot's version.
//   merge     one MergeState per submitted batch collects the
//             sub-request results; the LAST completion finalizes. A
//             deadline (merge_deadline) arms a watchdog that finalizes
//             early with whatever arrived: pairs whose probe or both
//             rows landed are answered exactly, the rest are marked
//             unresolved — the degradation contract is "typed partial
//             result, never a wrong bool". status taxonomy:
//               OK                 every sub-request completed cleanly
//               DeadlineExceeded   >=1 sub-request still pending at the
//                                  deadline (slow/stalled shard)
//               Unavailable        every sub-request done but >=1 failed
//               Unsupported        want_distances over a consulted
//                                  shard whose cover is plain
//                                  (detected synchronously, no scatter)
//
// The engine talks to shards ONLY through ShardClient — a narrow,
// callback-based, socket-liftable interface (name / with_distance /
// SubmitBatch / Descendants / Ancestors / Swap) whose answers are
// values: probe answers and rows as LabelEntry vectors. PoolShardClient
// is the in-process binding over an EnginePool; tests inject
// fault-wrapping clients through the same seam, and a TCP client would
// slot in without touching the router or merge layer.
//
// Path queries (/v1/path) reuse the whole single-engine evaluator: a
// private QueryEngine runs over a ShardedBackend adapter whose
// reachability probes are sharded batches. Its Descendants(u) fetches
// Lout(u) from u's shard, then asks every shard for its nodes whose Lin
// holds u or one of those centers — the Sec 3.4 backward index, read
// from each shard's own rows; Ancestors runs the other way. Path work
// runs on a dedicated worker thread to keep the shard pools free for
// the sub-requests its probes fan into.
#pragma once

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
#include <span>
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

/// One shard's part of a sharded batch.
struct ShardRequest {
  /// Same-shard pairs, probed by the shard.
  BatchRequest batch;
  /// Nodes of this shard whose Lout / Lin rows the router joins for
  /// cross-shard pairs.
  std::vector<NodeId> out_rows;
  std::vector<NodeId> in_rows;
};

/// One shard's answer to a ShardRequest: probes and rows alike come from
/// one snapshot, whose version the stress test validates answers
/// against.
struct ShardBatchResult {
  BatchResponse batch;
  /// Parallel to ShardRequest::out_rows / in_rows; each row sorted by
  /// center.
  std::vector<std::vector<twohop::LabelEntry>> out_rows;
  std::vector<std::vector<twohop::LabelEntry>> in_rows;
  /// Version of the snapshot that served the sub-request.
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
      ShardRequest request,
      std::function<void(Result<ShardBatchResult>)> on_done) = 0;

  /// The Sec 3.4 backward index over this shard's rows (the path
  /// adapter's building block): every node of the shard whose Lin
  /// (Descendants) or Lout (Ancestors) holds one of `centers`.
  virtual std::vector<NodeId> Descendants(
      std::span<const NodeId> centers) const = 0;
  virtual std::vector<NodeId> Ancestors(
      std::span<const NodeId> centers) const = 0;

  /// Publishes a new serving snapshot (the stress test's churn lever).
  /// Unsupported by default — remote shards manage their own state.
  virtual Status Swap(std::shared_ptr<const BackendSnapshot> snapshot) {
    (void)snapshot;
    return Status::Unsupported("this ShardClient cannot swap snapshots");
  }
};

/// In-process ShardClient over an EnginePool whose snapshots hold an
/// in-memory index (BackendSnapshot::index()). A sub-request's probes
/// run on a pool worker; its rows are copied, in that worker's
/// completion callback, from the cover of the snapshot that answered
/// the probes. The backward index is that cover's reverse maps.
class PoolShardClient : public ShardClient {
 public:
  PoolShardClient(std::string name,
                  std::shared_ptr<const BackendSnapshot> snapshot,
                  EnginePoolOptions options);

  std::string_view name() const override { return name_; }
  bool with_distance() const override { return with_distance_; }
  uint64_t snapshot_version() const override;

  Status SubmitBatch(
      ShardRequest request,
      std::function<void(Result<ShardBatchResult>)> on_done) override;

  std::vector<NodeId> Descendants(
      std::span<const NodeId> centers) const override;
  std::vector<NodeId> Ancestors(
      std::span<const NodeId> centers) const override;

  Status Swap(std::shared_ptr<const BackendSnapshot> snapshot) override;

 private:
  /// The snapshot this client published under `version`, if it is
  /// still alive (a worker serving it keeps it so).
  std::shared_ptr<const BackendSnapshot> Published(uint64_t version) const;

  std::string name_;
  bool with_distance_;
  // Every snapshot published to the pool, by weak reference; declared
  // before pool_ so the pool's shutdown drain can still read it.
  mutable std::mutex published_mu_;
  std::vector<std::weak_ptr<const BackendSnapshot>> published_;
  EnginePool pool_;
};

/// Aggregated scatter-gather counters (relaxed atomics underneath;
/// monotonic per field, not mutually consistent across fields — same
/// contract as PoolStats).
struct ShardStats {
  uint64_t batches = 0;           ///< Sharded batches finalized.
  uint64_t direct_pairs = 0;      ///< Same-shard pairs routed directly.
  uint64_t cross_pairs = 0;       ///< Pairs joined from fetched rows.
  uint64_t subbatches = 0;        ///< Per-shard sub-requests issued.
  uint64_t rows_fetched = 0;      ///< Deduplicated label rows requested.
  uint64_t partial_batches = 0;   ///< Batches finalized non-OK.
  uint64_t failed_subbatches = 0; ///< Sub-requests that returned errors.
  /// Direct pairs routed to each shard.
  std::vector<uint64_t> per_shard_probes;
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
  /// Queued sub-requests allowed per shard worker
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
  /// sub-request (shed, shut down) is instead delivered through `on_done`
  /// as a failed sub-request, i.e. an Unavailable partial result.
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
  /// sub-requests. Returns Unsupported for a distance batch touching a
  /// plain shard.
  Status PlanBatch(const BatchRequest& request, MergeState* state);
  /// Lout(u) (`out`) or Lin(u) from u's shard, through its client like
  /// any sub-request; empty when u is dead or its shard does not answer
  /// within the merge deadline.
  std::vector<twohop::LabelEntry> FetchRow(NodeId u, bool out);
  void OnSubBatchDone(const std::shared_ptr<MergeState>& state, size_t sub,
                      Result<ShardBatchResult> result);
  /// Builds and delivers the response. Caller must have won the
  /// finalize race (state->finalized set under state->mu).
  void Finalize(const std::shared_ptr<MergeState>& state, Status status);
  void WatchdogLoop();
  void PathWorkerLoop();

  const collection::Collection* collection_;
  const ShardPlan* plan_;
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
  std::atomic<uint64_t> subbatches_{0};
  std::atomic<uint64_t> rows_fetched_{0};
  std::atomic<uint64_t> partial_batches_{0};
  std::atomic<uint64_t> failed_subbatches_{0};
  std::vector<std::atomic<uint64_t>> per_shard_probes_;
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> merge_latency_us_total_{0};
  std::atomic<uint64_t> merge_latency_us_max_{0};
};

}  // namespace hopi::engine
