// EnginePool: thread-per-core serving over snapshot-swappable backends.
//
// The ROADMAP's async-serving item, concretely: N long-lived serving
// workers, each owning one QueryEngine, all bound to one shared
// immutable BackendSnapshot and to the one LabelCache of decoded blocks
// the pool keeps for that snapshot (label_cache.h: sharded, CLOCK
// replacement, hits under reader locks). A block one worker decoded is
// a hit for every other, and the cache's budget is the per-worker
// label_cache_bytes times the worker count. Work (batched
// reachability, path queries) enters one
// FIFO under one mutex: a request that arrives while a worker is idle
// is handed straight to that worker, through the worker's own slot and
// condition variable, and otherwise waits in the queue, which every
// worker empties before it goes idle again. So no request waits while a
// worker idles, and a worker is signalled only when a job waits in its
// slot.
// A request is one closure that serves itself and answers through its
// callback; the future and blocking forms wrap the callback form.
//
// Borrowing (ServeBatch): a caller that would otherwise only wait for
// the answer — the network front end's event loop — serves a small
// batch itself. ServeBatch takes the most recently idle worker off the
// idle list, exactly as a hand-off would. If that worker is already
// bound to the published state, the caller serves the batch on its own
// thread with the worker's engine, on that bound state,
// and the callback runs before ServeBatch returns. While on loan the
// worker counts as busy for the admission gate, the queue bound and
// PoolStats::executing, its own thread stays parked, and Shutdown lets
// it exit (and drop its engine) only once the loan ends. At the end of
// the loan it takes the job at the queue's head, or goes back on the
// idle list, so an idle worker still implies an empty queue.
// A batch is served inline only when each of its probes is a join of
// in-memory labels, no rebind is due, it is small, and a worker is
// idle. So four cases take the hand-off instead:
//   - the published state is not label joins in memory: a snapshot
//     that is not memory_resident() (a block decode may fault file
//     pages in, and an event loop must never wait on a disk), or a
//     non-empty delta (an overlay probe may run a BFS, which costs
//     microseconds, not the ~250 ns of a join; serialized on one loop,
//     such batches lose the workers' parallelism);
//   - the idle worker is not bound to the published state yet (its
//     first request, or its first since a Swap, rebuild or mutation):
//     it gets the batch as a hand-off, and its own thread rebinds —
//     building an engine and perhaps releasing the last reference to
//     an old snapshot, a cost that grows with the index;
//   - the batch has more than kMaxInlinePairs pairs;
//   - no worker is idle.
// Path queries, the future and blocking forms and ShardedEngine's
// sub-batches always hand off.
//
// Snapshot swap is RCU-style: Swap() publishes a new serving state and
// returns immediately. Workers notice on their *next* work item, rebind
// (a fresh backend adapter over the snapshot-shared tag index and label
// cache, so rebinding is O(1)), and the old snapshot is reclaimed, with
// its cache, by its last in-flight reference — queries already executing
// finish on the state they started with, never a torn mix. Every
// response carries the version of the snapshot that served it. The
// cache belongs to the snapshot object: a publication that keeps the
// object (a mutation's delta-only publish, a Swap to the same snapshot)
// keeps the warm cache; a new snapshot starts with an empty one, and
// the outgoing cache is emptied then, so a worker still bound to the
// old snapshot (idle workers rebind only on their next job) keeps at
// most the blocks its batches put there since. A memory-resident
// snapshot lends its labels and never reaches the cache, so it gets a
// cache of zero bytes.
//
// Consistency contract under Swap: each *response* is entirely computed
// against one serving state (the snapshot version + delta generation it
// reports). Two requests submitted around a Swap may be served from
// different states, and two workers may briefly serve different
// versions — this is eventual, per-item consistency, the standard RCU
// trade. A request submitted after Swap() returns is served from the
// new state or a later one, so a caller that needs a barrier waits for
// the requests it submitted before the Swap.
//
// Mutation (serve-during-rebuild): EnableMutations() arms a write path.
// ApplyMutation() validates one op, applies it to a pool-private
// Sec-6-maintained HopiIndex (the rebuild source), and publishes
// {same snapshot, delta + op} — the op is visible to the very next
// work item any worker picks up, served through a DeltaOverlayBackend
// (delta_overlay.h: base-index-hit ∨ bidirectional BFS).
// RebuildNow() / the RebuildDaemon then fold the delta back to zero:
// freeze a fresh snapshot from the maintenance index and publish it
// TOGETHER with the delta truncated through the frozen generation — one
// atomic publication, so no reader ever sees the new snapshot paired
// with already-absorbed delta ops (the swap-truncate ordering rule,
// docs/ARCHITECTURE.md). Delta generations are global ops-ever counts
// and survive truncation, so a response's (version, generation) pair
// always names one logical graph.
//
// Lifetime: the pool joins its workers in Shutdown() (also run by the
// destructor), draining already-queued work first; submissions after
// Shutdown are rejected with FailedPrecondition. All snapshots handed
// to the pool must simply stay un-mutated; the pool's shared_ptrs keep
// them alive as long as needed.
// Overload safety: the work queue can be bounded (queue_capacity per
// worker) and fronted by an AdmissionController — hysteresis watermarks
// over the pending load (queued + executing). Submissions beyond
// either bound fail fast with a typed ResourceExhausted instead of
// queueing unboundedly; the network front-end (net/service.h) turns
// that into HTTP 429. Both bounds are off by default, preserving the
// PR-5 in-process behavior.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "engine/delta_overlay.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "hopi/index.h"
#include "query/similarity.h"
#include "util/result.h"

namespace hopi::engine {

struct EnginePoolOptions {
  /// Serving workers. 0 = std::thread::hardware_concurrency() (the
  /// thread-per-core default), clamped to at least 1.
  size_t num_threads = 0;

  /// Decoded-block cache bytes per worker. The workers share one cache
  /// per snapshot, whose budget is this value times the worker count:
  /// the same total that one cache per worker would add up to.
  size_t label_cache_bytes = 4 * 1024 * 1024;

  /// Ontology for ~tag path steps, copied into every worker engine.
  std::optional<query::TagSimilarity> similarity = std::nullopt;

  /// Queued requests allowed per worker: the work queue holds at most
  /// queue_capacity × workers requests waiting for a worker. A
  /// submission to a full queue fails with ResourceExhausted even when
  /// the admission controller admits — the hard backstop under a
  /// burst. 0 = unbounded (the pre-overload-control behavior).
  size_t queue_capacity = 0;

  /// Admission watermarks over the pending load (requests queued +
  /// requests executing). At or above
  /// `shed_high_watermark` the pool starts shedding every submission
  /// with ResourceExhausted; it re-admits once the load drains to
  /// `shed_low_watermark` or below (hysteresis, so the gate does not
  /// flap at the boundary). high = 0 disables admission control;
  /// low defaults to high / 2 when left at 0.
  size_t shed_high_watermark = 0;
  size_t shed_low_watermark = 0;

  // ---- delta overlay (used only after EnableMutations) ----

  /// Hops per BFS side after which an overlay probe counts as a budget
  /// exhaustion (DeltaOverlayOptions::hop_budget). Sets only that
  /// counter's threshold; answers are exact at any value.
  size_t overlay_hop_budget = 8;
  /// Hard cap on buffered delta ops: ApplyMutation sheds with
  /// ResourceExhausted at the cap until a rebuild truncates the delta.
  /// 0 = unbounded.
  size_t max_delta_ops = 0;
};

/// Hysteresis gate for overload shedding: trips at the high watermark,
/// re-admits at the low one. Thread-safe; races between concurrent
/// Admit calls can at worst admit/shed a handful of requests around a
/// transition, which is inherent to sampling a moving load anyway.
class AdmissionController {
 public:
  /// high = 0 disables the gate (everything admits). low is clamped to
  /// high - 1 so a trip always needs a real drain to clear.
  AdmissionController(size_t high, size_t low);

  /// Decides one submission given the current aggregate load.
  bool Admit(size_t load);

  /// Currently in the shedding regime?
  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }

 private:
  size_t high_;
  size_t low_;
  std::atomic<bool> shedding_{false};
};

/// A Batch() answer plus its provenance.
struct PoolBatchResponse {
  BatchResponse batch;
  /// BackendSnapshot::version() of the snapshot this answer was
  /// computed against (matches exactly one published snapshot).
  uint64_t snapshot_version = 0;
  /// DeltaState::generation() of the delta this answer saw — together
  /// with snapshot_version this names the exact logical graph served.
  /// 0 until the first mutation.
  uint64_t delta_generation = 0;
  /// Index of the worker that served it (0 .. num_threads() - 1).
  size_t worker = 0;
};

/// A Query() answer plus its provenance.
struct PoolPathResponse {
  Result<PathQueryResponse> result;
  uint64_t snapshot_version = 0;
  uint64_t delta_generation = 0;
  size_t worker = 0;
};

/// Outcome of one accepted mutation.
struct MutationReceipt {
  /// Delta generation after this op (global, monotonic): the first
  /// response generation at which the op is guaranteed visible.
  uint64_t generation = 0;
  /// Snapshot the delta currently overlays.
  uint64_t snapshot_version = 0;
  /// insert_document only: ids the new document received.
  collection::DocId doc = collection::kInvalidDoc;
  NodeId first_element = kInvalidNode;
  uint32_t num_elements = 0;
};

enum class RebuildMode {
  /// Freeze the Sec-6-maintained index as-is: cheap (a copy, no cover
  /// build) but inherits its degradation.
  kAbsorb,
  /// Re-run the full BuildIndex pipeline on a collection copy OUTSIDE
  /// the write lock, then catch up ops that landed meanwhile — resets
  /// degradation to ~1 at the cost of a background build.
  kFull,
};

/// Outcome of one rebuild.
struct RebuildReceipt {
  RebuildMode mode = RebuildMode::kAbsorb;
  /// Generation folded into the new snapshot (every op <= it).
  uint64_t generation = 0;
  /// Version of the snapshot published (unchanged if nothing to do).
  uint64_t snapshot_version = 0;
  /// Delta ops absorbed (and truncated).
  uint64_t absorbed_ops = 0;
  /// Wall time ApplyMutation writers were blocked by this rebuild (the
  /// mutation_mu_ critical sections; probes are never blocked).
  uint64_t writer_pause_us = 0;
};

/// Monotonic pool-wide counters. Aggregated from per-worker relaxed
/// atomics: each field never decreases across successive Stats() calls,
/// but one snapshot is not guaranteed to be mutually consistent across
/// fields (a batch may be counted in `batches` before its probe
/// counters land).
struct PoolStats {
  uint64_t batches = 0;        ///< Batch requests completed.
  uint64_t path_queries = 0;   ///< Path query requests completed.
  // Sums of the per-response BatchStats fields (engine.h documents
  // each route).
  uint64_t probes = 0;
  uint64_t unique_probes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t labels_borrowed = 0;
  uint64_t blocks_decoded = 0;
  uint64_t backend_probes = 0;
  uint64_t swaps = 0;  ///< Publications (Swap() + rebuild swap-ins).
  /// Worker engine rebuilds. Each worker's initial bind counts too, so
  /// the bound is (swaps + 1) × workers, not swaps × workers.
  uint64_t rebinds = 0;
  /// Submissions refused with ResourceExhausted (admission watermark
  /// or a full queue). Monotonic.
  uint64_t sheds = 0;
  // ---- mutation / overlay (all zero until EnableMutations) ----
  uint64_t mutations = 0;          ///< Ops accepted into the delta.
  uint64_t mutation_failures = 0;  ///< Ops rejected by validation.
  uint64_t rebuilds = 0;           ///< RebuildNow() calls that swapped.
  /// Overlay probe outcome counters (delta_overlay.h documents each).
  uint64_t overlay_probes = 0;
  uint64_t overlay_base_hits = 0;
  uint64_t overlay_bfs_fallbacks = 0;
  uint64_t overlay_budget_exhaustions = 0;
  /// Gauges (not monotonic): the load picture at the Stats() call.
  uint64_t queued = 0;    ///< Requests waiting for a worker.
  uint64_t executing = 0; ///< Workers currently serving a request.
  bool shedding = false;  ///< Admission gate currently tripped.
  uint64_t delta_ops = 0;         ///< Un-absorbed delta ops right now.
  uint64_t delta_generation = 0;  ///< Global mutation count.
  /// DegradationFactor() of the maintenance index (1.0 when mutations
  /// are disabled) — what the RebuildDaemon triggers kFull on.
  double degradation = 1.0;
  uint64_t last_rebuild_pause_us = 0;  ///< Writer pause of the last rebuild.
  /// Version of the currently published snapshot. Not monotonic: Swap
  /// publishes whatever snapshot it is given, including an older one
  /// (rollback is a feature).
  uint64_t snapshot_version = 0;
};

class EnginePool {
 public:
  /// Starts the workers, all bound to `snapshot` (with an empty delta).
  explicit EnginePool(std::shared_ptr<const BackendSnapshot> snapshot,
                      EnginePoolOptions options = {});

  /// Shutdown() — drains queued work, joins workers.
  ~EnginePool();

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // ---- submission (any thread) ----

  /// Submits a batch: `on_done` runs ON THE SERVING WORKER right after
  /// the request is served — it must be cheap and non-blocking (hand
  /// the result off; a slow callback keeps that worker from the queue)
  /// and must not throw (exceptions are swallowed). A worker-side
  /// failure (rebind allocation, backend fault) is delivered as an
  /// error Result. The returned Status only covers submission: OK means
  /// `on_done` will eventually run exactly once; FailedPrecondition
  /// (after Shutdown()) and ResourceExhausted (the admission gate or a
  /// full queue shed it — retry later) mean it never will.
  Status SubmitBatch(BatchRequest request,
                     std::function<void(Result<PoolBatchResponse>)> on_done);
  /// Most pairs ServeBatch serves on the calling thread, set by
  /// measurement: in closed-loop runs over an in-memory index (2
  /// workers, 1 IO loop, 3 and 8 clients, 10 alternating runs a size on
  /// a 4-vCPU host), serving inline raised probes/s at 8 and 32 pairs,
  /// and lowered it with 8 clients from 64 pairs on (-3%; -21% at 256):
  /// one loop serializes what two workers would serve side by side. It
  /// also bounds how long one batch holds the loop: ~8 µs of joins at
  /// ~250 ns a probe, where one batch of WireLimits::max_pairs (65,536)
  /// would hold it ≥16 ms.
  static constexpr size_t kMaxInlinePairs = 32;

  /// Serves a batch on the calling thread when it can, and otherwise
  /// submits it as SubmitBatch does. It runs inline when the batch has
  /// at most kMaxInlinePairs pairs and a worker is idle that is bound to
  /// the published state, a memory_resident() snapshot with an empty
  /// delta: the caller borrows that worker (header comment), serves the
  /// batch with its engine and runs `on_done` before returning — so the
  /// caller must not hold a lock `on_done` takes. Contract as
  /// SubmitBatch otherwise: OK means `on_done` runs exactly once, on
  /// this thread or on a worker.
  Status ServeBatch(BatchRequest request,
                    std::function<void(Result<PoolBatchResponse>)> on_done);
  /// Submits a path query; contract as SubmitBatch.
  Status SubmitQuery(PathQueryRequest request,
                     std::function<void(Result<PoolPathResponse>)> on_done);

  /// Future forms: the callback fulfils the future, and a worker-side
  /// failure becomes its exception (std::runtime_error).
  Result<std::future<PoolBatchResponse>> SubmitBatch(BatchRequest request);
  Result<std::future<PoolPathResponse>> SubmitQuery(PathQueryRequest request);

  /// Synchronous conveniences: submit + wait.
  Result<PoolBatchResponse> Batch(BatchRequest request);
  Result<PoolPathResponse> Query(PathQueryRequest request);

  // ---- snapshot management (any thread) ----

  /// Publishes `snapshot` as the serving backend with an EMPTY delta.
  /// Returns immediately; workers rebind on their next work item while
  /// in-flight queries finish on the old state (see the header comment
  /// for the exact consistency contract). `snapshot` must be non-null.
  ///
  /// Swapping an arbitrary external snapshot would desynchronize the
  /// maintenance mirror, so Swap also DISABLES mutations (the delta
  /// generation is preserved; call EnableMutations again to re-arm the
  /// write path against the new snapshot). Rebuilds initiated through
  /// RebuildNow keep mutations enabled — they swap the maintenance
  /// index itself in.
  void Swap(std::shared_ptr<const BackendSnapshot> snapshot);

  /// The currently published snapshot.
  std::shared_ptr<const BackendSnapshot> snapshot() const;
  /// The published snapshot's decoded-block cache, which every worker
  /// serving that snapshot shares.
  std::shared_ptr<const LabelCache> label_cache() const;

  // ---- mutation (any thread; writers are serialized) ----

  /// Arms the write path. `source` must be the index the currently
  /// published snapshot was frozen from (same element/document counts);
  /// the pool deep-copies it into a private maintenance mirror — the
  /// Sec-6 id-allocation authority and rebuild source. The published
  /// delta must be empty (it always is right after construction, Swap,
  /// or a completed rebuild). InvalidArgument on a size mismatch.
  Status EnableMutations(const HopiIndex& source);
  bool mutations_enabled() const;

  /// Validates and applies one op: maintenance mirror first (Sec 6),
  /// then publishes {unchanged snapshot, delta + op}. Serialized with
  /// other writers; probes are never blocked. Typed failures:
  /// FailedPrecondition (mutations not enabled), InvalidArgument /
  /// NotFound (validation, delta untouched), ResourceExhausted (delta
  /// at max_delta_ops — retry after a rebuild).
  Result<MutationReceipt> ApplyMutation(const Mutation& mutation);

  /// Folds the delta into a fresh snapshot and publishes it together
  /// with the truncated delta (one atomic publication). kAbsorb
  /// freezes the maintenance index under the write lock; kFull runs
  /// BuildIndex on a collection copy outside the lock and replays ops
  /// that landed meanwhile. Rebuilds are serialized with each other;
  /// FailedPrecondition when mutations are not enabled.
  Result<RebuildReceipt> RebuildNow(RebuildMode mode);

  // ---- serving-state introspection (any thread) ----

  /// The published delta (never null; empty before the first mutation).
  std::shared_ptr<const DeltaState> delta() const;
  /// Elements / documents in base ∪ delta — the id space a request may
  /// probe (the wire layer validates against these).
  size_t ServingElementCount() const;
  size_t ServingDocumentCount() const;
  /// DegradationFactor() of the maintenance index; 1.0 when mutations
  /// are disabled. What the RebuildDaemon's kFull trigger watches.
  double MaintenanceDegradation() const;

  // ---- observability (any thread) ----

  PoolStats Stats() const;

  /// Counters of the label cache the workers share, as a one-entry
  /// vector: the cache of the published snapshot. Safe while the pool
  /// serves (cache stats are atomic).
  std::vector<LabelCache::Stats> WorkerCacheStats() const;

  /// Stops intake, serves everything already queued, joins the
  /// workers (a worker on loan to ServeBatch exits once the loan ends).
  /// Idempotent; also run by the destructor.
  void Shutdown();

 private:
  /// One immutable published serving state. Snapshot and delta travel
  /// in a single shared_ptr so a reader can never observe the new
  /// snapshot with the old (pre-truncation) delta or vice versa.
  struct ServingState {
    std::shared_ptr<const BackendSnapshot> snapshot;
    std::shared_ptr<const DeltaState> delta;
    /// Decoded blocks of `snapshot`, shared by every worker serving it
    /// (never null; the pointer is fixed, the cache itself is safe for
    /// concurrent use). Carried over while the snapshot stays the same,
    /// emptied when another snapshot is published.
    std::shared_ptr<LabelCache> cache;
  };

  struct WorkerState;
  /// One accepted request: serves itself on the worker that runs it
  /// and answers through its callback.
  using Job = std::function<void(WorkerState&)>;

  /// Everything one serving thread owns. Only the worker's own thread
  /// rebinds `state`/`engine`; a ServeBatch caller that borrowed it
  /// serves through them, and BorrowableLocked reads `state` while the
  /// worker is idle. No other thread touches them.
  struct WorkerState {
    size_t index = 0;
    std::thread thread;
    /// The hand-off slot, guarded by mu_: a submitter that takes this
    /// worker off idle_ puts the job here, then signals `wake`, which
    /// only this worker waits on.
    Job handoff;
    /// Guarded by mu_: a ServeBatch caller is serving through this
    /// worker, whose thread must not exit until the loan ends.
    bool on_loan = false;
    std::condition_variable wake;
    std::shared_ptr<const ServingState> state;
    std::optional<QueryEngine> engine;
    // Served-work counters (relaxed atomics; see PoolStats).
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> path_queries{0};
    std::atomic<uint64_t> probes{0};
    std::atomic<uint64_t> unique_probes{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> labels_borrowed{0};
    std::atomic<uint64_t> blocks_decoded{0};
    std::atomic<uint64_t> backend_probes{0};
    std::atomic<uint64_t> rebinds{0};
  };

  /// The pool-private Sec-6 mirror: a collection copy plus a HopiIndex
  /// maintained op-by-op. Guarded by mutation_mu_ (kFull's background
  /// build works on a further copy, outside the lock).
  struct MaintenanceState {
    std::unique_ptr<collection::Collection> collection;
    std::optional<HopiIndex> index;
  };

  void WorkerLoop(WorkerState& ws);
  /// Rebinds worker `ws` to the published serving state if it changed.
  void BindCurrentState(WorkerState* ws);
  /// Serve one request on worker `ws`, on the state it is bound to, and
  /// count it in its stats.
  PoolBatchResponse Serve(WorkerState& ws, const BatchRequest& request);
  PoolPathResponse Serve(WorkerState& ws, const PathQueryRequest& request);
  /// Serves `request` on `ws` and hands the answer to `on_done`,
  /// rebinding `ws` first when `rebind` (a worker thread; a borrower
  /// serves on the state the worker is already bound to). The pool's
  /// one exception barrier: a throw from binding or serving becomes an
  /// Internal error Result, and one from `on_done` is swallowed.
  template <typename Request, typename Response>
  void ServeAndDeliver(WorkerState& ws, bool rebind, const Request& request,
                       const std::function<void(Result<Response>)>& on_done);
  /// Wraps a request and its callback into a Job.
  template <typename Request, typename Response>
  Job MakeJob(Request request, std::function<void(Result<Response>)> on_done);
  /// Caller holds mu_. The admission gate every submission passes
  /// first: FailedPrecondition after Shutdown, ResourceExhausted (and a
  /// shed counted) over the high watermark.
  Status AdmitLocked(const char* what);
  /// Caller holds mu_ and found no worker idle: a bounded push onto the
  /// queue.
  Status QueueLocked(Job job, const char* what);
  /// Shared submission tail: admission gate, then hand-off to an idle
  /// worker or a bounded push onto the queue.
  Status Enqueue(Job job, const char* what);
  /// Caller holds mu_ and has just taken `ws` off idle_. Whether it may
  /// borrow `ws`: the worker is bound to the published state, and that
  /// state is label joins in memory (a memory_resident() snapshot, an
  /// empty delta).
  bool BorrowableLocked(const WorkerState& ws) const;
  /// Ends a ServeBatch loan: the worker takes the job at the queue's
  /// head, or goes back on the idle list.
  void EndLoan(WorkerState* ws);

  /// The published serving state (never null).
  std::shared_ptr<const ServingState> State() const;
  /// An empty cache for `snapshot`: label_cache_bytes × workers
  /// (saturating), or zero bytes when the snapshot is memory-resident.
  std::shared_ptr<LabelCache> MakeCache(const BackendSnapshot& snapshot) const;
  /// Publishes {snapshot, delta} with the published cache when the
  /// snapshot object is the published one, else with a fresh cache,
  /// then empties the outgoing one; bumps swaps_ when `count_swap`.
  /// Caller holds mutation_mu_, so no other publication comes between
  /// the read and the write.
  void Publish(std::shared_ptr<const BackendSnapshot> snapshot,
               std::shared_ptr<const DeltaState> delta, bool count_swap);
  /// Replays one validated op onto the maintenance mirror (Sec 6).
  /// Caller holds mutation_mu_.
  Status ApplyToMaintenance(MaintenanceState* maintenance,
                            const Mutation& mutation);

  EnginePoolOptions options_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<WorkerState>> workers_;

  /// Guards the work queue, the idle list, every hand-off slot, closed_
  /// and sheds_. Invariant: a worker is listed in idle_ only while the
  /// queue is empty, so a submission either hands off or queues.
  mutable std::mutex mu_;
  std::deque<Job> queue_;
  size_t queue_limit_ = 0;  // queue_capacity × workers; 0 = unbounded
  /// Workers waiting on their slot, most recently idle last.
  std::vector<WorkerState*> idle_;
  bool closed_ = false;
  uint64_t sheds_ = 0;

  /// Taken alone, or inside mu_ (BorrowableLocked); never the reverse.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ServingState> published_;  // guarded by snapshot_mu_

  /// Serializes writers (ApplyMutation, rebuild critical sections,
  /// Swap, EnableMutations) and guards maintenance_. Lock order:
  /// mutation_mu_ before snapshot_mu_; never the reverse.
  mutable std::mutex mutation_mu_;
  std::unique_ptr<MaintenanceState> maintenance_;  // null = mutations off
  bool maintenance_with_distance_ = false;
  /// Serializes whole rebuilds (kFull spends most of its time outside
  /// mutation_mu_; this keeps two rebuilds from racing each other).
  std::mutex rebuild_mu_;
  OverlayCounters overlay_counters_;

  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> mutation_failures_{0};
  std::atomic<uint64_t> rebuilds_{0};
  std::atomic<uint64_t> last_rebuild_pause_us_{0};

  std::atomic<uint64_t> swaps_{0};
  std::once_flag shutdown_once_;
};

/// Background rebuild policy: a thread that polls the pool and calls
/// RebuildNow when the delta grows past `max_delta_ops` (kAbsorb — fold
/// the buffered ops into a cheap frozen copy) or the maintenance index
/// degrades past `degradation_threshold` (kFull — re-run the build
/// pipeline and reset label density). Stop() (also the destructor)
/// joins the thread promptly.
class RebuildDaemon {
 public:
  struct Options {
    std::chrono::milliseconds poll_interval{50};
    /// Delta size that triggers a kAbsorb rebuild. 0 disables.
    size_t max_delta_ops = 1024;
    /// DegradationFactor() that triggers a kFull rebuild (the paper's
    /// rebuild-at-2x rule of thumb). 0 disables.
    double degradation_threshold = 2.0;
  };

  struct Stats {
    uint64_t polls = 0;
    uint64_t rebuilds = 0;       ///< Successful rebuilds, either mode.
    uint64_t full_rebuilds = 0;  ///< The kFull subset.
    uint64_t errors = 0;         ///< RebuildNow failures.
    uint64_t last_pause_us = 0;  ///< Writer pause of the last rebuild.
  };

  explicit RebuildDaemon(EnginePool* pool);  // default Options
  RebuildDaemon(EnginePool* pool, Options options);
  ~RebuildDaemon();
  RebuildDaemon(const RebuildDaemon&) = delete;
  RebuildDaemon& operator=(const RebuildDaemon&) = delete;

  /// Wakes the daemon for an immediate policy check (tests, admin).
  void Poke();
  void Stop();
  Stats stats() const;

 private:
  void Loop();

  EnginePool* pool_;
  Options options_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool poked_ = false;
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> rebuilds_{0};
  std::atomic<uint64_t> full_rebuilds_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> last_pause_us_{0};
  std::thread thread_;
};

}  // namespace hopi::engine
