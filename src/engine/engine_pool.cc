#include "engine/engine_pool.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "hopi/build.h"
#include "util/timer.h"

namespace hopi::engine {
namespace {

/// Best-effort message for the in-flight exception (what() when it is
/// a std::exception).
std::string DescribeCurrentException() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

/// The callback behind the future forms: it fulfils `promise`, and a
/// failed Result becomes the future's exception. The closure shares the
/// promise, so the promise outlives its fulfilment even when the waiter
/// returns the moment the future is ready.
template <typename Response>
std::function<void(Result<Response>)> Fulfil(
    std::shared_ptr<std::promise<Response>> promise) {
  return [promise = std::move(promise)](Result<Response> result) {
    if (result.ok()) {
      promise->set_value(std::move(result).value());
    } else {
      promise->set_exception(std::make_exception_ptr(
          std::runtime_error(result.status().ToString())));
    }
  };
}

}  // namespace

AdmissionController::AdmissionController(size_t high, size_t low)
    : high_(high),
      low_(high == 0 ? 0 : std::min(low == 0 ? high / 2 : low, high - 1)) {}

bool AdmissionController::Admit(size_t load) {
  if (high_ == 0) return true;
  if (shedding_.load(std::memory_order_relaxed)) {
    if (load > low_) return false;
    shedding_.store(false, std::memory_order_relaxed);
    return true;
  }
  if (load >= high_) {
    shedding_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

EnginePool::EnginePool(std::shared_ptr<const BackendSnapshot> snapshot,
                       EnginePoolOptions options)
    : options_(std::move(options)),
      admission_(options_.shed_high_watermark, options_.shed_low_watermark) {
  assert(snapshot && "EnginePool requires a non-null initial snapshot");
  auto state = std::make_shared<ServingState>();
  state->delta = DeltaState::MakeEmpty(snapshot->collection().NumElements(),
                                       snapshot->collection().NumDocuments(),
                                       /*generation=*/0);
  state->snapshot = std::move(snapshot);
  published_ = std::move(state);
  size_t n = options_.num_threads != 0
                 ? options_.num_threads
                 : std::max<size_t>(1, std::thread::hardware_concurrency());
  queue_limit_ = options_.queue_capacity * n;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<WorkerState>());
    workers_[i]->index = i;
    // Every worker starts idle, so the first submissions hand off even
    // before the threads reach their wait.
    idle_.push_back(workers_[i].get());
  }
  // Spawn after every WorkerState exists so a fast worker never races
  // the vector growing.
  for (auto& ws : workers_) {
    ws->thread = std::thread([this, worker = ws.get()] { WorkerLoop(*worker); });
  }
}

EnginePool::~EnginePool() { Shutdown(); }

void EnginePool::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    // Busy workers empty the queue first; idle ones wake and exit.
    for (auto& ws : workers_) ws->wake.notify_one();
    for (auto& ws : workers_) {
      if (ws->thread.joinable()) ws->thread.join();
    }
  });
}

Status EnginePool::AdmitLocked(const char* what) {
  if (closed_) {
    return Status::FailedPrecondition(std::string(what) +
                                      " on a shut-down EnginePool");
  }
  size_t executing = workers_.size() - idle_.size();
  if (!admission_.Admit(queue_.size() + executing)) {
    ++sheds_;
    return Status::ResourceExhausted(
        std::string(what) + " shed: pending load over the high watermark");
  }
  return Status::OK();
}

Status EnginePool::QueueLocked(Job job, const char* what) {
  if (queue_limit_ != 0 && queue_.size() >= queue_limit_) {
    ++sheds_;
    return Status::ResourceExhausted(std::string(what) +
                                     " shed: work queue at capacity");
  }
  queue_.push_back(std::move(job));
  return Status::OK();
}

Status EnginePool::Enqueue(Job job, const char* what) {
  WorkerState* worker = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    HOPI_RETURN_NOT_OK(AdmitLocked(what));
    if (idle_.empty()) return QueueLocked(std::move(job), what);
    worker = idle_.back();
    idle_.pop_back();
    worker->handoff = std::move(job);
  }
  worker->wake.notify_one();
  return Status::OK();
}

void EnginePool::EndLoan(WorkerState* ws) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ws->on_loan = false;
    if (!queue_.empty()) {
      ws->handoff = std::move(queue_.front());
      queue_.pop_front();
    } else {
      idle_.push_back(ws);
      // A parked worker needs no signal, unless Shutdown came during
      // the loan: then it is waiting to exit.
      if (!closed_) return;
    }
  }
  ws->wake.notify_one();
}

template <typename Request, typename Response>
void EnginePool::ServeAndDeliver(
    WorkerState& ws, bool rebind, const Request& request,
    const std::function<void(Result<Response>)>& on_done) {
  // A throw (rebind allocation, backend fault, bad_alloc on a huge
  // batch) fails this one request instead of escaping the thread body
  // and terminating the process.
  auto serve = [&]() -> Result<Response> {
    try {
      if (rebind) BindCurrentState(&ws);
      return Serve(ws, request);
    } catch (...) {
      return Status::Internal("serving worker failed: " +
                              DescribeCurrentException());
    }
  };
  try {
    on_done(serve());
  } catch (...) {
    // Callbacks must not throw; swallowing here keeps the serving
    // thread alive (contract documented on SubmitBatch).
  }
}

template <typename Request, typename Response>
EnginePool::Job EnginePool::MakeJob(
    Request request, std::function<void(Result<Response>)> on_done) {
  assert(on_done && "EnginePool submissions require a callback");
  return [this, request = std::move(request),
          on_done = std::move(on_done)](WorkerState& ws) {
    ServeAndDeliver(ws, /*rebind=*/true, request, on_done);
  };
}

Status EnginePool::SubmitBatch(
    BatchRequest request,
    std::function<void(Result<PoolBatchResponse>)> on_done) {
  return Enqueue(MakeJob(std::move(request), std::move(on_done)),
                 "SubmitBatch");
}

Status EnginePool::ServeBatch(
    BatchRequest request,
    std::function<void(Result<PoolBatchResponse>)> on_done) {
  if (request.pairs.size() > kMaxInlinePairs) {
    return SubmitBatch(std::move(request), std::move(on_done));
  }
  assert(on_done && "EnginePool submissions require a callback");
  WorkerState* ws = nullptr;
  bool borrowed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    HOPI_RETURN_NOT_OK(AdmitLocked("ServeBatch"));
    if (idle_.empty()) {
      return QueueLocked(MakeJob(std::move(request), std::move(on_done)),
                         "ServeBatch");
    }
    ws = idle_.back();
    idle_.pop_back();
    borrowed = BorrowableLocked(*ws);
    if (borrowed) {
      ws->on_loan = true;
    } else {
      // The worker's own thread binds it (building an engine, perhaps
      // releasing the last reference to an old snapshot) and serves.
      ws->handoff = MakeJob(std::move(request), std::move(on_done));
    }
  }
  if (!borrowed) {
    ws->wake.notify_one();
    return Status::OK();
  }
  ServeAndDeliver(*ws, /*rebind=*/false, request, on_done);
  EndLoan(ws);
  return Status::OK();
}

bool EnginePool::BorrowableLocked(const WorkerState& ws) const {
  // Compared by address: the borrower takes no reference of its own, so
  // it can never be the one that releases a state last.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return ws.state == published_ && ws.state->snapshot->memory_resident() &&
         ws.state->delta->empty();
}

Status EnginePool::SubmitQuery(
    PathQueryRequest request,
    std::function<void(Result<PoolPathResponse>)> on_done) {
  return Enqueue(MakeJob(std::move(request), std::move(on_done)),
                 "SubmitQuery");
}

Result<std::future<PoolBatchResponse>> EnginePool::SubmitBatch(
    BatchRequest request) {
  auto promise = std::make_shared<std::promise<PoolBatchResponse>>();
  std::future<PoolBatchResponse> future = promise->get_future();
  HOPI_RETURN_NOT_OK(SubmitBatch(std::move(request), Fulfil(promise)));
  return future;
}

Result<std::future<PoolPathResponse>> EnginePool::SubmitQuery(
    PathQueryRequest request) {
  auto promise = std::make_shared<std::promise<PoolPathResponse>>();
  std::future<PoolPathResponse> future = promise->get_future();
  HOPI_RETURN_NOT_OK(SubmitQuery(std::move(request), Fulfil(promise)));
  return future;
}

Result<PoolBatchResponse> EnginePool::Batch(BatchRequest request) {
  HOPI_ASSIGN_OR_RETURN(std::future<PoolBatchResponse> future,
                        SubmitBatch(std::move(request)));
  return future.get();
}

Result<PoolPathResponse> EnginePool::Query(PathQueryRequest request) {
  HOPI_ASSIGN_OR_RETURN(std::future<PoolPathResponse> future,
                        SubmitQuery(std::move(request)));
  return future.get();
}

std::shared_ptr<const EnginePool::ServingState> EnginePool::State() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return published_;
}

void EnginePool::Publish(std::shared_ptr<const BackendSnapshot> snapshot,
                         std::shared_ptr<const DeltaState> delta,
                         bool count_swap) {
  auto state = std::make_shared<ServingState>();
  state->snapshot = std::move(snapshot);
  state->delta = std::move(delta);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    published_ = std::move(state);
  }
  if (count_swap) swaps_.fetch_add(1, std::memory_order_relaxed);
}

void EnginePool::Swap(std::shared_ptr<const BackendSnapshot> snapshot) {
  assert(snapshot && "Swap requires a non-null snapshot");
  std::lock_guard<std::mutex> lock(mutation_mu_);
  // An externally built snapshot invalidates the maintenance mirror, so
  // Swap turns the write path off (header comment documents this; call
  // EnableMutations again to re-arm). The global generation survives.
  maintenance_.reset();
  uint64_t generation = State()->delta->generation();
  auto delta = DeltaState::MakeEmpty(snapshot->collection().NumElements(),
                                     snapshot->collection().NumDocuments(),
                                     generation);
  Publish(std::move(snapshot), std::move(delta), /*count_swap=*/true);
}

std::shared_ptr<const BackendSnapshot> EnginePool::snapshot() const {
  return State()->snapshot;
}

std::shared_ptr<const DeltaState> EnginePool::delta() const {
  return State()->delta;
}

size_t EnginePool::ServingElementCount() const {
  return State()->delta->num_elements();
}

size_t EnginePool::ServingDocumentCount() const {
  return State()->delta->num_documents();
}

double EnginePool::MaintenanceDegradation() const {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  return maintenance_ ? maintenance_->index->DegradationFactor() : 1.0;
}

bool EnginePool::mutations_enabled() const {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  return maintenance_ != nullptr;
}

Status EnginePool::EnableMutations(const HopiIndex& source) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  std::shared_ptr<const ServingState> state = State();
  if (!state->delta->empty()) {
    return Status::FailedPrecondition(
        "EnableMutations with a non-empty published delta");
  }
  const collection::Collection& base = state->snapshot->collection();
  if (source.collection() == nullptr ||
      source.collection()->NumElements() != base.NumElements() ||
      source.collection()->NumDocuments() != base.NumDocuments()) {
    return Status::InvalidArgument(
        "EnableMutations: source index does not match the published "
        "snapshot's collection");
  }
  auto maintenance = std::make_unique<MaintenanceState>();
  maintenance->collection =
      std::make_unique<collection::Collection>(*source.collection());
  maintenance->index.emplace(maintenance->collection.get(),
                             twohop::TwoHopCover(source.cover()),
                             source.with_distance());
  maintenance_ = std::move(maintenance);
  maintenance_with_distance_ = source.with_distance();
  return Status::OK();
}

Status EnginePool::ApplyToMaintenance(MaintenanceState* maintenance,
                                      const Mutation& mutation) {
  switch (mutation.kind) {
    case Mutation::Kind::kInsertLink:
      return maintenance->index->InsertLink(mutation.source, mutation.target);
    case Mutation::Kind::kDeleteLink:
      return maintenance->index->DeleteLink(mutation.source, mutation.target);
    case Mutation::Kind::kInsertDocument: {
      // Same replay as ApplyMutationToCollection, then the Sec-6
      // insert-document merge; the sequential id allocation here is
      // what the delta's id pre-computation mirrors.
      collection::DocId doc =
          maintenance->collection->AddDocument(mutation.doc_name);
      std::vector<NodeId> ids;
      ids.reserve(mutation.elements.size());
      for (const NewElementSpec& spec : mutation.elements) {
        NodeId parent =
            spec.parent.has_value() ? ids[*spec.parent] : kInvalidNode;
        ids.push_back(
            maintenance->collection->AddElement(doc, spec.tag, parent));
      }
      return maintenance->index->InsertDocument(doc);
    }
    case Mutation::Kind::kDeleteDocument:
      return maintenance->index->DeleteDocument(mutation.doc);
  }
  return Status::Internal("unknown mutation kind");
}

Result<MutationReceipt> EnginePool::ApplyMutation(const Mutation& mutation) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  if (!maintenance_) {
    return Status::FailedPrecondition(
        "mutations not enabled on this EnginePool (EnableMutations)");
  }
  std::shared_ptr<const ServingState> state = State();
  if (options_.max_delta_ops != 0 &&
      state->delta->num_ops() >= options_.max_delta_ops) {
    return Status::ResourceExhausted(
        "delta at capacity (max_delta_ops); retry after the next rebuild");
  }
  // Validate against base ∪ delta FIRST: a rejected op must leave both
  // the delta and the maintenance mirror untouched.
  Result<std::shared_ptr<const DeltaState>> next =
      state->delta->Apply(mutation, state->snapshot->collection());
  if (!next.ok()) {
    mutation_failures_.fetch_add(1, std::memory_order_relaxed);
    return next.status();
  }
  // The delta's validation is intended to be exactly as strict as the
  // Sec-6 preconditions; a divergence here would desynchronize the
  // mirror, so surface it loudly and publish nothing.
  Status maintained = ApplyToMaintenance(maintenance_.get(), mutation);
  if (!maintained.ok()) {
    mutation_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal(
        "maintenance index rejected a delta-validated op: " +
        maintained.message());
  }
  std::shared_ptr<const DeltaState> delta = std::move(next).value();
  Publish(state->snapshot, delta, /*count_swap=*/false);
  mutations_.fetch_add(1, std::memory_order_relaxed);

  MutationReceipt receipt;
  receipt.generation = delta->generation();
  receipt.snapshot_version = state->snapshot->version();
  if (mutation.kind == Mutation::Kind::kInsertDocument) {
    receipt.doc = static_cast<collection::DocId>(delta->num_documents() - 1);
    receipt.first_element = static_cast<NodeId>(delta->num_elements() -
                                                mutation.elements.size());
    receipt.num_elements = static_cast<uint32_t>(mutation.elements.size());
  }
  return receipt;
}

Result<RebuildReceipt> EnginePool::RebuildNow(RebuildMode mode) {
  // One rebuild at a time; kFull spends its build outside mutation_mu_,
  // so writers keep landing ops while it runs.
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  RebuildReceipt receipt;
  receipt.mode = mode;

  if (mode == RebuildMode::kAbsorb) {
    Stopwatch pause;
    std::lock_guard<std::mutex> lock(mutation_mu_);
    if (!maintenance_) {
      return Status::FailedPrecondition("RebuildNow without EnableMutations");
    }
    std::shared_ptr<const ServingState> state = State();
    receipt.generation = state->delta->generation();
    receipt.absorbed_ops = state->delta->num_ops();
    if (state->delta->empty()) {
      receipt.snapshot_version = state->snapshot->version();
      return receipt;  // nothing buffered; no swap
    }
    // Freeze copies the maintenance collection + cover; the delta ops
    // are all <= generation, so the truncated delta is empty — but the
    // two are published as ONE state (the swap-truncate ordering rule).
    std::shared_ptr<const BackendSnapshot> snapshot =
        BackendSnapshot::Freeze(*maintenance_->index);
    std::shared_ptr<const DeltaState> delta = state->delta->RebaseAfter(
        receipt.generation, snapshot->collection().NumElements(),
        snapshot->collection().NumDocuments());
    Publish(snapshot, std::move(delta), /*count_swap=*/true);
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    receipt.snapshot_version = snapshot->version();
    receipt.writer_pause_us = static_cast<uint64_t>(pause.ElapsedMicros());
    last_rebuild_pause_us_.store(receipt.writer_pause_us,
                                 std::memory_order_relaxed);
    return receipt;
  }

  // kFull: copy under the lock, build outside it, catch up + publish
  // under the lock again.
  uint64_t built_through = 0;
  std::unique_ptr<collection::Collection> copy;
  uint64_t pause_us = 0;
  {
    Stopwatch pause;
    std::lock_guard<std::mutex> lock(mutation_mu_);
    if (!maintenance_) {
      return Status::FailedPrecondition("RebuildNow without EnableMutations");
    }
    built_through = State()->delta->generation();
    copy = std::make_unique<collection::Collection>(*maintenance_->collection);
    pause_us += static_cast<uint64_t>(pause.ElapsedMicros());
  }
  IndexBuildOptions build_options;
  build_options.with_distance = maintenance_with_distance_;
  Result<HopiIndex> built = BuildIndex(copy.get(), build_options);
  if (!built.ok()) return built.status();
  auto fresh = std::make_unique<MaintenanceState>();
  fresh->collection = std::move(copy);
  fresh->index.emplace(std::move(built).value());
  {
    Stopwatch pause;
    std::lock_guard<std::mutex> lock(mutation_mu_);
    if (!maintenance_) {
      return Status::FailedPrecondition(
          "mutations were disabled while the rebuild ran (Swap?)");
    }
    std::shared_ptr<const ServingState> state = State();
    // Ops that landed during the background build: replay them onto the
    // fresh index (Sec 6) so it is current through `generation`.
    for (const Mutation& op : state->delta->OpsAfter(built_through)) {
      Status replayed = ApplyToMaintenance(fresh.get(), op);
      if (!replayed.ok()) {
        return Status::Internal("rebuild catch-up replay failed: " +
                                replayed.message());
      }
    }
    uint64_t generation = state->delta->generation();
    std::shared_ptr<const BackendSnapshot> snapshot =
        BackendSnapshot::Freeze(*fresh->index);
    std::shared_ptr<const DeltaState> delta = state->delta->RebaseAfter(
        generation, snapshot->collection().NumElements(),
        snapshot->collection().NumDocuments());
    Publish(snapshot, std::move(delta), /*count_swap=*/true);
    maintenance_ = std::move(fresh);
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    receipt.generation = generation;
    receipt.absorbed_ops = state->delta->num_ops();
    receipt.snapshot_version = snapshot->version();
    pause_us += static_cast<uint64_t>(pause.ElapsedMicros());
  }
  receipt.writer_pause_us = pause_us;
  last_rebuild_pause_us_.store(pause_us, std::memory_order_relaxed);
  return receipt;
}

void EnginePool::BindCurrentState(WorkerState* ws) {
  std::shared_ptr<const ServingState> current = State();
  if (ws->state != current) {
    QueryEngineOptions engine_options;
    engine_options.label_cache_bytes = options_.label_cache_bytes;
    engine_options.similarity = options_.similarity;
    engine_options.shared_tags = current->snapshot->tags();
    std::unique_ptr<ReachabilityBackend> backend =
        current->snapshot->MakeBackend();
    if (!current->delta->empty()) {
      // Non-empty delta: serve through the overlay. The engine still
      // sees the BASE collection — tag/path features cover base
      // elements until the next rebuild folds the delta in; pure
      // reachability sees base ∪ delta.
      DeltaOverlayOptions overlay_options;
      overlay_options.hop_budget = options_.overlay_hop_budget;
      backend = std::make_unique<DeltaOverlayBackend>(
          std::move(backend), &current->snapshot->collection(),
          current->delta, overlay_options, &overlay_counters_);
    }
    // Pin the rebind so a concurrent WorkerCacheStats() never reads a
    // half-destroyed engine. The lock is uncontended on the hot path
    // (taken here only when the serving state actually changed).
    std::lock_guard<std::mutex> lock(ws->rebind_mu);
    ws->engine.emplace(current->snapshot->collection(), std::move(backend),
                       std::move(engine_options));
    ws->state = std::move(current);
    ws->rebinds.fetch_add(1, std::memory_order_relaxed);
  }
}

PoolBatchResponse EnginePool::Serve(WorkerState& ws,
                                     const BatchRequest& request) {
  const ServingState& state = *ws.state;
  BatchResponse response = ws.engine->Batch(request);
  const BatchStats& stats = response.stats;
  ws.probes.fetch_add(stats.probes, std::memory_order_relaxed);
  ws.unique_probes.fetch_add(stats.unique_probes, std::memory_order_relaxed);
  ws.cache_hits.fetch_add(stats.cache_hits, std::memory_order_relaxed);
  ws.cache_misses.fetch_add(stats.cache_misses, std::memory_order_relaxed);
  ws.labels_borrowed.fetch_add(stats.labels_borrowed,
                               std::memory_order_relaxed);
  ws.blocks_decoded.fetch_add(stats.blocks_decoded, std::memory_order_relaxed);
  ws.backend_probes.fetch_add(stats.backend_probes, std::memory_order_relaxed);
  ws.batches.fetch_add(1, std::memory_order_relaxed);
  return {std::move(response), state.snapshot->version(),
          state.delta->generation(), ws.index};
}

PoolPathResponse EnginePool::Serve(WorkerState& ws,
                                   const PathQueryRequest& request) {
  const ServingState& state = *ws.state;
  Result<PathQueryResponse> result = ws.engine->Query(request);
  ws.path_queries.fetch_add(1, std::memory_order_relaxed);
  return {std::move(result), state.snapshot->version(),
          state.delta->generation(), ws.index};
}

void EnginePool::WorkerLoop(WorkerState& ws) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Listed in idle_ (by the constructor or at the end of the last
    // turn) or on loan to a ServeBatch caller: only a hand-off or
    // Shutdown signals this worker, and it never exits mid-loan.
    ws.wake.wait(lock, [&] {
      return ws.handoff != nullptr || (closed_ && !ws.on_loan);
    });
    if (ws.handoff == nullptr) break;  // closed, and the queue is empty
    Job job = std::exchange(ws.handoff, nullptr);
    while (job != nullptr) {
      lock.unlock();
      job(ws);
      job = nullptr;  // the request and callback die outside the lock
      lock.lock();
      if (!queue_.empty()) {
        job = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    idle_.push_back(&ws);
  }
  lock.unlock();
  // Drop the worker's snapshot reference promptly on exit so Shutdown
  // is also a release of the served index.
  std::lock_guard<std::mutex> rebind_lock(ws.rebind_mu);
  ws.engine.reset();
  ws.state.reset();
}

PoolStats EnginePool::Stats() const {
  PoolStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queued = queue_.size();
    stats.executing = workers_.size() - idle_.size();
    stats.sheds = sheds_;
  }
  for (const auto& ws : workers_) {
    stats.batches += ws->batches.load(std::memory_order_relaxed);
    stats.path_queries += ws->path_queries.load(std::memory_order_relaxed);
    stats.probes += ws->probes.load(std::memory_order_relaxed);
    stats.unique_probes += ws->unique_probes.load(std::memory_order_relaxed);
    stats.cache_hits += ws->cache_hits.load(std::memory_order_relaxed);
    stats.cache_misses += ws->cache_misses.load(std::memory_order_relaxed);
    stats.labels_borrowed +=
        ws->labels_borrowed.load(std::memory_order_relaxed);
    stats.blocks_decoded +=
        ws->blocks_decoded.load(std::memory_order_relaxed);
    stats.backend_probes += ws->backend_probes.load(std::memory_order_relaxed);
    stats.rebinds += ws->rebinds.load(std::memory_order_relaxed);
  }
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  stats.mutations = mutations_.load(std::memory_order_relaxed);
  stats.mutation_failures =
      mutation_failures_.load(std::memory_order_relaxed);
  stats.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  stats.last_rebuild_pause_us =
      last_rebuild_pause_us_.load(std::memory_order_relaxed);
  stats.overlay_probes =
      overlay_counters_.probes.load(std::memory_order_relaxed);
  stats.overlay_base_hits =
      overlay_counters_.base_hits.load(std::memory_order_relaxed);
  stats.overlay_bfs_fallbacks =
      overlay_counters_.bfs_fallbacks.load(std::memory_order_relaxed);
  stats.overlay_budget_exhaustions =
      overlay_counters_.budget_exhaustions.load(std::memory_order_relaxed);
  std::shared_ptr<const ServingState> state = State();
  stats.snapshot_version = state->snapshot->version();
  stats.delta_ops = state->delta->num_ops();
  stats.delta_generation = state->delta->generation();
  stats.degradation = MaintenanceDegradation();
  stats.shedding = admission_.shedding();
  return stats;
}

std::vector<LabelCache::Stats> EnginePool::WorkerCacheStats() const {
  std::vector<LabelCache::Stats> per_worker;
  per_worker.reserve(workers_.size());
  for (const auto& ws : workers_) {
    std::lock_guard<std::mutex> lock(ws->rebind_mu);
    per_worker.push_back(ws->engine ? ws->engine->label_cache().StatsSnapshot()
                                    : LabelCache::Stats{});
  }
  return per_worker;
}

// ---------------------------------------------------------------------------
// RebuildDaemon
// ---------------------------------------------------------------------------

RebuildDaemon::RebuildDaemon(EnginePool* pool)
    : RebuildDaemon(pool, Options()) {}

RebuildDaemon::RebuildDaemon(EnginePool* pool, Options options)
    : pool_(pool), options_(options) {
  assert(pool_ != nullptr);
  thread_ = std::thread([this] { Loop(); });
}

RebuildDaemon::~RebuildDaemon() { Stop(); }

void RebuildDaemon::Poke() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    poked_ = true;
  }
  cv_.notify_all();
}

void RebuildDaemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

RebuildDaemon::Stats RebuildDaemon::stats() const {
  Stats s;
  s.polls = polls_.load(std::memory_order_relaxed);
  s.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  s.full_rebuilds = full_rebuilds_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.last_pause_us = last_pause_us_.load(std::memory_order_relaxed);
  return s;
}

void RebuildDaemon::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock, options_.poll_interval,
                 [&] { return stop_ || poked_; });
    if (stop_) return;
    poked_ = false;
    lock.unlock();
    polls_.fetch_add(1, std::memory_order_relaxed);
    // Policy: degradation is the stronger signal (only kFull resets
    // it); plain delta growth is absorbed cheaply.
    std::optional<RebuildMode> mode;
    if (options_.degradation_threshold > 0.0 &&
        pool_->MaintenanceDegradation() >= options_.degradation_threshold) {
      mode = RebuildMode::kFull;
    } else if (options_.max_delta_ops > 0 &&
               pool_->delta()->num_ops() >= options_.max_delta_ops) {
      mode = RebuildMode::kAbsorb;
    }
    if (mode.has_value()) {
      Result<RebuildReceipt> receipt = pool_->RebuildNow(*mode);
      if (receipt.ok()) {
        rebuilds_.fetch_add(1, std::memory_order_relaxed);
        if (*mode == RebuildMode::kFull) {
          full_rebuilds_.fetch_add(1, std::memory_order_relaxed);
        }
        last_pause_us_.store(receipt->writer_pause_us,
                             std::memory_order_relaxed);
      } else {
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    lock.lock();
  }
}

}  // namespace hopi::engine
