#include "engine/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <unordered_map>
#include <utility>

#include "engine/backend.h"
#include "query/tag_index.h"
#include "twohop/join_kernel.h"

namespace hopi::engine {

namespace {

/// Copies each node's row of one side (Lout when `out`) out of `cover`.
std::vector<std::vector<twohop::LabelEntry>> CopyRows(
    const twohop::TwoHopCover& cover, const std::vector<NodeId>& nodes,
    bool out) {
  std::vector<std::vector<twohop::LabelEntry>> rows;
  rows.reserve(nodes.size());
  for (NodeId u : nodes) {
    twohop::JoinView row = out ? cover.Out(u) : cover.In(u);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

/// Fetched rows of one side of one sub-request, unpacked once into the
/// packed columns and summaries the join kernels read.
class PackedRows {
 public:
  PackedRows() = default;
  explicit PackedRows(const std::vector<std::vector<twohop::LabelEntry>>& rows) {
    begin_.reserve(rows.size() + 1);
    begin_.push_back(0);
    for (const auto& row : rows) {
      for (twohop::LabelEntry e : row) {
        centers_.push_back(e.center);
        dists_.push_back(e.dist);
      }
      begin_.push_back(centers_.size());
    }
    summaries_.resize(rows.size(), twohop::LabelSummary::Empty());
    for (size_t r = 0; r < rows.size(); ++r) {
      summaries_[r].AddAscending(centers_.data() + begin_[r],
                                 begin_[r + 1] - begin_[r]);
    }
  }

  twohop::JoinView Row(size_t r) const {
    twohop::JoinView view;
    view.centers = centers_.data() + begin_[r];
    view.dists = dists_.data() + begin_[r];
    view.n = begin_[r + 1] - begin_[r];
    view.summary = summaries_[r];
    return view;
  }

 private:
  std::vector<uint32_t> centers_;
  std::vector<uint32_t> dists_;
  std::vector<size_t> begin_;
  std::vector<twohop::LabelSummary> summaries_;
};

}  // namespace

// ---------------------------------------------------------------------------
// PoolShardClient
// ---------------------------------------------------------------------------

PoolShardClient::PoolShardClient(std::string name,
                                 std::shared_ptr<const BackendSnapshot> snapshot,
                                 EnginePoolOptions options)
    : name_(std::move(name)),
      with_distance_(snapshot->MakeBackend()->with_distance()),
      published_{snapshot},
      pool_(std::move(snapshot), std::move(options)) {
  assert(published_.front().lock()->index() != nullptr &&
         "a shard serves an in-memory index");
}

uint64_t PoolShardClient::snapshot_version() const {
  return pool_.snapshot()->version();
}

Status PoolShardClient::SubmitBatch(
    ShardRequest request,
    std::function<void(Result<ShardBatchResult>)> on_done) {
  return pool_.SubmitBatch(
      std::move(request.batch),
      [this, out_rows = std::move(request.out_rows),
       in_rows = std::move(request.in_rows),
       cb = std::move(on_done)](Result<PoolBatchResponse> r) {
        if (!r.ok()) {
          cb(r.status());
          return;
        }
        ShardBatchResult result{std::move(r->batch), {}, {},
                                r->snapshot_version};
        if (!out_rows.empty() || !in_rows.empty()) {
          // This callback runs on the worker that answered the probes,
          // which still holds that snapshot: the rows come from it too.
          std::shared_ptr<const BackendSnapshot> snapshot =
              Published(r->snapshot_version);
          if (snapshot == nullptr) {
            cb(Status::Internal("shard '" + name_ +
                                "' lost the snapshot that served it"));
            return;
          }
          const twohop::TwoHopCover& cover = snapshot->index()->cover();
          result.out_rows = CopyRows(cover, out_rows, /*out=*/true);
          result.in_rows = CopyRows(cover, in_rows, /*out=*/false);
        }
        cb(std::move(result));
      });
}

std::vector<NodeId> PoolShardClient::Descendants(
    std::span<const NodeId> centers) const {
  // The local pins the snapshot for the duration of the call; a
  // concurrent Swap retires the old one only after it drops.
  std::shared_ptr<const BackendSnapshot> snapshot = pool_.snapshot();
  return snapshot->index()->indexed_cover().InHolders(centers);
}

std::vector<NodeId> PoolShardClient::Ancestors(
    std::span<const NodeId> centers) const {
  std::shared_ptr<const BackendSnapshot> snapshot = pool_.snapshot();
  return snapshot->index()->indexed_cover().OutHolders(centers);
}

Status PoolShardClient::Swap(std::shared_ptr<const BackendSnapshot> snapshot) {
  if (snapshot == nullptr || snapshot->index() == nullptr) {
    return Status::InvalidArgument(
        "PoolShardClient::Swap: a shard serves an in-memory index");
  }
  {
    // Recorded before the pool can serve from it.
    std::lock_guard<std::mutex> lock(published_mu_);
    std::erase_if(published_, [](const auto& weak) { return weak.expired(); });
    published_.push_back(snapshot);
  }
  pool_.Swap(std::move(snapshot));
  return Status::OK();
}

std::shared_ptr<const BackendSnapshot> PoolShardClient::Published(
    uint64_t version) const {
  std::lock_guard<std::mutex> lock(published_mu_);
  for (const auto& weak : published_) {
    std::shared_ptr<const BackendSnapshot> snapshot = weak.lock();
    if (snapshot != nullptr && snapshot->version() == version) return snapshot;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Merge state
// ---------------------------------------------------------------------------

/// One per-shard sub-request of a sharded batch, plus the maps that
/// deduplicate its row fetches.
struct ShardedEngine::SubBatch {
  size_t shard = 0;
  ShardRequest request;
  std::unordered_map<NodeId, size_t> out_row_of;
  std::unordered_map<NodeId, size_t> in_row_of;
  /// Engaged once the shard answered (or its submit was rejected).
  std::optional<Result<ShardBatchResult>> result;
};

/// One in-flight sharded batch: the routing plan plus the completion
/// rendezvous. `finalized` flips exactly once, under `mu`, won by the
/// last sub-request completion, the watchdog's deadline, or Shutdown —
/// whoever flips it runs Finalize.
struct ShardedEngine::MergeState {
  /// Per-request-pair routing decision.
  struct Plan {
    enum class Kind { kResolved, kDirect, kCross };
    Kind kind = Kind::kResolved;
    // kResolved: the answer was fixed at routing time (reflexive pair,
    // dead endpoint).
    bool reachable = false;
    std::optional<uint32_t> dist;
    // kDirect: pair `index` of sub-request `sub`.
    // kCross: Lout(u) is out row `index` of sub-request `sub`, Lin(v) is
    // in row `target_index` of sub-request `target_sub`.
    size_t sub = 0;
    size_t index = 0;
    size_t target_sub = 0;
    size_t target_index = 0;
  };

  std::mutex mu;
  std::atomic<bool> finalized{false};  // written under mu; read lock-free
  size_t pending = 0;                  // sub-requests not yet completed
  BatchRequest request;
  std::vector<Plan> pairs;
  std::vector<SubBatch> subs;
  std::function<void(ShardedBatchResponse)> on_done;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;
};

// ---------------------------------------------------------------------------
// ShardedBackend: the path-query adapter
// ---------------------------------------------------------------------------

/// ReachabilityBackend over the whole sharded engine: scalar probes run
/// one-pair sharded batches; Descendants(u) joins Lout(u) ∪ {u} against
/// every shard's Lin rows through the shards' backward indexes, and
/// Ancestors joins Lin(u) ∪ {u} against their Lout rows.
/// Degradation note: the path evaluator has no partial-result channel,
/// so probes that come back unresolved (deadline, failed shard) are
/// reported unreachable — path answers during a shard outage may
/// under-report matches, they never invent them.
class ShardedBackend : public ReachabilityBackend {
 public:
  explicit ShardedBackend(ShardedEngine* engine) : engine_(engine) {}

  std::string_view Name() const override { return "sharded"; }
  bool with_distance() const override { return engine_->with_distance(); }

  bool IsReachable(NodeId u, NodeId v) const override {
    return Probe(u, v, /*want_distance=*/false).first;
  }

  std::optional<uint32_t> Distance(NodeId u, NodeId v) const override {
    if (!engine_->with_distance()) {
      // Plain-backend contract: 0 for every connected pair.
      return IsReachable(u, v) ? std::optional<uint32_t>(0) : std::nullopt;
    }
    return Probe(u, v, /*want_distance=*/true).second;
  }

  std::vector<bool> TestConnections(
      std::span<const NodePair> pairs) const override {
    BatchRequest request;
    request.pairs.assign(pairs.begin(), pairs.end());
    Result<ShardedBatchResponse> r = engine_->Batch(std::move(request));
    if (!r.ok()) return std::vector<bool>(pairs.size(), false);
    std::vector<bool> out(pairs.size(), false);
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (r->resolved[i]) out[i] = r->batch.reachable[i];
    }
    return out;
  }

  std::vector<NodeId> Descendants(NodeId u) const override {
    return Expand(u, /*down=*/true);
  }
  std::vector<NodeId> Ancestors(NodeId u) const override {
    return Expand(u, /*down=*/false);
  }

 private:
  std::pair<bool, std::optional<uint32_t>> Probe(NodeId u, NodeId v,
                                                 bool want_distance) const {
    BatchRequest request;
    request.pairs.emplace_back(u, v);
    request.want_distances = want_distance;
    Result<ShardedBatchResponse> r = engine_->Batch(std::move(request));
    if (!r.ok() || !r->resolved[0]) return {false, std::nullopt};
    bool reachable = r->batch.reachable[0];
    std::optional<uint32_t> dist;
    if (want_distance && reachable) dist = r->batch.distances[0];
    return {reachable, dist};
  }

  std::vector<NodeId> Expand(NodeId u, bool down) const {
    if (engine_->plan().ShardOfElement(u) == kUnassignedShard) return {};
    // A descendant d of u is a center of Lout(u), or holds u or one of
    // those centers in Lin(d) (Sec 3.4); ancestors the other way round.
    std::vector<NodeId> centers{u};
    for (twohop::LabelEntry e : engine_->FetchRow(u, /*out=*/down)) {
      centers.push_back(e.center);
    }
    std::vector<NodeId> out(centers.begin() + 1, centers.end());
    for (size_t s = 0; s < engine_->num_shards(); ++s) {
      const ShardClient& shard = engine_->client(s);
      std::vector<NodeId> local =
          down ? shard.Descendants(centers) : shard.Ancestors(centers);
      out.insert(out.end(), local.begin(), local.end());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    // Strict axis: a cycle may lead back to u itself.
    out.erase(std::remove(out.begin(), out.end(), u), out.end());
    return out;
  }

  ShardedEngine* engine_;
};

// ---------------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------------

namespace {

std::vector<std::unique_ptr<ShardClient>> MakePoolClients(
    const collection::Collection& collection, const ShardPlan& plan,
    const ShardedEngineOptions& options) {
  // One tag index shared by every shard snapshot (they all serve the
  // same collection object).
  auto tags = std::make_shared<const query::TagIndex>(collection);
  EnginePoolOptions pool_options;
  pool_options.num_threads = options.threads_per_shard;
  pool_options.queue_capacity = options.queue_capacity;
  std::vector<std::unique_ptr<ShardClient>> clients;
  clients.reserve(plan.num_shards);
  for (size_t s = 0; s < plan.num_shards; ++s) {
    clients.push_back(std::make_unique<PoolShardClient>(
        "shard-" + std::to_string(s),
        BackendSnapshot::OfIndex(plan.indexes[s], tags), pool_options));
  }
  return clients;
}

}  // namespace

ShardedEngine::ShardedEngine(const collection::Collection* collection,
                             const ShardPlan* plan,
                             ShardedEngineOptions options)
    : ShardedEngine(collection, plan,
                    MakePoolClients(*collection, *plan, options), options) {}

ShardedEngine::ShardedEngine(const collection::Collection* collection,
                             const ShardPlan* plan,
                             std::vector<std::unique_ptr<ShardClient>> clients,
                             ShardedEngineOptions options)
    : collection_(collection),
      plan_(plan),
      options_(options),
      clients_(std::move(clients)),
      per_shard_probes_(plan->num_shards) {
  assert(clients_.size() == plan_->num_shards &&
         "one ShardClient per plan shard");
  with_distance_ = true;
  for (const auto& client : clients_) {
    with_distance_ = with_distance_ && client->with_distance();
  }
  path_engine_ = std::make_unique<QueryEngine>(
      *collection_, std::make_unique<ShardedBackend>(this));
  watchdog_ = std::thread(&ShardedEngine::WatchdogLoop, this);
  path_worker_ = std::thread(&ShardedEngine::PathWorkerLoop, this);
}

ShardedEngine::~ShardedEngine() { Shutdown(); }

Status ShardedEngine::PlanBatch(const BatchRequest& request,
                                MergeState* state) {
  using Plan = MergeState::Plan;
  const size_t n = clients_.size();
  // One sub-request per consulted shard: its direct pairs and the rows
  // its cross pairs need, each row fetched once.
  constexpr size_t kNoSub = SIZE_MAX;
  std::vector<size_t> sub_of(n, kNoSub);
  auto sub_for = [&](size_t shard) {
    if (sub_of[shard] == kNoSub) {
      sub_of[shard] = state->subs.size();
      SubBatch sub;
      sub.shard = shard;
      sub.request.batch.want_distances = request.want_distances;
      state->subs.push_back(std::move(sub));
    }
    return sub_of[shard];
  };
  auto add_row = [](SubBatch* sub, NodeId u, bool out) {
    auto& row_of = out ? sub->out_row_of : sub->in_row_of;
    auto& rows = out ? sub->request.out_rows : sub->request.in_rows;
    auto [it, inserted] = row_of.try_emplace(u, rows.size());
    if (inserted) rows.push_back(u);
    return it->second;
  };

  std::vector<uint64_t> shard_probes(n, 0);
  uint64_t direct = 0, cross = 0;
  state->pairs.reserve(request.pairs.size());
  for (const auto& [u, v] : request.pairs) {
    Plan plan;
    if (u == v) {
      // Reflexive — true on every backend, no shard consulted.
      plan.kind = Plan::Kind::kResolved;
      plan.reachable = true;
      plan.dist = 0;
      state->pairs.push_back(plan);
      continue;
    }
    uint32_t su = plan_->ShardOfElement(u);
    uint32_t sv = plan_->ShardOfElement(v);
    if (su == kUnassignedShard || sv == kUnassignedShard) {
      // Dead-document elements have no edges and empty labels.
      plan.kind = Plan::Kind::kResolved;
      state->pairs.push_back(plan);
      continue;
    }
    if (su == sv) {
      plan.kind = Plan::Kind::kDirect;
      plan.sub = sub_for(su);
      BatchRequest& batch = state->subs[plan.sub].request.batch;
      plan.index = batch.pairs.size();
      batch.pairs.emplace_back(u, v);
      ++shard_probes[su];
      ++direct;
    } else {
      plan.kind = Plan::Kind::kCross;
      plan.sub = sub_for(su);
      plan.target_sub = sub_for(sv);
      plan.index = add_row(&state->subs[plan.sub], u, /*out=*/true);
      plan.target_index =
          add_row(&state->subs[plan.target_sub], v, /*out=*/false);
      ++cross;
    }
    state->pairs.push_back(plan);
  }

  if (request.want_distances) {
    for (const SubBatch& sub : state->subs) {
      if (!clients_[sub.shard]->with_distance()) {
        return Status::Unsupported(
            "distance batch routed to shard '" +
            std::string(clients_[sub.shard]->name()) +
            "' whose cover was built without distances");
      }
    }
  }

  // The plan is final — commit its stats.
  uint64_t rows = 0;
  for (const SubBatch& sub : state->subs) {
    rows += sub.request.out_rows.size() + sub.request.in_rows.size();
  }
  direct_pairs_.fetch_add(direct, std::memory_order_relaxed);
  cross_pairs_.fetch_add(cross, std::memory_order_relaxed);
  rows_fetched_.fetch_add(rows, std::memory_order_relaxed);
  subbatches_.fetch_add(state->subs.size(), std::memory_order_relaxed);
  for (size_t s = 0; s < n; ++s) {
    if (shard_probes[s] != 0) {
      per_shard_probes_[s].fetch_add(shard_probes[s],
                                     std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

std::vector<twohop::LabelEntry> ShardedEngine::FetchRow(NodeId u, bool out) {
  const uint32_t shard = plan_->ShardOfElement(u);
  if (shard == kUnassignedShard) return {};
  ShardRequest request;
  (out ? request.out_rows : request.in_rows).push_back(u);
  auto promise = std::make_shared<std::promise<Result<ShardBatchResult>>>();
  std::future<Result<ShardBatchResult>> answer = promise->get_future();
  Status submitted = clients_[shard]->SubmitBatch(
      std::move(request), [promise](Result<ShardBatchResult> r) {
        promise->set_value(std::move(r));
      });
  if (!submitted.ok()) return {};
  if (options_.merge_deadline.count() > 0 &&
      answer.wait_for(options_.merge_deadline) != std::future_status::ready) {
    return {};
  }
  Result<ShardBatchResult> result = answer.get();
  if (!result.ok()) return {};
  return std::move(out ? result->out_rows.front() : result->in_rows.front());
}

Status ShardedEngine::SubmitBatch(
    BatchRequest request, std::function<void(ShardedBatchResponse)> on_done) {
  assert(on_done && "SubmitBatch requires a callback");
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "SubmitBatch on a shut-down ShardedEngine");
  }
  auto state = std::make_shared<MergeState>();
  state->request = std::move(request);
  state->on_done = std::move(on_done);
  state->start = std::chrono::steady_clock::now();
  HOPI_RETURN_NOT_OK(PlanBatch(state->request, state.get()));
  state->pending = state->subs.size();

  if (state->subs.empty()) {
    // Every pair resolved at routing time — finalize inline.
    state->finalized.store(true, std::memory_order_release);
    Finalize(state, Status::OK());
    return Status::OK();
  }

  if (options_.merge_deadline.count() > 0) {
    state->deadline = state->start + options_.merge_deadline;
    state->has_deadline = true;
  }
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watched_.push_back(state);
  }
  watch_cv_.notify_one();

  for (size_t k = 0; k < state->subs.size(); ++k) {
    ShardRequest sub_request = std::move(state->subs[k].request);
    size_t shard = state->subs[k].shard;
    Status submitted = clients_[shard]->SubmitBatch(
        std::move(sub_request), [this, state, k](Result<ShardBatchResult> r) {
          OnSubBatchDone(state, k, std::move(r));
        });
    if (!submitted.ok()) {
      // The shard refused (shed / shut down): fold the rejection into
      // the merge as a failed sub-request.
      OnSubBatchDone(state, k, std::move(submitted));
    }
  }
  return Status::OK();
}

void ShardedEngine::OnSubBatchDone(const std::shared_ptr<MergeState>& state,
                                   size_t sub, Result<ShardBatchResult> result) {
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->finalized.load(std::memory_order_relaxed)) {
      return;  // the watchdog or Shutdown already delivered this batch
    }
    if (!result.ok()) {
      failed_subbatches_.fetch_add(1, std::memory_order_relaxed);
    }
    state->subs[sub].result = std::move(result);
    if (--state->pending == 0) {
      state->finalized.store(true, std::memory_order_release);
      last = true;
    }
  }
  if (!last) return;

  Status status = Status::OK();
  for (const SubBatch& s : state->subs) {
    if (s.result.has_value() && !s.result->ok()) {
      status = Status::Unavailable(
          "shard '" + std::string(clients_[s.shard]->name()) +
          "' failed its sub-request: " + s.result->status().message());
      break;
    }
  }
  Finalize(state, std::move(status));
  std::lock_guard<std::mutex> lock(watch_mu_);
  std::erase(watched_, state);
}

void ShardedEngine::Finalize(const std::shared_ptr<MergeState>& state,
                             Status status) {
  using Plan = MergeState::Plan;
  const bool want = state->request.want_distances;
  const size_t n = state->request.pairs.size();

  ShardedBatchResponse response;
  response.batch.reachable.assign(n, false);
  if (want) response.batch.distances.assign(n, std::nullopt);
  response.resolved.assign(n, false);
  response.shard_versions.assign(clients_.size(), 0);

  auto sub_ok = [&](size_t k) {
    const SubBatch& s = state->subs[k];
    return s.result.has_value() && s.result->ok();
  };
  // Each answered sub-request's rows, unpacked once for the joins.
  std::vector<PackedRows> out_rows(state->subs.size());
  std::vector<PackedRows> in_rows(state->subs.size());
  for (size_t k = 0; k < state->subs.size(); ++k) {
    if (!sub_ok(k)) continue;
    const SubBatch& s = state->subs[k];
    const ShardBatchResult& r = s.result->value();
    response.shard_versions[s.shard] =
        std::max(response.shard_versions[s.shard], r.snapshot_version);
    const BatchStats& bs = r.batch.stats;
    response.batch.stats.probes += bs.probes;
    response.batch.stats.unique_probes += bs.unique_probes;
    response.batch.stats.cache_hits += bs.cache_hits;
    response.batch.stats.cache_misses += bs.cache_misses;
    response.batch.stats.labels_borrowed += bs.labels_borrowed;
    response.batch.stats.blocks_decoded += bs.blocks_decoded;
    response.batch.stats.backend_probes += bs.backend_probes;
    if (!r.out_rows.empty()) out_rows[k] = PackedRows(r.out_rows);
    if (!r.in_rows.empty()) in_rows[k] = PackedRows(r.in_rows);
  }

  for (size_t i = 0; i < n; ++i) {
    const Plan& plan = state->pairs[i];
    switch (plan.kind) {
      case Plan::Kind::kResolved: {
        response.resolved[i] = true;
        response.batch.reachable[i] = plan.reachable;
        if (want && plan.reachable) response.batch.distances[i] = plan.dist;
        break;
      }
      case Plan::Kind::kDirect: {
        if (!sub_ok(plan.sub)) break;  // stays unresolved
        const BatchResponse& b = state->subs[plan.sub].result->value().batch;
        response.resolved[i] = true;
        response.batch.reachable[i] = b.reachable[plan.index];
        if (want) response.batch.distances[i] = b.distances[plan.index];
        break;
      }
      case Plan::Kind::kCross: {
        if (!sub_ok(plan.sub) || !sub_ok(plan.target_sub)) break;
        const auto& [u, v] = state->request.pairs[i];
        twohop::LabelJoinResult joined = twohop::JoinViews(
            u, v, out_rows[plan.sub].Row(plan.index),
            in_rows[plan.target_sub].Row(plan.target_index), want);
        response.resolved[i] = true;
        response.batch.reachable[i] = joined.connected;
        if (want) response.batch.distances[i] = joined.distance;
        break;
      }
    }
  }

  response.status = status;
  response.batch.error = std::move(status);

  uint64_t latency_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - state->start)
          .count();
  batches_.fetch_add(1, std::memory_order_relaxed);
  merges_.fetch_add(1, std::memory_order_relaxed);
  merge_latency_us_total_.fetch_add(latency_us, std::memory_order_relaxed);
  uint64_t prev_max = merge_latency_us_max_.load(std::memory_order_relaxed);
  while (latency_us > prev_max &&
         !merge_latency_us_max_.compare_exchange_weak(
             prev_max, latency_us, std::memory_order_relaxed)) {
  }
  if (!response.status.ok()) {
    partial_batches_.fetch_add(1, std::memory_order_relaxed);
  }

  state->on_done(std::move(response));
}

void ShardedEngine::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!shutdown_.load(std::memory_order_acquire)) {
    auto earliest = std::chrono::steady_clock::time_point::max();
    for (const auto& state : watched_) {
      if (state->has_deadline && state->deadline < earliest) {
        earliest = state->deadline;
      }
    }
    if (earliest == std::chrono::steady_clock::time_point::max()) {
      watch_cv_.wait(lock);
      continue;
    }
    watch_cv_.wait_until(lock, earliest);
    if (shutdown_.load(std::memory_order_acquire)) break;

    auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<MergeState>> expired;
    for (const auto& state : watched_) {
      if (state->has_deadline && state->deadline <= now &&
          !state->finalized.load(std::memory_order_acquire)) {
        expired.push_back(state);
      }
    }
    lock.unlock();
    for (const auto& state : expired) {
      bool won = false;
      {
        std::lock_guard<std::mutex> state_lock(state->mu);
        if (!state->finalized.load(std::memory_order_relaxed)) {
          state->finalized.store(true, std::memory_order_release);
          won = true;
        }
      }
      if (won) {
        Finalize(state, Status::DeadlineExceeded(
                            "merge deadline elapsed before every shard "
                            "answered; unresolved pairs are unanswered"));
      }
    }
    lock.lock();
    std::erase_if(watched_, [](const std::shared_ptr<MergeState>& state) {
      return state->finalized.load(std::memory_order_acquire);
    });
  }
}

Result<ShardedBatchResponse> ShardedEngine::Batch(BatchRequest request) {
  auto promise = std::make_shared<std::promise<ShardedBatchResponse>>();
  std::future<ShardedBatchResponse> future = promise->get_future();
  HOPI_RETURN_NOT_OK(
      SubmitBatch(std::move(request), [promise](ShardedBatchResponse r) {
        promise->set_value(std::move(r));
      }));
  return future.get();
}

Status ShardedEngine::SubmitQuery(
    PathQueryRequest request,
    std::function<void(Result<PoolPathResponse>)> on_done) {
  assert(on_done && "SubmitQuery requires a callback");
  {
    std::lock_guard<std::mutex> lock(path_mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition(
          "SubmitQuery on a shut-down ShardedEngine");
    }
    path_queue_.push_back(PathJob{std::move(request), std::move(on_done)});
  }
  path_cv_.notify_one();
  return Status::OK();
}

Result<PoolPathResponse> ShardedEngine::Query(PathQueryRequest request) {
  auto promise = std::make_shared<std::promise<Result<PoolPathResponse>>>();
  std::future<Result<PoolPathResponse>> future = promise->get_future();
  HOPI_RETURN_NOT_OK(
      SubmitQuery(std::move(request), [promise](Result<PoolPathResponse> r) {
        promise->set_value(std::move(r));
      }));
  return future.get();
}

void ShardedEngine::PathWorkerLoop() {
  while (true) {
    PathJob job;
    {
      std::unique_lock<std::mutex> lock(path_mu_);
      path_cv_.wait(lock, [this] {
        return shutdown_.load(std::memory_order_acquire) ||
               !path_queue_.empty();
      });
      if (path_queue_.empty()) return;  // shut down and drained
      job = std::move(path_queue_.front());
      path_queue_.pop_front();
    }
    PoolPathResponse response{path_engine_->Query(job.request), 0, 0, 0};
    for (const auto& client : clients_) {
      response.snapshot_version =
          std::max(response.snapshot_version, client->snapshot_version());
    }
    job.on_done(std::move(response));
  }
}

ShardStats ShardedEngine::Stats() const {
  ShardStats stats;
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.direct_pairs = direct_pairs_.load(std::memory_order_relaxed);
  stats.cross_pairs = cross_pairs_.load(std::memory_order_relaxed);
  stats.subbatches = subbatches_.load(std::memory_order_relaxed);
  stats.rows_fetched = rows_fetched_.load(std::memory_order_relaxed);
  stats.partial_batches = partial_batches_.load(std::memory_order_relaxed);
  stats.failed_subbatches = failed_subbatches_.load(std::memory_order_relaxed);
  stats.per_shard_probes.reserve(per_shard_probes_.size());
  for (const auto& count : per_shard_probes_) {
    stats.per_shard_probes.push_back(count.load(std::memory_order_relaxed));
  }
  stats.merges = merges_.load(std::memory_order_relaxed);
  stats.merge_latency_us_total =
      merge_latency_us_total_.load(std::memory_order_relaxed);
  stats.merge_latency_us_max =
      merge_latency_us_max_.load(std::memory_order_relaxed);
  return stats;
}

void ShardedEngine::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    // Raise the flag under both waiters' mutexes: a thread that has just
    // read it as false and is about to wait would otherwise miss the
    // notification and never wake (the join below would then hang).
    {
      std::scoped_lock lock(watch_mu_, path_mu_);
      shutdown_.store(true, std::memory_order_release);
    }
    watch_cv_.notify_all();
    path_cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
    if (path_worker_.joinable()) path_worker_.join();

    // Fail whatever merges are still outstanding (stalled shards,
    // dropped callbacks) so sync callers unblock. Sub-request callbacks
    // that straggle in later see `finalized` and drop their result.
    std::vector<std::shared_ptr<MergeState>> leftovers;
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      leftovers.swap(watched_);
    }
    for (const auto& state : leftovers) {
      bool won = false;
      {
        std::lock_guard<std::mutex> state_lock(state->mu);
        if (!state->finalized.load(std::memory_order_relaxed)) {
          state->finalized.store(true, std::memory_order_release);
          won = true;
        }
      }
      if (won) {
        Finalize(state,
                 Status::Unavailable("ShardedEngine shut down mid-merge"));
      }
    }
  });
}

}  // namespace hopi::engine
