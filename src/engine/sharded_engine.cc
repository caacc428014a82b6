#include "engine/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <unordered_set>
#include <utility>

#include "engine/backend.h"
#include "query/tag_index.h"

namespace hopi::engine {

namespace {

/// Dedup key of one (a, b) probe inside a sub-batch.
uint64_t ProbeKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

size_t FanoutBucket(size_t fanout) {
  size_t bucket = 0;
  while (fanout > 1 && bucket < 15) {
    fanout >>= 1;
    ++bucket;
  }
  return bucket;
}

}  // namespace

// ---------------------------------------------------------------------------
// PoolShardClient
// ---------------------------------------------------------------------------

PoolShardClient::PoolShardClient(std::string name,
                                 std::shared_ptr<const BackendSnapshot> snapshot,
                                 EnginePoolOptions options)
    : name_(std::move(name)),
      with_distance_(snapshot->MakeBackend()->with_distance()),
      pool_(std::move(snapshot), std::move(options)) {}

uint64_t PoolShardClient::snapshot_version() const {
  return pool_.snapshot()->version();
}

Status PoolShardClient::SubmitBatch(
    BatchRequest request,
    std::function<void(Result<ShardBatchResult>)> on_done) {
  return pool_.SubmitBatch(
      std::move(request),
      [cb = std::move(on_done)](Result<PoolBatchResponse> r) {
        if (!r.ok()) {
          cb(r.status());
          return;
        }
        cb(ShardBatchResult{std::move(r->batch), r->snapshot_version});
      });
}

std::vector<NodeId> PoolShardClient::Descendants(NodeId u) const {
  // Pin the snapshot for the duration of the adapter call; a concurrent
  // Swap retires the old snapshot only after this reference drops.
  std::shared_ptr<const BackendSnapshot> snapshot = pool_.snapshot();
  return snapshot->MakeBackend()->Descendants(u);
}

std::vector<NodeId> PoolShardClient::Ancestors(NodeId u) const {
  std::shared_ptr<const BackendSnapshot> snapshot = pool_.snapshot();
  return snapshot->MakeBackend()->Ancestors(u);
}

Status PoolShardClient::Swap(std::shared_ptr<const BackendSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("PoolShardClient::Swap: null snapshot");
  }
  pool_.Swap(std::move(snapshot));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Merge state
// ---------------------------------------------------------------------------

/// One per-shard sub-batch of a sharded batch: the deduplicated probe
/// list plus the (a, b) -> position map the merge uses to look leg
/// answers back up.
struct ShardedEngine::SubBatch {
  size_t shard = 0;
  BatchRequest request;
  std::unordered_map<uint64_t, size_t> index_of;
  /// Engaged once the shard answered (or its submit was rejected).
  std::optional<Result<ShardBatchResult>> result;
};

/// One in-flight sharded batch: the routing plan plus the completion
/// rendezvous. `finalized` flips exactly once, under `mu`, won by the
/// last sub-batch completion, the watchdog's deadline, or Shutdown —
/// whoever flips it runs Finalize.
struct ShardedEngine::MergeState {
  /// Per-request-pair routing decision.
  struct Plan {
    enum class Kind { kResolved, kDirect, kCross };
    Kind kind = Kind::kResolved;
    // kResolved: the answer was fixed at routing time (reflexive pair,
    // dead endpoint, empty route table).
    bool reachable = false;
    std::optional<uint32_t> dist;
    // kDirect: position `index` of sub-batch `sub`.
    // kCross: `sub` = source-leg sub-batch, `target_sub` = target-leg
    // sub-batch, `routes` = the skeleton routes to compose over
    // (borrowed from the ShardPlan, which outlives the engine).
    size_t sub = 0;
    size_t index = 0;
    size_t target_sub = 0;
    const std::vector<ShardRoute>* routes = nullptr;
  };

  std::mutex mu;
  std::atomic<bool> finalized{false};  // written under mu; read lock-free
  size_t pending = 0;                  // sub-batches not yet completed
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
/// one-pair sharded batches, Descendants/Ancestors expand shard-locally
/// and hop the route tables once (routes are PSG-closed — see the
/// derivation in shard_router.h — so a single hop reaches every shard).
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
    const ShardRouter& router = engine_->router();
    uint32_t su = router.ShardOf(u);
    std::vector<NodeId> out;
    if (su == kUnassignedShard) return out;
    ShardClient& home = engine_->client(su);
    out = down ? home.Descendants(u) : home.Ancestors(u);
    // Hop the skeleton once: every cross-link endpoint reachable from u
    // (descendants direction: route sources in u's shard; ancestors:
    // route targets) carries us into its peer shard, where the local
    // expansion finishes the job — the peer covers already contain the
    // leave-and-return closure.
    std::vector<NodeId> frontier = out;
    frontier.push_back(u);
    std::unordered_set<NodeId> entered;
    for (NodeId e : frontier) {
      const auto& hops = down ? router.RoutesFrom(e) : router.RoutesInto(e);
      for (const auto& [peer, dist] : hops) {
        (void)dist;
        if (!entered.insert(peer).second) continue;
        out.push_back(peer);
        ShardClient& shard = engine_->client(router.ShardOf(peer));
        std::vector<NodeId> local =
            down ? shard.Descendants(peer) : shard.Ancestors(peer);
        out.insert(out.end(), local.begin(), local.end());
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    // Strict axis: a cycle through the skeleton may re-reach u itself.
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
  pool_options.label_cache_bytes = options.label_cache_bytes;
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
      router_(plan),
      options_(options),
      clients_(std::move(clients)),
      per_shard_probes_(plan->num_shards) {
  assert(clients_.size() == plan_->num_shards &&
         "one ShardClient per plan shard");
  with_distance_ = true;
  for (const auto& client : clients_) {
    with_distance_ = with_distance_ && client->with_distance();
  }
  QueryEngineOptions engine_options;
  engine_options.label_cache_bytes = options_.label_cache_bytes;
  path_engine_ = std::make_unique<QueryEngine>(
      *collection_, std::make_unique<ShardedBackend>(this), engine_options);
  watchdog_ = std::thread(&ShardedEngine::WatchdogLoop, this);
  path_worker_ = std::thread(&ShardedEngine::PathWorkerLoop, this);
}

ShardedEngine::~ShardedEngine() { Shutdown(); }

Status ShardedEngine::PlanBatch(const BatchRequest& request,
                                MergeState* state) {
  using Plan = MergeState::Plan;
  const size_t n = clients_.size();
  // One sub-batch per consulted shard: its direct probes and its legs
  // of every cross pair, deduplicated together.
  constexpr size_t kNoSub = SIZE_MAX;
  std::vector<size_t> sub_of(n, kNoSub);
  auto sub_for = [&](size_t shard) {
    if (sub_of[shard] == kNoSub) {
      sub_of[shard] = state->subs.size();
      SubBatch sub;
      sub.shard = shard;
      sub.request.want_distances = request.want_distances;
      state->subs.push_back(std::move(sub));
    }
    return sub_of[shard];
  };
  std::vector<uint64_t> shard_probes(n, 0);
  auto add_probe = [&](size_t sub_index, NodeId a, NodeId b) {
    SubBatch& sub = state->subs[sub_index];
    auto [it, inserted] =
        sub.index_of.try_emplace(ProbeKey(a, b), sub.request.pairs.size());
    if (inserted) {
      sub.request.pairs.emplace_back(a, b);
      ++shard_probes[sub.shard];
    }
    return it->second;
  };

  uint64_t direct = 0, cross = 0, routeless = 0, legs = 0;
  std::array<uint64_t, 16> fanout{};
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
    uint32_t su = router_.ShardOf(u);
    uint32_t sv = router_.ShardOf(v);
    if (su == kUnassignedShard || sv == kUnassignedShard) {
      // Dead-document elements have no edges and empty labels.
      plan.kind = Plan::Kind::kResolved;
      state->pairs.push_back(plan);
      continue;
    }
    if (su == sv) {
      size_t sub = sub_for(su);
      plan.kind = Plan::Kind::kDirect;
      plan.sub = sub;
      plan.index = add_probe(sub, u, v);
      ++direct;
      state->pairs.push_back(plan);
      continue;
    }
    ++cross;
    const std::vector<ShardRoute>& routes = router_.RoutesBetween(su, sv);
    if (routes.empty()) {
      // No skeleton route between the shards: unreachable, no probing.
      plan.kind = Plan::Kind::kResolved;
      ++routeless;
      ++fanout[0];
      state->pairs.push_back(plan);
      continue;
    }
    const ShardProbeSet& probes = router_.ProbesBetween(su, sv);
    size_t source_sub = sub_for(su);
    size_t target_sub = sub_for(sv);
    for (NodeId s : probes.sources) add_probe(source_sub, u, s);
    for (NodeId t : probes.targets) add_probe(target_sub, t, v);
    plan.kind = Plan::Kind::kCross;
    plan.sub = source_sub;
    plan.target_sub = target_sub;
    plan.routes = &routes;
    size_t pair_fanout = probes.sources.size() + probes.targets.size();
    legs += pair_fanout;
    ++fanout[FanoutBucket(pair_fanout)];
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
  direct_pairs_.fetch_add(direct, std::memory_order_relaxed);
  cross_pairs_.fetch_add(cross, std::memory_order_relaxed);
  routeless_pairs_.fetch_add(routeless, std::memory_order_relaxed);
  leg_probes_.fetch_add(legs, std::memory_order_relaxed);
  subbatches_.fetch_add(state->subs.size(), std::memory_order_relaxed);
  for (size_t s = 0; s < n; ++s) {
    if (shard_probes[s] != 0) {
      per_shard_probes_[s].fetch_add(shard_probes[s],
                                     std::memory_order_relaxed);
    }
  }
  for (size_t b = 0; b < fanout.size(); ++b) {
    if (fanout[b] != 0) {
      fanout_histogram_[b].fetch_add(fanout[b], std::memory_order_relaxed);
    }
  }
  return Status::OK();
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
    BatchRequest sub_request = std::move(state->subs[k].request);
    size_t shard = state->subs[k].shard;
    Status submitted = clients_[shard]->SubmitBatch(
        std::move(sub_request), [this, state, k](Result<ShardBatchResult> r) {
          OnSubBatchDone(state, k, std::move(r));
        });
    if (!submitted.ok()) {
      // The shard refused (shed / shut down): fold the rejection into
      // the merge as a failed sub-batch.
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
          "' failed its sub-batch: " + s.result->status().message());
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
        const SubBatch& source_sub = state->subs[plan.sub];
        const SubBatch& target_sub = state->subs[plan.target_sub];
        const BatchResponse& sb = source_sub.result->value().batch;
        const BatchResponse& tb = target_sub.result->value().batch;
        auto leg = [&](const SubBatch& sub, const BatchResponse& b, NodeId a,
                       NodeId c) -> std::optional<uint32_t> {
          auto it = sub.index_of.find(ProbeKey(a, c));
          if (it == sub.index_of.end()) return std::nullopt;
          if (!b.reachable[it->second]) return std::nullopt;
          if (!want) return 0;
          return b.distances[it->second].value_or(0);
        };
        auto [reachable, dist] = ComposeThreeLegs(
            *plan.routes,
            [&](NodeId s) { return leg(source_sub, sb, u, s); },
            [&](NodeId t) { return leg(target_sub, tb, t, v); }, want);
        response.resolved[i] = true;
        response.batch.reachable[i] = reachable;
        if (want) response.batch.distances[i] = dist;
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
  stats.routeless_pairs = routeless_pairs_.load(std::memory_order_relaxed);
  stats.subbatches = subbatches_.load(std::memory_order_relaxed);
  stats.leg_probes = leg_probes_.load(std::memory_order_relaxed);
  stats.partial_batches = partial_batches_.load(std::memory_order_relaxed);
  stats.failed_subbatches = failed_subbatches_.load(std::memory_order_relaxed);
  stats.per_shard_probes.reserve(per_shard_probes_.size());
  for (const auto& count : per_shard_probes_) {
    stats.per_shard_probes.push_back(count.load(std::memory_order_relaxed));
  }
  for (size_t b = 0; b < fanout_histogram_.size(); ++b) {
    stats.fanout_histogram[b] =
        fanout_histogram_[b].load(std::memory_order_relaxed);
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
    // dropped callbacks) so sync callers unblock. Sub-batch callbacks
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
