#include "engine/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/backends.h"
#include "twohop/join_kernel.h"

namespace hopi::engine {

namespace {

uint64_t PairKey(const NodePair& p) {
  return (static_cast<uint64_t>(p.first) << 32) | p.second;
}

}  // namespace

// The blocks one Batch joins rows of, numbered in first-fetch order
// and found by handle through open addressing over a power-of-two
// table at most half full (allocated at the first block fetch, so
// batches on the borrow route never allocate it). Pin looks them all
// up in the cache at once and keeps them pinned until the batch
// returns, however many of the batch's rows each one holds.
class QueryEngine::BatchBlocks {
 public:
  /// The block number of a label the backend lends instead.
  static constexpr uint32_t kBorrowed = UINT32_MAX;

  /// Room for `max_fetches` block fetches.
  explicit BatchBlocks(size_t max_fetches)
      : capacity_(std::bit_ceil(std::max<size_t>(2 * max_fetches, 2))) {}

  /// The number of the block named by `handle` (kBorrowed for none),
  /// counting one fetch of it.
  uint32_t Fetch(std::optional<uint64_t> handle) {
    if (!handle) return kBorrowed;
    if (table_.empty()) table_.assign(capacity_, kBorrowed);
    const size_t mask = capacity_ - 1;
    // Fibonacci hashing, as LabelCache uses for its shards.
    size_t i = static_cast<size_t>((*handle * 0x9E3779B97F4A7C15ull) >>
                                   (64 - std::countr_zero(capacity_)));
    for (;; i = (i + 1) & mask) {
      uint32_t& number = table_[i];
      if (number == kBorrowed) {
        number = static_cast<uint32_t>(handles_.size());
        handles_.push_back(*handle);
        fetches_.push_back(1);
        return number;
      }
      if (handles_[number] == *handle) {
        ++fetches_[number];
        return number;
      }
    }
  }

  /// Pins every fetched block: one LabelCache::GetMany for all of
  /// them, then a decode and a Put for each miss. Counts each fetch as
  /// a hit or a miss into `stats` (a block decoded here is a miss for
  /// its first fetch only; one that fails to decode is a miss for all,
  /// and its first failure lands in `*error`), and decodes into `stats`
  /// and `*decode_nanos`.
  void Pin(LabelCache& cache, const ReachabilityBackend& backend,
           BatchStats* stats, uint64_t* decode_nanos, Status* error) {
    pins_.resize(handles_.size());
    cache.GetMany(handles_, pins_);
    for (size_t b = 0; b < handles_.size(); ++b) {
      if (pins_[b]) {
        stats->cache_hits += fetches_[b];
        continue;
      }
      auto start = std::chrono::steady_clock::now();
      Result<LabelBlock> decoded = backend.DecodeLabelBlock(handles_[b]);
      if (!decoded.ok()) {
        if (error->ok()) *error = decoded.status();
        stats->cache_misses += fetches_[b];
        continue;
      }
      *decode_nanos += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      ++stats->blocks_decoded;
      ++stats->cache_misses;
      stats->cache_hits += fetches_[b] - 1;
      pins_[b] = cache.Put(handles_[b], std::move(*decoded));
    }
  }

  /// `node`'s row in pinned block `number`: empty when the block failed
  /// to decode.
  twohop::JoinView Row(uint32_t number, NodeId node) const {
    const LabelBlock& block = pins_[number];
    if (!block) return twohop::JoinView{};
    int64_t row = block->RowIndexFor(node);
    if (row < 0) return twohop::JoinView{};
    return block->JoinRow(static_cast<size_t>(row));
  }

 private:
  size_t capacity_;
  std::vector<uint32_t> table_;     // slot -> block number, or kBorrowed
  std::vector<uint64_t> handles_;   // block number -> handle
  std::vector<uint32_t> fetches_;   // block number -> fetches this batch
  std::vector<LabelBlock> pins_;    // block number -> pin (Pin fills it)
};

QueryEngine::QueryEngine(const collection::Collection& collection,
                         std::unique_ptr<ReachabilityBackend> backend,
                         QueryEngineOptions options)
    : collection_(&collection),
      backend_(std::move(backend)),
      tags_(options.shared_tags
                ? std::move(options.shared_tags)
                : std::make_shared<query::TagIndex>(collection)),
      similarity_(std::move(options.similarity)),
      cache_(options.shared_cache
                 ? std::move(options.shared_cache)
                 : std::make_shared<LabelCache>(options.label_cache_bytes)) {}

QueryEngine QueryEngine::ForIndex(const HopiIndex& index,
                                  QueryEngineOptions options) {
  return QueryEngine(*index.collection(),
                     std::make_unique<HopiIndexBackend>(index),
                     std::move(options));
}

QueryEngine QueryEngine::ForMappedStore(
    const collection::Collection& collection,
    const storage::MappedLinLoutStore& store, QueryEngineOptions options) {
  return QueryEngine(collection,
                     std::make_unique<MappedStoreBackend>(store),
                     std::move(options));
}

QueryEngine QueryEngine::ForClosure(const collection::Collection& collection,
                                    const TransitiveClosureIndex& closure,
                                    bool with_distance,
                                    QueryEngineOptions options) {
  return QueryEngine(collection,
                     std::make_unique<ClosureBackend>(closure, with_distance),
                     std::move(options));
}

ReachabilityResponse QueryEngine::Reachability(
    const ReachabilityRequest& request) const {
  ReachabilityResponse response;
  response.reachable = backend_->IsReachable(request.source, request.target);
  if (request.want_distance && response.reachable) {
    response.distance = backend_->Distance(request.source, request.target);
  }
  return response;
}

twohop::JoinView QueryEngine::JoinLabel(bool out, NodeId node,
                                        const BatchBlocks& blocks,
                                        uint32_t block,
                                        BatchStats* stats) const {
  if (block != BatchBlocks::kBorrowed) return blocks.Row(block, node);
  // Borrow route: label storage the backend already owns (in-memory
  // covers) is lent as a kernel view — zero copies, no pin needed
  // (backend-lifetime storage). For compressed backends this only
  // serves rows with no block: the empty ones.
  std::optional<twohop::JoinView> borrowed =
      out ? backend_->BorrowOutJoin(node) : backend_->BorrowInJoin(node);
  assert(borrowed && "a HasLabels() backend lends every unblocked label");
  ++stats->labels_borrowed;
  return borrowed.value_or(twohop::JoinView{});
}

BatchResponse QueryEngine::Batch(const BatchRequest& request) const {
  BatchResponse response;
  response.stats.probes = request.pairs.size();

  // Dedup repeated (u, v) probes: answer each distinct pair once, then
  // scatter the answers back to every occurrence.
  std::unordered_map<uint64_t, size_t> slot_of;
  slot_of.reserve(request.pairs.size());
  std::vector<NodePair> unique;
  std::vector<size_t> slot(request.pairs.size());
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    auto [it, inserted] =
        slot_of.try_emplace(PairKey(request.pairs[i]), unique.size());
    if (inserted) unique.push_back(request.pairs[i]);
    slot[i] = it->second;
  }
  response.stats.unique_probes = unique.size();

  std::vector<bool> reachable(unique.size());
  std::vector<std::optional<uint32_t>> distance(
      request.want_distances ? unique.size() : 0);

  if (backend_->HasLabels()) {
    // Resolve each label to join to the block that holds it (block
    // route), or to the backend's own storage (borrow route). Checking
    // for a block first costs compressed backends one directory search
    // per label, where asking "can I borrow?" first would cost two.
    BatchBlocks blocks(2 * unique.size());
    std::vector<std::array<uint32_t, 2>> block_of(unique.size());
    for (size_t k = 0; k < unique.size(); ++k) {
      auto [u, v] = unique[k];
      if (u == v) continue;
      block_of[k] = {blocks.Fetch(backend_->OutLabelBlock(u)),
                     blocks.Fetch(backend_->InLabelBlock(v))};
    }
    uint64_t decode_nanos = 0;
    blocks.Pin(*cache_, *backend_, &response.stats, &decode_nanos,
               &response.error);
    for (size_t k = 0; k < unique.size(); ++k) {
      auto [u, v] = unique[k];
      if (u == v) {
        reachable[k] = true;
        if (request.want_distances) distance[k] = 0;
        continue;
      }
      twohop::JoinView lout = JoinLabel(/*out=*/true, u, blocks,
                                        block_of[k][0], &response.stats);
      twohop::JoinView lin = JoinLabel(/*out=*/false, v, blocks,
                                       block_of[k][1], &response.stats);
      twohop::LabelJoinResult join =
          twohop::JoinViews(u, v, lout, lin, request.want_distances);
      reachable[k] = join.connected;
      if (request.want_distances) distance[k] = join.distance;
    }
    const BatchStats& stats = response.stats;
    if (stats.cache_hits + stats.cache_misses != 0) {
      cache_->Record({.hits = stats.cache_hits,
                      .misses = stats.cache_misses,
                      .blocks_decoded = stats.blocks_decoded,
                      .decode_nanos = decode_nanos});
    }
  } else {
    response.stats.backend_probes = unique.size();
    reachable = backend_->TestConnections(unique);
    if (request.want_distances) {
      for (size_t k = 0; k < unique.size(); ++k) {
        if (reachable[k]) {
          distance[k] = backend_->Distance(unique[k].first, unique[k].second);
        }
      }
    }
  }

  response.reachable.resize(request.pairs.size());
  if (request.want_distances) {
    response.distances.resize(request.pairs.size());
  }
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    response.reachable[i] = reachable[slot[i]];
    if (request.want_distances) response.distances[i] = distance[slot[i]];
  }
  return response;
}

Result<PathQueryResponse> QueryEngine::Query(
    const PathQueryRequest& request) const {
  HOPI_ASSIGN_OR_RETURN(query::PathExpression expr,
                        query::PathExpression::Parse(request.expression));
  PathQueryResponse response;
  if (request.count_only) {
    HOPI_ASSIGN_OR_RETURN(
        response.count,
        query::CountPathResults(expr, *backend_, *collection_, *tags_));
    return response;
  }
  query::PathQueryOptions options;
  options.max_matches = request.max_matches;
  options.max_step_distance = request.max_step_distance;
  options.min_tag_similarity = request.min_tag_similarity;
  if (similarity_) options.similarity = &*similarity_;
  HOPI_ASSIGN_OR_RETURN(
      response.matches,
      query::EvaluatePath(expr, *backend_, *collection_, *tags_, options));
  response.count = response.matches.size();
  return response;
}

}  // namespace hopi::engine
