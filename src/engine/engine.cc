#include "engine/engine.h"

#include <cassert>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <utility>

#include "engine/backends.h"
#include "twohop/join_kernel.h"

namespace hopi::engine {

namespace {

uint64_t PairKey(const NodePair& p) {
  return (static_cast<uint64_t>(p.first) << 32) | p.second;
}

}  // namespace

QueryEngine::QueryEngine(const collection::Collection& collection,
                         std::unique_ptr<ReachabilityBackend> backend,
                         QueryEngineOptions options)
    : collection_(&collection),
      backend_(std::move(backend)),
      tags_(options.shared_tags
                ? std::move(options.shared_tags)
                : std::make_shared<query::TagIndex>(collection)),
      similarity_(std::move(options.similarity)),
      cache_(options.label_cache_bytes) {}

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

PinnedJoin QueryEngine::FetchJoinLabel(bool out, NodeId node,
                                       BatchStats* stats,
                                       Status* error) const {
  // Block route: compressed storage names the block holding the row;
  // the cache serves the decoded block, pinned for the caller. Checked
  // before the borrow route because for compressed backends both
  // answers come from the same directory search — asking "can I
  // borrow?" first would pay that search twice per fetch.
  if (std::optional<uint64_t> handle =
          out ? backend_->OutLabelBlock(node) : backend_->InLabelBlock(node)) {
    LabelBlock block = cache_.Get(*handle);
    if (block) {
      ++stats->cache_hits;
    } else {
      ++stats->cache_misses;
      auto start = std::chrono::steady_clock::now();
      Result<LabelBlock> decoded = backend_->DecodeLabelBlock(*handle);
      if (!decoded.ok()) {
        if (error->ok()) *error = decoded.status();
        return {twohop::JoinView{}, nullptr};
      }
      cache_.RecordDecode(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
      ++stats->blocks_decoded;
      block = cache_.Put(*handle, std::move(*decoded));
    }
    int64_t row = block->RowIndexFor(node);
    if (row < 0) return {twohop::JoinView{}, std::move(block)};
    twohop::JoinView view = block->JoinRow(static_cast<size_t>(row));
    return {view, std::move(block)};
  }
  // Borrow route: label storage the backend already owns (in-memory
  // covers) is lent as a kernel view — zero copies, no pin needed
  // (backend-lifetime storage). For compressed backends this only
  // serves rows with no block: the empty ones.
  std::optional<twohop::JoinView> borrowed =
      out ? backend_->BorrowOutJoin(node) : backend_->BorrowInJoin(node);
  assert(borrowed && "a HasLabels() backend lends every unblocked label");
  ++stats->labels_borrowed;
  return {borrowed.value_or(twohop::JoinView{}), nullptr};
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
    for (size_t k = 0; k < unique.size(); ++k) {
      auto [u, v] = unique[k];
      if (u == v) {
        reachable[k] = true;
        if (request.want_distances) distance[k] = 0;
        continue;
      }
      PinnedJoin lout = FetchJoinLabel(/*out=*/true, u, &response.stats,
                                       &response.error);
      PinnedJoin lin = FetchJoinLabel(/*out=*/false, v, &response.stats,
                                      &response.error);
      twohop::LabelJoinResult join = twohop::JoinViews(
          u, v, lout.view, lin.view, request.want_distances);
      reachable[k] = join.connected;
      if (request.want_distances) distance[k] = join.distance;
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
