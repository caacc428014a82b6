// QueryEngine: the unified facade over the paper's access paths.
//
// Owns the glue a search engine needs around one ReachabilityBackend —
// the collection, the tag inverted index, an optional tag-similarity
// ontology, and a byte-budgeted cache of decoded label blocks — and
// exposes typed request/response structs so raw reachability, batched
// reachability joins, and wildcard path queries all flow through one
// entry point (paper Sec 5.1; ROADMAP items "batch reachability joins"
// and "cache hot LIN/LOUT sets").
//
// The batch path dedupes repeated (u, v) probes across a request and
// joins label views lent by the backend or served from the block
// cache: it resolves every label to its block first, looks the
// batch's blocks up in the cache in one call (one reader lock per cache
// shard), decodes the misses, and keeps the blocks pinned until it
// returns. Per-call route counters are surfaced in the response stats
// and added to the cache's totals once per batch.
//
// Threading model: a QueryEngine serves one thread at a time, because a
// backend may keep per-call scratch (the delta overlay's BFS marks).
// Run one engine per serving thread over shared immutable state: the
// backend's storage, a pre-built tag index (QueryEngineOptions::
// shared_tags) and one decoded-block cache (QueryEngineOptions::
// shared_cache; LabelCache is safe for concurrent use, see
// label_cache.h). A standalone engine builds its own cache.
// engine/engine_pool.h packages exactly that arrangement: N per-thread
// engines over one shared BackendSnapshot and its cache, swappable at
// runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "engine/backend.h"
#include "engine/label_cache.h"
#include "hopi/baseline.h"
#include "hopi/index.h"
#include "query/path_query.h"
#include "query/similarity.h"
#include "query/tag_index.h"
#include "storage/mapped_linlout.h"
#include "util/result.h"

namespace hopi::engine {

struct QueryEngineOptions {
  /// Byte budget of the engine's own decoded-block cache (v4 stores;
  /// see engine/label_cache.h for the accounting and the pinning rule).
  /// 0 disables caching — correct, just cold. Unused with shared_cache.
  size_t label_cache_bytes = 4 * 1024 * 1024;
  /// Ontology for ~tag path steps; approximate steps behave like exact
  /// ones when unset.
  std::optional<query::TagSimilarity> similarity = std::nullopt;
  /// Pre-built tag index to share instead of building one per engine
  /// (construction is O(collection)). Must have been built over the
  /// same collection the engine is constructed with; TagIndex is
  /// immutable after construction, so any number of engines — and
  /// threads — can share one. EnginePool workers rebinding to a fresh
  /// BackendSnapshot use this to make engine construction O(1).
  std::shared_ptr<const query::TagIndex> shared_tags = nullptr;
  /// Decoded-block cache to share instead of building one per engine.
  /// Its blocks must come from the same storage the engine's backend
  /// reads, since block handles are the cache keys. LabelCache is safe
  /// for concurrent use, so any number of engines — and threads — can
  /// share one: EnginePool workers get the cache of the snapshot they
  /// serve, so a block one worker decoded is a hit for every other.
  std::shared_ptr<LabelCache> shared_cache = nullptr;
};

// ---- typed requests / responses ----

struct ReachabilityRequest {
  NodeId source = 0;
  NodeId target = 0;
  /// Also compute the connection length (meaningful for distance-aware
  /// backends; plain ones report 0 for connected pairs).
  bool want_distance = false;
};

struct ReachabilityResponse {
  bool reachable = false;
  /// Set iff want_distance and the pair is connected.
  std::optional<uint32_t> distance;
};

struct BatchRequest {
  std::vector<NodePair> pairs;
  bool want_distances = false;
};

/// Per-call accounting of one Batch() evaluation. Label fetches take
/// exactly one of two routes — block (through the cache) or borrow —
/// so for label-carrying backends `cache_hits + cache_misses +
/// labels_borrowed == 2 * (unique probes with u != v)`, and
/// `backend_probes` is non-zero only for label-less backends.
struct BatchStats {
  /// Pairs in the request, including duplicates.
  size_t probes = 0;
  /// Distinct (u, v) pairs actually evaluated after in-batch dedup.
  size_t unique_probes = 0;
  /// Label sets served from the engine's cache (block route, warm: a
  /// resident block, whichever engine sharing the cache decoded it, or
  /// one this batch decoded for an earlier read).
  size_t cache_hits = 0;
  /// Label sets whose block the cache did not hold (block route, cold):
  /// the first read of each block the batch decoded, and every read of
  /// a block that failed to decode.
  size_t cache_misses = 0;
  /// Label sets lent by the backend as views over its own storage —
  /// in-memory covers, raw mmapped file images (borrow route; the
  /// cache is bypassed).
  size_t labels_borrowed = 0;
  /// Compressed blocks decoded during this batch (block-route misses;
  /// always <= cache_misses).
  size_t blocks_decoded = 0;
  /// Probes answered by the backend's vectorized TestConnections
  /// (label-less backends only).
  size_t backend_probes = 0;
};

struct BatchResponse {
  /// Parallel to BatchRequest::pairs. Duplicate pairs are answered
  /// once and the answer is scattered back to every occurrence, so
  /// responses are position-for-position identical to evaluating each
  /// pair naively — dedup is an optimization, never a semantic change.
  std::vector<bool> reachable;
  /// Parallel to pairs when want_distances; empty otherwise.
  std::vector<std::optional<uint32_t>> distances;
  /// First block-decode failure hit during the batch (only reachable
  /// over lazily opened or tampered-with compressed stores). Probes
  /// whose labels failed to decode report unreachable; everything else
  /// in the response is exact.
  Status error = Status::OK();
  BatchStats stats;
};

struct PathQueryRequest {
  /// "//book//~author" — parsed with query::PathExpression::Parse.
  std::string expression;
  /// Maximum matches to materialize (ignored when count_only).
  size_t max_matches = 1000;
  /// Drop matches with a step distance above this (distance-aware
  /// backends only).
  uint32_t max_step_distance = UINT32_MAX;
  /// Synonyms below this similarity are not expanded for ~tag steps.
  double min_tag_similarity = 0.3;
  /// Count distinct final-step elements instead of materializing
  /// matches (the typical "find all results" engine call). Counting
  /// always uses exact semantics: max_step_distance, min_tag_similarity
  /// and the engine's ontology apply only to materializing queries
  /// (matching the pre-facade CountPathResults contract).
  bool count_only = false;
};

struct PathQueryResponse {
  /// Ranked matches; empty when count_only.
  std::vector<query::PathMatch> matches;
  /// matches.size(), or the distinct final-step count when count_only.
  size_t count = 0;
};

// ---- the facade ----

class QueryEngine {
 public:
  /// Takes ownership of the backend; `collection` must outlive the
  /// engine (the tag index is built here, so construction is O(n)).
  QueryEngine(const collection::Collection& collection,
              std::unique_ptr<ReachabilityBackend> backend,
              QueryEngineOptions options = {});

  // Convenience factories over the three standard access paths. The
  // wrapped index/store/closure is NOT owned and must outlive the
  // engine.
  static QueryEngine ForIndex(const HopiIndex& index,
                              QueryEngineOptions options = {});
  /// Serves batch queries off the LIN/LOUT file: label blocks through
  /// the decoded-block cache (empty rows are borrowed).
  static QueryEngine ForMappedStore(const collection::Collection& collection,
                                    const storage::MappedLinLoutStore& store,
                                    QueryEngineOptions options = {});
  static QueryEngine ForClosure(const collection::Collection& collection,
                                const TransitiveClosureIndex& closure,
                                bool with_distance,
                                QueryEngineOptions options = {});

  /// Single reachability probe (bypasses the batch machinery).
  ReachabilityResponse Reachability(const ReachabilityRequest& request) const;

  /// @brief Batched reachability over one request.
  ///
  /// Dedup guarantee: repeated (u, v) pairs are evaluated once per
  /// batch and the answers scattered back, so the response is
  /// position-for-position what per-pair evaluation would return.
  /// Label sets come from the decoded-block cache for block-organized
  /// backends and are borrowed zero-copy otherwise; see BatchStats for
  /// the per-call route accounting.
  BatchResponse Batch(const BatchRequest& request) const;

  /// Wildcard path query ("//a//~b//c") evaluated against the backend.
  Result<PathQueryResponse> Query(const PathQueryRequest& request) const;

  // Axis enumeration pass-throughs.
  std::vector<NodeId> Descendants(NodeId u) const {
    return backend_->Descendants(u);
  }
  std::vector<NodeId> Ancestors(NodeId u) const {
    return backend_->Ancestors(u);
  }

  const ReachabilityBackend& backend() const { return *backend_; }
  const collection::Collection& collection() const { return *collection_; }
  const query::TagIndex& tags() const { return *tags_; }
  /// The decoded-block cache: the engine's own, or the shared one, whose
  /// counters then include every engine that uses it. Backends on the
  /// borrow route never touch it — expect zeros there.
  const LabelCache& label_cache() const { return *cache_; }
  /// One relaxed snapshot of its counters — byte accounting
  /// (bytes_resident, byte_budget) and decode accounting
  /// (blocks_decoded, decode_nanos) included. Safe from any thread.
  LabelCache::Stats CacheStats() const { return cache_->StatsSnapshot(); }

 private:
  /// The blocks one Batch call joins rows of, pinned until it returns.
  class BatchBlocks;

  /// One label to join — LOUT(node) when `out`, else LIN(node) — by
  /// one of two routes: the block route (its row in pinned block
  /// `block` of `blocks`; empty when that block failed to decode) or,
  /// when `block` is BatchBlocks::kBorrowed, the borrow route (the
  /// backend lends its own storage — a cover's packed columns, or a
  /// file's empty row), counted into `stats`. The view stays valid
  /// while `blocks` lives, whatever evictions do meanwhile.
  twohop::JoinView JoinLabel(bool out, NodeId node, const BatchBlocks& blocks,
                             uint32_t block, BatchStats* stats) const;

  const collection::Collection* collection_;
  std::unique_ptr<ReachabilityBackend> backend_;
  std::shared_ptr<const query::TagIndex> tags_;
  std::optional<query::TagSimilarity> similarity_;
  std::shared_ptr<LabelCache> cache_;
};

}  // namespace hopi::engine
