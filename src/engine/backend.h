// ReachabilityBackend: the pluggable access-path seam of the query layer.
//
// The paper's query section (Sec 5.1) treats the 2-hop cover as one
// access path among several — the in-memory labels, the LIN/LOUT
// index-organized tables, and plain traversal / materialized closure.
// This interface captures the operations every access path must answer
// so the QueryEngine facade (engine/engine.h) and the path evaluator
// (query/path_query.h) can run against any of them interchangeably.
//
// Adapters for the three concrete access paths live in
// engine/backends.h. The interface is header-only on purpose: lower
// layers (query) implement against it without linking the engine
// library, which keeps the module graph acyclic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "storage/compress.h"
#include "twohop/cover.h"
#include "util/result.h"

namespace hopi::engine {

/// A decoded block of compressed label rows (storage/compress.h),
/// shared between the engine's byte-budgeted cache and every in-flight
/// view into it. Immutable once decoded.
using LabelBlock = std::shared_ptr<const storage::DecodedBlock>;

/// A single (source, target) reachability probe.
using NodePair = std::pair<NodeId, NodeId>;

class ReachabilityBackend {
 public:
  virtual ~ReachabilityBackend() = default;

  /// Short identifier for stats and bench tables ("hopi", "mapped",
  /// "closure", ...).
  virtual std::string_view Name() const = 0;

  /// True when Distance() returns exact shortest-path lengths; plain
  /// backends report 0 for every connected pair.
  virtual bool with_distance() const = 0;

  // ---- scalar queries (the HopiIndex surface) ----

  /// True iff u ->* v in the element-level graph (reflexive).
  virtual bool IsReachable(NodeId u, NodeId v) const = 0;

  /// Shortest connection length u -> v, or nullopt when unconnected.
  virtual std::optional<uint32_t> Distance(NodeId u, NodeId v) const = 0;

  /// All strict descendants of u (the wildcard // axis), sorted.
  virtual std::vector<NodeId> Descendants(NodeId u) const = 0;

  /// All strict ancestors of u, sorted.
  virtual std::vector<NodeId> Ancestors(NodeId u) const = 0;

  // ---- vectorized queries ----

  /// Batch hook: out[i] = IsReachable(pairs[i]). The default loops over
  /// the scalar call; backends with a cheaper bulk path override it.
  /// Callers that want cross-probe dedup and label caching should go
  /// through QueryEngine::Batch instead of calling this directly.
  virtual std::vector<bool> TestConnections(
      std::span<const NodePair> pairs) const {
    std::vector<bool> out(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      out[i] = IsReachable(pairs[i].first, pairs[i].second);
    }
    return out;
  }

  // ---- label export ----
  //
  // The QueryEngine batch path obtains each probe's LOUT(u)/LIN(v)
  // label as a twohop::JoinView through exactly one of two routes:
  //
  //   block  — compressed storage names the block holding a node's row
  //            (Out/InLabelBlock below); the engine decodes it once and
  //            keeps it in its byte-budgeted cache.
  //   borrow — BorrowOutJoin/BorrowInJoin lend a view into storage the
  //            backend already owns (an in-memory cover's packed
  //            columns, or the empty row of a file's node without a
  //            block). Zero copies; the cache is bypassed entirely.

  /// @brief True when the backend stores 2-hop labels and lends them
  /// through the hooks below. Label-less backends (materialized
  /// closure, BFS) return false and the batch path falls back to
  /// TestConnections.
  virtual bool HasLabels() const { return false; }

  /// @brief LOUT(u) as a borrowed kernel view (the borrow route).
  /// @return A view that MUST stay valid and immutable for the
  /// backend's lifetime — the engine may hold it across an entire
  /// batch. Backends that would have to decode return nullopt (the
  /// default) and serve the node through the block route instead. An
  /// engaged empty view is a valid answer ("this node has no label
  /// rows"); so is one for an out-of-range node.
  virtual std::optional<twohop::JoinView> BorrowOutJoin(NodeId /*u*/) const {
    return std::nullopt;
  }

  /// @brief LIN(v) as a borrowed kernel view; contract as
  /// BorrowOutJoin.
  virtual std::optional<twohop::JoinView> BorrowInJoin(NodeId /*v*/) const {
    return std::nullopt;
  }

  // ---- block export (the compressed-label route) ----
  //
  // Backends over block-compressed storage (a v4 MappedLinLoutStore)
  // have no rows to lend. Instead they name the block that holds a
  // node's row; the engine decodes it once, keeps it in its
  // byte-budgeted cache, and serves every row of the block from
  // memory. Handles are opaque, dense, and stable for the backend's
  // lifetime (they double as cache keys). A backend that returns a
  // handle from Out/InLabelBlock MUST decode it via DecodeLabelBlock.

  /// @brief Handle of the block holding LOUT(u), or nullopt when this
  /// backend has no block-organized labels or u has no rows (the
  /// borrow route handles those).
  virtual std::optional<uint64_t> OutLabelBlock(NodeId /*u*/) const {
    return std::nullopt;
  }

  /// @brief Handle of the block holding LIN(v); contract as
  /// OutLabelBlock.
  virtual std::optional<uint64_t> InLabelBlock(NodeId /*v*/) const {
    return std::nullopt;
  }

  /// @brief Decodes one block (checksum + structural validation).
  /// Corruption is only reachable when the underlying file was opened
  /// lazily or tampered with after open.
  virtual Result<LabelBlock> DecodeLabelBlock(uint64_t /*handle*/) const {
    return Status::Unsupported("backend has no block-organized labels");
  }
};

}  // namespace hopi::engine
