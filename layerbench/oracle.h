// The benchmark's correctness oracle: plain breadth-first search over
// the element graph, sharing no code with the index, the engine or the
// server it checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "graph/digraph.h"

namespace hopi::layerbench {

inline constexpr uint32_t kNoPath = UINT32_MAX;

class BfsOracle {
 public:
  /// `graph` must outlive the oracle; it may grow or change between
  /// calls as long as Invalidate() is called after each change.
  explicit BfsOracle(const Digraph* graph) : graph_(graph) {}

  /// Shortest u -> v hop count (0 for u == v), kNoPath when v is
  /// unreachable. One full BFS per distinct source: consecutive calls
  /// with the same u reuse it, so callers should group checks by u.
  uint32_t Distance(NodeId u, NodeId v);

  /// u ->* v by bidirectional BFS (reflexive). Cheaper than Distance
  /// for one-off pairs on a graph that keeps changing.
  bool Reachable(NodeId u, NodeId v);

  /// Forgets cached searches (call after the graph changed).
  void Invalidate() { source_ = kInvalidNode; }

 private:
  void Fit();
  uint32_t NextEpoch();

  const Digraph* graph_;
  NodeId source_ = kInvalidNode;
  std::vector<uint32_t> dist_;
  std::vector<uint32_t> stamp_;     // dist_ valid where stamp_ == epoch_
  std::vector<uint32_t> bwd_stamp_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> frontier_, next_, bwd_frontier_;
};

/// Number of distinct elements bound to the last step of a descendant
/// chain "//t1//t2//..." (a tag or "*" per step): step 1 matches every
/// live element with tag t1; step k+1 keeps the t(k+1) elements reachable
/// over at least one edge from some survivor of step k.
size_t CountPathMatches(const collection::Collection& collection,
                        const std::vector<std::string>& steps);

}  // namespace hopi::layerbench
