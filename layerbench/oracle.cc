#include "oracle.h"

#include <algorithm>

namespace hopi::layerbench {

void BfsOracle::Fit() {
  size_t n = graph_->NumNodes();
  if (dist_.size() < n) {
    dist_.resize(n, 0);
    stamp_.resize(n, 0);
    bwd_stamp_.resize(n, 0);
  }
}

uint32_t BfsOracle::NextEpoch() {
  if (++epoch_ == 0) {  // wrapped: clear every stamp once
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(bwd_stamp_.begin(), bwd_stamp_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

uint32_t BfsOracle::Distance(NodeId u, NodeId v) {
  Fit();
  if (u != source_) {
    uint32_t epoch = NextEpoch();
    source_ = u;
    frontier_.assign(1, u);
    stamp_[u] = epoch;
    dist_[u] = 0;
    for (uint32_t depth = 1; !frontier_.empty(); ++depth) {
      next_.clear();
      for (NodeId x : frontier_) {
        for (NodeId y : graph_->OutNeighbors(x)) {
          if (stamp_[y] == epoch) continue;
          stamp_[y] = epoch;
          dist_[y] = depth;
          next_.push_back(y);
        }
      }
      frontier_.swap(next_);
    }
  }
  return stamp_[v] == epoch_ ? dist_[v] : kNoPath;
}

bool BfsOracle::Reachable(NodeId u, NodeId v) {
  if (u == v) return true;
  Fit();
  source_ = kInvalidNode;  // the stamps below clobber any cached search
  uint32_t epoch = NextEpoch();
  frontier_.assign(1, u);
  bwd_frontier_.assign(1, v);
  stamp_[u] = epoch;
  bwd_stamp_[v] = epoch;
  while (!frontier_.empty() && !bwd_frontier_.empty()) {
    bool forward = frontier_.size() <= bwd_frontier_.size();
    std::vector<NodeId>& grow = forward ? frontier_ : bwd_frontier_;
    std::vector<uint32_t>& mine = forward ? stamp_ : bwd_stamp_;
    const std::vector<uint32_t>& theirs = forward ? bwd_stamp_ : stamp_;
    next_.clear();
    for (NodeId x : grow) {
      const std::vector<NodeId>& adj =
          forward ? graph_->OutNeighbors(x) : graph_->InNeighbors(x);
      for (NodeId y : adj) {
        if (theirs[y] == epoch) return true;
        if (mine[y] == epoch) continue;
        mine[y] = epoch;
        next_.push_back(y);
      }
    }
    grow.swap(next_);
  }
  return false;
}

size_t CountPathMatches(const collection::Collection& collection,
                        const std::vector<std::string>& steps) {
  const Digraph& g = collection.ElementGraph();
  auto live = [&](NodeId e) {
    collection::DocId d = collection.DocOf(e);
    return d != collection::kInvalidDoc && collection.IsLive(d);
  };
  auto matches = [&](NodeId e, const std::string& tag) {
    return live(e) && (tag == "*" || collection.TagOf(e) == tag);
  };
  std::vector<NodeId> survivors;
  for (NodeId e = 0; e < collection.NumElements(); ++e) {
    if (!steps.empty() && matches(e, steps[0])) survivors.push_back(e);
  }
  for (size_t s = 1; s < steps.size(); ++s) {
    // Strict descendants of the survivors: BFS seeded with their
    // out-neighbors (a survivor counts only if a cycle re-reaches it).
    std::vector<bool> seen(collection.NumElements(), false);
    std::vector<NodeId> frontier;
    for (NodeId x : survivors) {
      for (NodeId y : g.OutNeighbors(x)) {
        if (!seen[y]) {
          seen[y] = true;
          frontier.push_back(y);
        }
      }
    }
    while (!frontier.empty()) {
      NodeId x = frontier.back();
      frontier.pop_back();
      for (NodeId y : g.OutNeighbors(x)) {
        if (!seen[y]) {
          seen[y] = true;
          frontier.push_back(y);
        }
      }
    }
    survivors.clear();
    for (NodeId e = 0; e < collection.NumElements(); ++e) {
      if (seen[e] && matches(e, steps[s])) survivors.push_back(e);
    }
  }
  return survivors.size();
}

}  // namespace hopi::layerbench
