#include "twohop/reverse_index.h"

#include <algorithm>

namespace hopi::twohop {

IndexedCover::IndexedCover(TwoHopCover cover) : cover_(std::move(cover)) {
  RebuildReverseMaps();
}

void IndexedCover::RebuildReverseMaps() {
  size_t n = cover_.NumNodes();
  rin_.assign(n, {});
  rout_.assign(n, {});
  for (NodeId v = 0; v < n; ++v) {
    for (LabelEntry e : cover_.In(v)) rin_[e.center].push_back(v);
    for (LabelEntry e : cover_.Out(v)) rout_[e.center].push_back(v);
  }
}

void IndexedCover::EnsureNodes(size_t n) {
  cover_.EnsureNodes(n);
  if (rin_.size() < n) {
    rin_.resize(n);
    rout_.resize(n);
  }
}

bool IndexedCover::AddIn(NodeId v, NodeId center, uint32_t dist) {
  if (cover_.AddIn(v, center, dist)) {
    rin_[center].push_back(v);
    return true;
  }
  return false;
}

bool IndexedCover::AddOut(NodeId u, NodeId center, uint32_t dist) {
  if (cover_.AddOut(u, center, dist)) {
    rout_[center].push_back(u);
    return true;
  }
  return false;
}

std::vector<NodeId> IndexedCover::Ancestors(NodeId u) const {
  // a ->* u  iff  (Lout(a) ∪ {a}) ∩ (Lin(u) ∪ {u}) != ∅. So the ancestors
  // are the centers in Lin(u) themselves plus every node whose Lout
  // mentions one of those centers (or u).
  std::vector<NodeId> result;
  auto consider = [&result, u](NodeId a) {
    if (a != u) result.push_back(a);
  };
  for (LabelEntry e : cover_.In(u)) {
    consider(e.center);
    for (NodeId a : rout_[e.center]) consider(a);
  }
  for (NodeId a : rout_[u]) consider(a);
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<NodeId> IndexedCover::Descendants(NodeId u) const {
  std::vector<NodeId> result;
  auto consider = [&result, u](NodeId d) {
    if (d != u) result.push_back(d);
  };
  for (LabelEntry e : cover_.Out(u)) {
    consider(e.center);
    for (NodeId d : rin_[e.center]) consider(d);
  }
  for (NodeId d : rin_[u]) consider(d);
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

namespace {

std::vector<NodeId> Holders(const std::vector<std::vector<NodeId>>& reverse,
                            std::span<const NodeId> centers) {
  std::vector<NodeId> result;
  for (NodeId c : centers) {
    if (c < reverse.size()) {
      result.insert(result.end(), reverse[c].begin(), reverse[c].end());
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace

std::vector<NodeId> IndexedCover::InHolders(
    std::span<const NodeId> centers) const {
  return Holders(rin_, centers);
}

std::vector<NodeId> IndexedCover::OutHolders(
    std::span<const NodeId> centers) const {
  return Holders(rout_, centers);
}

}  // namespace hopi::twohop
