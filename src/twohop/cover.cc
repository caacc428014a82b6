#include "twohop/cover.h"

#include <algorithm>
#include <cassert>

#include "twohop/join_kernel.h"

namespace hopi::twohop {

void TwoHopCover::EnsureNodes(size_t n) {
  if (in_.size() < n) {
    in_.resize(n);
    out_.resize(n);
  }
}

JoinView TwoHopCover::Label::View() const {
  JoinView v;
  v.centers = centers.data();
  v.dists = dists.data();
  v.n = centers.size();
  v.summary = summary;
  return v;
}

bool TwoHopCover::Label::Insert(NodeId center, uint32_t dist) {
  auto it = std::lower_bound(centers.begin(), centers.end(), center);
  size_t pos = static_cast<size_t>(it - centers.begin());
  if (it != centers.end() && *it == center) {
    dists[pos] = std::min(dists[pos], dist);
    return false;
  }
  centers.insert(it, center);
  dists.insert(dists.begin() + static_cast<std::ptrdiff_t>(pos), dist);
  summary.Add(center);
  return true;
}

void TwoHopCover::Label::Assign(const std::vector<LabelEntry>& entries) {
  assert(std::is_sorted(entries.begin(), entries.end(),
                        [](const LabelEntry& a, const LabelEntry& b) {
                          return a.center < b.center;
                        }));
  centers.resize(entries.size());
  dists.resize(entries.size());
  summary = LabelSummary::Empty();
  for (size_t i = 0; i < entries.size(); ++i) {
    centers[i] = entries[i].center;
    dists[i] = entries[i].dist;
    summary.Add(entries[i].center);
  }
}

bool TwoHopCover::Label::Contains(NodeId center) const {
  return std::binary_search(centers.begin(), centers.end(), center);
}

bool TwoHopCover::AddIn(NodeId v, NodeId center, uint32_t dist) {
  assert(v < in_.size());
  if (v == center) return false;  // implicit self entry
  if (!in_[v].Insert(center, dist)) return false;
  ++size_;
  return true;
}

bool TwoHopCover::AddOut(NodeId u, NodeId center, uint32_t dist) {
  assert(u < out_.size());
  if (u == center) return false;
  if (!out_[u].Insert(center, dist)) return false;
  ++size_;
  return true;
}

bool TwoHopCover::IsConnected(NodeId u, NodeId v) const {
  if (u == v) return true;
  return JoinViews(u, v, Out(u), In(v), /*want_distance=*/false).connected;
}

std::optional<uint32_t> TwoHopCover::Distance(NodeId u, NodeId v) const {
  if (u == v) return 0;
  return JoinViews(u, v, Out(u), In(v), /*want_distance=*/true).distance;
}

void TwoHopCover::UnionWith(const TwoHopCover& other) {
  EnsureNodes(other.NumNodes());
  for (NodeId v = 0; v < other.NumNodes(); ++v) {
    for (LabelEntry e : other.In(v)) AddIn(v, e.center, e.dist);
    for (LabelEntry e : other.Out(v)) AddOut(v, e.center, e.dist);
  }
}

void TwoHopCover::ClearNode(NodeId v) {
  assert(v < in_.size());
  size_ -= in_[v].centers.size() + out_[v].centers.size();
  in_[v] = Label{};
  out_[v] = Label{};
}

void TwoHopCover::Replace(Label* label,
                          const std::vector<LabelEntry>& entries) {
  size_ -= label->centers.size();
  label->Assign(entries);
  size_ += label->centers.size();
}

void TwoHopCover::SetIn(NodeId v, const std::vector<LabelEntry>& entries) {
  Replace(&in_[v], entries);
}

void TwoHopCover::SetOut(NodeId u, const std::vector<LabelEntry>& entries) {
  Replace(&out_[u], entries);
}

bool TwoHopCover::MentionsCenter(NodeId center) const {
  for (NodeId v = 0; v < in_.size(); ++v) {
    if (in_[v].Contains(center) || out_[v].Contains(center)) return true;
  }
  return false;
}

}  // namespace hopi::twohop
