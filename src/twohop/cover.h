// Two-hop labels and covers (paper Sec 3.1).
//
// Each node x carries a label L(x) = (Lin(x), Lout(x)). A connection
// (u, v) is covered when Lout(u) and Lin(v) share a center node. Following
// HOPI's storage rule (Sec 3.4) a node is never stored in its own label;
// every query treats x as an implicit member of both Lin(x) and Lout(x)
// with distance 0.
//
// Entries optionally carry the shortest distance to/from the center
// (Sec 5); plain covers simply keep dist == 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "twohop/join_view.h"

namespace hopi::twohop {

/// Result of joining one Lout label with one Lin label.
struct LabelJoinResult {
  bool connected = false;
  /// Minimum connection length implied by the labels; only computed
  /// when requested, nullopt when not connected.
  std::optional<uint32_t> distance;
};

/// A two-hop cover: Lin/Lout label sets for every node in [0, NumNodes).
/// Each label is stored once, as packed columns (centers ascending and
/// unique, their distances) plus its LabelSummary — the shape the join
/// kernels read directly.
class TwoHopCover {
 public:
  TwoHopCover() = default;
  explicit TwoHopCover(size_t num_nodes) : in_(num_nodes), out_(num_nodes) {}

  void EnsureNodes(size_t n);
  size_t NumNodes() const { return in_.size(); }

  /// Adds `center` to Lin(v) with distance `dist` (center ->* v). Skips
  /// self entries. If the center is already present, keeps the smaller
  /// distance. Returns true if the entry count grew.
  bool AddIn(NodeId v, NodeId center, uint32_t dist = 0);

  /// Adds `center` to Lout(u) with distance `dist` (u ->* center).
  bool AddOut(NodeId u, NodeId center, uint32_t dist = 0);

  /// Cover size |L| = sum over nodes of |Lin| + |Lout| (paper Sec 3.1).
  uint64_t Size() const { return size_; }

  /// Lin(v) / Lout(u) as packed kernel views with their summaries.
  /// Views are borrowed and invalidated by the next mutation of that
  /// node's label.
  JoinView In(NodeId v) const { return in_[v].View(); }
  JoinView Out(NodeId u) const { return out_[u].View(); }

  /// Reachability test: true iff u == v or Lout(u) ∪ {u} intersects
  /// Lin(v) ∪ {v}. O(|Lout(u)| + |Lin(v)|).
  bool IsConnected(NodeId u, NodeId v) const;

  /// Shortest distance u -> v implied by the labels: min over common
  /// centers of dist(u,w) + dist(w,v), with the implicit self entries.
  /// nullopt when not connected. Only meaningful for distance-aware
  /// covers (plain covers return 0 for every connected pair).
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const;

  /// Component-wise union with another cover over the same id space
  /// (paper Sec 3.3/4.1: partition covers are unified by label union).
  void UnionWith(const TwoHopCover& other);

  /// Removes every label entry of `v` — helper for the deletion paths.
  /// (Specific deletion logic lives in hopi/maintenance.)
  void ClearNode(NodeId v);

  /// Replaces Lin(v) wholesale (maintenance paths). `entries` must be
  /// sorted by center. Size is re-accounted.
  void SetIn(NodeId v, const std::vector<LabelEntry>& entries);
  void SetOut(NodeId u, const std::vector<LabelEntry>& entries);

  /// True if any label of any node mentions `center`.
  bool MentionsCenter(NodeId center) const;

 private:
  /// One node's Lin or Lout: parallel columns sorted by center, and a
  /// summary of exactly the centers present (Empty when none).
  struct Label {
    std::vector<uint32_t> centers;
    std::vector<uint32_t> dists;
    LabelSummary summary = LabelSummary::Empty();

    JoinView View() const;
    /// Adds or improves one entry; true if the entry count grew.
    bool Insert(NodeId center, uint32_t dist);
    void Assign(const std::vector<LabelEntry>& entries);
    bool Contains(NodeId center) const;
  };

  /// Swaps in `entries` as `label`, re-accounting Size().
  void Replace(Label* label, const std::vector<LabelEntry>& entries);

  std::vector<Label> in_;
  std::vector<Label> out_;
  uint64_t size_ = 0;
};

}  // namespace hopi::twohop
