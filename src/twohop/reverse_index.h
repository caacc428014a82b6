// Reverse (center -> labeled nodes) indexes over a 2-hop cover, plus
// ancestor/descendant enumeration.
//
// The cover answers "is u connected to v" directly, but enumerating all
// ancestors or descendants of a node needs the inverted view — this is
// exactly HOPI's *backward* database index (paper Sec 3.4: a second index
// on (INID, ID) / (OUTID, ID)). The joining and maintenance algorithms
// (Sec 3.3, 4.1, 6) all enumerate ancestors/descendants "in the current
// cover", so this index supports incremental additions in lockstep with
// the cover.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "twohop/cover.h"

namespace hopi::twohop {

/// A TwoHopCover paired with incrementally maintained reverse maps.
/// All label additions must go through this wrapper to stay in sync.
class IndexedCover {
 public:
  IndexedCover() = default;
  /// Takes ownership of `cover` and builds the reverse maps (O(|L|)).
  explicit IndexedCover(TwoHopCover cover);

  const TwoHopCover& cover() const { return cover_; }
  /// Mutable access for callers that rebuild the reverse maps afterwards
  /// (bulk deletion paths) — call RebuildReverseMaps() when done.
  TwoHopCover* mutable_cover() { return &cover_; }
  void RebuildReverseMaps();

  void EnsureNodes(size_t n);
  size_t NumNodes() const { return cover_.NumNodes(); }

  /// Synchronized label additions.
  bool AddIn(NodeId v, NodeId center, uint32_t dist = 0);
  bool AddOut(NodeId u, NodeId center, uint32_t dist = 0);

  /// All strict ancestors of u according to the cover (nodes a != u with
  /// a ->* u). Sorted ascending.
  std::vector<NodeId> Ancestors(NodeId u) const;

  /// All strict descendants of u. Sorted ascending.
  std::vector<NodeId> Descendants(NodeId u) const;

  /// Rows of the backward index itself: every node whose Lin (InHolders)
  /// or Lout (OutHolders) holds one of `centers`. Sorted ascending.
  std::vector<NodeId> InHolders(std::span<const NodeId> centers) const;
  std::vector<NodeId> OutHolders(std::span<const NodeId> centers) const;

 private:
  TwoHopCover cover_;
  // center -> nodes that mention it; may contain duplicates of nodes only
  // after bulk rebuilds (never via AddIn/AddOut, which are idempotent
  // through the cover).
  std::vector<std::vector<NodeId>> rin_;
  std::vector<std::vector<NodeId>> rout_;
};

}  // namespace hopi::twohop
