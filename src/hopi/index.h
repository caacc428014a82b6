// HopiIndex: the paper's connection index.
//
// Wraps a 2-hop cover over the element-level graph of an XML collection
// and offers reachability / distance / ancestor / descendant queries plus
// the incremental maintenance operations of Section 6. The index holds a
// mutable pointer to its collection: maintenance operations sequence the
// collection mutation and the label updates themselves, because the
// deletion algorithms need the graph both before and after the change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "collection/collection.h"
#include "twohop/reverse_index.h"
#include "util/result.h"

namespace hopi {

class DynamicBitset;

/// Outcome of a document deletion, for the Sec 7.3 experiments.
struct DeleteStats {
  bool separated = false;        // Theorem-2 fast path applied
  double separation_test_seconds = 0.0;
  double total_seconds = 0.0;
  /// Size of the partially recomputed closure region (Theorem 3 only),
  /// as a fraction of all elements. Paper: up to 5% for hub documents.
  double recompute_fraction = 0.0;
};

class HopiIndex {
 public:
  /// Takes a cover previously built by hopi::BuildIndex (global element
  /// ids) and the collection it indexes.
  HopiIndex(collection::Collection* collection, twohop::TwoHopCover cover,
            bool with_distance);

  // ---- queries ----

  /// True iff u ->* v in the element-level graph (reflexive).
  bool IsReachable(NodeId u, NodeId v) const {
    return cover_.cover().IsConnected(u, v);
  }

  /// Shortest path length u -> v, or nullopt when unconnected.
  /// Exact only for distance-aware indexes.
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const {
    return cover_.cover().Distance(u, v);
  }

  /// All strict descendants of u (the wildcard // axis), sorted.
  std::vector<NodeId> Descendants(NodeId u) const {
    return cover_.Descendants(u);
  }

  /// All strict ancestors of u, sorted.
  std::vector<NodeId> Ancestors(NodeId u) const { return cover_.Ancestors(u); }

  const twohop::TwoHopCover& cover() const { return cover_.cover(); }
  const twohop::IndexedCover& indexed_cover() const { return cover_; }
  bool with_distance() const { return with_distance_; }
  uint64_t CoverSize() const { return cover_.cover().Size(); }
  collection::Collection* collection() const { return collection_; }

  // ---- incremental maintenance (paper Sec 6) ----
  //
  // All maintenance operations mutate labels in place and must never
  // run concurrently with queries on the same index. The serving
  // integration is snapshot-based (engine/snapshot.h): keep a private
  // maintenance index, apply the Sec 6 operations to it, then
  // BackendSnapshot::Freeze() a deep copy and EnginePool::Swap() it in
  // — readers finish on the old snapshot while new requests see the
  // updated one.

  /// Inserts a new element-level link (u, v) into the collection AND the
  /// index (Sec 6.1: v becomes the center for all new connections).
  Status InsertLink(NodeId u, NodeId v);

  /// Indexes a document that was just ingested into the collection but is
  /// not yet covered by the index (Sec 6.1: treat the document as a new
  /// partition, then merge each of its cross links).
  Status InsertDocument(collection::DocId doc);

  /// Deletes a document from the collection and the index (Sec 6.2).
  /// Applies the Theorem-2 fast path when the document separates the
  /// document-level graph, the general Theorem-3 algorithm otherwise.
  Status DeleteDocument(collection::DocId doc, DeleteStats* stats = nullptr);

  /// Deletes a single link (Sec 6.2's "similar algorithm").
  Status DeleteLink(NodeId u, NodeId v);

  /// Replaces a document wholesale (Sec 6.3: drop + reinsert). `doc` is
  /// deleted; the replacement must already be ingested under a new DocId.
  Status ReplaceDocument(collection::DocId old_doc,
                         collection::DocId new_doc);

  /// True iff removing `doc` disconnects every document-level
  /// ancestor/descendant pair (the Theorem-2 precondition). Exposed for
  /// the maintenance bench.
  bool SeparatesDocumentGraph(collection::DocId doc) const;

  // ---- rebuild advisory (paper Sec 6 intro) ----
  //
  // "Over time, the space efficiency of the 2-hop cover that HOPI
  // maintains may degrade. Then occasional rebuilds of the index may be
  // considered, using the efficient algorithm presented in Section 4."

  /// Cover entries per element now vs. at construction time. 1.0 = as
  /// compact as the original build; grows as incremental updates add
  /// redundant centers.
  double DegradationFactor() const;

  /// True when the per-element label density has grown past `threshold`
  /// times the density at build time — the cue to rebuild via BuildIndex.
  bool ShouldRebuild(double threshold = 2.0) const {
    return DegradationFactor() >= threshold;
  }

 private:
  Status DeleteDocumentFast(collection::DocId doc);
  Status DeleteDocumentGeneral(collection::DocId doc, DeleteStats* stats);
  /// Theorem 3's region merge, run after a removal: a fresh cover L-hat
  /// over everything `ancestors` reach in the new graph replaces their
  /// Lout; the descendants' Lin loses every center in `dropped_centers`
  /// and takes L-hat's; every other node adds L-hat's entries. Returns
  /// the region's size.
  Result<size_t> MergeRecomputedRegion(const std::vector<NodeId>& ancestors,
                                       const DynamicBitset& dropped_centers,
                                       const std::vector<NodeId>& descendants);

  collection::Collection* collection_;
  twohop::IndexedCover cover_;
  bool with_distance_;
  // Label density (entries per live element) right after construction;
  // denominator of DegradationFactor().
  double density_at_build_ = 0.0;
};

}  // namespace hopi
