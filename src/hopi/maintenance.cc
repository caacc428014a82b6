// Incremental index maintenance (paper Sec 6).
#include <algorithm>
#include <cassert>
#include <deque>

#include "graph/bitset.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "hopi/index.h"
#include "hopi/join.h"
#include "twohop/builder.h"
#include "util/timer.h"

namespace hopi {

namespace {

using collection::DocId;

/// Copies `label`'s entries, dropping every entry whose center is in
/// `mask`.
std::vector<twohop::LabelEntry> FilterEntries(const twohop::JoinView& label,
                                              const DynamicBitset& mask) {
  std::vector<twohop::LabelEntry> out;
  out.reserve(label.n);
  for (twohop::LabelEntry e : label) {
    if (!mask.Test(e.center)) out.push_back(e);
  }
  return out;
}

/// Sorted union of two entry vectors keeping minimum distances.
std::vector<twohop::LabelEntry> MergeEntries(
    std::vector<twohop::LabelEntry> a,
    const std::vector<twohop::LabelEntry>& b) {
  for (const twohop::LabelEntry& e : b) {
    auto it = std::lower_bound(a.begin(), a.end(), e.center,
                               [](const twohop::LabelEntry& x, NodeId c) {
                                 return x.center < c;
                               });
    if (it != a.end() && it->center == e.center) {
      it->dist = std::min(it->dist, e.dist);
    } else {
      a.insert(it, e);
    }
  }
  return a;
}

}  // namespace

Status HopiIndex::InsertDocument(DocId doc) {
  if (doc >= collection_->NumDocuments() || !collection_->IsLive(doc)) {
    return Status::InvalidArgument("document not live");
  }
  cover_.EnsureNodes(collection_->NumElements());

  // Sec 6.1: treat the document as a new partition — compute its own
  // 2-hop cover over its internal subgraph (tree + intra links)...
  const auto& elements = collection_->ElementsOf(doc);
  InducedSubgraph sub =
      BuildInducedSubgraph(collection_->ElementGraph(), elements);
  twohop::CoverBuildOptions options;
  options.with_distance = with_distance_;
  auto cover = twohop::BuildCover(sub.graph, options);
  if (!cover.ok()) return cover.status();
  for (NodeId local = 0; local < cover->NumNodes(); ++local) {
    NodeId global = sub.Global(local);
    for (twohop::LabelEntry e : cover->In(local)) {
      cover_.AddIn(global, sub.Global(e.center), e.dist);
    }
    for (twohop::LabelEntry e : cover->Out(local)) {
      cover_.AddOut(global, sub.Global(e.center), e.dist);
    }
  }

  // ...then merge every link between the document and the rest of the
  // collection with the old partition-merging algorithm (Sec 3.3).
  for (const collection::Link& l : collection_->Links()) {
    DocId ds = collection_->DocOf(l.source);
    DocId dt = collection_->DocOf(l.target);
    if (ds == dt) continue;
    if (ds == doc || dt == doc) {
      MergeLink(l.source, l.target, with_distance_, &cover_);
    }
  }
  return Status::OK();
}

bool HopiIndex::SeparatesDocumentGraph(DocId doc) const {
  // di separates G_D iff removing it disconnects every (ancestor,
  // descendant) pair: multi-source BFS from Anc(di) avoiding di must not
  // reach any member of Desc(di).
  const Digraph& gd = collection_->DocumentGraph();
  std::vector<NodeId> anc = ReachingTo(gd, doc);
  std::vector<NodeId> desc = ReachableFrom(gd, doc);
  std::vector<bool> is_desc(gd.NumNodes(), false);
  for (NodeId d : desc) {
    if (d != doc) is_desc[d] = true;
  }
  // A document on a document-level cycle through `doc` is both an
  // ancestor and a descendant, so Theorem 2's premise (disjoint VA/VD)
  // does not hold: the fast path's purge masks would overlap and strip
  // a document's own centers from its labels (found by the randomized
  // differential harness). Cyclic neighborhoods are never separated.
  for (NodeId a : anc) {
    if (a != doc && is_desc[a]) return false;
  }
  std::vector<bool> seen(gd.NumNodes(), false);
  seen[doc] = true;  // never traverse through di
  std::deque<NodeId> queue;
  for (NodeId a : anc) {
    if (a != doc && !seen[a]) {
      seen[a] = true;
      queue.push_back(a);
    }
  }
  while (!queue.empty()) {
    NodeId x = queue.front();
    queue.pop_front();
    for (NodeId y : gd.OutNeighbors(x)) {
      if (seen[y]) continue;
      if (is_desc[y]) return false;  // a still reaches d without di
      seen[y] = true;
      queue.push_back(y);
    }
  }
  return true;
}

Status HopiIndex::DeleteDocument(DocId doc, DeleteStats* stats) {
  DeleteStats local;
  if (stats == nullptr) stats = &local;
  if (doc >= collection_->NumDocuments() || !collection_->IsLive(doc)) {
    return Status::InvalidArgument("document not live");
  }
  // The collection may have grown (ingests) since the last index update.
  cover_.EnsureNodes(collection_->NumElements());
  Stopwatch total;
  Stopwatch septest;
  bool separates = SeparatesDocumentGraph(doc);
  stats->separation_test_seconds = septest.ElapsedSeconds();
  stats->separated = separates;
  Status status = separates ? DeleteDocumentFast(doc)
                            : DeleteDocumentGeneral(doc, stats);
  stats->total_seconds = total.ElapsedSeconds();
  return status;
}

Status HopiIndex::DeleteDocumentFast(DocId doc) {
  // Theorem 2. VA = elements of document-level ancestors, VD = elements of
  // document-level descendants, Vdi = elements of the document itself.
  const Digraph& gd = collection_->DocumentGraph();
  std::vector<NodeId> anc_docs = ReachingTo(gd, doc);
  std::vector<NodeId> desc_docs = ReachableFrom(gd, doc);

  DynamicBitset vdi(collection_->NumElements());
  for (NodeId e : collection_->ElementsOf(doc)) vdi.Set(e);

  DynamicBitset vdi_or_vd = vdi;  // centers to purge from VA's Lout
  std::vector<DocId> va_docs, vd_docs;
  for (NodeId d : desc_docs) {
    if (d == doc) continue;
    vd_docs.push_back(d);
    for (NodeId e : collection_->ElementsOf(d)) vdi_or_vd.Set(e);
  }
  DynamicBitset vdi_or_va = vdi;  // centers to purge from VD's Lin
  for (NodeId a : anc_docs) {
    if (a == doc) continue;
    va_docs.push_back(a);
    for (NodeId e : collection_->ElementsOf(a)) vdi_or_va.Set(e);
  }

  twohop::TwoHopCover* cover = cover_.mutable_cover();
  for (DocId a : va_docs) {
    for (NodeId e : collection_->ElementsOf(a)) {
      cover->SetOut(e, FilterEntries(cover->Out(e), vdi_or_vd));
    }
  }
  for (DocId d : vd_docs) {
    for (NodeId e : collection_->ElementsOf(d)) {
      cover->SetIn(e, FilterEntries(cover->In(e), vdi_or_va));
    }
  }
  for (NodeId e : collection_->ElementsOf(doc)) cover->ClearNode(e);
  cover_.RebuildReverseMaps();
  return collection_->RemoveDocument(doc);
}

Status HopiIndex::DeleteDocumentGeneral(DocId doc, DeleteStats* stats) {
  // Theorem 3. Element-level ancestor/descendant sets of VE(di), computed
  // on the graph *before* removal.
  const Digraph& ge = collection_->ElementGraph();
  const auto& doc_elements = collection_->ElementsOf(doc);

  // A_di / D_di include VE(di) per the paper; we track the outside parts
  // and handle VE(di) by clearing its labels wholesale.
  std::vector<NodeId> adi_all;  // ancestors incl. doc elements
  {
    // Multi-source reverse BFS.
    std::vector<bool> seen(ge.NumNodes(), false);
    std::deque<NodeId> queue;
    for (NodeId e : doc_elements) {
      seen[e] = true;
      queue.push_back(e);
    }
    while (!queue.empty()) {
      NodeId x = queue.front();
      queue.pop_front();
      for (NodeId y : ge.InNeighbors(x)) {
        if (!seen[y]) {
          seen[y] = true;
          queue.push_back(y);
        }
      }
    }
    for (NodeId v = 0; v < ge.NumNodes(); ++v) {
      if (seen[v]) adi_all.push_back(v);
    }
  }
  std::vector<NodeId> ddi_all = ReachableFromAll(ge, doc_elements);

  DynamicBitset in_doc(collection_->NumElements());
  for (NodeId e : doc_elements) in_doc.Set(e);
  DynamicBitset adi_mask(collection_->NumElements());
  std::vector<NodeId> adi_outside;
  for (NodeId a : adi_all) {
    adi_mask.Set(a);
    if (!in_doc.Test(a)) adi_outside.push_back(a);
  }
  std::vector<NodeId> ddi_outside;
  for (NodeId d : ddi_all) {
    if (!in_doc.Test(d)) ddi_outside.push_back(d);
  }

  // Remove the document from the collection; the element graph now is the
  // post-deletion graph. The deleted document's elements lose their
  // labels entirely; the region merge never touches them (they are
  // isolated now).
  HOPI_RETURN_NOT_OK(collection_->RemoveDocument(doc));
  for (NodeId e : doc_elements) cover_.mutable_cover()->ClearNode(e);

  HOPI_ASSIGN_OR_RETURN(size_t region,
                        MergeRecomputedRegion(adi_outside, adi_mask,
                                              ddi_outside));
  stats->recompute_fraction =
      collection_->NumElements() == 0
          ? 0.0
          : static_cast<double>(region) /
                static_cast<double>(collection_->NumElements());
  return Status::OK();
}

Result<size_t> HopiIndex::MergeRecomputedRegion(
    const std::vector<NodeId>& ancestors, const DynamicBitset& dropped_centers,
    const std::vector<NodeId>& descendants) {
  // Partial closure recomputation: everything the ancestors reach in the
  // new graph, then a fresh 2-hop cover L-hat over that region.
  const Digraph& ge = collection_->ElementGraph();
  std::vector<NodeId> region = ReachableFromAll(ge, ancestors);
  InducedSubgraph sub = BuildInducedSubgraph(ge, region);
  twohop::CoverBuildOptions options;
  options.with_distance = with_distance_;
  auto lhat = twohop::BuildCover(sub.graph, options);
  if (!lhat.ok()) return lhat.status();

  // L' := L ∪ L-hat, except: Lout is *replaced* for the ancestors and Lin
  // is filtered of the dropped centers, then extended, for the
  // descendants. First collect L-hat's entries per global node.
  twohop::TwoHopCover* cover = cover_.mutable_cover();
  std::vector<std::vector<twohop::LabelEntry>> lhat_in(cover->NumNodes());
  std::vector<std::vector<twohop::LabelEntry>> lhat_out(cover->NumNodes());
  auto by_center = [](const twohop::LabelEntry& a,
                      const twohop::LabelEntry& b) {
    return a.center < b.center;
  };
  for (NodeId local = 0; local < lhat->NumNodes(); ++local) {
    NodeId global = sub.Global(local);
    for (twohop::LabelEntry e : lhat->In(local)) {
      lhat_in[global].push_back({sub.Global(e.center), e.dist});
    }
    for (twohop::LabelEntry e : lhat->Out(local)) {
      lhat_out[global].push_back({sub.Global(e.center), e.dist});
    }
    std::sort(lhat_in[global].begin(), lhat_in[global].end(), by_center);
    std::sort(lhat_out[global].begin(), lhat_out[global].end(), by_center);
  }

  // Ancestors: L'out(a) := L-hat_out(a).
  for (NodeId a : ancestors) {
    cover->SetOut(a, lhat_out[a]);
    lhat_out[a].clear();
  }
  // Descendants: L'in(d) := (Lin(d) \ dropped) ∪ L-hat_in(d).
  for (NodeId d : descendants) {
    cover->SetIn(d, MergeEntries(FilterEntries(cover->In(d), dropped_centers),
                                 lhat_in[d]));
    lhat_in[d].clear();
  }
  // Everyone else in the recomputed region: plain union.
  for (NodeId v = 0; v < cover->NumNodes(); ++v) {
    for (const twohop::LabelEntry& e : lhat_in[v]) {
      cover->AddIn(v, e.center, e.dist);
    }
    for (const twohop::LabelEntry& e : lhat_out[v]) {
      cover->AddOut(v, e.center, e.dist);
    }
  }
  cover_.RebuildReverseMaps();
  return region.size();
}

Status HopiIndex::DeleteLink(NodeId u, NodeId v) {
  cover_.EnsureNodes(collection_->NumElements());
  const Digraph& ge = collection_->ElementGraph();
  if (!ge.HasEdge(u, v)) {
    return Status::NotFound("no link " + std::to_string(u) + " -> " +
                            std::to_string(v));
  }

  // Ancestors of u (incl. u) and descendants of v (incl. v) before the
  // removal — the candidate endpoints of lost connections.
  std::vector<NodeId> a_set = ReachingTo(ge, u);
  std::vector<NodeId> d_set = ReachableFrom(ge, v);

  HOPI_RETURN_NOT_OK(collection_->RemoveLink(u, v));

  // Fast path (plain covers only): if u still reaches v in the graph, no
  // connection was lost and the cover stays exact. Distance-aware covers
  // cannot take it — surviving connections may have gotten longer.
  if (!with_distance_ && hopi::IsReachable(ge, u, v)) {
    return Status::OK();
  }

  // General path, mirroring Theorem 3 with A_di := ancestors of u and
  // D_di := descendants of v.
  DynamicBitset a_mask(collection_->NumElements());
  for (NodeId a : a_set) a_mask.Set(a);
  return MergeRecomputedRegion(a_set, a_mask, d_set).status();
}

Status HopiIndex::ReplaceDocument(DocId old_doc, DocId new_doc) {
  // Sec 6.3: drop the old version, index the new one.
  HOPI_RETURN_NOT_OK(DeleteDocument(old_doc));
  return InsertDocument(new_doc);
}

}  // namespace hopi
