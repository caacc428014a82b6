#include "engine/delta_overlay.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hopi::engine {

// ---------------------------------------------------------------------------
// Mutation
// ---------------------------------------------------------------------------

Mutation Mutation::InsertLink(NodeId u, NodeId v) {
  Mutation m;
  m.kind = Kind::kInsertLink;
  m.source = u;
  m.target = v;
  return m;
}

Mutation Mutation::DeleteLink(NodeId u, NodeId v) {
  Mutation m;
  m.kind = Kind::kDeleteLink;
  m.source = u;
  m.target = v;
  return m;
}

Mutation Mutation::InsertDocument(std::string name,
                                  std::vector<NewElementSpec> elements) {
  Mutation m;
  m.kind = Kind::kInsertDocument;
  m.doc_name = std::move(name);
  m.elements = std::move(elements);
  return m;
}

Mutation Mutation::DeleteDocument(collection::DocId doc) {
  Mutation m;
  m.kind = Kind::kDeleteDocument;
  m.doc = doc;
  return m;
}

Status ApplyMutationToCollection(const Mutation& m,
                                 collection::Collection* collection) {
  switch (m.kind) {
    case Mutation::Kind::kInsertLink:
      if (!collection->AddLink(m.source, m.target)) {
        return Status::InvalidArgument("link already present");
      }
      return Status::OK();
    case Mutation::Kind::kDeleteLink:
      return collection->RemoveLink(m.source, m.target);
    case Mutation::Kind::kInsertDocument: {
      collection::DocId d = collection->AddDocument(m.doc_name);
      std::vector<NodeId> ids;
      ids.reserve(m.elements.size());
      for (const NewElementSpec& spec : m.elements) {
        NodeId parent =
            spec.parent.has_value() ? ids[*spec.parent] : kInvalidNode;
        ids.push_back(collection->AddElement(d, spec.tag, parent));
      }
      return Status::OK();
    }
    case Mutation::Kind::kDeleteDocument:
      return collection->RemoveDocument(m.doc);
  }
  return Status::Internal("unknown mutation kind");
}

// ---------------------------------------------------------------------------
// DeltaState
// ---------------------------------------------------------------------------

std::shared_ptr<const DeltaState> DeltaState::MakeEmpty(size_t base_elements,
                                                        size_t base_documents,
                                                        uint64_t generation) {
  auto s = std::shared_ptr<DeltaState>(new DeltaState());
  s->base_elements_ = base_elements;
  s->base_documents_ = base_documents;
  s->generation_ = generation;
  return s;
}

void DeltaState::AddDeltaEdge(NodeId u, NodeId v, bool is_link) {
  delta_out_[u].push_back(v);
  delta_in_[v].push_back(u);
  delta_edges_.insert(EdgeKey(u, v));
  if (is_link) delta_links_.insert(EdgeKey(u, v));
}

void DeltaState::RemoveDeltaLink(NodeId u, NodeId v) {
  uint64_t key = EdgeKey(u, v);
  delta_links_.erase(key);
  delta_edges_.erase(key);
  auto drop = [](std::unordered_map<NodeId, std::vector<NodeId>>& adj,
                 NodeId from, NodeId to) {
    auto it = adj.find(from);
    if (it == adj.end()) return;
    auto& vec = it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), to), vec.end());
    if (vec.empty()) adj.erase(it);
  };
  drop(delta_out_, u, v);
  drop(delta_in_, v, u);
}

void DeltaState::ApplyDerived(const Mutation& m) {
  switch (m.kind) {
    case Mutation::Kind::kInsertLink:
      AddDeltaEdge(m.source, m.target, /*is_link=*/true);
      break;
    case Mutation::Kind::kDeleteLink:
      if (delta_links_.count(EdgeKey(m.source, m.target)) != 0) {
        // Deleting a link the delta itself inserted: take it back out of
        // the delta adjacency. No base structure is lost, so the base
        // fast path stays valid.
        RemoveDeltaLink(m.source, m.target);
      } else {
        // Deleting a base link: mask it. deleted_edges_ therefore only
        // ever holds base edges (the has_base_removals invariant).
        deleted_edges_.insert(EdgeKey(m.source, m.target));
      }
      break;
    case Mutation::Kind::kInsertDocument: {
      collection::DocId d =
          static_cast<collection::DocId>(base_documents_ + new_docs_);
      ++new_docs_;
      NodeId first = static_cast<NodeId>(num_elements());
      for (size_t i = 0; i < m.elements.size(); ++i) {
        new_element_docs_.push_back(d);
        if (m.elements[i].parent.has_value()) {
          // Tree edge of a delta-created document — an edge but not a
          // link, so delete_link must not accept it.
          AddDeltaEdge(first + *m.elements[i].parent,
                       first + static_cast<NodeId>(i), /*is_link=*/false);
        }
      }
      break;
    }
    case Mutation::Kind::kDeleteDocument:
      dead_docs_.insert(m.doc);
      if (m.doc < base_documents_) ++dead_base_docs_;
      // Delta edges incident to the dead document's elements stay in the
      // adjacency; probes skip them via the dead-endpoint check, which
      // matches Collection::RemoveDocument isolating the elements.
      break;
  }
}

Result<std::shared_ptr<const DeltaState>> DeltaState::Apply(
    const Mutation& m, const collection::Collection& base) const {
  // Liveness of a document as of base ∪ delta.
  auto doc_dead = [&](collection::DocId d) {
    if (IsDeadDoc(d)) return true;
    return d < base_documents_ && !base.IsLive(d);
  };
  // Liveness of an element as of base ∪ delta.
  auto node_dead = [&](NodeId e) {
    collection::DocId d =
        e < base_elements_ ? base.DocOf(e) : DocOfNew(e);
    return doc_dead(d);
  };
  // Edge present in base ∪ delta (any kind — link or tree edge).
  auto edge_present = [&](NodeId u, NodeId v) {
    if (delta_edges_.count(EdgeKey(u, v)) != 0) return true;
    return u < base_elements_ && v < base_elements_ &&
           base.ElementGraph().HasEdge(u, v) && !IsEdgeDeleted(u, v);
  };
  // Tree edge u -> v (in base or in a delta-created document)?
  auto is_tree_edge = [&](NodeId u, NodeId v) {
    if (v < base_elements_) return base.ParentOf(v) == u;
    // Delta documents: tree edges are the non-link delta edges.
    return delta_edges_.count(EdgeKey(u, v)) != 0 &&
           delta_links_.count(EdgeKey(u, v)) == 0;
  };

  switch (m.kind) {
    case Mutation::Kind::kInsertLink: {
      if (m.source >= num_elements() || m.target >= num_elements()) {
        return Status::InvalidArgument("link endpoint out of range");
      }
      if (node_dead(m.source) || node_dead(m.target)) {
        return Status::InvalidArgument(
            "link endpoint in a deleted document");
      }
      if (edge_present(m.source, m.target)) {
        return Status::InvalidArgument("link already present");
      }
      break;
    }
    case Mutation::Kind::kDeleteLink: {
      if (m.source >= num_elements() || m.target >= num_elements() ||
          node_dead(m.source) || node_dead(m.target) ||
          !edge_present(m.source, m.target)) {
        return Status::NotFound("link not present");
      }
      if (is_tree_edge(m.source, m.target)) {
        // Tree edges are structural, not links; only document deletion
        // removes them (Collection::RemoveLink agrees).
        return Status::NotFound("link not present");
      }
      break;
    }
    case Mutation::Kind::kInsertDocument: {
      if (m.elements.empty()) {
        return Status::InvalidArgument("document needs at least one element");
      }
      for (size_t i = 0; i < m.elements.size(); ++i) {
        const NewElementSpec& spec = m.elements[i];
        if (i == 0) {
          if (spec.parent.has_value()) {
            return Status::InvalidArgument(
                "first element must be the document root");
          }
        } else {
          if (!spec.parent.has_value()) {
            return Status::InvalidArgument(
                "non-root element needs a parent (single-root documents)");
          }
          if (*spec.parent >= i) {
            return Status::InvalidArgument(
                "element parent must precede it in the element list");
          }
        }
      }
      break;
    }
    case Mutation::Kind::kDeleteDocument: {
      if (m.doc >= num_documents()) {
        return Status::NotFound("no such document");
      }
      if (doc_dead(m.doc)) {
        return Status::InvalidArgument("document not live");
      }
      break;
    }
  }

  auto next = std::shared_ptr<DeltaState>(new DeltaState(*this));
  next->ApplyDerived(m);
  next->ops_.push_back(m);
  next->generation_ = generation_ + 1;
  return std::shared_ptr<const DeltaState>(std::move(next));
}

std::shared_ptr<const DeltaState> DeltaState::RebaseAfter(
    uint64_t through, size_t base_elements, size_t base_documents) const {
  auto s = std::shared_ptr<DeltaState>(new DeltaState());
  s->base_elements_ = base_elements;
  s->base_documents_ = base_documents;
  s->generation_ = generation_;
  std::span<const Mutation> kept = OpsAfter(through);
  // Pre-set ops_ so GenerationOfOp stays consistent, then rebuild the
  // derived structures by replaying the kept suffix. An op kept across
  // the rebase keeps its meaning: a delete_link whose target was
  // absorbed into the new base lands in deleted_edges_ this time round
  // (its insert is gone from delta_links_), which is exactly the new
  // base masking it needs.
  s->ops_.assign(kept.begin(), kept.end());
  for (const Mutation& m : s->ops_) s->ApplyDerived(m);
  return s;
}

std::span<const Mutation> DeltaState::OpsAfter(uint64_t g) const {
  if (g >= generation_) return {};
  uint64_t want = generation_ - g;  // number of trailing ops to keep
  size_t keep = want >= ops_.size() ? ops_.size() : static_cast<size_t>(want);
  return std::span<const Mutation>(ops_.data() + (ops_.size() - keep), keep);
}

// ---------------------------------------------------------------------------
// DeltaOverlayBackend
// ---------------------------------------------------------------------------

DeltaOverlayBackend::DeltaOverlayBackend(
    std::unique_ptr<ReachabilityBackend> base,
    const collection::Collection* base_collection,
    std::shared_ptr<const DeltaState> delta, DeltaOverlayOptions options,
    OverlayCounters* counters)
    : base_(std::move(base)),
      base_collection_(base_collection),
      delta_(std::move(delta)),
      options_(options),
      counters_(counters) {
  assert(base_ != nullptr);
  assert(base_collection_ != nullptr);
  assert(delta_ != nullptr);
  assert(delta_->base_elements() == base_collection_->NumElements());
  size_t n = delta_->num_elements();
  fwd_mark_.assign(n, 0);
  bwd_mark_.assign(n, 0);
}

bool DeltaOverlayBackend::IsDeadNode(NodeId e) const {
  collection::DocId d = e < delta_->base_elements()
                            ? base_collection_->DocOf(e)
                            : delta_->DocOfNew(e);
  return delta_->IsDeadDoc(d);
}

template <typename Fn>
void DeltaOverlayBackend::ForEachNeighbor(NodeId x, bool forward,
                                          Fn&& fn) const {
  const bool check_deleted = delta_->num_deleted_edges() != 0;
  const bool check_dead = delta_->has_dead_docs();
  if (x < delta_->base_elements()) {
    const auto& neighbors = forward
                                ? base_collection_->ElementGraph().OutNeighbors(x)
                                : base_collection_->ElementGraph().InNeighbors(x);
    for (NodeId y : neighbors) {
      if (check_deleted &&
          (forward ? delta_->IsEdgeDeleted(x, y)
                   : delta_->IsEdgeDeleted(y, x))) {
        continue;
      }
      if (check_dead && IsDeadNode(y)) continue;
      fn(y);
    }
  }
  const std::vector<NodeId>* extra =
      forward ? delta_->DeltaOut(x) : delta_->DeltaIn(x);
  if (extra != nullptr) {
    for (NodeId y : *extra) {
      if (check_dead && IsDeadNode(y)) continue;
      fn(y);
    }
  }
}

void DeltaOverlayBackend::PrepareEpoch() const {
  if (++epoch_ == 0) {
    // uint32 wrap: old stamps could alias the new epoch, so reset.
    std::fill(fwd_mark_.begin(), fwd_mark_.end(), 0);
    std::fill(bwd_mark_.begin(), bwd_mark_.end(), 0);
    epoch_ = 1;
  }
}

bool DeltaOverlayBackend::ExpandFrontier(
    const std::vector<NodeId>& frontier, bool forward,
    std::vector<NodeId>* next, std::vector<uint32_t>* mark,
    const std::vector<uint32_t>* other_mark) const {
  next->clear();
  bool found = false;
  auto visit = [&](NodeId y) {
    if ((*mark)[y] == epoch_) return;
    (*mark)[y] = epoch_;
    if (other_mark != nullptr && (*other_mark)[y] == epoch_) found = true;
    next->push_back(y);
  };
  for (NodeId x : frontier) ForEachNeighbor(x, forward, visit);
  return found;
}

bool DeltaOverlayBackend::BidirectionalSearch(NodeId u, NodeId v) const {
  PrepareEpoch();
  fwd_mark_[u] = epoch_;
  bwd_mark_[v] = epoch_;
  fwd_frontier_.assign(1, u);
  bwd_frontier_.assign(1, v);
  size_t budget = options_.hop_budget;
  size_t fwd_hops = 0;
  size_t bwd_hops = 0;
  for (;;) {
    // An emptied frontier is definitive: that side's reachable set is
    // fully stamped and never met the other side.
    if (fwd_frontier_.empty() || bwd_frontier_.empty()) return false;
    if (fwd_hops >= budget && bwd_hops >= budget) {
      // Both sides spent the budget undecided: book it once, then lift
      // the bound so the same search runs on to the exact answer.
      if (counters_ != nullptr) {
        counters_->budget_exhaustions.fetch_add(1, std::memory_order_relaxed);
      }
      budget = SIZE_MAX;
    }
    // Galois-style alternation: always grow the smaller live frontier.
    bool forward = fwd_hops < budget &&
                   (bwd_hops >= budget ||
                    fwd_frontier_.size() <= bwd_frontier_.size());
    bool met;
    if (forward) {
      met = ExpandFrontier(fwd_frontier_, /*forward=*/true, &scratch_next_,
                           &fwd_mark_, &bwd_mark_);
      fwd_frontier_.swap(scratch_next_);
      ++fwd_hops;
    } else {
      met = ExpandFrontier(bwd_frontier_, /*forward=*/false, &scratch_next_,
                           &bwd_mark_, &fwd_mark_);
      bwd_frontier_.swap(scratch_next_);
      ++bwd_hops;
    }
    if (met) return true;
  }
}

DeltaOverlayBackend::Outcome DeltaOverlayBackend::Probe(NodeId u,
                                                        NodeId v) const {
  if (u == v) return Outcome::kReflexive;
  size_t n = delta_->num_elements();
  if (u >= n || v >= n) return Outcome::kDeadEndpoint;
  if (counters_ != nullptr) {
    counters_->probes.fetch_add(1, std::memory_order_relaxed);
  }
  size_t base_n = delta_->base_elements();
  // Base hit: with no base removals, edge insertion is monotone — a
  // base "reachable" can only stay reachable through the delta.
  if (!delta_->has_base_removals() && u < base_n && v < base_n &&
      base_->IsReachable(u, v)) {
    if (counters_ != nullptr) {
      counters_->base_hits.fetch_add(1, std::memory_order_relaxed);
    }
    return Outcome::kBaseHit;
  }
  if (delta_->has_dead_docs() && (IsDeadNode(u) || IsDeadNode(v))) {
    return Outcome::kDeadEndpoint;
  }
  if (counters_ != nullptr) {
    counters_->bfs_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  return BidirectionalSearch(u, v) ? Outcome::kBfsReachable
                                   : Outcome::kBfsUnreachable;
}

std::optional<uint32_t> DeltaOverlayBackend::Distance(NodeId u,
                                                      NodeId v) const {
  if (u == v) return 0;
  if (IsReachable(u, v)) return 0;
  return std::nullopt;
}

std::vector<NodeId> DeltaOverlayBackend::Collect(NodeId start,
                                                 bool forward) const {
  std::vector<NodeId> out;
  size_t n = delta_->num_elements();
  if (start >= n) return out;
  if (delta_->has_dead_docs() && IsDeadNode(start)) return out;
  PrepareEpoch();
  std::vector<uint32_t>& mark = forward ? fwd_mark_ : bwd_mark_;
  mark[start] = epoch_;
  std::vector<NodeId>& frontier = forward ? fwd_frontier_ : bwd_frontier_;
  frontier.assign(1, start);
  bool self_cycle = false;
  while (!frontier.empty()) {
    scratch_next_.clear();
    for (NodeId x : frontier) {
      ForEachNeighbor(x, forward, [&](NodeId y) {
        if (y == start) self_cycle = true;
        if (mark[y] == epoch_) return;
        mark[y] = epoch_;
        out.push_back(y);
        scratch_next_.push_back(y);
      });
    }
    frontier.swap(scratch_next_);
  }
  // The closure baseline includes a node in its own descendant set only
  // when a cycle re-reaches it; mirror that.
  if (self_cycle) out.push_back(start);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> DeltaOverlayBackend::Descendants(NodeId u) const {
  return Collect(u, /*forward=*/true);
}

std::vector<NodeId> DeltaOverlayBackend::Ancestors(NodeId u) const {
  return Collect(u, /*forward=*/false);
}

}  // namespace hopi::engine
