// Delta overlay: serve mutations before the next index rebuild.
//
// HOPI's incremental maintenance (paper Sec 6) rewrites labels in
// place, so a mutation used to become visible only after a full
// Freeze()+Swap() of the maintenance index. The overlay closes that
// gap: the pool keeps serving an immutable BackendSnapshot while recent
// mutations accumulate in a small, immutable DeltaState next to it, and
// a DeltaOverlayBackend answers probes against the *combined* graph —
// base edges minus delta deletions plus delta insertions.
//
// The probe strategy is index-hit ∨ bidirectional BFS (the hop-bounded
// forward/backward search with frontier intersection of katana's
// Reachability.cpp):
//
//   1. base hit — when the delta contains no base-edge or base-document
//      removals, edge insertion is monotone for reachability, so a
//      positive answer from the base index is still a positive answer;
//   2. BFS — otherwise (or when the base says no), expand a forward
//      frontier from u and a backward frontier from v through the
//      combined adjacency on the calling thread, always growing the
//      smaller side, up to `hop_budget` hops per side; meeting
//      frontiers prove reachability, an emptied frontier proves
//      unreachability;
//   3. over budget — once both sides have spent `hop_budget` hops, the
//      probe is booked in OverlayCounters as a budget exhaustion and
//      the same search carries on unbounded, so every answer handed to
//      the client is exact.
//
// DeltaState is copy-on-write: Apply() validates one mutation against
// base ∪ delta and returns the successor state, so readers holding the
// previous shared_ptr are never disturbed. Generations are *global*
// ops-ever-applied counts — RebaseAfter() (the rebuild truncation)
// drops absorbed ops but keeps the count monotonic, which lets a
// response tagged with generation g be validated against the one
// logical graph at g regardless of how many rebuilds happened since.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "collection/collection.h"
#include "engine/backend.h"
#include "util/result.h"

namespace hopi::engine {

/// One element of a document inserted through the delta. `parent` is
/// the index of an *earlier* element in the same document's element
/// list (nullopt for the root — exactly one per document, first).
struct NewElementSpec {
  std::string tag;
  std::optional<uint32_t> parent;
};

/// One write operation. The op log of these IS the definition of the
/// combined graph: replaying a mutation onto a live Collection (see
/// ApplyMutationToCollection) must produce exactly the state the
/// overlay serves — tests' oracle mirrors and the rebuild path both
/// rely on that equivalence, including element/document id assignment
/// (Collection allocates both sequentially, so replay order fixes ids).
struct Mutation {
  enum class Kind : uint8_t {
    kInsertLink,
    kDeleteLink,
    kInsertDocument,
    kDeleteDocument,
  };

  Kind kind = Kind::kInsertLink;
  // kInsertLink / kDeleteLink
  NodeId source = kInvalidNode;
  NodeId target = kInvalidNode;
  // kInsertDocument
  std::string doc_name;
  std::vector<NewElementSpec> elements;
  // kDeleteDocument
  collection::DocId doc = collection::kInvalidDoc;

  static Mutation InsertLink(NodeId u, NodeId v);
  static Mutation DeleteLink(NodeId u, NodeId v);
  static Mutation InsertDocument(std::string name,
                                 std::vector<NewElementSpec> elements);
  static Mutation DeleteDocument(collection::DocId doc);
};

/// Replays one already-validated mutation onto a live collection — the
/// mapping that defines what each op means. Used by the rebuild
/// materialization and by tests' oracle mirrors; apply the same ops in
/// the same order to a copy of the base collection and you hold the
/// exact graph the overlay serves (same element and document ids).
Status ApplyMutationToCollection(const Mutation& m,
                                 collection::Collection* collection);

/// Immutable accumulated-mutation state over one base snapshot.
///
/// Holds the ordered op log since the last rebuild truncation plus the
/// derived probe structures (delta adjacency, deleted base edges, dead
/// documents, new-element directory). Apply() is copy-on-write; every
/// instance is safe to share across threads forever.
class DeltaState {
 public:
  /// A fresh, empty delta over a base with `base_elements` elements and
  /// `base_documents` documents, continuing the global op count at
  /// `generation`.
  static std::shared_ptr<const DeltaState> MakeEmpty(size_t base_elements,
                                                     size_t base_documents,
                                                     uint64_t generation);

  /// Validates `m` against base ∪ delta and returns the successor
  /// state. `base` must be the collection of the snapshot this delta
  /// overlays. Typed failures (InvalidArgument / NotFound) mirror the
  /// Sec-6 maintenance preconditions so the delta and a maintenance
  /// index fed the same ops accept and reject identically.
  Result<std::shared_ptr<const DeltaState>> Apply(
      const Mutation& m, const collection::Collection& base) const;

  /// The rebuild truncation: drops every op with generation <= `through`
  /// (they are absorbed into the new base) and rebases the survivors
  /// onto a base of the given sizes. generation() is preserved.
  std::shared_ptr<const DeltaState> RebaseAfter(uint64_t through,
                                                size_t base_elements,
                                                size_t base_documents) const;

  /// Retained ops with generation > `g` (a suffix of the op log; views
  /// into this state, valid while it lives).
  std::span<const Mutation> OpsAfter(uint64_t g) const;

  // ---- identity ----

  /// Global monotonic count of ops ever applied through this delta
  /// chain — NOT reset by RebaseAfter. The combined logical graph at a
  /// given generation is unique, whatever the rebuild schedule.
  uint64_t generation() const { return generation_; }
  /// Retained (un-absorbed) ops.
  size_t num_ops() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  // ---- sizes ----

  size_t base_elements() const { return base_elements_; }
  size_t num_elements() const {
    return base_elements_ + new_element_docs_.size();
  }
  size_t base_documents() const { return base_documents_; }
  size_t num_documents() const { return base_documents_ + new_docs_; }

  // ---- probe surface ----

  /// True when the delta removed base structure (a base edge or a base
  /// document) — the condition under which a positive base-index
  /// answer can no longer be trusted. Removals of delta-only structure
  /// do not trip this: they never invalidate base reachability.
  bool has_base_removals() const {
    return !deleted_edges_.empty() || dead_base_docs_ != 0;
  }
  bool has_dead_docs() const { return !dead_docs_.empty(); }
  size_t num_deleted_edges() const { return deleted_edges_.size(); }

  /// Document of a delta-created element (precondition:
  /// base_elements() <= e < num_elements()).
  collection::DocId DocOfNew(NodeId e) const {
    return new_element_docs_[e - base_elements_];
  }
  /// True when `doc` was deleted through the delta. (Documents already
  /// dead in the base are the base collection's to report.)
  bool IsDeadDoc(collection::DocId doc) const {
    return !dead_docs_.empty() && dead_docs_.count(doc) != 0;
  }
  bool IsEdgeDeleted(NodeId u, NodeId v) const {
    return !deleted_edges_.empty() && deleted_edges_.count(EdgeKey(u, v)) != 0;
  }
  /// Delta out-/in-adjacency of a node, or nullptr when it has none.
  /// Includes inserted links and the tree edges of delta-created
  /// documents; never includes deleted edges.
  const std::vector<NodeId>* DeltaOut(NodeId u) const {
    auto it = delta_out_.find(u);
    return it == delta_out_.end() ? nullptr : &it->second;
  }
  const std::vector<NodeId>* DeltaIn(NodeId v) const {
    auto it = delta_in_.find(v);
    return it == delta_in_.end() ? nullptr : &it->second;
  }

 private:
  DeltaState() = default;

  static uint64_t EdgeKey(NodeId u, NodeId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  /// Generation of retained op `i` (0-based index into ops_).
  uint64_t GenerationOfOp(size_t i) const {
    return generation_ - ops_.size() + i + 1;
  }

  /// Updates the derived structures for one validated op. Shared by
  /// Apply (on the copy) and RebaseAfter (replaying the kept suffix).
  void ApplyDerived(const Mutation& m);
  void AddDeltaEdge(NodeId u, NodeId v, bool is_link);
  void RemoveDeltaLink(NodeId u, NodeId v);

  uint64_t generation_ = 0;
  std::vector<Mutation> ops_;  // retained suffix, oldest first

  size_t base_elements_ = 0;
  size_t base_documents_ = 0;

  // Derived probe structures.
  std::unordered_map<NodeId, std::vector<NodeId>> delta_out_;
  std::unordered_map<NodeId, std::vector<NodeId>> delta_in_;
  /// Deleted BASE edges only — deleting a delta-inserted link removes
  /// it from the delta adjacency instead, which keeps has_base_removals
  /// an exact monotonicity test.
  std::unordered_set<uint64_t> deleted_edges_;
  /// Links (not tree edges) currently present in the delta adjacency.
  std::unordered_set<uint64_t> delta_links_;
  /// All edges currently present in the delta adjacency (links + tree
  /// edges of delta documents).
  std::unordered_set<uint64_t> delta_edges_;
  std::unordered_set<collection::DocId> dead_docs_;
  size_t dead_base_docs_ = 0;
  size_t new_docs_ = 0;
  /// Owning document of each delta-created element, indexed by
  /// (id - base_elements_).
  std::vector<collection::DocId> new_element_docs_;
};

/// Monotonic probe-outcome counters, shared by every overlay backend
/// instance a pool's workers create (relaxed atomics; read by
/// EnginePool::Stats and the /stats endpoint).
struct OverlayCounters {
  std::atomic<uint64_t> probes{0};         ///< Non-reflexive probes.
  std::atomic<uint64_t> base_hits{0};      ///< Answered by the base index.
  std::atomic<uint64_t> bfs_fallbacks{0};  ///< Went to the BFS.
  /// BFS probes that spent the hop budget on both sides without an
  /// answer (the search then carried on unbounded).
  std::atomic<uint64_t> budget_exhaustions{0};
};

struct DeltaOverlayOptions {
  /// Hops per BFS side after which a still-undecided probe counts as a
  /// budget exhaustion. Only that counter depends on it: the search
  /// carries on unbounded, so answers are exact at any budget.
  size_t hop_budget = 8;
};

/// ReachabilityBackend over base ∪ delta.
///
/// Label-less (HasLabels() = false): the QueryEngine batch path routes
/// every probe through TestConnections/IsReachable, which is where the
/// index-hit ∨ BFS strategy lives. Not distance-aware — under a
/// non-empty delta, connected pairs report distance 0 (the pool serves
/// exact distances again after the next rebuild truncates the delta).
///
/// Instances carry per-probe scratch (epoch-stamped visited arrays):
/// one instance serves one thread at a time, the same contract as every
/// other backend behind a QueryEngine. The shared `counters` may be
/// used by any number of instances concurrently.
class DeltaOverlayBackend final : public ReachabilityBackend {
 public:
  /// Where a probe's answer came from — the typed outcome behind
  /// IsReachable, exposed for tests and stats. Whether a BFS probe went
  /// over the hop budget shows only in OverlayCounters.
  enum class Outcome : uint8_t {
    kReflexive,       // u == v
    kBaseHit,         // base index said yes and the delta kept it valid
    kDeadEndpoint,    // an endpoint's document is deleted
    kBfsReachable,    // the BFS frontiers met
    kBfsUnreachable,  // a BFS frontier emptied
  };
  static bool IsReachableOutcome(Outcome o) {
    return o == Outcome::kReflexive || o == Outcome::kBaseHit ||
           o == Outcome::kBfsReachable;
  }

  /// `base` answers the un-mutated snapshot; `base_collection` is the
  /// snapshot's collection (adjacency + document liveness);  both must
  /// outlive this backend, as must `counters` when non-null. `delta`
  /// is shared and immutable.
  DeltaOverlayBackend(std::unique_ptr<ReachabilityBackend> base,
                      const collection::Collection* base_collection,
                      std::shared_ptr<const DeltaState> delta,
                      DeltaOverlayOptions options = {},
                      OverlayCounters* counters = nullptr);

  std::string_view Name() const override { return "overlay"; }
  bool with_distance() const override { return false; }

  bool IsReachable(NodeId u, NodeId v) const override {
    return IsReachableOutcome(Probe(u, v));
  }
  /// 0 for connected pairs, nullopt otherwise (not distance-aware).
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const override;
  std::vector<NodeId> Descendants(NodeId u) const override;
  std::vector<NodeId> Ancestors(NodeId u) const override;

  /// The typed probe. Every call books the OverlayCounters.
  Outcome Probe(NodeId u, NodeId v) const;

  const DeltaState& delta() const { return *delta_; }

 private:
  /// True when the element's document was deleted through the delta.
  bool IsDeadNode(NodeId e) const;
  /// Calls fn(y) for every combined-graph neighbor of x in the given
  /// direction, skipping deleted edges and dead endpoints.
  template <typename Fn>
  void ForEachNeighbor(NodeId x, bool forward, Fn&& fn) const;

  /// Bidirectional BFS: true when u reaches v. Books a budget
  /// exhaustion when both sides spend the hop budget undecided.
  bool BidirectionalSearch(NodeId u, NodeId v) const;
  /// Expands `frontier` one hop into `next`, stamping `mark` (and
  /// testing `other_mark` for the meet). Returns true on a meet.
  bool ExpandFrontier(const std::vector<NodeId>& frontier, bool forward,
                      std::vector<NodeId>* next, std::vector<uint32_t>* mark,
                      const std::vector<uint32_t>* other_mark) const;
  void PrepareEpoch() const;
  /// Unbounded single-direction BFS used by Descendants/Ancestors;
  /// returns visited nodes excluding `start` unless a cycle re-reaches
  /// it (matching the closure baseline's strictness).
  std::vector<NodeId> Collect(NodeId start, bool forward) const;

  std::unique_ptr<ReachabilityBackend> base_;
  const collection::Collection* base_collection_;
  std::shared_ptr<const DeltaState> delta_;
  DeltaOverlayOptions options_;
  OverlayCounters* counters_;  // may be null (standalone use)

  // Per-probe scratch, reused across calls (single-thread contract).
  mutable std::vector<uint32_t> fwd_mark_;
  mutable std::vector<uint32_t> bwd_mark_;
  mutable uint32_t epoch_ = 0;
  mutable std::vector<NodeId> fwd_frontier_;
  mutable std::vector<NodeId> bwd_frontier_;
  mutable std::vector<NodeId> scratch_next_;
};

}  // namespace hopi::engine
