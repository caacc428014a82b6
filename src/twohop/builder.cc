#include "twohop/builder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>

#include "graph/bitset.h"
#include "graph/closure.h"
#include "graph/traversal.h"
#include "twohop/center_graph.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace hopi::twohop {

namespace {

/// The set T' of not-yet-covered connections, as per-source bitset rows.
class UncoveredSet {
 public:
  /// Plain mode: T' starts as the closure's descendant rows.
  explicit UncoveredSet(const TransitiveClosure& tc) {
    rows_.reserve(tc.NumNodes());
    for (NodeId u = 0; u < tc.NumNodes(); ++u) {
      rows_.push_back(tc.DescendantsRow(u));  // copy
      count_ += rows_.back().Count();
    }
  }

  /// Distance mode: T' starts as the distance closure's rows, the same
  /// connection set.
  explicit UncoveredSet(const DistanceClosure& dc) {
    rows_.reserve(dc.NumNodes());
    for (NodeId u = 0; u < dc.NumNodes(); ++u) {
      DynamicBitset& row = rows_.emplace_back(dc.NumNodes());
      for (const DistConnection& c : dc.Row(u)) row.Set(c.node);
      count_ += dc.Row(u).size();
    }
  }

  uint64_t count() const { return count_; }

  void Remove(NodeId u, NodeId v) {
    if (rows_[u].Clear(v)) --count_;
  }

  /// Removes all uncovered pairs (u, v) with v in `targets`; returns the
  /// number removed. (Plain mode bulk removal.)
  uint64_t RemoveRowSubset(NodeId u, const DynamicBitset& targets) {
    uint64_t removed = rows_[u].SubtractWith(targets);
    count_ -= removed;
    return removed;
  }

  const DynamicBitset& Row(NodeId u) const { return rows_[u]; }

 private:
  std::vector<DynamicBitset> rows_;
  uint64_t count_ = 0;
};

/// One side of a candidate's center graph: node ids plus distances to/from
/// the center (distances stay 0 in plain mode).
struct Side {
  std::vector<NodeId> nodes;
  std::vector<uint32_t> dists;
};

/// Builds the ancestor side (Anc(w) + w) and descendant side (Desc(w) + w)
/// of w's center graph, from the distance closure `dc` in distance mode
/// and from the closure `tc` otherwise.
void BuildSides(const TransitiveClosure* tc, const DistanceClosure* dc,
                NodeId w, Side* in_side, Side* out_side) {
  in_side->nodes.clear();
  in_side->dists.clear();
  out_side->nodes.clear();
  out_side->dists.clear();
  if (dc != nullptr) {
    for (const DistConnection& c : dc->ReverseRow(w)) {
      in_side->nodes.push_back(c.node);
      in_side->dists.push_back(c.dist);
    }
    in_side->nodes.push_back(w);
    in_side->dists.push_back(0);
    for (const DistConnection& c : dc->Row(w)) {
      out_side->nodes.push_back(c.node);
      out_side->dists.push_back(c.dist);
    }
    out_side->nodes.push_back(w);
    out_side->dists.push_back(0);
  } else {
    tc->AncestorsRow(w).ForEach([&](size_t u) {
      in_side->nodes.push_back(static_cast<NodeId>(u));
      in_side->dists.push_back(0);
    });
    in_side->nodes.push_back(w);
    in_side->dists.push_back(0);
    tc->DescendantsRow(w).ForEach([&](size_t v) {
      out_side->nodes.push_back(static_cast<NodeId>(v));
      out_side->dists.push_back(0);
    });
    out_side->nodes.push_back(w);
    out_side->dists.push_back(0);
  }
}

/// Constructs center graphs restricted to uncovered pairs, and removes the
/// pairs a chosen center covers. Holds scratch buffers (an out-side index
/// map and mask) so both hot loops are allocation free and word-parallel
/// over the uncovered bitset rows. `dc` is null in plain mode.
class CenterGraphBuilder {
 public:
  CenterGraphBuilder(size_t num_nodes, const DistanceClosure* dc)
      : dc_(dc), out_index_(num_nodes) {}

  BipartiteGraph Build(const UncoveredSet& uncovered, const Side& in_side,
                       const Side& out_side) {
    const uint32_t num_out = static_cast<uint32_t>(out_side.nodes.size());
    BipartiteGraph cg(static_cast<uint32_t>(in_side.nodes.size()), num_out);
    if (dc_ == nullptr) {
      // Plain mode: intersect each ancestor's uncovered row with the
      // out-side mask; every surviving bit is an edge.
      for (uint32_t j = 0; j < num_out; ++j) Mark(out_side, j);
      for (uint32_t i = 0; i < in_side.nodes.size(); ++i) {
        NodeId u = in_side.nodes[i];
        uncovered.Row(u).ForEachIntersection(out_mask_, [&](size_t v) {
          if (static_cast<NodeId>(v) != u) {
            cg.AddEdge(i, out_index_[v]);
          }
        });
      }
      ClearMask();
      return cg;
    }
    // Distance mode: the same walk over Desc(w) only, keeping the
    // shortest-path pairs. The edge to w (the last out vertex) always
    // passes the test and is added after the walk, so every in-vertex's
    // adjacency ascends in out index — the peeling's tie-breaks see the
    // order a pairwise loop over (i, j) would produce.
    const uint32_t w_index = num_out - 1;
    const NodeId w = out_side.nodes[w_index];
    for (uint32_t j = 0; j < w_index; ++j) Mark(out_side, j);
    for (uint32_t i = 0; i < in_side.nodes.size(); ++i) {
      NodeId u = in_side.nodes[i];
      const DynamicBitset& row = uncovered.Row(u);
      ForEachShortestPathPair(u, in_side.dists[i], row, out_side,
                              [&](NodeId, uint32_t j) { cg.AddEdge(i, j); });
      if (u != w && row.Test(w)) cg.AddEdge(i, w_index);
    }
    ClearMask();
    return cg;
  }

  /// Removes every uncovered pair (u, v) with u chosen on the in side and
  /// v on the out side — in distance mode only the shortest-path pairs
  /// through the center. Returns the number removed.
  uint64_t RemoveCovered(const Side& in_side, const Side& out_side,
                         const std::vector<uint32_t>& in_chosen,
                         const std::vector<uint32_t>& out_chosen,
                         UncoveredSet* uncovered) {
    for (uint32_t j : out_chosen) Mark(out_side, j);
    uint64_t covered = 0;
    for (uint32_t i : in_chosen) {
      NodeId u = in_side.nodes[i];
      if (dc_ == nullptr) {
        covered += uncovered->RemoveRowSubset(u, out_mask_);
        continue;
      }
      // Clearing the bit the walk stands on never changes what it visits
      // next (it only moves to higher bits).
      ForEachShortestPathPair(u, in_side.dists[i], uncovered->Row(u),
                              out_side, [&](NodeId v, uint32_t) {
                                uncovered->Remove(u, v);
                                ++covered;
                              });
    }
    ClearMask();
    return covered;
  }

 private:
  void Mark(const Side& side, uint32_t j) {
    out_index_[side.nodes[j]] = j;
    out_mask_.Set(side.nodes[j]);
  }
  /// Drops the mask's words instead of clearing its bits: Set regrows it
  /// only up to the largest marked node, so the next walk stops there
  /// rather than at the end of the row. The index map is read only at
  /// marked nodes and needs no reset.
  void ClearMask() { out_mask_.Resize(0); }

  /// Calls fn(v, j) for every v set in both `uncovered_row` (u's) and the
  /// out mask with dist(u,v) == dist(u,w) + dist(w,v): the shortest-path
  /// test of Sec 5.2. v ascends, so dist(u,v) comes from a forward cursor
  /// over u's sorted distance row instead of a binary search per pair;
  /// every marked v other than u is a descendant of u, hence in that row.
  template <typename Fn>
  void ForEachShortestPathPair(NodeId u, uint32_t dist_uw,
                               const DynamicBitset& uncovered_row,
                               const Side& out_side, Fn&& fn) {
    const std::vector<DistConnection>& dists = dc_->Row(u);
    size_t pos = 0;
    uncovered_row.ForEachIntersection(out_mask_, [&](size_t v) {
      while (pos < dists.size() && dists[pos].node < v) ++pos;
      if (pos == dists.size() || dists[pos].node != v) return;
      uint32_t j = out_index_[v];
      if (dists[pos].dist == dist_uw + out_side.dists[j]) {
        fn(static_cast<NodeId>(v), j);
      }
    });
  }

  const DistanceClosure* dc_;
  std::vector<uint32_t> out_index_;
  DynamicBitset out_mask_;
};

/// Priority-queue entry for the lazy candidate queue. The comparison is a
/// strict total order (each node has at most one live entry, so the
/// (priority, node) keys are distinct): ties on priority break toward the
/// smaller node id. This makes the pop sequence a function of the queue
/// *contents* alone — independent of heap layout, and therefore of how
/// the speculation stage pops and re-pushes the frontier.
struct Candidate {
  double priority;
  NodeId node;
  bool operator<(const Candidate& other) const {
    if (priority != other.priority) return priority < other.priority;
    return node > other.node;  // max-heap: equal priorities pop low id first
  }
};

/// Closed-form initial density for the plain mode: the initial center
/// graph is complete bipartite over (a+1, d+1) vertices minus the (w,w)
/// pair, and is its own densest subgraph.
double PlainInitialPriority(uint64_t a, uint64_t d) {
  uint64_t edges = (a + 1) * (d + 1) - 1;
  if (edges == 0) return 0.0;
  return static_cast<double>(edges) / static_cast<double>(a + d + 2);
}

/// Sampled upper-bound priority for the distance mode (Sec 5.2).
double DistanceInitialPriority(const DistanceClosure& dc, NodeId w,
                               uint32_t max_samples, double confidence,
                               Rng* rng) {
  const auto& anc = dc.ReverseRow(w);
  const auto& desc = dc.Row(w);
  uint64_t a = anc.size();
  uint64_t d = desc.size();
  uint64_t candidates = (a + 1) * (d + 1) - 1;
  if (candidates == 0) return 0.0;

  // Edges to/from w itself always satisfy the shortest-path condition, so
  // sample only the a*d interior pairs and add the a + d guaranteed edges.
  uint64_t interior = a * d;
  uint64_t present = 0;
  uint64_t samples = std::min<uint64_t>(interior, max_samples);
  for (uint64_t s = 0; s < samples; ++s) {
    const DistConnection& cu = anc[rng->NextBounded(a)];
    const DistConnection& cv = desc[rng->NextBounded(d)];
    if (cu.node == cv.node) continue;  // cyclic anc∩desc member: not a pair
    auto duv = dc.Dist(cu.node, cv.node);
    if (duv && *duv == cu.dist + cv.dist) ++present;
  }
  double upper_fraction = 1.0;
  if (samples > 0) {
    upper_fraction =
        BinomialConfidenceInterval(present, samples, confidence).upper;
  } else if (interior == 0) {
    upper_fraction = 0.0;
  }
  double est_edges = upper_fraction * static_cast<double>(interior) +
                     static_cast<double>(a + d);
  // Max density of any graph with E edges is sqrt(E)/2 (balanced complete
  // bipartite), so this is a safe upper bound with probability >= 0.99.
  return std::sqrt(est_edges) / 2.0;
}

/// Applies center w with chosen sides: adds labels and removes covered
/// pairs. Returns the number of pairs covered.
uint64_t ApplyCenter(NodeId w, const Side& in_side, const Side& out_side,
                     const std::vector<uint32_t>& in_chosen,
                     const std::vector<uint32_t>& out_chosen,
                     CenterGraphBuilder* cg_builder, UncoveredSet* uncovered,
                     TwoHopCover* cover) {
  for (uint32_t i : in_chosen) {
    cover->AddOut(in_side.nodes[i], w, in_side.dists[i]);
  }
  for (uint32_t j : out_chosen) {
    cover->AddIn(out_side.nodes[j], w, out_side.dists[j]);
  }
  return cg_builder->RemoveCovered(in_side, out_side, in_chosen, out_chosen,
                                   uncovered);
}

/// Per-worker scratch for candidate evaluation: sides and the
/// center-graph builder's index map/mask are reused across evaluations so
/// the hot loop stays allocation-light, and owning one per worker makes
/// the speculation stage share nothing but read-only state.
struct EvalScratch {
  EvalScratch(size_t num_nodes, const DistanceClosure* dc)
      : cg_builder(num_nodes, dc) {}
  Side in_side;
  Side out_side;
  CenterGraphBuilder cg_builder;
};

/// A candidate's densest-subgraph evaluation, stamped with the version of
/// the uncovered set it was computed against. `consumed` distinguishes
/// speculative work that paid off from work a commit threw away.
struct CachedEval {
  uint64_t version = 0;  // 0 = never evaluated
  bool consumed = false;
  DensestSubgraph ds;
};

/// The staged cover-construction pipeline (see builder.h for the stage
/// overview and the determinism argument). One instance per build; the
/// pool (if any) lives as long as the pipeline. It reads one closure:
/// `tc` in plain mode, `dc` in distance mode; the other is null.
class CoverBuildPipeline {
 public:
  CoverBuildPipeline(const TransitiveClosure* tc, const DistanceClosure* dc,
                     const CoverBuildOptions& options, CoverBuildStats* stats)
      : tc_(tc),
        dc_(dc),
        options_(options),
        stats_(stats),
        n_(dc != nullptr ? dc->NumNodes() : tc->NumNodes()),
        cover_(n_),
        uncovered_(dc != nullptr ? UncoveredSet(*dc) : UncoveredSet(*tc)) {
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    }
    size_t workers = pool_ ? pool_->NumWorkers() : 1;
    scratch_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) scratch_.emplace_back(n_, dc_);
    batch_limit_ = options_.speculation_batch > 0 ? options_.speculation_batch
                                                  : workers;
  }

  Result<TwoHopCover> Run() {
    stats_->initial_connections = uncovered_.count();
    Preselect();
    HOPI_RETURN_NOT_OK(SeedPriorities());
    HOPI_RETURN_NOT_OK(GreedyLoop());
    return std::move(cover_);
  }

 private:
  // --- Stage 0: center preselection (Sec 4.2), sequential ---
  void Preselect() {
    EvalScratch& s = scratch_[0];
    for (NodeId w : options_.preselect_centers) {
      if (uncovered_.count() == 0) break;
      assert(w < n_);
      BuildSides(tc_, dc_, w, &s.in_side, &s.out_side);
      // Use only nodes that still have an uncovered pair through w — the
      // point of preselection is fewer redundant entries, not more.
      std::vector<uint32_t> in_chosen, out_chosen;
      BipartiteGraph cg =
          s.cg_builder.Build(uncovered_, s.in_side, s.out_side);
      for (uint32_t i = 0; i < cg.NumIn(); ++i) {
        if (!cg.InAdj(i).empty()) in_chosen.push_back(i);
      }
      for (uint32_t j = 0; j < cg.NumOut(); ++j) {
        if (!cg.OutAdj(j).empty()) out_chosen.push_back(j);
      }
      if (in_chosen.empty()) continue;
      stats_->preselect_covered +=
          ApplyCenter(w, s.in_side, s.out_side, in_chosen, out_chosen,
                      &s.cg_builder, &uncovered_, &cover_);
    }
  }

  // --- Stage 1: parallel priority seeding ---
  // Each node's initial priority is a pure function of the closure and,
  // in distance mode, its own forked random stream — so the parallel and
  // sequential passes produce the same priorities bit for bit.
  Status SeedPriorities() {
    std::vector<double> priorities(n_, 0.0);
    const Rng base(options_.sample_seed);
    auto seed_one = [&](size_t w) {
      if (dc_ != nullptr) {
        Rng node_rng = base.Fork(w);
        priorities[w] = DistanceInitialPriority(
            *dc_, static_cast<NodeId>(w), options_.max_density_samples,
            options_.density_confidence, &node_rng);
      } else {
        priorities[w] = PlainInitialPriority(
            tc_->AncestorsRow(static_cast<NodeId>(w)).Count(),
            tc_->DescendantsRow(static_cast<NodeId>(w)).Count());
      }
      return Status::OK();
    };
    if (pool_) {
      HOPI_RETURN_NOT_OK(pool_->ParallelFor(0, n_, seed_one));
    } else {
      for (size_t w = 0; w < n_; ++w) {
        Status s = seed_one(w);
        assert(s.ok());
        (void)s;
      }
    }
    for (NodeId w = 0; w < n_; ++w) {
      if (priorities[w] > 0.0) queue_.push({priorities[w], w});
    }
    return Status::OK();
  }

  // --- Stage 2+3: speculative evaluation + sequential commits ---
  Status GreedyLoop() {
    constexpr double kEps = 1e-9;
    cache_.assign(n_, CachedEval{});
    while (uncovered_.count() > 0) {
      if (queue_.empty()) {
        return Status::Internal(
            "candidate queue drained with uncovered connections left");
      }
      if (cache_[queue_.top().node].version != version_) {
        HOPI_RETURN_NOT_OK(EvaluateFrontier());
      }
      Candidate cand = queue_.top();
      queue_.pop();
      NodeId w = cand.node;
      CachedEval& eval = cache_[w];
      assert(eval.version == version_);
      eval.consumed = true;
      const DensestSubgraph& ds = eval.ds;

      if (ds.density <= 0.0) {
        eval.ds = DensestSubgraph();  // w is dropped for good; free its eval
        continue;
      }
      if (ds.density + kEps < cand.priority) {
        // Stale: priority dropped since the estimate. Reinsert and retry.
        queue_.push({ds.density, w});
        ++stats_->queue_reinsertions;
        continue;
      }

      // Commit. The popped candidate's evaluation is exact: the uncovered
      // set has not changed since version_ was stamped. Sides are
      // rebuilt (pure in w, O(|Anc|+|Desc|)) rather than cached — the
      // chosen vertex indices refer to their deterministic order.
      EvalScratch& s = scratch_[0];
      BuildSides(tc_, dc_, w, &s.in_side, &s.out_side);
      uint64_t covered =
          ApplyCenter(w, s.in_side, s.out_side, ds.in_vertices,
                      ds.out_vertices, &s.cg_builder, &uncovered_, &cover_);
      assert(covered > 0);
      (void)covered;
      ++stats_->centers_chosen;
      ++version_;  // every outstanding speculative evaluation is now stale
      // w may still be useful for its remaining uncovered pairs; its
      // density can only have decreased, so this is a valid upper bound.
      queue_.push({ds.density, w});
      // Everything evaluated against the pre-commit snapshot is dead now
      // (including w's own result, consumed above) — release the vertex
      // lists so cache memory stays bounded by one snapshot's frontier
      // activity instead of growing with every node ever evaluated. The
      // version/consumed flags survive for the waste accounting.
      for (NodeId evaluated : current_version_evals_) {
        cache_[evaluated].ds = DensestSubgraph();
      }
      current_version_evals_.clear();
    }
    // The final commit staled the whole outstanding frontier; those
    // evaluations will never be consumed, so account them now (in-loop
    // waste counting only sees entries that get re-evaluated).
    for (const CachedEval& e : cache_) {
      if (e.version != 0 && e.version != version_ && !e.consumed) {
        ++stats_->speculative_wasted;
      }
    }
    return Status::OK();
  }

  /// Pops the top-K frontier, evaluates every candidate without a
  /// current-version cache entry in parallel against the (read-only)
  /// uncovered set, and pushes the frontier back unchanged — the queue
  /// contents, and with them the deterministic pop order, are exactly as
  /// before the speculation.
  Status EvaluateFrontier() {
    batch_.clear();
    eval_nodes_.clear();
    while (batch_.size() < batch_limit_ && !queue_.empty()) {
      Candidate c = queue_.top();
      queue_.pop();
      batch_.push_back(c);
      CachedEval& e = cache_[c.node];
      if (e.version == version_) continue;  // still fresh from a prior round
      if (e.version != 0 && !e.consumed) ++stats_->speculative_wasted;
      eval_nodes_.push_back(c.node);
    }
    // The frontier head always needs evaluation (that is why we are
    // here); everything beyond it is speculation.
    assert(!eval_nodes_.empty());
    stats_->densest_recomputations += eval_nodes_.size();
    stats_->speculative_evaluations += eval_nodes_.size() - 1;

    auto eval_one = [&](size_t idx, size_t worker) {
      NodeId w = eval_nodes_[idx];
      EvalScratch& s = scratch_[worker];
      BuildSides(tc_, dc_, w, &s.in_side, &s.out_side);
      BipartiteGraph cg =
          s.cg_builder.Build(uncovered_, s.in_side, s.out_side);
      CachedEval& e = cache_[w];
      e.ds = ApproxDensestSubgraph(cg);
      e.version = version_;
      e.consumed = false;
      return Status::OK();
    };
    current_version_evals_.insert(current_version_evals_.end(),
                                  eval_nodes_.begin(), eval_nodes_.end());
    Status status = Status::OK();
    if (pool_ && eval_nodes_.size() > 1) {
      status = pool_->ParallelFor(0, eval_nodes_.size(), eval_one);
    } else {
      for (size_t idx = 0; idx < eval_nodes_.size(); ++idx) {
        Status s = eval_one(idx, 0);
        assert(s.ok());
        (void)s;
      }
    }
    for (const Candidate& c : batch_) queue_.push(c);
    return status;
  }

  const TransitiveClosure* tc_;
  const DistanceClosure* dc_;
  const CoverBuildOptions& options_;
  CoverBuildStats* stats_;
  const size_t n_;

  TwoHopCover cover_;
  UncoveredSet uncovered_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<EvalScratch> scratch_;
  size_t batch_limit_ = 1;

  std::priority_queue<Candidate> queue_;
  std::vector<CachedEval> cache_;
  uint64_t version_ = 1;  // bumped per commit; cache entries must match
  std::vector<Candidate> batch_;     // frontier gathered per round
  std::vector<NodeId> eval_nodes_;   // frontier members needing evaluation
  std::vector<NodeId> current_version_evals_;  // evaluated since the last
                                               // commit; freed by the next
};

}  // namespace

Result<TwoHopCover> BuildCover(const Digraph& g,
                               const CoverBuildOptions& options,
                               CoverBuildStats* stats) {
  CoverBuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (options.with_distance) {
    DistanceClosure dc = DistanceClosure::Build(g);
    return CoverBuildPipeline(nullptr, &dc, options, stats).Run();
  }
  auto tc = TransitiveClosure::Build(g);
  if (!tc.ok()) return tc.status();
  return CoverBuildPipeline(&*tc, nullptr, options, stats).Run();
}

Status ValidateCover(const TwoHopCover& cover, const Digraph& g,
                     bool check_distances) {
  if (cover.NumNodes() < g.NumNodes()) {
    return Status::Internal("cover smaller than graph: " +
                            std::to_string(cover.NumNodes()) + " vs " +
                            std::to_string(g.NumNodes()));
  }
  DistanceClosure dc = DistanceClosure::Build(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    // Completeness + distance correctness over real connections.
    for (const DistConnection& c : dc.Row(u)) {
      if (!cover.IsConnected(u, c.node)) {
        return Status::Internal("connection (" + std::to_string(u) + "," +
                                std::to_string(c.node) + ") not covered");
      }
      if (check_distances) {
        auto d = cover.Distance(u, c.node);
        if (!d || *d != c.dist) {
          return Status::Internal(
              "distance mismatch for (" + std::to_string(u) + "," +
              std::to_string(c.node) + "): cover says " +
              (d ? std::to_string(*d) : "none") + ", graph says " +
              std::to_string(c.dist));
        }
      }
    }
    // Soundness: cover must not claim connections the graph lacks.
    size_t expected = dc.Row(u).size();
    size_t claimed = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (v != u && cover.IsConnected(u, v)) ++claimed;
    }
    if (claimed != expected) {
      return Status::Internal("node " + std::to_string(u) + " claims " +
                              std::to_string(claimed) + " descendants, graph has " +
                              std::to_string(expected));
    }
  }
  return Status::OK();
}

}  // namespace hopi::twohop
