// Greedy 2-hop cover construction (paper Sec 3.2 + Sec 5.2).
//
// Implements Cohen et al.'s approximation with HOPI's two optimizations:
//   1. A lazy priority queue over candidate centers: densities only
//      decrease as connections get covered, so each popped candidate is
//      re-verified and re-inserted when stale, avoiding recomputing every
//      densest subgraph each round.
//   2. Closed-form initial priorities: before anything is covered, w's
//      center graph is the complete bipartite graph over (Anc(w)+w,
//      Desc(w)+w) minus the (w,w) pair, so its density is known without
//      constructing it.
// The distance-aware mode (Sec 5) restricts center-graph edges to pairs
// (u, v) with dist(u,v) == dist(u,w) + dist(w,v) and replaces optimization
// (2) with the sampled edge-count estimate (<= 13,600 samples, 98% CI
// upper bound, priority sqrt(E)/2).
//
// Center preselection (Sec 4.2) seeds the cover with a caller-provided
// list of centers (HOPI passes cross-partition link targets) before the
// greedy loop starts.
//
// The build is staged so a single partition's cover can use several
// threads (num_threads > 1) while staying deterministic:
//   1. Priority seeding — the per-node initial priority pass (including
//      the sampled binomial bound in distance mode, which draws from a
//      per-node Rng::Fork stream) is embarrassingly parallel.
//   2. Speculative evaluation — the greedy loop pops the top-K frontier
//      of the lazy priority queue and evaluates every candidate's center
//      graph + densest subgraph in parallel against the current
//      (read-only) uncovered set, on thread-local scratch.
//   3. Commit — candidates are then consumed strictly in priority order
//      on one thread; each commit revalidates against the popped bound
//      exactly like the sequential loop and invalidates the outstanding
//      speculative evaluations (they were computed against a stale
//      uncovered set).
// Candidates are ordered by (priority, node id), a strict total order, so
// the pop sequence is a function of queue *contents* alone and every
// evaluation is a pure function of (node, uncovered set). The produced
// cover is therefore bit-identical for every thread count and batch
// size; only the wasted-speculation counters vary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "twohop/cover.h"
#include "util/result.h"

namespace hopi::twohop {

struct CoverBuildOptions {
  /// Track shortest distances in the labels (Sec 5).
  bool with_distance = false;

  /// Centers to apply before the greedy loop, in order (Sec 4.2).
  std::vector<NodeId> preselect_centers;

  /// Sampling parameters for the distance-mode initial density estimate
  /// (Sec 5.2: "at most 13,600 randomly chosen candidate edges", 98% CI).
  uint32_t max_density_samples = 13600;
  double density_confidence = 0.98;
  uint64_t sample_seed = 0x5EED5EEDULL;

  /// Threads used *inside* this cover build (priority seeding +
  /// speculative candidate evaluation). 1 = fully sequential. The result
  /// is bit-identical for every value; see the staging notes above.
  size_t num_threads = 1;

  /// Size of the speculatively evaluated priority-queue frontier per
  /// round. 0 = auto (one candidate per worker thread). Larger batches
  /// ride out longer stale-pop chains at the cost of more wasted
  /// evaluations after a commit; the result never changes.
  uint32_t speculation_batch = 0;
};

/// Instrumentation counters for the build (reported by the benches).
struct CoverBuildStats {
  uint64_t initial_connections = 0;   // |T| fed to the algorithm
  uint64_t centers_chosen = 0;        // greedy iterations that covered pairs
  uint64_t densest_recomputations = 0;
  uint64_t queue_reinsertions = 0;    // stale pops (the cost HOPI's
                                      // priority queue avoids paying
                                      // everywhere)
  uint64_t preselect_covered = 0;     // pairs covered by preselection
  // Speculation accounting — these counters, *and*
  // densest_recomputations above (which includes the speculative
  // frontier evaluations), depend on num_threads/speculation_batch.
  // The remaining counters are identical for every thread count
  // because they are driven by the (deterministic) pop/commit
  // sequence. speculative_evaluations = frontier evaluations beyond
  // the mandatory head; speculative_wasted = how many of those were
  // invalidated by a commit before being consumed.
  uint64_t speculative_evaluations = 0;
  uint64_t speculative_wasted = 0;
};

/// Builds a 2-hop cover for all connections of `g`. Computes one closure
/// internally: the transitive closure in plain mode, the distance closure
/// in distance mode.
Result<TwoHopCover> BuildCover(const Digraph& g,
                               const CoverBuildOptions& options = {},
                               CoverBuildStats* stats = nullptr);

/// Exhaustive cover correctness check against the closure (test oracle):
/// verifies completeness (every connection covered), soundness (no
/// nonexisting connection covered) and, in distance mode, exact shortest
/// distances. O(n^2) — test-sized graphs only.
Status ValidateCover(const TwoHopCover& cover, const Digraph& g,
                     bool check_distances = false);

}  // namespace hopi::twohop
