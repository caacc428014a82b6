// Shard plan + router: the paper's partitioned cover, cut at shard
// granularity for scatter-gather serving.
//
// The ROADMAP names the document partitioning (Sec 3.3) as the natural
// shard key. A ShardPlan groups the partitions of one PartitionCollection
// run into N shard units and runs the pipeline hopi/build.cc runs, one
// level up, on one cover in global element ids: every partition's cover
// goes into it, and one JoinCoversRecursive joins every intra-shard
// cross link, so each shard's part of the cover is exact for paths that
// stay inside the shard. Reachability ACROSS shards is carried by the
// shard-level skeleton: the PSG over the cross-SHARD links
// (partition/psg.h with "partition" = shard, built over the same cover)
// and its H-bar cover (hopi/join.h ComputeSkeletonCover), kept in the
// router as route tables — (source, target, dist) triples meaning
// "leaving the source's shard at `source` reaches `target` in the
// target's shard after `dist` edges". Finally each node's labels move
// into its shard's HopiIndex.
//
// Probe composition (exactly how hopi/join.cc composes partition covers):
//
//   same shard   dist(u,v) = shard-local cover answer. Before the split,
//                the plan applies every SAME-shard skeleton route to the
//                cover with the join's own H-bar/H-hat merge
//                (hopi/join.h MergeSkeletonCover), so paths that leave
//                the shard and come back are already in the labels and
//                direct routing stays exact.
//   cross shard  dist(u,v) = min over routes (s,t) of
//                  dist_shard(u)(u,s) + dist_psg(s,t) + dist_shard(v)(t,v)
//                — min-plus over the three legs. Decomposing any u->v
//                path at its first and last cross-shard link crossing
//                shows the min is exact: the first/last legs never leave
//                their shard, and the middle is a PSG walk.
//
// The router itself is deliberately dumb and serializable: part_of /
// shard_of tables and per-shard-pair route lists, no engine pointers —
// the piece that would move to a stateless routing tier when the
// ShardClient boundary (sharded_engine.h) is lifted onto sockets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "collection/collection.h"
#include "hopi/index.h"
#include "partition/partitioner.h"
#include "util/result.h"

namespace hopi::engine {

/// Shard id of dead documents / dead elements (mirrors
/// partition::kUnassigned for partitions).
inline constexpr uint32_t kUnassignedShard = UINT32_MAX;

/// One skeleton route: leaving shard_of(source) at `source` reaches
/// `target` (in shard_of(target)) after `dist` element-graph edges.
struct ShardRoute {
  NodeId source = kInvalidNode;
  NodeId target = kInvalidNode;
  uint32_t dist = 0;
};

struct ShardPlanOptions {
  /// Shard units to build. Clamped to the number of document partitions
  /// (a single-partition collection always yields one shard).
  size_t num_shards = 2;
  /// Build distance-aware shard covers and skeleton routes.
  bool with_distance = false;
  /// Document partitioning knobs (the shard key comes from this run).
  partition::PartitionOptions partition;
  /// Threads inside each partition's cover build (partitions are built
  /// one after another). The plan is the same for every value.
  size_t num_threads = 1;
  /// Sec 4.1 recursive PSG split cap for the shard-level skeleton
  /// (0 = traverse the skeleton PSG whole).
  uint64_t psg_partition_cap = 0;
};

struct ShardPlanStats {
  uint64_t num_partitions = 0;      ///< Document partitions under the shards.
  uint64_t cross_shard_links = 0;   ///< Links crossing a shard boundary.
  uint64_t skeleton_entries = 0;    ///< H-bar rows' total (s, t) pairs.
  uint64_t cross_shard_routes = 0;  ///< The subset routed between shards.
  uint64_t same_shard_routes = 0;   ///< The subset folded into shard covers.
  uint64_t augmented_labels = 0;    ///< Labels added by that folding.
  uint64_t psg_nodes = 0;
  uint64_t psg_edges = 0;
};

/// Everything the sharded serving tier needs, built once per collection:
/// membership tables, one immutable per-shard index, and the skeleton
/// route tables. Indexes reference the collection the plan was built
/// from; it must outlive the plan.
struct ShardPlan {
  size_t num_shards = 0;
  bool with_distance = false;

  /// doc -> shard (kUnassignedShard for dead docs).
  std::vector<uint32_t> shard_of_doc;
  /// element -> shard (kUnassignedShard for elements of dead docs).
  std::vector<uint32_t> shard_of_element;
  /// Documents per shard.
  std::vector<std::vector<collection::DocId>> docs_of_shard;

  /// Per-shard 2-hop indexes in GLOBAL element ids, same-shard skeleton
  /// routes already folded in. Shared so BackendSnapshot::OfIndex can
  /// co-own them.
  std::vector<std::shared_ptr<const HopiIndex>> indexes;

  /// Cross-shard route tables: routes[a * num_shards + b] holds every
  /// skeleton route from shard a to shard b (a != b), sorted by
  /// (source, target).
  std::vector<std::vector<ShardRoute>> routes;

  ShardPlanStats stats;

  uint32_t ShardOfElement(NodeId u) const {
    return u < shard_of_element.size() ? shard_of_element[u]
                                       : kUnassignedShard;
  }
  const std::vector<ShardRoute>& RoutesBetween(uint32_t from,
                                               uint32_t to) const {
    return routes[from * num_shards + to];
  }
};

/// Builds a ShardPlan over the collection's live documents. `collection`
/// must outlive the plan (the per-shard indexes point into it).
/// InvalidArgument when num_shards == 0.
Result<ShardPlan> BuildShardPlan(collection::Collection* collection,
                                 const ShardPlanOptions& options);

/// The scatter half of one cross-shard probe, precomputed per ordered
/// shard pair: which elements the source shard must answer (u -> source)
/// and which the target shard must answer (target -> v).
struct ShardProbeSet {
  std::vector<NodeId> sources;  ///< Sorted unique route sources.
  std::vector<NodeId> targets;  ///< Sorted unique route targets.
};

/// Routing decisions over a ShardPlan. Owns nothing but derived tables;
/// safe to share across threads once constructed.
class ShardRouter {
 public:
  /// `plan` must outlive the router.
  explicit ShardRouter(const ShardPlan* plan);

  uint32_t ShardOf(NodeId u) const { return plan_->ShardOfElement(u); }
  size_t num_shards() const { return plan_->num_shards; }

  /// Scatter set for probes from shard `from` to shard `to` (from != to).
  /// Empty sets mean the pair is unreachable without any probing.
  const ShardProbeSet& ProbesBetween(uint32_t from, uint32_t to) const {
    return probe_sets_[from * plan_->num_shards + to];
  }
  const std::vector<ShardRoute>& RoutesBetween(uint32_t from,
                                               uint32_t to) const {
    return plan_->RoutesBetween(from, to);
  }

  /// All routes leaving `source` / entering `target`, any shard pair
  /// (the axis-enumeration views for Descendants/Ancestors).
  const std::vector<std::pair<NodeId, uint32_t>>& RoutesFrom(
      NodeId source) const;
  const std::vector<std::pair<NodeId, uint32_t>>& RoutesInto(
      NodeId target) const;

  const ShardPlan& plan() const { return *plan_; }

 private:
  const ShardPlan* plan_;
  std::vector<ShardProbeSet> probe_sets_;
  // element -> outgoing (target, dist) / incoming (source, dist) routes,
  // dense over the element id space (empty for non-endpoint elements).
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> routes_from_;
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> routes_into_;
};

/// One leg answer for ComposeThreeLegs: engaged = reachable, value = leg
/// distance (0 in plain builds).
using LegLookup = std::function<std::optional<uint32_t>(NodeId)>;

/// Pure min-plus composition of one cross-shard probe from its legs:
/// reachable iff some route (s, t, d) has both legs reachable; the
/// distance is min over such routes of source_leg(s) + d + target_leg(t).
/// Deterministic and engine-free — the merge layer's unit-test seam.
/// Returns {reachable, distance}; distance is engaged only when
/// `want_distance` and reachable.
std::pair<bool, std::optional<uint32_t>> ComposeThreeLegs(
    const std::vector<ShardRoute>& routes, const LegLookup& source_leg,
    const LegLookup& target_leg, bool want_distance);

}  // namespace hopi::engine
