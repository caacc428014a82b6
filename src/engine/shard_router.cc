#include "engine/shard_router.h"

#include <algorithm>
#include <cassert>

#include "graph/subgraph.h"
#include "hopi/join.h"
#include "partition/psg.h"
#include "twohop/builder.h"
#include "twohop/reverse_index.h"

namespace hopi::engine {

namespace {

/// Largest-first greedy assignment of partitions to shards, balanced by
/// element count. Deterministic: ties broken by partition id, then by
/// shard id.
std::vector<uint32_t> AssignPartitionsToShards(
    const collection::Collection& collection,
    const partition::Partitioning& partitioning, size_t num_shards) {
  const size_t num_parts = partitioning.NumPartitions();
  std::vector<size_t> part_elements(num_parts, 0);
  for (size_t p = 0; p < num_parts; ++p) {
    for (collection::DocId d : partitioning.partitions[p]) {
      part_elements[p] += collection.ElementsOf(d).size();
    }
  }
  std::vector<size_t> order(num_parts);
  for (size_t p = 0; p < num_parts; ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (part_elements[a] != part_elements[b]) {
      return part_elements[a] > part_elements[b];
    }
    return a < b;
  });
  std::vector<uint32_t> shard_of_part(num_parts, 0);
  std::vector<size_t> shard_load(num_shards, 0);
  for (size_t p : order) {
    size_t best = 0;
    for (size_t s = 1; s < num_shards; ++s) {
      if (shard_load[s] < shard_load[best]) best = s;
    }
    shard_of_part[p] = static_cast<uint32_t>(best);
    shard_load[best] += part_elements[p];
  }
  return shard_of_part;
}

}  // namespace

Result<ShardPlan> BuildShardPlan(collection::Collection* collection,
                                 const ShardPlanOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }

  ShardPlan plan;
  plan.with_distance = options.with_distance;

  // --- Step 1: document partitioning (the shard key) ---
  auto partitioned =
      partition::PartitionCollection(*collection, options.partition);
  if (!partitioned.ok()) return partitioned.status();
  partition::Partitioning partitioning = std::move(partitioned).value();
  const size_t num_parts = partitioning.NumPartitions();
  plan.stats.num_partitions = num_parts;

  // --- Step 2: partitions -> shards, balanced by element count ---
  plan.num_shards = std::min(options.num_shards, std::max<size_t>(num_parts, 1));
  const size_t n = plan.num_shards;
  std::vector<uint32_t> shard_of_part =
      AssignPartitionsToShards(*collection, partitioning, n);

  plan.shard_of_doc.assign(collection->NumDocuments(), kUnassignedShard);
  plan.docs_of_shard.assign(n, {});
  for (size_t p = 0; p < num_parts; ++p) {
    for (collection::DocId d : partitioning.partitions[p]) {
      plan.shard_of_doc[d] = shard_of_part[p];
      plan.docs_of_shard[shard_of_part[p]].push_back(d);
    }
  }
  plan.shard_of_element.assign(collection->NumElements(), kUnassignedShard);
  for (collection::DocId d = 0; d < collection->NumDocuments(); ++d) {
    if (plan.shard_of_doc[d] == kUnassignedShard) continue;
    for (NodeId e : collection->ElementsOf(d)) {
      plan.shard_of_element[e] = plan.shard_of_doc[d];
    }
  }

  // --- Step 3: one cover over every partition (global element ids) ---
  // Per partition: induced subgraph + local 2-hop cover (the hopi/build.cc
  // covers phase), translated into global ids; then every intra-shard
  // cross link is joined recursively in one pass, giving a cover that is
  // exact for paths staying inside a shard. Cross-shard links are set
  // aside for the skeleton.
  twohop::CoverBuildOptions cover_options;
  cover_options.with_distance = options.with_distance;
  cover_options.num_threads = std::max<size_t>(options.num_threads, 1);

  twohop::TwoHopCover unified(collection->NumElements());
  for (size_t p = 0; p < num_parts; ++p) {
    std::vector<NodeId> elements;
    for (collection::DocId d : partitioning.partitions[p]) {
      const auto& els = collection->ElementsOf(d);
      elements.insert(elements.end(), els.begin(), els.end());
    }
    InducedSubgraph sub =
        BuildInducedSubgraph(collection->ElementGraph(), elements);
    auto cover = twohop::BuildCover(sub.graph, cover_options);
    if (!cover.ok()) return cover.status();
    for (NodeId local = 0; local < cover->NumNodes(); ++local) {
      NodeId global = sub.Global(local);
      for (twohop::LabelEntry e : cover->In(local)) {
        unified.AddIn(global, sub.Global(e.center), e.dist);
      }
      for (twohop::LabelEntry e : cover->Out(local)) {
        unified.AddOut(global, sub.Global(e.center), e.dist);
      }
    }
  }
  twohop::IndexedCover cover(std::move(unified));

  std::vector<collection::Link> intra_shard_links;
  std::vector<collection::Link> cross_shard_links;
  for (const collection::Link& l : partitioning.cross_links) {
    uint32_t a = plan.shard_of_element[l.source];
    uint32_t b = plan.shard_of_element[l.target];
    assert(a != kUnassignedShard && b != kUnassignedShard);
    (a == b ? intra_shard_links : cross_shard_links).push_back(l);
  }
  partitioning.cross_links = std::move(intra_shard_links);
  HOPI_RETURN_NOT_OK(JoinCoversRecursive(*collection, partitioning,
                                         options.with_distance, &cover));
  plan.stats.cross_shard_links = cross_shard_links.size();

  // --- Step 4: the shard-level skeleton ---
  // The PSG with "partition" = shard: nodes are cross-shard link
  // endpoints, edges are the cross-shard links (weight 1) plus, inside
  // each shard, target -> source edges weighted by the shard-local
  // distance. Its H-bar cover is the complete route table: the PSG
  // shortest distance s -> t equals the true element-graph shortest
  // distance over paths that leave s's shard at s and enter t's shard at
  // t (decompose any such path at every cross-shard crossing). Routes
  // between shards go to the tables; routes that start and end in one
  // shard are folded into the cover by the join's own H-bar/H-hat merge:
  // every path the cover knows stays inside one shard, as the merge
  // requires.
  plan.routes.assign(n * n, {});
  if (!cross_shard_links.empty()) {
    partition::Partitioning shard_partitioning;
    shard_partitioning.partitions = plan.docs_of_shard;
    shard_partitioning.part_of = plan.shard_of_doc;
    shard_partitioning.cross_links = std::move(cross_shard_links);
    partition::PartitionSkeletonGraph psg = partition::BuildPsg(
        *collection, shard_partitioning, cover, options.with_distance);
    plan.stats.psg_nodes = psg.graph.NumNodes();
    plan.stats.psg_edges = psg.graph.NumEdges();

    JoinOptions join_options;
    join_options.psg_partition_cap = options.psg_partition_cap;
    std::vector<SkeletonRow> same_shard;
    for (const SkeletonRow& row : ComputeSkeletonCover(psg, join_options)) {
      uint32_t a = plan.shard_of_element[row.source];
      SkeletonRow folded{row.source, {}};
      for (const SkeletonTarget& t : row.targets) {
        uint32_t b = plan.shard_of_element[t.target];
        ++plan.stats.skeleton_entries;
        if (a == b) {
          folded.targets.push_back(t);
          ++plan.stats.same_shard_routes;
        } else {
          plan.routes[a * n + b].push_back({row.source, t.target, t.dist});
          ++plan.stats.cross_shard_routes;
        }
      }
      if (!folded.targets.empty()) same_shard.push_back(std::move(folded));
    }
    for (auto& table : plan.routes) {
      std::sort(table.begin(), table.end(),
                [](const ShardRoute& x, const ShardRoute& y) {
                  if (x.source != y.source) return x.source < y.source;
                  return x.target < y.target;
                });
    }
    JoinStats merged;
    MergeSkeletonCover(same_shard, options.with_distance, &cover, &merged);
    plan.stats.augmented_labels = merged.hbar_entries + merged.hhat_entries;
  }

  // --- Step 5: split the cover into one index per shard ---
  // Each node's labels move into its shard's cover; elements of dead
  // documents carry none.
  std::vector<twohop::TwoHopCover> shard_covers(
      n, twohop::TwoHopCover(collection->NumElements()));
  twohop::TwoHopCover* global = cover.mutable_cover();
  for (NodeId v = 0; v < global->NumNodes(); ++v) {
    uint32_t s = plan.shard_of_element[v];
    if (s == kUnassignedShard) continue;
    twohop::JoinView in = global->In(v);
    twohop::JoinView out = global->Out(v);
    shard_covers[s].SetIn(v, {in.begin(), in.end()});
    shard_covers[s].SetOut(v, {out.begin(), out.end()});
    global->ClearNode(v);
  }
  plan.indexes.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    plan.indexes.push_back(std::make_shared<const HopiIndex>(
        collection, std::move(shard_covers[s]), options.with_distance));
  }
  return plan;
}

ShardRouter::ShardRouter(const ShardPlan* plan) : plan_(plan) {
  const size_t n = plan_->num_shards;
  probe_sets_.resize(n * n);
  for (size_t i = 0; i < n * n; ++i) {
    ShardProbeSet& set = probe_sets_[i];
    for (const ShardRoute& r : plan_->routes[i]) {
      set.sources.push_back(r.source);
      set.targets.push_back(r.target);
    }
    std::sort(set.sources.begin(), set.sources.end());
    set.sources.erase(std::unique(set.sources.begin(), set.sources.end()),
                      set.sources.end());
    std::sort(set.targets.begin(), set.targets.end());
    set.targets.erase(std::unique(set.targets.begin(), set.targets.end()),
                      set.targets.end());
  }
  routes_from_.resize(plan_->shard_of_element.size());
  routes_into_.resize(plan_->shard_of_element.size());
  for (const auto& table : plan_->routes) {
    for (const ShardRoute& r : table) {
      routes_from_[r.source].push_back({r.target, r.dist});
      routes_into_[r.target].push_back({r.source, r.dist});
    }
  }
}

const std::vector<std::pair<NodeId, uint32_t>>& ShardRouter::RoutesFrom(
    NodeId source) const {
  static const std::vector<std::pair<NodeId, uint32_t>> kEmpty;
  return source < routes_from_.size() ? routes_from_[source] : kEmpty;
}

const std::vector<std::pair<NodeId, uint32_t>>& ShardRouter::RoutesInto(
    NodeId target) const {
  static const std::vector<std::pair<NodeId, uint32_t>> kEmpty;
  return target < routes_into_.size() ? routes_into_[target] : kEmpty;
}

std::pair<bool, std::optional<uint32_t>> ComposeThreeLegs(
    const std::vector<ShardRoute>& routes, const LegLookup& source_leg,
    const LegLookup& target_leg, bool want_distance) {
  bool reachable = false;
  std::optional<uint32_t> best;
  NodeId current_source = kInvalidNode;
  std::optional<uint32_t> current_source_leg;
  for (const ShardRoute& r : routes) {
    if (r.source != current_source) {
      current_source = r.source;
      current_source_leg = source_leg(r.source);
    }
    if (!current_source_leg.has_value()) continue;
    std::optional<uint32_t> tail = target_leg(r.target);
    if (!tail.has_value()) continue;
    reachable = true;
    if (!want_distance) break;  // any connected route settles the bool
    uint32_t total = *current_source_leg + r.dist + *tail;
    if (!best.has_value() || total < *best) best = total;
  }
  if (!want_distance) return {reachable, std::nullopt};
  return {reachable, reachable ? best : std::nullopt};
}

}  // namespace hopi::engine
