#include "engine/shard_router.h"

#include <algorithm>
#include <cassert>
#include <map>

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

/// Folds one shard's same-shard skeleton routes into its cover — the
/// H-bar/H-hat merge of hopi/join.cc step 3, restricted to routes whose
/// endpoints both live in the shard. After this, paths that leave the
/// shard and return are in the labels and direct same-shard routing is
/// exact (every added entry is a true path length, so the cover join can
/// only report real connections). Ancestor/descendant sets and leg
/// distances are snapshotted BEFORE anything is applied, exactly as the
/// join does.
uint64_t AugmentShardCover(const std::vector<ShardRoute>& same_shard,
                           bool with_distance,
                           twohop::IndexedCover* cover) {
  if (same_shard.empty()) return 0;
  uint64_t added = 0;

  // Group routes by source; all endpoints are in-shard by construction,
  // so the cover's ancestor/descendant sets need no membership filter.
  std::map<NodeId, std::vector<std::pair<NodeId, uint32_t>>> by_source;
  for (const ShardRoute& r : same_shard) {
    by_source[r.source].push_back({r.target, r.dist});
  }

  struct AncestorTask {
    NodeId ancestor;
    uint32_t dist_to_source;
    const std::vector<std::pair<NodeId, uint32_t>>* targets;
  };
  std::vector<AncestorTask> ancestor_tasks;
  for (const auto& [s, targets] : by_source) {
    ancestor_tasks.push_back({s, 0, &targets});
    for (NodeId a : cover->Ancestors(s)) {
      uint32_t d = 0;
      if (with_distance) {
        auto dd = cover->cover().Distance(a, s);
        assert(dd.has_value());
        d = *dd;
      }
      ancestor_tasks.push_back({a, d, &targets});
    }
  }

  struct DescendantTask {
    NodeId descendant;
    NodeId target;
    uint32_t dist;
  };
  std::vector<DescendantTask> descendant_tasks;
  std::vector<NodeId> distinct_targets;
  for (const ShardRoute& r : same_shard) distinct_targets.push_back(r.target);
  std::sort(distinct_targets.begin(), distinct_targets.end());
  distinct_targets.erase(
      std::unique(distinct_targets.begin(), distinct_targets.end()),
      distinct_targets.end());
  for (NodeId t : distinct_targets) {
    for (NodeId d : cover->Descendants(t)) {
      uint32_t dist = 0;
      if (with_distance) {
        auto dd = cover->cover().Distance(t, d);
        assert(dd.has_value());
        dist = *dd;
      }
      descendant_tasks.push_back({d, t, dist});
    }
  }

  for (const AncestorTask& task : ancestor_tasks) {
    for (const auto& [t, d] : *task.targets) {
      if (cover->AddOut(task.ancestor, t,
                        with_distance ? task.dist_to_source + d : 0)) {
        ++added;
      }
    }
  }
  for (const DescendantTask& task : descendant_tasks) {
    if (cover->AddIn(task.descendant, task.target,
                     with_distance ? task.dist : 0)) {
      ++added;
    }
  }
  return added;
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
  auto partitioning =
      partition::PartitionCollection(*collection, options.partition);
  if (!partitioning.ok()) return partitioning.status();
  plan.partitioning = std::move(partitioning).value();
  const size_t num_parts = plan.partitioning.NumPartitions();
  plan.stats.num_partitions = num_parts;

  // --- Step 2: partitions -> shards, balanced by element count ---
  plan.num_shards = std::min(options.num_shards, std::max<size_t>(num_parts, 1));
  const size_t n = plan.num_shards;
  std::vector<uint32_t> shard_of_part =
      AssignPartitionsToShards(*collection, plan.partitioning, n);

  plan.shard_of_doc.assign(collection->NumDocuments(), kUnassignedShard);
  plan.docs_of_shard.assign(n, {});
  for (size_t p = 0; p < num_parts; ++p) {
    for (collection::DocId d : plan.partitioning.partitions[p]) {
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

  // --- Step 3: per-shard covers (global element ids) ---
  // Per partition: induced subgraph + local 2-hop cover (the hopi/build.cc
  // covers phase), translated into the owning shard's global-id cover;
  // then the intra-shard cross links are joined recursively, giving each
  // shard a cover that is exact for paths staying inside it.
  twohop::CoverBuildOptions cover_options;
  cover_options.with_distance = options.with_distance;
  cover_options.num_threads = std::max<size_t>(options.num_threads, 1);

  std::vector<twohop::TwoHopCover> shard_unified;
  shard_unified.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shard_unified.emplace_back(collection->NumElements());
  }
  for (size_t p = 0; p < num_parts; ++p) {
    std::vector<NodeId> elements;
    for (collection::DocId d : plan.partitioning.partitions[p]) {
      const auto& els = collection->ElementsOf(d);
      elements.insert(elements.end(), els.begin(), els.end());
    }
    InducedSubgraph sub =
        BuildInducedSubgraph(collection->ElementGraph(), elements);
    auto cover = twohop::BuildCover(sub.graph, cover_options);
    if (!cover.ok()) return cover.status();
    twohop::TwoHopCover& unified = shard_unified[shard_of_part[p]];
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

  std::vector<collection::Link> cross_shard_links;
  std::vector<twohop::IndexedCover> shard_covers;
  shard_covers.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shard_covers.emplace_back(std::move(shard_unified[s]));
  }
  {
    // Intra-shard joins: the original partitioning restricted to the
    // links whose endpoints share a shard. Cross-shard links are set
    // aside for the skeleton.
    std::vector<std::vector<collection::Link>> intra(n);
    for (const collection::Link& l : plan.partitioning.cross_links) {
      uint32_t a = plan.shard_of_element[l.source];
      uint32_t b = plan.shard_of_element[l.target];
      assert(a != kUnassignedShard && b != kUnassignedShard);
      if (a == b) {
        intra[a].push_back(l);
      } else {
        cross_shard_links.push_back(l);
      }
    }
    for (size_t s = 0; s < n; ++s) {
      partition::Partitioning shard_view;
      shard_view.partitions = plan.partitioning.partitions;
      shard_view.part_of = plan.partitioning.part_of;
      shard_view.cross_links = std::move(intra[s]);
      HOPI_RETURN_NOT_OK(JoinCoversRecursive(*collection, shard_view,
                                             options.with_distance,
                                             &shard_covers[s]));
    }
  }
  plan.stats.cross_shard_links = cross_shard_links.size();

  // --- Step 4: the shard-level skeleton ---
  // The PSG with "partition" = shard: nodes are cross-shard link
  // endpoints, edges are the cross-shard links (weight 1) plus, inside
  // each shard, target -> source edges weighted by the shard-local
  // distance. Its H-bar cover is the complete route table: the PSG
  // shortest distance s -> t equals the true element-graph shortest
  // distance over paths that leave s's shard at s and enter t's shard at
  // t (decompose any such path at every cross-shard crossing).
  plan.routes.assign(n * n, {});
  std::vector<std::vector<ShardRoute>> same_shard(n);
  if (!cross_shard_links.empty()) {
    partition::Partitioning shard_partitioning;
    shard_partitioning.partitions = plan.docs_of_shard;
    shard_partitioning.part_of = plan.shard_of_doc;
    shard_partitioning.cross_links = cross_shard_links;

    twohop::TwoHopCover combined(collection->NumElements());
    for (size_t s = 0; s < n; ++s) {
      const twohop::TwoHopCover& c = shard_covers[s].cover();
      for (NodeId v = 0; v < c.NumNodes(); ++v) {
        for (twohop::LabelEntry e : c.In(v)) {
          combined.AddIn(v, e.center, e.dist);
        }
        for (twohop::LabelEntry e : c.Out(v)) {
          combined.AddOut(v, e.center, e.dist);
        }
      }
    }
    twohop::IndexedCover combined_indexed(std::move(combined));
    partition::PartitionSkeletonGraph psg = partition::BuildPsg(
        *collection, shard_partitioning, combined_indexed,
        options.with_distance);
    plan.stats.psg_nodes = psg.graph.NumNodes();
    plan.stats.psg_edges = psg.graph.NumEdges();

    JoinOptions join_options;
    join_options.psg_partition_cap = options.psg_partition_cap;
    std::vector<SkeletonRow> rows = ComputeSkeletonCover(psg, join_options);

    for (const SkeletonRow& row : rows) {
      uint32_t a = plan.shard_of_element[row.source];
      for (const SkeletonTarget& t : row.targets) {
        uint32_t b = plan.shard_of_element[t.target];
        ++plan.stats.skeleton_entries;
        ShardRoute route{row.source, t.target, t.dist};
        if (a == b) {
          same_shard[a].push_back(route);
          ++plan.stats.same_shard_routes;
        } else {
          plan.routes[a * n + b].push_back(route);
          ++plan.stats.cross_shard_routes;
        }
      }
    }
    for (auto& table : plan.routes) {
      std::sort(table.begin(), table.end(),
                [](const ShardRoute& x, const ShardRoute& y) {
                  if (x.source != y.source) return x.source < y.source;
                  return x.target < y.target;
                });
    }
  }

  // --- Step 5: fold same-shard routes into the shard covers ---
  for (size_t s = 0; s < n; ++s) {
    plan.stats.augmented_labels +=
        AugmentShardCover(same_shard[s], options.with_distance,
                          &shard_covers[s]);
  }

  // --- Step 6: freeze each shard cover into an index ---
  plan.indexes.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    plan.indexes.push_back(std::make_shared<const HopiIndex>(
        collection, std::move(*shard_covers[s].mutable_cover()),
        options.with_distance));
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
