#include "engine/shard_router.h"

#include <algorithm>

#include "hopi/build.h"

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
  const partition::Partitioning& partitioning = *partitioned;
  const size_t num_parts = partitioning.NumPartitions();
  plan.stats.num_partitions = num_parts;

  // --- Step 2: partitions -> shards, balanced by element count ---
  plan.num_shards = std::min(options.num_shards, std::max<size_t>(num_parts, 1));
  const size_t n = plan.num_shards;
  std::vector<uint32_t> shard_of_part =
      AssignPartitionsToShards(*collection, partitioning, n);

  plan.shard_of_doc.assign(collection->NumDocuments(), kUnassignedShard);
  for (size_t p = 0; p < num_parts; ++p) {
    for (collection::DocId d : partitioning.partitions[p]) {
      plan.shard_of_doc[d] = shard_of_part[p];
    }
  }
  plan.shard_of_element.assign(collection->NumElements(), kUnassignedShard);
  for (collection::DocId d = 0; d < collection->NumDocuments(); ++d) {
    if (plan.shard_of_doc[d] == kUnassignedShard) continue;
    for (NodeId e : collection->ElementsOf(d)) {
      plan.shard_of_element[e] = plan.shard_of_doc[d];
    }
  }
  for (const collection::Link& l : partitioning.cross_links) {
    if (plan.shard_of_element[l.source] != plan.shard_of_element[l.target]) {
      ++plan.stats.cross_shard_links;
    }
  }

  // --- Step 3: one cover over the whole collection ---
  // BuildIndex's covers and join phases over this partitioning: the
  // partition covers, joined across every cross link.
  IndexBuildOptions build_options;
  build_options.with_distance = options.with_distance;
  build_options.num_threads = options.num_threads;
  build_options.psg_partition_cap = options.psg_partition_cap;
  auto built = BuildPartitionedCover(*collection, partitioning, build_options);
  if (!built.ok()) return built.status();
  twohop::TwoHopCover& cover = *built;

  // --- Step 4: split the rows by home shard ---
  // Each live node's rows move into its shard's cover; elements of dead
  // documents carry none.
  std::vector<twohop::TwoHopCover> shard_covers(
      n, twohop::TwoHopCover(collection->NumElements()));
  for (NodeId v = 0; v < cover.NumNodes(); ++v) {
    uint32_t s = plan.shard_of_element[v];
    if (s == kUnassignedShard) continue;
    twohop::JoinView in = cover.In(v);
    twohop::JoinView out = cover.Out(v);
    shard_covers[s].SetIn(v, {in.begin(), in.end()});
    shard_covers[s].SetOut(v, {out.begin(), out.end()});
    cover.ClearNode(v);
  }
  plan.indexes.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    plan.indexes.push_back(std::make_shared<const HopiIndex>(
        collection, std::move(shard_covers[s]), options.with_distance));
  }
  return plan;
}

}  // namespace hopi::engine
