#include "hopi/build.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "graph/subgraph.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hopi {

namespace {

void AggregateStats(const twohop::CoverBuildStats& part,
                    twohop::CoverBuildStats* total) {
  total->initial_connections += part.initial_connections;
  total->centers_chosen += part.centers_chosen;
  total->densest_recomputations += part.densest_recomputations;
  total->queue_reinsertions += part.queue_reinsertions;
  total->preselect_covered += part.preselect_covered;
  total->speculative_evaluations += part.speculative_evaluations;
  total->speculative_wasted += part.speculative_wasted;
}

/// Splits the thread budget between partition-level workers and
/// intra-partition cover threads: `outer` partition builds run
/// concurrently, partition p's build uses the returned inner count, and
/// the leftover budget (threads % outer, nonzero only when there are
/// fewer partitions than threads) goes to the partitions with the most
/// elements — the ones that cap the covers phase. Worker p participates
/// in its own inner pool, so at most `threads` OS threads run at once.
std::vector<size_t> SplitThreadBudget(size_t threads, size_t outer,
                                      const std::vector<size_t>& part_sizes) {
  const size_t parts = part_sizes.size();
  std::vector<size_t> inner(parts, outer == 0 ? 1 : threads / outer);
  size_t extra = outer == 0 ? 0 : threads % outer;
  if (extra > 0) {
    std::vector<size_t> by_size(parts);
    std::iota(by_size.begin(), by_size.end(), size_t{0});
    std::sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
      if (part_sizes[a] != part_sizes[b]) {
        return part_sizes[a] > part_sizes[b];
      }
      return a < b;
    });
    for (size_t rank = 0; rank < extra && rank < parts; ++rank) {
      ++inner[by_size[rank]];
    }
  }
  return inner;
}

}  // namespace

Result<HopiIndex> BuildIndex(collection::Collection* collection,
                             const IndexBuildOptions& options,
                             IndexBuildStats* stats) {
  IndexBuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Stopwatch total_watch;

  if (options.global) {
    Stopwatch watch;
    twohop::CoverBuildStats cb;
    // One global cover is the extreme single-fat-partition case: the
    // whole thread budget goes inside the cover build.
    twohop::CoverBuildOptions cover_options;
    cover_options.with_distance = options.with_distance;
    cover_options.num_threads = std::max<size_t>(options.num_threads, 1);
    auto cover = twohop::BuildCover(collection->ElementGraph(), cover_options,
                                    &cb);
    if (!cover.ok()) return cover.status();
    stats->covers_seconds = watch.ElapsedSeconds();
    stats->num_partitions = 1;
    AggregateStats(cb, &stats->cover_build);
    stats->total_partition_connections = cb.initial_connections;
    stats->largest_partition_connections = cb.initial_connections;
    stats->cover_entries = cover->Size();
    stats->total_seconds = total_watch.ElapsedSeconds();
    return HopiIndex(collection, std::move(cover).value(),
                     options.with_distance);
  }

  // --- Step 1: partition the document-level graph ---
  Stopwatch watch;
  auto partitioning =
      partition::PartitionCollection(*collection, options.partition);
  if (!partitioning.ok()) return partitioning.status();
  stats->partition_seconds = watch.ElapsedSeconds();

  // --- Steps 2 and 3: partition covers, joined ---
  auto cover = BuildPartitionedCover(*collection, *partitioning, options, stats);
  if (!cover.ok()) return cover.status();
  stats->total_seconds = total_watch.ElapsedSeconds();

  // Hand the finished cover to the index. HopiIndex re-wraps it in an
  // IndexedCover; moving the TwoHopCover out is cheap, rebuilding the
  // reverse maps is O(|L|).
  return HopiIndex(collection, std::move(cover).value(),
                   options.with_distance);
}

Result<twohop::TwoHopCover> BuildPartitionedCover(
    const collection::Collection& collection,
    const partition::Partitioning& partitioning,
    const IndexBuildOptions& options, IndexBuildStats* stats) {
  IndexBuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const size_t threads = std::max<size_t>(options.num_threads, 1);
  twohop::CoverBuildOptions cover_options;
  cover_options.with_distance = options.with_distance;
  stats->num_partitions = partitioning.NumPartitions();
  stats->cross_links = partitioning.cross_links.size();

  // Sec 4.2: cross-partition link targets, grouped by partition, used as
  // preselected centers for the partition-cover builds.
  std::vector<std::vector<NodeId>> preselect_by_part(
      partitioning.NumPartitions());
  if (options.preselect_link_targets) {
    for (const collection::Link& l : partitioning.cross_links) {
      uint32_t part = partitioning.part_of[collection.DocOf(l.target)];
      preselect_by_part[part].push_back(l.target);
    }
    for (auto& targets : preselect_by_part) {
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
    }
  }

  // --- Step 2: per-partition covers (local ids, translated to global) ---
  // Partition covers are independent; they are built over a thread pool
  // (Sec 4.1: "all these computations can be done concurrently") and
  // translated into the unified cover serially. The budget is split:
  // `outer` = min(threads, partitions) pool workers across partitions,
  // the remainder as intra-partition threads inside the largest covers
  // (see SplitThreadBudget). A remainder exists only when there are
  // fewer partitions than threads; otherwise every cover runs on one
  // thread and the fattest partition sets the phase's time.
  Stopwatch watch;
  const size_t num_partitions = partitioning.NumPartitions();
  std::vector<Result<twohop::TwoHopCover>> covers(
      num_partitions, Status::Internal("partition cover not built"));
  std::vector<InducedSubgraph> subgraphs(num_partitions);
  std::vector<twohop::CoverBuildStats> part_stats(num_partitions);

  std::vector<size_t> part_sizes(num_partitions, 0);
  for (size_t p = 0; p < num_partitions; ++p) {
    for (collection::DocId d : partitioning.partitions[p]) {
      part_sizes[p] += collection.ElementsOf(d).size();
    }
  }
  const size_t outer = std::min(threads, std::max<size_t>(num_partitions, 1));
  const std::vector<size_t> inner_threads =
      SplitThreadBudget(threads, outer, part_sizes);

  auto build_one = [&](size_t p) -> Status {
    std::vector<NodeId> elements;
    for (collection::DocId d : partitioning.partitions[p]) {
      const auto& els = collection.ElementsOf(d);
      elements.insert(elements.end(), els.begin(), els.end());
    }
    subgraphs[p] =
        BuildInducedSubgraph(collection.ElementGraph(), elements);
    twohop::CoverBuildOptions part_options = cover_options;
    part_options.num_threads = inner_threads[p];
    for (NodeId global_target : preselect_by_part[p]) {
      NodeId local = subgraphs[p].Local(global_target);
      assert(local != kInvalidNode);
      part_options.preselect_centers.push_back(local);
    }
    covers[p] =
        twohop::BuildCover(subgraphs[p].graph, part_options, &part_stats[p]);
    // Propagate a failed cover build through the pool's error channel so
    // the first failure cancels the remaining partitions immediately
    // (it used to surface only during the serial unification pass).
    return covers[p].status();
  };

  ThreadPool partition_pool(outer);
  HOPI_RETURN_NOT_OK(partition_pool.ParallelFor(0, num_partitions, build_one));

  twohop::TwoHopCover unified(collection.NumElements());
  for (size_t p = 0; p < num_partitions; ++p) {
    if (!covers[p].ok()) return covers[p].status();
    AggregateStats(part_stats[p], &stats->cover_build);
    stats->total_partition_connections +=
        part_stats[p].initial_connections;
    stats->largest_partition_connections =
        std::max(stats->largest_partition_connections,
                 part_stats[p].initial_connections);
    const twohop::TwoHopCover& cover = *covers[p];
    const InducedSubgraph& sub = subgraphs[p];
    for (NodeId local = 0; local < cover.NumNodes(); ++local) {
      NodeId global = sub.Global(local);
      for (twohop::LabelEntry e : cover.In(local)) {
        unified.AddIn(global, sub.Global(e.center), e.dist);
      }
      for (twohop::LabelEntry e : cover.Out(local)) {
        unified.AddOut(global, sub.Global(e.center), e.dist);
      }
    }
  }
  stats->covers_seconds = watch.ElapsedSeconds();

  // --- Step 3: join the partition covers ---
  watch.Restart();
  twohop::IndexedCover indexed(std::move(unified));
  JoinOptions join_options;
  join_options.psg_partition_cap = options.psg_partition_cap;
  Status join_status =
      options.join == JoinAlgorithm::kRecursive
          ? JoinCoversRecursive(collection, partitioning,
                                options.with_distance, &indexed,
                                &stats->join_stats, join_options)
          : JoinCoversIncremental(collection, partitioning,
                                  options.with_distance, &indexed,
                                  &stats->join_stats);
  HOPI_RETURN_NOT_OK(join_status);
  stats->join_seconds = watch.ElapsedSeconds();

  stats->cover_entries = indexed.cover().Size();
  return std::move(*indexed.mutable_cover());
}

}  // namespace hopi
