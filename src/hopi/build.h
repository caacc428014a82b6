// Index construction pipeline (paper Sec 3.3 + Sec 4).
//
// Orchestrates: document-level partitioning -> per-partition 2-hop covers
// (optionally with preselected link-target centers, Sec 4.2) -> cover
// joining (old incremental or new recursive algorithm). A non-partitioned
// "global" mode computes one cover for the whole element-level graph (the
// paper's 45-hour baseline — only feasible for small collections).
#pragma once

#include <cstddef>
#include <cstdint>

#include "collection/collection.h"
#include "hopi/index.h"
#include "hopi/join.h"
#include "partition/partitioner.h"
#include "twohop/builder.h"
#include "util/result.h"

namespace hopi {

enum class JoinAlgorithm {
  kIncremental,  // Sec 3.3 (EDBT 2004) — the paper's baseline
  kRecursive,    // Sec 4.1 — the new PSG-based algorithm
};

struct IndexBuildOptions {
  /// Partitioning strategy and caps (ignored when `global`).
  partition::PartitionOptions partition;
  JoinAlgorithm join = JoinAlgorithm::kRecursive;
  /// Sec 4.2: preselect cross-partition link targets as center nodes when
  /// building partition covers.
  bool preselect_link_targets = false;
  /// Sec 5: build a distance-aware index.
  bool with_distance = false;
  /// Skip partitioning entirely (one global cover).
  bool global = false;
  /// Sec 4.1: recursively partition the PSG when it exceeds this many
  /// nodes (0 = always traverse it whole).
  uint64_t psg_partition_cap = 0;
  /// Total thread budget for the covers phase. Partition covers are
  /// independent ("all these computations can be done concurrently",
  /// Sec 4.1) and run on min(num_threads, partitions) pool workers.
  /// Only when there are fewer partitions than threads does the
  /// leftover budget move *inside* the largest partitions' cover
  /// builds (speculative candidate evaluation, see
  /// twohop::CoverBuildOptions::num_threads); with at least as many
  /// partitions as threads every cover is built on one thread, so a
  /// partition holding most of the connections still sets the phase's
  /// time. In `global` mode the whole budget goes to the one cover
  /// build. The built index is identical for every value.
  size_t num_threads = 1;
};

struct IndexBuildStats {
  double partition_seconds = 0.0;
  double covers_seconds = 0.0;
  double join_seconds = 0.0;
  double total_seconds = 0.0;
  uint64_t num_partitions = 0;
  uint64_t cross_links = 0;
  uint64_t cover_entries = 0;  // |L| of the final cover
  uint64_t total_partition_connections = 0;  // sum of partition |T|
  uint64_t largest_partition_connections = 0;
  twohop::CoverBuildStats cover_build;  // aggregated over partitions
  JoinStats join_stats;
};

/// Builds a HOPI index over the collection's live documents.
Result<HopiIndex> BuildIndex(collection::Collection* collection,
                             const IndexBuildOptions& options = {},
                             IndexBuildStats* stats = nullptr);

/// BuildIndex's covers and join phases over a partitioning the caller
/// made: one 2-hop cover per partition, joined across every link in
/// `partitioning.cross_links`, in global element ids. BuildIndex runs
/// it over its own partitioning; BuildShardPlan (engine/shard_router.h)
/// over the one it cuts into shards. `options.partition` and
/// `options.global` are not read, and neither are the stats' partition
/// and total times.
Result<twohop::TwoHopCover> BuildPartitionedCover(
    const collection::Collection& collection,
    const partition::Partitioning& partitioning,
    const IndexBuildOptions& options, IndexBuildStats* stats = nullptr);

}  // namespace hopi
