// Joining partition covers into one collection-wide cover.
//
// Two algorithms:
//   - JoinCoversIncremental (paper Sec 3.3, EDBT 2004): iterate the
//     cross-partition links; for each link u -> v, make v the center of
//     all new connections (Fig. 2). Quadratic-ish in practice — the
//     dominant build cost the ICDE 2005 paper set out to fix.
//   - JoinCoversRecursive (paper Sec 4.1): build the partition-level
//     skeleton graph, compute the H-bar cover over it (link targets as
//     centers, via an adapted transitive-closure traversal), then copy the
//     entries outward to within-partition ancestors of link sources and
//     descendants of link targets (the H-hat supplement). Correct by
//     Theorem 1 / Corollary 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "collection/collection.h"
#include "partition/partitioner.h"
#include "twohop/reverse_index.h"
#include "util/result.h"

namespace hopi {

struct JoinStats {
  uint64_t cross_links = 0;
  uint64_t psg_nodes = 0;       // recursive join only
  uint64_t psg_edges = 0;       // recursive join only
  uint64_t psg_partitions = 0;  // 1 = the PSG was processed whole
  uint64_t hbar_entries = 0;    // entries contributed by H-bar
  uint64_t hhat_entries = 0;    // entries contributed by H-hat
  uint64_t label_additions = 0; // total new entries
};

struct JoinOptions {
  /// Sec 4.1: "If the PSG is too large, we partition it into several
  /// partitions" — when the PSG has more nodes than this cap it is split
  /// (link edges kept intra-partition, internal edges may cross) and the
  /// partial H-bar covers are connected through the cross edges.
  /// 0 disables PSG partitioning (the PSG is traversed whole).
  uint64_t psg_partition_cap = 0;
};

/// Old algorithm. `cover` holds the unified partition covers on entry and
/// the full-collection cover on return.
Status JoinCoversIncremental(const collection::Collection& collection,
                             const partition::Partitioning& partitioning,
                             bool with_distance,
                             twohop::IndexedCover* cover,
                             JoinStats* stats = nullptr);

/// Fig. 2 link merge: v becomes the center of every new connection
/// across link (u, v), from u and its ancestors to v and its
/// descendants, both read from the current (evolving) cover. Returns
/// the number of label entries added. The incremental join runs it per
/// cross link; Sec 6 InsertLink / InsertDocument run it per new link.
uint64_t MergeLink(NodeId u, NodeId v, bool with_distance,
                   twohop::IndexedCover* cover);

/// New structurally recursive algorithm.
Status JoinCoversRecursive(const collection::Collection& collection,
                           const partition::Partitioning& partitioning,
                           bool with_distance,
                           twohop::IndexedCover* cover,
                           JoinStats* stats = nullptr,
                           const JoinOptions& options = {});

}  // namespace hopi
