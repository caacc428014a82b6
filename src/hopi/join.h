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
#include "partition/psg.h"
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

/// One H-bar entry, already translated to element ids: the PSG shortest
/// distance from a cross-link source to a cross-link target (exactly the
/// values Sec 4.1's H-bar cover stores; 0 in plain builds' labels, but
/// the PSG distance is reported here either way so callers can do
/// min-plus composition).
struct SkeletonTarget {
  NodeId target;  // element id of a cross-link target
  uint32_t dist;  // shortest PSG distance source -> target (>= 1)
};

/// H-bar_out of one cross-link source, sorted by target element id.
struct SkeletonRow {
  NodeId source;  // element id of a cross-link source
  std::vector<SkeletonTarget> targets;
};

/// Computes the H-bar skeleton cover over an already-built PSG: for every
/// cross-link source s, the set of cross-link targets it reaches and the
/// PSG shortest distance to each. This is the reusable core of
/// JoinCoversRecursive's step 2 — the sharded serving router keeps its
/// cross-shard rows as route tables and merges the rest. Honors
/// JoinOptions::psg_partition_cap (the Sec 4.1 recursive PSG split);
/// `psg_partitions` (optional) reports how many PSG partitions were used
/// (1 = traversed whole).
std::vector<SkeletonRow> ComputeSkeletonCover(
    const partition::PartitionSkeletonGraph& psg,
    const JoinOptions& options = {}, uint64_t* psg_partitions = nullptr);

/// Step 3 of JoinCoversRecursive, the H-bar/H-hat merge (Sec 4.1): every
/// row source s gains its row in Lout (H-bar); every ancestor a of s
/// inherits the row at dist(a, s) + dist(s, t), and every descendant d of
/// a row target t gains t in Lin at dist(t, d) (H-hat). Ancestor and
/// descendant sets and their distances are read from the cover before
/// anything is applied. Precondition: the cover knows only paths inside
/// one partition (the join) or one shard (BuildShardPlan's same-shard
/// routes), so every ancestor and descendant it returns lies in the
/// endpoint's partition or shard. Adds the new entries to
/// stats->hbar_entries and stats->hhat_entries.
void MergeSkeletonCover(const std::vector<SkeletonRow>& rows,
                        bool with_distance, twohop::IndexedCover* cover,
                        JoinStats* stats);

}  // namespace hopi
