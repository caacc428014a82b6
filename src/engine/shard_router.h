// Shard plan: the rows of one global 2-hop cover, split by home shard.
//
// In the paper the whole index is two tables, LIN and LOUT, and a
// connection test joins one row of each (Sec 5.1). A ShardPlan keeps
// that index whole and splits its rows. It partitions the documents as
// BuildIndex does (Sec 3.3; the ROADMAP names the document partitioning
// as the natural shard key), groups the partitions into N shard units
// balanced by element count, and runs BuildIndex's own covers and join
// phases over that partitioning (hopi/build.h BuildPartitionedCover):
// one cover per partition, joined across every cross link by the
// Sec 4.1 recursive join. Each live node's Lin and Lout rows then move
// into the HopiIndex of the node's shard.
//
// Serving (sharded_engine.h) follows from the 2-hop property:
//
//   same shard   both rows of the pair live in its shard, which probes
//                it like any single index.
//   cross shard  Lout(u) lives in u's shard and Lin(v) in v's; the
//                router fetches both and joins them (twohop::JoinViews).
//
// Both answers are exact, distances included, because the rows are the
// rows of one cover over the whole collection. The plan itself is just
// membership tables and indexes, with no engine pointers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "collection/collection.h"
#include "hopi/index.h"
#include "partition/partitioner.h"
#include "util/result.h"

namespace hopi::engine {

/// Shard id of dead documents / dead elements (mirrors
/// partition::kUnassigned for partitions).
inline constexpr uint32_t kUnassignedShard = UINT32_MAX;

struct ShardPlanOptions {
  /// Shard units to build. Clamped to the number of document partitions
  /// (a single-partition collection always yields one shard).
  size_t num_shards = 2;
  /// Build a distance-aware cover.
  bool with_distance = false;
  /// Document partitioning knobs (the shard key comes from this run).
  partition::PartitionOptions partition;
  /// As IndexBuildOptions::num_threads: the covers phase's thread
  /// budget. The plan is the same for every value.
  size_t num_threads = 1;
  /// As IndexBuildOptions::psg_partition_cap.
  uint64_t psg_partition_cap = 0;
};

struct ShardPlanStats {
  uint64_t num_partitions = 0;     ///< Document partitions under the shards.
  uint64_t cross_shard_links = 0;  ///< Links crossing a shard boundary.
};

/// Everything the sharded serving tier needs, built once per collection:
/// membership tables and one immutable index per shard. Indexes
/// reference the collection the plan was built from; it must outlive
/// the plan.
struct ShardPlan {
  size_t num_shards = 0;
  bool with_distance = false;

  /// doc -> shard (kUnassignedShard for dead docs).
  std::vector<uint32_t> shard_of_doc;
  /// element -> shard (kUnassignedShard for elements of dead docs).
  std::vector<uint32_t> shard_of_element;

  /// Per-shard 2-hop indexes in GLOBAL element ids: shard s holds the
  /// Lin and Lout rows of its own live elements, and every other row is
  /// empty. Shared so BackendSnapshot::OfIndex can co-own them.
  std::vector<std::shared_ptr<const HopiIndex>> indexes;

  ShardPlanStats stats;

  uint32_t ShardOfElement(NodeId u) const {
    return u < shard_of_element.size() ? shard_of_element[u]
                                       : kUnassignedShard;
  }
};

/// Builds a ShardPlan over the collection's live documents. `collection`
/// must outlive the plan (the per-shard indexes point into it).
/// InvalidArgument when num_shards == 0.
Result<ShardPlan> BuildShardPlan(collection::Collection* collection,
                                 const ShardPlanOptions& options);

}  // namespace hopi::engine
