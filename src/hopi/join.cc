#include "hopi/join.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <queue>

#include "partition/psg.h"

namespace hopi {

namespace {

/// Single-source shortest distances over the PSG's weighted adjacency
/// (weights >= 1; Dijkstra with a binary heap). Plain mode uses the same
/// routine with all weights 1 — still correct, just BFS-equivalent.
/// When `restrict_to` is non-null, traversal stays inside the nodes whose
/// entry in it matches `restriction` (the PSG-partitioned variant).
std::vector<uint32_t> PsgDistances(
    const partition::PartitionSkeletonGraph& psg, NodeId source,
    const std::vector<uint32_t>* restrict_to = nullptr,
    uint32_t restriction = 0) {
  std::vector<uint32_t> dist(psg.graph.NumNodes(), UINT32_MAX);
  using Item = std::pair<uint32_t, NodeId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    auto [d, x] = heap.top();
    heap.pop();
    if (d != dist[x]) continue;  // stale
    for (const partition::PsgEdge& e : psg.weighted_adj[x]) {
      if (restrict_to != nullptr && (*restrict_to)[e.to] != restriction) {
        continue;
      }
      uint32_t weight = e.weight == 0 ? 1 : e.weight;  // plain mode stores 0
      if (d + weight < dist[e.to]) {
        dist[e.to] = d + weight;
        heap.push({d + weight, e.to});
      }
    }
  }
  return dist;
}

/// H-bar as per-source sorted (target psg-node, dist) entries.
struct HBarRow {
  NodeId source;  // psg node
  std::vector<std::pair<NodeId, uint32_t>> targets;
};

/// Merge-min insert into a sorted (node, dist) vector. Returns true when
/// the entry was added or its distance improved.
bool MergeMin(std::vector<std::pair<NodeId, uint32_t>>* row, NodeId node,
              uint32_t dist) {
  auto it = std::lower_bound(
      row->begin(), row->end(), node,
      [](const std::pair<NodeId, uint32_t>& e, NodeId n) {
        return e.first < n;
      });
  if (it != row->end() && it->first == node) {
    if (dist < it->second) {
      it->second = dist;
      return true;
    }
    return false;
  }
  row->insert(it, {node, dist});
  return true;
}

/// Computes H-bar over the whole PSG: one restricted Dijkstra per link
/// source.
std::vector<HBarRow> ComputeHBarWhole(
    const partition::PartitionSkeletonGraph& psg) {
  std::vector<HBarRow> hbar;
  for (NodeId s = 0; s < psg.graph.NumNodes(); ++s) {
    if (!psg.is_source[s]) continue;
    std::vector<uint32_t> dist = PsgDistances(psg, s);
    HBarRow row{s, {}};
    for (NodeId t = 0; t < psg.graph.NumNodes(); ++t) {
      if (t == s || !psg.is_target[t] || dist[t] == UINT32_MAX) continue;
      row.targets.push_back({t, dist[t]});
    }
    if (!row.targets.empty()) hbar.push_back(std::move(row));
  }
  return hbar;
}

/// The PSG-partitioned variant (Sec 4.1, last paragraph): split the PSG
/// into partitions of at most `cap` nodes such that every cross-partition
/// edge starts at a link target and ends at a link source (achieved by
/// keeping each connected component of *link* edges inside one
/// partition), compute partial H-bar covers per partition, then connect
/// them by propagating H-bar_out(s) across every cross edge (t, s) to the
/// within-partition link-source ancestors of t — iterated to a fixpoint,
/// which also handles cross-partition cycles.
std::vector<HBarRow> ComputeHBarPartitioned(
    const partition::PartitionSkeletonGraph& psg, uint64_t cap,
    uint64_t* num_partitions) {
  const size_t n = psg.graph.NumNodes();

  // Union-find over link edges: their components must stay together.
  std::vector<NodeId> parent(n);
  for (NodeId v = 0; v < n; ++v) parent[v] = v;
  std::function<NodeId(NodeId)> find = [&](NodeId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (NodeId u = 0; u < n; ++u) {
    for (const partition::PsgEdge& e : psg.weighted_adj[u]) {
      if (e.is_link) parent[find(u)] = find(e.to);
    }
  }
  std::map<NodeId, std::vector<NodeId>> groups;
  for (NodeId v = 0; v < n; ++v) groups[find(v)].push_back(v);

  // Greedy first-fit packing of groups into PSG partitions.
  std::vector<uint32_t> psg_part(n, 0);
  uint32_t current = 0;
  uint64_t current_size = 0;
  for (const auto& [root, members] : groups) {
    if (current_size > 0 && current_size + members.size() > cap) {
      ++current;
      current_size = 0;
    }
    for (NodeId v : members) psg_part[v] = current;
    current_size += members.size();
  }
  *num_partitions = current + 1;

  // Per-partition Dijkstras. Also record, per node t, the link sources of
  // t's partition that reach t (the "ancestors of t that are link
  // sources" needed for cross-edge propagation).
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> hbar_out(n);
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> source_anc(n);
  for (NodeId s = 0; s < n; ++s) {
    if (!psg.is_source[s]) continue;
    std::vector<uint32_t> dist =
        PsgDistances(psg, s, &psg_part, psg_part[s]);
    for (NodeId t = 0; t < n; ++t) {
      if (t == s || dist[t] == UINT32_MAX) continue;
      if (psg.is_target[t]) hbar_out[s].push_back({t, dist[t]});
      source_anc[t].push_back({s, dist[t]});
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    std::sort(hbar_out[v].begin(), hbar_out[v].end());
    std::sort(source_anc[v].begin(), source_anc[v].end());
  }

  // Cross-partition edges. The packing keeps link edges intra-partition,
  // so every cross edge is an internal target->source edge.
  struct CrossEdge {
    NodeId from;  // link target t
    NodeId to;    // link source s
    uint32_t weight;
  };
  std::vector<CrossEdge> cross;
  for (NodeId u = 0; u < n; ++u) {
    for (const partition::PsgEdge& e : psg.weighted_adj[u]) {
      if (psg_part[u] != psg_part[e.to]) {
        assert(!e.is_link && "link edge crossed PSG partitions");
        cross.push_back({u, e.to, e.weight == 0 ? 1u : e.weight});
      }
    }
  }

  // Fixpoint propagation across cross edges: for edge (t, s), every link
  // source a with a ->* t inside t's partition (including t itself when
  // it is a source) inherits H-bar_out(s) at the combined distance.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const CrossEdge& edge : cross) {
      // Direct target: s itself is the first reachable node; s's targets
      // propagate to ancestors of t. Also, if s is a target, (s, w) is a
      // reachable target for those ancestors.
      auto propagate_to = [&](NodeId a, uint32_t dist_at) {
        if (psg.is_target[edge.to]) {
          if (MergeMin(&hbar_out[a], edge.to, dist_at + edge.weight)) {
            changed = true;
          }
        }
        for (const auto& [x, dx] : hbar_out[edge.to]) {
          if (x == a) continue;
          if (MergeMin(&hbar_out[a], x, dist_at + edge.weight + dx)) {
            changed = true;
          }
        }
      };
      if (psg.is_source[edge.from]) propagate_to(edge.from, 0);
      for (const auto& [a, da] : source_anc[edge.from]) {
        propagate_to(a, da);
      }
    }
  }

  std::vector<HBarRow> hbar;
  for (NodeId s = 0; s < n; ++s) {
    if (!psg.is_source[s] || hbar_out[s].empty()) continue;
    HBarRow row{s, {}};
    for (const auto& [t, d] : hbar_out[s]) {
      if (t != s) row.targets.push_back({t, d});
    }
    if (!row.targets.empty()) hbar.push_back(std::move(row));
  }
  return hbar;
}

/// One H-bar entry, already translated to element ids: the PSG
/// shortest distance from a cross-link source to a cross-link target
/// (exactly the values Sec 4.1's H-bar cover stores; reported in plain
/// builds too, where the labels keep 0).
struct SkeletonTarget {
  NodeId target;  // element id of a cross-link target
  uint32_t dist;  // shortest PSG distance source -> target (>= 1)
};

/// H-bar_out of one cross-link source, sorted by target element id.
struct SkeletonRow {
  NodeId source;  // element id of a cross-link source
  std::vector<SkeletonTarget> targets;
};

/// Step 2 of JoinCoversRecursive: the H-bar skeleton cover over an
/// already-built PSG — for every cross-link source s, the cross-link
/// targets it reaches and the PSG shortest distance to each. Honors
/// JoinOptions::psg_partition_cap (the Sec 4.1 recursive PSG split);
/// `psg_partitions` reports how many PSG partitions were used
/// (1 = traversed whole).
std::vector<SkeletonRow> ComputeSkeletonCover(
    const partition::PartitionSkeletonGraph& psg, const JoinOptions& options,
    uint64_t* psg_partitions) {
  uint64_t partitions_used = 1;
  std::vector<HBarRow> hbar_rows;
  if (options.psg_partition_cap > 0 &&
      psg.graph.NumNodes() > options.psg_partition_cap) {
    hbar_rows =
        ComputeHBarPartitioned(psg, options.psg_partition_cap,
                               &partitions_used);
  } else {
    hbar_rows = ComputeHBarWhole(psg);
  }
  *psg_partitions = partitions_used;

  std::vector<SkeletonRow> rows;
  rows.reserve(hbar_rows.size());
  for (const HBarRow& row : hbar_rows) {
    SkeletonRow out{psg.to_element[row.source], {}};
    out.targets.reserve(row.targets.size());
    for (const auto& [t, d] : row.targets) {
      out.targets.push_back({psg.to_element[t], d});
    }
    // HBarRow targets are sorted by PSG node id; re-sort by element id.
    std::sort(out.targets.begin(), out.targets.end(),
              [](const SkeletonTarget& a, const SkeletonTarget& b) {
                return a.target < b.target;
              });
    rows.push_back(std::move(out));
  }
  return rows;
}

}  // namespace

uint64_t MergeLink(NodeId u, NodeId v, bool with_distance,
                   twohop::IndexedCover* cover) {
  uint64_t added = 0;
  std::vector<NodeId> ancestors = cover->Ancestors(u);
  std::vector<NodeId> descendants = cover->Descendants(v);
  if (with_distance) {
    // dist(a, v) = dist(a, u) + 1 over the new link; descendants keep
    // their dist(v, d). Entries can only overestimate a true shortest
    // distance transiently inside this loop; AddIn/AddOut keep minima.
    for (NodeId a : ancestors) {
      auto d = cover->cover().Distance(a, u);
      if (d && cover->AddOut(a, v, *d + 1)) ++added;
    }
    if (cover->AddOut(u, v, 1)) ++added;
    for (NodeId d : descendants) {
      auto dist = cover->cover().Distance(v, d);
      if (dist && cover->AddIn(d, v, *dist)) ++added;
    }
  } else {
    for (NodeId a : ancestors) {
      if (cover->AddOut(a, v)) ++added;
    }
    if (cover->AddOut(u, v)) ++added;
    for (NodeId d : descendants) {
      if (cover->AddIn(d, v)) ++added;
    }
  }
  return added;
}

namespace {

/// Step 3 of JoinCoversRecursive, the H-bar/H-hat merge (Sec 4.1):
/// every row source s gains its row in Lout (H-bar); every ancestor a
/// of s inherits the row at dist(a, s) + dist(s, t), and every
/// descendant d of a row target t gains t in Lin at dist(t, d) (H-hat).
/// Ancestor and descendant sets and their distances are read from the
/// cover before anything is applied. Precondition: the cover knows only
/// paths inside one partition, so every ancestor and descendant it
/// returns lies in the endpoint's partition. Adds the new entries to
/// stats->hbar_entries and stats->hhat_entries.
void MergeSkeletonCover(const std::vector<SkeletonRow>& rows,
                        bool with_distance, twohop::IndexedCover* cover,
                        JoinStats* stats) {
  // H-hat for row sources: every ancestor a of s inherits the row at
  // dist(a, s) + dist_psg(s, t). Snapshot before any entry lands.
  struct AncestorTask {
    NodeId ancestor;
    uint32_t dist_to_source;
    const SkeletonRow* row;
  };
  std::vector<AncestorTask> ancestor_tasks;
  std::vector<NodeId> targets;
  for (const SkeletonRow& row : rows) {
    for (NodeId a : cover->Ancestors(row.source)) {
      uint32_t d = 0;
      if (with_distance) {
        auto dd = cover->cover().Distance(a, row.source);
        assert(dd.has_value());
        d = *dd;
      }
      ancestor_tasks.push_back({a, d, &row});
    }
    for (const SkeletonTarget& e : row.targets) targets.push_back(e.target);
  }

  // H-hat for row targets: every descendant d of t gains t in Lin(d)
  // at dist(t, d).
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  struct DescendantTask {
    NodeId descendant;
    NodeId target;
    uint32_t dist;
  };
  std::vector<DescendantTask> descendant_tasks;
  for (NodeId t : targets) {
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

  // Apply H-bar (source labels)...
  for (const SkeletonRow& row : rows) {
    for (const SkeletonTarget& e : row.targets) {
      if (cover->AddOut(row.source, e.target, with_distance ? e.dist : 0)) {
        ++stats->hbar_entries;
      }
    }
  }
  // ...then H-hat for ancestors...
  for (const AncestorTask& task : ancestor_tasks) {
    for (const SkeletonTarget& e : task.row->targets) {
      if (cover->AddOut(task.ancestor, e.target,
                        with_distance ? task.dist_to_source + e.dist : 0)) {
        ++stats->hhat_entries;
      }
    }
  }
  // ...then H-hat for descendants of targets.
  for (const DescendantTask& task : descendant_tasks) {
    if (cover->AddIn(task.descendant, task.target,
                     with_distance ? task.dist : 0)) {
      ++stats->hhat_entries;
    }
  }
}

}  // namespace

Status JoinCoversIncremental(const collection::Collection& collection,
                             const partition::Partitioning& partitioning,
                             bool with_distance,
                             twohop::IndexedCover* cover, JoinStats* stats) {
  JoinStats local;
  if (stats == nullptr) stats = &local;
  (void)collection;
  stats->cross_links = partitioning.cross_links.size();
  for (const collection::Link& l : partitioning.cross_links) {
    stats->label_additions +=
        MergeLink(l.source, l.target, with_distance, cover);
  }
  return Status::OK();
}

Status JoinCoversRecursive(const collection::Collection& collection,
                           const partition::Partitioning& partitioning,
                           bool with_distance,
                           twohop::IndexedCover* cover, JoinStats* stats,
                           const JoinOptions& options) {
  JoinStats local;
  if (stats == nullptr) stats = &local;
  stats->cross_links = partitioning.cross_links.size();
  if (partitioning.cross_links.empty()) return Status::OK();

  // Step 1: the partition-level skeleton graph over the partition covers.
  partition::PartitionSkeletonGraph psg =
      partition::BuildPsg(collection, partitioning, *cover, with_distance);
  stats->psg_nodes = psg.graph.NumNodes();
  stats->psg_edges = psg.graph.NumEdges();

  // Step 2: the H-bar cover (Sec 4.1): for every link source s,
  // H-bar_out(s) = all link targets reachable from s in the PSG;
  // H-bar_in(t) = {t} (implicit in our representation). Computed with an
  // adapted transitive-closure traversal per source — over the whole PSG,
  // or recursively over PSG partitions when it exceeds the cap.
  //
  // H-bar_out is kept aside: H-hat (step 3) must copy *exactly* these
  // entries to within-partition ancestors, and partition membership of
  // descendants must be evaluated against the pre-join covers.
  std::vector<SkeletonRow> hbar =
      ComputeSkeletonCover(psg, options, &stats->psg_partitions);

  // Step 3: H-bar, then H-hat to the ancestors of link sources and the
  // descendants of link targets. The cover still holds only the partition
  // covers, so all of them lie in the endpoint's partition.
  MergeSkeletonCover(hbar, with_distance, cover, stats);
  stats->label_additions = stats->hbar_entries + stats->hhat_entries;
  return Status::OK();
}

}  // namespace hopi
