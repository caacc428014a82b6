// Randomized differential harness (the correctness proof behind the
// serving layer): for random collections and random maintenance-op
// sequences, every access path — the four ReachabilityBackend adapters
// AND an EnginePool serving over a frozen snapshot — must agree with
// the exhaustively materialized TransitiveClosureIndex on the FULL
// probe matrix, reachability and (when built) distances.
//
// The closure is rebuilt from the mutated element graph after the ops,
// so it is an independent oracle: it never sees the incremental label
// updates, only the graph they claim to describe. 20+ (graph,
// op-sequence) scenarios run as parameterized tests; every scenario is
// a pure function of its seed, so a failure reproduces by number.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/backends.h"
#include "engine/delta_overlay.h"
#include "engine/engine_pool.h"
#include "engine/shard_router.h"
#include "engine/sharded_engine.h"
#include "engine/snapshot.h"
#include "graph/traversal.h"
#include "hopi/build.h"
#include "storage/linlout.h"
#include "test_util.h"
#include "twohop/join_kernel.h"

namespace hopi {
namespace {

using collection::Collection;
using collection::DocId;

// ---- random maintenance ops ----

// Applies one random maintenance operation drawn from `rng` to the
// (collection, index) pair. Returns a description of what ran (for
// failure messages); ops that find no applicable target (e.g. deleting
// a link from a link-less collection) degrade to a no-op.
std::string ApplyRandomOp(Rng* rng, Collection* c, HopiIndex* index,
                          int* doc_counter) {
  switch (rng->NextBounded(4)) {
    case 0: {  // InsertLink between two live elements
      std::vector<NodeId> live = testing::LiveElements(*c);
      for (int attempt = 0; attempt < 10; ++attempt) {
        NodeId u = live[rng->NextBounded(live.size())];
        NodeId v = live[rng->NextBounded(live.size())];
        if (u == v || c->ElementGraph().HasEdge(u, v)) continue;
        Status s = index->InsertLink(u, v);
        EXPECT_TRUE(s.ok()) << s;
        return "InsertLink(" + std::to_string(u) + "," + std::to_string(v) +
               ")";
      }
      return "InsertLink(no-op)";
    }
    case 1: {  // DeleteLink of a random existing link
      if (c->Links().empty()) return "DeleteLink(no-op)";
      collection::Link l = c->Links()[rng->NextBounded(c->Links().size())];
      Status s = index->DeleteLink(l.source, l.target);
      EXPECT_TRUE(s.ok()) << s;
      return "DeleteLink(" + std::to_string(l.source) + "," +
             std::to_string(l.target) + ")";
    }
    case 2: {  // InsertDocument: ingest a small tree + cross links
      DocId doc = c->AddDocument("inserted" + std::to_string((*doc_counter)++) +
                                 ".xml");
      NodeId root = c->AddElement(doc, "article");
      std::vector<NodeId> nodes{root};
      size_t extra = rng->NextBounded(6);
      for (size_t i = 0; i < extra; ++i) {
        nodes.push_back(c->AddElement(
            doc, i % 2 == 0 ? "section" : "cite",
            nodes[rng->NextBounded(nodes.size())]));
      }
      // Outgoing cross links are part of the ingested document and are
      // merged by InsertDocument itself.
      std::vector<NodeId> live = testing::LiveElements(*c);
      size_t out_links = rng->NextBounded(3);
      for (size_t i = 0; i < out_links; ++i) {
        NodeId u = nodes[rng->NextBounded(nodes.size())];
        NodeId v = live[rng->NextBounded(live.size())];
        if (c->DocOf(v) == doc || c->ElementGraph().HasEdge(u, v)) continue;
        c->AddLink(u, v);
      }
      Status s = index->InsertDocument(doc);
      EXPECT_TRUE(s.ok()) << s;
      // Incoming links arrive after the document exists, as separate
      // link insertions (the maintenance paper's ordering).
      if (rng->NextBounded(2) == 0 && live.size() > 1) {
        NodeId u = live[rng->NextBounded(live.size())];
        if (c->DocOf(u) != doc && !c->ElementGraph().HasEdge(u, root)) {
          Status in = index->InsertLink(u, root);
          EXPECT_TRUE(in.ok()) << in;
        }
      }
      return "InsertDocument(" + std::to_string(doc) + ")";
    }
    default: {  // DeleteDocument of a random live document
      if (c->NumLiveDocuments() <= 1) return "DeleteDocument(no-op)";
      for (int attempt = 0; attempt < 10; ++attempt) {
        DocId d = static_cast<DocId>(rng->NextBounded(c->NumDocuments()));
        if (!c->IsLive(d)) continue;
        Status s = index->DeleteDocument(d);
        EXPECT_TRUE(s.ok()) << s;
        return "DeleteDocument(" + std::to_string(d) + ")";
      }
      return "DeleteDocument(no-op)";
    }
  }
}

// ---- the differential check ----

// Asserts that every backend and an EnginePool over a frozen snapshot
// answer the full n×n probe matrix exactly like the closure oracle.
void ExpectAllAccessPathsMatchOracle(const Collection& c,
                                     const HopiIndex& index,
                                     bool with_distance,
                                     const std::string& context) {
  const auto n = static_cast<NodeId>(c.NumElements());
  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(c.ElementGraph(), with_distance);

  storage::LinLoutStore store =
      storage::LinLoutStore::FromCover(index.cover(), with_distance);
  std::string path = ::testing::TempDir() + "hopi_differential_" + context +
                     ".bin";
  ASSERT_TRUE(store.WriteToFile(path).ok());
  auto mapped =
      storage::MappedLinLoutStore::Open(path, {.prefer_mmap = false});
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  // The same cover again, mapped: default blocks read through the
  // buffered open above, tiny blocks here force multi-block sections
  // even on these small scenario covers.
  std::string v4_path = ::testing::TempDir() + "hopi_differential_" + context +
                        "_v4.bin";
  storage::StoreWriteOptions v4_options;
  v4_options.format_version = storage::kFormatVersionV4;
  v4_options.compress.target_block_bytes = 256;
  v4_options.compress.cluster_split_bytes = 64;
  ASSERT_TRUE(store.WriteToFile(v4_path, v4_options).ok());
  auto mapped_v4 = storage::MappedLinLoutStore::Open(v4_path);
  ASSERT_TRUE(mapped_v4.ok()) << mapped_v4.status();

  engine::HopiIndexBackend hopi_backend(index);
  engine::MappedStoreBackend mapped_backend(*mapped);
  engine::MappedStoreBackend mapped_v4_backend(*mapped_v4);
  engine::ClosureBackend closure_backend(closure, with_distance);
  const engine::ReachabilityBackend* backends[] = {
      &hopi_backend, &mapped_backend, &mapped_v4_backend, &closure_backend};

  // Scalar probes: full matrix against every backend. Mismatches are
  // counted manually (EXPECT per probe would drown the log — and the
  // runtime — at n² × 4 probes); the first one is reported in detail.
  size_t mismatches = 0;
  for (const engine::ReachabilityBackend* backend : backends) {
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        bool expect = closure.IsReachable(u, v);
        bool got = backend->IsReachable(u, v);
        bool dist_ok = true;
        if (with_distance) {
          dist_ok = backend->Distance(u, v) == closure.Distance(u, v);
        }
        if (got != expect || !dist_ok) {
          if (mismatches == 0) {
            ADD_FAILURE() << context << ": backend " << backend->Name()
                          << " disagrees with closure on " << u << "->" << v
                          << " (reach " << got << " vs " << expect << ")";
          }
          ++mismatches;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << context;

  // The pool route: a frozen deep copy of the (possibly maintained)
  // index served by 3 workers; the whole matrix goes through Batch().
  auto snapshot = engine::BackendSnapshot::Freeze(index);
  engine::EnginePoolOptions pool_options;
  pool_options.num_threads = 3;
  engine::EnginePool pool(snapshot, pool_options);
  std::vector<std::pair<engine::NodePair, bool>> expected;
  std::vector<std::future<engine::PoolBatchResponse>> futures;
  std::vector<engine::BatchRequest> requests;
  engine::BatchRequest request;
  request.want_distances = with_distance;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      request.pairs.push_back({u, v});
      if (request.pairs.size() == 1024) {
        requests.push_back(std::exchange(
            request, engine::BatchRequest{.pairs = {},
                                          .want_distances = with_distance}));
      }
    }
  }
  if (!request.pairs.empty()) requests.push_back(std::move(request));
  for (engine::BatchRequest& r : requests) {
    auto future = pool.SubmitBatch(std::move(r));
    ASSERT_TRUE(future.ok()) << future.status();
    futures.push_back(std::move(future).value());
  }
  size_t pool_mismatches = 0;
  for (size_t b = 0; b < futures.size(); ++b) {
    engine::PoolBatchResponse response = futures[b].get();
    EXPECT_EQ(response.snapshot_version, snapshot->version());
    // Requests were chunked in row-major order, so the flat index
    // recovers each probe's (u, v).
    for (size_t i = 0; i < response.batch.reachable.size(); ++i) {
      size_t flat = b * 1024 + i;
      NodeId u = static_cast<NodeId>(flat / n);
      NodeId v = static_cast<NodeId>(flat % n);
      bool expect = closure.IsReachable(u, v);
      if (response.batch.reachable[i] != expect) ++pool_mismatches;
      if (with_distance &&
          response.batch.distances[i] != closure.Distance(u, v)) {
        ++pool_mismatches;
      }
    }
  }
  EXPECT_EQ(pool_mismatches, 0u) << context << ": EnginePool disagrees";
  std::remove(path.c_str());
  std::remove(v4_path.c_str());
}

// ---- scenarios ----

struct Scenario {
  uint64_t seed;
};

class DifferentialScenario : public ::testing::TestWithParam<Scenario> {};

TEST_P(DifferentialScenario, AllAccessPathsMatchClosureAfterMaintenance) {
  const uint64_t seed = GetParam().seed;
  // Rotate the forced join kernel across scenarios so the whole
  // differential harness exercises every probe kernel the host can run
  // (scalar, gallop, and whichever SIMD widths cpuid admits), not just
  // the heuristic pick. Restored below; scenario seeds cover each
  // kernel several times.
  std::vector<twohop::JoinKernel> kernels = twohop::SupportedJoinKernels();
  twohop::SetForcedJoinKernel(kernels[seed % kernels.size()]);
  Rng rng(seed * 7919 + 1);
  // Scenario shape is itself randomized: document count, tree sizes,
  // link density, op count, distance mode and partitioning all vary.
  size_t docs = 4 + rng.NextBounded(6);
  size_t mean_extra = 5 + rng.NextBounded(8);
  size_t links = 6 + rng.NextBounded(18);
  size_t ops = 5 + rng.NextBounded(6);
  bool with_distance = seed % 2 == 1;

  Collection c = testing::RandomCollection(docs, mean_extra, links, seed);
  IndexBuildOptions options;
  options.with_distance = with_distance;
  // Force multi-partition builds for a third of the scenarios so the
  // joined covers face the maintenance ops too.
  if (seed % 3 == 0) options.partition.max_connections = 400;
  auto built = BuildIndex(&c, options);
  ASSERT_TRUE(built.ok()) << built.status();
  HopiIndex index = std::move(built).value();

  std::string trace;
  int doc_counter = 0;
  for (size_t op = 0; op < ops; ++op) {
    trace += (op ? ", " : "") + ApplyRandomOp(&rng, &c, &index, &doc_counter);
  }
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + trace +
               " [kernel " +
               std::string(twohop::JoinKernelName(
                   kernels[seed % kernels.size()])) +
               "]");
  ExpectAllAccessPathsMatchOracle(c, index, with_distance,
                                  "seed" + std::to_string(seed));
  twohop::SetForcedJoinKernel(twohop::JoinKernel::kAuto);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphsAndOpSequences, DifferentialScenario,
    ::testing::ValuesIn([] {
      std::vector<Scenario> scenarios;
      for (uint64_t seed = 1; seed <= 24; ++seed) scenarios.push_back({seed});
      return scenarios;
    }()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---- overlay scenarios (serve-during-rebuild) ----
//
// The mutation path's oracle: mutations go through the LIVE pool
// (EnginePool::ApplyMutation, served by the DeltaOverlayBackend over an
// un-rebuilt snapshot) while a mirror Collection replays the same ops
// via ApplyMutationToCollection. After each batch of ops the full n×n
// matrix through the pool must equal the closure re-materialized from
// the mirror — the overlay's BFS, base-hit gating, deleted-edge
// masking and dead-document handling all face the same independent
// oracle as the frozen access paths above.

// Draws one mutation that is valid against `mirror` (the replayed
// base-plus-delta collection). Falls back to inserting a fresh small
// document, which is always valid, so every draw applies.
engine::Mutation RandomOverlayMutation(Rng* rng, const Collection& mirror,
                                       int* doc_counter) {
  switch (rng->NextBounded(6)) {
    case 0:
    case 1: {  // insert_link between live elements (base or delta)
      std::vector<NodeId> live = testing::LiveElements(mirror);
      for (int attempt = 0; attempt < 10 && live.size() > 1; ++attempt) {
        NodeId u = live[rng->NextBounded(live.size())];
        NodeId v = live[rng->NextBounded(live.size())];
        if (u == v || mirror.ElementGraph().HasEdge(u, v)) continue;
        return engine::Mutation::InsertLink(u, v);
      }
      break;
    }
    case 2: {  // delete a random existing link (base or delta-inserted)
      if (mirror.Links().empty()) break;
      collection::Link l =
          mirror.Links()[rng->NextBounded(mirror.Links().size())];
      return engine::Mutation::DeleteLink(l.source, l.target);
    }
    case 3: {  // delete a live document
      if (mirror.NumLiveDocuments() <= 2) break;
      for (int attempt = 0; attempt < 10; ++attempt) {
        auto d = static_cast<DocId>(rng->NextBounded(mirror.NumDocuments()));
        if (!mirror.IsLive(d)) continue;
        return engine::Mutation::DeleteDocument(d);
      }
      break;
    }
    default:
      break;
  }
  // insert_document: a small random tree (also the fallback when the
  // drawn op found no applicable target).
  std::vector<engine::NewElementSpec> elements;
  elements.push_back({"article", std::nullopt});
  size_t extra = rng->NextBounded(5);
  for (size_t i = 0; i < extra; ++i) {
    elements.push_back(
        {i % 2 == 0 ? "section" : "cite",
         static_cast<uint32_t>(rng->NextBounded(elements.size()))});
  }
  return engine::Mutation::InsertDocument(
      "delta" + std::to_string((*doc_counter)++) + ".xml",
      std::move(elements));
}

std::string Describe(const engine::Mutation& m) {
  using Kind = engine::Mutation::Kind;
  switch (m.kind) {
    case Kind::kInsertLink:
      return "+link(" + std::to_string(m.source) + "," +
             std::to_string(m.target) + ")";
    case Kind::kDeleteLink:
      return "-link(" + std::to_string(m.source) + "," +
             std::to_string(m.target) + ")";
    case Kind::kInsertDocument:
      return "+doc(" + std::to_string(m.elements.size()) + "el)";
    case Kind::kDeleteDocument:
      return "-doc(" + std::to_string(m.doc) + ")";
  }
  return "?";
}

// Full n×n matrix through the pool's Batch path vs the closure oracle
// over the mirror collection. Every response must also report the
// current delta generation (no concurrent writers in these scenarios,
// so the generation is stable across the whole matrix).
void ExpectPoolMatchesMirrorOracle(engine::EnginePool* pool,
                                   const Collection& mirror,
                                   const std::string& context) {
  ASSERT_EQ(pool->ServingElementCount(), mirror.NumElements()) << context;
  ASSERT_EQ(pool->ServingDocumentCount(), mirror.NumDocuments()) << context;
  const auto n = static_cast<NodeId>(mirror.NumElements());
  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(mirror.ElementGraph(), false);
  const uint64_t generation = pool->delta()->generation();
  size_t mismatches = 0;
  engine::BatchRequest request;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      request.pairs.push_back({u, v});
      if (request.pairs.size() < 1024 && !(u + 1 == n && v + 1 == n)) {
        continue;
      }
      std::vector<engine::NodePair> pairs = request.pairs;
      auto response = pool->Batch(std::exchange(request, {}));
      ASSERT_TRUE(response.ok()) << context << ": " << response.status();
      EXPECT_EQ(response->delta_generation, generation) << context;
      ASSERT_EQ(response->batch.reachable.size(), pairs.size()) << context;
      for (size_t i = 0; i < pairs.size(); ++i) {
        bool expect = closure.IsReachable(pairs[i].first, pairs[i].second);
        if (response->batch.reachable[i] != expect) {
          if (mismatches == 0) {
            ADD_FAILURE() << context << ": pool disagrees with the mirror "
                          << "closure on " << pairs[i].first << "->"
                          << pairs[i].second << " (got "
                          << (response->batch.reachable[i] != 0) << ", want "
                          << expect << ")";
          }
          ++mismatches;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << context;
}

class OverlayDifferentialScenario
    : public ::testing::TestWithParam<Scenario> {};

TEST_P(OverlayDifferentialScenario, OverlayMatchesClosureOracleWhileMutating) {
  const uint64_t seed = GetParam().seed;
  Rng rng(seed * 9176 + 3);
  size_t docs = 3 + rng.NextBounded(5);
  size_t mean_extra = 3 + rng.NextBounded(6);
  size_t links = 4 + rng.NextBounded(12);
  const size_t rounds = 3;
  size_t ops_per_round = 4 + rng.NextBounded(5);

  Collection c = testing::RandomCollection(docs, mean_extra, links, seed + 500);
  auto built = BuildIndex(&c, {});
  ASSERT_TRUE(built.ok()) << built.status();
  HopiIndex index = std::move(built).value();
  auto snapshot = engine::BackendSnapshot::Freeze(index);

  engine::EnginePoolOptions pool_options;
  pool_options.num_threads = 2;
  // A third of the seeds serve with a starvation-level hop budget, so
  // nontrivial probes straddle it and run on past it. Answers must be
  // identical either way.
  pool_options.overlay_hop_budget = seed % 3 == 0 ? 1 : 8;
  engine::EnginePool pool(snapshot, pool_options);
  ASSERT_TRUE(pool.EnableMutations(index).ok());

  Collection mirror = c;
  std::string trace;
  int doc_counter = 0;
  uint64_t generation = 0;
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t op = 0; op < ops_per_round; ++op) {
      engine::Mutation m = RandomOverlayMutation(&rng, mirror, &doc_counter);
      trace += (trace.empty() ? "" : ", ") + Describe(m);
      auto receipt = pool.ApplyMutation(m);
      ASSERT_TRUE(receipt.ok()) << trace << ": " << receipt.status();
      Status mirrored = engine::ApplyMutationToCollection(m, &mirror);
      ASSERT_TRUE(mirrored.ok()) << trace << ": " << mirrored;
      EXPECT_EQ(receipt->generation, ++generation);
      if (m.kind == engine::Mutation::Kind::kInsertDocument) {
        // The receipt's pre-assigned ids must match the mirror's
        // sequential allocation — the equivalence InsertDocument's
        // id contract rests on.
        EXPECT_EQ(receipt->doc, mirror.NumDocuments() - 1);
        EXPECT_EQ(receipt->num_elements, m.elements.size());
        EXPECT_EQ(receipt->first_element,
                  static_cast<NodeId>(mirror.NumElements() -
                                      m.elements.size()));
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + trace);
    ExpectPoolMatchesMirrorOracle(
        &pool, mirror,
        "seed" + std::to_string(seed) + "_round" + std::to_string(round));
  }

  // Rejected ops must leave the delta untouched: typed failure, same
  // generation.
  auto missing_doc = pool.ApplyMutation(engine::Mutation::DeleteDocument(
      static_cast<DocId>(mirror.NumDocuments() + 7)));
  EXPECT_TRUE(missing_doc.status().IsNotFound());
  auto oob_link = pool.ApplyMutation(engine::Mutation::InsertLink(
      static_cast<NodeId>(mirror.NumElements() + 1), 0));
  EXPECT_TRUE(oob_link.status().IsInvalidArgument());
  EXPECT_EQ(pool.delta()->generation(), generation);

  // Fold the delta: the swapped-in snapshot must agree with the same
  // oracle (= a fresh build over the mutated graph), the delta must be
  // empty, and the global generation must survive the truncation.
  const engine::RebuildMode mode = seed % 2 == 0
                                       ? engine::RebuildMode::kFull
                                       : engine::RebuildMode::kAbsorb;
  auto rebuilt = pool.RebuildNow(mode);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(rebuilt->generation, generation);
  EXPECT_EQ(rebuilt->absorbed_ops, rounds * ops_per_round);
  EXPECT_TRUE(pool.delta()->empty());
  EXPECT_EQ(pool.delta()->generation(), generation);
  ExpectPoolMatchesMirrorOracle(
      &pool, mirror, "seed" + std::to_string(seed) + "_postrebuild");

  // Mutations stay armed across a rebuild: the delta regrows over the
  // new snapshot and keeps matching the oracle, and receipts continue
  // the global generation count.
  for (size_t op = 0; op < ops_per_round; ++op) {
    engine::Mutation m = RandomOverlayMutation(&rng, mirror, &doc_counter);
    auto receipt = pool.ApplyMutation(m);
    ASSERT_TRUE(receipt.ok()) << Describe(m) << ": " << receipt.status();
    ASSERT_TRUE(engine::ApplyMutationToCollection(m, &mirror).ok());
    EXPECT_EQ(receipt->generation, ++generation);
  }
  ExpectPoolMatchesMirrorOracle(
      &pool, mirror, "seed" + std::to_string(seed) + "_postrebuild_mutated");
}

INSTANTIATE_TEST_SUITE_P(
    OverlayRandomOpSequences, OverlayDifferentialScenario,
    ::testing::ValuesIn([] {
      std::vector<Scenario> scenarios;
      for (uint64_t seed = 1; seed <= 12; ++seed) scenarios.push_back({seed});
      return scenarios;
    }()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// The typed probe state machine, outcome by outcome, on a handmade
// graph: base hit while the delta is purely additive, BFS once a base
// edge is masked, budget exhaustions at a 1-hop budget, dead endpoints
// after a document deletion.
TEST(DeltaOverlayOutcomeTest, TypedOutcomesCoverTheProbeStateMachine) {
  using Outcome = engine::DeltaOverlayBackend::Outcome;
  Collection c;
  DocId d0 = c.AddDocument("a.xml");
  NodeId a = c.AddElement(d0, "article");
  NodeId b = c.AddElement(d0, "section", a);
  DocId d1 = c.AddDocument("z.xml");
  NodeId z = c.AddElement(d1, "article");
  ASSERT_TRUE(c.AddLink(b, z));
  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(c.ElementGraph(), false);
  auto mk_base = [&] {
    return std::make_unique<engine::ClosureBackend>(closure, false);
  };

  auto delta =
      engine::DeltaState::MakeEmpty(c.NumElements(), c.NumDocuments(), 0);
  engine::OverlayCounters counters;
  auto apply = [&](engine::Mutation m) {
    auto next = delta->Apply(m, c);
    ASSERT_TRUE(next.ok()) << Describe(m) << ": " << next.status();
    delta = std::move(next).value();
  };

  // Empty delta: positive base answers come from the fast path.
  {
    engine::DeltaOverlayBackend overlay(mk_base(), &c, delta, {}, &counters);
    EXPECT_EQ(overlay.Probe(a, a), Outcome::kReflexive);
    EXPECT_EQ(overlay.Probe(a, z), Outcome::kBaseHit);
    EXPECT_EQ(overlay.Probe(z, a), Outcome::kBfsUnreachable);
    EXPECT_EQ(overlay.Distance(a, z), std::optional<uint32_t>(0));
    EXPECT_EQ(overlay.Distance(z, a), std::nullopt);
  }

  // Deleting the base link b->z invalidates the base fast path; the
  // BFS sees the masked edge and answers no.
  apply(engine::Mutation::DeleteLink(b, z));
  ASSERT_TRUE(delta->has_base_removals());
  {
    engine::DeltaOverlayBackend overlay(mk_base(), &c, delta, {}, &counters);
    EXPECT_EQ(overlay.Probe(a, z), Outcome::kBfsUnreachable);
  }

  // Deleting a tree edge is refused (links only), as is re-deleting the
  // already-masked link.
  EXPECT_TRUE(
      delta->Apply(engine::Mutation::DeleteLink(a, b), c).status().IsNotFound());
  EXPECT_TRUE(
      delta->Apply(engine::Mutation::DeleteLink(b, z), c).status().IsNotFound());

  // An 8-document chain a -> e0 -> ... -> e7 -> z through the delta:
  // with a 1-hop budget per side the probe goes over budget, is booked
  // as a budget exhaustion, and the search runs on to the exact answer.
  std::vector<NodeId> chain;
  for (int i = 0; i < 8; ++i) {
    apply(engine::Mutation::InsertDocument("chain" + std::to_string(i) + ".xml",
                                           {{"note", std::nullopt}}));
    chain.push_back(static_cast<NodeId>(delta->num_elements() - 1));
    apply(engine::Mutation::InsertLink(i == 0 ? a : chain[i - 1],
                                       chain.back()));
  }
  apply(engine::Mutation::InsertLink(chain.back(), z));
  {
    engine::DeltaOverlayOptions tight;
    tight.hop_budget = 1;
    engine::DeltaOverlayBackend overlay(mk_base(), &c, delta, tight,
                                        &counters);
    uint64_t before = counters.budget_exhaustions.load();
    EXPECT_EQ(overlay.Probe(a, z), Outcome::kBfsReachable);
    EXPECT_EQ(counters.budget_exhaustions.load(), before + 1);
    EXPECT_EQ(overlay.Probe(chain[5], chain[1]), Outcome::kBfsUnreachable);
    EXPECT_EQ(counters.budget_exhaustions.load(), before + 2);
    // A frontier that empties within the budget is definitive and not
    // an exhaustion: z has no outgoing edges at all.
    EXPECT_EQ(overlay.Probe(z, chain[0]), Outcome::kBfsUnreachable);
    EXPECT_EQ(counters.budget_exhaustions.load(), before + 2);
  }

  // Descendants/Ancestors walk the combined graph.
  {
    engine::DeltaOverlayBackend overlay(mk_base(), &c, delta, {}, &counters);
    std::vector<NodeId> down = overlay.Descendants(a);
    EXPECT_EQ(down.size(), 1u /*b*/ + 8u /*chain*/ + 1u /*z*/);
    EXPECT_NE(std::find(down.begin(), down.end(), z), down.end());
    std::vector<NodeId> up = overlay.Ancestors(z);
    EXPECT_NE(std::find(up.begin(), up.end(), a), up.end());
  }

  // Killing z's (base) document: probes touching z die typed, reflexive
  // stays reflexive.
  apply(engine::Mutation::DeleteDocument(d1));
  {
    engine::DeltaOverlayBackend overlay(mk_base(), &c, delta, {}, &counters);
    EXPECT_EQ(overlay.Probe(a, z), Outcome::kDeadEndpoint);
    EXPECT_EQ(overlay.Probe(z, z), Outcome::kReflexive);
    EXPECT_EQ(overlay.Probe(a, chain[7]), Outcome::kBfsReachable);
  }
}

// A document created and deleted entirely inside the delta: its ids
// stay allocated (and probeable) but answer dead, exactly like the
// mirror's isolated elements — and the delta refuses to touch it again.
TEST(DeltaOverlayOutcomeTest, DocumentBornAndDeletedInsideTheDeltaStaysDead) {
  Collection c = testing::RandomCollection(3, 4, 5, 77);
  auto built = BuildIndex(&c, {});
  ASSERT_TRUE(built.ok()) << built.status();
  HopiIndex index = std::move(built).value();
  auto snapshot = engine::BackendSnapshot::Freeze(index);
  engine::EnginePool pool(snapshot, {.num_threads = 2});
  ASSERT_TRUE(pool.EnableMutations(index).ok());
  Collection mirror = c;

  auto mutate = [&](engine::Mutation m) {
    auto receipt = pool.ApplyMutation(m);
    ASSERT_TRUE(receipt.ok()) << Describe(m) << ": " << receipt.status();
    ASSERT_TRUE(engine::ApplyMutationToCollection(m, &mirror).ok());
  };

  auto inserted = pool.ApplyMutation(engine::Mutation::InsertDocument(
      "ephemeral.xml",
      {{"article", std::nullopt}, {"section", 0u}, {"cite", 1u}}));
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  ASSERT_TRUE(engine::ApplyMutationToCollection(
                  engine::Mutation::InsertDocument(
                      "ephemeral.xml", {{"article", std::nullopt},
                                        {"section", 0u},
                                        {"cite", 1u}}),
                  &mirror)
                  .ok());
  const NodeId root = inserted->first_element;
  mutate(engine::Mutation::InsertLink(0, root));
  ExpectPoolMatchesMirrorOracle(&pool, mirror, "ephemeral_alive");

  mutate(engine::Mutation::DeleteDocument(inserted->doc));
  // Double delete and links to the dead ids are typed rejects.
  EXPECT_TRUE(pool.ApplyMutation(engine::Mutation::DeleteDocument(
                                     inserted->doc))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(pool.ApplyMutation(engine::Mutation::InsertLink(0, root))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(pool.ApplyMutation(engine::Mutation::DeleteLink(0, root))
                  .status()
                  .IsNotFound());
  ExpectPoolMatchesMirrorOracle(&pool, mirror, "ephemeral_dead");

  auto probe = pool.Batch({.pairs = {{0, root}}});
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->batch.reachable[0] != 0);
}

// Pool-level hop-budget starvation: with a 1-hop budget over a long
// delta chain the full matrix stays exact, and the exhaustions surface
// as typed counters in PoolStats.
TEST(DeltaOverlayOutcomeTest, HopBudgetExhaustionsSurfaceInPoolStats) {
  Collection c = testing::RandomCollection(3, 3, 4, 123);
  auto built = BuildIndex(&c, {});
  ASSERT_TRUE(built.ok()) << built.status();
  HopiIndex index = std::move(built).value();
  auto snapshot = engine::BackendSnapshot::Freeze(index);
  engine::EnginePoolOptions pool_options;
  pool_options.num_threads = 2;
  pool_options.overlay_hop_budget = 1;
  engine::EnginePool pool(snapshot, pool_options);
  ASSERT_TRUE(pool.EnableMutations(index).ok());
  Collection mirror = c;

  NodeId previous = 0;  // doc0's root
  for (int i = 0; i < 6; ++i) {
    engine::Mutation ins = engine::Mutation::InsertDocument(
        "chain" + std::to_string(i) + ".xml", {{"note", std::nullopt}});
    auto receipt = pool.ApplyMutation(ins);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
    ASSERT_TRUE(engine::ApplyMutationToCollection(ins, &mirror).ok());
    engine::Mutation link =
        engine::Mutation::InsertLink(previous, receipt->first_element);
    ASSERT_TRUE(pool.ApplyMutation(link).ok());
    ASSERT_TRUE(engine::ApplyMutationToCollection(link, &mirror).ok());
    previous = receipt->first_element;
  }
  ExpectPoolMatchesMirrorOracle(&pool, mirror, "hop_budget_chain");
  engine::PoolStats stats = pool.Stats();
  EXPECT_GT(stats.overlay_probes, 0u);
  EXPECT_GT(stats.overlay_bfs_fallbacks, 0u);
  EXPECT_GT(stats.overlay_budget_exhaustions, 0u);
}

// What each OverlayCounters field means, probe by probe, over every
// pair of seeded base ∪ delta graphs (each prefix of a random sequence
// of link and document inserts and deletes) at several hop budgets. The
// benchmark's overlay.*_frac metrics are ratios of these counters. A
// BFS probe is a budget exhaustion exactly when both sides can spend
// the budget undecided: dist(u, v) > 2 × budget (or unreachable), and
// u reaches some node at distance `budget` forward, v at `budget`
// backward.
TEST(DeltaOverlayOutcomeTest, CountersTallyTheTypedOutcomes) {
  using Outcome = engine::DeltaOverlayBackend::Outcome;
  const size_t kBudgets[] = {0, 1, 2, 8, SIZE_MAX};
  // Outcome tallies over every graph, so the test cannot pass vacuously.
  uint64_t all_base_hits = 0, all_dead = 0, all_bfs = 0;
  uint64_t all_exhausted[std::size(kBudgets)] = {};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Collection c = testing::RandomCollection(4, 4, 6, seed + 900);
    TransitiveClosureIndex base_closure =
        TransitiveClosureIndex::Build(c.ElementGraph(), false);
    Rng rng(seed * 31 + 7);
    auto delta =
        engine::DeltaState::MakeEmpty(c.NumElements(), c.NumDocuments(), 0);
    Collection mirror = c;
    int doc_counter = 0;
    std::string trace;
    for (int op = 0; op < 8; ++op) {
      engine::Mutation m = RandomOverlayMutation(&rng, mirror, &doc_counter);
      trace += (trace.empty() ? "" : ", ") + Describe(m);
      auto next = delta->Apply(m, c);
      ASSERT_TRUE(next.ok()) << trace << ": " << next.status();
      delta = std::move(next).value();
      ASSERT_TRUE(engine::ApplyMutationToCollection(m, &mirror).ok());

      const Digraph& g = mirror.ElementGraph();
      const auto n = static_cast<NodeId>(mirror.NumElements());
      TransitiveClosureIndex closure = TransitiveClosureIndex::Build(g, false);
      std::vector<std::vector<uint32_t>> dist(n);
      std::vector<uint32_t> out_depth(n, 0);  // farthest BFS level forward
      std::vector<uint32_t> in_depth(n, 0);   // ... and backward
      for (NodeId x = 0; x < n; ++x) {
        dist[x] = BfsDistances(g, x);
        for (uint32_t d : dist[x]) {
          if (d != kUnreachable) out_depth[x] = std::max(out_depth[x], d);
        }
        for (uint32_t d : BfsDistancesReverse(g, x)) {
          if (d != kUnreachable) in_depth[x] = std::max(in_depth[x], d);
        }
      }

      for (size_t b = 0; b < std::size(kBudgets); ++b) {
        const size_t budget = kBudgets[b];
        const std::string context = "seed" + std::to_string(seed) +
                                    " budget " + std::to_string(budget) +
                                    " after " + trace;
        engine::OverlayCounters counters;
        engine::DeltaOverlayBackend overlay(
            std::make_unique<engine::ClosureBackend>(base_closure, false), &c,
            delta, {.hop_budget = budget}, &counters);
        uint64_t base_hits = 0, bfs = 0, dead = 0, exhausted = 0;
        for (NodeId u = 0; u < n; ++u) {
          for (NodeId v = 0; v < n; ++v) {
            const uint64_t before = counters.budget_exhaustions.load();
            const Outcome o = overlay.Probe(u, v);
            ASSERT_EQ(engine::DeltaOverlayBackend::IsReachableOutcome(o),
                      closure.IsReachable(u, v))
                << context << ": " << u << "->" << v;
            const bool booked = counters.budget_exhaustions.load() != before;
            bool want_booked = false;
            switch (o) {
              case Outcome::kReflexive:
                break;
              case Outcome::kBaseHit:
                ++base_hits;
                break;
              case Outcome::kDeadEndpoint:
                ++dead;
                break;
              case Outcome::kBfsReachable:
              case Outcome::kBfsUnreachable:
                ++bfs;
                want_booked = budget < n &&
                              (dist[u][v] == kUnreachable ||
                               dist[u][v] > 2 * budget) &&
                              out_depth[u] >= budget &&
                              in_depth[v] >= budget;
                break;
            }
            ASSERT_EQ(booked, want_booked)
                << context << ": " << u << "->" << v;
            exhausted += booked ? 1 : 0;
          }
        }
        EXPECT_EQ(counters.base_hits.load(), base_hits) << context;
        EXPECT_EQ(counters.bfs_fallbacks.load(), bfs) << context;
        EXPECT_EQ(counters.probes.load(), base_hits + bfs + dead) << context;
        EXPECT_EQ(counters.budget_exhaustions.load(), exhausted) << context;
        if (budget == 0) {
          EXPECT_EQ(exhausted, bfs) << context;
        }
        all_base_hits += base_hits;
        all_dead += dead;
        all_bfs += bfs;
        all_exhausted[b] += exhausted;
      }
    }
  }
  EXPECT_GT(all_base_hits, 0u);
  EXPECT_GT(all_dead, 0u);
  EXPECT_GT(all_bfs, 0u);
  // Exhaustions fall as the budget grows, and vanish when it is unbounded.
  for (size_t b = 0; b + 2 < std::size(kBudgets); ++b) {
    EXPECT_GT(all_exhausted[b], all_exhausted[b + 1]) << kBudgets[b];
  }
  EXPECT_EQ(all_exhausted[std::size(kBudgets) - 1], 0u);
}

// ---- sharded scatter-gather scenarios ----
//
// The sharded serving tier against the same two oracles: the closure
// (independent: rebuilt from the element graph) and the single-engine
// build (the un-sharded access path the shard decomposition must be
// bit-identical to). Every scenario chains the document roots so any
// 2+ shard grouping is forced to cut cross-shard links — the row
// fetches and the router's joins always face the full n×n matrix,
// never just the direct-routing fast path.

// Runs the full matrix through a freshly planned ShardedEngine at one
// shard count and asserts bit-identity with both oracles. The merge
// deadline is off (deterministic: no shard is ever slow here), so a
// non-OK status or an unresolved pair is itself a failure.
void ExpectShardedMatchesOracles(Collection* c, const HopiIndex& single,
                                 const TransitiveClosureIndex& closure,
                                 size_t num_shards, bool with_distance,
                                 uint64_t psg_partition_cap,
                                 const std::string& context) {
  engine::ShardPlanOptions plan_options;
  plan_options.num_shards = num_shards;
  plan_options.with_distance = with_distance;
  plan_options.partition.strategy =
      partition::PartitionStrategy::kDocPerPartition;
  plan_options.psg_partition_cap = psg_partition_cap;
  plan_options.num_threads = 2;
  auto plan = engine::BuildShardPlan(c, plan_options);
  ASSERT_TRUE(plan.ok()) << context << ": " << plan.status();
  if (plan->num_shards >= 2) {
    // The root chain guarantees scatter coverage at any multi-shard cut.
    EXPECT_GT(plan->stats.cross_shard_links, 0u) << context;
  }

  engine::ShardedEngineOptions options;
  options.threads_per_shard = 2;
  options.merge_deadline = std::chrono::milliseconds(0);
  engine::ShardedEngine sharded(c, &*plan, options);
  engine::HopiIndexBackend single_backend(single);

  const auto n = static_cast<NodeId>(c->NumElements());
  size_t mismatches = 0;
  engine::BatchRequest request;
  request.want_distances = with_distance;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      request.pairs.push_back({u, v});
      if (request.pairs.size() < 1024 && !(u + 1 == n && v + 1 == n)) {
        continue;
      }
      std::vector<engine::NodePair> pairs = request.pairs;
      auto response = sharded.Batch(std::exchange(
          request,
          engine::BatchRequest{.pairs = {}, .want_distances = with_distance}));
      ASSERT_TRUE(response.ok()) << context << ": " << response.status();
      ASSERT_TRUE(response->status.ok()) << context << ": "
                                         << response->status;
      ASSERT_EQ(response->batch.reachable.size(), pairs.size()) << context;
      for (size_t i = 0; i < pairs.size(); ++i) {
        const auto [a, b] = pairs[i];
        bool expect = closure.IsReachable(a, b);
        bool exact = response->resolved[i] &&
                     response->batch.reachable[i] == expect &&
                     response->batch.reachable[i] ==
                         single_backend.IsReachable(a, b);
        if (exact && with_distance) {
          exact = response->batch.distances[i] == closure.Distance(a, b) &&
                  response->batch.distances[i] == single_backend.Distance(a, b);
        }
        if (!exact) {
          if (mismatches == 0) {
            ADD_FAILURE() << context << ": sharded engine diverges on " << a
                          << "->" << b << " (got "
                          << (response->batch.reachable[i] != 0)
                          << ", closure says " << expect << ", resolved "
                          << (response->resolved[i] != 0) << ")";
          }
          ++mismatches;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << context;
  engine::ShardStats stats = sharded.Stats();
  EXPECT_EQ(stats.partial_batches, 0u) << context;
  if (plan->num_shards >= 2) {
    EXPECT_GT(stats.cross_pairs, 0u) << context;
  }
}

class ShardedDifferentialScenario : public ::testing::TestWithParam<Scenario> {
};

TEST_P(ShardedDifferentialScenario, ShardedEngineMatchesClosureAndSingle) {
  const uint64_t seed = GetParam().seed;
  Rng rng(seed * 6133 + 11);
  size_t docs = 6 + rng.NextBounded(5);
  size_t mean_extra = 3 + rng.NextBounded(5);
  size_t links = 8 + rng.NextBounded(14);
  bool with_distance = seed % 2 == 1;

  Collection c = testing::RandomCollection(docs, mean_extra, links,
                                           seed + 9000);
  // Chain the document roots: every grouping of the per-document
  // partitions into 2+ shards must cut the chain somewhere, so
  // cross-shard links exist at every shard count by construction.
  std::vector<NodeId> roots;
  for (DocId d = 0; d < c.NumDocuments(); ++d) {
    roots.push_back(c.ElementsOf(d).front());
  }
  for (size_t d = 0; d + 1 < roots.size(); ++d) {
    if (!c.ElementGraph().HasEdge(roots[d], roots[d + 1])) {
      c.AddLink(roots[d], roots[d + 1]);
    }
  }

  IndexBuildOptions build_options;
  build_options.with_distance = with_distance;
  auto built = BuildIndex(&c, build_options);
  ASSERT_TRUE(built.ok()) << built.status();
  HopiIndex index = std::move(built).value();

  // A third of the seeds kill one document through Sec-6 maintenance
  // before the shard plans are cut: dead documents must route to
  // kUnassignedShard and answer dead through the whole matrix.
  if (seed % 3 == 0) {
    auto dead = static_cast<DocId>(1 + seed % (docs - 1));
    ASSERT_TRUE(index.DeleteDocument(dead).ok());
  }

  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(c.ElementGraph(), with_distance);
  SCOPED_TRACE("seed " + std::to_string(seed));
  for (size_t shards : {2u, 3u, 5u}) {
    // A third of the seeds split the join's PSG recursively (Sec 4.1)
    // instead of traversing it whole; answers must not change.
    uint64_t psg_cap = seed % 3 == 1 ? 4 : 0;
    ExpectShardedMatchesOracles(
        &c, index, closure, shards, with_distance, psg_cap,
        "seed" + std::to_string(seed) + "_shards" + std::to_string(shards));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardedRandomGraphs, ShardedDifferentialScenario,
    ::testing::ValuesIn([] {
      std::vector<Scenario> scenarios;
      for (uint64_t seed = 1; seed <= 8; ++seed) scenarios.push_back({seed});
      return scenarios;
    }()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// The adversarial topology for the scatter path: a long root chain
// with skip links, so reachability between distant documents crosses
// MANY shard boundaries, and the exact distance of a cross-shard pair
// rests on the joined rows of two different shards.
TEST(ShardedDifferentialBaseline, HeavyCrossLinkChainAcrossShards) {
  for (bool with_distance : {false, true}) {
    Collection c;
    std::vector<NodeId> roots;
    for (size_t d = 0; d < 12; ++d) {
      DocId doc = c.AddDocument("chain" + std::to_string(d) + ".xml");
      NodeId root = c.AddElement(doc, "article");
      roots.push_back(root);
      c.AddElement(doc, "section", root);
      c.AddElement(doc, "cite", root);
    }
    for (size_t d = 0; d + 1 < roots.size(); ++d) {
      c.AddLink(roots[d], roots[d + 1]);
    }
    for (size_t d = 0; d + 3 < roots.size(); ++d) {
      c.AddLink(roots[d], roots[d + 3]);
    }

    IndexBuildOptions build_options;
    build_options.with_distance = with_distance;
    auto built = BuildIndex(&c, build_options);
    ASSERT_TRUE(built.ok()) << built.status();
    TransitiveClosureIndex closure =
        TransitiveClosureIndex::Build(c.ElementGraph(), with_distance);
    for (size_t shards : {2u, 3u, 5u}) {
      for (uint64_t psg_cap : {uint64_t{0}, uint64_t{3}}) {
        ExpectShardedMatchesOracles(
            &c, *built, closure, shards, with_distance, psg_cap,
            std::string("chain_") + (with_distance ? "dist" : "plain") +
                "_shards" + std::to_string(shards) + "_cap" +
                std::to_string(psg_cap));
      }
    }
  }
}

// The no-maintenance baseline: a freshly built index over a random
// collection already matches the oracle through every access path
// (separates "build is wrong" from "maintenance broke it" when a
// seeded scenario fails).
TEST(DifferentialBaseline, FreshBuildMatchesOracle) {
  for (uint64_t seed : {101u, 102u}) {
    Collection c = testing::RandomCollection(6, 8, 12, seed);
    IndexBuildOptions options;
    options.with_distance = seed % 2 == 0;
    auto built = BuildIndex(&c, options);
    ASSERT_TRUE(built.ok()) << built.status();
    ExpectAllAccessPathsMatchOracle(c, *built, options.with_distance,
                                    "fresh" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace hopi
