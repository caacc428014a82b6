// Sharded scatter-gather serving sweep: {1,2,4,8} shards × cross-shard
// request fraction {0%,10%,50%}, reporting probes/sec end-to-end through
// ShardedEngine::Batch plus the scatter fan-out accounting (sub-batches
// per batch, leg probes per cross pair, the fan-out histogram peak).
//
// The collection is the DBLP stand-in with a root chain appended
// (root(d) -> root(d+1)) so every multi-shard grouping is guaranteed to
// cut cross-shard links — the scatter path is always exercised, never
// seed-dependent. Pairs are pre-classified against the plan's
// membership table (ShardOfElement), so the cross fraction is exact per
// batch in expectation, not approximate.
//
// The submission side runs `clients` threads each firing synchronous
// Batch() calls with merge_deadline=0 (wait forever): every number is a
// complete-answer number, partials would be a bench bug (asserted).
//
// NOTE: on a single-core container the shard sweep measures scheduling
// overhead, not scatter parallelism — rerun on multi-core hardware for
// the real curve (same caveat as bench_engine_pool).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/shard_router.h"
#include "engine/sharded_engine.h"
#include "partition/partitioner.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace hopi;

struct PairPools {
  std::vector<engine::NodePair> same;   // ShardOfElement(u) == ShardOfElement(v)
  std::vector<engine::NodePair> cross;  // different (live) shards
};

/// Draws random probe pairs and buckets them by the plan's membership
/// table until both pools hold `per_pool` pairs (the cross pool stays
/// empty for a one-shard plan — every pair is same-shard there).
PairPools ClassifyPairs(const engine::ShardPlan& plan, size_t num_elements,
                        size_t per_pool, uint64_t seed) {
  PairPools pools;
  Rng rng(seed * 7919 + plan.num_shards);
  size_t attempts = 0;
  const size_t max_attempts = 400 * per_pool;
  while (attempts++ < max_attempts &&
         (pools.same.size() < per_pool ||
          (plan.num_shards > 1 && pools.cross.size() < per_pool))) {
    auto u = static_cast<NodeId>(rng.NextBounded(num_elements));
    auto v = static_cast<NodeId>(rng.NextBounded(num_elements));
    if (u == v) continue;
    uint32_t su = plan.ShardOfElement(u);
    uint32_t sv = plan.ShardOfElement(v);
    if (su == engine::kUnassignedShard || sv == engine::kUnassignedShard) {
      continue;
    }
    if (su == sv) {
      if (pools.same.size() < per_pool) pools.same.push_back({u, v});
    } else {
      if (pools.cross.size() < per_pool) pools.cross.push_back({u, v});
    }
  }
  if (pools.same.size() < per_pool ||
      (plan.num_shards > 1 && pools.cross.size() < per_pool)) {
    std::cerr << "pair classification starved (same=" << pools.same.size()
              << " cross=" << pools.cross.size() << ")\n";
    std::exit(1);
  }
  return pools;
}

struct RunResult {
  double seconds = 0.0;
  uint64_t probes = 0;
  engine::ShardStats delta;
};

/// Fires `batches` batches of `batch_size` pairs from `clients` threads;
/// each pair is drawn from the cross pool with probability
/// `cross_pct`/100 (a one-shard plan forces 0). Returns wall time and
/// the engine's counter deltas.
RunResult RunWorkload(engine::ShardedEngine* sharded, const PairPools& pools,
                      size_t clients, size_t batches, size_t batch_size,
                      size_t cross_pct, uint64_t seed) {
  engine::ShardStats before = sharded->Stats();
  std::atomic<size_t> next_batch{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 977 + t);
      while (next_batch.fetch_add(1) < batches) {
        engine::BatchRequest request;
        request.pairs.reserve(batch_size);
        for (size_t i = 0; i < batch_size; ++i) {
          bool cross = !pools.cross.empty() &&
                       rng.NextBounded(100) < cross_pct;
          const std::vector<engine::NodePair>& pool =
              cross ? pools.cross : pools.same;
          request.pairs.push_back(pool[rng.NextBounded(pool.size())]);
        }
        auto response = sharded->Batch(std::move(request));
        if (!response.ok() || !response->status.ok()) {
          std::abort();  // deadline is 0: a partial is a bench bug
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  RunResult result;
  result.seconds = wall.ElapsedSeconds();
  result.probes = batches * batch_size;
  engine::ShardStats after = sharded->Stats();
  result.delta.batches = after.batches - before.batches;
  result.delta.direct_pairs = after.direct_pairs - before.direct_pairs;
  result.delta.cross_pairs = after.cross_pairs - before.cross_pairs;
  result.delta.subbatches = after.subbatches - before.subbatches;
  result.delta.leg_probes = after.leg_probes - before.leg_probes;
  result.delta.partial_batches =
      after.partial_batches - before.partial_batches;
  for (size_t b = 0; b < after.fanout_histogram.size(); ++b) {
    result.delta.fanout_histogram[b] =
        after.fanout_histogram[b] - before.fanout_histogram[b];
  }
  return result;
}

/// Highest non-empty fan-out bucket, rendered as its [2^b, 2^(b+1))
/// lower bound (bucket 0 = fan-out <= 1).
std::string PeakFanout(const engine::ShardStats& s) {
  for (size_t b = s.fanout_histogram.size(); b-- > 0;) {
    if (s.fanout_histogram[b] == 0) continue;
    if (b == 0) return "<=1";
    return "2^" + std::to_string(b);
  }
  return "-";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(
      argc, argv, {"docs", "seed", "batches", "batch", "clients"});
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 160));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  size_t batches = static_cast<size_t>(cli.GetInt("batches", 200));
  size_t batch_size = static_cast<size_t>(cli.GetInt("batch", 256));
  size_t clients = static_cast<size_t>(cli.GetInt("clients", 4));

  PrintHeader("Sharded scatter-gather serving throughput");
  collection::Collection c = MakeDblp(docs, seed);
  // Root chain: guarantees cross-shard links for every >=2-shard
  // grouping (the chain visits every document once).
  for (size_t d = 0; d + 1 < c.NumDocuments(); ++d) {
    NodeId from = c.RootOf(static_cast<collection::DocId>(d));
    NodeId to = c.RootOf(static_cast<collection::DocId>(d + 1));
    if (!c.ElementGraph().HasEdge(from, to)) c.AddLink(from, to);
  }
  std::cout << "collection: " << docs << " docs, "
            << TablePrinter::FmtCount(c.NumElements()) << " elements; "
            << batches << " batches x " << batch_size << " probes from "
            << clients << " client threads (hardware_concurrency="
            << std::thread::hardware_concurrency() << ")\n";

  hopi::bench::BenchReport report("sharded");
  report.Add("docs", static_cast<uint64_t>(docs));
  report.Add("clients", static_cast<uint64_t>(clients));
  report.Add("batch_size", static_cast<uint64_t>(batch_size));

  TablePrinter table({"shards", "cross %", "wall s", "probes/s",
                      "sub/batch", "legs/xpair", "peak fanout"});
  for (size_t num_shards : {1u, 2u, 4u, 8u}) {
    engine::ShardPlanOptions plan_options;
    plan_options.num_shards = num_shards;
    plan_options.partition.strategy =
        partition::PartitionStrategy::kDocPerPartition;
    plan_options.num_threads = clients;
    auto plan = engine::BuildShardPlan(&c, plan_options);
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return 1;
    }
    if (num_shards > 1 && plan->stats.cross_shard_links == 0) {
      std::cerr << "root chain failed to force cross-shard links\n";
      return 1;
    }
    std::string prefix = std::string("s").append(std::to_string(num_shards));
    report.Add(prefix + "_cross_shard_links", plan->stats.cross_shard_links);
    report.Add(prefix + "_cross_shard_routes",
               plan->stats.cross_shard_routes);

    PairPools pools = ClassifyPairs(*plan, c.NumElements(), 8192, seed);
    engine::ShardedEngineOptions options;
    options.threads_per_shard = 2;
    options.merge_deadline = std::chrono::milliseconds::zero();
    engine::ShardedEngine sharded(&c, &*plan, options);

    for (size_t cross_pct : {0u, 10u, 50u}) {
      if (num_shards == 1 && cross_pct > 0) continue;  // no cross pool
      // Warm the shard pools (bind + first cache fills).
      RunWorkload(&sharded, pools, clients, 2 * clients, batch_size,
                  cross_pct, seed + 1);
      RunResult r = RunWorkload(&sharded, pools, clients, batches,
                                batch_size, cross_pct, seed);
      double pps = static_cast<double>(r.probes) / r.seconds;
      double sub_per_batch =
          r.delta.batches == 0
              ? 0.0
              : static_cast<double>(r.delta.subbatches) /
                    static_cast<double>(r.delta.batches);
      double legs_per_cross =
          r.delta.cross_pairs == 0
              ? 0.0
              : static_cast<double>(r.delta.leg_probes) /
                    static_cast<double>(r.delta.cross_pairs);
      table.AddRow({std::to_string(num_shards), std::to_string(cross_pct),
                    TablePrinter::Fmt(r.seconds, 3),
                    TablePrinter::FmtCount(static_cast<uint64_t>(pps)),
                    TablePrinter::Fmt(sub_per_batch, 2),
                    TablePrinter::Fmt(legs_per_cross, 2), PeakFanout(r.delta)});
      std::string key = prefix + "_x" + std::to_string(cross_pct);
      report.Add(key + "_probes_per_s", pps);
      report.Add(key + "_subbatches_per_batch", sub_per_batch);
      report.Add(key + "_leg_probes_per_cross_pair", legs_per_cross);
    }
  }
  table.Print(std::cout);
  report.Write();
  return 0;
}
