// Sharded scatter-gather serving sweep: {1,2,4,8} shards × cross-shard
// request fraction {0%,10%,50%}, reporting probes/sec end-to-end through
// ShardedEngine::Batch plus the fan-out accounting (sub-requests per
// batch, label rows fetched per cross pair). Per plan it also reports
// the plan build time, the label entries per shard, and the time of one
// count-only path query through the sharded path adapter.
//
// The collection is the DBLP stand-in with a root chain appended
// (root(d) -> root(d+1)) so every multi-shard grouping is guaranteed to
// cut cross-shard links — the scatter path is always exercised, never
// seed-dependent. Pairs are pre-classified against the plan's
// membership table (ShardOfElement), so the cross fraction is exact per
// batch in expectation, not approximate.
//
// The submission side runs `clients` threads, each firing synchronous
// Batch() calls for a fixed `--seconds` per row, with merge_deadline=0
// (wait forever): every number is a complete-answer number, partials
// would be a bench bug (asserted).
//
// NOTE: on a single-core container the shard sweep measures scheduling
// overhead, not scatter parallelism — rerun on multi-core hardware for
// the real curve (same caveat as bench_engine_pool).
#include <algorithm>
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

/// Fires batches of `batch_size` pairs from `clients` threads for
/// `seconds`; each pair is drawn from the cross pool with probability
/// `cross_pct`/100 (a one-shard plan forces 0). Returns wall time, the
/// probes answered and the engine's counter deltas.
RunResult RunWorkload(engine::ShardedEngine* sharded, const PairPools& pools,
                      size_t clients, double seconds, size_t batch_size,
                      size_t cross_pct, uint64_t seed) {
  engine::ShardStats before = sharded->Stats();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 977 + t);
      while (!stop.load(std::memory_order_relaxed)) {
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
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  RunResult result;
  result.seconds = wall.ElapsedSeconds();
  result.probes = batches.load() * batch_size;
  engine::ShardStats after = sharded->Stats();
  result.delta.batches = after.batches - before.batches;
  result.delta.cross_pairs = after.cross_pairs - before.cross_pairs;
  result.delta.subbatches = after.subbatches - before.subbatches;
  result.delta.rows_fetched = after.rows_fetched - before.rows_fetched;
  return result;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(
      argc, argv, {"docs", "seed", "seconds", "batch", "clients"});
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 160));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  double seconds = cli.GetDouble("seconds", 0.5);
  size_t batch_size = static_cast<size_t>(cli.GetInt("batch", 256));
  size_t clients = static_cast<size_t>(cli.GetInt("clients", 4));
  const char* kPathExpression = "//inproceedings//author";

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
            << seconds << " s a row of " << batch_size
            << "-probe batches from " << clients
            << " client threads (hardware_concurrency="
            << std::thread::hardware_concurrency() << ")\n";

  hopi::bench::BenchReport report("sharded");
  report.Add("docs", static_cast<uint64_t>(docs));
  report.Add("clients", static_cast<uint64_t>(clients));
  report.Add("batch_size", static_cast<uint64_t>(batch_size));
  report.Add("seconds_per_row", seconds);

  TablePrinter plans({"shards", "build s", "cross links", "entries/shard",
                      "max shard", "path count ms"});
  TablePrinter table(
      {"shards", "cross %", "wall s", "probes/s", "sub/batch", "rows/xpair"});
  for (size_t num_shards : {1u, 2u, 4u, 8u}) {
    engine::ShardPlanOptions plan_options;
    plan_options.num_shards = num_shards;
    plan_options.partition.strategy =
        partition::PartitionStrategy::kDocPerPartition;
    plan_options.num_threads = clients;
    Stopwatch build;
    auto plan = engine::BuildShardPlan(&c, plan_options);
    const double build_s = build.ElapsedSeconds();
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return 1;
    }
    if (num_shards > 1 && plan->stats.cross_shard_links == 0) {
      std::cerr << "root chain failed to force cross-shard links\n";
      return 1;
    }
    uint64_t entries = 0, max_entries = 0;
    for (const auto& index : plan->indexes) {
      entries += index->CoverSize();
      max_entries = std::max<uint64_t>(max_entries, index->CoverSize());
    }
    const double entries_per_shard =
        static_cast<double>(entries) / static_cast<double>(plan->num_shards);

    PairPools pools = ClassifyPairs(*plan, c.NumElements(), 8192, seed);
    engine::ShardedEngineOptions options;
    options.threads_per_shard = 2;
    options.merge_deadline = std::chrono::milliseconds::zero();
    engine::ShardedEngine sharded(&c, &*plan, options);

    Stopwatch path;
    auto counted = sharded.Query(
        {.expression = kPathExpression, .count_only = true});
    const double path_ms = path.ElapsedSeconds() * 1e3;
    if (!counted.ok() || !counted->result.ok()) {
      std::cerr << "path query failed\n";
      return 1;
    }

    std::string prefix = std::string("s").append(std::to_string(num_shards));
    plans.AddRow({std::to_string(num_shards), TablePrinter::Fmt(build_s, 3),
                  std::to_string(plan->stats.cross_shard_links),
                  TablePrinter::FmtCount(
                      static_cast<uint64_t>(entries_per_shard)),
                  TablePrinter::FmtCount(max_entries),
                  TablePrinter::Fmt(path_ms, 2)});
    report.Add(prefix + "_plan_build_s", build_s);
    report.Add(prefix + "_cross_shard_links", plan->stats.cross_shard_links);
    report.Add(prefix + "_label_entries_per_shard", entries_per_shard);
    report.Add(prefix + "_label_entries_max_shard", max_entries);
    report.Add(prefix + "_path_count_ms", path_ms);
    report.Add(prefix + "_path_count",
               static_cast<uint64_t>(counted->result->count));

    for (size_t cross_pct : {0u, 10u, 50u}) {
      if (num_shards == 1 && cross_pct > 0) continue;  // no cross pool
      // Warm the shard pools (first binds).
      RunWorkload(&sharded, pools, clients, seconds / 10, batch_size,
                  cross_pct, seed + 1);
      RunResult r = RunWorkload(&sharded, pools, clients, seconds,
                                batch_size, cross_pct, seed);
      double pps = static_cast<double>(r.probes) / r.seconds;
      double sub_per_batch = Ratio(r.delta.subbatches, r.delta.batches);
      double rows_per_cross = Ratio(r.delta.rows_fetched, r.delta.cross_pairs);
      table.AddRow({std::to_string(num_shards), std::to_string(cross_pct),
                    TablePrinter::Fmt(r.seconds, 3),
                    TablePrinter::FmtCount(static_cast<uint64_t>(pps)),
                    TablePrinter::Fmt(sub_per_batch, 2),
                    TablePrinter::Fmt(rows_per_cross, 2)});
      std::string key = prefix + "_x" + std::to_string(cross_pct);
      report.Add(key + "_probes_per_s", pps);
      report.Add(key + "_subbatches_per_batch", sub_per_batch);
      report.Add(key + "_rows_per_cross_pair", rows_per_cross);
    }
  }
  plans.Print(std::cout);
  std::cout << "(path count: " << kPathExpression << ", count_only)\n\n";
  table.Print(std::cout);
  report.Write();
  return 0;
}
