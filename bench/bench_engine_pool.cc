// EnginePool serving-throughput sweep: {1,2,4,8} workers × batch sizes
// × backend kind, reporting queries/sec (probes, not batches) and the
// per-batch label route mix (cache hit rate for the block-route v4
// store; borrow share for the zero-copy hopi backend).
//
// The submission side runs `clients` threads each firing synchronous
// Batch() calls, so the measured number is end-to-end: queue, dispatch,
// per-worker engine, future completion. A final table measures
// throughput while a background thread Swap()s two snapshots in a
// loop — the RCU cost of live index replacement.
//
// NOTE: on a single-core container the thread sweep measures
// scheduling overhead, not parallel speedup — rerun on multi-core
// hardware for the real curve (same caveat as bench_parallel_speedup).
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/engine_pool.h"
#include "engine/snapshot.h"
#include "hopi/build.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace hopi;

struct RunResult {
  double seconds = 0.0;
  uint64_t probes = 0;
  engine::PoolStats stats;
};

/// Fires `batches` batches of `batch_size` random probes from `clients`
/// submission threads; returns wall time and the pool's counters.
RunResult RunWorkload(engine::EnginePool* pool, size_t clients,
                      size_t batches, size_t batch_size, size_t num_elements,
                      uint64_t seed) {
  engine::PoolStats before = pool->Stats();
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
          request.pairs.push_back(
              {static_cast<NodeId>(rng.NextBounded(num_elements)),
               static_cast<NodeId>(rng.NextBounded(num_elements))});
        }
        auto response = pool->Batch(std::move(request));
        if (!response.ok()) std::abort();  // bench invariant, not a race
      }
    });
  }
  for (auto& t : threads) t.join();
  RunResult result;
  result.seconds = wall.ElapsedSeconds();
  result.probes = batches * batch_size;
  engine::PoolStats after = pool->Stats();
  result.stats.cache_hits = after.cache_hits - before.cache_hits;
  result.stats.cache_misses = after.cache_misses - before.cache_misses;
  result.stats.labels_borrowed =
      after.labels_borrowed - before.labels_borrowed;
  result.stats.unique_probes = after.unique_probes - before.unique_probes;
  return result;
}

std::string RouteMix(const engine::PoolStats& s) {
  uint64_t cached = s.cache_hits + s.cache_misses;
  uint64_t fetches = cached + s.labels_borrowed;
  if (fetches == 0) return "-";
  auto pct = [](uint64_t part, uint64_t whole) {
    return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
  };
  // A v4 store borrows its empty rows and serves the rest from blocks.
  std::string mix =
      TablePrinter::Fmt(pct(s.labels_borrowed, fetches), 0) + "% borrow";
  if (cached > 0) {
    mix += ", " + TablePrinter::Fmt(pct(s.cache_hits, cached), 1) + "% hit";
  }
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(
      argc, argv, {"docs", "seed", "batches", "clients", "cache_kb"});
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 300));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  size_t batches = static_cast<size_t>(cli.GetInt("batches", 400));
  size_t clients = static_cast<size_t>(cli.GetInt("clients", 4));
  size_t cache_bytes =
      static_cast<size_t>(cli.GetInt("cache_kb", 4096)) * 1024;

  PrintHeader("EnginePool serving throughput");
  collection::Collection c = MakeDblp(docs, seed);
  IndexBuildOptions options;
  auto index = BuildIndex(&c, options);
  if (!index.ok()) {
    std::cerr << index.status() << "\n";
    return 1;
  }
  std::cout << "collection: " << docs << " docs, "
            << TablePrinter::FmtCount(c.NumElements()) << " elements; "
            << batches << " batches/config from " << clients
            << " client threads (hardware_concurrency="
            << std::thread::hardware_concurrency() << ")\n";

  // The two label-carrying serving snapshots: the in-memory cover
  // (borrow route) and the v4 file (block route).
  auto hopi_snapshot = engine::BackendSnapshot::Freeze(*index);
  storage::LinLoutStore store =
      storage::LinLoutStore::FromCover(index->cover(), false);
  const std::string v4_path = "bench_engine_pool_v4.bin";
  if (Status s = store.WriteToFile(v4_path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  auto opened = storage::MappedLinLoutStore::Open(v4_path);
  if (!opened.ok()) {
    std::cerr << opened.status() << "\n";
    return 1;
  }
  auto mapped_v4 = std::make_shared<const storage::MappedLinLoutStore>(
      std::move(opened).value());
  auto collection = std::shared_ptr<const collection::Collection>(
      hopi_snapshot, &hopi_snapshot->collection());
  struct NamedSnapshot {
    const char* name;
    std::shared_ptr<const engine::BackendSnapshot> snapshot;
  };
  NamedSnapshot snapshots[] = {
      {"hopi", hopi_snapshot},
      {"mapped-v4", engine::BackendSnapshot::OfMappedStore(
                        collection, mapped_v4, hopi_snapshot->tags())},
  };

  hopi::bench::BenchReport report("engine_pool");
  report.Add("docs", static_cast<uint64_t>(docs));
  report.Add("clients", static_cast<uint64_t>(clients));
  report.Add("label_cache_bytes", static_cast<uint64_t>(cache_bytes));
  TablePrinter table({"backend", "threads", "batch", "wall s", "probes/s",
                      "label route"});
  for (const NamedSnapshot& named : snapshots) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      for (size_t batch_size : {16u, 256u}) {
        engine::EnginePoolOptions pool_options;
        pool_options.num_threads = threads;
        pool_options.label_cache_bytes = cache_bytes;
        engine::EnginePool pool(named.snapshot, pool_options);
        // Warm the worker engines (bind + first cache fills).
        RunWorkload(&pool, clients, 2 * threads, batch_size,
                    c.NumElements(), seed + 1);
        RunResult r = RunWorkload(&pool, clients, batches, batch_size,
                                  c.NumElements(), seed);
        double pps = static_cast<double>(r.probes) / r.seconds;
        table.AddRow({named.name, std::to_string(threads),
                      std::to_string(batch_size),
                      TablePrinter::Fmt(r.seconds, 3),
                      TablePrinter::FmtCount(static_cast<uint64_t>(pps)),
                      RouteMix(r.stats)});
        report.Add(std::string(named.name) + "_t" + std::to_string(threads) +
                       "_b" + std::to_string(batch_size) + "_probes_per_s",
                   pps);
      }
    }
  }
  table.Print(std::cout);

  PrintHeader("Batch() under a Swap() loop (RCU churn)");
  TablePrinter swap_table(
      {"swaps/run", "threads", "wall s", "probes/s", "rebinds"});
  for (size_t threads : {2u, 4u}) {
    engine::EnginePoolOptions pool_options;
    pool_options.num_threads = threads;
    pool_options.label_cache_bytes = cache_bytes;
    engine::EnginePool pool(hopi_snapshot, pool_options);
    std::atomic<bool> done{false};
    std::atomic<uint64_t> swaps{0};
    std::thread swapper([&] {
      while (!done.load()) {
        pool.Swap(swaps.fetch_add(1) % 2 == 0 ? snapshots[1].snapshot
                                              : hopi_snapshot);
        std::this_thread::yield();
      }
    });
    RunResult r = RunWorkload(&pool, clients, batches, 256,
                              c.NumElements(), seed);
    done.store(true);
    swapper.join();
    double pps = static_cast<double>(r.probes) / r.seconds;
    swap_table.AddRow({TablePrinter::FmtCount(swaps.load()),
                       std::to_string(threads),
                       TablePrinter::Fmt(r.seconds, 3),
                       TablePrinter::FmtCount(static_cast<uint64_t>(pps)),
                       TablePrinter::FmtCount(pool.Stats().rebinds)});
    report.Add("swap_churn_t" + std::to_string(threads) + "_probes_per_s",
               pps);
  }
  swap_table.Print(std::cout);
  report.Write();

  PrintHeader("Batch() against a delta overlay (serve-during-rebuild)");
  // Mutate-while-serving: pre-load the delta with N inserted links,
  // then measure probe throughput through the DeltaOverlayBackend, the
  // BFS-fallback share (probes the base index could not answer alone),
  // and the writer pause of the absorb rebuild that folds the delta.
  hopi::bench::BenchReport overlay_report("delta_overlay");
  overlay_report.Add("docs", static_cast<uint64_t>(docs));
  overlay_report.Add("clients", static_cast<uint64_t>(clients));
  TablePrinter overlay_table({"delta ops", "threads", "wall s", "probes/s",
                              "bfs fallback", "absorb pause"});
  for (size_t delta_ops : {0u, 64u, 256u, 1024u}) {
    for (size_t threads : {2u, 4u}) {
      engine::EnginePoolOptions pool_options;
      pool_options.num_threads = threads;
      pool_options.label_cache_bytes = cache_bytes;
      engine::EnginePool pool(hopi_snapshot, pool_options);
      if (Status armed = pool.EnableMutations(*index); !armed.ok()) {
        std::cerr << armed << "\n";
        return 1;
      }
      // Random non-duplicate links against a mirror of the base: every
      // draw is a valid op, so the delta reaches the target size.
      collection::Collection mirror = hopi_snapshot->collection();
      Rng mutate_rng(seed * 31 + delta_ops);
      size_t applied = 0;
      while (applied < delta_ops) {
        auto u = static_cast<NodeId>(mutate_rng.NextBounded(c.NumElements()));
        auto v = static_cast<NodeId>(mutate_rng.NextBounded(c.NumElements()));
        if (u == v || mirror.ElementGraph().HasEdge(u, v)) continue;
        engine::Mutation m = engine::Mutation::InsertLink(u, v);
        if (!pool.ApplyMutation(m).ok()) continue;
        if (!engine::ApplyMutationToCollection(m, &mirror).ok()) {
          std::abort();  // delta and mirror disagree: bench invariant
        }
        ++applied;
      }
      engine::PoolStats before = pool.Stats();
      RunWorkload(&pool, clients, 2 * threads, 256, c.NumElements(),
                  seed + 1);  // warm
      RunResult r = RunWorkload(&pool, clients, batches, 256,
                                c.NumElements(), seed);
      engine::PoolStats after = pool.Stats();
      double pps = static_cast<double>(r.probes) / r.seconds;
      uint64_t overlay_probes = after.overlay_probes - before.overlay_probes;
      uint64_t fallbacks =
          after.overlay_bfs_fallbacks - before.overlay_bfs_fallbacks;
      double fallback_rate =
          overlay_probes == 0
              ? 0.0
              : static_cast<double>(fallbacks) /
                    static_cast<double>(overlay_probes);
      auto absorbed = pool.RebuildNow(engine::RebuildMode::kAbsorb);
      uint64_t pause_us = 0;
      if (absorbed.ok()) {
        pause_us = absorbed->writer_pause_us;
      } else if (delta_ops > 0) {
        std::cerr << absorbed.status() << "\n";
        return 1;
      }
      overlay_table.AddRow(
          {std::to_string(delta_ops), std::to_string(threads),
           TablePrinter::Fmt(r.seconds, 3),
           TablePrinter::FmtCount(static_cast<uint64_t>(pps)),
           TablePrinter::Fmt(100.0 * fallback_rate, 1) + "%",
           TablePrinter::FmtCount(pause_us) + " us"});
      std::string prefix =
          "delta" + std::to_string(delta_ops) + "_t" + std::to_string(threads);
      overlay_report.Add(prefix + "_probes_per_s", pps);
      overlay_report.Add(prefix + "_bfs_fallback_rate", fallback_rate);
      overlay_report.Add(prefix + "_absorb_pause_us", pause_us);
    }
  }
  overlay_table.Print(std::cout);
  overlay_report.Write();

  std::remove(v4_path.c_str());
  return 0;
}
