// Storage-layer I/O bench: the block-compressed (v4) LIN/LOUT file —
// size on disk, open cost, and batched probe throughput in each open
// mode.
//
//   cold open  MappedLinLoutStore::Open validates checksums but copies
//              nothing when it maps the file; its buffered mode
//              ("buffered_v4") reads the whole file into the heap
//              first. The lazy open ("mapped_v4_lazy") verifies only
//              the metadata CRC: the open cost that stays flat as
//              covers outgrow RAM.
//   cold batch a fresh engine's first 256-probe batch: every touched
//              block is decoded once into the byte-budgeted cache.
//   warm batch the steady state: pinned rows served from cached
//              blocks.
//   concurrent 1, 2 and 4 closed-loop threads, each with its own engine
//              over the mapped store, serving uniform 64-pair distance
//              batches: every engine with a private cache, against all
//              engines sharing one cache of the same total budget (what
//              EnginePool does). Warm rows give each thread --cache_kb,
//              which holds the whole file; cold rows give each thread a
//              fifth of the decoded forward blocks, the ratio of
//              layerbench's scan_cold (512 KiB of ~2.4 MiB at 1000
//              docs). Each row reports aggregate probes/s over half
//              a second and the block-route hit fraction.
//
// Writes BENCH_storage_io.json (bytes/entry, open cost, cold/warm
// probes/s, private/shared concurrent probes/s) for runs to be diffed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/engine.h"
#include "engine/label_cache.h"
#include "hopi/build.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace hopi;

/// Aggregate outcome of one set of closed loops.
struct LoopResult {
  double probes_per_s = 0.0;
  /// cache_hits / (cache_hits + cache_misses) over the timed loops.
  double hit_frac = 0.0;
};

/// Bytes of every distinct forward (LIN and LOUT) block of `store`,
/// decoded: the working set of uniform probes.
size_t DecodedForwardBytes(const storage::MappedLinLoutStore& store,
                           size_t num_elements) {
  std::set<uint64_t> handles;
  for (NodeId id = 0; id < num_elements; ++id) {
    if (auto h = store.LinBlockHandle(id)) handles.insert(*h);
    if (auto h = store.LoutBlockHandle(id)) handles.insert(*h);
  }
  size_t bytes = 0;
  for (uint64_t handle : handles) {
    auto block = store.DecodeBlock(handle);
    if (block.ok()) bytes += (*block)->ApproxBytes();
  }
  return bytes;
}

/// Runs `threads` closed loops, each an engine of its own over `store`
/// serving uniform 64-pair distance batches for `seconds`. The engines
/// have private caches of `per_thread_bytes`, or, when `shared`, share
/// one cache of `per_thread_bytes` × `threads`. Every engine first
/// serves one batch over all nodes, so the timed loops start from a
/// filled cache.
LoopResult RunClosedLoops(const collection::Collection& c,
                          const storage::MappedLinLoutStore& store,
                          size_t threads, size_t per_thread_bytes,
                          bool shared, double seconds, uint64_t seed) {
  constexpr size_t kPairsPerBatch = 64;
  const size_t n = c.NumElements();
  engine::QueryEngineOptions options;
  options.label_cache_bytes = per_thread_bytes;
  options.shared_tags = std::make_shared<const query::TagIndex>(c);
  if (shared) {
    options.shared_cache =
        std::make_shared<engine::LabelCache>(per_thread_bytes * threads);
  }
  engine::BatchRequest warm_up{.pairs = {}, .want_distances = true};
  for (NodeId u = 0; u < n; ++u) {
    warm_up.pairs.push_back({u, static_cast<NodeId>((u + 1) % n)});
  }
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<size_t> probes(threads, 0), hits(threads, 0),
      misses(threads, 0);
  std::vector<std::thread> loops;
  for (size_t t = 0; t < threads; ++t) {
    loops.emplace_back([&, t] {
      engine::QueryEngine engine =
          engine::QueryEngine::ForMappedStore(c, store, options);
      engine.Batch(warm_up);
      Rng rng(seed + t);
      engine::BatchRequest request{
          .pairs = std::vector<engine::NodePair>(kPairsPerBatch),
          .want_distances = true};
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& pair : request.pairs) {
          pair = {static_cast<NodeId>(rng.NextBounded(n)),
                  static_cast<NodeId>(rng.NextBounded(n))};
        }
        engine::BatchResponse response = engine.Batch(request);
        probes[t] += response.stats.probes;
        hits[t] += response.stats.cache_hits;
        misses[t] += response.stats.cache_misses;
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  Stopwatch wall;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& loop : loops) loop.join();
  const double elapsed = wall.ElapsedSeconds();
  LoopResult result;
  size_t total_probes = 0, total_hits = 0, total_misses = 0;
  for (size_t t = 0; t < threads; ++t) {
    total_probes += probes[t];
    total_hits += hits[t];
    total_misses += misses[t];
  }
  result.probes_per_s = static_cast<double>(total_probes) / elapsed;
  if (total_hits + total_misses != 0) {
    result.hit_frac = static_cast<double>(total_hits) /
                      static_cast<double>(total_hits + total_misses);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hopi;
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(argc, argv,
                                    {"docs", "seed", "probes", "reps",
                                     "cache_kb"});
  // 1000 docs is layerbench's scan_cold collection: its decoded forward
  // blocks (~2.4 MiB) outgrow a core's L2, as a served store's do.
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 1000));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  size_t probes = static_cast<size_t>(cli.GetInt("probes", 256));
  size_t reps = static_cast<size_t>(cli.GetInt("reps", 5));
  // Generous default: "warm" should measure the hit path, not cache
  // thrash. Shrink it (e.g. --cache_kb=1024) to watch eviction churn.
  size_t cache_bytes = static_cast<size_t>(cli.GetInt("cache_kb", 65536)) *
                       1024;
  // Length of each concurrent row's timed loops.
  constexpr double kLoopSeconds = 0.5;

  PrintHeader("Storage I/O: block-compressed (v4) LIN/LOUT");
  collection::Collection c = MakeDblp(docs, seed);
  IndexBuildOptions options;
  options.with_distance = true;
  auto index = BuildIndex(&c, options);
  if (!index.ok()) {
    std::cerr << index.status() << "\n";
    return 1;
  }
  storage::LinLoutStore store =
      storage::LinLoutStore::FromCover(index->cover(), true);

  const std::string v4_path = "bench_storage_io_v4.bin";
  if (Status s = store.WriteToFile(v4_path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  auto v4_info = storage::InspectFile(v4_path);
  if (!v4_info.ok()) {
    std::cerr << v4_info.status() << "\n";
    return 1;
  }
  const uint64_t entries = store.NumEntries();
  const double v4_bpe =
      static_cast<double>(v4_info->file_bytes) / static_cast<double>(entries);
  std::cout << "cover: " << TablePrinter::FmtCount(entries)
            << " label entries\n"
            << "  v4: " << TablePrinter::FmtCount(v4_info->file_bytes)
            << " bytes (" << TablePrinter::Fmt(v4_bpe, 2) << " B/entry)\n";

  Rng rng(seed);
  std::vector<engine::NodePair> pairs;
  for (size_t i = 0; i < probes; ++i) {
    pairs.push_back(
        {static_cast<NodeId>(rng.NextBounded(c.NumElements())),
         static_cast<NodeId>(rng.NextBounded(c.NumElements()))});
  }
  const double batch_probes = static_cast<double>(probes);

  BenchReport report("storage_io");
  report.Add("docs", static_cast<uint64_t>(docs));
  report.Add("label_entries", entries);
  report.Add("v4_file_bytes", v4_info->file_bytes);
  report.Add("v4_bytes_per_entry", v4_bpe);

  report.Add("label_cache_bytes", static_cast<uint64_t>(cache_bytes));

  TablePrinter table({"mode", "cold open", "cold batch", "warm batch",
                      "warm probes/s", "borrowed", "decoded", "evicted"});
  auto run_mode = [&](const std::string& mode,
                      const storage::MappedLinLoutStore& store, double open_s) {
    engine::QueryEngineOptions eng_options;
    eng_options.label_cache_bytes = cache_bytes;
    engine::QueryEngine eng =
        engine::QueryEngine::ForMappedStore(c, store, eng_options);
    Stopwatch cold_sw;
    engine::BatchResponse cold =
        eng.Batch({.pairs = pairs, .want_distances = true});
    double cold_s = cold_sw.ElapsedSeconds();
    Stopwatch warm_sw;
    for (size_t rep = 0; rep < reps; ++rep) {
      eng.Batch({.pairs = pairs, .want_distances = true});
    }
    double warm_s = warm_sw.ElapsedSeconds() / static_cast<double>(reps);
    double warm_pps = batch_probes / warm_s;
    table.AddRow({mode, TablePrinter::Fmt(open_s * 1e3, 3) + "ms",
                  TablePrinter::Fmt(cold_s * 1e6, 1) + "us",
                  TablePrinter::Fmt(warm_s * 1e6, 1) + "us",
                  TablePrinter::FmtCount(static_cast<uint64_t>(warm_pps)),
                  TablePrinter::FmtCount(cold.stats.labels_borrowed),
                  TablePrinter::FmtCount(cold.stats.blocks_decoded),
                  TablePrinter::FmtCount(eng.CacheStats().evictions)});
    report.Add(mode + "_open_ms", open_s * 1e3);
    report.Add(mode + "_cold_probes_per_s", batch_probes / cold_s);
    report.Add(mode + "_warm_probes_per_s", warm_pps);
    report.Add(mode + "_blocks_decoded", cold.stats.blocks_decoded);
    const engine::LabelCache::Stats cache = eng.CacheStats();
    report.Add(mode + "_decode_us_per_block",
               static_cast<double>(cache.decode_nanos) / 1e3 /
                   static_cast<double>(std::max<uint64_t>(
                       cache.blocks_decoded, 1)));
  };

  // Open modes: buffered, mapped, and mapped lazy.
  struct MappedMode {
    std::string name;
    std::string path;
    storage::MappedOpenOptions open;
  };
  const MappedMode modes[] = {
      {"buffered_v4", v4_path, {.prefer_mmap = false}},
      {"mapped_v4", v4_path, {}},
      {"mapped_v4_lazy", v4_path, {.prefer_mmap = true,
                                   .verify_file_checksum = false}},
  };
  for (const MappedMode& mode : modes) {
    double open_s = 0;
    for (size_t rep = 0; rep < reps; ++rep) {
      Stopwatch sw;
      auto mapped = storage::MappedLinLoutStore::Open(mode.path, mode.open);
      open_s += sw.ElapsedSeconds() / static_cast<double>(reps);
      if (!mapped.ok()) {
        std::cerr << mapped.status() << "\n";
        return 1;
      }
    }
    auto mapped = storage::MappedLinLoutStore::Open(mode.path, mode.open);
    run_mode(mode.name, *mapped, open_s);
  }
  table.Print(std::cout);
  std::cout << "\nShape check: cold batches decode each touched block "
               "once; warm batches serve pinned rows from the byte-budgeted "
               "cache and decode nothing.\n";

  // Concurrent readers: a private cache per thread against one shared
  // cache of the same total budget.
  auto mapped = storage::MappedLinLoutStore::Open(v4_path);
  if (!mapped.ok()) {
    std::cerr << mapped.status() << "\n";
    return 1;
  }
  const size_t working_set = DecodedForwardBytes(*mapped, c.NumElements());
  const size_t cold_bytes = working_set / 5;
  report.Add("decoded_forward_bytes", static_cast<uint64_t>(working_set));
  report.Add("cold_cache_bytes_per_thread", static_cast<uint64_t>(cold_bytes));
  std::cout << "\nConcurrent readers, uniform 64-pair distance batches ("
            << TablePrinter::FmtCount(working_set)
            << " decoded forward bytes):\n";
  TablePrinter loops_table({"regime", "threads", "cache/thread",
                            "private probes/s", "shared probes/s",
                            "shared/private", "private hit", "shared hit"});
  struct Regime {
    std::string name;
    size_t per_thread_bytes;
  };
  for (const Regime& regime :
       {Regime{"warm", cache_bytes}, Regime{"cold", cold_bytes}}) {
    for (size_t threads : {1, 2, 4}) {
      LoopResult priv = RunClosedLoops(c, *mapped, threads,
                                       regime.per_thread_bytes, false,
                                       kLoopSeconds, seed);
      LoopResult shared = RunClosedLoops(c, *mapped, threads,
                                         regime.per_thread_bytes, true,
                                         kLoopSeconds, seed);
      const double ratio = shared.probes_per_s / priv.probes_per_s;
      loops_table.AddRow(
          {regime.name, std::to_string(threads),
           TablePrinter::FmtCount(regime.per_thread_bytes / 1024) + " KiB",
           TablePrinter::FmtCount(static_cast<uint64_t>(priv.probes_per_s)),
           TablePrinter::FmtCount(static_cast<uint64_t>(shared.probes_per_s)),
           TablePrinter::Fmt(ratio, 2) + "x",
           TablePrinter::Fmt(priv.hit_frac, 3),
           TablePrinter::Fmt(shared.hit_frac, 3)});
      const std::string key =
          std::string(regime.name).append("_t").append(std::to_string(threads));
      report.Add(key + "_private_probes_per_s", priv.probes_per_s);
      report.Add(key + "_shared_probes_per_s", shared.probes_per_s);
      report.Add(key + "_shared_over_private", ratio);
      report.Add(key + "_private_hit_frac", priv.hit_frac);
      report.Add(key + "_shared_hit_frac", shared.hit_frac);
    }
  }
  loops_table.Print(std::cout);
  std::cout << "\nShape check: warm, both layouts hit on every block and "
               "the shared cache costs only its locks; cold, the shared "
               "cache holds each block once for every thread, so it hits "
               "more as threads are added.\n";
  report.Write();
  std::remove(v4_path.c_str());
  return 0;
}
