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
//
// Writes BENCH_storage_io.json (bytes/entry, open cost, cold/warm
// probes/s) for runs to be diffed.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/engine.h"
#include "hopi/build.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hopi;
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(argc, argv,
                                    {"docs", "seed", "probes", "reps",
                                     "cache_kb"});
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 400));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  size_t probes = static_cast<size_t>(cli.GetInt("probes", 256));
  size_t reps = static_cast<size_t>(cli.GetInt("reps", 5));
  // Generous default: "warm" should measure the hit path, not cache
  // thrash. Shrink it (e.g. --cache_kb=1024) to watch eviction churn.
  size_t cache_bytes = static_cast<size_t>(cli.GetInt("cache_kb", 65536)) *
                       1024;

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
  report.Write();
  std::remove(v4_path.c_str());
  return 0;
}
