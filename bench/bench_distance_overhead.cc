// Sec 5 claim: "low space overhead for including distance information in
// the index." Compares plain vs distance-aware builds: cover entries,
// stored integers (the DIST column adds one integer per row), build time.
#include <iostream>

#include "bench_common.h"
#include "hopi/build.h"
#include "storage/linlout.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hopi;
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(argc, argv, {"docs", "seed"});
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 250));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));

  PrintHeader("Sec 5: distance-aware index overhead");
  TablePrinter table({"docs", "mode", "time", "entries", "stored ints",
                      "entry overhead"});
  for (size_t d : {docs / 2, docs}) {
    collection::Collection c = MakeDblp(d, seed);
    IndexBuildOptions options;
    options.partition.strategy = partition::PartitionStrategy::kTcSizeAware;
    options.partition.max_connections = 30000;

    Stopwatch plain_watch;
    auto plain = BuildIndex(&c, options);
    if (!plain.ok()) {
      std::cerr << plain.status() << "\n";
      return 1;
    }
    double plain_time = plain_watch.ElapsedSeconds();
    storage::LinLoutStore plain_store =
        storage::LinLoutStore::FromCover(plain->cover(), false);

    options.with_distance = true;
    Stopwatch dist_watch;
    auto dist = BuildIndex(&c, options);
    if (!dist.ok()) {
      std::cerr << dist.status() << "\n";
      return 1;
    }
    double dist_time = dist_watch.ElapsedSeconds();
    storage::LinLoutStore dist_store =
        storage::LinLoutStore::FromCover(dist->cover(), true);

    double overhead =
        plain->CoverSize() == 0
            ? 0.0
            : 100.0 * (static_cast<double>(dist->CoverSize()) /
                           static_cast<double>(plain->CoverSize()) -
                       1.0);
    table.AddRow({TablePrinter::FmtCount(d), "plain",
                  TablePrinter::Fmt(plain_time, 2) + "s",
                  TablePrinter::FmtCount(plain->CoverSize()),
                  TablePrinter::FmtCount(plain_store.StorageIntegers()), "-"});
    table.AddRow({TablePrinter::FmtCount(d), "distance",
                  TablePrinter::Fmt(dist_time, 2) + "s",
                  TablePrinter::FmtCount(dist->CoverSize()),
                  TablePrinter::FmtCount(dist_store.StorageIntegers()),
                  std::string("+").append(TablePrinter::Fmt(overhead, 1)) +
                      "%"});
  }
  table.Print(std::cout);
  std::cout << "\nShape check: the distance-aware cover may carry more "
               "entries (centers must lie on shortest paths), but the "
               "overhead stays a modest fraction, not a blowup; stored "
               "integers additionally grow by the DIST column (x1.5 per "
               "entry).\n";
  return 0;
}
