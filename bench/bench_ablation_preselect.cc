// Sec 4.2 ablation: preselecting cross-partition link targets as center
// nodes. Paper: "some decrease in cover size, but the effects were
// marginal (about 10,000 entries less than the standard algorithm)".
#include <iostream>

#include "bench_common.h"
#include "hopi/build.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hopi;
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(argc, argv, {"docs", "seed"});
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 500));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));

  PrintHeader("Sec 4.2: center-node preselection ablation");
  collection::Collection c = MakeDblp(docs, seed);

  TablePrinter table({"preselect", "time", "entries", "delta"});
  uint64_t base_entries = 0;
  for (bool preselect : {false, true}) {
    IndexBuildOptions options;
    options.partition.strategy = partition::PartitionStrategy::kTcSizeAware;
    options.partition.max_connections = 40000;
    options.partition.seed = seed;
    options.preselect_link_targets = preselect;
    Stopwatch watch;
    IndexBuildStats stats;
    auto index = BuildIndex(&c, options, &stats);
    if (!index.ok()) {
      std::cerr << index.status() << "\n";
      return 1;
    }
    std::string delta = "-";
    if (!preselect) {
      base_entries = stats.cover_entries;
    } else {
      int64_t diff = static_cast<int64_t>(stats.cover_entries) -
                     static_cast<int64_t>(base_entries);
      delta = std::string(diff <= 0 ? "" : "+").append(std::to_string(diff));
    }
    table.AddRow({preselect ? "on" : "off",
                  TablePrinter::Fmt(watch.ElapsedSeconds(), 2) + "s",
                  TablePrinter::FmtCount(stats.cover_entries), delta});
  }
  table.Print(std::cout);
  std::cout << "\nPaper: marginal improvement (~10k entries of ~10M on "
               "DBLP). Shape check: 'on' should be slightly smaller or "
               "about equal, never dramatically larger.\n";
  return 0;
}
