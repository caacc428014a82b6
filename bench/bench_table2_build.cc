// Table 2 (paper Sec 7.2): index build time and size.
//
// Rows:
//   baseline  — old partitioner + old incremental cover join (EDBT 2004)
//   Px        — old (node-capped) partitioner + NEW recursive join,
//               cap = x * 10^4 nodes at paper scale, scaled to the
//               generated collection's element count
//   single    — every document its own partition + new join
//   Nx        — NEW TC-size-aware partitioner + new join,
//               cap = x * 10^5 closure connections at paper scale, scaled
//               to the measured closure size
// Compression = closure connections / cover entries, as in the paper.
#include <iostream>

#include "bench_common.h"
#include "hopi/build.h"
#include "util/timer.h"

namespace {

using namespace hopi;
using namespace hopi::bench;

struct RowResult {
  std::string name;
  double seconds;
  double join_seconds;
  uint64_t entries;
};

RowResult RunBuild(const std::string& name, collection::Collection* c,
                   const IndexBuildOptions& options) {
  Stopwatch watch;
  IndexBuildStats stats;
  auto index = BuildIndex(c, options, &stats);
  if (!index.ok()) {
    std::cerr << name << " failed: " << index.status() << "\n";
    std::exit(1);
  }
  return {name, watch.ElapsedSeconds(), stats.join_seconds,
          stats.cover_entries};
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli = ParseFlagsOrDie(argc, argv, {"docs", "seed", "fast"});
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 700));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  bool fast = cli.GetBool("fast", false);

  PrintHeader("Table 2: index build time and size (DBLP-like, " +
              std::to_string(docs) + " docs)");
  collection::Collection c = MakeDblp(docs, seed);

  std::cout << "computing transitive closure size (compression denominator)"
            << "...\n";
  Stopwatch tc_watch;
  uint64_t closure =
      TransitiveClosure::CountConnections(c.ElementGraph());
  std::cout << "closure: " << TablePrinter::FmtCount(closure)
            << " connections (" << TablePrinter::Fmt(tc_watch.ElapsedSeconds(), 1)
            << "s; paper: 344,992,370)\n";

  // Paper caps scaled to this collection: Px used x*10^4 of 168,991 nodes,
  // Nx used x*10^5 of 345M connections. Large caps are clamped below the
  // collection size so they still exercise the multi-partition path (the
  // paper's collection was never swallowed by one partition).
  auto px_cap = [&](double x) {
    uint64_t cap =
        static_cast<uint64_t>(x * 1e4 / 168991.0 * c.NumElements()) + 1;
    return std::min<uint64_t>(cap, c.NumElements() * 3 / 5);
  };
  auto nx_cap = [&](double x) {
    return static_cast<uint64_t>(x * 1e5 / 3.4499237e8 *
                                 static_cast<double>(closure)) +
           1;
  };

  std::vector<RowResult> rows;

  {  // baseline: old partitioner + old join (the EDBT'04 configuration).
    IndexBuildOptions options;
    options.partition.strategy =
        partition::PartitionStrategy::kRandomizedNodeLimit;
    options.partition.max_nodes = px_cap(10);
    options.partition.seed = seed;
    options.join = JoinAlgorithm::kIncremental;
    rows.push_back(RunBuild("baseline", &c, options));
  }
  for (double x : fast ? std::vector<double>{10} :
                         std::vector<double>{5, 10, 20, 50}) {
    IndexBuildOptions options;
    options.partition.strategy =
        partition::PartitionStrategy::kRandomizedNodeLimit;
    options.partition.max_nodes = px_cap(x);
    options.partition.seed = seed;
    options.join = JoinAlgorithm::kRecursive;
    rows.push_back(RunBuild(
        std::string("P").append(std::to_string(static_cast<int>(x))), &c,
                            options));
  }
  {  // single: document-per-partition ("naive") + new join.
    IndexBuildOptions options;
    options.partition.strategy =
        partition::PartitionStrategy::kDocPerPartition;
    options.join = JoinAlgorithm::kRecursive;
    rows.push_back(RunBuild("single", &c, options));
  }
  for (double x : fast ? std::vector<double>{25} :
                         std::vector<double>{10, 25, 50, 100}) {
    IndexBuildOptions options;
    options.partition.strategy = partition::PartitionStrategy::kTcSizeAware;
    options.partition.max_connections = nx_cap(x);
    options.partition.edge_weight = partition::EdgeWeightPolicy::kAtimesD;
    options.partition.seed = seed;
    options.join = JoinAlgorithm::kRecursive;
    rows.push_back(RunBuild(
        std::string("N").append(std::to_string(static_cast<int>(x))), &c,
                            options));
  }

  TablePrinter table(
      {"algorithm", "time", "join time", "size", "compression"});
  for (const RowResult& r : rows) {
    table.AddRow({r.name, TablePrinter::Fmt(r.seconds, 1) + "s",
                  TablePrinter::Fmt(r.join_seconds, 2) + "s",
                  TablePrinter::FmtCount(r.entries),
                  TablePrinter::Fmt(Compression(closure, r.entries), 1)});
  }
  table.Print(std::cout);

  std::cout << "\nPaper (Table 2, DBLP 6,210 docs): baseline 11,400s / "
               "15,976,677 entries / 21.6x; best new runs (P5/P10/N10) cut "
               "build time ~10-15x and size ~40%.\n"
            << "Shape check: 'baseline' must be slowest with the largest "
               "cover; Px/Nx rows should beat it on both axes; very large "
               "caps (P50/N100) should drift back up in size.\n";
  return 0;
}
