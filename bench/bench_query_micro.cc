// Query micro-benchmarks (google-benchmark): HOPI label intersection vs
// the materialized transitive closure, in memory and through a v4
// LIN/LOUT file — both via the raw backends and via the QueryEngine
// facade, whose batch path dedupes probes and caches decoded blocks.
// Query performance was evaluated in the EDBT 2004 paper [26]; this
// harness provides the comparable numbers for our build.
//
// Beyond the google-benchmark tables, this binary owns the join-kernel
// sweep (--sweep): a controlled skew × selectivity matrix over the
// vectorized label-join kernels, reported as BENCH_join_kernel.json.
// --kernel={auto,scalar,sse2,avx2,gallop} pins the process-wide kernel
// for everything this binary runs (both flags are stripped before
// benchmark::Initialize sees the command line).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "engine/backends.h"
#include "engine/engine.h"
#include "hopi/baseline.h"
#include "hopi/build.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "twohop/join_kernel.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace {

using namespace hopi;
using namespace hopi::bench;

struct Fixture {
  collection::Collection collection;
  std::unique_ptr<HopiIndex> index;
  std::unique_ptr<HopiIndex> dist_index;
  std::unique_ptr<TransitiveClosureIndex> closure;
  std::unique_ptr<storage::MappedLinLoutStore> store;
  std::unique_ptr<engine::QueryEngine> engine_hopi;
  std::unique_ptr<engine::QueryEngine> engine_store;
  std::unique_ptr<engine::QueryEngine> engine_closure;

  static Fixture& Get() {
    static Fixture f;
    return f;
  }

  Fixture() {
    collection = MakeDblp(300, 42);
    IndexBuildOptions options;
    options.partition.strategy = partition::PartitionStrategy::kTcSizeAware;
    options.partition.max_connections = 30000;
    auto built = BuildIndex(&collection, options);
    if (!built.ok()) std::abort();
    index = std::make_unique<HopiIndex>(std::move(built).value());
    options.with_distance = true;
    auto dist = BuildIndex(&collection, options);
    if (!dist.ok()) std::abort();
    dist_index = std::make_unique<HopiIndex>(std::move(dist).value());
    closure = std::make_unique<TransitiveClosureIndex>(
        TransitiveClosureIndex::Build(collection.ElementGraph(), true));
    const std::string path = "bench_query_micro_v4.bin";
    if (!storage::LinLoutStore::FromCover(index->cover(), false)
             .WriteToFile(path)
             .ok()) {
      std::abort();
    }
    auto mapped = storage::MappedLinLoutStore::Open(path);
    if (!mapped.ok()) std::abort();
    std::remove(path.c_str());  // the open store keeps the image alive
    store = std::make_unique<storage::MappedLinLoutStore>(
        std::move(mapped).value());
    engine_hopi = std::make_unique<engine::QueryEngine>(
        engine::QueryEngine::ForIndex(*index));
    engine_store = std::make_unique<engine::QueryEngine>(
        engine::QueryEngine::ForMappedStore(collection, *store));
    engine_closure = std::make_unique<engine::QueryEngine>(
        engine::QueryEngine::ForClosure(collection, *closure, true));
  }

  std::pair<NodeId, NodeId> RandomPair(Rng* rng) const {
    return {static_cast<NodeId>(rng->NextBounded(collection.NumElements())),
            static_cast<NodeId>(rng->NextBounded(collection.NumElements()))};
  }

  /// A batch with the skew a reachability join produces: probes drawn
  /// from a small pool of hot sources/targets, so dedup and the label
  /// cache both have something to exploit.
  std::vector<engine::NodePair> SkewedBatch(size_t size, Rng* rng) const {
    std::vector<engine::NodePair> pool;
    for (size_t i = 0; i < size / 4; ++i) pool.push_back(RandomPair(rng));
    std::vector<engine::NodePair> batch;
    batch.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      batch.push_back(pool[rng->NextBounded(pool.size())]);
    }
    return batch;
  }
};

void BM_Reachability_Hopi(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(1);
  for (auto _ : state) {
    auto [u, v] = f.RandomPair(&rng);
    benchmark::DoNotOptimize(f.index->IsReachable(u, v));
  }
}
BENCHMARK(BM_Reachability_Hopi);

void BM_Reachability_MaterializedTC(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(1);
  for (auto _ : state) {
    auto [u, v] = f.RandomPair(&rng);
    benchmark::DoNotOptimize(f.closure->IsReachable(u, v));
  }
}
BENCHMARK(BM_Reachability_MaterializedTC);

void BM_Reachability_MappedV4(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(1);
  for (auto _ : state) {
    auto [u, v] = f.RandomPair(&rng);
    benchmark::DoNotOptimize(f.store->TestConnection(u, v));
  }
}
BENCHMARK(BM_Reachability_MappedV4);

void BM_Distance_Hopi(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(2);
  for (auto _ : state) {
    auto [u, v] = f.RandomPair(&rng);
    benchmark::DoNotOptimize(f.dist_index->Distance(u, v));
  }
}
BENCHMARK(BM_Distance_Hopi);

void BM_Distance_MaterializedTC(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(2);
  for (auto _ : state) {
    auto [u, v] = f.RandomPair(&rng);
    benchmark::DoNotOptimize(f.closure->Distance(u, v));
  }
}
BENCHMARK(BM_Distance_MaterializedTC);

void BM_Descendants_Hopi(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(3);
  for (auto _ : state) {
    NodeId u =
        static_cast<NodeId>(rng.NextBounded(f.collection.NumElements()));
    benchmark::DoNotOptimize(f.index->Descendants(u));
  }
}
BENCHMARK(BM_Descendants_Hopi);

void BM_Descendants_MaterializedTC(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(3);
  for (auto _ : state) {
    NodeId u =
        static_cast<NodeId>(rng.NextBounded(f.collection.NumElements()));
    benchmark::DoNotOptimize(f.closure->Descendants(u));
  }
}
BENCHMARK(BM_Descendants_MaterializedTC);

void BM_Descendants_MappedV4(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(3);
  for (auto _ : state) {
    NodeId u =
        static_cast<NodeId>(rng.NextBounded(f.collection.NumElements()));
    benchmark::DoNotOptimize(f.store->Descendants(u));
  }
}
BENCHMARK(BM_Descendants_MappedV4);

// ---- the QueryEngine facade: batched, deduped, block-cached ----

void RunEngineBatch(benchmark::State& state, engine::QueryEngine* engine) {
  Fixture& f = Fixture::Get();
  Rng rng(4);
  std::vector<engine::NodePair> batch = f.SkewedBatch(256, &rng);
  size_t hits = 0, misses = 0, probes = 0;
  for (auto _ : state) {
    engine::BatchResponse r = engine->Batch({.pairs = batch});
    benchmark::DoNotOptimize(&r);
    hits += r.stats.cache_hits;
    misses += r.stats.cache_misses;
    probes += r.stats.probes;
  }
  state.SetItemsProcessed(static_cast<int64_t>(probes));
  if (hits + misses > 0) {
    state.counters["cache_hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
}

void BM_EngineBatch_Hopi(benchmark::State& state) {
  RunEngineBatch(state, Fixture::Get().engine_hopi.get());
}
BENCHMARK(BM_EngineBatch_Hopi);

void BM_EngineBatch_MappedV4(benchmark::State& state) {
  RunEngineBatch(state, Fixture::Get().engine_store.get());
}
BENCHMARK(BM_EngineBatch_MappedV4);

void BM_EngineBatch_MaterializedTC(benchmark::State& state) {
  RunEngineBatch(state, Fixture::Get().engine_closure.get());
}
BENCHMARK(BM_EngineBatch_MaterializedTC);

// The same skewed workload as scalar calls, for the batching delta.
void BM_EngineScalarLoop_MappedV4(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rng rng(4);
  std::vector<engine::NodePair> batch = f.SkewedBatch(256, &rng);
  size_t probes = 0;
  for (auto _ : state) {
    for (const auto& [u, v] : batch) {
      benchmark::DoNotOptimize(f.store->TestConnection(u, v));
    }
    probes += batch.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(probes));
}
BENCHMARK(BM_EngineScalarLoop_MappedV4);

void BM_EnginePathQuery_Hopi(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    auto r = f.engine_hopi->Query(
        {.expression = "//inproceedings//cite//title", .max_matches = 100});
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r->count);
  }
}
BENCHMARK(BM_EnginePathQuery_Hopi);

// ---- the join-kernel sweep (--sweep -> BENCH_join_kernel.json) ----
//
// Synthetic label pairs with controlled skew and selectivity, so each
// kernel is measured on exactly the shape its dispatch rule targets:
//
//   ratio    |Lout| / |Lin| in {1, 8, 64} (the small side stays 8)
//   mix      positive (every probe shares a center) vs negative-heavy
//            (7/8 of the probes share nothing)
//
// The speedup column is the auto kernel against the forced scalar
// kernel over the same packed labels.

/// One pre-generated probe: a packed label pair.
struct SweepProbe {
  NodeId u, v;
  std::vector<uint32_t> lout_centers, lout_dists, lin_centers, lin_dists;
  twohop::LabelSummary lout_summary, lin_summary;

  twohop::JoinView OutView() const {
    return {lout_centers.data(), lout_dists.data(), lout_centers.size(),
            lout_summary};
  }
  twohop::JoinView InView() const {
    return {lin_centers.data(), lin_dists.data(), lin_centers.size(),
            lin_summary};
  }
};

std::vector<uint32_t> SortedUniqueCenters(size_t n, uint32_t parity,
                                          Rng* rng) {
  // Even/odd parity keeps positive planting easy and negative probes
  // honestly interleaved (disjoint sets, overlapping ranges — the shape
  // the pre-kernel disjoint-range short-circuit can NOT reject). Both
  // sides spread over the same ~1M-center span regardless of n, so a
  // skewed pair really interleaves end to end instead of the small side
  // exhausting after a sliver of the large one.
  constexpr uint32_t kSpan = 1 << 20;
  std::vector<uint32_t> centers;
  uint32_t mean_step = std::max<uint32_t>(1, kSpan / static_cast<uint32_t>(n));
  uint32_t c = parity + 2 * static_cast<uint32_t>(rng->NextBounded(64));
  for (size_t i = 0; i < n; ++i) {
    centers.push_back(c);
    c += 2 * (1 + static_cast<uint32_t>(rng->NextBounded(mean_step)));
  }
  return centers;
}

SweepProbe MakeSweepProbe(size_t lout_n, size_t lin_n, bool positive,
                          Rng* rng) {
  SweepProbe p;
  // Node ids far outside the center universe: no accidental self-entry
  // hits, so `positive` alone decides connectivity.
  p.u = 0xF0000001;
  p.v = 0xF0000002;
  std::vector<uint32_t> lout_c = SortedUniqueCenters(lout_n, 0, rng);
  std::vector<uint32_t> lin_c = SortedUniqueCenters(lin_n, 1, rng);
  if (positive && !lout_c.empty() && !lin_c.empty()) {
    // Plant one shared center (keep both sets sorted + unique).
    uint32_t shared = lout_c[rng->NextBounded(lout_c.size())];
    lin_c[rng->NextBounded(lin_c.size())] = shared;
    std::sort(lin_c.begin(), lin_c.end());
    lin_c.erase(std::unique(lin_c.begin(), lin_c.end()), lin_c.end());
  }
  auto fill = [rng](const std::vector<uint32_t>& centers,
                    std::vector<uint32_t>* soa_c, std::vector<uint32_t>* soa_d,
                    twohop::LabelSummary* summary) {
    *summary = twohop::LabelSummary::Empty();
    for (uint32_t c : centers) {
      soa_c->push_back(c);
      soa_d->push_back(static_cast<uint32_t>(rng->NextBounded(16)));
      summary->Add(c);
    }
  };
  fill(lout_c, &p.lout_centers, &p.lout_dists, &p.lout_summary);
  fill(lin_c, &p.lin_centers, &p.lin_dists, &p.lin_summary);
  return p;
}

/// Probes/second of `fn` over the batch, timed over enough repetitions
/// to dominate clock noise.
template <typename Fn>
double MeasureProbesPerSec(const std::vector<SweepProbe>& batch, Fn fn) {
  using clock = std::chrono::steady_clock;
  // Warm-up pass (page in the arenas, settle the branch predictors).
  size_t sink = 0;
  for (const SweepProbe& p : batch) sink += fn(p);
  benchmark::DoNotOptimize(sink);
  size_t iters = 0;
  clock::time_point start = clock::now();
  double elapsed = 0;
  do {
    for (const SweepProbe& p : batch) sink += fn(p);
    benchmark::DoNotOptimize(sink);
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.25);
  return static_cast<double>(batch.size()) * static_cast<double>(iters) /
         elapsed;
}

void RunJoinKernelSweep() {
  constexpr size_t kBatch = 2048;
  constexpr size_t kSmall = 8;
  PrintHeader("join-kernel sweep (probes/s, batch of 2048)");
  BenchReport report("join_kernel");
  report.Add("probes_per_batch", static_cast<uint64_t>(kBatch));
  report.Add("small_side_entries", static_cast<uint64_t>(kSmall));
  report.Add("cpu_sse2", static_cast<uint64_t>(util::CpuInfo().sse2));
  report.Add("cpu_avx2", static_cast<uint64_t>(util::CpuInfo().avx2));
  TablePrinter table({"workload", "scalar", "gallop", "sse2", "avx2", "auto",
                      "speedup"});
  double negheavy_skew_speedup = 0;
  for (size_t ratio : {size_t{1}, size_t{8}, size_t{64}}) {
    for (bool negheavy : {false, true}) {
      Rng rng(1000 * ratio + negheavy);
      std::vector<SweepProbe> batch;
      batch.reserve(kBatch);
      for (size_t i = 0; i < kBatch; ++i) {
        // Negative-heavy = 1 positive in 8, the selectivity of a real
        // filter push-down; positive mix = every probe connects.
        bool positive = negheavy ? i % 8 == 0 : true;
        batch.push_back(MakeSweepProbe(kSmall * ratio, kSmall, positive,
                                       &rng));
      }
      std::string workload = std::string("r")
                                 .append(std::to_string(ratio))
                                 .append(negheavy ? "_negheavy" : "_positive");
      std::vector<std::string> row = {workload};
      double scalar_rate = 0, auto_rate = 0;
      for (twohop::JoinKernel k :
           {twohop::JoinKernel::kScalar, twohop::JoinKernel::kGallop,
            twohop::JoinKernel::kSSE2, twohop::JoinKernel::kAVX2,
            twohop::JoinKernel::kAuto}) {
        if (!twohop::JoinKernelSupported(k)) {
          row.push_back("-");
          continue;
        }
        double rate = MeasureProbesPerSec(batch, [k](const SweepProbe& p) {
          return twohop::JoinViews(p.u, p.v, p.OutView(), p.InView(),
                                   /*want_distance=*/false, k)
              .connected;
        });
        report.Add(workload + "_" +
                       std::string(twohop::JoinKernelName(k)) +
                       "_probes_per_s",
                   rate);
        row.push_back(TablePrinter::FmtCount(static_cast<uint64_t>(rate)));
        if (k == twohop::JoinKernel::kScalar) scalar_rate = rate;
        if (k == twohop::JoinKernel::kAuto) auto_rate = rate;
      }
      double speedup = scalar_rate > 0 ? auto_rate / scalar_rate : 0;
      report.Add(workload + "_speedup_auto_vs_scalar", speedup);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
      row.push_back(buf);
      table.AddRow(row);
      if (ratio == 8 && negheavy) negheavy_skew_speedup = speedup;
    }
  }
  table.Print(std::cout);
  // The headline: auto dispatch on the negative-heavy 8x-skewed batch
  // vs the forced scalar kernel. (The 64x tier is dominated by the raw
  // 512-entry scan and is reported per-cell above.)
  report.Add("speedup_negheavy_skewed_auto_vs_scalar", negheavy_skew_speedup);
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the sweep flags before google-benchmark parses the rest.
  bool sweep = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--kernel=", 0) == 0) {
      std::optional<hopi::twohop::JoinKernel> k =
          hopi::twohop::ParseJoinKernel(arg.substr(9));
      if (!k) {
        std::cerr << "unknown --kernel value '" << arg.substr(9)
                  << "' (auto|scalar|gallop|sse2|avx2)\n";
        return 2;
      }
      hopi::twohop::SetForcedJoinKernel(*k);
      continue;
    }
    if (arg == "--sweep") {
      sweep = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (sweep) {
    RunJoinKernelSweep();
    return 0;
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
