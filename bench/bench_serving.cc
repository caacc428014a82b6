// Closed-loop load bench for the serving front-end: a real epoll
// HttpServer over a real EnginePool, driven by N keep-alive
// BlockingHttpClients over real sockets — every layer the production
// path crosses (socket, parser, wire, admission, pool, worker,
// serialize, socket) is in the measured loop.
//
// Three arrival models:
//   --mode=closed  N clients, each fires its next request the moment
//                  the previous response lands (the classic closed
//                  loop; concurrency == N).
//   --mode=open    each client paces requests at rate/clients per
//                  second regardless of response latency, and times
//                  each one from when it was due (approximated open
//                  loop: a late response delays the next send, and
//                  that delay counts in the next request's latency).
//   --mode=burst   shedding demo: a deliberately tiny pool (1 worker,
//                  queue capacity from --queue_capacity) under a
//                  many-client closed loop — the 429 column is the
//                  admission controller earning its keep.
//
// Probes are Zipfian (--zipf_s) over the element space: a skewed hot
// set is what makes the pool's label cache (and its hit-rate numbers
// in /stats) meaningful under load.
//
// Writes BENCH_serving.json (throughput, latency percentiles, status
// mix) via BenchReport.
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/engine_pool.h"
#include "engine/snapshot.h"
#include "hopi/build.h"
#include "net/client.h"
#include "net/server.h"
#include "net/service.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace hopi;

struct LoadResult {
  double seconds = 0.0;
  uint64_t ok = 0;
  uint64_t shed = 0;       // HTTP 429
  uint64_t other = 0;      // anything else (should stay 0)
  uint64_t transport = 0;  // client-side socket errors (should stay 0)
  uint64_t probes = 0;
  LatencyHistogram::Snapshot latency;  // microseconds per request
};

std::string MakeBatchBody(Rng* rng, uint64_t num_elements, size_t batch_size,
                          double zipf_s) {
  std::string body = "{\"pairs\":[";
  for (size_t i = 0; i < batch_size; ++i) {
    if (i > 0) body += ',';
    uint64_t u = rng->NextZipf(num_elements, zipf_s);
    uint64_t v = rng->NextZipf(num_elements, zipf_s);
    body += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
  }
  body += "]}";
  return body;
}

/// Drives `clients` keep-alive connections against `port` for
/// `seconds` of wall time. rate_per_client == 0 -> closed loop.
LoadResult RunLoad(uint16_t port, size_t clients, double seconds,
                   size_t batch_size, uint64_t num_elements, double zipf_s,
                   double rate_per_client, uint64_t seed) {
  LatencyHistogram latency;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> other{0};
  std::atomic<uint64_t> transport{0};
  std::atomic<bool> stop{false};

  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 31 + t);
      net::BlockingHttpClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        transport.fetch_add(1);
        return;
      }
      const auto pace = rate_per_client > 0
                            ? std::chrono::duration_cast<
                                  std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(
                                      1.0 / rate_per_client))
                            : std::chrono::steady_clock::duration::zero();
      auto next_send = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        // The open loop times each request from when it was due, not
        // from when it went out: a stall that delays later sends then
        // shows up as their queueing delay.
        std::optional<std::chrono::steady_clock::time_point> due;
        if (pace.count() > 0) {
          due = next_send;
          std::this_thread::sleep_until(next_send);
          next_send += pace;
        }
        std::string body =
            MakeBatchBody(&rng, num_elements, batch_size, zipf_s);
        auto started = due.value_or(std::chrono::steady_clock::now());
        auto response = client.Request("POST", "/v1/batch", body);
        auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count();
        if (!response.ok()) {
          transport.fetch_add(1);
          // The server closes on parse errors and dying connections;
          // reconnect and carry on (counted, so a non-zero column
          // flags it).
          if (!client.Connect("127.0.0.1", port).ok()) return;
          continue;
        }
        latency.Record(static_cast<uint64_t>(elapsed));
        if (response.value().status == 200) {
          ok.fetch_add(1);
        } else if (response.value().status == 429) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
        if (!client.connected() &&
            !client.Connect("127.0.0.1", port).ok()) {
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& thread : threads) thread.join();

  LoadResult result;
  result.seconds = wall.ElapsedSeconds();
  result.ok = ok.load();
  result.shed = shed.load();
  result.other = other.load();
  result.transport = transport.load();
  result.probes = result.ok * batch_size;
  result.latency = latency.TakeSnapshot();
  return result;
}

void AddRow(TablePrinter* table, hopi::bench::BenchReport* report,
            const std::string& name, const LoadResult& r) {
  double rps = static_cast<double>(r.ok + r.shed + r.other) / r.seconds;
  table->AddRow(
      {name, TablePrinter::FmtCount(static_cast<uint64_t>(rps)),
       TablePrinter::FmtCount(static_cast<uint64_t>(
           static_cast<double>(r.probes) / r.seconds)),
       std::to_string(r.latency.ValueAtQuantile(0.50)),
       std::to_string(r.latency.ValueAtQuantile(0.99)),
       std::to_string(r.latency.ValueAtQuantile(0.999)),
       std::to_string(r.ok), std::to_string(r.shed),
       std::to_string(r.other + r.transport)});
  report->Add(name + "_requests_per_s", rps);
  report->Add(name + "_probes_per_s",
              static_cast<double>(r.probes) / r.seconds);
  report->Add(name + "_p50_us", r.latency.ValueAtQuantile(0.50));
  report->Add(name + "_p99_us", r.latency.ValueAtQuantile(0.99));
  report->Add(name + "_p999_us", r.latency.ValueAtQuantile(0.999));
  report->Add(name + "_ok", r.ok);
  report->Add(name + "_shed", r.shed);
  report->Add(name + "_errors", r.other + r.transport);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(
      argc, argv,
      {"docs", "seed", "seconds", "clients", "batch_size", "zipf_s",
       "workers", "io_threads", "queue_capacity", "shed_high", "rate",
       "burst_clients", "mode"});
  const size_t docs = static_cast<size_t>(cli.GetInt("docs", 300));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  const double seconds = cli.GetDouble("seconds", 3.0);
  const size_t clients = static_cast<size_t>(cli.GetInt("clients", 8));
  const size_t batch_size = static_cast<size_t>(cli.GetInt("batch_size", 32));
  const double zipf_s = cli.GetDouble("zipf_s", 1.1);
  const size_t workers = static_cast<size_t>(cli.GetInt("workers", 2));
  const size_t io_threads = static_cast<size_t>(cli.GetInt("io_threads", 1));
  const size_t queue_capacity =
      static_cast<size_t>(cli.GetInt("queue_capacity", 4));
  const size_t shed_high = static_cast<size_t>(cli.GetInt("shed_high", 8));
  const double rate = cli.GetDouble("rate", 2000.0);
  const size_t burst_clients =
      static_cast<size_t>(cli.GetInt("burst_clients", 32));
  const std::string mode = cli.GetString("mode", "all");

  PrintHeader("serving front-end load (epoll HTTP -> EnginePool)");
  collection::Collection c = MakeDblp(docs, seed);
  auto index = BuildIndex(&c, IndexBuildOptions{});
  if (!index.ok()) {
    std::cerr << index.status() << "\n";
    return 1;
  }
  auto snapshot = engine::BackendSnapshot::Freeze(*index);
  const uint64_t num_elements = c.NumElements();
  std::cout << "collection: " << docs << " docs, "
            << TablePrinter::FmtCount(num_elements) << " elements; "
            << clients << " clients, batch " << batch_size << ", zipf s="
            << zipf_s << ", " << seconds << "s per mode\n";

  BenchReport report("serving");
  report.Add("docs", static_cast<uint64_t>(docs));
  report.Add("clients", static_cast<uint64_t>(clients));
  report.Add("batch_size", static_cast<uint64_t>(batch_size));
  report.Add("zipf_s", zipf_s);
  report.Add("workers", static_cast<uint64_t>(workers));

  TablePrinter table({"mode", "req/s", "probes/s", "p50 us", "p99 us",
                      "p999 us", "200", "429", "err"});

  if (mode == "all" || mode == "closed" || mode == "open") {
    // Ample headroom: this pool measures throughput, not shedding.
    engine::EnginePoolOptions pool_options;
    pool_options.num_threads = workers;
    engine::EnginePool pool(snapshot, pool_options);
    net::ReachabilityService service(&pool);
    net::HttpServerOptions server_options;
    server_options.num_io_threads = io_threads;
    net::HttpServer server(service.AsHandler(), server_options);
    if (Status s = server.Start(); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
    if (mode == "all" || mode == "closed") {
      // Warm-up pass (engine bind + cache fill) kept out of the table.
      RunLoad(server.port(), clients, seconds / 4, batch_size, num_elements,
              zipf_s, 0.0, seed + 1);
      LoadResult r = RunLoad(server.port(), clients, seconds, batch_size,
                             num_elements, zipf_s, 0.0, seed);
      AddRow(&table, &report, "closed", r);
    }
    if (mode == "all" || mode == "open") {
      LoadResult r =
          RunLoad(server.port(), clients, seconds, batch_size, num_elements,
                  zipf_s, rate / static_cast<double>(clients), seed + 2);
      AddRow(&table, &report, "open", r);
    }
    server.Stop();
  }

  if (mode == "all" || mode == "burst") {
    // A pool sized to drown: 1 worker, tiny queue, low watermarks. The
    // burst MUST shed (asserted by tests/net_test.cc; reported here).
    engine::EnginePoolOptions pool_options;
    pool_options.num_threads = 1;
    pool_options.queue_capacity = queue_capacity;
    pool_options.shed_high_watermark = shed_high;
    engine::EnginePool pool(snapshot, pool_options);
    net::ReachabilityService service(&pool);
    net::HttpServerOptions server_options;
    server_options.num_io_threads = io_threads;
    net::HttpServer server(service.AsHandler(), server_options);
    if (Status s = server.Start(); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
    LoadResult r = RunLoad(server.port(), burst_clients, seconds,
                           batch_size * 8, num_elements, zipf_s, 0.0, seed);
    AddRow(&table, &report, "burst", r);
    engine::PoolStats stats = pool.Stats();
    report.Add("burst_pool_sheds", stats.sheds);
    std::cout << "burst: pool sheds=" << stats.sheds
              << " (burst_clients=" << burst_clients << ", queue cap="
              << queue_capacity << ", high watermark=" << shed_high << ")\n";
    server.Stop();
  }

  table.Print(std::cout);
  report.Write();
  return 0;
}
