// bench_layers: the repository benchmark. One workload per process.
//
// Each process builds its serving stack from library calls, the way
// tools/hopi_serve does — DBLP datagen, then the index, then a snapshot,
// an EnginePool, a ReachabilityService and an epoll HttpServer on
// loopback — and drives it over real sockets with the one-thread epoll
// generator in loadgen.h. Three connections carry /v1/batch reads; the
// fourth carries the workload's side traffic (/v1/path, or /v1/mutate for
// mutate_mix) at a fixed rate in every phase. Phases, in order:
//
//   setup     timed from the first library call until /healthz answers
//             200; repeated 3x and reported as the median
//   warm-up   1 s closed loop, not measured
//   timed     closed and open slices of 1 s, alternating over the run:
//     closed  each read connection sends its next request when the
//             previous response lands -> probes_per_s
//     open    reads fall due at the workload's frozen rate, each timed
//             from its due time -> batch_p50_ms / batch_p90_ms, and the
//             side requests likewise (reported in the details only)
//   verify    every 64th read response and every side response of the
//             timed phases is checked against a BFS oracle over the
//             collection (for mutate_mix: the collection with the
//             acknowledged ops replayed up to the response's
//             delta_generation)
//
// The host this runs on is a VM whose idle virtual CPUs halt; waking one
// waits for the hypervisor, which slows a request's thread hand-offs by
// an amount that depends on how busy the shared host is. One SCHED_IDLE
// spinner per CPU keeps them from halting (see IdleSpinners).
//
// The host's speed also drifts by up to 2x within minutes. Before every
// setup and every timed slice, the host probe (host_probe.h) samples it;
// the end-to-end timings are scaled by the run's median speed index to
// what the reference host would have measured, and the unscaled values
// are kept in the result's details.
//
// --trace=1 replaces the open slices with the per-layer instruments: a
// single-in-flight waterfall through each layer boundary of the served
// stack, a single-call timing of the side request, counter deltas over
// a traced closed phase, a 10 Hz gauge sampler and the generator's
// per-request spans (written to trace_<workload>.json and
// layers_<workload>.json). Every instrument measures the workload's own
// stack; a counter of a layer the stack does not have reads 0.
//
// The last line of stdout is one JSON object holding every metric;
// layerbench/run.py selects and reports them.
#include <immintrin.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "collection/collection.h"
#include "datagen/dblp.h"
#include "engine/delta_overlay.h"
#include "engine/engine.h"
#include "engine/engine_pool.h"
#include "engine/snapshot.h"
#include "hopi/build.h"
#include "host_probe.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "net/service.h"
#include "net/wire.h"
#include "oracle.h"
#include "query/path_query.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "twohop/join_kernel.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

#ifndef HOPI_LAYERBENCH_GIT_SHA
#define HOPI_LAYERBENCH_GIT_SHA "unknown"
#endif
#ifndef HOPI_LAYERBENCH_GIT_DIRTY
#define HOPI_LAYERBENCH_GIT_DIRTY -1
#endif
#ifndef HOPI_LAYERBENCH_BUILD_TYPE
#define HOPI_LAYERBENCH_BUILD_TYPE "unknown"
#endif

namespace hopi::layerbench {
namespace {

// Numbers from an unoptimized or instrumented build measure the
// instrumentation, not the code: refuse to report them (--smoke only
// checks that everything runs and answers correctly).
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || defined(HOPI_LAYERBENCH_SANITIZED)
constexpr bool kMeasurableBuild = false;
#else
constexpr bool kMeasurableBuild = true;
#endif

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Serving { kMemory, kMapped, kMutate };

struct Workload {
  const char* name;
  Serving serving;
  size_t batch_pairs;
  bool zipf;              // Zipf(1.1) endpoints, else uniform
  bool want_distances;
  size_t cache_bytes;     // label cache per worker
  // Side requests per second on the side connection, in every phase:
  // /v1/mutate ops under mutate_mix, count_only /v1/path elsewhere.
  double side_rate;
  // Frozen open-loop read rate (requests/s): an eighth of the
  // closed-loop read request rate measured at the dev seed on the
  // reference host (see README.md), rounded down to two significant
  // digits. Frozen so that a faster commit is judged at the same offered
  // load; an eighth so that the server stays far from saturation even
  // while the host runs at half speed, and latency is service time, not
  // queueing.
  double open_rate;
  // Batch requests replayed through each waterfall boundary.
  size_t waterfall_requests;

  bool mutates() const { return serving == Serving::kMutate; }
};

constexpr size_t kKiB = 1024;
constexpr size_t kMiB = 1024 * kKiB;
constexpr size_t kReadConnections = 3;
constexpr size_t kSideConnections = 1;
constexpr size_t kWorkersPerPool = 2;
constexpr size_t kDocs = 1000;
constexpr size_t kSmokeDocs = 100;
constexpr uint64_t kCollectionSeed = 42;
constexpr size_t kVerifyEvery = 64;
// Open-loop percentiles are medians over windows of the open slices, so
// one transient stall (an absorb pause, a neighbour on the host) moves
// one window, not the result: the requests, in due order, are cut into
// up to kMaxOpenWindows runs of at least kMinWindowSamples each, so that
// a window's p90 has at least 20 samples beyond it.
constexpr size_t kMaxOpenWindows = 64;
constexpr size_t kMinWindowSamples = 200;
constexpr double kSliceSeconds = 1.0;  // alternating closed / open slices
// Each host speed sample runs each probe kernel this long on every CPU.
constexpr double kProbeSeconds = 0.03;
constexpr double kSmokeProbeSeconds = 0.005;
// Spans one run may record: several times what point_small records on
// the reference host.
constexpr size_t kSpanCapacity = size_t{1} << 22;
constexpr size_t kSideCalls = 256;  // single-call timing of the side request

const Workload kWorkloads[] = {
    {"point_small", Serving::kMemory, 8, true, false, 4 * kMiB, 100.0, 4700,
     4096},
    {"scan_cold", Serving::kMapped, 64, false, true, 512 * kKiB, 100.0, 240,
     512},
    {"mutate_mix", Serving::kMutate, 64, true, false, 4 * kMiB, 200.0, 1500,
     512},
};

// The path query of the side traffic. It crosses the intra-document
// idref links. One expression, so that the side percentiles are its own
// (with a rotation of expressions, they fell between expressions and
// flipped from run to run). Expressions that cross citation links
// take seconds per query at this collection size and would turn the side
// connection into a backlog.
constexpr const char* kPathExpression = "//footnote//author";

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Config {
  const Workload* w = nullptr;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  size_t docs = kDocs;
  size_t setups = 3;
  std::string tmp_dir = ".";
  std::string out_dir;         // trace files; empty = none
  std::string benchmark_json;  // smoke: metric names to check
};

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "bench_layers: " << what << "\n";
  std::exit(1);
}

template <typename T>
T ValueOrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

void OkOrDie(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted values (p in (0, 1]).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One spinning thread per CPU at SCHED_IDLE priority, for the life of
/// the object. A SCHED_IDLE thread runs only when nothing else wants its
/// CPU and gives way the moment a thread of the stack wakes there, so it
/// takes no time from the stack. What it changes: the CPU never goes
/// idle, so a woken thread starts at once instead of waiting for the
/// hypervisor to reschedule a halted virtual CPU. On the reference host
/// that wait was about a quarter of point_small's median batch latency
/// (README.md, Noise).
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned cpu = 0; cpu < cpus; ++cpu) {
      threads_.emplace_back([this, cpu] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// The serving stack
// ---------------------------------------------------------------------------

/// Seconds spent in each setup step of the workload's own stack.
struct SetupTimes {
  double datagen = 0.0;
  double build_index = 0.0;
  double publish = 0.0;  // labels -> serving engine (see BuildStack)
  double server = 0.0;   // service + HttpServer until /healthz
  double total = 0.0;
};

struct Stack {
  std::shared_ptr<collection::Collection> collection;
  std::optional<HopiIndex> index;
  std::string v4_path;
  std::shared_ptr<const storage::MappedLinLoutStore> v4;
  std::unique_ptr<engine::EnginePool> pool;
  std::unique_ptr<engine::RebuildDaemon> daemon;
  std::unique_ptr<net::ReachabilityService> service;
  std::unique_ptr<net::HttpServer> server;
  SetupTimes times;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    // hopi_serve's shutdown order: stop accepting, stop rebuilds, then
    // drain the engine.
    if (server) server->Stop();
    if (daemon) daemon->Stop();
    if (pool) pool->Shutdown();
    server.reset();
    service.reset();
    daemon.reset();
    pool.reset();
    if (!v4_path.empty()) std::remove(v4_path.c_str());
  }
};

engine::EnginePoolOptions PoolOptions(const Workload& w) {
  // tools/hopi_serve's defaults, with the worker count pinned so that
  // generator + IO thread + workers = 4 cores.
  engine::EnginePoolOptions options;
  options.num_threads = kWorkersPerPool;
  options.label_cache_bytes = w.cache_bytes;
  options.queue_capacity = 128;
  options.shed_high_watermark = 256;
  options.overlay_hop_budget = 8;
  if (w.mutates()) options.max_delta_ops = 4 * 1024;
  return options;
}

template <typename F>
double Timed(F&& f) {
  Stopwatch sw;
  f();
  return sw.ElapsedSeconds();
}

void WriteAndOpenV4(Stack* s, const Config& cfg) {
  s->v4_path = cfg.tmp_dir + "/" + cfg.w->name + "_" +
               std::to_string(::getpid()) + ".v4";
  storage::LinLoutStore store =
      storage::LinLoutStore::FromCover(s->index->cover(), true);
  storage::StoreWriteOptions options;
  options.format_version = storage::kFormatVersionV4;
  OkOrDie(store.WriteToFile(s->v4_path, options), "write v4");
  s->v4 = std::make_shared<const storage::MappedLinLoutStore>(ValueOrDie(
      storage::MappedLinLoutStore::Open(s->v4_path), "open v4"));
}

void WaitHealthy(uint16_t port) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    net::BlockingHttpClient client;
    if (client.Connect("127.0.0.1", port).ok()) {
      auto r = client.Request("GET", "/healthz");
      if (r.ok() && r->status == 200) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Die("/healthz never answered 200");
}

std::unique_ptr<Stack> BuildStack(const Config& cfg) {
  const Workload& w = *cfg.w;
  auto s = std::make_unique<Stack>();
  Stopwatch total;
  s->times.datagen = Timed([&] {
    s->collection = std::make_shared<collection::Collection>();
    datagen::DblpConfig config;
    config.num_docs = cfg.docs;
    config.seed = kCollectionSeed;
    ValueOrDie(datagen::GenerateDblpCollection(config, s->collection.get()),
               "datagen");
  });
  s->times.build_index = Timed([&] {
    IndexBuildOptions options;
    options.with_distance = true;  // as hopi_serve builds it
    s->index.emplace(
        ValueOrDie(BuildIndex(s->collection.get(), options), "BuildIndex"));
  });
  // The step that turns the labels into a serving engine ("publish"):
  // Freeze + EnginePool (point_small); v4 write, open and EnginePool over
  // the mapped store (scan_cold); Freeze + EnginePool + EnableMutations +
  // RebuildDaemon (mutate_mix).
  s->times.publish = Timed([&] {
    std::shared_ptr<const engine::BackendSnapshot> snapshot;
    if (w.serving == Serving::kMapped) {
      WriteAndOpenV4(s.get(), cfg);
      snapshot = engine::BackendSnapshot::OfMappedStore(s->collection, s->v4);
    } else {
      snapshot = engine::BackendSnapshot::Freeze(*s->index);
    }
    s->pool = std::make_unique<engine::EnginePool>(snapshot, PoolOptions(w));
    if (w.mutates()) {
      OkOrDie(s->pool->EnableMutations(*s->index), "EnableMutations");
      // hopi_serve's daemon defaults.
      engine::RebuildDaemon::Options daemon;
      daemon.poll_interval = std::chrono::milliseconds(250);
      daemon.max_delta_ops = 1024;
      daemon.degradation_threshold = 2.0;
      s->daemon =
          std::make_unique<engine::RebuildDaemon>(s->pool.get(), daemon);
    }
  });
  s->times.server = Timed([&] {
    s->service = std::make_unique<net::ReachabilityService>(s->pool.get());
    if (w.mutates()) s->service->EnableMutations();
    net::HttpServerOptions server_options;
    server_options.num_io_threads = 1;
    s->server = std::make_unique<net::HttpServer>(s->service->AsHandler(),
                                                  server_options);
    net::HttpServer* server = s->server.get();
    s->service->BindServerStats([server] { return server->Stats(); });
    OkOrDie(s->server->Start(), "server start");
    WaitHealthy(s->server->port());
  });
  s->times.total = total.ElapsedSeconds();
  return s;
}

// ---------------------------------------------------------------------------
// Request rings
// ---------------------------------------------------------------------------

struct Ring {
  std::vector<WireRequest> wire;
  std::vector<std::vector<engine::NodePair>> pairs;  // /v1/batch only
  std::vector<size_t> body_offsets;                  // body = bytes from here

  std::string_view Body(size_t i) const {
    return std::string_view(wire[i].bytes).substr(body_offsets[i]);
  }
  void Add(Endpoint endpoint, const char* target, const std::string& body,
           std::vector<engine::NodePair> batch = {}) {
    WireRequest request;
    request.endpoint = endpoint;
    request.bytes = std::string("POST ") + target +
                    " HTTP/1.1\r\nhost: hopi\r\n"
                    "content-type: application/json\r\ncontent-length: " +
                    std::to_string(body.size()) + "\r\n\r\n";
    body_offsets.push_back(request.bytes.size());
    request.bytes += body;
    wire.push_back(std::move(request));
    pairs.push_back(std::move(batch));
  }
};

std::string BatchBody(const std::vector<engine::NodePair>& pairs,
                      bool want_distances) {
  std::string body = "{\"pairs\":[";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) body += ',';
    body += '[' + std::to_string(pairs[i].first) + ',' +
            std::to_string(pairs[i].second) + ']';
  }
  body += ']';
  if (want_distances) body += ",\"want_distances\":true";
  body += '}';
  return body;
}

/// The read ring: 2^16 requests, fewer for big batches (at most 2^20
/// pairs), drawn from `seed`.
Ring BuildReadRing(const Config& cfg, const Stack& s) {
  const Workload& w = *cfg.w;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 1);
  const uint64_t n = s.collection->NumElements();
  const size_t size = std::min<size_t>(1u << 16, (1u << 20) / w.batch_pairs);
  // Zipf ranks map to elements through a fixed permutation: the hot set
  // is spread over the collection instead of being its first documents,
  // and it is the same for every seed (hot elements' label sizes differ
  // a lot, so a per-seed hot set would make runs incomparable).
  std::vector<NodeId> perm(n);
  for (NodeId i = 0; i < n; ++i) perm[i] = i;
  Rng(kCollectionSeed).Shuffle(&perm);
  auto draw = [&]() -> NodeId {
    return w.zipf ? perm[rng.NextZipf(n, 1.1)]
                  : static_cast<NodeId>(rng.NextBounded(n));
  };
  Ring ring;
  ring.wire.reserve(size);
  ring.pairs.reserve(size);
  ring.body_offsets.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    std::vector<engine::NodePair> batch;
    batch.reserve(w.batch_pairs);
    for (size_t k = 0; k < w.batch_pairs; ++k) {
      NodeId u = draw();
      batch.push_back({u, draw()});
    }
    std::string body = BatchBody(batch, w.want_distances);
    ring.Add(Endpoint::kBatch, "/v1/batch", body, std::move(batch));
  }
  return ring;
}

/// The side ring of the read-only workloads: the one count_only path
/// query, sent again and again.
Ring BuildPathRing() {
  Ring ring;
  ring.Add(Endpoint::kPath, "/v1/path",
           std::string("{\"expression\":\"") + kPathExpression +
               "\",\"count_only\":true}");
  return ring;
}

/// An insert-only op stream that is valid when applied in order to the
/// collection: 90% insert_link, 10% insert_document (a three-element
/// publication stub). A link runs from an element of a recent
/// publication (last quarter of the documents, which few others cite)
/// to a leaf element of an older one (first quarter): each op then adds
/// only a few label entries. Links between arbitrary elements join large
/// ancestor and descendant sets; they push the cover's degradation past
/// the rebuild daemon's 2.0 within a few hundred ops and turn the
/// workload into a background full rebuild. (No deletes: one Sec-6
/// delete_link costs seconds at this size; see README.md.)
std::vector<engine::Mutation> BuildOps(const collection::Collection& base,
                                       uint64_t seed, size_t count) {
  collection::Collection mirror = base;
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 7);
  const uint64_t docs = base.NumDocuments();
  const uint64_t quarter = std::max<uint64_t>(docs / 4, 1);
  std::vector<engine::Mutation> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    engine::Mutation op;
    if (rng.NextDouble() < 0.1) {
      op = engine::Mutation::InsertDocument(
          "bench_" + std::to_string(seed) + "_" + std::to_string(ops.size()),
          {{"inproceedings", std::nullopt}, {"title", 0u}, {"author", 0u}});
    } else {
      auto recent = static_cast<collection::DocId>(
          docs - 1 - rng.NextBounded(quarter));
      auto old = static_cast<collection::DocId>(rng.NextBounded(quarter));
      const std::vector<NodeId>& from = base.ElementsOf(recent);
      const std::vector<NodeId>& to = base.ElementsOf(old);
      NodeId u = from[rng.NextBounded(from.size())];
      NodeId v = to[rng.NextBounded(to.size())];
      if (base.ElementGraph().OutDegree(v) != 0 ||
          mirror.ElementGraph().HasEdge(u, v)) {
        continue;
      }
      op = engine::Mutation::InsertLink(u, v);
    }
    if (!engine::ApplyMutationToCollection(op, &mirror).ok()) continue;
    ops.push_back(std::move(op));
  }
  return ops;
}

Ring BuildMutateRing(const std::vector<engine::Mutation>& ops) {
  Ring ring;
  for (const engine::Mutation& op : ops) {
    std::string body;
    if (op.kind == engine::Mutation::Kind::kInsertLink) {
      body = "{\"op\":\"insert_link\",\"source\":" + std::to_string(op.source) +
             ",\"target\":" + std::to_string(op.target) + "}";
    } else {
      body = "{\"op\":\"insert_document\",\"name\":\"" + op.doc_name +
             "\",\"elements\":[";
      for (size_t i = 0; i < op.elements.size(); ++i) {
        if (i > 0) body += ',';
        body += "{\"tag\":\"" + op.elements[i].tag + "\",\"parent\":" +
                (op.elements[i].parent
                     ? std::to_string(*op.elements[i].parent)
                     : std::string("null")) +
                "}";
      }
      body += "]}";
    }
    ring.Add(Endpoint::kMutate, "/v1/mutate", body);
  }
  return ring;
}

// ---------------------------------------------------------------------------
// The waterfall: one request in flight, each boundary in turn
// ---------------------------------------------------------------------------

/// Label views of every probe endpoint, fetched before the kernel is
/// timed: decoded (and pinned) from the backend's blocks when it has
/// them, borrowed otherwise — the two routes of the workloads' backends.
class ViewPrefetch {
 public:
  explicit ViewPrefetch(const engine::BackendSnapshot& snapshot)
      : backend_(snapshot.MakeBackend()) {}

  twohop::JoinView Get(bool out, NodeId node) {
    auto& memo = out ? out_ : in_;
    if (auto it = memo.find(node); it != memo.end()) return it->second;
    twohop::JoinView view = Fetch(out, node);
    memo.emplace(node, view);
    return view;
  }

 private:
  twohop::JoinView Fetch(bool out, NodeId node) {
    if (std::optional<uint64_t> handle = out ? backend_->OutLabelBlock(node)
                                             : backend_->InLabelBlock(node)) {
      engine::LabelBlock& block = blocks_[*handle];
      if (!block) {
        block = ValueOrDie(backend_->DecodeLabelBlock(*handle), "decode block");
      }
      int64_t row = block->RowIndexFor(node);
      return row < 0 ? twohop::JoinView{}
                     : block->JoinRow(static_cast<size_t>(row));
    }
    std::optional<twohop::JoinView> borrowed =
        out ? backend_->BorrowOutJoin(node) : backend_->BorrowInJoin(node);
    if (!borrowed) Die("backend lends no labels and has no label blocks");
    return *borrowed;
  }

  std::unique_ptr<engine::ReachabilityBackend> backend_;
  std::unordered_map<NodeId, twohop::JoinView> out_, in_;
  std::unordered_map<uint64_t, engine::LabelBlock> blocks_;
};

/// Boundary times of the waterfall, in ns per probe. Each boundary runs
/// the same requests (a prefix of the read ring) and includes the one
/// before it.
struct Waterfall {
  size_t requests = 0;  // ring prefix replayed
  size_t probes = 0;    // pairs in the prefix
  double join_ns = 0, batch_ns = 0, pool_ns = 0, wire_ns = 0, http_ns = 0;
};

volatile uint64_t g_sink = 0;  // keeps timed results observable

/// Times several passes in rounds: each pass once untimed, then rounds
/// in which every pass runs once, so that a host slowing down for a
/// while slows every pass alike instead of the one that happened to be
/// running. Returns each pass's median time in seconds.
std::vector<double> InterleavedMedians(
    bool smoke, const std::vector<std::function<void()>>& passes) {
  double warm = 0.0;
  for (const auto& pass : passes) warm += Timed(pass);
  // About two seconds of rounds, but at least 5 and at most 15.
  const int rounds =
      smoke ? 1
            : std::clamp(static_cast<int>(2.0 / std::max(warm, 1e-6)), 5, 15);
  std::vector<std::vector<double>> times(passes.size());
  for (int r = 0; r < rounds; ++r) {
    for (size_t k = 0; k < passes.size(); ++k) {
      times[k].push_back(Timed(passes[k]));
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& t : times) medians.push_back(Median(std::move(t)));
  return medians;
}

Waterfall RunWaterfall(Stack* s, const Config& cfg, const Ring& ring) {
  const Workload& w = *cfg.w;
  Waterfall wf;
  wf.requests = std::min(ring.wire.size(), w.waterfall_requests);
  std::vector<engine::BatchRequest> requests;
  for (size_t i = 0; i < wf.requests; ++i) {
    engine::BatchRequest request;
    request.pairs = ring.pairs[i];
    request.want_distances = w.want_distances;
    wf.probes += request.pairs.size();
    requests.push_back(std::move(request));
  }
  const double probes = static_cast<double>(std::max<size_t>(wf.probes, 1));
  std::shared_ptr<const engine::BackendSnapshot> snapshot = s->pool->snapshot();

  // 1. Kernel over views fetched up front from the served snapshot
  //    (unique pairs per request, as QueryEngine::Batch dedups them).
  ViewPrefetch views(*snapshot);
  struct Probe {
    NodeId u, v;
    twohop::JoinView out, in;
  };
  std::vector<Probe> work;
  for (const engine::BatchRequest& r : requests) {
    std::vector<engine::NodePair> unique = r.pairs;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    for (auto [u, v] : unique) {
      work.push_back({u, v, views.Get(true, u), views.Get(false, v)});
    }
  }
  // 2. QueryEngine::Batch over the same snapshot.
  engine::QueryEngineOptions options;
  options.label_cache_bytes = w.cache_bytes;
  options.shared_tags = snapshot->tags();
  engine::QueryEngine query_engine(snapshot->collection(),
                                   snapshot->MakeBackend(), options);
  // 4. JsonWire parse + EnginePool + serialize.
  net::JsonWire wire;
  const size_t elements = s->pool->ServingElementCount();
  std::vector<std::string> bodies;
  for (size_t i = 0; i < wf.requests; ++i) {
    bodies.emplace_back(ring.Body(i));
  }
  // 5. Loopback HTTP to the served stack.
  net::BlockingHttpClient client;
  OkOrDie(client.Connect("127.0.0.1", s->server->port()), "connect");

  const std::vector<double> t = InterleavedMedians(
      cfg.smoke,
      {
          [&] {
            uint64_t hits = 0;
            for (const Probe& p : work) {
              hits += twohop::JoinViews(p.u, p.v, p.out, p.in,
                                        w.want_distances)
                          .connected;
            }
            g_sink = g_sink + hits;
          },
          [&] {
            for (const engine::BatchRequest& r : requests) {
              g_sink = g_sink + query_engine.Batch(r).reachable.size();
            }
          },
          // 3. EnginePool::Batch, the serving engine.
          [&] {
            for (const engine::BatchRequest& r : requests) {
              g_sink = g_sink + ValueOrDie(s->pool->Batch(r), "pool")
                                    .batch.reachable.size();
            }
          },
          [&] {
            for (const std::string& body : bodies) {
              engine::BatchRequest request =
                  ValueOrDie(wire.ParseBatchRequest(body, elements), "parse");
              g_sink = g_sink + net::JsonWire::SerializeBatchResponse(
                                    ValueOrDie(s->pool->Batch(std::move(request)),
                                               "pool"))
                                    .size();
            }
          },
          [&] {
            for (const std::string& body : bodies) {
              auto response =
                  ValueOrDie(client.Request("POST", "/v1/batch", body), "http");
              if (response.status != 200) {
                Die("waterfall HTTP status " + std::to_string(response.status));
              }
              g_sink = g_sink + response.body.size();
            }
          },
      });
  wf.join_ns = t[0] * 1e9 / probes;
  wf.batch_ns = t[1] * 1e9 / probes;
  wf.pool_ns = t[2] * 1e9 / probes;
  wf.wire_ns = t[3] * 1e9 / probes;
  wf.http_ns = t[4] * 1e9 / probes;
  return wf;
}

/// Mean microseconds of one side request through the serving engine,
/// one in flight: the count_only path query (EnginePool::Query), or
/// under mutate_mix EnginePool::ApplyMutation of the op stream's first
/// ops, on a one-worker pool over a frozen copy of the index (the served
/// pool's delta belongs to the load phases).
double SideCallMicros(Stack* s, const Config& cfg,
                      const std::vector<engine::Mutation>& ops) {
  const size_t calls = cfg.smoke ? 4 : kSideCalls;
  double seconds = 0.0;
  if (cfg.w->mutates()) {
    engine::EnginePoolOptions options;
    options.num_threads = 1;
    engine::EnginePool pool(engine::BackendSnapshot::Freeze(*s->index),
                            options);
    OkOrDie(pool.EnableMutations(*s->index), "side EnableMutations");
    for (size_t k = 0; k < calls; ++k) {
      seconds += Timed([&] {
        ValueOrDie(pool.ApplyMutation(ops[k]), "side ApplyMutation");
      });
    }
  } else {
    engine::PathQueryRequest request;
    request.expression = kPathExpression;
    request.count_only = true;
    for (size_t k = 0; k < calls; ++k) {
      seconds += Timed([&] {
        engine::PoolPathResponse r =
            ValueOrDie(s->pool->Query(request), "side path query");
        g_sink = g_sink + ValueOrDie(std::move(r.result), "side path").count;
      });
    }
  }
  return seconds * 1e6 / static_cast<double>(calls);
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

struct Counters {
  engine::PoolStats pool;
  uint64_t evictions = 0;
  net::ServerStats server;
  engine::RebuildDaemon::Stats daemon;
};

Counters ReadCounters(Stack* s) {
  Counters c;
  c.pool = s->pool->Stats();
  for (const engine::LabelCache::Stats& cache : s->pool->WorkerCacheStats()) {
    c.evictions += cache.evictions;
  }
  c.server = s->server->Stats();
  if (s->daemon) c.daemon = s->daemon->stats();
  return c;
}

struct Gauge {
  int64_t t_ns;  // NowNs() at the sample
  uint64_t queued, executing, delta_ops, rebuild_pause_us, open_connections;
};

/// Samples pool and server gauges at 10 Hz on its own thread.
class GaugeSampler {
 public:
  explicit GaugeSampler(Stack* s) : stack_(s), thread_([this] { Loop(); }) {}
  ~GaugeSampler() { Stop(); }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<Gauge>& gauges() const { return gauges_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      engine::PoolStats p = stack_->pool->Stats();
      gauges_.push_back({NowNs(), p.queued, p.executing, p.delta_ops,
                         p.last_rebuild_pause_us,
                         stack_->server->Stats().open_connections});
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  Stack* stack_;
  std::atomic<bool> stop_{false};
  std::vector<Gauge> gauges_;
  std::thread thread_;  // last: starts after the members it uses
};

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  Die("no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

struct Verdict {
  uint64_t responses = 0;  // response bodies checked
  uint64_t pairs = 0;      // pairs checked against BFS
  uint64_t mismatches = 0;
  std::string first_error;

  bool ok() const { return mismatches == 0; }
  void Fail(const std::string& what) {
    ++mismatches;
    if (first_error.empty()) first_error = what;
  }
};

/// A JSON value that must be a non-negative integer (a count, a
/// generation, a distance). False for anything else, so a malformed
/// answer is a mismatch rather than an out-of-range cast.
bool AsCount(const net::JsonValue* v, uint64_t* out) {
  if (v == nullptr || !v->is_number()) return false;
  double d = v->AsNumber();
  if (!(d >= 0.0 && d <= 9007199254740992.0) || d != std::floor(d)) {
    return false;
  }
  *out = static_cast<uint64_t>(d);
  return true;
}

struct BatchCheck {
  uint64_t generation;
  NodeId u, v;
  bool reachable;
  std::optional<uint64_t> distance;
};

Verdict Verify(const Config& cfg, const Stack& s, const Ring& reads,
               const std::vector<engine::Mutation>& ops, const PhaseLog& log,
               uint8_t first_timed_phase) {
  const Workload& w = *cfg.w;
  Verdict verdict;
  std::vector<BatchCheck> checks;
  std::vector<std::pair<uint64_t, size_t>> acked;  // (generation, op index)
  std::optional<size_t> path_count;
  for (const KeptBody& kept : log.bodies) {
    const Span& span = log.spans[kept.span];
    if (span.status != 200) continue;  // counted as failed, not checked
    auto parsed = net::ParseJson(kept.body);
    if (!parsed.ok() || !parsed->is_object()) {
      verdict.Fail("unparsable response body: " + kept.body.substr(0, 200));
      continue;
    }
    const net::JsonValue& root = *parsed;
    auto endpoint = static_cast<Endpoint>(span.endpoint);
    if (endpoint == Endpoint::kMutate) {
      uint64_t generation = 0;
      if (!AsCount(root.Find("generation"), &generation)) {
        verdict.Fail("mutation receipt without generation");
        continue;
      }
      acked.push_back({generation, span.ring_index});
      continue;
    }
    if (span.phase < first_timed_phase) continue;
    ++verdict.responses;
    if (endpoint == Endpoint::kPath) {
      if (!path_count) {
        auto expr = ValueOrDie(query::PathExpression::Parse(kPathExpression),
                               "path oracle parse");
        std::vector<std::string> steps;
        for (const query::PathStep& step : expr.steps) {
          steps.push_back(step.tag);
        }
        path_count = CountPathMatches(*s.collection, steps);
      }
      uint64_t count = 0;
      if (!AsCount(root.Find("count"), &count) || count != *path_count) {
        verdict.Fail(std::string("path count mismatch for ") +
                     kPathExpression);
      }
      continue;
    }
    const std::vector<engine::NodePair>& pairs = reads.pairs[span.ring_index];
    const net::JsonValue* reachable = root.Find("reachable");
    const net::JsonValue* distances = root.Find("distances");
    if (reachable == nullptr || !reachable->is_array() ||
        reachable->AsArray().size() != pairs.size() ||
        (w.want_distances &&
         (distances == nullptr || !distances->is_array() ||
          distances->AsArray().size() != pairs.size()))) {
      verdict.Fail("batch response shape mismatch");
      continue;
    }
    const net::JsonValue* g = root.Find("delta_generation");
    uint64_t generation = 0;
    if (g != nullptr && !AsCount(g, &generation)) {
      verdict.Fail("batch response field of the wrong type");
      continue;
    }
    for (size_t k = 0; k < pairs.size(); ++k) {
      BatchCheck check{generation, pairs[k].first, pairs[k].second,
                       reachable->AsArray()[k].is_bool() &&
                           reachable->AsArray()[k].AsBool(),
                       std::nullopt};
      uint64_t d = 0;
      if (w.want_distances && AsCount(&distances->AsArray()[k], &d)) {
        check.distance = d;
      }
      checks.push_back(check);
    }
  }
  verdict.pairs = checks.size();

  if (!w.mutates()) {
    // Static graph: one BFS per distinct source.
    std::sort(checks.begin(), checks.end(),
              [](const BatchCheck& a, const BatchCheck& b) {
                return a.u < b.u;
              });
    BfsOracle oracle(&s.collection->ElementGraph());
    for (const BatchCheck& c : checks) {
      uint32_t d = oracle.Distance(c.u, c.v);
      bool expected = d != kNoPath;
      bool ok = c.reachable == expected;
      if (w.want_distances) {
        ok = ok && (expected ? c.distance == d : !c.distance.has_value());
      }
      if (!ok) {
        verdict.Fail("pair (" + std::to_string(c.u) + "," +
                     std::to_string(c.v) + ") answered " +
                     (c.reachable ? "reachable" : "unreachable") +
                     ", BFS distance " +
                     (expected ? std::to_string(d) : std::string("none")));
      }
    }
    return verdict;
  }

  // mutate_mix: replay acknowledged ops in generation order and check
  // each response against the graph at its delta_generation.
  std::sort(acked.begin(), acked.end());
  for (size_t i = 1; i < acked.size(); ++i) {
    if (acked[i].first == acked[i - 1].first ||
        acked[i].second <= acked[i - 1].second) {
      verdict.Fail("mutation receipts out of order");
    }
  }
  std::sort(checks.begin(), checks.end(),
            [](const BatchCheck& a, const BatchCheck& b) {
              return a.generation < b.generation;
            });
  collection::Collection mirror = *s.collection;
  BfsOracle oracle(&mirror.ElementGraph());
  size_t next_op = 0;
  for (const BatchCheck& c : checks) {
    while (next_op < acked.size() && acked[next_op].first <= c.generation) {
      OkOrDie(engine::ApplyMutationToCollection(ops[acked[next_op].second],
                                                &mirror),
              "oracle replay");
      oracle.Invalidate();
      ++next_op;
    }
    if (c.generation > 0 &&
        (next_op == 0 || acked[next_op - 1].first != c.generation)) {
      verdict.Fail("response generation " + std::to_string(c.generation) +
                   " matches no acknowledged mutation");
      continue;
    }
    bool expected = oracle.Reachable(c.u, c.v);
    if (c.reachable != expected) {
      verdict.Fail("pair (" + std::to_string(c.u) + "," + std::to_string(c.v) +
                   ") at generation " + std::to_string(c.generation) +
                   " answered " + (c.reachable ? "reachable" : "unreachable"));
    }
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, end);
}

std::string Quote(const std::string& s) {
  std::string out;
  net::AppendJsonString(&out, s);
  return out;
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ',';
      out += Quote(entries_[i].name) + ":{\"value\":" + Num(entries_[i].value) +
             ",\"unit\":" + Quote(entries_[i].unit) + "}";
    }
    return out + "}";
  }
  bool Has(const std::string& name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return true;
    }
    return false;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        size_t start = model.find_first_not_of(' ');
        return start == std::string::npos ? model : model.substr(start);
      }
    }
  }
  return "unknown";
}

std::string HostJson(const Workload& w) {
  std::string out = "{\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":" + Quote(CpuModel());
  out += ",\"build_type\":" + Quote(HOPI_LAYERBENCH_BUILD_TYPE);
  out += std::string(",\"optimized\":") + (kMeasurableBuild ? "true" : "false");
  out += ",\"compiler\":" + Quote(__VERSION__);
  out += ",\"git_sha\":" + Quote(HOPI_LAYERBENCH_GIT_SHA);
  out += ",\"git_dirty\":" + std::to_string(HOPI_LAYERBENCH_GIT_DIRTY);
  out += ",\"label_cache_bytes\":" + std::to_string(w.cache_bytes);
  return out + "}";
}

/// Metric names a BENCHMARK.json lists (end_to_end and per_layer).
std::vector<std::string> BenchmarkMetricNames(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  net::JsonValue root = ValueOrDie(net::ParseJson(text.str()), path);
  std::vector<std::string> names;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const net::JsonValue* list = root.Find(section);
    if (list == nullptr || !list->is_array()) Die(path + " lacks " + section);
    for (const net::JsonValue& m : list->AsArray()) {
      names.push_back(m.Find("name")->AsString());
    }
  }
  return names;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

enum Phase : uint8_t { kWarmup = 0, kClosed = 1, kClosedTraced = 2, kOpen = 3 };

int Run(const Config& cfg) {
  const Workload& w = *cfg.w;
  std::cerr << "bench_layers: workload " << w.name << ", seed " << cfg.seed
            << (cfg.trace ? ", traced" : "") << (cfg.smoke ? ", smoke" : "")
            << "\n";
  std::optional<IdleSpinners> spinners(std::in_place);

  // The host's speed, sampled before every setup and every timed slice;
  // the run's speed index is the median sample (see HostSpeed below).
  HostProbe probe;
  std::vector<HostProbe::Sample> probes;
  auto sample_speed = [&] {
    probes.push_back(probe.Measure(cfg.smoke ? kSmokeProbeSeconds
                                             : kProbeSeconds));
  };

  // ---- setup (repeated; the last stack is the one measured) ----
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (size_t i = 0; i < cfg.setups; ++i) {
    stack.reset();
    sample_speed();
    stack = BuildStack(cfg);
    setup_s.push_back(stack->times.total);
    std::cerr << "  setup " << i + 1 << "/" << cfg.setups << ": "
              << stack->times.total << " s\n";
  }
  Stack& s = *stack;
  // Hand the memory the earlier setups freed back to the system, so that
  // peak_rss_mb measures the served stack rather than what the allocator
  // kept from stacks torn down.
  malloc_trim(0);
  const bool traced = cfg.trace || cfg.smoke;
  const bool open_phase = !cfg.trace || cfg.smoke;

  // ---- inputs, all from --seed ----
  Ring reads = BuildReadRing(cfg, s);
  const double warm_s = cfg.smoke ? 0.3 : 1.0;
  // Smoke: 1 s of traced closed slices, then one 1 s closed and one 1 s
  // open slice.
  const double timed_s = cfg.smoke ? 3.0 : cfg.seconds;
  std::vector<engine::Mutation> ops;
  Ring side;
  if (w.mutates()) {
    // Enough ops for every phase at the side rate, with slack for drains.
    const auto count =
        static_cast<size_t>(w.side_rate * (warm_s + timed_s + 4.0));
    ops = BuildOps(*s.collection, cfg.seed, std::max(kSideCalls, count));
    side = BuildMutateRing(ops);
  } else {
    side = BuildPathRing();
  }

  // ---- traced instruments that need a quiet system ----
  Metrics metrics;
  Waterfall wf;
  double side_call_us = 0.0;
  if (traced) {
    wf = RunWaterfall(&s, cfg, reads);
    side_call_us = SideCallMicros(&s, cfg, ops);
  }

  // ---- load ----
  LoadGenerator gen(s.server->port());
  gen.AddLane(&reads.wire, kReadConnections, false);
  gen.AddLane(&side.wire, kSideConnections, true);
  OkOrDie(gen.Connect(), "load generator connect");
  // The span log is one fixed buffer, touched up front, so that its
  // pages count the same in VmHWM whatever the request count, and are
  // subtracted from peak_rss_mb; it must not reallocate mid-phase.
  PhaseLog log;
  log.spans.resize(kSpanCapacity);
  log.spans.clear();
  const double open_rate = cfg.smoke ? w.open_rate / 10.0 : w.open_rate;
  std::vector<LaneMode> closed_modes = {{0.0}, {w.side_rate}};
  std::vector<LaneMode> open_modes = {{open_rate}, {w.side_rate}};

  gen.Run(closed_modes, warm_s, kWarmup, 0, &log);
  Counters c_start = ReadCounters(&s);
  std::vector<PhaseStats> closed, closed_traced, open;
  std::vector<Gauge> gauges;
  Counters c_closed;
  if (traced) {
    // Untraced and traced closed slices alternate, so the tracing
    // overhead is not confounded with drift across the phase.
    const double slice_s = (cfg.smoke ? 1.0 : cfg.seconds) / 4;
    for (int k = 0; k < 4; ++k) {
      sample_speed();
      if (k % 2 == 0) {
        closed.push_back(
            gen.Run(closed_modes, slice_s, kClosed, kVerifyEvery, &log));
        continue;
      }
      GaugeSampler sampler(&s);
      closed_traced.push_back(
          gen.Run(closed_modes, slice_s, kClosedTraced, kVerifyEvery, &log));
      sampler.Stop();
      gauges.insert(gauges.end(), sampler.gauges().begin(),
                    sampler.gauges().end());
    }
    c_closed = ReadCounters(&s);
  }
  if (open_phase) {
    // Closed and open slices alternate over the whole run, so that both
    // kinds of metric sample all of it: a slow spell of the host moves
    // both alike instead of whichever phase it fell in.
    const int rounds =
        cfg.smoke ? 1
                  : std::max(1, static_cast<int>(std::lround(
                                    cfg.seconds / (2 * kSliceSeconds))));
    const double slice_s = cfg.smoke ? 1.0 : cfg.seconds / (2 * rounds);
    for (int r = 0; r < rounds; ++r) {
      sample_speed();
      closed.push_back(
          gen.Run(closed_modes, slice_s, kClosed, kVerifyEvery, &log));
      sample_speed();
      open.push_back(gen.Run(open_modes, slice_s, kOpen, kVerifyEvery, &log));
    }
  }
  Counters c_end = ReadCounters(&s);
  spinners.reset();
  if (log.spans.capacity() != kSpanCapacity) Die("span log outgrew its buffer");
  // Before the oracle allocates; without the span log.
  const double peak_rss =
      PeakRssMiB() - static_cast<double>(kSpanCapacity * sizeof(Span)) / kMiB;

  // ---- verify ----
  Stopwatch verify_clock;
  Verdict verdict = Verify(cfg, s, reads, ops, log, kClosed);
  std::cerr << "  verify: " << verdict.responses << " responses, "
            << verdict.pairs << " pairs, " << verdict.mismatches
            << " mismatches (" << verify_clock.ElapsedSeconds() << " s)\n";
  if (!verdict.first_error.empty()) {
    std::cerr << "  first mismatch: " << verdict.first_error << "\n";
  }

  // ---- metrics ----
  auto wall_s = [](const std::vector<PhaseStats>& phases) {
    double wall = 0.0;
    for (const PhaseStats& p : phases) wall += p.wall_s;
    return wall;
  };
  auto for_spans = [&](const std::vector<PhaseStats>& phases, auto&& fn) {
    for (const PhaseStats& p : phases) {
      for (size_t i = p.first_span; i < p.end_span; ++i) fn(log.spans[i]);
    }
  };
  // Closed-loop capacity: pairs in 200 answers to /v1/batch per second
  // of the closed slices, over all of them. (The 90th percentile of
  // quarter-second bins repeated worse: under mutate_mix it picks the
  // bins just after an absorb, whose share depends on how absorbs fall
  // against the slices.)
  auto probes_per_s = [&](const std::vector<PhaseStats>& phases) {
    uint64_t probes = 0;
    for_spans(phases, [&](const Span& sp) {
      if (sp.lane == 0 && sp.status == 200) {
        probes += reads.pairs[sp.ring_index].size();
      }
    });
    return Ratio(static_cast<double>(probes), wall_s(phases));
  };
  auto request_rate = [&](const std::vector<PhaseStats>& phases) {
    uint64_t n = 0;
    for_spans(phases, [&](const Span& sp) { n += sp.lane == 0 ? 1 : 0; });
    return Ratio(static_cast<double>(n), wall_s(phases));
  };
  auto busy_frac = [&](const std::vector<PhaseStats>& phases) {
    double cpu = 0.0;
    for (const PhaseStats& p : phases) cpu += p.cpu_s;
    return Ratio(cpu, wall_s(phases));
  };
  // Lateness of the generator: how long after its due time each request
  // actually went out (closed loop: after the previous response landed).
  auto late_p99_ms = [&](const std::vector<PhaseStats>& phases) {
    std::vector<double> late;
    for_spans(phases, [&](const Span& sp) {
      if (sp.sent_ns != 0) {
        late.push_back(static_cast<double>(sp.sent_ns - sp.due_ns) / 1e6);
      }
    });
    std::sort(late.begin(), late.end());
    return Percentile(late, 0.99);
  };

  // Open-loop latencies of one endpoint in ms from due time, failures as
  // +inf, in due order.
  auto latencies = [&](Endpoint endpoint) {
    std::vector<std::pair<int64_t, double>> samples;  // (due, ms)
    for_spans(open, [&](const Span& sp) {
      if (sp.endpoint != static_cast<uint8_t>(endpoint)) return;
      bool ok = sp.done_ns != 0 && sp.status >= 200 && sp.status < 300;
      samples.push_back(
          {sp.due_ns, ok ? static_cast<double>(sp.done_ns - sp.due_ns) / 1e6
                         : INFINITY});
    });
    std::sort(samples.begin(), samples.end());
    std::vector<double> ms;
    for (const auto& sample : samples) ms.push_back(sample.second);
    return ms;
  };
  // Percentiles over windows: the samples in due order, cut into runs of
  // at least kMinWindowSamples; the median over windows.
  struct WindowedLatency {
    double p50 = 0.0, p90 = 0.0;
    size_t windows = 0;
  };
  auto windowed = [](const std::vector<double>& ms) {
    WindowedLatency out;
    const size_t n = ms.size();
    out.windows = std::clamp<size_t>(n / kMinWindowSamples, 1, kMaxOpenWindows);
    std::vector<double> p50s, p90s;
    for (size_t k = 0; k < out.windows; ++k) {
      std::vector<double> window(ms.begin() + n * k / out.windows,
                                 ms.begin() + n * (k + 1) / out.windows);
      std::sort(window.begin(), window.end());
      p50s.push_back(Percentile(window, 0.50));
      p90s.push_back(Percentile(window, 0.90));
    }
    out.p50 = Median(p50s);
    out.p90 = Median(p90s);
    return out;
  };
  auto sorted = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
  };

  uint64_t attempted = 0, failed = 0;
  for (size_t i = closed.front().first_span; i < log.spans.size(); ++i) {
    const Span& sp = log.spans[i];
    ++attempted;
    if (sp.done_ns == 0 || sp.status < 200 || sp.status >= 300) ++failed;
  }

  const Endpoint side_endpoint =
      w.mutates() ? Endpoint::kMutate : Endpoint::kPath;
  const std::vector<double> batch_ms = latencies(Endpoint::kBatch);
  const std::vector<double> side_ms = latencies(side_endpoint);
  const WindowedLatency batch = windowed(batch_ms);
  const WindowedLatency side_latency = windowed(side_ms);
  // Timings are scaled to the reference host's speed: a time is
  // multiplied by the run's speed index and a rate divided by it, so a
  // run on a host 20% slower than the reference (index 0.8) reports what
  // the reference host would have measured. The unscaled values are in
  // the result's details.
  std::vector<double> speeds;
  for (const HostProbe::Sample& p : probes) speeds.push_back(HostProbe::Index(p));
  const double speed = Median(speeds);
  if (open_phase) {
    metrics.Add("setup_s", Median(setup_s) * speed, "s");
    metrics.Add("probes_per_s", probes_per_s(closed) / speed, "probes/s");
    metrics.Add("batch_p50_ms", batch.p50 * speed, "ms");
    metrics.Add("batch_p90_ms", batch.p90 * speed, "ms");
    metrics.Add("ok_frac",
                Ratio(static_cast<double>(attempted - failed),
                      static_cast<double>(attempted)),
                "ratio");
    metrics.Add("peak_rss_mb", peak_rss, "MiB");
  }

  if (traced) {
    // Per-layer timings are not scaled; the index is reported beside
    // them.
    metrics.Add("host.speed_index", speed, "ratio");
    const SetupTimes& t = s.times;
    metrics.Add("datagen.generate_s", t.datagen, "s");
    metrics.Add("hopi.build_index_s", t.build_index, "s");
    metrics.Add("engine.publish_s", t.publish, "s");
    metrics.Add("net.server_start_s", t.server, "s");

    metrics.Add("twohop.join_ns_per_probe", wf.join_ns, "ns");
    metrics.Add("engine.batch_self_ns_per_probe", wf.batch_ns - wf.join_ns,
                "ns");
    metrics.Add("engine.pool_self_ns_per_probe", wf.pool_ns - wf.batch_ns,
                "ns");
    metrics.Add("net.wire_self_ns_per_probe", wf.wire_ns - wf.pool_ns, "ns");
    metrics.Add("net.http_self_ns_per_probe", wf.http_ns - wf.wire_ns, "ns");
    metrics.Add("engine.side_call_us", side_call_us, "us");

    // Counter deltas over the closed phase.
    auto diff = [](uint64_t after, uint64_t before) {
      return static_cast<double>(after - before);
    };
    const engine::PoolStats& a = c_start.pool;
    const engine::PoolStats& b = c_closed.pool;
    const double probes = diff(b.probes, a.probes);
    const double hits = diff(b.cache_hits, a.cache_hits);
    const double misses = diff(b.cache_misses, a.cache_misses);
    const double borrowed = diff(b.labels_borrowed, a.labels_borrowed);
    metrics.Add("engine.unique_probe_frac",
                Ratio(diff(b.unique_probes, a.unique_probes), probes), "ratio");
    metrics.Add("engine.borrow_frac", Ratio(borrowed, hits + misses + borrowed),
                "ratio");
    metrics.Add("engine.cache_hit_frac", Ratio(hits, hits + misses), "ratio");
    metrics.Add("engine.cache_evictions_per_kprobe",
                Ratio(1e3 * diff(c_closed.evictions, c_start.evictions),
                      probes),
                "1/kprobe");
    metrics.Add("storage.blocks_decoded_per_kprobe",
                Ratio(1e3 * diff(b.blocks_decoded, a.blocks_decoded), probes),
                "1/kprobe");
    metrics.Add("storage.v4_bytes_per_entry",
                s.v4 ? Ratio(static_cast<double>(s.v4->file_bytes()),
                             static_cast<double>(s.v4->NumEntries()))
                     : 0.0,
                "B");
    const double overlay_probes = diff(b.overlay_probes, a.overlay_probes);
    metrics.Add("overlay.bfs_fallback_frac",
                Ratio(diff(b.overlay_bfs_fallbacks, a.overlay_bfs_fallbacks),
                      overlay_probes),
                "ratio");
    metrics.Add("overlay.budget_exhaustion_frac",
                Ratio(diff(b.overlay_budget_exhaustions,
                           a.overlay_budget_exhaustions),
                      overlay_probes),
                "ratio");
    double delta_sum = 0.0;
    for (const Gauge& g : gauges) delta_sum += static_cast<double>(g.delta_ops);
    metrics.Add("overlay.delta_ops_mean",
                Ratio(delta_sum, static_cast<double>(gauges.size())), "count");
    metrics.Add("hopi.rebuilds",
                diff(c_closed.daemon.rebuilds, c_start.daemon.rebuilds),
                "count");
    metrics.Add("hopi.full_rebuilds",
                diff(c_closed.daemon.full_rebuilds,
                     c_start.daemon.full_rebuilds),
                "count");
    metrics.Add("hopi.degradation_end", c_closed.pool.degradation, "ratio");
    metrics.Add("engine.pool_sheds", diff(c_end.pool.sheds, c_start.pool.sheds),
                "count");
    metrics.Add("net.parse_errors",
                diff(c_end.server.parse_errors, c_start.server.parse_errors),
                "count");
    metrics.Add("loadgen.busy_frac", busy_frac(closed_traced), "ratio");
    metrics.Add("loadgen.late_p99_ms", late_p99_ms(closed_traced), "ms");
    metrics.Add("trace.overhead_frac",
                1.0 - Ratio(probes_per_s(closed_traced), probes_per_s(closed)),
                "ratio");
  }

  // ---- details (result files only) ----
  std::string details = "{";
  auto detail = [&](const std::string& key, double value) {
    if (details.size() > 1) details += ',';
    details += Quote(key) + ":" + Num(value);
  };
  // The run's host speed: the index, its spread over the samples, and
  // the kernel rates it came from (per CPU).
  std::vector<double> text_rates, pingpong_rates;
  for (const HostProbe::Sample& p : probes) {
    text_rates.push_back(p.text);
    pingpong_rates.push_back(p.pingpong);
  }
  detail("speed_index", speed);
  detail("speed_index_min", *std::min_element(speeds.begin(), speeds.end()));
  detail("speed_index_max", *std::max_element(speeds.begin(), speeds.end()));
  detail("speed_samples", static_cast<double>(speeds.size()));
  detail("probe_text_per_s", Median(text_rates));
  detail("probe_pingpong_per_s", Median(pingpong_rates));
  // Unscaled ("raw") values, as the clock read them on this host.
  detail("closed_requests_per_s_raw", request_rate(closed));
  detail("closed_busy_frac", busy_frac(closed));
  for (size_t i = 0; i < setup_s.size(); ++i) {
    detail("setup_s_raw_" + std::to_string(i + 1), setup_s[i]);
  }
  if (open_phase) {
    const std::vector<double> batch_sorted = sorted(batch_ms);
    const std::vector<double> side_sorted = sorted(side_ms);
    detail("setup_s_raw", Median(setup_s));
    detail("probes_per_s_raw", probes_per_s(closed));
    detail("batch_p50_ms_raw", batch.p50);
    detail("batch_p90_ms_raw", batch.p90);
    detail("side_p90_ms_raw", side_latency.p90);
    detail("open_rate", open_rate);
    detail("open_requests_per_s", request_rate(open));
    detail("open_busy_frac", busy_frac(open));
    detail("open_late_p99_ms_raw", late_p99_ms(open));
    detail("batch_samples", static_cast<double>(batch_ms.size()));
    detail("batch_windows", static_cast<double>(batch.windows));
    detail("batch_p99_ms_raw", Percentile(batch_sorted, 0.99));
    detail("side_samples", static_cast<double>(side_ms.size()));
    detail("side_windows", static_cast<double>(side_latency.windows));
    // The side latencies, scaled like the end-to-end timings. They have no
    // bound: on the reference host their spread over seeds reached the
    // 25% cap (README.md, "Side latency").
    detail("side_p50_ms", side_latency.p50 * speed);
    detail("side_p90_ms", side_latency.p90 * speed);
    detail("side_p50_ms_raw", side_latency.p50);
    detail("side_p99_ms_raw", Percentile(side_sorted, 0.99));
  }
  detail("failed_frac", Ratio(static_cast<double>(failed),
                              static_cast<double>(attempted)));
  detail("verified_responses", static_cast<double>(verdict.responses));
  detail("verified_pairs", static_cast<double>(verdict.pairs));
  detail("mismatches", static_cast<double>(verdict.mismatches));
  if (traced) {
    detail("waterfall_requests", static_cast<double>(wf.requests));
    detail("waterfall_probes", static_cast<double>(wf.probes));
    detail("waterfall_join_ns", wf.join_ns);
    detail("waterfall_batch_ns", wf.batch_ns);
    detail("waterfall_pool_ns", wf.pool_ns);
    detail("waterfall_wire_ns", wf.wire_ns);
    detail("waterfall_http_ns", wf.http_ns);
    detail("closed_untraced_probes_per_s", probes_per_s(closed));
    detail("closed_traced_probes_per_s", probes_per_s(closed_traced));
  }
  details += "}";

  // ---- trace files ----
  if (traced && !cfg.out_dir.empty()) {
    std::string prefix = cfg.out_dir + "/";
    std::ofstream layers(prefix + "layers_" + w.name + ".json");
    layers << "{\"workload\":" << Quote(w.name) << ",\"seed\":" << cfg.seed
           << ",\"metrics\":" << metrics.Json() << ",\"details\":" << details
           << "}\n";
    // Times are microseconds since the start of the closed phase.
    std::ofstream trace(prefix + "trace_" + w.name + ".json");
    const int64_t t0 = log.spans[closed.front().first_span].due_ns;
    auto us = [t0](int64_t ns) { return ns == 0 ? -1 : (ns - t0) / 1000; };
    trace << "{\"workload\":" << Quote(w.name)
          << ",\"span_fields\":[\"due_us\",\"sent_us\",\"done_us\","
             "\"endpoint\",\"conn\",\"status\"],\"spans\":[";
    bool first = true;
    for_spans(closed_traced, [&](const Span& sp) {
      trace << (first ? "" : ",") << '[' << us(sp.due_ns) << ','
            << us(sp.sent_ns) << ',' << us(sp.done_ns) << ','
            << int{sp.endpoint} << ',' << int{sp.conn} << ',' << sp.status
            << ']';
      first = false;
    });
    trace << "],\"gauge_fields\":[\"t_us\",\"queued\",\"executing\","
             "\"delta_ops\",\"rebuild_pause_us\",\"open_connections\"],"
             "\"gauges\":[";
    for (size_t i = 0; i < gauges.size(); ++i) {
      const Gauge& g = gauges[i];
      trace << (i > 0 ? "," : "") << '[' << us(g.t_ns) << ',' << g.queued
            << ',' << g.executing << ',' << g.delta_ops << ','
            << g.rebuild_pause_us << ',' << g.open_connections << ']';
    }
    trace << "]}\n";
  }

  bool correct = verdict.ok();
  if (!cfg.benchmark_json.empty()) {
    // Smoke: every metric BENCHMARK.json lists must have been emitted.
    for (const std::string& name : BenchmarkMetricNames(cfg.benchmark_json)) {
      if (!metrics.Has(name)) {
        std::cerr << "bench_layers: metric " << name << " was not emitted\n";
        correct = false;
      }
    }
  }
  std::cout << "{\"workload\":" << Quote(w.name) << ",\"seed\":" << cfg.seed
            << ",\"seconds\":" << Num(cfg.seconds)
            << ",\"trace\":" << (cfg.trace ? 1 : 0)
            << ",\"smoke\":" << (cfg.smoke ? "true" : "false")
            << ",\"host\":" << HostJson(w)
            << ",\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << metrics.Json() << ",\"details\":" << details
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hopi::layerbench

int main(int argc, char** argv) {
  using namespace hopi::layerbench;
  hopi::CommandLine cli;
  hopi::Status parsed = hopi::CommandLine::Parse(
      argc, argv,
      {"workload", "seed", "seconds", "trace", "smoke", "tmp_dir",
       "out_dir", "benchmark_json"},
      &cli);
  if (!parsed.ok()) {
    std::cerr << parsed << "\n";
    return 2;
  }
  Config cfg;
  cfg.w = FindWorkload(cli.GetString("workload", ""));
  if (cfg.w == nullptr) {
    std::cerr << "bench_layers: --workload must be one of";
    for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
  }
  cfg.seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  cfg.seconds = cli.GetDouble("seconds", 10.0);
  cfg.trace = cli.GetInt("trace", 0) != 0;
  cfg.smoke = cli.GetBool("smoke", false);
  cfg.docs = cfg.smoke ? kSmokeDocs : kDocs;
  cfg.setups = cfg.smoke || cfg.trace ? 1 : 3;
  cfg.tmp_dir = cli.GetString("tmp_dir", ".");
  cfg.out_dir = cli.GetString("out_dir", "");
  cfg.benchmark_json = cli.GetString("benchmark_json", "");
  if (cfg.seconds <= 0.0) {
    std::cerr << "bench_layers: --seconds must be positive\n";
    return 2;
  }
  if (!kMeasurableBuild && !cfg.smoke) {
    std::cerr << "bench_layers: refusing to report numbers from an "
                 "unoptimized or sanitizer build (build RelWithDebInfo, or "
                 "pass --smoke to only check correctness)\n";
    return 3;
  }
  return Run(cfg);
}
