// ReachabilityService: the HTTP-facing application layer over an
// EnginePool.
//
// One class owns the route table and the request lifecycle:
//
//   POST /v1/batch  -> JsonWire::ParseBatchRequest -> pool SubmitBatch
//   POST /v1/path   -> JsonWire::ParsePathRequest  -> pool SubmitQuery
//   POST /v1/mutate -> JsonWire::ParseMutationRequest
//                      -> pool ApplyMutation (gated by EnableMutations;
//                      501 when the write path is off)
//   GET  /stats     -> pool + server counters, gauges, latency
//                      percentiles (answered inline)
//   GET  /healthz   -> liveness (answered inline)
//
// Engine requests use the pool's callback submission: the handler
// returns to the epoll loop immediately and the serving worker's
// on_done serializes the result and fires the Responder — no thread
// ever blocks on a query. Shedding falls out of the same path: a
// refused submission (ResourceExhausted from the admission gate or a
// full queue) is answered 429 right from the handler, which is exactly
// why an overloaded server keeps answering /stats and 429s instead of
// stalling accepts.
//
// Per-endpoint log-bucketed latency histograms (microseconds, handler
// entry to response send) feed the /stats percentiles the bench and
// the overload tests read back.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "engine/engine_pool.h"
#include "engine/sharded_engine.h"
#include "net/server.h"
#include "net/wire.h"
#include "util/stats.h"
#include "util/status.h"

namespace hopi::net {

class ReachabilityService {
 public:
  /// `pool` must outlive the service (and the server routing into it).
  explicit ReachabilityService(engine::EnginePool* pool,
                               WireLimits limits = {});

  /// Sharded mode (hopi_serve --shards=N): the same routes served by a
  /// ShardedEngine. /v1/batch answers carry the "resolved" mask and
  /// per-shard snapshot versions; a partial merge (deadline, failed
  /// shard) still answers 200 with "partial_error", matching the
  /// single-pool partial-result convention. /v1/mutate answers 501 —
  /// the sharded write path does not exist yet. `sharded` must outlive
  /// the service.
  explicit ReachabilityService(engine::ShardedEngine* sharded,
                               WireLimits limits = {});

  /// The HttpServer handler. Bind with
  ///   HttpServer server(service.AsHandler(), options);
  HttpServer::Handler AsHandler();

  /// Opens POST /v1/mutate. Call it after arming the pool's write path
  /// (EnginePool::EnableMutations); until then the route answers 501
  /// Unsupported. ApplyMutation runs synchronously on the IO thread —
  /// acceptable because one validated op is microseconds of Sec-6
  /// maintenance, and serializing writers is the pool's contract
  /// anyway.
  void EnableMutations() { mutations_enabled_ = true; }

  /// Lets /stats include transport counters; typically
  ///   service.BindServerStats([&] { return server.Stats(); });
  /// Unset, the "server" section is omitted.
  void BindServerStats(std::function<ServerStats()> source);

  /// The /stats response body (also handy for tests and the tool's
  /// periodic report).
  std::string StatsJson() const;

 private:
  struct Endpoint {
    LatencyHistogram latency;  // microseconds, entry to Send
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};  // non-2xx answers
    std::atomic<uint64_t> sheds{0};   // the 429 subset of errors
  };

  std::string ShardedStatsJson() const;
  void AppendServerAndEndpoints(std::string* out) const;

  void Handle(HttpRequest request, HttpServer::Responder responder);
  void HandleBatch(HttpRequest&& request, HttpServer::Responder&& responder);
  void HandlePath(HttpRequest&& request, HttpServer::Responder&& responder);
  void HandleMutate(HttpRequest&& request, HttpServer::Responder&& responder);

  /// Answers with the JsonWire error mapping and books the endpoint
  /// counters. `started_us` is the handler-entry timestamp.
  void SendError(Endpoint* endpoint, const HttpServer::Responder& responder,
                 const Status& status, uint64_t started_us);
  /// Same, with the HTTP status forced (405 has no Status analogue).
  void SendError(Endpoint* endpoint, const HttpServer::Responder& responder,
                 int http_status, const Status& status, uint64_t started_us);
  void SendOk(Endpoint* endpoint, const HttpServer::Responder& responder,
              std::string body, uint64_t started_us);

  // Exactly one of the two engines is set; every handler branches on
  // `sharded_` being null.
  engine::EnginePool* pool_;
  engine::ShardedEngine* sharded_;
  JsonWire wire_;
  std::function<ServerStats()> server_stats_;
  bool mutations_enabled_ = false;  // set once before serving starts

  Endpoint batch_;
  Endpoint path_;
  Endpoint mutate_;
  Endpoint stats_;
  Endpoint healthz_;
};

}  // namespace hopi::net
