#include "net/service.h"

#include <chrono>
#include <utility>

namespace hopi::net {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The percentile block every endpoint reports.
void AppendLatencyJson(std::string* out,
                       const LatencyHistogram::Snapshot& snapshot) {
  *out += "{\"count\":" + std::to_string(snapshot.count);
  *out += ",\"mean_us\":" + JsonNumber(snapshot.Mean());
  *out += ",\"p50_us\":" + std::to_string(snapshot.ValueAtQuantile(0.50));
  *out += ",\"p90_us\":" + std::to_string(snapshot.ValueAtQuantile(0.90));
  *out += ",\"p99_us\":" + std::to_string(snapshot.ValueAtQuantile(0.99));
  *out += ",\"p999_us\":" + std::to_string(snapshot.ValueAtQuantile(0.999));
  *out += '}';
}

}  // namespace

ReachabilityService::ReachabilityService(engine::EnginePool* pool,
                                         WireLimits limits)
    : pool_(pool), sharded_(nullptr), wire_(limits) {}

ReachabilityService::ReachabilityService(engine::ShardedEngine* sharded,
                                         WireLimits limits)
    : pool_(nullptr), sharded_(sharded), wire_(limits) {}

HttpServer::Handler ReachabilityService::AsHandler() {
  return [this](HttpRequest request, HttpServer::Responder responder) {
    Handle(std::move(request), std::move(responder));
  };
}

void ReachabilityService::BindServerStats(std::function<ServerStats()> source) {
  server_stats_ = std::move(source);
}

void ReachabilityService::Handle(HttpRequest request,
                                 HttpServer::Responder responder) {
  const uint64_t started_us = NowMicros();
  // Route on the path alone; a query string is accepted and ignored.
  std::string_view path = request.target;
  if (size_t q = path.find('?'); q != std::string_view::npos) {
    path = path.substr(0, q);
  }

  const bool is_get = request.method == "GET" || request.method == "HEAD";
  if (path == "/healthz") {
    healthz_.requests.fetch_add(1, std::memory_order_relaxed);
    if (!is_get) {
      SendError(&healthz_, responder, 405,
                Status::InvalidArgument("use GET /healthz"), started_us);
      return;
    }
    SendOk(&healthz_, responder, "{\"status\":\"ok\"}", started_us);
    return;
  }
  if (path == "/stats") {
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    if (!is_get) {
      SendError(&stats_, responder, 405,
                Status::InvalidArgument("use GET /stats"), started_us);
      return;
    }
    SendOk(&stats_, responder, StatsJson(), started_us);
    return;
  }
  if (path == "/v1/batch") {
    batch_.requests.fetch_add(1, std::memory_order_relaxed);
    if (request.method != "POST") {
      SendError(&batch_, responder, 405,
                Status::InvalidArgument("use POST /v1/batch"), started_us);
      return;
    }
    HandleBatch(std::move(request), std::move(responder));
    return;
  }
  if (path == "/v1/mutate") {
    mutate_.requests.fetch_add(1, std::memory_order_relaxed);
    if (request.method != "POST") {
      SendError(&mutate_, responder, 405,
                Status::InvalidArgument("use POST /v1/mutate"), started_us);
      return;
    }
    HandleMutate(std::move(request), std::move(responder));
    return;
  }
  if (path == "/v1/path") {
    path_.requests.fetch_add(1, std::memory_order_relaxed);
    if (request.method != "POST") {
      SendError(&path_, responder, 405,
                Status::InvalidArgument("use POST /v1/path"), started_us);
      return;
    }
    HandlePath(std::move(request), std::move(responder));
    return;
  }
  // Unrouted: book it under /stats-free accounting (healthz_ would
  // pollute liveness numbers; a dedicated endpoint is overkill).
  HttpResponse response;
  response.status = 404;
  response.body = JsonWire::SerializeError(
      Status::NotFound("no route for " + std::string(path)));
  responder.Send(std::move(response));
}

void ReachabilityService::HandleBatch(HttpRequest&& request,
                                      HttpServer::Responder&& responder) {
  const uint64_t started_us = NowMicros();
  // Base ∪ delta: ids created by buffered mutations are probeable.
  const uint64_t num_elements = sharded_ ? sharded_->ServingElementCount()
                                         : pool_->ServingElementCount();
  Result<engine::BatchRequest> parsed =
      wire_.ParseBatchRequest(request.body, num_elements);
  if (!parsed.ok()) {
    SendError(&batch_, responder, parsed.status(), started_us);
    return;
  }
  if (sharded_) {
    // The merge callback runs on a shard completion thread (or the
    // watchdog): serialize there and let the Responder carry the bytes
    // back to the IO thread, as the pool path's hand-off does.
    Status submitted = sharded_->SubmitBatch(
        std::move(parsed).value(),
        [this, responder, started_us](engine::ShardedBatchResponse response) {
          SendOk(&batch_, responder,
                 JsonWire::SerializeShardedBatchResponse(response), started_us);
        });
    if (!submitted.ok()) {
      SendError(&batch_, responder, submitted, started_us);
    }
    return;
  }
  // ServeBatch runs the callback right here, on the IO thread, when it
  // can serve the batch inline (then the Responder completes on the
  // spot), and otherwise on a serving worker: serialize there (cheap)
  // and let the Responder carry the bytes back to the IO thread.
  Status submitted = pool_->ServeBatch(
      std::move(parsed).value(),
      [this, responder, started_us](Result<engine::PoolBatchResponse> result) {
        if (!result.ok()) {
          SendError(&batch_, responder, result.status(), started_us);
          return;
        }
        SendOk(&batch_, responder,
               JsonWire::SerializeBatchResponse(result.value()), started_us);
      });
  if (!submitted.ok()) {
    SendError(&batch_, responder, submitted, started_us);
  }
}

void ReachabilityService::HandlePath(HttpRequest&& request,
                                     HttpServer::Responder&& responder) {
  const uint64_t started_us = NowMicros();
  Result<engine::PathQueryRequest> parsed =
      wire_.ParsePathRequest(request.body);
  if (!parsed.ok()) {
    SendError(&path_, responder, parsed.status(), started_us);
    return;
  }
  // The sharded engine's SubmitQuery has the pool's exact callback
  // contract, so both modes share one completion lambda.
  auto submit = [this](engine::PathQueryRequest req,
                       std::function<void(Result<engine::PoolPathResponse>)>
                           on_done) {
    return sharded_ ? sharded_->SubmitQuery(std::move(req), std::move(on_done))
                    : pool_->SubmitQuery(std::move(req), std::move(on_done));
  };
  Status submitted = submit(
      std::move(parsed).value(),
      [this, responder, started_us](Result<engine::PoolPathResponse> result) {
        if (!result.ok()) {
          SendError(&path_, responder, result.status(), started_us);
          return;
        }
        if (!result.value().result.ok()) {
          // The pool ran it, the query itself failed (bad expression,
          // budget): same error envelope, pool provenance dropped.
          SendError(&path_, responder, result.value().result.status(),
                    started_us);
          return;
        }
        SendOk(&path_, responder,
               JsonWire::SerializePathResponse(result.value()), started_us);
      });
  if (!submitted.ok()) {
    SendError(&path_, responder, submitted, started_us);
  }
}

void ReachabilityService::HandleMutate(HttpRequest&& request,
                                       HttpServer::Responder&& responder) {
  const uint64_t started_us = NowMicros();
  if (sharded_) {
    SendError(&mutate_, responder,
              Status::Unsupported(
                  "mutation is not supported in sharded serving"),
              started_us);
    return;
  }
  if (!mutations_enabled_) {
    SendError(&mutate_, responder,
              Status::Unsupported(
                  "mutation endpoint disabled (start with --mutate=1)"),
              started_us);
    return;
  }
  Result<engine::Mutation> parsed = wire_.ParseMutationRequest(
      request.body, pool_->ServingElementCount(),
      pool_->ServingDocumentCount());
  if (!parsed.ok()) {
    SendError(&mutate_, responder, parsed.status(), started_us);
    return;
  }
  // Synchronous on the IO thread (see EnableMutations' doc comment):
  // writers are serialized in the pool either way, and a validated op
  // is a small Sec-6 label merge, not a build.
  Result<engine::MutationReceipt> receipt =
      pool_->ApplyMutation(parsed.value());
  if (!receipt.ok()) {
    SendError(&mutate_, responder, receipt.status(), started_us);
    return;
  }
  SendOk(&mutate_, responder,
         JsonWire::SerializeMutationReceipt(receipt.value()), started_us);
}

void ReachabilityService::SendError(Endpoint* endpoint,
                                    const HttpServer::Responder& responder,
                                    const Status& status, uint64_t started_us) {
  SendError(endpoint, responder, JsonWire::HttpStatusFor(status), status,
            started_us);
}

void ReachabilityService::SendError(Endpoint* endpoint,
                                    const HttpServer::Responder& responder,
                                    int http_status, const Status& status,
                                    uint64_t started_us) {
  endpoint->errors.fetch_add(1, std::memory_order_relaxed);
  if (status.IsResourceExhausted()) {
    endpoint->sheds.fetch_add(1, std::memory_order_relaxed);
  }
  endpoint->latency.Record(NowMicros() - started_us);
  HttpResponse response;
  response.status = http_status;
  response.body = JsonWire::SerializeError(status);
  if (http_status == 429) {
    // Sheds clear as soon as the pool drains below the low watermark;
    // tell well-behaved clients to come right back.
    response.extra_headers.emplace_back("retry-after", "1");
  }
  responder.Send(std::move(response));
}

void ReachabilityService::SendOk(Endpoint* endpoint,
                                 const HttpServer::Responder& responder,
                                 std::string body, uint64_t started_us) {
  endpoint->latency.Record(NowMicros() - started_us);
  HttpResponse response;
  response.body = std::move(body);
  responder.Send(std::move(response));
}

std::string ReachabilityService::StatsJson() const {
  if (sharded_) return ShardedStatsJson();
  engine::PoolStats pool = pool_->Stats();
  std::string out = "{\"pool\":{";
  out += "\"batches\":" + std::to_string(pool.batches);
  out += ",\"path_queries\":" + std::to_string(pool.path_queries);
  out += ",\"probes\":" + std::to_string(pool.probes);
  out += ",\"cache_hits\":" + std::to_string(pool.cache_hits);
  out += ",\"cache_misses\":" + std::to_string(pool.cache_misses);
  out += ",\"backend_probes\":" + std::to_string(pool.backend_probes);
  out += ",\"swaps\":" + std::to_string(pool.swaps);
  out += ",\"rebinds\":" + std::to_string(pool.rebinds);
  out += ",\"sheds\":" + std::to_string(pool.sheds);
  out += ",\"queued\":" + std::to_string(pool.queued);
  out += ",\"executing\":" + std::to_string(pool.executing);
  out += std::string(",\"shedding\":") + (pool.shedding ? "true" : "false");
  out += ",\"snapshot_version\":" + std::to_string(pool.snapshot_version);
  out += ",\"workers\":" + std::to_string(pool_->num_threads());
  out += '}';
  out += ",\"overlay\":{";
  out += "\"mutations\":" + std::to_string(pool.mutations);
  out += ",\"mutation_failures\":" + std::to_string(pool.mutation_failures);
  out += ",\"delta_ops\":" + std::to_string(pool.delta_ops);
  out += ",\"delta_generation\":" + std::to_string(pool.delta_generation);
  out += ",\"probes\":" + std::to_string(pool.overlay_probes);
  out += ",\"base_hits\":" + std::to_string(pool.overlay_base_hits);
  out += ",\"bfs_fallbacks\":" + std::to_string(pool.overlay_bfs_fallbacks);
  out += ",\"budget_exhaustions\":" +
         std::to_string(pool.overlay_budget_exhaustions);
  out += ",\"rebuilds\":" + std::to_string(pool.rebuilds);
  out += ",\"last_rebuild_pause_us\":" +
         std::to_string(pool.last_rebuild_pause_us);
  out += ",\"degradation\":" + JsonNumber(pool.degradation);
  out += '}';
  AppendServerAndEndpoints(&out);
  return out;
}

std::string ReachabilityService::ShardedStatsJson() const {
  engine::ShardStats stats = sharded_->Stats();
  std::string out = "{\"sharded\":{";
  out += "\"shards\":" + std::to_string(sharded_->num_shards());
  out += std::string(",\"with_distance\":") +
         (sharded_->with_distance() ? "true" : "false");
  out += ",\"batches\":" + std::to_string(stats.batches);
  out += ",\"direct_pairs\":" + std::to_string(stats.direct_pairs);
  out += ",\"cross_pairs\":" + std::to_string(stats.cross_pairs);
  out += ",\"subbatches\":" + std::to_string(stats.subbatches);
  out += ",\"rows_fetched\":" + std::to_string(stats.rows_fetched);
  out += ",\"partial_batches\":" + std::to_string(stats.partial_batches);
  out += ",\"failed_subbatches\":" + std::to_string(stats.failed_subbatches);
  out += ",\"merges\":" + std::to_string(stats.merges);
  out += ",\"merge_latency_us_total\":" +
         std::to_string(stats.merge_latency_us_total);
  out += ",\"merge_latency_us_max\":" +
         std::to_string(stats.merge_latency_us_max);
  out += ",\"per_shard_probes\":[";
  for (size_t s = 0; s < stats.per_shard_probes.size(); ++s) {
    if (s > 0) out += ',';
    out += std::to_string(stats.per_shard_probes[s]);
  }
  out += "]}";
  AppendServerAndEndpoints(&out);
  return out;
}

void ReachabilityService::AppendServerAndEndpoints(std::string* out) const {
  if (server_stats_) {
    ServerStats server = server_stats_();
    *out += ",\"server\":{";
    *out += "\"connections_accepted\":" +
            std::to_string(server.connections_accepted);
    *out += ",\"connections_refused\":" +
            std::to_string(server.connections_refused);
    *out += ",\"connections_closed\":" +
            std::to_string(server.connections_closed);
    *out += ",\"open_connections\":" + std::to_string(server.open_connections);
    *out += ",\"requests\":" + std::to_string(server.requests);
    *out += ",\"responses\":" + std::to_string(server.responses);
    *out += ",\"parse_errors\":" + std::to_string(server.parse_errors);
    *out += '}';
  }
  *out += ",\"endpoints\":{";
  const struct {
    const char* name;
    const Endpoint* endpoint;
  } kEndpoints[] = {{"batch", &batch_},
                    {"path", &path_},
                    {"mutate", &mutate_},
                    {"stats", &stats_},
                    {"healthz", &healthz_}};
  bool first = true;
  for (const auto& [name, endpoint] : kEndpoints) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += name;
    *out += "\":{\"requests\":" +
            std::to_string(endpoint->requests.load(std::memory_order_relaxed));
    *out += ",\"errors\":" +
            std::to_string(endpoint->errors.load(std::memory_order_relaxed));
    *out += ",\"sheds\":" +
            std::to_string(endpoint->sheds.load(std::memory_order_relaxed));
    *out += ",\"latency_us\":";
    AppendLatencyJson(out, endpoint->latency.TakeSnapshot());
    *out += '}';
  }
  *out += "}}";
}

}  // namespace hopi::net
