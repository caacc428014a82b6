// Serving front-end tests: the HTTP parser and JSON wire as pure
// units, then the whole stack — epoll HttpServer -> ReachabilityService
// -> EnginePool — end to end over real sockets, checked against a
// ground-truth QueryEngine on the same snapshot. The overload test at
// the bottom is the ISSUE's acceptance scenario: a burst wider than
// the queue sheds with 429s, never blocks, and /stats shows the sheds
// and latency percentiles.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/engine_pool.h"
#include "engine/snapshot.h"
#include "hopi/build.h"
#include "net/client.h"
#include "net/http.h"
#include "net/json.h"
#include "net/server.h"
#include "net/service.h"
#include "net/wire.h"
#include "test_util.h"

namespace hopi::net {
namespace {

// ---- HttpParser units ----

HttpParser::Step FeedAll(HttpParser* parser, std::string_view bytes,
                         HttpRequest* request, HttpError* error) {
  parser->Feed(bytes);
  return parser->Next(request, error);
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser;
  HttpRequest request;
  HttpError error;
  ASSERT_EQ(FeedAll(&parser, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
                    &request, &error),
            HttpParser::Step::kRequest);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.FindHeader("host"), nullptr);  // lowercased name
  EXPECT_EQ(*request.FindHeader("host"), "x");
  EXPECT_TRUE(request.body.empty());
}

TEST(HttpParserTest, ParsesPostBodyAcrossFeeds) {
  HttpParser parser;
  HttpRequest request;
  HttpError error;
  parser.Feed("POST /v1/batch HTTP/1.1\r\ncontent-len");
  EXPECT_EQ(parser.Next(&request, &error), HttpParser::Step::kNeedMore);
  parser.Feed("gth: 11\r\n\r\nhello");
  EXPECT_EQ(parser.Next(&request, &error), HttpParser::Step::kNeedMore);
  parser.Feed(" world");
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Step::kRequest);
  EXPECT_EQ(request.body, "hello world");
}

TEST(HttpParserTest, PipelinedRequestsComeOutInOrder) {
  HttpParser parser;
  HttpRequest request;
  HttpError error;
  parser.Feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi"
      "GET /c HTTP/1.1\r\nconnection: close\r\n\r\n");
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Step::kRequest);
  EXPECT_EQ(request.target, "/a");
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Step::kRequest);
  EXPECT_EQ(request.target, "/b");
  EXPECT_EQ(request.body, "hi");
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Step::kRequest);
  EXPECT_EQ(request.target, "/c");
  EXPECT_FALSE(request.keep_alive);
  EXPECT_EQ(parser.Next(&request, &error), HttpParser::Step::kNeedMore);
}

TEST(HttpParserTest, Http10DefaultsToCloseUnlessKeepAlive) {
  HttpParser parser;
  HttpRequest request;
  HttpError error;
  ASSERT_EQ(FeedAll(&parser, "GET / HTTP/1.0\r\n\r\n", &request, &error),
            HttpParser::Step::kRequest);
  EXPECT_FALSE(request.keep_alive);
  ASSERT_EQ(FeedAll(&parser,
                    "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
                    &request, &error),
            HttpParser::Step::kRequest);
  EXPECT_TRUE(request.keep_alive);
}

struct RejectCase {
  const char* name;
  const char* bytes;
  int expected_status;
};

TEST(HttpParserTest, TypedRejects) {
  const RejectCase cases[] = {
      {"missing spaces", "GET/\r\n\r\n", 400},
      {"bad method token", "GE T / HTTP/1.1\r\n\r\n", 400},
      {"control in target", "GET /\x01 HTTP/1.1\r\n\r\n", 400},
      {"http2", "GET / HTTP/2.0\r\n\r\n", 505},
      {"not http", "GET / FTP/1.1\r\n\r\n", 400},
      {"obs fold", "GET / HTTP/1.1\r\na: b\r\n  cont\r\n\r\n", 400},
      {"space before colon", "GET / HTTP/1.1\r\nbad name: x\r\n\r\n", 400},
      {"no colon", "GET / HTTP/1.1\r\njustnoise\r\n\r\n", 400},
      {"bad length", "GET / HTTP/1.1\r\ncontent-length: 12x\r\n\r\n", 400},
      {"conflicting lengths",
       "GET / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n",
       400},
      {"transfer encoding",
       "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 501},
  };
  for (const RejectCase& c : cases) {
    HttpParser parser;
    HttpRequest request;
    HttpError error;
    EXPECT_EQ(FeedAll(&parser, c.bytes, &request, &error),
              HttpParser::Step::kError)
        << c.name;
    EXPECT_EQ(error.http_status, c.expected_status) << c.name;
    EXPECT_FALSE(error.status.ok()) << c.name;
    // Poisoned: no resynchronization after a broken stream.
    parser.Feed("GET / HTTP/1.1\r\n\r\n");
    EXPECT_EQ(parser.Next(&request, &error), HttpParser::Step::kError)
        << c.name;
  }
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  HttpParser parser({.max_header_bytes = 128});
  HttpRequest request;
  HttpError error;
  std::string bytes = "GET / HTTP/1.1\r\nx: " + std::string(200, 'a');
  // No terminator yet, but already hopeless: reject without waiting.
  EXPECT_EQ(FeedAll(&parser, bytes, &request, &error),
            HttpParser::Step::kError);
  EXPECT_EQ(error.http_status, 431);
}

TEST(HttpParserTest, TooManyHeadersIs431) {
  HttpParser parser({.max_headers = 4});
  std::string bytes = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 6; ++i) {
    bytes += std::string("h").append(std::to_string(i)) + ": v\r\n";
  }
  bytes += "\r\n";
  HttpRequest request;
  HttpError error;
  EXPECT_EQ(FeedAll(&parser, bytes, &request, &error),
            HttpParser::Step::kError);
  EXPECT_EQ(error.http_status, 431);
}

TEST(HttpParserTest, OversizedBodyIs413BeforeTheBodyArrives) {
  HttpParser parser({.max_body_bytes = 64});
  HttpRequest request;
  HttpError error;
  EXPECT_EQ(FeedAll(&parser,
                    "POST / HTTP/1.1\r\ncontent-length: 100000\r\n\r\n",
                    &request, &error),
            HttpParser::Step::kError);
  EXPECT_EQ(error.http_status, 413);
}

TEST(HttpParserTest, ExpectContinueIsSurfacedOnce) {
  HttpParser parser;
  HttpRequest request;
  HttpError error;
  parser.Feed(
      "POST / HTTP/1.1\r\ncontent-length: 2\r\nexpect: 100-continue\r\n\r\n");
  EXPECT_EQ(parser.Next(&request, &error), HttpParser::Step::kNeedMore);
  EXPECT_TRUE(parser.TakeContinueNeeded());
  EXPECT_FALSE(parser.TakeContinueNeeded());  // clears on read
  parser.Feed("ok");
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Step::kRequest);
  EXPECT_EQ(request.body, "ok");
}

TEST(HttpResponseTest, SerializeAlwaysFramesWithContentLength) {
  HttpResponse response;
  response.status = 429;
  response.body = "{\"x\":1}";
  response.extra_headers.emplace_back("retry-after", "1");
  response.close = true;
  std::string bytes = SerializeResponse(response);
  EXPECT_NE(bytes.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(bytes.find("content-length: 7\r\n"), std::string::npos);
  EXPECT_NE(bytes.find("retry-after: 1\r\n"), std::string::npos);
  EXPECT_NE(bytes.find("connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(bytes.ends_with("\r\n\r\n{\"x\":1}"));
}

// ---- JSON parser units ----

TEST(JsonTest, ParsesScalarsArraysObjects) {
  auto v = ParseJson(R"({"a":[1,2.5,-3e2],"b":"x\n\u00e9","c":true,"d":null})");
  ASSERT_TRUE(v.ok()) << v.status();
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[0].AsNumber(), 1.0);
  EXPECT_EQ(a->AsArray()[2].AsNumber(), -300.0);
  EXPECT_EQ(v->Find("b")->AsString(), "x\n\xc3\xa9");
  EXPECT_TRUE(v->Find("c")->AsBool());
  EXPECT_TRUE(v->Find("d")->is_null());
}

TEST(JsonTest, SurrogatePairsDecodeToUtf8) {
  auto v = ParseJson(R"("\ud83d\ude00")");  // grinning-face emoji
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, StrictRejects) {
  const char* cases[] = {
      "",
      "{",
      "[1,]",
      "{\"a\":1,}",
      "{\"a\" 1}",
      "[1] trailing",
      "{\"dup\":1,\"dup\":2}",
      "\"unterminated",
      "\"bad \\q escape\"",
      "\"\\ud800\"",        // lone high surrogate
      "01",                 // leading zero
      "+1",
      "1.",
      "nul",
      "Infinity",
      "\x01",
  };
  for (const char* c : cases) {
    auto v = ParseJson(c);
    EXPECT_FALSE(v.ok()) << "input: " << c;
  }
}

TEST(JsonTest, DepthLimitStopsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  auto v = ParseJson(deep, {.max_depth = 32});
  ASSERT_FALSE(v.ok());
  auto shallow = ParseJson("[[[[1]]]]", {.max_depth = 32});
  EXPECT_TRUE(shallow.ok());
}

// ---- JsonWire units ----

TEST(JsonWireTest, ParsesAndValidatesBatchRequest) {
  JsonWire wire;
  auto request = wire.ParseBatchRequest(
      R"({"pairs":[[0,5],[3,2]],"want_distances":true})", 10);
  ASSERT_TRUE(request.ok()) << request.status();
  ASSERT_EQ(request->pairs.size(), 2u);
  EXPECT_EQ(request->pairs[0].first, 0u);
  EXPECT_EQ(request->pairs[0].second, 5u);
  EXPECT_TRUE(request->want_distances);

  EXPECT_FALSE(wire.ParseBatchRequest(R"({"pairs":[[0,10]]})", 10).ok())
      << "node id out of range must reject";
  EXPECT_FALSE(wire.ParseBatchRequest(R"({"pairs":[[0,1],[2]]})", 10).ok());
  EXPECT_FALSE(wire.ParseBatchRequest(R"({"pairs":[[0,1.5]]})", 10).ok());
  EXPECT_FALSE(wire.ParseBatchRequest(R"({"pairs":[[-1,0]]})", 10).ok());
  EXPECT_FALSE(wire.ParseBatchRequest(R"({"pairs":[[0,1]],"oops":1})", 10)
                   .ok())
      << "unknown fields must reject";
  EXPECT_FALSE(wire.ParseBatchRequest("[]", 10).ok());
}

TEST(JsonWireTest, BatchSizeLimitIsEnforced) {
  WireLimits limits;
  limits.max_pairs = 2;
  JsonWire wire(limits);
  EXPECT_TRUE(wire.ParseBatchRequest(R"({"pairs":[[0,1],[1,0]]})", 4).ok());
  EXPECT_FALSE(
      wire.ParseBatchRequest(R"({"pairs":[[0,1],[1,0],[2,3]]})", 4).ok());
}

TEST(JsonWireTest, ParsesPathRequestWithOptions) {
  JsonWire wire;
  auto request = wire.ParsePathRequest(
      R"({"expression":"//a//~b","max_matches":5,"count_only":true,)"
      R"("min_tag_similarity":0.5,"max_step_distance":3})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->expression, "//a//~b");
  EXPECT_EQ(request->max_matches, 5u);
  EXPECT_TRUE(request->count_only);
  EXPECT_EQ(request->min_tag_similarity, 0.5);
  EXPECT_EQ(request->max_step_distance, 3u);

  EXPECT_FALSE(wire.ParsePathRequest(R"({"max_matches":5})").ok());
  EXPECT_FALSE(
      wire.ParsePathRequest(R"({"expression":"//a","min_tag_similarity":2})")
          .ok());
}

TEST(JsonWireTest, StatusMappingCoversTheTaxonomy) {
  EXPECT_EQ(JsonWire::HttpStatusFor(Status::OK()), 200);
  EXPECT_EQ(JsonWire::HttpStatusFor(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(JsonWire::HttpStatusFor(Status::NotFound("x")), 404);
  EXPECT_EQ(JsonWire::HttpStatusFor(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(JsonWire::HttpStatusFor(Status::FailedPrecondition("x")), 503);
  EXPECT_EQ(JsonWire::HttpStatusFor(Status::Unsupported("x")), 501);
  EXPECT_EQ(JsonWire::HttpStatusFor(Status::Internal("x")), 500);
}

TEST(JsonWireTest, ErrorEnvelopeEscapesTheMessage) {
  std::string body = JsonWire::SerializeError(
      Status::InvalidArgument("bad \"field\"\nline2"));
  EXPECT_EQ(body,
            "{\"error\":{\"code\":\"InvalidArgument\","
            "\"message\":\"bad \\\"field\\\"\\nline2\"}}");
  // The envelope itself must be valid JSON.
  EXPECT_TRUE(ParseJson(body).ok());
}

// ---- end-to-end over real sockets ----

class ServingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    c_ = hopi::testing::SmallDblp(40, 17);
    hopi::IndexBuildOptions build_options;
    build_options.with_distance = true;
    auto index = hopi::BuildIndex(&c_, build_options);
    ASSERT_TRUE(index.ok()) << index.status();
    index_ = std::make_unique<hopi::HopiIndex>(std::move(index).value());
    snapshot_ = engine::BackendSnapshot::Freeze(*index_);
  }

  /// Spins up pool + service + server; returns the bound port. With
  /// `mutate` the write path is armed before Start() — the production
  /// ordering (hopi_serve does the same), which also keeps the
  /// enable flags out of reach of the IO threads.
  void StartServer(engine::EnginePoolOptions pool_options = {},
                   HttpServerOptions server_options = {},
                   bool mutate = false) {
    pool_ = std::make_unique<engine::EnginePool>(snapshot_, pool_options);
    service_ = std::make_unique<ReachabilityService>(pool_.get());
    if (mutate) {
      ASSERT_TRUE(pool_->EnableMutations(*index_).ok());
      service_->EnableMutations();
    }
    server_ = std::make_unique<HttpServer>(service_->AsHandler(),
                                           server_options);
    service_->BindServerStats([this] { return server_->Stats(); });
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (pool_ != nullptr) pool_->Shutdown();
  }

  BlockingHttpClient Connect() {
    BlockingHttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  collection::Collection c_;
  std::unique_ptr<hopi::HopiIndex> index_;
  std::shared_ptr<const engine::BackendSnapshot> snapshot_;
  std::unique_ptr<engine::EnginePool> pool_;
  std::unique_ptr<ReachabilityService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServingFixture, BatchOverSocketMatchesGroundTruth) {
  StartServer();
  BlockingHttpClient client = Connect();

  // Ground truth straight from a QueryEngine on the same snapshot.
  engine::QueryEngine reference(c_, snapshot_->MakeBackend());
  engine::BatchRequest expected_request;
  Rng rng(3);
  std::string body = "{\"pairs\":[";
  for (size_t i = 0; i < 64; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c_.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c_.NumElements()));
    expected_request.pairs.push_back({u, v});
    if (i > 0) body += ',';
    body += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
  }
  body += "],\"want_distances\":true}";
  expected_request.want_distances = true;
  engine::BatchResponse expected = reference.Batch(expected_request);

  auto response = client.Request("POST", "/v1/batch", body);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  auto json = ParseJson(response->body);
  ASSERT_TRUE(json.ok()) << json.status();
  const JsonValue* reachable = json->Find("reachable");
  ASSERT_NE(reachable, nullptr);
  ASSERT_EQ(reachable->AsArray().size(), expected.reachable.size());
  for (size_t i = 0; i < expected.reachable.size(); ++i) {
    EXPECT_EQ(reachable->AsArray()[i].AsBool(), expected.reachable[i] != 0)
        << "pair " << i;
  }
  const JsonValue* distances = json->Find("distances");
  ASSERT_NE(distances, nullptr);
  ASSERT_EQ(distances->AsArray().size(), expected.distances.size());
  for (size_t i = 0; i < expected.distances.size(); ++i) {
    if (expected.distances[i].has_value()) {
      EXPECT_EQ(distances->AsArray()[i].AsNumber(),
                static_cast<double>(*expected.distances[i]));
    } else {
      EXPECT_TRUE(distances->AsArray()[i].is_null());
    }
  }
  EXPECT_EQ(json->Find("snapshot_version")->AsNumber(),
            static_cast<double>(snapshot_->version()));
}

TEST_F(ServingFixture, PathQueryOverSocketMatchesGroundTruth) {
  StartServer();
  BlockingHttpClient client = Connect();
  engine::QueryEngine reference(c_, snapshot_->MakeBackend());
  auto expected = reference.Query({.expression = "//article//author"});
  ASSERT_TRUE(expected.ok());

  auto response = client.Request("POST", "/v1/path",
                                 R"({"expression":"//article//author"})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  auto json = ParseJson(response->body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("count")->AsNumber(),
            static_cast<double>(expected->count));
  EXPECT_EQ(json->Find("matches")->AsArray().size(),
            expected->matches.size());
}

TEST_F(ServingFixture, HealthStatsAndRoutingErrors) {
  StartServer();
  BlockingHttpClient client = Connect();

  auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "{\"status\":\"ok\"}");

  auto missing = client.Request("GET", "/v2/everything");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  auto wrong_method = client.Request("GET", "/v1/batch");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  auto bad_body = client.Request("POST", "/v1/batch", "{\"pairs\":[[0,");
  ASSERT_TRUE(bad_body.ok());
  EXPECT_EQ(bad_body->status, 400);
  auto error_json = ParseJson(bad_body->body);
  ASSERT_TRUE(error_json.ok());
  EXPECT_EQ(error_json->Find("error")->Find("code")->AsString(),
            "InvalidArgument");

  // One real request, then /stats must reflect all of the above on the
  // same keep-alive connection.
  ASSERT_TRUE(client.Request("POST", "/v1/batch",
                             R"({"pairs":[[0,1]]})")
                  .ok());
  auto stats = client.Request("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  auto json = ParseJson(stats->body);
  ASSERT_TRUE(json.ok()) << stats->body;
  const JsonValue* pool = json->Find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->Find("batches")->AsNumber(), 1.0);
  const JsonValue* server = json->Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->Find("requests")->AsNumber(), 6.0);
  EXPECT_EQ(server->Find("parse_errors")->AsNumber(), 0.0);
  const JsonValue* batch_endpoint =
      json->Find("endpoints")->Find("batch");
  ASSERT_NE(batch_endpoint, nullptr);
  EXPECT_EQ(batch_endpoint->Find("requests")->AsNumber(), 3.0);
  EXPECT_EQ(batch_endpoint->Find("errors")->AsNumber(), 2.0);
  EXPECT_GE(
      batch_endpoint->Find("latency_us")->Find("p50_us")->AsNumber(), 0.0);
}

TEST_F(ServingFixture, MutateRouteIsClosedUntilEnabled) {
  StartServer();  // write path not armed
  BlockingHttpClient client = Connect();
  auto response = client.Request(
      "POST", "/v1/mutate", R"({"op":"insert_link","source":0,"target":1})");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 501);
  auto json = ParseJson(response->body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("error")->Find("code")->AsString(), "Unsupported");
}

TEST_F(ServingFixture, MutateOverSocketAppliesAndServesTheDelta) {
  StartServer({}, {}, /*mutate=*/true);
  BlockingHttpClient client = Connect();

  // A pair the frozen index cannot reach: inserting the link must flip
  // the served answer without any rebuild.
  std::vector<NodeId> live = hopi::testing::LiveElements(c_);
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  for (NodeId a : live) {
    for (NodeId b : live) {
      if (a != b && !index_->IsReachable(a, b)) {
        u = a;
        v = b;
        break;
      }
    }
    if (u != kInvalidNode) break;
  }
  ASSERT_NE(u, kInvalidNode);

  std::string pair_body = "{\"pairs\":[[" + std::to_string(u) + "," +
                          std::to_string(v) + "]]}";
  auto before = client.Request("POST", "/v1/batch", pair_body);
  ASSERT_TRUE(before.ok());
  auto before_json = ParseJson(before->body);
  ASSERT_TRUE(before_json.ok());
  EXPECT_FALSE(before_json->Find("reachable")->AsArray()[0].AsBool());
  EXPECT_EQ(before_json->Find("delta_generation")->AsNumber(), 0.0);

  auto mutate = client.Request(
      "POST", "/v1/mutate",
      "{\"op\":\"insert_link\",\"source\":" + std::to_string(u) +
          ",\"target\":" + std::to_string(v) + "}");
  ASSERT_TRUE(mutate.ok()) << mutate.status();
  EXPECT_EQ(mutate->status, 200);
  auto receipt = ParseJson(mutate->body);
  ASSERT_TRUE(receipt.ok()) << mutate->body;
  EXPECT_TRUE(receipt->Find("applied")->AsBool());
  EXPECT_EQ(receipt->Find("generation")->AsNumber(), 1.0);
  EXPECT_EQ(receipt->Find("snapshot_version")->AsNumber(),
            static_cast<double>(snapshot_->version()));

  auto after = client.Request("POST", "/v1/batch", pair_body);
  ASSERT_TRUE(after.ok());
  auto after_json = ParseJson(after->body);
  ASSERT_TRUE(after_json.ok());
  EXPECT_TRUE(after_json->Find("reachable")->AsArray()[0].AsBool());
  EXPECT_EQ(after_json->Find("delta_generation")->AsNumber(), 1.0);

  // The reject taxonomy over the wire: shape -> 400, semantics -> 404,
  // method -> 405; none of them may advance the generation.
  auto malformed = client.Request("POST", "/v1/mutate",
                                  R"({"op":"insert_link","source":0})");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed->status, 400);
  auto malformed_json = ParseJson(malformed->body);
  ASSERT_TRUE(malformed_json.ok());
  EXPECT_EQ(malformed_json->Find("error")->Find("code")->AsString(),
            "InvalidArgument");
  auto absent = client.Request(
      "POST", "/v1/mutate",
      "{\"op\":\"delete_link\",\"source\":" + std::to_string(v) +
          ",\"target\":" + std::to_string(u) + "}");
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent->status, 404);
  auto wrong_method = client.Request("GET", "/v1/mutate");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  auto stats = client.Request("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  auto stats_json = ParseJson(stats->body);
  ASSERT_TRUE(stats_json.ok()) << stats->body;
  const JsonValue* overlay = stats_json->Find("overlay");
  ASSERT_NE(overlay, nullptr) << stats->body;
  EXPECT_EQ(overlay->Find("mutations")->AsNumber(), 1.0);
  // Shape rejects die at the wire parser; only the semantic one (the
  // absent link) reaches the pool's failure counter.
  EXPECT_EQ(overlay->Find("mutation_failures")->AsNumber(), 1.0);
  EXPECT_EQ(overlay->Find("delta_ops")->AsNumber(), 1.0);
  EXPECT_EQ(overlay->Find("delta_generation")->AsNumber(), 1.0);
  // The pre-mutation batch served the raw base backend (empty delta
  // bypasses the overlay); only the post-mutation probe books here.
  EXPECT_GE(overlay->Find("probes")->AsNumber(), 1.0);
  EXPECT_GE(overlay->Find("bfs_fallbacks")->AsNumber(), 1.0);
  EXPECT_EQ(overlay->Find("rebuilds")->AsNumber(), 0.0);
  const JsonValue* mutate_endpoint =
      stats_json->Find("endpoints")->Find("mutate");
  ASSERT_NE(mutate_endpoint, nullptr);
  EXPECT_EQ(mutate_endpoint->Find("requests")->AsNumber(), 4.0);
  EXPECT_EQ(mutate_endpoint->Find("errors")->AsNumber(), 3.0);
}

TEST_F(ServingFixture, KeepAliveServesManySequentialRequests) {
  StartServer();
  BlockingHttpClient client = Connect();
  for (int i = 0; i < 50; ++i) {
    auto response = client.Request("POST", "/v1/batch",
                                   R"({"pairs":[[0,1],[1,0]]})");
    ASSERT_TRUE(response.ok()) << "request " << i << ": "
                               << response.status();
    EXPECT_EQ(response->status, 200);
    ASSERT_TRUE(client.connected()) << "server closed a keep-alive conn";
  }
  EXPECT_EQ(server_->Stats().connections_accepted, 1u);
}

TEST_F(ServingFixture, PipelinedRequestsGetOrderedResponses) {
  StartServer();
  BlockingHttpClient client = Connect();
  // Two requests in one write; responses must come back in order on
  // the same connection.
  std::string batch_body = R"({"pairs":[[0,1]]})";
  std::string raw =
      "POST /v1/batch HTTP/1.1\r\ncontent-length: " +
      std::to_string(batch_body.size()) + "\r\n\r\n" + batch_body +
      "GET /healthz HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(client.SendRaw(raw).ok());
  std::string collected;
  // Both responses arrive without any further request; scrape them via
  // two sequential reads through the response parser by issuing
  // zero-byte "requests" is not possible with the blocking client, so
  // read raw: send a closing request and read until close.
  ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\nconnection: close"
                             "\r\n\r\n")
                  .ok());
  auto bytes = client.ReadUntilClose();
  ASSERT_TRUE(bytes.ok());
  size_t first = bytes->find("\"reachable\":[true]");
  size_t second = bytes->find("{\"status\":\"ok\"}");
  ASSERT_NE(first, std::string::npos) << *bytes;
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second) << "pipelined responses out of order";
}

/// A plain blocking socket to the server, for tests that write and read
/// it from two threads at once (BlockingHttpClient is one-at-a-time).
class RawConnection {
 public:
  /// `receive_buffer` > 0 sets SO_RCVBUF before connecting, which caps
  /// what the kernel buffers for a client that does not read.
  explicit RawConnection(uint16_t port, int receive_buffer = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    if (receive_buffer > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                   sizeof(receive_buffer));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// The receive buffer the kernel granted (SO_RCVBUF as read back).
  size_t ReceiveBuffer() const {
    int size = 0;
    socklen_t len = sizeof(size);
    ::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &size, &len);
    return static_cast<size_t>(size);
  }

  /// Writes all of `bytes`; returns how many went out before the
  /// connection failed or was shut down.
  size_t SendAll(std::string_view bytes) const {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    return sent;
  }

  /// Everything the server writes until it closes the connection.
  std::string ReadUntilClose() const {
    std::string out;
    char buf[65536];
    for (;;) {
      ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return out;
      out.append(buf, static_cast<size_t>(n));
    }
  }

  /// Unblocks a SendAll or ReadUntilClose running on another thread.
  void Shutdown() const { ::shutdown(fd_, SHUT_RDWR); }

 private:
  int fd_ = -1;
};

TEST_F(ServingFixture, DeepPipelineIsServedInOrderWithoutRecursion) {
  // 20,000 requests in one write, each answered inline by the handler:
  // the server must walk them in a loop (a recursive walk would need a
  // stack frame chain 20,000 deep) and answer all of them, in order.
  // The last one asks to close, so its 404 must come last.
  StartServer();
  constexpr int kRequests = 20000;
  std::string raw;
  for (int i = 0; i < kRequests; ++i) raw += "GET /healthz HTTP/1.1\r\n\r\n";
  raw += "GET /no-such-route HTTP/1.1\r\nconnection: close\r\n\r\n";
  RawConnection conn(server_->port());
  ASSERT_TRUE(conn.connected());
  // Write and read at once: the server stops reading while the client
  // leaves its answers unread, so write-then-read could deadlock.
  size_t sent = 0;
  std::thread writer([&] { sent = conn.SendAll(raw); });
  std::string bytes = conn.ReadUntilClose();
  writer.join();
  ASSERT_EQ(sent, raw.size());

  std::vector<std::string_view> statuses;
  std::string_view rest(bytes);
  for (size_t at = rest.find("HTTP/1.1 "); at != std::string_view::npos;
       at = rest.find("HTTP/1.1 ", at + 1)) {
    statuses.push_back(rest.substr(at + 9, 3));
  }
  ASSERT_EQ(statuses.size(), static_cast<size_t>(kRequests) + 1);
  size_t ok = 0;
  for (int i = 0; i < kRequests; ++i) ok += statuses[i] == "200" ? 1 : 0;
  EXPECT_EQ(ok, static_cast<size_t>(kRequests));
  EXPECT_EQ(statuses.back(), "404");
}

TEST(HttpServerTest, DeepPipelineYieldsTheLoopToOtherConnections) {
  // One IO loop, two connections. A pipelines kSlow requests that the
  // handler answers inline after 5 ms each; B asks once while A's
  // pipeline is being served. B must get its turn after a bounded
  // number of A's requests, not after all of them.
  constexpr int kSlow = 64;
  std::atomic<int> slow_served{0};
  HttpServer server([&](HttpRequest request, HttpServer::Responder responder) {
    if (request.target == "/slow") {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      slow_served.fetch_add(1);
    }
    responder.Send(HttpResponse{});
  });
  ASSERT_TRUE(server.Start().ok());
  BlockingHttpClient b;
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
  // A first round trip puts B's connection on the loop.
  auto warm = b.Request("GET", "/fast");
  ASSERT_TRUE(warm.ok()) << warm.status();

  RawConnection a(server.port());
  ASSERT_TRUE(a.connected());
  std::string pipeline;
  for (int i = 0; i < kSlow; ++i) pipeline += "GET /slow HTTP/1.1\r\n\r\n";
  pipeline += "GET /fast HTTP/1.1\r\nconnection: close\r\n\r\n";
  ASSERT_EQ(a.SendAll(pipeline), pipeline.size());
  while (slow_served.load() == 0) std::this_thread::yield();
  auto answer = b.Request("GET", "/fast");
  const int served_before_b = slow_served.load();
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->status, 200);
  EXPECT_LT(served_before_b, kSlow * 3 / 4)
      << "B waited for most of A's pipeline";

  // A still gets every answer, in order, the closing one last.
  std::string bytes = a.ReadUntilClose();
  size_t answers = 0;
  for (size_t at = bytes.find("HTTP/1.1 200"); at != std::string::npos;
       at = bytes.find("HTTP/1.1 200", at + 1)) {
    ++answers;
  }
  EXPECT_EQ(answers, static_cast<size_t>(kSlow) + 1);
  EXPECT_EQ(slow_served.load(), kSlow);
  server.Stop();
}

/// The most the kernel lets a TCP socket's send buffer grow to (the
/// third field of net.ipv4.tcp_wmem), or Linux's default of 4 MiB when
/// it cannot be read.
size_t MaxTcpSendBuffer() {
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  size_t min = 0;
  size_t initial = 0;
  size_t max = 0;
  if (in >> min >> initial >> max) return max;
  return size_t{4} << 20;
}

TEST_F(ServingFixture, PipelinedFloodWithoutReadingIsNotBuffered) {
  // One client pipelines want_distances batches at the wire limit
  // (65,536 pairs each) and never reads. The server may dispatch only
  // as many as the socket buffers hold answers for, plus the one it is
  // writing: reads and dispatch pause while a response waits to be
  // written. Left unpaused, it reads on and buffers every answer. The
  // bound follows from the host's largest TCP send buffer and the size
  // of one answer, and the client sends four times as many batches.
  StartServer();
  constexpr size_t kPairs = size_t{1} << 16;
  Rng rng(29);
  std::string body = "{\"pairs\":[";
  for (size_t i = 0; i < kPairs; ++i) {
    if (i > 0) body += ',';
    body += '[' + std::to_string(rng.NextBounded(c_.NumElements())) + ',' +
            std::to_string(rng.NextBounded(c_.NumElements())) + ']';
  }
  body += "],\"want_distances\":true}";
  const std::string request = "POST /v1/batch HTTP/1.1\r\ncontent-length: " +
                              std::to_string(body.size()) + "\r\n\r\n" +
                              body;
  // One answer's size, from an ordinary round trip.
  BlockingHttpClient probe = Connect();
  auto answer = probe.Request("POST", "/v1/batch", body);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->status, 200);
  ASSERT_GT(answer->body.size(), 0u);

  // A small receive window keeps what the kernel buffers on the client's
  // side small too.
  RawConnection conn(server_->port(), /*receive_buffer=*/64 * 1024);
  ASSERT_TRUE(conn.connected());
  const uint64_t bound =
      (MaxTcpSendBuffer() + conn.ReceiveBuffer()) / answer->body.size() + 3;
  const uint64_t batches = std::max<uint64_t>(64, 4 * bound);
  const uint64_t before = server_->Stats().requests;
  std::thread writer([&] {
    for (uint64_t i = 0; i < batches; ++i) {
      if (conn.SendAll(request) != request.size()) return;
    }
  });
  // Wait until dispatching stops: no new request for one second after
  // the first.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  uint64_t dispatched = 0;
  Clock::time_point changed = Clock::now();
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    uint64_t now = server_->Stats().requests - before;
    if (now != dispatched) {
      dispatched = now;
      changed = Clock::now();
    } else if (dispatched > 0 &&
               Clock::now() - changed >= std::chrono::seconds(1)) {
      break;
    }
  }
  conn.Shutdown();
  writer.join();
  EXPECT_GE(dispatched, 1u);
  EXPECT_LT(dispatched, bound)
      << "the server kept dispatching for a client that does not read ("
      << batches << " sent)";

  // Everyone else is still served.
  BlockingHttpClient client = Connect();
  auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
}

TEST_F(ServingFixture, MalformedHttpGetsTypedRejectAndClose) {
  StartServer();
  struct Garbage {
    const char* bytes;
    const char* expect_status;
  };
  const Garbage cases[] = {
      {"NONSENSE\r\n\r\n", "400"},
      {"GET / HTTP/3.0\r\n\r\n", "505"},
      {"POST /v1/batch HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
       "501"},
  };
  for (const Garbage& c : cases) {
    BlockingHttpClient client = Connect();
    ASSERT_TRUE(client.SendRaw(c.bytes).ok());
    auto response = client.ReadUntilClose();
    ASSERT_TRUE(response.ok());
    EXPECT_NE(response->find(std::string("HTTP/1.1 ") + c.expect_status),
              std::string::npos)
        << "input " << c.bytes << " answered: " << *response;
  }
}

TEST_F(ServingFixture, ExpectContinueRoundTrips) {
  StartServer();
  BlockingHttpClient client = Connect();
  std::string body = R"({"pairs":[[0,1]]})";
  ASSERT_TRUE(
      client
          .SendRaw("POST /v1/batch HTTP/1.1\r\ncontent-length: " +
                   std::to_string(body.size()) +
                   "\r\nexpect: 100-continue\r\n\r\n")
          .ok());
  // The server should answer the interim 100 before seeing the body.
  // BlockingHttpClient's parser treats it as a (body-less) response.
  ASSERT_TRUE(client.SendRaw(body).ok());
  ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\nconnection: close"
                             "\r\n\r\n")
                  .ok());
  auto bytes = client.ReadUntilClose();
  ASSERT_TRUE(bytes.ok());
  EXPECT_NE(bytes->find("HTTP/1.1 100 Continue"), std::string::npos);
  EXPECT_NE(bytes->find("\"reachable\":[true]"), std::string::npos);
}

TEST_F(ServingFixture, BurstBeyondQueueCapacitySheds429AndRecovers) {
  // The acceptance scenario: 1 worker, queue capacity 2, watermarks
  // low — then 16 concurrent closed-loop clients fire oversized
  // batches. The server must (a) answer every request with 200 or 429,
  // (b) shed at least once, (c) keep serving /healthz and /stats
  // throughout, and (d) recover to all-200 once the burst stops.
  StartServer(
      {.num_threads = 1,
       .queue_capacity = 2,
       .shed_high_watermark = 3,
       .shed_low_watermark = 1},
      {.num_io_threads = 2});
  constexpr size_t kClients = 16;
  constexpr int kRequestsPerClient = 25;

  std::string body = "{\"pairs\":[";
  Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    if (i > 0) body += ',';
    body += '[' +
            std::to_string(rng.NextBounded(c_.NumElements())) + ',' +
            std::to_string(rng.NextBounded(c_.NumElements())) + ']';
  }
  body += "]}";

  // Stall the lone worker inside a blocking callback so the burst
  // provably overflows the queue on any scheduler (under ASan on one
  // core, a free-running worker can drain a closed-loop burst without
  // ever letting four requests pile up). While the gate is held,
  // outstanding = 1 executing + 2 queued = the high watermark, so
  // every further request must shed.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  ASSERT_TRUE(pool_
                  ->SubmitBatch({.pairs = {{0, 1}}},
                                [&](Result<engine::PoolBatchResponse>) {
                                  entered.set_value();
                                  gate.wait();
                                })
                  .ok());
  entered.get_future().wait();

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      BlockingHttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        unexpected.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto response = client.Request("POST", "/v1/batch", body);
        if (!response.ok()) {
          unexpected.fetch_add(1);
          return;
        }
        if (response->status == 200) {
          ok.fetch_add(1);
        } else if (response->status == 429) {
          shed.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  // Wait until the overload is observable, then check the control
  // plane stays responsive mid-burst, then let the worker go.
  while (shed.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  BlockingHttpClient probe = Connect();
  auto health = probe.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  release.set_value();
  for (auto& client : clients) client.join();

  EXPECT_EQ(ok.load() + shed.load(),
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(shed.load(), 0u) << "burst wider than the queue never shed";
  EXPECT_GT(ok.load(), 0u) << "admission control starved everything";
  EXPECT_EQ(pool_->Stats().sheds, shed.load());

  // Recovery: burst over, the very next requests are all 200 (the
  // hysteresis gate re-admitted after the drain).
  for (int i = 0; i < 5; ++i) {
    auto response = probe.Request("POST", "/v1/batch",
                                  R"({"pairs":[[0,1]]})");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << "request " << i << " after burst";
  }

  // /stats carries the overload evidence.
  auto stats = probe.Request("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  auto json = ParseJson(stats->body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("pool")->Find("sheds")->AsNumber(),
            static_cast<double>(shed.load()));
  EXPECT_GT(json->Find("endpoints")
                ->Find("batch")
                ->Find("latency_us")
                ->Find("p99_us")
                ->AsNumber(),
            0.0);
}

TEST_F(ServingFixture, StopWithInFlightRequestsDoesNotHangOrCrash) {
  StartServer({.num_threads = 1});
  std::vector<std::thread> clients;
  std::atomic<bool> stop_now{false};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      BlockingHttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      while (!stop_now.load()) {
        auto response = client.Request("POST", "/v1/batch",
                                       R"({"pairs":[[0,1],[2,3]]})");
        if (!response.ok()) return;  // server went away: expected
        if (!client.connected() &&
            !client.Connect("127.0.0.1", server_->port()).ok()) {
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();  // in-flight responders must drop safely
  stop_now.store(true);
  for (auto& client : clients) client.join();
  pool_->Shutdown();
}

TEST_F(ServingFixture, ConnectionCapRefusesExtraClients) {
  StartServer({}, {.max_connections = 2});
  BlockingHttpClient a = Connect();
  BlockingHttpClient b = Connect();
  // Make sure both are registered (a request forces the accept path).
  ASSERT_TRUE(a.Request("GET", "/healthz").ok());
  ASSERT_TRUE(b.Request("GET", "/healthz").ok());
  // The third connects at TCP level (backlog) but is closed by the
  // acceptor; its request fails rather than hanging.
  BlockingHttpClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(c.SendRaw("GET /healthz HTTP/1.1\r\n\r\n").ok());
  auto leftover = c.ReadUntilClose();
  if (leftover.ok()) {
    EXPECT_EQ(leftover->find("200"), std::string::npos)
        << "over-cap connection was served";
  }
  EXPECT_GE(server_->Stats().connections_refused, 1u);
}

}  // namespace
}  // namespace hopi::net
