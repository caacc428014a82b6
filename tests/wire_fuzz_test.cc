// Seeded malformed-input fuzzer for the serving front-end's two
// parsers — the HttpParser and the JSON wire (ParseJson +
// JsonWire::Parse*Request). The mirror of format_fuzz_test.cc for the
// network boundary: every attacker-controlled byte stream must come
// back as a typed, structured reject (4xx-mapped Status), never a
// crash, hang, or silent mis-parse.
//
// Attack corpus, all derived from seeded Rng streams (reproducible):
//   * truncations of valid requests at every prefix length,
//   * single-byte flips over valid requests,
//   * oversized headers / bodies / nesting straddling each limit,
//   * random garbage, random "almost-HTTP" and "almost-JSON" strings,
//   * pipelined valid requests with garbage spliced between them,
//   * valid JSON of the wrong shape fed to the typed wire parsers.
//
// CI runs this under ASan/UBSan and TSan (the `serving` ctest label);
// with the sanitizers watching, "returns kError/!ok" here is the
// memory-safety proof for the parsing layer.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "engine/engine_pool.h"
#include "engine/snapshot.h"
#include "hopi/baseline.h"
#include "hopi/build.h"
#include "net/http.h"
#include "net/json.h"
#include "net/wire.h"
#include "test_util.h"
#include "util/rng.h"

namespace hopi::net {
namespace {

constexpr uint64_t kSeed = 20260808;

/// Drives one byte stream through a fresh parser to quiescence:
/// every outcome is fine EXCEPT a crash (the sanitizers' job) or an
/// infinite loop (bounded by the iteration cap here).
void ExerciseHttpParser(const std::string& bytes,
                        const HttpParserLimits& limits = {}) {
  HttpParser parser(limits);
  parser.Feed(bytes);
  HttpRequest request;
  HttpError error;
  for (int i = 0; i < 1000; ++i) {
    HttpParser::Step step = parser.Next(&request, &error);
    if (step == HttpParser::Step::kNeedMore) return;
    if (step == HttpParser::Step::kError) {
      // Typed reject: a real HTTP status and a non-OK Status.
      EXPECT_GE(error.http_status, 400);
      EXPECT_LE(error.http_status, 599);
      EXPECT_FALSE(error.status.ok());
      // Poisoned stays poisoned.
      EXPECT_EQ(parser.Next(&request, &error), HttpParser::Step::kError);
      return;
    }
  }
  FAIL() << "parser produced 1000 requests from "
         << bytes.size() << " bytes";
}

/// Same but drip-fed one byte at a time — boundary conditions in the
/// incremental path (head split anywhere, body split anywhere).
void ExerciseHttpParserByteByByte(const std::string& bytes) {
  HttpParser parser;
  HttpRequest request;
  HttpError error;
  size_t emitted = 0;
  for (char c : bytes) {
    parser.Feed(std::string_view(&c, 1));
    for (int i = 0; i < 100; ++i) {
      HttpParser::Step step = parser.Next(&request, &error);
      if (step == HttpParser::Step::kNeedMore) break;
      if (step == HttpParser::Step::kError) return;
      if (++emitted > bytes.size()) {
        FAIL() << "more requests than bytes";
      }
    }
  }
}

const char* const kValidRequests[] = {
    "GET /healthz HTTP/1.1\r\n\r\n",
    "GET /stats HTTP/1.1\r\nhost: x\r\nconnection: keep-alive\r\n\r\n",
    "POST /v1/batch HTTP/1.1\r\ncontent-type: application/json\r\n"
    "content-length: 18\r\n\r\n{\"pairs\":[[0,1]]}x",
    "POST /v1/path HTTP/1.1\r\ncontent-length: 24\r\n"
    "expect: 100-continue\r\n\r\n{\"expression\":\"//a//b\"}.",
};

TEST(HttpParserFuzzTest, TruncationsAtEveryPrefixAreSafe) {
  for (const char* valid : kValidRequests) {
    std::string bytes(valid);
    for (size_t len = 0; len <= bytes.size(); ++len) {
      ExerciseHttpParser(bytes.substr(0, len));
    }
  }
}

TEST(HttpParserFuzzTest, SingleByteFlipsAreSafe) {
  Rng rng(kSeed);
  for (const char* valid : kValidRequests) {
    std::string bytes(valid);
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int round = 0; round < 4; ++round) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(rng.NextBounded(256));
        ExerciseHttpParser(mutated);
      }
    }
  }
}

TEST(HttpParserFuzzTest, RandomGarbageIsSafe) {
  Rng rng(kSeed + 1);
  for (int round = 0; round < 500; ++round) {
    size_t len = rng.NextBounded(300);
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes += static_cast<char>(rng.NextBounded(256));
    }
    ExerciseHttpParser(bytes);
  }
}

TEST(HttpParserFuzzTest, AlmostHttpIsSafe) {
  // Garbage with HTTP-ish structure: real tokens in wrong places.
  Rng rng(kSeed + 2);
  const char* const fragments[] = {
      "GET ",       "POST ",      "/v1/batch",  " HTTP/1.1",  "HTTP/1.1 ",
      "\r\n",       "\r",         "\n",         ": ",         "content-length",
      "transfer-encoding", "chunked", "0",      "99999999999999999999",
      "expect",     "100-continue", " ",        "\t",         "\x00\x01\x7f",
  };
  for (int round = 0; round < 500; ++round) {
    std::string bytes;
    size_t pieces = 1 + rng.NextBounded(20);
    for (size_t i = 0; i < pieces; ++i) {
      bytes += fragments[rng.NextBounded(std::size(fragments))];
    }
    ExerciseHttpParser(bytes);
    ExerciseHttpParserByteByByte(bytes);
  }
}

TEST(HttpParserFuzzTest, PipelinedGarbageAfterValidRequestsIsSafe) {
  Rng rng(kSeed + 3);
  for (int round = 0; round < 200; ++round) {
    std::string bytes = kValidRequests[rng.NextBounded(
        std::size(kValidRequests))];
    size_t garbage_len = rng.NextBounded(100);
    for (size_t i = 0; i < garbage_len; ++i) {
      bytes += static_cast<char>(rng.NextBounded(256));
    }
    bytes += kValidRequests[rng.NextBounded(std::size(kValidRequests))];
    ExerciseHttpParser(bytes);
  }
}

TEST(HttpParserFuzzTest, OversizedInputsStraddlingEveryLimitAreSafe) {
  HttpParserLimits limits;
  limits.max_header_bytes = 256;
  limits.max_headers = 8;
  limits.max_body_bytes = 512;
  Rng rng(kSeed + 4);
  for (int round = 0; round < 200; ++round) {
    std::string bytes = "GET / HTTP/1.1\r\n";
    // Header block sized around the byte limit (under, at, over).
    size_t header_bytes = 200 + rng.NextBounded(150);
    while (bytes.size() < header_bytes) {
      bytes += std::string("h").append(std::to_string(rng.NextBounded(20))) +
               ": " + std::string(rng.NextBounded(40), 'v') + "\r\n";
    }
    bytes += "content-length: " +
             std::to_string(rng.NextBounded(1024)) + "\r\n\r\n";
    bytes += std::string(rng.NextBounded(1024), 'b');
    ExerciseHttpParser(bytes, limits);
  }
}

// ---- JSON / wire fuzz ----

void ExerciseWire(const std::string& body) {
  // All three entry points an HTTP body can reach. ok() or a typed
  // InvalidArgument are both fine; crashes are not.
  JsonWire wire;
  auto json = ParseJson(body);
  if (!json.ok()) {
    EXPECT_FALSE(json.status().ok());
  }
  auto batch = wire.ParseBatchRequest(body, 1000);
  if (!batch.ok()) {
    EXPECT_TRUE(batch.status().IsInvalidArgument());
  }
  auto path = wire.ParsePathRequest(body);
  if (!path.ok()) {
    EXPECT_TRUE(path.status().IsInvalidArgument());
  }
  auto mutation = wire.ParseMutationRequest(body, 1000, 50);
  if (!mutation.ok()) {
    EXPECT_TRUE(mutation.status().IsInvalidArgument());
  }
}

const char* const kValidBodies[] = {
    R"({"pairs":[[0,1],[5,9]],"want_distances":true})",
    R"({"pairs":[]})",
    R"({"expression":"//a//~b","max_matches":10,"count_only":false})",
    R"({"expression":"/x","min_tag_similarity":0.25})",
    R"({"op":"insert_link","source":0,"target":7})",
    R"({"op":"delete_link","source":12,"target":3})",
    R"({"op":"insert_document","name":"d.xml","elements":)"
    R"([{"tag":"article","parent":null},{"tag":"sec","parent":0}]})",
    R"({"op":"delete_document","doc":4})",
};

TEST(WireFuzzTest, TruncationsOfValidBodiesAreSafe) {
  for (const char* valid : kValidBodies) {
    std::string body(valid);
    for (size_t len = 0; len <= body.size(); ++len) {
      ExerciseWire(body.substr(0, len));
    }
  }
}

TEST(WireFuzzTest, SingleByteFlipsOfValidBodiesAreSafe) {
  Rng rng(kSeed + 5);
  for (const char* valid : kValidBodies) {
    std::string body(valid);
    for (size_t pos = 0; pos < body.size(); ++pos) {
      for (int round = 0; round < 4; ++round) {
        std::string mutated = body;
        mutated[pos] = static_cast<char>(rng.NextBounded(256));
        ExerciseWire(mutated);
      }
    }
  }
}

TEST(WireFuzzTest, BadEscapesAndUnicodeEdgesAreSafe) {
  const char* const cases[] = {
      "\"\\u\"",          "\"\\u00\"",       "\"\\uZZZZ\"",
      "\"\\ud800\"",      "\"\\ud800\\u0041\"",
      "\"\\ud800\\udc00\"",  // valid pair
      "\"\\udc00\\ud800\"",  // reversed
      "\"\\x41\"",        "\"\\\"",          "\"\\ud83d\\ude0\"",
      "{\"\\ud800\":1}",  "\"\xed\xa0\x80\"",  // raw surrogate bytes
      "\"\xff\xfe\"",     "\"\\u0000\"",
  };
  for (const char* c : cases) ExerciseWire(c);
}

TEST(WireFuzzTest, DeepNestingAndElementFloodsAreBounded) {
  // Depth flood.
  for (size_t depth : {10u, 31u, 32u, 33u, 64u, 1000u}) {
    std::string body(depth, '[');
    body += std::string(depth, ']');
    ExerciseWire(body);
    std::string objects;
    for (size_t i = 0; i < depth; ++i) objects += "{\"k\":";
    objects += "1";
    for (size_t i = 0; i < depth; ++i) objects += "}";
    ExerciseWire(objects);
  }
  // Element flood, kept under the parse limit in bytes but over the
  // element limit.
  JsonParseLimits limits;
  limits.max_elements = 1000;
  std::string flood = "[";
  for (int i = 0; i < 2000; ++i) {
    if (i > 0) flood += ',';
    flood += '1';
  }
  flood += ']';
  auto v = ParseJson(flood, limits);
  EXPECT_FALSE(v.ok());
}

TEST(WireFuzzTest, RandomGarbageAndAlmostJsonAreSafe) {
  Rng rng(kSeed + 6);
  const char* const fragments[] = {
      "{",  "}",  "[",  "]",  ",",  ":",  "\"", "\\", "pairs",
      "expression", "1e", "-",  "0.", "true", "null", "nul",
      "\\u00", "e308", "9999999999999999999999", " ", "\t\n",
  };
  for (int round = 0; round < 1000; ++round) {
    std::string body;
    if (round % 2 == 0) {
      size_t len = rng.NextBounded(200);
      for (size_t i = 0; i < len; ++i) {
        body += static_cast<char>(rng.NextBounded(256));
      }
    } else {
      size_t pieces = 1 + rng.NextBounded(30);
      for (size_t i = 0; i < pieces; ++i) {
        body += fragments[rng.NextBounded(std::size(fragments))];
      }
    }
    ExerciseWire(body);
  }
}

TEST(WireFuzzTest, WrongShapedValidJsonGetsTypedRejects) {
  // Parses as JSON, fails the schema: must be InvalidArgument with a
  // non-empty message, never OK, never a crash.
  JsonWire wire;
  const char* const cases[] = {
      "3",
      "[]",
      "\"pairs\"",
      R"({"pairs":3})",
      R"({"pairs":[3]})",
      R"({"pairs":[[1,2,3]]})",
      R"({"pairs":[["0","1"]]})",
      R"({"pairs":[[0,1]],"want_distances":"yes"})",
      R"({"pairs":[[1e18,0]]})",
      R"({"expression":3})",
      R"({"expression":"//a","max_matches":-2})",
      R"({"expression":"//a","max_matches":1.5})",
      R"({"expression":"//a","unknown":1})",
  };
  for (const char* c : cases) {
    auto batch = wire.ParseBatchRequest(c, 100);
    auto path = wire.ParsePathRequest(c);
    EXPECT_FALSE(batch.ok() && path.ok()) << c;
    if (!batch.ok()) {
      EXPECT_TRUE(batch.status().IsInvalidArgument()) << c;
      EXPECT_FALSE(batch.status().message().empty()) << c;
    }
    if (!path.ok()) {
      EXPECT_TRUE(path.status().IsInvalidArgument()) << c;
    }
  }
}

TEST(WireFuzzTest, HugeExpressionIsRejectedNotCopied) {
  WireLimits limits;
  limits.max_expression_bytes = 64;
  JsonWire wire(limits);
  std::string body =
      "{\"expression\":\"" + std::string(10000, 'a') + "\"}";
  auto parsed = wire.ParsePathRequest(body);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
}

// ---- /v1/mutate fuzz ----

TEST(WireFuzzTest, WrongShapedMutationBodiesGetTypedRejects) {
  // Valid JSON, wrong mutation shape, checked against a serving state
  // of 10 elements / 5 documents: every case must be a typed
  // InvalidArgument with a message, never OK, never a crash.
  JsonWire wire;
  const char* const cases[] = {
      "3",
      "{}",
      R"({"op":5})",
      R"({"op":"noop"})",
      R"({"op":"insert_link","source":0})",
      R"({"op":"insert_link","source":0,"target":1,"extra":true})",
      R"({"op":"insert_link","source":10,"target":0})",
      R"({"op":"insert_link","source":-1,"target":0})",
      R"({"op":"insert_link","source":0.5,"target":0})",
      R"({"op":"delete_link","source":"0","target":1})",
      R"({"op":"insert_document","name":"d","elements":[]})",
      R"({"op":"insert_document","name":"d","elements":)"
      R"([{"tag":"a","parent":0}]})",
      R"({"op":"insert_document","name":"d","elements":)"
      R"([{"tag":"a","parent":null},{"tag":"b","parent":1}]})",
      R"({"op":"insert_document","name":"d","elements":[{"tag":"a"}]})",
      R"({"op":"insert_document","name":"d","elements":)"
      R"([{"tag":"a","parent":null,"attr":1}]})",
      R"({"op":"insert_document","elements":[{"tag":"a","parent":null}]})",
      R"({"op":"delete_document","doc":5})",
      R"({"op":"delete_document"})",
      R"({"op":"delete_document","doc":4,"source":0})",
  };
  for (const char* c : cases) {
    auto parsed = wire.ParseMutationRequest(c, 10, 5);
    ASSERT_FALSE(parsed.ok()) << c;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << c;
    EXPECT_FALSE(parsed.status().message().empty()) << c;
  }
}

TEST(WireFuzzTest, OversizedMutationFieldsAreRejectedNotCopied) {
  WireLimits limits;
  limits.max_name_bytes = 8;
  limits.max_document_elements = 4;
  JsonWire wire(limits);

  std::string long_name = "{\"op\":\"insert_document\",\"name\":\"" +
                          std::string(10000, 'n') +
                          "\",\"elements\":[{\"tag\":\"a\",\"parent\":null}]}";
  auto parsed = wire.ParseMutationRequest(long_name, 10, 5);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());

  std::string long_tag =
      "{\"op\":\"insert_document\",\"name\":\"d\",\"elements\":[{\"tag\":\"" +
      std::string(10000, 't') + "\",\"parent\":null}]}";
  parsed = wire.ParseMutationRequest(long_tag, 10, 5);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());

  std::string flood =
      R"({"op":"insert_document","name":"d","elements":[)"
      R"({"tag":"a","parent":null})";
  for (int i = 1; i < 5; ++i) flood += R"(,{"tag":"b","parent":0})";
  flood += "]}";
  parsed = wire.ParseMutationRequest(flood, 10, 5);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
}

TEST(WireFuzzTest, MutationFragmentSoupIsSafe) {
  // Mutation-flavored almost-JSON: real schema tokens in wrong places.
  Rng rng(kSeed + 7);
  const char* const fragments[] = {
      "{",  "}",  "[",  "]",  ",",  ":",  "\"", "op", "\"op\":",
      "insert_link", "delete_link", "insert_document", "delete_document",
      "\"source\":", "\"target\":", "\"doc\":", "\"name\":",
      "\"elements\":", "\"tag\":", "\"parent\":", "null", "0", "-1",
      "1e18", "4294967295", "4294967296", " ", "\\u0000",
  };
  for (int round = 0; round < 1000; ++round) {
    std::string body;
    size_t pieces = 1 + rng.NextBounded(30);
    for (size_t i = 0; i < pieces; ++i) {
      body += fragments[rng.NextBounded(std::size(fragments))];
    }
    ExerciseWire(body);
  }
}

// End-to-end no-corruption proof: the corpus (truncations + byte flips
// of valid mutate bodies + fragment soup) is thrown at a LIVE pool's
// write path. Whatever parses goes through ApplyMutation; accepted ops
// are replayed on a mirror collection, and afterwards the pool's full
// matrix must equal the closure of the mirror — so no reject, however
// mangled its body, may have half-applied anything to the delta.
TEST(WireFuzzTest, FuzzedMutationBodiesNeverCorruptTheDelta) {
  collection::Collection base = hopi::testing::SmallDblp(12, 7);
  IndexBuildOptions build_options;
  auto index = BuildIndex(&base, build_options);
  ASSERT_TRUE(index.ok()) << index.status();
  auto snapshot = engine::BackendSnapshot::Freeze(*index);
  engine::EnginePool pool(snapshot, {.num_threads = 1});
  ASSERT_TRUE(pool.EnableMutations(*index).ok());
  collection::Collection mirror = base;

  JsonWire wire;
  uint64_t accepted = 0;
  auto throw_at_pool = [&](const std::string& body) {
    auto parsed = wire.ParseMutationRequest(body, pool.ServingElementCount(),
                                            pool.ServingDocumentCount());
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument()) << body;
      return;
    }
    engine::Mutation m = std::move(parsed).value();
    auto receipt = pool.ApplyMutation(m);
    if (!receipt.ok()) {
      // Semantic rejects are typed; an Internal here would mean the
      // validator let a corrupting op half-apply.
      EXPECT_TRUE(receipt.status().IsInvalidArgument() ||
                  receipt.status().IsNotFound() ||
                  receipt.status().IsResourceExhausted())
          << body << ": " << receipt.status();
      return;
    }
    ASSERT_TRUE(engine::ApplyMutationToCollection(m, &mirror).ok()) << body;
    ++accepted;
    EXPECT_EQ(receipt->generation, accepted);
  };

  const char* const valid_bodies[] = {
      R"({"op":"insert_link","source":0,"target":7})",
      R"({"op":"delete_link","source":0,"target":7})",
      R"({"op":"insert_document","name":"f.xml","elements":)"
      R"([{"tag":"article","parent":null},{"tag":"sec","parent":0}]})",
      R"({"op":"delete_document","doc":4})",
  };
  Rng rng(kSeed + 8);
  for (const char* valid : valid_bodies) {
    std::string body(valid);
    for (size_t len = 0; len <= body.size(); ++len) {
      throw_at_pool(body.substr(0, len));
    }
    for (size_t pos = 0; pos < body.size(); ++pos) {
      std::string mutated = body;
      mutated[pos] = static_cast<char>(rng.NextBounded(256));
      throw_at_pool(mutated);
    }
  }
  EXPECT_GT(accepted, 0u);  // the exact valid bodies must have landed
  EXPECT_EQ(pool.delta()->generation(), accepted);
  EXPECT_EQ(pool.Stats().mutations, accepted);

  // Bit-identical to the mirror's re-materialized closure.
  ASSERT_EQ(pool.ServingElementCount(), mirror.NumElements());
  const auto n = static_cast<NodeId>(mirror.NumElements());
  TransitiveClosureIndex closure =
      TransitiveClosureIndex::Build(mirror.ElementGraph(), false);
  size_t mismatches = 0;
  for (NodeId u = 0; u < n; ++u) {
    engine::BatchRequest request;
    for (NodeId v = 0; v < n; ++v) request.pairs.push_back({u, v});
    auto response = pool.Batch(std::move(request));
    ASSERT_TRUE(response.ok()) << response.status();
    for (NodeId v = 0; v < n; ++v) {
      if ((response->batch.reachable[v] != 0) != closure.IsReachable(u, v)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  pool.Shutdown();
}

}  // namespace
}  // namespace hopi::net
