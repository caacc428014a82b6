// Shared helpers for the HOPI test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "datagen/dblp.h"
#include "graph/digraph.h"
#include "twohop/cover.h"
#include "twohop/join_view.h"
#include "util/rng.h"

namespace hopi::testing {

/// A label view's entries copied out as values, for comparisons.
inline std::vector<twohop::LabelEntry> ToEntries(const twohop::JoinView& view) {
  return std::vector<twohop::LabelEntry>(view.begin(), view.end());
}

/// 64-bit FNV-1a over a stream of integers, each mixed as 8
/// little-endian bytes.
class Fnv1a {
 public:
  void Mix(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Fingerprint of a cover's exact labels: for every node, its Out label
/// then its In label, each as its entry count followed by every center
/// and distance. ValidateCover accepts any correct cover; a pinned
/// digest also catches a builder change that picks different centers.
inline uint64_t CoverDigest(const twohop::TwoHopCover& cover) {
  Fnv1a fnv;
  auto mix_label = [&fnv](const twohop::JoinView& label) {
    fnv.Mix(label.n);
    for (size_t i = 0; i < label.n; ++i) {
      fnv.Mix(label.center(i));
      fnv.Mix(label.dist_at(i));
    }
  };
  for (NodeId v = 0; v < cover.NumNodes(); ++v) {
    mix_label(cover.Out(v));
    mix_label(cover.In(v));
  }
  return fnv.value();
}

/// Random DAG: `n` nodes, each node gets edges to ~`avg_out` later nodes.
/// Edges only go forward in id order, so the result is acyclic.
inline Digraph RandomDag(size_t n, double avg_out, uint64_t seed) {
  Rng rng(seed);
  Digraph g(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    uint64_t out = rng.NextBounded(static_cast<uint64_t>(2 * avg_out) + 1);
    for (uint64_t k = 0; k < out; ++k) {
      NodeId v = static_cast<NodeId>(
          u + 1 + rng.NextBounded(n - u - 1));
      g.AddEdge(u, v);
    }
  }
  return g;
}

/// Random digraph that may contain cycles: `m` uniformly random edges.
inline Digraph RandomDigraph(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Digraph g(n);
  for (size_t k = 0; k < m; ++k) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

/// Random multi-document collection for the differential harness: `docs`
/// documents, each a random tree of 1 + up-to-2×`mean_extra_elements`
/// elements (tags drawn from a small pool so tag/path queries have
/// matches), plus up to `links` random element-level links in arbitrary
/// directions — the element graph may contain cycles, like real XML
/// collections with back-references. Fully determined by `seed`.
inline collection::Collection RandomCollection(size_t docs,
                                               size_t mean_extra_elements,
                                               size_t links, uint64_t seed) {
  static const char* kTags[] = {"article", "section", "cite",
                                "title",   "author",  "note"};
  Rng rng(seed);
  collection::Collection c;
  for (size_t d = 0; d < docs; ++d) {
    collection::DocId doc = c.AddDocument("doc" + std::to_string(d) + ".xml");
    std::vector<NodeId> nodes{c.AddElement(doc, kTags[0])};
    size_t extra = rng.NextBounded(2 * mean_extra_elements + 1);
    for (size_t i = 0; i < extra; ++i) {
      NodeId parent = nodes[rng.NextBounded(nodes.size())];
      nodes.push_back(
          c.AddElement(doc, kTags[1 + rng.NextBounded(5)], parent));
    }
  }
  size_t added = 0;
  for (size_t attempts = 0; added < links && attempts < 20 * links + 100;
       ++attempts) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    // Skip self-links and links that would shadow an existing edge (a
    // tree edge or an earlier link): deleting such a link later would
    // tear out the shared graph edge.
    if (u == v || c.ElementGraph().HasEdge(u, v)) continue;
    if (c.AddLink(u, v)) ++added;
  }
  return c;
}

/// All elements belonging to live (non-removed) documents, in id order.
inline std::vector<NodeId> LiveElements(const collection::Collection& c) {
  std::vector<NodeId> live;
  for (collection::DocId d = 0; d < c.NumDocuments(); ++d) {
    if (!c.IsLive(d)) continue;
    live.insert(live.end(), c.ElementsOf(d).begin(), c.ElementsOf(d).end());
  }
  std::sort(live.begin(), live.end());
  return live;
}

/// A small DBLP-like collection for integration tests.
inline collection::Collection SmallDblp(size_t docs = 60, uint64_t seed = 7) {
  collection::Collection c;
  datagen::DblpConfig config;
  config.num_docs = docs;
  config.seed = seed;
  auto report = datagen::GenerateDblpCollection(config, &c);
  EXPECT_TRUE(report.ok()) << report.status();
  return c;
}

/// Whole file as bytes; fails the calling test on IO errors.
inline std::vector<std::byte> ReadFileBytes(const std::string& path) {
  std::vector<std::byte> bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return bytes;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  bytes.resize(static_cast<size_t>(size));
  if (size > 0) {
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
  return bytes;
}

}  // namespace hopi::testing
