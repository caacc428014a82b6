// Wildcard path expressions over a pluggable reachability backend.
//
// Supports the paper's motivating query class: XPath-style descendant
// chains with wildcards across documents and links, e.g.
//     //book//author        //inproceedings//cite//title
// Steps are separated by // (the descendant-or-self axis over the
// element-level graph, i.e. tree edges AND links); `*` matches any tag.
// Results can be ranked by connection length, the XXL-style scoring the
// distance-aware index exists for (paper Sec 5.1).
//
// Evaluation runs against the engine::ReachabilityBackend interface, so
// the same query executes over the in-memory HOPI labels, the LIN/LOUT
// file, or the materialized-closure baseline (engine/backends.h).
// Most callers should go through the engine::QueryEngine facade rather
// than calling these free functions directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "engine/backend.h"
#include "query/similarity.h"
#include "query/tag_index.h"
#include "util/result.h"

namespace hopi::query {

/// One step of a path expression: a tag test, the `*` wildcard, or an
/// approximate test (`~book`) expanded through a TagSimilarity registry.
struct PathStep {
  std::string tag;            // "*" = wildcard
  bool approximate = false;   // written as ~tag

  friend bool operator==(const PathStep& a, const PathStep& b) {
    return a.tag == b.tag && a.approximate == b.approximate;
  }
};

/// A parsed path expression: a chain of tag tests.
struct PathExpression {
  std::vector<PathStep> steps;

  /// Parses "//a//~b//c" (a leading // is optional; "a//b" is accepted).
  static Result<PathExpression> Parse(const std::string& text);

  std::string ToString() const;
};

/// One query match: the elements bound to each step.
struct PathMatch {
  std::vector<NodeId> bindings;  // one element per step
  /// Sum of connection lengths between consecutive bindings (only
  /// meaningful with a distance-aware backend; 0 otherwise).
  uint32_t total_distance = 0;
  /// XXL-style score: product over consecutive pairs of 1/(1+dist),
  /// additionally multiplied by the tag similarity of every approximate
  /// binding.
  double score = 1.0;
};

struct PathQueryOptions {
  /// Maximum matches to produce (the evaluator short-circuits).
  size_t max_matches = 1000;
  /// Drop matches whose hop distance between any two consecutive
  /// bindings exceeds this (paper Sec 5.1: limited-length path queries).
  uint32_t max_step_distance = UINT32_MAX;
  /// Ontology for ~tag steps; nullptr makes approximate steps behave like
  /// exact ones.
  const TagSimilarity* similarity = nullptr;
  /// Synonyms below this similarity are not expanded.
  double min_tag_similarity = 0.3;
};

/// Evaluates `expr` against a reachability backend and returns matches
/// sorted by descending score (insertion order for plain backends).
/// `collection` supplies the live-element universe for wildcard steps.
Result<std::vector<PathMatch>> EvaluatePath(
    const PathExpression& expr, const engine::ReachabilityBackend& backend,
    const collection::Collection& collection, const TagIndex& tags,
    const PathQueryOptions& options = {});

/// Counts distinct elements matching the final step (cheaper than
/// materializing matches; the typical "find all results" engine call).
Result<size_t> CountPathResults(const PathExpression& expr,
                                const engine::ReachabilityBackend& backend,
                                const collection::Collection& collection,
                                const TagIndex& tags);

}  // namespace hopi::query
