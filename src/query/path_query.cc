#include "query/path_query.h"

#include <algorithm>

#include "twohop/join_kernel.h"

namespace hopi::query {

Result<PathExpression> PathExpression::Parse(const std::string& text) {
  PathExpression expr;
  size_t pos = 0;
  if (text.rfind("//", 0) == 0) pos = 2;
  while (pos < text.size()) {
    size_t next = text.find("//", pos);
    std::string step = next == std::string::npos
                           ? text.substr(pos)
                           : text.substr(pos, next - pos);
    if (step.empty()) {
      return Status::InvalidArgument("empty step in path expression '" +
                                     text + "'");
    }
    if (step.find('/') != std::string::npos) {
      return Status::InvalidArgument(
          "only the // axis is supported (got '" + step + "')");
    }
    bool approximate = step[0] == '~';
    if (approximate) step = step.substr(1);
    if (step.empty() || (approximate && step == "*")) {
      return Status::InvalidArgument("malformed step in '" + text + "'");
    }
    expr.steps.push_back({std::move(step), approximate});
    pos = next == std::string::npos ? text.size() : next + 2;
  }
  if (expr.steps.empty()) {
    return Status::InvalidArgument("empty path expression");
  }
  return expr;
}

std::string PathExpression::ToString() const {
  std::string out;
  for (const PathStep& s : steps) {
    out += "//";
    if (s.approximate) out += "~";
    out += s.tag;
  }
  return out;
}

namespace {

using engine::ReachabilityBackend;

/// One candidate element with its tag-similarity weight (1.0 unless the
/// step is approximate and the element matched through a synonym).
struct Candidate {
  NodeId element;
  double tag_score;
};

/// Candidate elements for one step: tag lookup, synonym expansion for
/// approximate steps, or every live element for the wildcard.
std::vector<Candidate> StepCandidates(const PathStep& step,
                                      const collection::Collection& c,
                                      const TagIndex& tags,
                                      const PathQueryOptions& options) {
  std::vector<Candidate> out;
  if (step.tag == "*") {
    for (NodeId e = 0; e < c.NumElements(); ++e) {
      collection::DocId d = c.DocOf(e);
      if (d != collection::kInvalidDoc && c.IsLive(d)) {
        out.push_back({e, 1.0});
      }
    }
    return out;
  }
  if (step.approximate && options.similarity != nullptr) {
    for (const auto& [tag, score] :
         options.similarity->Related(step.tag, options.min_tag_similarity)) {
      for (NodeId e : tags.Lookup(tag)) out.push_back({e, score});
    }
    std::sort(out.begin(), out.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.element < b.element;
              });
    return out;
  }
  for (NodeId e : tags.Lookup(step.tag)) out.push_back({e, 1.0});
  return out;
}

/// Depth-first enumeration of bindings.
void Enumerate(const std::vector<std::vector<Candidate>>& candidates,
               const ReachabilityBackend& backend,
               const PathQueryOptions& options, size_t step,
               std::vector<NodeId>* bindings, double tag_score,
               std::vector<PathMatch>* out) {
  if (out->size() >= options.max_matches) return;
  if (step == candidates.size()) {
    PathMatch match;
    match.bindings = *bindings;
    match.score = tag_score;
    for (size_t i = 1; i < bindings->size(); ++i) {
      uint32_t d = 0;
      if (backend.with_distance()) {
        auto dist = backend.Distance((*bindings)[i - 1], (*bindings)[i]);
        d = dist ? *dist : 0;
      }
      match.total_distance += d;
      match.score *= 1.0 / (1.0 + d);
    }
    out->push_back(std::move(match));
    return;
  }
  for (const Candidate& cand : candidates[step]) {
    if (step > 0) {
      NodeId prev = bindings->back();
      if (prev == cand.element || !backend.IsReachable(prev, cand.element)) {
        continue;
      }
      if (options.max_step_distance != UINT32_MAX &&
          backend.with_distance()) {
        auto d = backend.Distance(prev, cand.element);
        if (!d || *d > options.max_step_distance) continue;
      }
    }
    bindings->push_back(cand.element);
    Enumerate(candidates, backend, options, step + 1, bindings,
              tag_score * cand.tag_score, out);
    bindings->pop_back();
    if (out->size() >= options.max_matches) return;
  }
}

}  // namespace

Result<std::vector<PathMatch>> EvaluatePath(
    const PathExpression& expr, const engine::ReachabilityBackend& backend,
    const collection::Collection& collection, const TagIndex& tags,
    const PathQueryOptions& options) {
  if (expr.steps.empty()) {
    return Status::InvalidArgument("empty path expression");
  }
  std::vector<std::vector<Candidate>> candidates;
  candidates.reserve(expr.steps.size());
  for (const PathStep& step : expr.steps) {
    candidates.push_back(StepCandidates(step, collection, tags, options));
    if (candidates.back().empty()) return std::vector<PathMatch>{};
  }
  std::vector<PathMatch> matches;
  std::vector<NodeId> bindings;
  Enumerate(candidates, backend, options, 0, &bindings, 1.0, &matches);
  std::stable_sort(matches.begin(), matches.end(),
                   [](const PathMatch& a, const PathMatch& b) {
                     return a.score > b.score;
                   });
  return matches;
}

Result<size_t> CountPathResults(const PathExpression& expr,
                                const engine::ReachabilityBackend& backend,
                                const collection::Collection& collection,
                                const TagIndex& tags) {
  if (expr.steps.empty()) {
    return Status::InvalidArgument("empty path expression");
  }
  PathQueryOptions options;  // exact semantics for counting
  // Forward filtering: keep, per step, the candidates reachable from some
  // survivor of the previous step. Set-based, no enumeration blowup.
  std::vector<Candidate> frontier =
      StepCandidates(expr.steps.front(), collection, tags, options);
  for (size_t s = 1; s < expr.steps.size() && !frontier.empty(); ++s) {
    std::vector<Candidate> next_candidates =
        StepCandidates(expr.steps[s], collection, tags, options);
    // Union of descendants of the frontier (sorted, deduped), then a
    // sorted-set intersection with the candidate ids. The intersection
    // goes through the join-kernel helper, which gallops when one side
    // dwarfs the other — the common shape here (few candidates for a
    // selective tag, a large reachable union).
    std::vector<uint32_t> reachable;
    for (const Candidate& f : frontier) {
      std::vector<NodeId> desc = backend.Descendants(f.element);
      reachable.insert(reachable.end(), desc.begin(), desc.end());
    }
    std::sort(reachable.begin(), reachable.end());
    reachable.erase(std::unique(reachable.begin(), reachable.end()),
                    reachable.end());
    std::vector<uint32_t> ids;
    ids.reserve(next_candidates.size());
    for (const Candidate& c : next_candidates) ids.push_back(c.element);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<uint32_t> common = twohop::IntersectSorted(ids, reachable);
    std::vector<Candidate> survivors;
    for (const Candidate& c : next_candidates) {
      if (std::binary_search(common.begin(), common.end(), c.element)) {
        survivors.push_back(c);
      }
    }
    frontier = std::move(survivors);
  }
  return frontier.size();
}

}  // namespace hopi::query
