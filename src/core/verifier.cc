#include "core/verifier.h"

#include <algorithm>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/logging.h"

namespace kpj {
namespace {

struct PartialPath {
  PathLength length;
  std::vector<NodeId> nodes;
};

struct LongerFirst {
  bool operator()(const PartialPath& a, const PartialPath& b) const {
    if (a.length != b.length) return a.length > b.length;
    return a.nodes > b.nodes;  // Deterministic tie-break.
  }
};

}  // namespace

Result<std::vector<Path>> EnumerateTopKPaths(const Graph& graph,
                                             const KpjQuery& query,
                                             uint64_t max_expansions) {
  if (query.k == 0) return Status::InvalidArgument("k must be positive");
  std::unordered_set<NodeId> sources(query.sources.begin(),
                                     query.sources.end());
  std::unordered_set<NodeId> targets(query.targets.begin(),
                                     query.targets.end());
  for (NodeId s : query.sources) {
    if (s >= graph.NumNodes()) {
      return Status::InvalidArgument("source out of range");
    }
  }
  for (NodeId t : query.targets) {
    if (t >= graph.NumNodes()) {
      return Status::InvalidArgument("target out of range");
    }
  }

  // Uniform-cost search over partial simple paths: with non-negative
  // weights, completed paths pop in non-decreasing length order.
  std::priority_queue<PartialPath, std::vector<PartialPath>, LongerFirst>
      frontier;
  for (NodeId s : sources) frontier.push(PartialPath{0, {s}});

  std::vector<Path> results;
  uint64_t expansions = 0;
  while (!frontier.empty() && results.size() < query.k) {
    if (++expansions > max_expansions) {
      return Status::FailedPrecondition(
          "reference enumeration exceeded max_expansions; graph too large "
          "for exhaustive verification");
    }
    PartialPath partial = frontier.top();
    frontier.pop();
    NodeId tail = partial.nodes.back();
    // A completed path must have at least one edge (the trivial path is
    // excluded by definition; see DESIGN.md).
    if (partial.nodes.size() > 1 && targets.count(tail) != 0) {
      results.push_back(
          Path{PathNodes(partial.nodes.begin(), partial.nodes.end()),
               partial.length});
      // Paths ending here may still be extended towards other targets, so
      // fall through to expansion.
    }
    for (const OutEdge& e : graph.OutEdges(tail)) {
      if (std::find(partial.nodes.begin(), partial.nodes.end(), e.to) !=
          partial.nodes.end()) {
        continue;  // Keep it simple.
      }
      PartialPath extended;
      extended.length = partial.length + e.weight;
      extended.nodes = partial.nodes;
      extended.nodes.push_back(e.to);
      frontier.push(std::move(extended));
    }
  }
  return results;
}

Status ValidateResultStructure(const Graph& graph, const KpjQuery& query,
                               const std::vector<Path>& paths) {
  std::unordered_set<NodeId> sources(query.sources.begin(),
                                     query.sources.end());
  std::unordered_set<NodeId> targets(query.targets.begin(),
                                     query.targets.end());
  std::set<std::vector<NodeId>> seen;

  if (paths.size() > query.k) {
    return Status::FailedPrecondition("more than k paths returned");
  }
  for (size_t i = 0; i < paths.size(); ++i) {
    const Path& p = paths[i];
    // The "path i (...): " prefix renders the whole path, so it is built
    // only once a check has failed.
    auto fail = [&](const std::string& what) {
      return Status::FailedPrecondition("path " + std::to_string(i) + " (" +
                                        PathToString(p) + "): " + what);
    };
    if (p.nodes.empty()) return fail("empty");
    if (p.nodes.size() < 2) return fail("trivial zero-length path");
    if (sources.count(p.nodes.front()) == 0) {
      return fail("does not start at a source");
    }
    if (targets.count(p.nodes.back()) == 0) {
      return fail("does not end at a target");
    }
    if (!IsSimplePath(p.nodes)) return fail("not simple");
    PathLength recomputed = ComputePathLength(graph, p.nodes);
    if (recomputed == kInfLength) return fail("uses a missing arc");
    if (recomputed != p.length) {
      return fail("cached length " + std::to_string(p.length) +
                  " != recomputed " + std::to_string(recomputed));
    }
    if (i > 0 && paths[i - 1].length > p.length) {
      return fail("lengths not non-decreasing");
    }
    if (!seen.insert({p.nodes.begin(), p.nodes.end()}).second) {
      return fail("duplicate path");
    }
  }
  return Status::Ok();
}

Status ValidateAgainstReference(const Graph& graph, const KpjQuery& query,
                                const std::vector<Path>& paths) {
  KPJ_RETURN_IF_ERROR(ValidateResultStructure(graph, query, paths));
  Result<std::vector<Path>> reference = EnumerateTopKPaths(graph, query);
  if (!reference.ok()) return reference.status();
  const std::vector<Path>& expected = reference.value();
  if (expected.size() != paths.size()) {
    std::ostringstream msg;
    msg << "expected " << expected.size() << " paths, got " << paths.size();
    return Status::FailedPrecondition(msg.str());
  }
  for (size_t i = 0; i < paths.size(); ++i) {
    if (expected[i].length != paths[i].length) {
      std::ostringstream msg;
      msg << "length mismatch at rank " << i << ": expected "
          << expected[i].length << ", got " << paths[i].length;
      return Status::FailedPrecondition(msg.str());
    }
  }
  return Status::Ok();
}

}  // namespace kpj
