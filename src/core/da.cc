#include "core/da.h"

#include <utility>

namespace kpj {

DaSolver::DaSolver(const Graph& graph, const Graph& reverse,
                   const KpjOptions& options)
    : graph_(graph), search_(graph) {
  (void)reverse;   // DA needs no reverse graph.
  (void)options;   // ... and no landmarks / alpha.
}

void DaSolver::PushCandidate(uint32_t v, SubspaceQueue& queue,
                             QueryStats* stats) {
  const PseudoTree::Vertex& vx = tree_.vertex(v);
  search_.ClearForbidden();
  tree_.MarkPrefix(v, &search_.forbidden());

  SubspaceSearchRequest request;
  request.start = vx.node;
  request.prefix_length = vx.prefix_length;
  request.banned_first_hops = vx.banned;
  request.start_counts_as_destination =
      !vx.finish_banned && search_.target_set().Contains(vx.node);
  request.cancel = cancel_;

  ++stats->shortest_path_computations;
  ++stats->subspaces_created;
  SubspaceSearchResult result = search_.Run(request, zero_, stats);
  if (result.outcome != SearchOutcome::kFound) {
    ++stats->algo.candidates_pruned;
    return;
  }

  ++stats->algo.candidates_generated;
  SubspaceEntry entry;
  entry.vertex = v;
  entry.has_path = true;
  entry.suffix_length = result.suffix_length;
  entry.key = static_cast<double>(vx.prefix_length + result.suffix_length);
  // Entries store nodes strictly after the vertex's node.
  entry.suffix.assign(result.suffix.begin() + 1, result.suffix.end());
  queue.Push(std::move(entry));
}

void DaSolver::ExpandDivision(const DivisionResult& division,
                              SubspaceQueue& queue, QueryStats* stats) {
  PushCandidate(division.revised, queue, stats);
  for (uint32_t v : division.created) PushCandidate(v, queue, stats);
}

KpjResult DaSolver::Run(const PreparedQuery& query) {
  KpjResult res;
  cancel_ = query.cancel;
  tree_.Reset(query.source);
  search_.SetTargets(query.targets);

  SubspaceQueue queue;
  PushCandidate(tree_.root(), queue, &res.stats);
  // The root "candidate" is the true shortest path, not a division
  // by-product; it is not one of the O(k n) candidates of Alg. 1.
  res.stats.subspaces_created = 0;

  while (res.paths.size() < query.k && !queue.empty()) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) break;
    res.stats.max_queue_size =
        std::max<uint64_t>(res.stats.max_queue_size, queue.size());
    SubspaceEntry entry = queue.Pop();
    res.paths.push_back(AssemblePath(tree_, entry, /*reverse_oriented=*/false));

    if (res.paths.size() == query.k) break;
    DivisionResult division = DivideSubspace(
        tree_, graph_, entry.vertex, entry.suffix,
        /*create_destination_vertex=*/true);
    ExpandDivision(division, queue, &res.stats);
  }
  if (cancel_ != nullptr && cancel_->ShouldStop() &&
      res.paths.size() < query.k) {
    res.status = cancel_->CancelStatus();
  }
  return res;
}

}  // namespace kpj
