#ifndef KPJ_CORE_DA_H_
#define KPJ_CORE_DA_H_

#include "core/constraint.h"
#include "core/kpj_query.h"
#include "core/pseudo_tree.h"
#include "core/solver.h"
#include "core/subspace.h"
#include "sssp/astar.h"

namespace kpj {

/// DA — the deviation-paradigm baseline (paper Alg. 1; Yen [28]).
///
/// Maintains the pseudo-tree of chosen paths and a candidate set with one
/// *computed* shortest path per subspace: every division immediately runs
/// a constrained Dijkstra per new subspace ("the candidate paths are
/// computed by traversing the graph exhaustively"), which is exactly the
/// inefficiency the paper's best-first approaches remove.
class DaSolver final : public KpjSolver {
 public:
  DaSolver(const Graph& graph, const Graph& reverse,
           const KpjOptions& options);

  KpjResult Run(const PreparedQuery& query) override;

 private:
  /// Computes the candidate path of vertex `v` (a constrained Dijkstra)
  /// and pushes it into `queue` if one exists.
  void PushCandidate(uint32_t v, SubspaceQueue& queue, QueryStats* stats);

  /// Pushes the candidates of the division's subspaces: revised vertex
  /// first, then created vertices in creation order.
  void ExpandDivision(const DivisionResult& division, SubspaceQueue& queue,
                      QueryStats* stats);

  const Graph& graph_;
  ConstrainedSearch search_;
  PseudoTree tree_;
  ZeroHeuristic zero_;
  /// Per-query cancellation token (from PreparedQuery); set by Run.
  const CancellationToken* cancel_ = nullptr;
};

}  // namespace kpj

#endif  // KPJ_CORE_DA_H_
