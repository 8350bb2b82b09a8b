#ifndef KPJ_CORE_DA_SPT_H_
#define KPJ_CORE_DA_SPT_H_

#include <memory>
#include <vector>

#include "core/constraint.h"
#include "core/heuristics.h"
#include "core/kpj_query.h"
#include "core/pseudo_tree.h"
#include "core/solver.h"
#include "core/subspace.h"
#include "sssp/dijkstra.h"

namespace kpj {

/// DA-SPT — the state-of-the-art deviation baseline (paper §3; Pascoal
/// [24], Gao et al. [14, 15]).
///
/// Per query it first builds a *full* shortest path tree from the (virtual)
/// destination online — the dominating cost when the k paths are short —
/// then computes each candidate with
///   1. Pascoal's concatenation fast path: if prefix + deviation edge +
///      SPT path is simple, it is the candidate, found in O(|path|);
///   2. otherwise a goal-directed search guided by the exact SPT
///      distances (Gao's iterative refinement of the same idea).
class DaSptSolver final : public KpjSolver {
 public:
  DaSptSolver(const Graph& graph, const Graph& reverse,
              const KpjOptions& options);

  KpjResult Run(const PreparedQuery& query) override;

 private:
  /// Computes the candidate path of vertex `v` and pushes it into `queue`
  /// if one exists.
  void PushCandidate(uint32_t v, SubspaceQueue& queue, QueryStats* stats);

  /// Pushes the candidates of the division's subspaces; see DaSolver.
  void ExpandDivision(const DivisionResult& division, SubspaceQueue& queue,
                      QueryStats* stats);

  /// Pascoal fast path; returns true and fills `entry` if it applied.
  /// Expects the subspace prefix already marked in `search_.forbidden()`.
  bool TryConcatenation(uint32_t v, SubspaceEntry* entry, QueryStats* stats);

  const Graph& graph_;
  const Graph& reverse_;
  ConstrainedSearch search_;
  Dijkstra reverse_dijkstra_;
  PseudoTree tree_;
  /// Full SPT toward the query's targets; rebuilt per query or adopted
  /// from the cross-query cache (the SPT is a pure function of the target
  /// set, so sharing it is byte-identical to recomputing). Read-only for
  /// the rest of the query.
  std::shared_ptr<const SptResult> full_spt_;
  /// Per-query cancellation token (from PreparedQuery); set by Run.
  const CancellationToken* cancel_ = nullptr;
};

}  // namespace kpj

#endif  // KPJ_CORE_DA_SPT_H_
