#ifndef KPJ_CORE_PLANNER_H_
#define KPJ_CORE_PLANNER_H_

#include <cstdint>
#include <iterator>

#include "core/kpj_instance.h"
#include "core/kpj_query.h"
#include "core/spt_cache.h"

namespace kpj {

/// Number of concrete solvers the planner can choose between (the seven
/// paper algorithms; Algorithm::kAuto is the sentinel that engages the
/// planner and is never itself a choice).
inline constexpr size_t kNumPlannableAlgorithms = std::size(kAllAlgorithms);

/// Index of a concrete algorithm into the planner's per-algorithm arrays.
inline constexpr size_t PlannerIndex(Algorithm a) {
  return static_cast<size_t>(a);
}

/// k at or above which DA-SPT's per-deviation enumeration dwarfs any tree
/// reuse (BENCH_planner: ~19x slower than IterBound_I at k=96 even with
/// its reverse SPT resident), so rows 3 and 4 never route to it.
inline constexpr uint32_t kPlannerLargeK = 64;

/// Canonical target-set size at or above which a query is the paper's
/// category join (all POIs of one category): row 4 runs DA-SPT on first
/// sight, since the reverse tree it builds is keyed by the category alone
/// and serves every source that follows.
inline constexpr size_t kPlannerCategoryTargets = 32;

/// One planning decision: which solver runs this query and why. `reason`
/// is a static string from the table's fixed vocabulary (wire and log
/// values, never owned). `fallback` marks GKPJ queries, which run on an
/// ephemeral augmented graph the caches do not describe (exported as
/// kpj_planner_fallback_total).
struct PlannerDecision {
  Algorithm algorithm = Algorithm::kIterBoundSptI;
  const char* reason = "";
  bool fallback = false;
};

/// Per-query algorithm planner behind `--algorithm=auto`: a stateless rule
/// table, so the choice is a pure function of (query, oracle attached,
/// reverse target-SPT residency). It never looks at the answer, so it only
/// changes *which* solver produces the byte-identical paths.
///
/// First match wins:
///  1. More than one source (GKPJ) → IterBound_I with an oracle, else
///     IterBound_I-NL; "gkpj_no_cache", counted as a fallback.
///  2. Oracle attached → IterBound_I; "cold_profile_best".
///  3. Cache on, k < kPlannerLargeK, reverse target-SPT resident → DA-SPT;
///     "resident_best_dasp".
///  4. Cache on, k < kPlannerLargeK, |V_T| >= kPlannerCategoryTargets →
///     DA-SPT; "category_targets_seed_spt".
///  5. Otherwise → IterBound_I-NL; "no_oracle".
///
/// Rows 3-5 apply only without an oracle. With landmark bounds the forward
/// incremental solver beats even a resident DA-SPT tree (perfbench
/// engine_category, 240k-node road graph: DA-SPT picks p50 3.4 ms / p99
/// 188 ms against IterBound_I's 0.78 / 13.8 ms); without them the exact
/// reverse-SPT distances win the category join (bench_planner).
///
/// Thread safety: Plan reads only the immutable instance and the
/// internally synchronized cache, so concurrent calls need no lock.
class QueryPlanner {
 public:
  /// `base.oracle` may be null: the instance's landmarks count as the
  /// oracle (ResolveOptions), exactly as they do for the solvers.
  QueryPlanner(const KpjInstance& instance, const KpjOptions& base);

  /// Picks the solver for `query` (original ids). `cache` may be null
  /// (cache-less engines skip rows 3 and 4); `epoch` is the instance
  /// mutation epoch the engine stamped into its QueryCacheContext, so the
  /// residency probe's key matches DA-SPT's own key exactly.
  PlannerDecision Plan(const KpjQuery& query, const SptCache* cache,
                       uint64_t epoch) const;

  /// The solver rows 2 and 5 pick: IterBound_I with an oracle, else
  /// IterBound_I-NL. The engine warms this column for auto engines.
  Algorithm ColdAlgorithm() const {
    return has_oracle_ ? Algorithm::kIterBoundSptI
                       : Algorithm::kIterBoundSptINoLm;
  }

  /// Whether inserting into the SPT cache pays off for `algorithm`'s
  /// substrate. SPT_P's measured hit benefit is negative (BENCH_cache
  /// speedup 0.98x: the snapshot export costs more than a restore saves),
  /// so the engine clears QueryCacheContext::allow_sptp_insert for it and
  /// the solver counts AlgoStats::spt_cache_insert_skips instead.
  static bool SptInsertBeneficial(Algorithm algorithm) {
    return algorithm != Algorithm::kIterBoundSptP;
  }

 private:
  const KpjInstance& instance_;
  bool has_oracle_;
};

}  // namespace kpj

#endif  // KPJ_CORE_PLANNER_H_
