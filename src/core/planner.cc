#include "core/planner.h"

#include <algorithm>
#include <vector>

namespace kpj {

QueryPlanner::QueryPlanner(const KpjInstance& instance, const KpjOptions& base)
    : instance_(instance),
      has_oracle_(ResolveOptions(instance, base).oracle != nullptr) {}

PlannerDecision QueryPlanner::Plan(const KpjQuery& query,
                                   const SptCache* cache,
                                   uint64_t epoch) const {
  PlannerDecision decision;
  decision.algorithm = ColdAlgorithm();
  if (query.sources.size() != 1) {
    decision.reason = "gkpj_no_cache";
    decision.fallback = true;
    return decision;
  }
  if (has_oracle_) {
    decision.reason = "cold_profile_best";
    return decision;
  }
  if (cache != nullptr && query.k < kPlannerLargeK) {
    // Canonicalize the target set exactly the way PrepareQuery does
    // (internal ids, the source dropped, sorted, deduplicated) so the probe
    // key is bit-equal to the key DA-SPT builds. Out-of-range ids are
    // dropped here; validation rejects the query later either way.
    const NodeId num_nodes = instance_.NumNodes();
    std::vector<NodeId> targets;
    targets.reserve(query.targets.size());
    for (NodeId t : query.targets) {
      if (t < num_nodes && t != query.sources[0]) {
        targets.push_back(instance_.ToInternal(t));
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

    if (!targets.empty()) {
      SptCacheKey reverse_key;
      reverse_key.kind = SptCacheKind::kReverseTargetSpt;
      reverse_key.epoch = epoch;
      reverse_key.targets = std::move(targets);
      if (cache->Contains(reverse_key)) {
        decision.algorithm = Algorithm::kDaSpt;
        decision.reason = "resident_best_dasp";
        return decision;
      }
      if (reverse_key.targets.size() >= kPlannerCategoryTargets) {
        decision.algorithm = Algorithm::kDaSpt;
        decision.reason = "category_targets_seed_spt";
        return decision;
      }
    }
  }
  decision.reason = "no_oracle";
  return decision;
}

}  // namespace kpj
