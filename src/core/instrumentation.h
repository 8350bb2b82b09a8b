#ifndef KPJ_CORE_INSTRUMENTATION_H_
#define KPJ_CORE_INSTRUMENTATION_H_

#include <cstdint>

#include "util/stats.h"

namespace kpj {

/// Per-query algorithm counters, threaded through the solvers and the
/// sssp searches via a nullable pointer — when the pointer is null the
/// searches skip all counting, so uninstrumented callers pay nothing.
///
/// All fields are unsigned integers on purpose: the engine sums them across
/// workers and the result must be byte-identical regardless of thread count
/// or accumulation order, which floating-point sums cannot guarantee.
/// Lower-bound tightness is therefore kept as an integer ratio
/// (`lb_tightness_num / lb_tightness_den`) instead of a running double.
struct AlgoStats {
  // Priority-queue traffic across every search run for the query
  // (forward/backward Dijkstra, A* subspace searches, incremental SPTs).
  uint64_t heap_pushes = 0;
  uint64_t heap_pops = 0;
  uint64_t heap_decrease_keys = 0;

  // Nodes settled (expanded) across all searches. Tracks `nodes_settled` in
  // QueryStats but includes searches that legacy field misses.
  uint64_t node_expansions = 0;

  // SPT_I tree growth: a "resume hit" is an AdvanceToBound call answered
  // entirely from the already-built tree; a "miss" had to settle new nodes.
  uint64_t spt_resume_hits = 0;
  uint64_t spt_resume_misses = 0;

  // Number of times a bounded subspace search was re-queued with an enlarged
  // tau (the iterative-bounding rounds of Sec. 5 in the paper).
  uint64_t iter_bound_rounds = 0;

  // Cross-query reuse (PR 4). SPT cache: adopting a previously computed
  // shortest-path-tree substrate (full reverse SPT, SPT_P/SPT_I warm
  // state, or a root path) instead of recomputing it. Bound cache:
  // serving the per-category landmark aggregates from cache. Both always
  // zero when the engine cache is disabled.
  uint64_t spt_cache_hits = 0;
  uint64_t spt_cache_misses = 0;
  uint64_t bound_cache_hits = 0;
  uint64_t bound_cache_misses = 0;

  // SPT-cache insertions deliberately skipped because the engine measured
  // (or statically knows) the algorithm's hit benefit to be negative —
  // e.g. SPT_P, whose snapshot export costs more than a later hit saves.
  uint64_t spt_cache_insert_skips = 0;

  // Candidate-path churn: paths materialized into the result queue vs.
  // subspaces discarded before yielding a path (lb = inf or proven empty).
  uint64_t candidates_generated = 0;
  uint64_t candidates_pruned = 0;

  // Lower-bound tightness: for every subspace whose exact shortest path was
  // eventually found, accumulates lb (num) and the exact length (den).
  // num/den in [0,1]; 1.0 means CompLB was exact everywhere.
  uint64_t lb_tightness_num = 0;
  uint64_t lb_tightness_den = 0;

  void Reset() { *this = AlgoStats(); }

  /// Field-wise sum, used for cross-worker aggregation.
  void Accumulate(const AlgoStats& other) {
    heap_pushes += other.heap_pushes;
    heap_pops += other.heap_pops;
    heap_decrease_keys += other.heap_decrease_keys;
    node_expansions += other.node_expansions;
    spt_resume_hits += other.spt_resume_hits;
    spt_resume_misses += other.spt_resume_misses;
    iter_bound_rounds += other.iter_bound_rounds;
    spt_cache_hits += other.spt_cache_hits;
    spt_cache_misses += other.spt_cache_misses;
    bound_cache_hits += other.bound_cache_hits;
    bound_cache_misses += other.bound_cache_misses;
    spt_cache_insert_skips += other.spt_cache_insert_skips;
    candidates_generated += other.candidates_generated;
    candidates_pruned += other.candidates_pruned;
    lb_tightness_num += other.lb_tightness_num;
    lb_tightness_den += other.lb_tightness_den;
  }

  /// Mean ratio of lower bound to exact subspace length, in [0, 1].
  /// Returns 0 when no bound was ever confirmed against an exact length.
  double LowerBoundTightness() const {
    if (lb_tightness_den == 0) return 0.0;
    return static_cast<double>(lb_tightness_num) /
           static_cast<double>(lb_tightness_den);
  }

  bool operator==(const AlgoStats&) const = default;
};

/// Thread-safe accumulator of AlgoStats: one relaxed Counter per field.
/// The engine adds each finished query's counters here; Snapshot() yields
/// a plain AlgoStats whose values are exact sums (integer addition is
/// order-independent, so snapshots are identical across worker counts).
class AtomicAlgoStats {
 public:
  void Add(const AlgoStats& s) {
    heap_pushes_.Add(s.heap_pushes);
    heap_pops_.Add(s.heap_pops);
    heap_decrease_keys_.Add(s.heap_decrease_keys);
    node_expansions_.Add(s.node_expansions);
    spt_resume_hits_.Add(s.spt_resume_hits);
    spt_resume_misses_.Add(s.spt_resume_misses);
    iter_bound_rounds_.Add(s.iter_bound_rounds);
    spt_cache_hits_.Add(s.spt_cache_hits);
    spt_cache_misses_.Add(s.spt_cache_misses);
    bound_cache_hits_.Add(s.bound_cache_hits);
    bound_cache_misses_.Add(s.bound_cache_misses);
    spt_cache_insert_skips_.Add(s.spt_cache_insert_skips);
    candidates_generated_.Add(s.candidates_generated);
    candidates_pruned_.Add(s.candidates_pruned);
    lb_tightness_num_.Add(s.lb_tightness_num);
    lb_tightness_den_.Add(s.lb_tightness_den);
  }

  AlgoStats Snapshot() const {
    AlgoStats s;
    s.heap_pushes = heap_pushes_.value();
    s.heap_pops = heap_pops_.value();
    s.heap_decrease_keys = heap_decrease_keys_.value();
    s.node_expansions = node_expansions_.value();
    s.spt_resume_hits = spt_resume_hits_.value();
    s.spt_resume_misses = spt_resume_misses_.value();
    s.iter_bound_rounds = iter_bound_rounds_.value();
    s.spt_cache_hits = spt_cache_hits_.value();
    s.spt_cache_misses = spt_cache_misses_.value();
    s.bound_cache_hits = bound_cache_hits_.value();
    s.bound_cache_misses = bound_cache_misses_.value();
    s.spt_cache_insert_skips = spt_cache_insert_skips_.value();
    s.candidates_generated = candidates_generated_.value();
    s.candidates_pruned = candidates_pruned_.value();
    s.lb_tightness_num = lb_tightness_num_.value();
    s.lb_tightness_den = lb_tightness_den_.value();
    return s;
  }

  void Reset() {
    heap_pushes_.Reset();
    heap_pops_.Reset();
    heap_decrease_keys_.Reset();
    node_expansions_.Reset();
    spt_resume_hits_.Reset();
    spt_resume_misses_.Reset();
    iter_bound_rounds_.Reset();
    spt_cache_hits_.Reset();
    spt_cache_misses_.Reset();
    bound_cache_hits_.Reset();
    bound_cache_misses_.Reset();
    spt_cache_insert_skips_.Reset();
    candidates_generated_.Reset();
    candidates_pruned_.Reset();
    lb_tightness_num_.Reset();
    lb_tightness_den_.Reset();
  }

 private:
  Counter heap_pushes_;
  Counter heap_pops_;
  Counter heap_decrease_keys_;
  Counter node_expansions_;
  Counter spt_resume_hits_;
  Counter spt_resume_misses_;
  Counter iter_bound_rounds_;
  Counter spt_cache_hits_;
  Counter spt_cache_misses_;
  Counter bound_cache_hits_;
  Counter bound_cache_misses_;
  Counter spt_cache_insert_skips_;
  Counter candidates_generated_;
  Counter candidates_pruned_;
  Counter lb_tightness_num_;
  Counter lb_tightness_den_;
};

}  // namespace kpj

#endif  // KPJ_CORE_INSTRUMENTATION_H_
