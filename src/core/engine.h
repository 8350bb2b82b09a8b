#ifndef KPJ_CORE_ENGINE_H_
#define KPJ_CORE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/instrumentation.h"
#include "core/kpj_instance.h"
#include "core/kpj_query.h"
#include "core/planner.h"
#include "core/solver.h"
#include "core/spt_cache.h"
#include "index/target_bound.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace kpj {

/// Engine configuration, fixed at construction.
struct KpjEngineOptions {
  /// Worker threads. 0 picks the hardware concurrency.
  unsigned threads = 0;
  /// Apply the advisory hardware clamp to an explicit `threads` request.
  /// Turn off to deliberately oversubscribe (determinism and sanitizer
  /// tests run N workers on fewer cores; correctness is unaffected).
  bool clamp_to_hardware = true;
  /// Deadline applied to every query that does not carry its own, in
  /// milliseconds. 0 disables (queries run to completion).
  double default_deadline_ms = 0.0;
  /// Solver selection and knobs. `solver.oracle` may be left null: the
  /// instance's landmarks are used (ResolveOptions).
  KpjOptions solver;
  /// Slow-query log threshold in milliseconds; queries at or above it are
  /// reported through KPJ_LOG(Warning) with their query id, the solver and
  /// planner rule that ran, the query's shape (k, source count, first
  /// source, target count) and, when a deadline applies, the fraction of
  /// it consumed. Deadline-exceeded queries are always logged while the
  /// threshold is active. 0 disables.
  double slow_query_ms = 0.0;
  /// Cross-query reuse cache budget in MiB, split between the SPT cache
  /// (3/4) and the category-bound cache (1/4); see DESIGN.md "Cross-query
  /// reuse". 0 (the default) disables caching entirely. Results are
  /// byte-identical either way, at any worker count — the caches only
  /// shortcut recomputation of state a cold run reaches at the same
  /// program point. The CLI defaults this to 64 (--cache-mb/--no-cache).
  size_t cache_mb = 0;
};

/// Per-query service context threaded down from the server layer. The
/// trace id tags every span the query records (TraceContext), stitching
/// engine/solver spans into the request's wire-level timeline; queue_ms is
/// the admission wait, reported by the slow-query log so slow-log lines
/// join access-log lines on the same trace id. All-defaults (the common
/// in-process case) means "no trace, no queue".
struct QueryContext {
  uint64_t trace_id = 0;
  double queue_ms = 0.0;
  /// Per-query algorithm override (additive wire field `algorithm`):
  /// nullopt runs the engine's configured algorithm; a concrete value
  /// forces that solver for this query only; Algorithm::kAuto engages the
  /// planner for this query even on a fixed-algorithm engine.
  std::optional<Algorithm> algorithm;
};

/// Point-in-time copy of the engine's execution metrics. Counts are sums
/// over all workers since construction (or the last ResetMetrics).
struct EngineMetricsSnapshot {
  uint64_t queries_served = 0;      ///< Completed OK with a full answer.
  uint64_t queries_failed = 0;      ///< Rejected (validation) queries.
  uint64_t deadline_exceeded = 0;   ///< Stopped by deadline/cancellation.
  uint64_t paths_returned = 0;      ///< Paths across all results.
  uint64_t heap_pops = 0;           ///< Nodes settled across all searches.
  uint64_t edges_relaxed = 0;
  uint64_t sp_computations = 0;     ///< Exact shortest-path computations.
  uint64_t slow_queries = 0;        ///< Queries past the slow-query bar.
  uint64_t latency_count = 0;       ///< Queries with a recorded latency.
  double latency_mean_ms = 0.0;
  double latency_min_ms = 0.0;
  double latency_max_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Aggregated per-query algorithm counters (exact integer sums; identical
  /// for the same workload at any worker count).
  AlgoStats algo;
  /// Cross-query cache object counters (all zero when caching is off).
  /// Hit/miss counts live in `algo` (they are per-query solver events).
  uint64_t spt_cache_insertions = 0;
  uint64_t spt_cache_evictions = 0;
  uint64_t bound_cache_evictions = 0;
  uint64_t cache_bytes = 0;  ///< Current resident bytes across both caches.
  /// Adaptive-planner decisions per chosen algorithm (indexed by
  /// PlannerIndex; all zero when no query engaged the planner) and the
  /// fallback count (GKPJ queries the cache probes cannot help).
  std::array<uint64_t, kNumPlannableAlgorithms> planner_choice{};
  uint64_t planner_fallback = 0;
};

/// Concurrent KPJ query engine over one immutable KpjInstance.
///
/// Owns a fixed ThreadPool and one KpjSolver per worker, so every query
/// reuses a warm per-worker workspace (epoch-reset arrays, heaps) without
/// any locking — a worker only ever touches its own solver. Queries are
/// submitted one-shot (Submit -> future) or as an order-preserving batch
/// (RunBatch), optionally bounded by a per-query deadline enforced through
/// the cooperative CancellationToken threaded into the solver loops.
///
/// Results are deterministic: a query's answer does not depend on the
/// number of workers or on what else is in flight, because solvers share
/// nothing but the read-only instance.
///
/// The instance must outlive the engine and must not be moved while the
/// engine exists (solvers keep references into it).
class KpjEngine {
 public:
  explicit KpjEngine(const KpjInstance& instance,
                     KpjEngineOptions options = {});

  /// Destruction waits for in-flight and queued queries to finish.
  ~KpjEngine() = default;

  KpjEngine(const KpjEngine&) = delete;
  KpjEngine& operator=(const KpjEngine&) = delete;

  unsigned num_workers() const { return pool_.num_workers(); }
  const KpjInstance& instance() const { return instance_; }
  const KpjEngineOptions& options() const { return options_; }

  /// Enqueues one query (original ids) and returns a future for its
  /// result. Uses the engine's default deadline.
  std::future<Result<KpjResult>> Submit(KpjQuery query);

  /// Enqueues one query with an explicit deadline in milliseconds
  /// (0 = run to completion, overriding the engine default).
  std::future<Result<KpjResult>> Submit(KpjQuery query, double deadline_ms);

  /// Submit with a service context (trace id + queue wait); see
  /// QueryContext.
  std::future<Result<KpjResult>> Submit(KpjQuery query, double deadline_ms,
                                        QueryContext context);

  /// Runs every query in `queries` across the pool and returns results in
  /// input order. Uses the engine's default deadline. Blocks the caller;
  /// concurrent Submit calls interleave safely on the same pool.
  std::vector<Result<KpjResult>> RunBatch(std::span<const KpjQuery> queries);

  /// RunBatch with an explicit per-query deadline (0 = no deadline).
  std::vector<Result<KpjResult>> RunBatch(std::span<const KpjQuery> queries,
                                          double deadline_ms);

  /// RunBatch with a service context shared by every entry.
  std::vector<Result<KpjResult>> RunBatch(std::span<const KpjQuery> queries,
                                          double deadline_ms,
                                          QueryContext context);

  EngineMetricsSnapshot MetricsSnapshot() const;

  /// Metrics as a JSON object (stable keys; for --metrics-json and
  /// dashboards).
  std::string MetricsJson() const;

  /// Metrics in Prometheus text exposition format (`# HELP`/`# TYPE`
  /// comments, `kpj_`-prefixed counters, and the latency histogram with
  /// cumulative `le` buckets).
  std::string MetricsPrometheus() const;

  void ResetMetrics();

 private:
  /// Executes one query on `worker`'s pooled solver, recording metrics.
  /// `query_id` is a per-engine sequence number used by the trace span and
  /// the slow-query log.
  Result<KpjResult> RunOne(const KpjQuery& query, double deadline_ms,
                           unsigned worker, uint64_t query_id,
                           const QueryContext& context);

  static unsigned ResolveThreads(const KpjEngineOptions& options);

  /// Returns worker `worker`'s pooled solver for `algorithm`, building it
  /// on first use. Each worker only ever touches its own row of the grid,
  /// so no synchronization is needed.
  KpjSolver* SolverFor(unsigned worker, Algorithm algorithm);

  const KpjInstance& instance_;
  const KpjEngineOptions options_;
  ThreadPool pool_;
  /// Per-worker solver grid, indexed [worker][PlannerIndex(algorithm)].
  /// Fixed-algorithm engines eagerly build one column (fail-fast, warm
  /// first query); the planner's other choices fill in lazily on first
  /// use. Workers use only their own row, so no synchronization is
  /// needed.
  std::vector<
      std::array<std::unique_ptr<KpjSolver>, kNumPlannableAlgorithms>>
      solvers_;
  /// The rule-table planner behind `--algorithm=auto`. Consulted only for
  /// queries whose effective algorithm is kAuto (the engine's or a
  /// per-query override); fixed-algorithm queries bypass it entirely.
  const QueryPlanner planner_;
  /// Cross-query reuse caches, shared by all workers (both are internally
  /// synchronized). Null when options_.cache_mb == 0.
  std::unique_ptr<SptCache> spt_cache_;
  std::unique_ptr<TargetBoundCache> bound_cache_;
  /// Last instance epoch a worker observed; on a change the stale entries
  /// are purged eagerly (lookups could never hit them anyway — the epoch
  /// is part of every cache key).
  std::atomic<uint64_t> purged_epoch_{0};

  struct Metrics {
    Counter queries_served;
    Counter queries_failed;
    Counter deadline_exceeded;
    Counter paths_returned;
    Counter heap_pops;
    Counter edges_relaxed;
    Counter sp_computations;
    Counter slow_queries;
    LatencyHistogram latency;
    AtomicAlgoStats algo;
    /// Planner decisions by chosen algorithm, plus GKPJ fallbacks.
    std::array<Counter, kNumPlannableAlgorithms> planner_choice;
    Counter planner_fallback;
  };
  Metrics metrics_;
  /// Monotonic query-id source shared by Submit and RunBatch.
  std::atomic<uint64_t> next_query_id_{0};
};

}  // namespace kpj

#endif  // KPJ_CORE_ENGINE_H_
