#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/cancellation.h"
#include "util/concurrency.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace kpj {
namespace {

/// JSON has no NaN/Inf literals; exposition substitutes 0 so downstream
/// parsers never choke on a freshly reset (empty) histogram.
double FiniteOrZero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

unsigned KpjEngine::ResolveThreads(const KpjEngineOptions& options) {
  return ResolveWorkerCount(options.threads, options.clamp_to_hardware);
}

KpjEngine::KpjEngine(const KpjInstance& instance, KpjEngineOptions options)
    : instance_(instance),
      options_(std::move(options)),
      pool_(ResolveThreads(options_)),
      solvers_(pool_.num_workers()),
      planner_(instance, options_.solver) {
  // Eagerly build one solver per worker so the first queries do not pay
  // the O(n) workspace allocations, and so construction fails fast if the
  // options are unusable. In auto mode the warm column is the planner's
  // cold default; its other choices fill the grid lazily on first use.
  Algorithm warm = options_.solver.algorithm;
  if (warm == Algorithm::kAuto) warm = planner_.ColdAlgorithm();
  KpjOptions warm_options = options_.solver;
  warm_options.algorithm = warm;
  for (unsigned w = 0; w < pool_.num_workers(); ++w) {
    solvers_[w][PlannerIndex(warm)] = MakeSolver(instance_, warm_options);
  }
  if (options_.cache_mb > 0) {
    size_t budget = options_.cache_mb * size_t{1024} * 1024;
    // The SPT substrate dominates (full trees vs. per-landmark scalars).
    spt_cache_ = std::make_unique<SptCache>(budget - budget / 4);
    bound_cache_ = std::make_unique<TargetBoundCache>(budget / 4);
    purged_epoch_.store(instance_.epoch(), std::memory_order_relaxed);
  }
}

KpjSolver* KpjEngine::SolverFor(unsigned worker, Algorithm algorithm) {
  std::unique_ptr<KpjSolver>& slot = solvers_[worker][PlannerIndex(algorithm)];
  if (slot == nullptr) {
    KpjOptions options = options_.solver;
    options.algorithm = algorithm;
    slot = MakeSolver(instance_, options);
  }
  return slot.get();
}

Result<KpjResult> KpjEngine::RunOne(const KpjQuery& query, double deadline_ms,
                                    unsigned worker, uint64_t query_id,
                                    const QueryContext& context) {
  CancellationToken token;
  const CancellationToken* cancel = nullptr;
  if (deadline_ms > 0.0) {
    token.SetDeadlineAfterMs(deadline_ms);
    cancel = &token;
  }

  QueryCacheContext cache_ctx;
  const QueryCacheContext* cache = nullptr;
  if (spt_cache_ != nullptr) {
    uint64_t epoch = instance_.epoch();
    uint64_t seen = purged_epoch_.load(std::memory_order_acquire);
    if (seen != epoch && purged_epoch_.compare_exchange_strong(
                             seen, epoch, std::memory_order_acq_rel)) {
      spt_cache_->PurgeOlderEpochs(epoch);
      bound_cache_->PurgeOlderEpochs(epoch);
    }
    cache_ctx.spt = spt_cache_.get();
    cache_ctx.bounds = bound_cache_.get();
    cache_ctx.epoch = epoch;
    cache = &cache_ctx;
  }

  // Resolve this query's algorithm: the per-query override wins over the
  // engine configuration; kAuto (from either) engages the planner. A
  // fixed algorithm never consults the planner at all.
  KpjOptions run_options = options_.solver;
  run_options.algorithm =
      context.algorithm.value_or(options_.solver.algorithm);
  const bool planned = run_options.algorithm == Algorithm::kAuto;
  const char* planner_reason = "";
  if (planned) {
    PlannerDecision decision =
        planner_.Plan(query, cache_ctx.spt, cache_ctx.epoch);
    run_options.algorithm = decision.algorithm;
    planner_reason = decision.reason;
    metrics_.planner_choice[PlannerIndex(decision.algorithm)].Increment();
    if (decision.fallback) metrics_.planner_fallback.Increment();
  }
  // Algorithms whose measured SPT-cache hit benefit is negative must not
  // pay the insert (sptp.cc skips the snapshot export and counts
  // spt_cache_insert_skips).
  cache_ctx.allow_sptp_insert =
      QueryPlanner::SptInsertBeneficial(run_options.algorithm);

  Timer timer;
  // Result<T> has no default constructor; the placeholder is overwritten.
  Result<KpjResult> result = Status::FailedPrecondition("query not executed");
  {
    // Bind the request's trace id to this worker thread for the duration of
    // the query: the engine.query span below and every solver span beneath
    // it inherit the id, so wire-level traces stitch end to end.
    TraceContext trace_ctx(context.trace_id);
    KPJ_TRACE_SPAN("engine.query");
    result = RunKpjOnInstance(instance_, query, run_options,
                              SolverFor(worker, run_options.algorithm),
                              cancel, cache);
  }
  double elapsed_ms = timer.ElapsedMillis();
  metrics_.latency.Record(elapsed_ms);

  if (planned && result.ok()) {
    // Stamp the decision provenance so api/server layers can report it.
    result.value().planner_reason = planner_reason;
  }

  if (!result.ok()) {
    metrics_.queries_failed.Increment();
    return result;
  }
  const KpjResult& r = result.value();
  if (r.status.ok()) {
    metrics_.queries_served.Increment();
  } else {
    metrics_.deadline_exceeded.Increment();
  }
  metrics_.paths_returned.Add(r.paths.size());
  metrics_.heap_pops.Add(r.stats.nodes_settled);
  metrics_.edges_relaxed.Add(r.stats.edges_relaxed);
  metrics_.sp_computations.Add(r.stats.shortest_path_computations);
  metrics_.algo.Add(r.stats.algo);

  if (options_.slow_query_ms > 0.0 &&
      (elapsed_ms >= options_.slow_query_ms || !r.status.ok())) {
    metrics_.slow_queries.Increment();
    internal::LogMessage log(LogLevel::kWarning, __FILE__, __LINE__);
    log << "slow query id=" << query_id;
    if (context.trace_id != 0) {
      log << " trace_id=" << FormatTraceId(context.trace_id);
    }
    log << " took " << elapsed_ms << " ms (threshold "
        << options_.slow_query_ms << " ms";
    if (deadline_ms > 0.0) {
      log << ", " << 100.0 * elapsed_ms / deadline_ms << "% of the "
          << deadline_ms << " ms deadline";
    }
    log << ") queue_ms=" << context.queue_ms
        << " algorithm=" << AlgorithmName(r.algorithm_used)
        << " expansions=" << r.stats.algo.node_expansions
        << " paths=" << r.paths.size() << " k=" << query.k
        << " sources=" << query.sources.size();
    if (!query.sources.empty()) log << " source=" << query.sources[0];
    log << " targets=" << query.targets.size();
    if (planned && r.planner_reason[0] != '\0') {
      log << " planner_reason=" << r.planner_reason;
    }
    if (!r.status.ok()) log << " status=" << r.status.ToString();
  }
  return result;
}

std::future<Result<KpjResult>> KpjEngine::Submit(KpjQuery query) {
  return Submit(std::move(query), options_.default_deadline_ms);
}

std::future<Result<KpjResult>> KpjEngine::Submit(KpjQuery query,
                                                 double deadline_ms) {
  return Submit(std::move(query), deadline_ms, QueryContext{});
}

std::future<Result<KpjResult>> KpjEngine::Submit(KpjQuery query,
                                                 double deadline_ms,
                                                 QueryContext context) {
  // ThreadPool::Task is a std::function (copyable), so the per-task state
  // lives behind a shared_ptr.
  struct PendingQuery {
    KpjQuery query;
    std::promise<Result<KpjResult>> promise;
  };
  auto pending = std::make_shared<PendingQuery>();
  pending->query = std::move(query);
  std::future<Result<KpjResult>> future = pending->promise.get_future();
  uint64_t id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  pool_.Submit([this, pending, deadline_ms, id, context](unsigned worker) {
    pending->promise.set_value(
        RunOne(pending->query, deadline_ms, worker, id, context));
  });
  return future;
}

std::vector<Result<KpjResult>> KpjEngine::RunBatch(
    std::span<const KpjQuery> queries) {
  return RunBatch(queries, options_.default_deadline_ms);
}

std::vector<Result<KpjResult>> KpjEngine::RunBatch(
    std::span<const KpjQuery> queries, double deadline_ms) {
  return RunBatch(queries, deadline_ms, QueryContext{});
}

std::vector<Result<KpjResult>> KpjEngine::RunBatch(
    std::span<const KpjQuery> queries, double deadline_ms,
    QueryContext context) {
  // Result<T> has no default constructor; prefill with a placeholder that
  // every executed index overwrites.
  std::vector<Result<KpjResult>> results;
  results.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    results.emplace_back(Status::FailedPrecondition("query not executed"));
  }
  // Ids are assigned by input position so a batch query's id does not
  // depend on worker scheduling.
  uint64_t base_id =
      next_query_id_.fetch_add(queries.size(), std::memory_order_relaxed);
  pool_.ParallelFor(queries.size(), [&](size_t i, unsigned worker) {
    results[i] = RunOne(queries[i], deadline_ms, worker, base_id + i, context);
  });
  return results;
}

EngineMetricsSnapshot KpjEngine::MetricsSnapshot() const {
  EngineMetricsSnapshot snap;
  snap.queries_served = metrics_.queries_served.value();
  snap.queries_failed = metrics_.queries_failed.value();
  snap.deadline_exceeded = metrics_.deadline_exceeded.value();
  snap.paths_returned = metrics_.paths_returned.value();
  snap.heap_pops = metrics_.heap_pops.value();
  snap.edges_relaxed = metrics_.edges_relaxed.value();
  snap.sp_computations = metrics_.sp_computations.value();
  snap.slow_queries = metrics_.slow_queries.value();
  snap.latency_count = metrics_.latency.count();
  snap.latency_mean_ms = metrics_.latency.Mean();
  snap.latency_min_ms = metrics_.latency.min_ms();
  snap.latency_max_ms = metrics_.latency.max_ms();
  snap.latency_p50_ms = metrics_.latency.Percentile(50.0);
  snap.latency_p90_ms = metrics_.latency.Percentile(90.0);
  snap.latency_p99_ms = metrics_.latency.Percentile(99.0);
  snap.algo = metrics_.algo.Snapshot();
  for (size_t a = 0; a < kNumPlannableAlgorithms; ++a) {
    snap.planner_choice[a] = metrics_.planner_choice[a].value();
  }
  snap.planner_fallback = metrics_.planner_fallback.value();
  if (spt_cache_ != nullptr) {
    SptCacheStats spt = spt_cache_->StatsSnapshot();
    TargetBoundCacheStats bounds = bound_cache_->StatsSnapshot();
    snap.spt_cache_insertions = spt.insertions;
    snap.spt_cache_evictions = spt.evictions;
    snap.bound_cache_evictions = bounds.evictions;
    snap.cache_bytes = spt.bytes + bounds.bytes;
  }
  return snap;
}

std::string KpjEngine::MetricsJson() const {
  EngineMetricsSnapshot s = MetricsSnapshot();
  std::ostringstream out;
  out << "{\n"
      << "  \"workers\": " << num_workers() << ",\n"
      << "  \"queries_served\": " << s.queries_served << ",\n"
      << "  \"queries_failed\": " << s.queries_failed << ",\n"
      << "  \"deadline_exceeded\": " << s.deadline_exceeded << ",\n"
      << "  \"slow_queries\": " << s.slow_queries << ",\n"
      << "  \"paths_returned\": " << s.paths_returned << ",\n"
      << "  \"heap_pops\": " << s.heap_pops << ",\n"
      << "  \"edges_relaxed\": " << s.edges_relaxed << ",\n"
      << "  \"sp_computations\": " << s.sp_computations << ",\n"
      << "  \"algo_heap_pushes\": " << s.algo.heap_pushes << ",\n"
      << "  \"algo_heap_pops\": " << s.algo.heap_pops << ",\n"
      << "  \"algo_heap_decrease_keys\": " << s.algo.heap_decrease_keys
      << ",\n"
      << "  \"algo_node_expansions\": " << s.algo.node_expansions << ",\n"
      << "  \"algo_spt_resume_hits\": " << s.algo.spt_resume_hits << ",\n"
      << "  \"algo_spt_resume_misses\": " << s.algo.spt_resume_misses
      << ",\n"
      << "  \"algo_iter_bound_rounds\": " << s.algo.iter_bound_rounds
      << ",\n"
      << "  \"algo_candidates_generated\": " << s.algo.candidates_generated
      << ",\n"
      << "  \"algo_candidates_pruned\": " << s.algo.candidates_pruned
      << ",\n"
      << "  \"algo_lb_tightness\": "
      << FiniteOrZero(s.algo.LowerBoundTightness()) << ",\n"
      << "  \"algo_spt_cache_hits\": " << s.algo.spt_cache_hits << ",\n"
      << "  \"algo_spt_cache_misses\": " << s.algo.spt_cache_misses << ",\n"
      << "  \"algo_bound_cache_hits\": " << s.algo.bound_cache_hits << ",\n"
      << "  \"algo_bound_cache_misses\": " << s.algo.bound_cache_misses
      << ",\n"
      << "  \"algo_spt_cache_insert_skips\": "
      << s.algo.spt_cache_insert_skips << ",\n";
  // Planner decision counters, one flat key per algorithm (display names
  // with '-' mapped to '_' so keys stay identifier-shaped), then the
  // aggregate and the GKPJ-fallback count.
  uint64_t planner_total = 0;
  for (size_t a = 0; a < kNumPlannableAlgorithms; ++a) {
    std::string name = AlgorithmName(kAllAlgorithms[a]);
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    out << "  \"planner_choice_" << name << "\": "
        << s.planner_choice[PlannerIndex(kAllAlgorithms[a])] << ",\n";
    planner_total += s.planner_choice[PlannerIndex(kAllAlgorithms[a])];
  }
  out << "  \"planner_choice_total\": " << planner_total << ",\n"
      << "  \"planner_fallback_total\": " << s.planner_fallback << ",\n"
      << "  \"spt_cache_insertions\": " << s.spt_cache_insertions << ",\n"
      << "  \"spt_cache_evictions\": " << s.spt_cache_evictions << ",\n"
      << "  \"bound_cache_evictions\": " << s.bound_cache_evictions << ",\n"
      << "  \"cache_bytes\": " << s.cache_bytes << ",\n"
      << "  \"latency_count\": " << s.latency_count << ",\n"
      << "  \"latency_mean_ms\": " << FiniteOrZero(s.latency_mean_ms)
      << ",\n"
      << "  \"latency_min_ms\": " << FiniteOrZero(s.latency_min_ms) << ",\n"
      << "  \"latency_max_ms\": " << FiniteOrZero(s.latency_max_ms) << ",\n"
      << "  \"latency_p50_ms\": " << FiniteOrZero(s.latency_p50_ms) << ",\n"
      << "  \"latency_p90_ms\": " << FiniteOrZero(s.latency_p90_ms) << ",\n"
      << "  \"latency_p99_ms\": " << FiniteOrZero(s.latency_p99_ms) << "\n"
      << "}";
  return out.str();
}

std::string KpjEngine::MetricsPrometheus() const {
  EngineMetricsSnapshot s = MetricsSnapshot();
  std::ostringstream out;
  auto counter = [&out](const char* name, const char* help, uint64_t value) {
    out << "# HELP " << name << " " << help << "\n"
        << "# TYPE " << name << " counter\n"
        << name << " " << value << "\n";
  };
  auto gauge = [&out](const char* name, const char* help, double value) {
    out << "# HELP " << name << " " << help << "\n"
        << "# TYPE " << name << " gauge\n"
        << name << " " << FiniteOrZero(value) << "\n";
  };

  gauge("kpj_workers", "Engine worker threads.",
        static_cast<double>(num_workers()));
  counter("kpj_queries_served_total", "Queries answered completely.",
          s.queries_served);
  counter("kpj_queries_failed_total", "Queries rejected by validation.",
          s.queries_failed);
  counter("kpj_queries_deadline_exceeded_total",
          "Queries stopped by deadline or cancellation.",
          s.deadline_exceeded);
  counter("kpj_slow_queries_total",
          "Queries at or above the slow-query threshold.", s.slow_queries);
  counter("kpj_paths_returned_total", "Result paths across all queries.",
          s.paths_returned);
  counter("kpj_sp_computations_total",
          "Exact shortest-path computations (CompSP).", s.sp_computations);
  counter("kpj_heap_pushes_total", "Priority-queue inserts in all searches.",
          s.algo.heap_pushes);
  counter("kpj_heap_pops_total", "Priority-queue pops in all searches.",
          s.algo.heap_pops);
  counter("kpj_heap_decrease_keys_total",
          "Priority-queue decrease-key operations.",
          s.algo.heap_decrease_keys);
  counter("kpj_node_expansions_total", "Nodes settled across all searches.",
          s.algo.node_expansions);
  counter("kpj_edges_relaxed_total", "Edges relaxed across all searches.",
          s.edges_relaxed);
  counter("kpj_spt_resume_hits_total",
          "SPT_I growth calls answered from the existing tree.",
          s.algo.spt_resume_hits);
  counter("kpj_spt_resume_misses_total",
          "SPT_I growth calls that settled new nodes.",
          s.algo.spt_resume_misses);
  counter("kpj_iter_bound_rounds_total",
          "Subspace re-tests after enlarging tau.", s.algo.iter_bound_rounds);
  counter("kpj_candidates_generated_total",
          "Candidate paths pushed into result queues.",
          s.algo.candidates_generated);
  counter("kpj_candidates_pruned_total",
          "Subspaces discarded without yielding a path.",
          s.algo.candidates_pruned);
  gauge("kpj_lower_bound_tightness_ratio",
        "Mean CompLB / exact-length ratio (1.0 = exact).",
        s.algo.LowerBoundTightness());
  // Raw tightness terms, labeled by the solver this engine runs: their
  // quotient is the ratio above, but as monotone counters they survive
  // scraping/rate() and make per-algorithm bound-quality comparisons
  // directly observable.
  {
    const char* algo_name = AlgorithmName(options_.solver.algorithm);
    auto labeled_counter = [&out, algo_name](const char* name,
                                             const char* help,
                                             uint64_t value) {
      out << "# HELP " << name << " " << help << "\n"
          << "# TYPE " << name << " counter\n"
          << name << "{algorithm=\"" << algo_name << "\"} " << value << "\n";
    };
    labeled_counter("kpj_lb_tightness_num_total",
                    "Sum of popped lower bounds at exact-path pops.",
                    s.algo.lb_tightness_num);
    labeled_counter("kpj_lb_tightness_den_total",
                    "Sum of exact path lengths at exact-path pops.",
                    s.algo.lb_tightness_den);
  }
  counter("kpj_spt_cache_hits_total",
          "Queries that adopted cached SPT/root-path state.",
          s.algo.spt_cache_hits);
  counter("kpj_spt_cache_misses_total",
          "SPT cache lookups that had to recompute.",
          s.algo.spt_cache_misses);
  counter("kpj_bound_cache_hits_total",
          "Landmark set aggregates served from cache.",
          s.algo.bound_cache_hits);
  counter("kpj_bound_cache_misses_total",
          "Landmark set aggregates computed afresh.",
          s.algo.bound_cache_misses);
  counter("kpj_spt_cache_insert_skips_total",
          "SPT cache insertions skipped (negative measured hit benefit).",
          s.algo.spt_cache_insert_skips);
  // Adaptive-planner decision counters, labeled by the chosen algorithm.
  out << "# HELP kpj_planner_choice_total Planner decisions by chosen "
         "algorithm (--algorithm=auto).\n"
      << "# TYPE kpj_planner_choice_total counter\n";
  for (Algorithm a : kAllAlgorithms) {
    out << "kpj_planner_choice_total{algorithm=\"" << AlgorithmName(a)
        << "\"} " << s.planner_choice[PlannerIndex(a)] << "\n";
  }
  counter("kpj_planner_fallback_total",
          "Planner decisions the cache probes could not help (GKPJ).",
          s.planner_fallback);
  counter("kpj_spt_cache_evictions_total",
          "SPT cache entries evicted (LRU or epoch purge).",
          s.spt_cache_evictions);
  counter("kpj_bound_cache_evictions_total",
          "Bound cache entries evicted (LRU or epoch purge).",
          s.bound_cache_evictions);
  gauge("kpj_cache_bytes", "Resident bytes across both reuse caches.",
        static_cast<double>(s.cache_bytes));

  // Histograms with Prometheus cumulative buckets.
  auto histogram = [&out](const char* name, const char* help,
                          const LatencyHistogram& h) {
    out << "# HELP " << name << " " << help << "\n"
        << "# TYPE " << name << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      cumulative += h.bucket_count(b);
      double ub = LatencyHistogram::BucketUpperBoundMs(b);
      out << name << "_bucket{le=\"";
      if (std::isinf(ub)) {
        out << "+Inf";
      } else {
        out << ub;
      }
      out << "\"} " << cumulative << "\n";
    }
    out << name << "_sum " << FiniteOrZero(h.sum_ms()) << "\n"
        << name << "_count " << h.count() << "\n";
  };
  histogram("kpj_query_latency_ms", "Per-query wall time in milliseconds.",
            metrics_.latency);
  return out.str();
}

void KpjEngine::ResetMetrics() {
  metrics_.queries_served.Reset();
  metrics_.queries_failed.Reset();
  metrics_.deadline_exceeded.Reset();
  metrics_.paths_returned.Reset();
  metrics_.heap_pops.Reset();
  metrics_.edges_relaxed.Reset();
  metrics_.sp_computations.Reset();
  metrics_.slow_queries.Reset();
  metrics_.latency.Reset();
  metrics_.algo.Reset();
  for (Counter& c : metrics_.planner_choice) c.Reset();
  metrics_.planner_fallback.Reset();
  if (spt_cache_ != nullptr) {
    spt_cache_->ResetStats();
    bound_cache_->ResetStats();
  }
}

}  // namespace kpj
