// Observability layer: AlgoStats population per algorithm, deterministic
// counters (run-to-run and across engine worker counts), slow-query
// accounting, and the JSON / Prometheus metrics expositions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/api.h"
#include "core/engine.h"
#include "core/instrumentation.h"
#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "gen/road_gen.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph TestGraph(uint32_t nodes = 3000, uint64_t seed = 55) {
  RoadGenOptions opt;
  opt.target_nodes = nodes;
  opt.seed = seed;
  return GenerateRoadNetwork(opt).graph;
}

std::vector<KpjQuery> TestQueries(NodeId num_nodes, size_t count = 16,
                                  uint32_t k = 6) {
  Rng rng(9);
  std::vector<KpjQuery> queries(count);
  for (auto& q : queries) {
    q.sources = {static_cast<NodeId>(rng.NextBounded(num_nodes))};
    for (uint64_t t : rng.SampleDistinct(4, num_nodes)) {
      q.targets.push_back(static_cast<NodeId>(t));
    }
    q.k = k;
  }
  return queries;
}

TEST(AlgoStatsTest, AccumulateSumsEveryField) {
  AlgoStats a;
  a.heap_pushes = 1;
  a.heap_pops = 2;
  a.heap_decrease_keys = 3;
  a.node_expansions = 4;
  a.spt_resume_hits = 5;
  a.spt_resume_misses = 6;
  a.iter_bound_rounds = 7;
  a.candidates_generated = 8;
  a.candidates_pruned = 9;
  a.lb_tightness_num = 10;
  a.lb_tightness_den = 20;
  AlgoStats b = a;
  b.Accumulate(a);
  EXPECT_EQ(b.heap_pushes, 2u);
  EXPECT_EQ(b.heap_pops, 4u);
  EXPECT_EQ(b.heap_decrease_keys, 6u);
  EXPECT_EQ(b.node_expansions, 8u);
  EXPECT_EQ(b.spt_resume_hits, 10u);
  EXPECT_EQ(b.spt_resume_misses, 12u);
  EXPECT_EQ(b.iter_bound_rounds, 14u);
  EXPECT_EQ(b.candidates_generated, 16u);
  EXPECT_EQ(b.candidates_pruned, 18u);
  EXPECT_DOUBLE_EQ(b.LowerBoundTightness(), 0.5);

  AlgoStats empty;
  EXPECT_DOUBLE_EQ(empty.LowerBoundTightness(), 0.0);
  empty.Reset();
  EXPECT_EQ(empty, AlgoStats{});
}

TEST(AlgoStatsTest, AtomicMirrorsPlainAccumulation) {
  AlgoStats delta;
  delta.heap_pushes = 11;
  delta.node_expansions = 7;
  delta.lb_tightness_num = 3;
  delta.lb_tightness_den = 4;
  AtomicAlgoStats atomic;
  atomic.Add(delta);
  atomic.Add(delta);
  AlgoStats snap = atomic.Snapshot();
  EXPECT_EQ(snap.heap_pushes, 22u);
  EXPECT_EQ(snap.node_expansions, 14u);
  EXPECT_EQ(snap.lb_tightness_num, 6u);
  EXPECT_EQ(snap.lb_tightness_den, 8u);
  atomic.Reset();
  EXPECT_EQ(atomic.Snapshot(), AlgoStats{});
}

TEST(ObservabilityTest, EveryAlgorithmPopulatesCoreCounters) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  const KpjInstance& instance = made.value();
  KpjQuery query;
  query.sources = {5};
  query.targets = {400, 900, 1400, 2100};
  query.k = 6;

  for (Algorithm a : kAllAlgorithms) {
    KpjOptions options;
    options.algorithm = a;
    Result<KpjResult> result = RunKpj(instance, query, options);
    ASSERT_TRUE(result.ok()) << AlgorithmName(a);
    const AlgoStats& stats = result.value().stats.algo;
    // Every solver drives at least one priority queue.
    EXPECT_GT(stats.heap_pushes, 0u) << AlgorithmName(a);
    EXPECT_GT(stats.heap_pops, 0u) << AlgorithmName(a);
    EXPECT_GT(stats.node_expansions, 0u) << AlgorithmName(a);
    // Each returned path had to be generated as a candidate first.
    EXPECT_GE(stats.candidates_generated, result.value().paths.size())
        << AlgorithmName(a);
  }
}

TEST(ObservabilityTest, IterBoundVariantsReportTheirSpecificCounters) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  KpjQuery query;
  query.sources = {5};
  query.targets = {400, 900, 1400, 2100};
  query.k = 8;

  KpjOptions options;
  options.algorithm = Algorithm::kIterBoundSptI;
  Result<KpjResult> result = RunKpj(made.value(), query, options);
  ASSERT_TRUE(result.ok());
  const AlgoStats& stats = result.value().stats.algo;
  // SPT_I grows one shared tree: each growth call either resumes into the
  // existing frontier (hit) or settles new nodes (miss); at least the first
  // call must be a miss.
  EXPECT_GT(stats.spt_resume_hits + stats.spt_resume_misses, 0u);
  EXPECT_GT(stats.spt_resume_misses, 0u);
  // Lower-bound tightness is a ratio of sums of path lengths in (0, 1].
  ASSERT_GT(stats.lb_tightness_den, 0u);
  EXPECT_GT(stats.LowerBoundTightness(), 0.0);
  EXPECT_LE(stats.LowerBoundTightness(), 1.0 + 1e-9);
}

TEST(ObservabilityTest, CountersAreDeterministicRunToRun) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  KpjQuery query;
  query.sources = {17};
  query.targets = {300, 1100, 2500};
  query.k = 5;
  for (Algorithm a : kAllAlgorithms) {
    KpjOptions options;
    options.algorithm = a;
    Result<KpjResult> first = RunKpj(made.value(), query, options);
    Result<KpjResult> second = RunKpj(made.value(), query, options);
    ASSERT_TRUE(first.ok() && second.ok()) << AlgorithmName(a);
    EXPECT_EQ(first.value().stats.algo, second.value().stats.algo)
        << AlgorithmName(a);
  }
}

TEST(ObservabilityTest, EngineAggregateIsIdenticalAcrossWorkerCounts) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes());

  AlgoStats reference;
  bool have_reference = false;
  for (unsigned threads : {1u, 2u, 4u}) {
    api::EngineConfig config;
    config.workers = threads;
    config.clamp_to_hardware = false;
    KpjEngine engine(made.value(), config.ToEngineOptions());
    for (const Result<KpjResult>& r : engine.RunBatch(queries)) {
      ASSERT_TRUE(r.ok());
    }
    AlgoStats aggregate = engine.MetricsSnapshot().algo;
    EXPECT_GT(aggregate.heap_pops, 0u);
    if (!have_reference) {
      reference = aggregate;
      have_reference = true;
    } else {
      EXPECT_EQ(aggregate, reference) << "threads=" << threads;
    }
  }
}

TEST(ObservabilityTest, SlowQueryThresholdCountsAndLogs) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes(), 4);

  // Threshold far below any real query: everything is "slow".
  api::EngineConfig config;
  config.workers = 1;
  config.slow_query_ms = 1e-6;
  KpjEngine engine(made.value(), config.ToEngineOptions());
  testing::internal::CaptureStderr();
  std::vector<Result<KpjResult>> results = engine.RunBatch(queries);
  const std::string log = testing::internal::GetCapturedStderr();
  for (const Result<KpjResult>& r : results) {
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(engine.MetricsSnapshot().slow_queries, queries.size());
  // Each line carries the query's shape, so the planner row that chose
  // the solver can be read off the line.
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string shape =
        " k=" + std::to_string(queries[i].k) + " sources=1 source=" +
        std::to_string(queries[i].sources[0]) +
        " targets=" + std::to_string(queries[i].targets.size());
    const size_t line = log.find("slow query id=" + std::to_string(i) + " ");
    ASSERT_NE(line, std::string::npos) << log;
    EXPECT_NE(log.substr(line, log.find('\n', line) - line).find(shape),
              std::string::npos)
        << "query " << i << " lacks '" << shape << "' in:\n" << log;
  }

  // Disabled threshold: nothing is slow.
  api::EngineConfig quiet;
  quiet.workers = 1;
  KpjEngine quiet_engine(made.value(), quiet.ToEngineOptions());
  for (const Result<KpjResult>& r : quiet_engine.RunBatch(queries)) {
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(quiet_engine.MetricsSnapshot().slow_queries, 0u);
}

TEST(ObservabilityTest, MetricsJsonCarriesAlgoCounters) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes(), 4);
  api::EngineConfig config;
  config.workers = 1;
  KpjEngine engine(made.value(), config.ToEngineOptions());
  for (const Result<KpjResult>& r : engine.RunBatch(queries)) {
    ASSERT_TRUE(r.ok());
  }
  std::string json = engine.MetricsJson();
  for (const char* key :
       {"\"algo_heap_pushes\"", "\"algo_heap_pops\"",
        "\"algo_heap_decrease_keys\"", "\"algo_node_expansions\"",
        "\"algo_spt_resume_hits\"", "\"algo_spt_resume_misses\"",
        "\"algo_iter_bound_rounds\"", "\"algo_candidates_generated\"",
        "\"algo_candidates_pruned\"", "\"algo_lb_tightness\"",
        "\"slow_queries\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // JSON must stay parseable: no NaN/Inf literals even on odd inputs.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ObservabilityTest, MetricsPrometheusIsWellFormed) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes(), 4);
  api::EngineConfig config;
  config.workers = 1;
  KpjEngine engine(made.value(), config.ToEngineOptions());
  for (const Result<KpjResult>& r : engine.RunBatch(queries)) {
    ASSERT_TRUE(r.ok());
  }
  std::string text = engine.MetricsPrometheus();
  for (const char* needle :
       {"# TYPE kpj_queries_served_total counter",
        "# TYPE kpj_workers gauge",
        "# TYPE kpj_heap_pushes_total counter",
        "# TYPE kpj_node_expansions_total counter",
        "# TYPE kpj_query_latency_ms histogram",
        "kpj_query_latency_ms_bucket{le=\"+Inf\"}",
        "kpj_query_latency_ms_sum", "kpj_query_latency_ms_count"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // The +Inf bucket equals the total count (cumulative buckets).
  std::string inf_line = "kpj_query_latency_ms_bucket{le=\"+Inf\"} " +
                         std::to_string(queries.size());
  EXPECT_NE(text.find(inf_line), std::string::npos);

  // An empty engine must expose zeros, not NaN.
  engine.ResetMetrics();
  std::string empty = engine.MetricsPrometheus();
  EXPECT_EQ(empty.find("nan"), std::string::npos);
  EXPECT_EQ(empty.find("inf"), std::string::npos);
  EXPECT_NE(empty.find("kpj_query_latency_ms_count 0"), std::string::npos);
}

}  // namespace
}  // namespace kpj
