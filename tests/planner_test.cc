#include "core/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/kpj_instance.h"
#include "core/kpj_query.h"
#include "gen/road_gen.h"
#include "index/landmark_index.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph TestGraph(uint32_t nodes = 3000, uint64_t seed = 55) {
  RoadGenOptions opt;
  opt.target_nodes = nodes;
  opt.seed = seed;
  return GenerateRoadNetwork(opt).graph;
}

KpjInstance MakeInstance(bool landmarks, uint32_t nodes = 3000) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph(nodes));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  KpjInstance instance = std::move(made).value();
  if (landmarks) {
    LandmarkIndexOptions opt;
    opt.num_landmarks = 4;
    EXPECT_TRUE(instance
                    .AttachLandmarks(LandmarkIndex::Build(
                        instance.graph(), instance.reverse(), opt))
                    .ok());
  }
  return instance;
}

KpjQuery MakeQuery(NodeId num_nodes, uint64_t seed, size_t num_targets = 4,
                   uint32_t k = 6) {
  Rng rng(seed);
  KpjQuery q;
  q.sources = {static_cast<NodeId>(rng.NextBounded(num_nodes))};
  for (uint64_t t : rng.SampleDistinct(num_targets, num_nodes)) {
    q.targets.push_back(static_cast<NodeId>(t));
  }
  q.k = k;
  return q;
}

/// Byte-level canonical rendering of one answer: lengths and node
/// sequences in rank order.
std::string CanonicalPaths(const Result<KpjResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "<error>";
  std::string out;
  for (const Path& p : result.value().paths) {
    out += " [" + std::to_string(p.length) + ":";
    for (NodeId v : p.nodes) out += " " + std::to_string(v);
    out += "]";
  }
  return out;
}

KpjEngineOptions AutoOptions(unsigned workers, size_t cache_mb) {
  KpjEngineOptions opt;
  opt.threads = workers;
  opt.clamp_to_hardware = false;  // determinism at any core count
  opt.cache_mb = cache_mb;
  opt.solver.algorithm = Algorithm::kAuto;
  return opt;
}

/// `count` distinct node ids drawn from `seed`: one target category.
std::vector<NodeId> MakeCategory(const KpjInstance& instance, size_t count,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> category;
  for (uint64_t t : rng.SampleDistinct(count, instance.NumNodes())) {
    category.push_back(static_cast<NodeId>(t));
  }
  return category;
}

/// A source drawn from `seed` that lies outside `targets`: a source inside
/// the set would be dropped from the canonical target set, which changes
/// both its size and the cache key.
NodeId SourceOutside(const KpjInstance& instance,
                     const std::vector<NodeId>& targets, uint64_t seed) {
  Rng source_rng(seed);
  for (;;) {
    NodeId s =
        static_cast<NodeId>(source_rng.NextBounded(instance.NumNodes()));
    if (std::find(targets.begin(), targets.end(), s) == targets.end()) {
      return s;
    }
  }
}

/// A single-source query from outside `targets` toward all of them.
KpjQuery JoinQuery(const KpjInstance& instance,
                   const std::vector<NodeId>& targets, uint64_t source_seed,
                   uint32_t k = 6) {
  KpjQuery q;
  q.sources = {SourceOutside(instance, targets, source_seed)};
  q.targets = targets;
  q.k = k;
  return q;
}

KpjOptions AutoBase() {
  KpjOptions base;
  base.algorithm = Algorithm::kAuto;
  return base;
}

void ExpectDecision(const PlannerDecision& d, Algorithm algorithm,
                    const char* reason, bool fallback = false) {
  EXPECT_EQ(d.algorithm, algorithm) << AlgorithmName(d.algorithm);
  EXPECT_STREQ(d.reason, reason);
  EXPECT_EQ(d.fallback, fallback);
}

// --- The rule table, row by row --------------------------------------------

TEST(QueryPlannerTest, Row1GkpjTakesTheColdSolverAndCountsAFallback) {
  SptCache cache(1 << 20);
  for (bool landmarks : {true, false}) {
    KpjInstance instance = MakeInstance(landmarks);
    QueryPlanner planner(instance, AutoBase());
    // Category-sized and small k: GKPJ still wins over rows 2-4.
    KpjQuery gkpj = JoinQuery(instance, MakeCategory(instance, 40, 11), 12);
    gkpj.sources.push_back(SourceOutside(instance, gkpj.targets, 13));
    ExpectDecision(planner.Plan(gkpj, &cache, 0),
                   landmarks ? Algorithm::kIterBoundSptI
                             : Algorithm::kIterBoundSptINoLm,
                   "gkpj_no_cache", /*fallback=*/true);
  }
}

TEST(QueryPlannerTest, Row2OracleAlwaysRunsIterBoundI) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  QueryPlanner planner(instance, AutoBase());
  EXPECT_EQ(planner.ColdAlgorithm(), Algorithm::kIterBoundSptI);
  SptCache cache(1 << 20);
  const std::vector<NodeId> category = MakeCategory(instance, 40, 15);
  for (const SptCache* probe : {&cache, static_cast<SptCache*>(nullptr)}) {
    ExpectDecision(planner.Plan(MakeQuery(instance.NumNodes(), 14), probe, 0),
                   Algorithm::kIterBoundSptI, "cold_profile_best");
    ExpectDecision(planner.Plan(JoinQuery(instance, category, 16), probe, 0),
                   Algorithm::kIterBoundSptI, "cold_profile_best");
  }
}

TEST(QueryPlannerTest, Row4CategorySizeBoundaryIs32Targets) {
  KpjInstance instance = MakeInstance(/*landmarks=*/false);
  QueryPlanner planner(instance, AutoBase());
  SptCache cache(1 << 20);
  const std::vector<NodeId> category =
      MakeCategory(instance, kPlannerCategoryTargets, 17);
  ExpectDecision(planner.Plan(JoinQuery(instance, category, 18), &cache, 0),
                 Algorithm::kDaSpt, "category_targets_seed_spt");
  const std::vector<NodeId> smaller(category.begin(), category.end() - 1);
  ExpectDecision(planner.Plan(JoinQuery(instance, smaller, 18), &cache, 0),
                 Algorithm::kIterBoundSptINoLm, "no_oracle");

  // The count is over the canonical set: duplicates and the source itself
  // do not make a 31-target query category-sized.
  KpjQuery padded = JoinQuery(instance, smaller, 18);
  padded.targets.push_back(smaller.front());
  padded.targets.push_back(padded.sources[0]);
  ExpectDecision(planner.Plan(padded, &cache, 0),
                 Algorithm::kIterBoundSptINoLm, "no_oracle");
}

TEST(QueryPlannerTest, Row4LargeKBoundaryIs64) {
  KpjInstance instance = MakeInstance(/*landmarks=*/false);
  QueryPlanner planner(instance, AutoBase());
  SptCache cache(1 << 20);
  const std::vector<NodeId> category = MakeCategory(instance, 40, 19);
  ExpectDecision(
      planner.Plan(JoinQuery(instance, category, 20, kPlannerLargeK - 1),
                   &cache, 0),
      Algorithm::kDaSpt, "category_targets_seed_spt");
  ExpectDecision(
      planner.Plan(JoinQuery(instance, category, 20, kPlannerLargeK), &cache,
                   0),
      Algorithm::kIterBoundSptINoLm, "no_oracle");
}

TEST(QueryPlannerTest, Row5CacheOffOrSmallSetRunsNoLandmarkSolver) {
  KpjInstance instance = MakeInstance(/*landmarks=*/false);
  QueryPlanner planner(instance, AutoBase());
  EXPECT_EQ(planner.ColdAlgorithm(), Algorithm::kIterBoundSptINoLm);
  // Cache off: a category-sized set cannot seed anything.
  ExpectDecision(
      planner.Plan(JoinQuery(instance, MakeCategory(instance, 40, 21), 22),
                   nullptr, 0),
      Algorithm::kIterBoundSptINoLm, "no_oracle");
  SptCache cache(1 << 20);
  ExpectDecision(planner.Plan(MakeQuery(instance.NumNodes(), 23), &cache, 0),
                 Algorithm::kIterBoundSptINoLm, "no_oracle");
}

// --- Engine-level behavior --------------------------------------------------

TEST(PlannerEngineTest, FixedAlgorithmEnginesBypassThePlanner) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngineOptions opt = AutoOptions(2, /*cache_mb=*/16);
  opt.solver.algorithm = Algorithm::kIterBoundSptI;
  KpjEngine engine(instance, opt);

  for (uint64_t i = 0; i < 8; ++i) {
    Result<KpjResult> r =
        engine.Submit(MakeQuery(instance.NumNodes(), 200 + i)).get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().algorithm_used, Algorithm::kIterBoundSptI);
    EXPECT_STREQ(r.value().planner_reason, "");
  }
  EngineMetricsSnapshot m = engine.MetricsSnapshot();
  for (uint64_t c : m.planner_choice) EXPECT_EQ(c, 0u);
  EXPECT_EQ(m.planner_fallback, 0u);
}

TEST(PlannerEngineTest, PerQueryAutoOverrideEngagesThePlanner) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngineOptions opt = AutoOptions(1, /*cache_mb=*/16);
  opt.solver.algorithm = Algorithm::kIterBoundSptP;  // fixed engine
  KpjEngine engine(instance, opt);

  QueryContext auto_ctx;
  auto_ctx.algorithm = Algorithm::kAuto;
  Result<KpjResult> r =
      engine.Submit(MakeQuery(instance.NumNodes(), 17), 0.0, auto_ctx).get();
  ASSERT_TRUE(r.ok());
  EXPECT_STRNE(r.value().planner_reason, "");

  uint64_t chosen = 0;
  for (uint64_t c : engine.MetricsSnapshot().planner_choice) chosen += c;
  EXPECT_EQ(chosen, 1u);
}

TEST(PlannerEngineTest, Row3ResidentReverseTreeRunsDaSpt) {
  // A small target set (row 4 cannot fire) whose reverse SPT a per-query
  // DA-SPT override made resident: every later source toward the same set
  // runs DA-SPT on that tree, until k reaches kPlannerLargeK.
  KpjInstance instance = MakeInstance(/*landmarks=*/false);
  KpjEngine engine(instance, AutoOptions(1, /*cache_mb=*/32));
  const std::vector<NodeId> pair = MakeCategory(instance, 4, 29);
  auto reason = [&](const KpjQuery& q) {
    Result<KpjResult> r = engine.Submit(q).get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::string(r.value().planner_reason);
  };

  EXPECT_EQ(reason(JoinQuery(instance, pair, 300)), "no_oracle");
  QueryContext force;
  force.algorithm = Algorithm::kDaSpt;
  ASSERT_TRUE(
      engine.Submit(JoinQuery(instance, pair, 301), 0.0, force).get().ok());
  EXPECT_EQ(reason(JoinQuery(instance, pair, 302)), "resident_best_dasp");
  EXPECT_EQ(reason(JoinQuery(instance, pair, 303, kPlannerLargeK - 1)),
            "resident_best_dasp");
  EXPECT_EQ(reason(JoinQuery(instance, pair, 304, kPlannerLargeK)),
            "no_oracle");
  // Both row-3 picks ran DA-SPT; the forced run bypassed the planner.
  EXPECT_EQ(engine.MetricsSnapshot()
                .planner_choice[PlannerIndex(Algorithm::kDaSpt)],
            2u);
}

TEST(PlannerEngineTest, CategoryJoinSeedsThenReusesTheReverseTree) {
  // The paper's join shape without an oracle: one 40-target category
  // queried from distinct sources. The first query seeds the reverse SPT
  // (row 4); every later one finds it resident (row 3).
  KpjInstance instance = MakeInstance(/*landmarks=*/false);
  KpjEngine engine(instance, AutoOptions(1, /*cache_mb=*/32));
  const std::vector<NodeId> category = MakeCategory(instance, 40, 29);
  std::vector<std::string> reasons;
  for (uint64_t seed = 310; seed < 314; ++seed) {
    Result<KpjResult> r = engine.Submit(JoinQuery(instance, category, seed))
                              .get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().algorithm_used, Algorithm::kDaSpt);
    reasons.push_back(r.value().planner_reason);
  }
  EXPECT_EQ(reasons,
            (std::vector<std::string>{
                "category_targets_seed_spt", "resident_best_dasp",
                "resident_best_dasp", "resident_best_dasp"}));
}

TEST(PlannerEngineTest, Row2HoldsWithAResidentReverseTree) {
  // With an oracle, a reverse SPT made resident by a per-query DA-SPT
  // override must not pull the planner off IterBound_I.
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngine engine(instance, AutoOptions(1, /*cache_mb=*/32));
  const std::vector<NodeId> category = MakeCategory(instance, 40, 33);
  QueryContext force;
  force.algorithm = Algorithm::kDaSpt;
  ASSERT_TRUE(engine.Submit(JoinQuery(instance, category, 320), 0.0, force)
                  .get()
                  .ok());
  ASSERT_GT(engine.MetricsSnapshot().spt_cache_insertions, 0u);
  for (uint64_t seed = 321; seed < 324; ++seed) {
    Result<KpjResult> r =
        engine.Submit(JoinQuery(instance, category, seed)).get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().algorithm_used, Algorithm::kIterBoundSptI);
    EXPECT_STREQ(r.value().planner_reason, "cold_profile_best");
  }
}

TEST(PlannerEngineTest, CategoryJoinWithOracleNeverPicksDaSpt) {
  // With landmarks attached the forward solvers beat even a resident
  // DA-SPT tree, so neither the category/repeat seed rules nor the
  // residency rules may fire: a 40-target category queried from many
  // sources and a small target set repeated must all run forward, with
  // answers byte-identical to a fixed IterBound_I engine.
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngine auto_engine(instance, AutoOptions(1, /*cache_mb=*/32));
  KpjEngineOptions fixed_opt = AutoOptions(1, /*cache_mb=*/0);
  fixed_opt.solver.algorithm = Algorithm::kIterBoundSptI;
  KpjEngine fixed_engine(instance, fixed_opt);

  const std::vector<NodeId> category = MakeCategory(instance, 40, 31);
  const std::vector<NodeId> pair = MakeCategory(instance, 2, 37);
  std::vector<KpjQuery> workload;
  for (uint64_t i = 0; i < 8; ++i) {
    KpjQuery q;
    q.sources = {SourceOutside(instance, category, 500 + i)};
    q.targets = category;
    q.k = 6;
    workload.push_back(std::move(q));
  }
  for (uint64_t i = 0; i < 3; ++i) {
    KpjQuery q;
    q.sources = {SourceOutside(instance, pair, 600 + i)};
    q.targets = pair;
    q.k = 6;
    workload.push_back(std::move(q));
  }

  for (size_t i = 0; i < workload.size(); ++i) {
    Result<KpjResult> chosen = auto_engine.Submit(workload[i]).get();
    ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
    const std::string reason = chosen.value().planner_reason;
    EXPECT_NE(chosen.value().algorithm_used, Algorithm::kDaSpt)
        << "query " << i << " (" << reason << ")";
    EXPECT_NE(reason, "category_targets_seed_spt") << "query " << i;
    EXPECT_NE(reason, "repeat_targets_seed_spt") << "query " << i;
    EXPECT_NE(reason.rfind("resident_", 0), 0u)
        << "query " << i << " (" << reason << ")";
    EXPECT_EQ(CanonicalPaths(chosen),
              CanonicalPaths(fixed_engine.Submit(workload[i]).get()))
        << "query " << i << " chosen "
        << AlgorithmName(chosen.value().algorithm_used) << " (" << reason
        << ")";
  }
  EXPECT_EQ(auto_engine.MetricsSnapshot()
                .planner_choice[PlannerIndex(Algorithm::kDaSpt)],
            0u);
}

TEST(PlannerEngineTest, AutoAnswersAreByteIdenticalToTheChosenSolver) {
  // The planner's core guarantee: it only changes WHICH solver runs.
  // Whatever it picks, the answer must be byte-identical to that solver
  // run standalone on a fresh engine.
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngine auto_engine(instance, AutoOptions(1, /*cache_mb=*/32));
  KpjEngine fixed_engine(instance, AutoOptions(1, /*cache_mb=*/0));

  // Mixed workload: ad-hoc queries plus a recurring 36-target category, so
  // category-sized and recurring target sets pass through the planner too.
  std::vector<KpjQuery> workload;
  Rng rng(59);
  std::vector<NodeId> category;
  for (uint64_t t : rng.SampleDistinct(36, instance.NumNodes())) {
    category.push_back(static_cast<NodeId>(t));
  }
  for (uint64_t i = 0; i < 18; ++i) {
    if (i % 3 == 0) {
      KpjQuery q;
      q.sources = {static_cast<NodeId>(Rng(400 + i).NextBounded(
          instance.NumNodes()))};
      q.targets = category;
      q.k = 6;
      workload.push_back(std::move(q));
    } else {
      workload.push_back(MakeQuery(instance.NumNodes(), 400 + i));
    }
  }

  for (size_t i = 0; i < workload.size(); ++i) {
    Result<KpjResult> chosen = auto_engine.Submit(workload[i]).get();
    ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
    QueryContext force;
    force.algorithm = chosen.value().algorithm_used;
    Result<KpjResult> standalone =
        fixed_engine.Submit(workload[i], 0.0, force).get();
    EXPECT_EQ(CanonicalPaths(chosen), CanonicalPaths(standalone))
        << "query " << i << " chosen "
        << AlgorithmName(chosen.value().algorithm_used) << " ("
        << chosen.value().planner_reason << ")";
  }
}

TEST(PlannerEngineTest, ChoicesAreIdenticalAcrossExecutionPoints) {
  // The table reads no clock and keeps no state, and with an oracle it
  // reads no cache either: the answers, the per-query choices and the
  // choice counters must be byte-identical at every (workers, cache)
  // point, for ad-hoc queries and a recurring category alike.
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  const std::vector<NodeId> category = MakeCategory(instance, 36, 41);
  std::vector<KpjQuery> workload;
  for (uint64_t i = 0; i < 16; ++i) {
    workload.push_back(i % 4 == 0 ? JoinQuery(instance, category, 700 + i)
                                  : MakeQuery(instance.NumNodes(), 700 + i));
  }

  struct Run {
    std::string paths;
    std::string choices;
    std::array<uint64_t, kNumPlannableAlgorithms> counts;
  };
  auto run = [&](unsigned workers, size_t cache_mb) {
    KpjEngine engine(instance, AutoOptions(workers, cache_mb));
    Run out;
    for (const Result<KpjResult>& r : engine.RunBatch(workload)) {
      out.paths += CanonicalPaths(r) + "\n";
      if (r.ok()) {
        out.choices += std::string(AlgorithmName(r.value().algorithm_used)) +
                       "/" + r.value().planner_reason + "\n";
      }
    }
    out.counts = engine.MetricsSnapshot().planner_choice;
    return out;
  };

  const Run ref = run(1, 0);
  uint64_t total = 0;
  for (uint64_t c : ref.counts) total += c;
  EXPECT_EQ(total, workload.size());
  EXPECT_EQ(ref.counts[PlannerIndex(Algorithm::kIterBoundSptI)],
            workload.size());

  for (auto [workers, cache_mb] :
       {std::pair<unsigned, size_t>{1u, 16},
        {2u, 0},
        {4u, 16},
        {3u, 16}}) {
    const Run got = run(workers, cache_mb);
    EXPECT_EQ(got.paths, ref.paths)
        << "workers=" << workers << " cache=" << cache_mb;
    EXPECT_EQ(got.choices, ref.choices)
        << "workers=" << workers << " cache=" << cache_mb;
    EXPECT_EQ(got.counts, ref.counts)
        << "workers=" << workers << " cache=" << cache_mb;
  }
}

}  // namespace
}  // namespace kpj
