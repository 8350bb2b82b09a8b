// Self-tests of the benchmark's own code (perfbench_lib): the percentile
// rule, per-seed determinism of the query samplers, closed-loop latency
// accounting, span self times on a synthetic tree, and metric names
// (including that BENCHMARK.json lists exactly the metrics a run prints).
//
//   perfbench_selftest [--benchmark-json BENCHMARK.json --config workloads.json]
//
// Exits 0 when every check passes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "core/kpj_instance.h"
#include "gen/poi_gen.h"
#include "gen/road_gen.h"
#include "index/category_index.h"
#include "perfbench_lib.h"

namespace kpj::perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::fprintf(stderr, "%s:%d: FAILED: %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double tolerance = 1e-9) {
  return std::fabs(a - b) <= tolerance;
}

void TestPercentileRule() {
  EXPECT(NearestRank(100, 50.0) == 50);
  EXPECT(NearestRank(1000, 99.0) == 990);
  EXPECT(NearestRank(1, 99.0) == 1);
  EXPECT(NearestRank(3, 50.0) == 2);
  // p99 needs ten samples beyond its rank: n = 1000 is the first size.
  EXPECT(PercentileSupported(1000, 99.0));
  EXPECT(!PercentileSupported(999, 99.0));
  EXPECT(PercentileSupported(1009, 99.0));
  EXPECT(!PercentileSupported(0, 50.0));
  EXPECT(PercentileSupported(20, 50.0));

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT(Percentile(values, 99.0) == 99.0);
  EXPECT(Percentile(values, 50.0) == 50.0);
  EXPECT(Percentile(values, 100.0) == 100.0);
  EXPECT(Percentile({}, 50.0) == 0.0);
  EXPECT(Percentile({7.5}, 99.0) == 7.5);
  EXPECT(Near(Mean({1.0, 2.0, 6.0}), 3.0));
}

void TestSamplers() {
  // Same seed, same list; another seed, another list.
  const Popularity popularity(5000, 3);
  const auto a = MixQueries(5000, 400, 2, 4, &popularity, 1.1, 7);
  EXPECT(a == MixQueries(5000, 400, 2, 4, &popularity, 1.1, 7));
  EXPECT(a != MixQueries(5000, 400, 2, 4, &popularity, 1.1, 8));
  const auto u = MixQueries(1000000, 400, 2, 4, nullptr, 0.0, 7);
  EXPECT(u == MixQueries(1000000, 400, 2, 4, nullptr, 0.0, 7));
  EXPECT(u != MixQueries(1000000, 400, 2, 4, nullptr, 0.0, 9));
  EXPECT(a.size() == 400 && u.size() == 400);
  for (const auto* list : {&a, &u}) {
    for (const QuerySpec& q : *list) {
      EXPECT(q.k == 4);
      EXPECT(q.targets.size() == 2);
      EXPECT(q.targets[0] < q.targets[1]);
      EXPECT(q.targets[0] != q.source && q.targets[1] != q.source);
    }
  }
  // Zipf makes the most popular node a frequent source and target (rank 0
  // carries ~1/H(5000, 1.1) ~ 15% of the draws); uniform nodes spread out.
  auto top_node_count = [](const std::vector<QuerySpec>& list) {
    std::map<uint32_t, int> counts;
    int top = 0;
    for (const QuerySpec& q : list) {
      top = std::max(top, ++counts[q.source]);
      for (uint32_t t : q.targets) top = std::max(top, ++counts[t]);
    }
    return top;
  };
  EXPECT(top_node_count(a) >= 120);
  EXPECT(top_node_count(u) <= 3);
  // The ranking is fixed per popularity seed and is a permutation.
  EXPECT(Popularity(5000, 3).Node(0) == popularity.Node(0));
  std::set<uint32_t> ranked;
  for (uint32_t r = 0; r < popularity.size(); ++r) ranked.insert(popularity.Node(r));
  EXPECT(ranked.size() == 5000 && *ranked.rbegin() == 4999);

  // Zipf(1.1) over 100 ranks: rank 0 holds 1/H of the mass.
  double harmonic = 0.0;
  for (int r = 1; r <= 100; ++r) harmonic += 1.0 / std::pow(r, 1.1);
  ZipfSampler zipf(100, 1.1);
  Rng rng(3);
  int zeros = 0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    size_t rank = zipf.Sample(rng);
    EXPECT(rank < 100);
    zeros += rank == 0 ? 1 : 0;
  }
  EXPECT(Near(zeros / static_cast<double>(draws), 1.0 / harmonic, 0.01));

  EXPECT(RoundSeed(1, 0) == RoundSeed(1, 0));
  EXPECT(RoundSeed(1, 0) != RoundSeed(1, 1));
  EXPECT(RoundSeed(1, 0) != RoundSeed(2, 0));

  // Quintile sampler: the nested POI categories on a small road graph.
  RoadGenOptions road;
  road.target_nodes = 20000;
  road.seed = 5;
  Result<KpjInstance> made = KpjInstance::Make(GenerateRoadNetwork(road).graph);
  EXPECT(made.ok());
  if (!made.ok()) return;
  const KpjInstance& instance = made.value();
  CategoryIndex categories(instance.NumNodes());
  AssignNestedPoiSets(categories, 11);
  const CategoryQuerySampler sampler(instance.reverse(), categories, 20, 50,
                                     5);
  const auto c = sampler.Round(2, 5);
  EXPECT(c == sampler.Round(2, 5));
  EXPECT(c != sampler.Round(2, 6));
  EXPECT(c == CategoryQuerySampler(instance.reverse(), categories, 20, 50, 5)
                  .Round(2, 5));
  EXPECT(c != CategoryQuerySampler(instance.reverse(), categories, 20, 50, 6)
                  .Round(2, 5));
  EXPECT(c.size() == 4 * 5 * 2);  // T1..T4 x Q1..Q5 x per_stratum.
  std::set<size_t> target_sizes;
  for (const QuerySpec& q : c) {
    EXPECT(q.k == 20);
    target_sizes.insert(q.targets.size());
    EXPECT(std::find(q.targets.begin(), q.targets.end(), q.source) ==
           q.targets.end());
  }
  EXPECT(target_sizes.size() == 4);  // One target set per category.
}

void TestClosedLoop() {
  double wall_s = 0.0;
  // Each call's own latency, by index.
  std::vector<double> latency = RunClosedLoop(
      2, 4,
      [](unsigned, size_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(i == 3 ? 20 : 1));
      },
      &wall_s);
  EXPECT(latency.size() == 4);
  EXPECT(latency[3] >= 19.0);
}

void TestSelfTimes() {
  // Request 1: root [0,100); A [10,40) with A1 [15,25); B [50,90) on
  // another thread with B1 [60,70) and B2 [65,80) — B2 starts inside B1
  // and outruns it. A connection span starting before the root is
  // skipped, and request 2 has no root.
  std::vector<SpanRecord> spans = {
      {"root", 0, 100, 1},   {"A", 10, 30, 1},    {"A1", 15, 10, 1},
      {"B", 50, 40, 1},      {"B1", 60, 10, 1},   {"B2", 65, 15, 1},
      {"accept", -5, 8, 1},  {"A", 0, 50, 2},     {"untagged", 0, 100, 0},
  };
  SelfTimeTable table = ComputeSelfTimes(spans, "root");
  EXPECT(table.requests == 1);
  EXPECT(Near(table.self_us["root"], 30.0));  // 100 - (30 + 40).
  EXPECT(Near(table.self_us["A"], 20.0));
  EXPECT(Near(table.self_us["A1"], 10.0));
  EXPECT(Near(table.self_us["B"], 30.0));  // 40 - B1's 10.
  EXPECT(Near(table.self_us["B1"], 5.0));  // 10 - B2's part inside it.
  EXPECT(Near(table.self_us["B2"], 15.0));
  EXPECT(table.self_us.count("accept") == 0);
  EXPECT(table.self_us.count("untagged") == 0);
  double sum = 0.0;
  for (const auto& [name, us] : table.self_us) sum += us;
  EXPECT(Near(sum, 110.0));  // The overrun shows as 10 us over the root.

  // Disjoint siblings each take their share out of the parent.
  SelfTimeTable siblings = ComputeSelfTimes(
      {{"r", 0, 10, 7}, {"x", 1, 4, 7}, {"y", 5, 2, 7}, {"z", 7, 2, 7}}, "r");
  EXPECT(Near(siblings.self_us["r"], 2.0));
}

std::vector<std::string> NamesOf(const api::JsonValue& list) {
  std::vector<std::string> names;
  for (const api::JsonValue& item : list.items()) {
    const api::JsonValue* name = item.Find("name");
    names.push_back(name != nullptr && name->is_string() ? name->string_value()
                                                         : "");
  }
  return names;
}

void TestMetricNames(const std::string& benchmark_json,
                     const std::string& config) {
  EXPECT(ValidMetricName("self_ms.server.queue"));
  EXPECT(ValidMetricName("planner.choice.IterBoundI-NL"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("p99 ms"));
  EXPECT(!ValidMetricName("rate/s"));
  std::set<std::string> seen;
  for (const auto& list : {EndToEndMetricNames(), PerLayerMetricNames()}) {
    for (const std::string& name : list) {
      EXPECT(ValidMetricName(name));
      EXPECT(name.size() <= 64);
      EXPECT(seen.insert(name).second);  // Unique across both lists.
    }
  }
  EXPECT(PerLayerMetricNames().size() <= 128);

  if (benchmark_json.empty()) return;
  auto load = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return api::JsonValue::Parse(text.str());
  };
  Result<api::JsonValue> bench = load(benchmark_json);
  Result<api::JsonValue> workloads = load(config);
  EXPECT(bench.ok() && workloads.ok());
  if (!bench.ok() || !workloads.ok()) return;
  const api::JsonValue* e2e = bench.value().Find("end_to_end");
  const api::JsonValue* layer = bench.value().Find("per_layer");
  const api::JsonValue* listed = bench.value().Find("workloads");
  EXPECT(e2e != nullptr && layer != nullptr && listed != nullptr);
  if (e2e == nullptr || layer == nullptr || listed == nullptr) return;
  EXPECT(NamesOf(*e2e) == EndToEndMetricNames());
  EXPECT(NamesOf(*layer) == PerLayerMetricNames());
  std::vector<std::string> configured;
  if (const api::JsonValue* w = workloads.value().Find("workloads")) {
    for (const auto& member : w->members()) configured.push_back(member.first);
  }
  EXPECT(NamesOf(*listed) == configured);
}

}  // namespace
}  // namespace kpj::perfbench

int main(int argc, char** argv) {
  using namespace kpj::perfbench;
  std::string benchmark_json;
  std::string config;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--benchmark-json") benchmark_json = argv[i + 1];
    if (flag == "--config") config = argv[i + 1];
  }
  TestPercentileRule();
  TestSamplers();
  TestClosedLoop();
  TestSelfTimes();
  TestMetricNames(benchmark_json, config);
  if (failures == 0) {
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
  }
  std::printf("perfbench_selftest: %d check(s) failed\n", failures);
  return 1;
}
