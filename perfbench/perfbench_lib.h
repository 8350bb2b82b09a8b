// Pure helpers of the KPJ service benchmark: the percentile rule, the
// seeded query samplers, the closed load loop, span self times
// and metric-name checks. Nothing here touches the graph, the engine or a
// socket, so perfbench_selftest can pin each rule on synthetic input.

#ifndef KPJ_PERFBENCH_PERFBENCH_LIB_H_
#define KPJ_PERFBENCH_PERFBENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "index/category_index.h"
#include "util/rng.h"

namespace kpj::perfbench {

// --- Percentiles ------------------------------------------------------------

/// Samples that must lie strictly above a percentile's rank before the
/// benchmark reports that percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: ceil(p / 100 * n), at least 1.
size_t NearestRank(size_t n, double p);

/// True when at least kMinSamplesBeyond of `n` samples lie beyond the
/// nearest rank of `p`.
bool PercentileSupported(size_t n, double p);

/// Nearest-rank percentile of `samples` (need not be sorted); 0 when empty.
double Percentile(std::vector<double> samples, double p);

double Mean(const std::vector<double>& samples);

// --- Seeded samplers --------------------------------------------------------

/// Exact Zipf(s) over ranks 0..n-1 (rank r drawn with weight 1/(r+1)^s)
/// by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One KPJ request as the benchmark generates it: one source, a target
/// set (sorted, distinct, never containing the source) and k.
struct QuerySpec {
  uint32_t source = 0;
  std::vector<uint32_t> targets;
  uint32_t k = 1;

  bool operator==(const QuerySpec&) const = default;
};

/// The seed of round `round` of a run started with `seed`; every round
/// draws its own query list from it.
uint64_t RoundSeed(uint64_t seed, uint64_t round);

/// Which nodes a service's users ask about most: node `Node(r)` has
/// popularity rank r. The ranking is a fixed seeded permutation, a
/// property of the workload rather than of one run.
class Popularity {
 public:
  Popularity(uint32_t num_nodes, uint64_t seed);
  uint32_t Node(size_t rank) const { return rank_to_node_[rank]; }
  uint32_t size() const { return static_cast<uint32_t>(rank_to_node_.size()); }

 private:
  std::vector<uint32_t> rank_to_node_;
};

/// `count` queries of one source and `targets` distinct targets (never the
/// source). With `popularity` null every node is uniform; otherwise each
/// node is drawn independently by Zipf(`zipf_s`) over the popularity
/// ranks, so popular places recur as sources, as targets and in pairs.
std::vector<QuerySpec> MixQueries(uint32_t num_nodes, size_t count,
                                  uint32_t targets, uint32_t k,
                                  const Popularity* popularity, double zipf_s,
                                  uint64_t seed);

/// The paper's query shape (§7): {source, V_T, k} queries toward each
/// nested POI category T1..T4, with sources from the five distance
/// quintiles Q1..Q5 toward it. The strata are sampled once
/// (GenerateQuerySets, `pool` sources per quintile); each round then
/// draws its sources from those pools.
class CategoryQuerySampler {
 public:
  /// `reverse` is the reverse of the query graph, in original ids.
  CategoryQuerySampler(const Graph& reverse, const CategoryIndex& categories,
                       uint32_t k, size_t pool, uint64_t seed);

  /// `per_stratum` sources from every (category, quintile) cell, in a
  /// seeded order.
  std::vector<QuerySpec> Round(uint32_t per_stratum, uint64_t seed) const;

 private:
  struct Cell {
    size_t category;  ///< Index into targets_.
    std::vector<uint32_t> sources;
  };
  uint32_t k_;
  std::vector<std::vector<uint32_t>> targets_;  ///< One set per category.
  std::vector<Cell> cells_;
};

// --- Load loops -------------------------------------------------------------

/// Closed loop: `clients` threads each call `call(client, i)` for the next
/// unclaimed index i < count as soon as their previous call returned.
/// Returns each call's latency in ms (by index) and sets `*wall_s`.
std::vector<double> RunClosedLoop(
    unsigned clients, size_t count,
    const std::function<void(unsigned client, size_t i)>& call,
    double* wall_s);

// --- Spans ------------------------------------------------------------------

/// One recorded span (microseconds on one clock) of request `trace_id`.
struct SpanRecord {
  std::string name;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  uint64_t trace_id = 0;
};

/// Per-request span accounting over many requests.
struct SelfTimeTable {
  size_t requests = 0;  ///< Requests that had a root span.
  /// Summed self time per span name, microseconds.
  std::map<std::string, double> self_us;
};

/// Builds each request's span tree (spans grouped by trace id; the span
/// named `root` is the tree's root; every other span of the request that
/// starts inside the root hangs below the innermost span containing its
/// start) and sums self time per name: a span's duration minus the union
/// of its children's intervals clipped to it. Spans starting outside
/// their request's root (connection set-up) and requests without a root
/// are skipped. A child that outruns its parent is not repaired, so the
/// sum of self times can exceed the root duration; that shows as a
/// negative unaccounted share.
SelfTimeTable ComputeSelfTimes(const std::vector<SpanRecord>& spans,
                               std::string_view root);

// --- Metric names -----------------------------------------------------------

/// Metric names are made of letters, digits, '_', '.' and '-'.
bool ValidMetricName(std::string_view name);

/// Spans whose self time the traced run reports: the benchmark's own
/// (bench.*) and the program's existing ones.
const std::vector<std::string>& ReportedSpans();

/// Every rule name of the planner's decision ladder (core/planner.cc).
const std::vector<std::string>& PlannerReasons();

/// The metrics a run prints with --trace 0 and with --trace 1, in order.
/// BENCHMARK.json lists the same names; perfbench_selftest checks it.
std::vector<std::string> EndToEndMetricNames();
std::vector<std::string> PerLayerMetricNames();

}  // namespace kpj::perfbench

#endif  // KPJ_PERFBENCH_PERFBENCH_LIB_H_
