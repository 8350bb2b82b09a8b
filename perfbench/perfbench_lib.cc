#include "perfbench_lib.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/kpj_query.h"
#include "gen/query_gen.h"

namespace kpj::perfbench {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps p/100*n that is integral in exact arithmetic (e.g.
  // 99/100*1000) from rounding up one rank.
  double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

bool PercentileSupported(size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= kMinSamplesBeyond;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

uint64_t RoundSeed(uint64_t seed, uint64_t round) {
  uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (round + 1));
  return SplitMix64(state);
}

Popularity::Popularity(uint32_t num_nodes, uint64_t seed)
    : rank_to_node_(num_nodes) {
  std::iota(rank_to_node_.begin(), rank_to_node_.end(), 0u);
  Rng rng(seed);
  rng.Shuffle(rank_to_node_);
}

std::vector<QuerySpec> MixQueries(uint32_t num_nodes, size_t count,
                                  uint32_t targets, uint32_t k,
                                  const Popularity* popularity, double zipf_s,
                                  uint64_t seed) {
  Rng rng(seed);
  std::optional<ZipfSampler> zipf;
  if (popularity != nullptr) zipf.emplace(popularity->size(), zipf_s);
  auto draw = [&]() -> uint32_t {
    if (!zipf.has_value()) {
      return static_cast<uint32_t>(rng.NextBounded(num_nodes));
    }
    return popularity->Node(zipf->Sample(rng));
  };
  std::vector<QuerySpec> queries(count);
  for (QuerySpec& q : queries) {
    q.k = k;
    q.source = draw();
    while (q.targets.size() < targets) {
      uint32_t t = draw();
      if (t != q.source &&
          std::find(q.targets.begin(), q.targets.end(), t) == q.targets.end()) {
        q.targets.push_back(t);
      }
    }
    std::sort(q.targets.begin(), q.targets.end());
  }
  return queries;
}

CategoryQuerySampler::CategoryQuerySampler(const Graph& reverse,
                                           const CategoryIndex& categories,
                                           uint32_t k, size_t pool,
                                           uint64_t seed)
    : k_(k) {
  Rng rng(seed);
  for (const char* name : {"T1", "T2", "T3", "T4"}) {
    std::optional<CategoryId> category = categories.Find(name);
    if (!category.has_value()) continue;
    std::span<const NodeId> nodes = categories.Nodes(*category);
    targets_.emplace_back(nodes.begin(), nodes.end());
    QuerySets sets = GenerateQuerySets(reverse, nodes, pool, rng.Next());
    for (const std::vector<NodeId>& stratum : sets.q) {
      if (stratum.empty()) continue;
      cells_.push_back({targets_.size() - 1, {stratum.begin(), stratum.end()}});
    }
  }
}

std::vector<QuerySpec> CategoryQuerySampler::Round(uint32_t per_stratum,
                                                   uint64_t seed) const {
  Rng rng(seed);
  std::vector<QuerySpec> queries;
  for (const Cell& cell : cells_) {
    for (uint32_t i = 0; i < per_stratum; ++i) {
      QuerySpec q;
      q.source = cell.sources[rng.NextBounded(cell.sources.size())];
      q.targets = targets_[cell.category];
      q.k = k_;
      queries.push_back(std::move(q));
    }
  }
  rng.Shuffle(queries);
  return queries;
}

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::vector<double> RunClosedLoop(
    unsigned clients, size_t count,
    const std::function<void(unsigned client, size_t i)>& call,
    double* wall_s) {
  std::vector<double> latency_ms(count, 0.0);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        const Clock::time_point sent = Clock::now();
        call(c, i);
        latency_ms[i] = SecondsSince(sent) * 1e3;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = SecondsSince(start);
  return latency_ms;
}

SelfTimeTable ComputeSelfTimes(const std::vector<SpanRecord>& spans,
                               std::string_view root) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> by_trace;
  for (const SpanRecord& span : spans) {
    if (span.trace_id != 0) by_trace[span.trace_id].push_back(&span);
  }
  // Visit requests in trace-id order so the floating-point sums do not
  // depend on hash order.
  std::vector<uint64_t> ids;
  ids.reserve(by_trace.size());
  for (const auto& entry : by_trace) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());

  SelfTimeTable table;
  for (uint64_t id : ids) {
    std::vector<const SpanRecord*>& group = by_trace[id];
    std::sort(group.begin(), group.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                if (a->dur_us != b->dur_us) return a->dur_us > b->dur_us;
                return a->name < b->name;
              });
    auto root_it = std::find_if(group.begin(), group.end(),
                                [&](const SpanRecord* s) {
                                  return s->name == root;
                                });
    if (root_it == group.end()) continue;
    const SpanRecord* root_span = *root_it;
    const int64_t root_end = root_span->ts_us + root_span->dur_us;

    // nodes[0] is the root; children[i] lists the child indices of node i.
    std::vector<const SpanRecord*> nodes = {root_span};
    std::vector<std::vector<size_t>> children(1);
    std::vector<size_t> stack = {0};
    for (const SpanRecord* span : group) {
      if (span == root_span || span->ts_us < root_span->ts_us ||
          span->ts_us >= root_end) {
        continue;
      }
      while (stack.size() > 1) {
        const SpanRecord* top = nodes[stack.back()];
        if (span->ts_us < top->ts_us + top->dur_us) break;
        stack.pop_back();
      }
      size_t index = nodes.size();
      nodes.push_back(span);
      children.emplace_back();
      children[stack.back()].push_back(index);
      stack.push_back(index);
    }

    ++table.requests;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const int64_t begin = nodes[i]->ts_us;
      const int64_t end = begin + nodes[i]->dur_us;
      // Children arrive sorted by start, so one sweep merges their union.
      int64_t covered = 0;
      int64_t cursor = begin;
      for (size_t child : children[i]) {
        int64_t lo = std::max(nodes[child]->ts_us, cursor);
        int64_t hi = std::min(nodes[child]->ts_us + nodes[child]->dur_us, end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      table.self_us[nodes[i]->name] +=
          static_cast<double>(nodes[i]->dur_us - covered);
    }
  }
  return table;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

const std::vector<std::string>& ReportedSpans() {
  static const std::vector<std::string> spans = {
      "bench.request", "bench.encode",     "bench.submit",   "bench.decode",
      "server.parse",  "server.queue",     "server.execute", "server.serialize",
      "engine.query",  "instance.prepare", "solver.run",
  };
  return spans;
}

const std::vector<std::string>& PlannerReasons() {
  static const std::vector<std::string> reasons = {
      "gkpj_no_cache",           "resident_measure_dasp",
      "resident_probe_forward",  "resident_best_dasp",
      "resident_best_forward",   "forward_spt_resident",
      "repeat_targets_seed_spt", "category_targets_seed_spt",
      "no_oracle",               "cold_profile_best",
      "explore",
  };
  return reasons;
}

std::vector<std::string> EndToEndMetricNames() {
  return {"setup_s", "qps",       "mean_ms",    "p50_ms",
          "p99_ms",  "slo_ratio", "peak_rss_mb"};
}

std::vector<std::string> PerLayerMetricNames() {
  std::vector<std::string> names = {
      "server.queue_ms_mean", "server.queue_ms_p99", "server.exec_ms_p50",
      "server.exec_ms_p99",   "server.shed",         "server.swap_ms_max",
      "api.wire_ms_mean",     "api.encode_us_mean",  "api.decode_us_mean",
      "api.response_bytes_mean", "engine.busy_ratio",
      "engine.overhead_us_mean",
  };
  for (Algorithm a : kAllAlgorithms) {
    names.push_back(std::string("planner.choice.") + AlgorithmName(a));
  }
  for (const std::string& reason : PlannerReasons()) {
    names.push_back("planner.reason." + reason);
  }
  for (Algorithm a : kAllAlgorithms) {
    names.push_back(std::string("core.solve_ms_p50.") + AlgorithmName(a));
    names.push_back(std::string("core.solve_ms_p99.") + AlgorithmName(a));
  }
  for (const char* name :
       {"core.sp_computations_per_query", "core.iter_bound_rounds_per_query",
        "core.candidates_pruned_ratio", "sssp.heap_pops_per_query",
        "sssp.edges_relaxed_per_query", "index.lb_tightness",
        "index.bound_cache_hit_ratio", "spt_cache.hit_ratio",
        "spt_cache.insert_skips", "spt_cache.evictions", "spt_cache.bytes_mb",
        "graph.landmark_build_s", "graph.v4_write_ms", "graph.map_ms",
        "graph.mapped_mb"}) {
    names.push_back(name);
  }
  for (const std::string& span : ReportedSpans()) {
    names.push_back("self_ms." + span);
  }
  for (const char* name : {"trace.overhead_ratio", "trace.unaccounted_ratio"}) {
    names.push_back(name);
  }
  return names;
}

}  // namespace kpj::perfbench
