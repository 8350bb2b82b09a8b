// The repository's KPJ service benchmark (see perfbench/README.md).
//
//   kpj_perfbench fixture --config perfbench/workloads.json --out FILE
//   kpj_perfbench run --config perfbench/workloads.json --fixture FILE
//       --work-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//       [--source-id TEXT]
//
// `fixture` writes the seeded road graph once (its generation is not part
// of any metric). `run` times the set-up from that graph file to the first
// servable query, then drives one workload in rounds until `--seconds` of
// measured time have passed. Every round starts a fresh server (or
// engine) and sends a fixed, seeded query list through public entry
// points only: KpjServer over loopback, the api wire codec, KpjEngine,
// KpjInstance::LoadMapped and LandmarkIndex::Build. After the measured
// window every answer is validated and its path lengths are compared with
// a fixed-algorithm (IterBoundI) reference on the same instance.
//
// With --trace 0 the final stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, and rounds alternate
// between tracing off and tracing on so the same run yields the tracing
// overhead. Spans are recorded only from this file (bench.*), around the
// calls into each layer; the program's own spans are harvested from
// TraceRecorder::Global() by the request's trace id.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "api/api.h"
#include "api/json.h"
#include "api/wire.h"
#include "core/engine.h"
#include "core/kpj_instance.h"
#include "core/verifier.h"
#include "gen/poi_gen.h"
#include "gen/road_gen.h"
#include "graph/serialize.h"
#include "index/category_index.h"
#include "index/landmark_index.h"
#include "perfbench_lib.h"
#include "server/server.h"
#include "util/socket.h"
#include "util/timer.h"
#include "util/trace.h"

#ifndef KPJ_PERFBENCH_BUILD_TYPE
#define KPJ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace kpj::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMaxFrameBytes = 64u << 20;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "kpj_perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// --- Command line and configuration ----------------------------------------

struct Flags {
  std::string command;
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) Die("missing --" + key);
    return it->second;
  }
  std::string Get(const std::string& key, const std::string& def) const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
};

Flags ParseFlags(int argc, char** argv) {
  if (argc < 2) Die("usage: kpj_perfbench fixture|run --flag value ...");
  Flags flags;
  flags.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad flag " + key);
    flags.values[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

enum class Mode { kServiceClosed, kEngineClosed };

struct WorkloadConfig {
  Mode mode = Mode::kServiceClosed;
  unsigned clients = 4;
  size_t round_queries = 0;   ///< Closed loop: queries per round.
  uint32_t targets = 2;
  uint32_t k = 4;
  double zipf_s = 0.0;        ///< 0 = uniform nodes.
  uint64_t popularity_seed = 0;  ///< Fixed node popularity ranking (zipf).
  uint32_t per_stratum = 1;   ///< engine_closed: sources per (Q, T) cell.
  double swap_every_s = 0.0;  ///< Service: hot-swap period (0 = none).
  double slo_ms = 0.0;        ///< Latency limit of slo_ratio.
};

struct Config {
  uint32_t nodes = 0;
  uint64_t graph_seed = 0;
  uint32_t landmarks = 0;
  unsigned landmark_threads = 1;
  uint64_t poi_seed = 0;
  unsigned setup_repeats = 1;
  api::EngineConfig engine;
  WorkloadConfig workload;
};

double Number(const api::JsonValue& object, const char* key) {
  const api::JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number()) {
    Die(std::string("workloads.json: missing number '") + key + "'");
  }
  return value->number_value();
}

const api::JsonValue& Object(const api::JsonValue& object, const char* key) {
  const api::JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_object()) {
    Die(std::string("workloads.json: missing object '") + key + "'");
  }
  return *value;
}

Config LoadConfig(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  api::JsonValue root = Check(api::JsonValue::Parse(text.str()), path.c_str());

  Config config;
  const api::JsonValue& graph = Object(root, "graph");
  config.nodes = static_cast<uint32_t>(Number(graph, "nodes"));
  config.graph_seed = static_cast<uint64_t>(Number(graph, "seed"));
  config.landmarks = static_cast<uint32_t>(Number(graph, "landmarks"));
  config.landmark_threads =
      static_cast<unsigned>(Number(graph, "landmark_threads"));
  config.poi_seed = static_cast<uint64_t>(Number(graph, "poi_seed"));
  config.setup_repeats =
      std::max(1u, static_cast<unsigned>(Number(root, "setup_repeats")));

  const api::JsonValue& engine = Object(root, "engine");
  config.engine.workers = static_cast<unsigned>(Number(engine, "workers"));
  config.engine.cache_mb = static_cast<size_t>(Number(engine, "cache_mb"));
  const api::JsonValue* algorithm = engine.Find("algorithm");
  if (algorithm == nullptr || !algorithm->is_string()) {
    Die("workloads.json: missing engine.algorithm");
  }
  config.engine.algorithm =
      Check(api::ParseAlgorithm(algorithm->string_value()), "algorithm");
  Check(config.engine.Validate(), "engine config");

  if (workload.empty()) return config;
  const api::JsonValue* w = Object(root, "workloads").Find(workload);
  if (w == nullptr || !w->is_object()) Die("unknown workload " + workload);
  WorkloadConfig& wc = config.workload;
  const api::JsonValue* mode = w->Find("mode");
  std::string mode_name =
      mode != nullptr && mode->is_string() ? mode->string_value() : "";
  if (mode_name == "service_closed") {
    wc.mode = Mode::kServiceClosed;
  } else if (mode_name == "engine_closed") {
    wc.mode = Mode::kEngineClosed;
  } else {
    Die("workload " + workload + ": unknown mode '" + mode_name + "'");
  }
  wc.clients = static_cast<unsigned>(Number(*w, "clients"));
  wc.k = static_cast<uint32_t>(Number(*w, "k"));
  wc.slo_ms = Number(*w, "slo_ms");
  if (wc.clients < 1 || wc.clients > 4) Die("clients must be 1..4");
  if (wc.mode == Mode::kEngineClosed) {
    wc.per_stratum = static_cast<uint32_t>(Number(*w, "per_stratum"));
  } else {
    wc.targets = static_cast<uint32_t>(Number(*w, "targets"));
    wc.zipf_s = Number(*w, "zipf_s");
    if (wc.zipf_s > 0.0) {
      wc.popularity_seed = static_cast<uint64_t>(Number(*w, "popularity_seed"));
    }
  }
  if (wc.mode == Mode::kServiceClosed) {
    wc.round_queries = static_cast<size_t>(Number(*w, "round_queries"));
    wc.swap_every_s = Number(*w, "swap_every_s");
  }
  return config;
}

// --- Host fingerprint --------------------------------------------------------

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

api::JsonValue Fingerprint(const std::string& source_id) {
  api::JsonValue fp = api::JsonValue::Object();
  fp.Set("nproc", api::JsonValue::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  fp.Set("cpu", api::JsonValue::Str(CpuModel()));
#if defined(__clang__)
  fp.Set("compiler", api::JsonValue::Str(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  fp.Set("compiler", api::JsonValue::Str(std::string("gcc ") + __VERSION__));
#else
  fp.Set("compiler", api::JsonValue::Str("unknown"));
#endif
  fp.Set("build_type", api::JsonValue::Str(KPJ_PERFBENCH_BUILD_TYPE));
  fp.Set("source", api::JsonValue::Str(source_id));
  return fp;
}

/// Rounds keep running until this many latency samples exist, so p99
/// always has kMinSamplesBeyond samples beyond its rank...
constexpr size_t kMinLatencySamples = 1000;
/// ...unless that would stretch the run past this multiple of --seconds.
constexpr double kMaxSecondsFactor = 3.0;
/// Threads that validate answers and compute the reference, after the
/// measured window.
constexpr unsigned kCheckThreads = 4;
/// Sources sampled per distance quintile and category, once per run.
constexpr size_t kCategoryPool = 1000;
/// Round index whose seed drives the unmeasured warm-up round.
constexpr uint64_t kWarmupRound = 1u << 20;

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Hands freed heap pages back to the kernel between rounds, so each
/// round's peak RSS starts from the same floor.
void ReleaseFreedHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Set-up -------------------------------------------------------------------

struct SetupTimes {
  double landmark_build_s = 0.0;
  double v4_write_ms = 0.0;
};

/// Graph file -> instance with landmarks + nested POI categories -> v4
/// file. The caller maps the file and starts what serves it.
SetupTimes BuildServingFile(const Config& config, const std::string& fixture,
                            const std::string& v4_path) {
  SetupTimes times;
  GraphFile file = Check(LoadGraphAuto(fixture), "load fixture");
  if (!file.permutation.empty()) Die("fixture must be in original ids");
  KpjInstance instance = Check(KpjInstance::Make(std::move(file.graph)),
                               "build instance");
  LandmarkIndexOptions lm;
  lm.num_landmarks = config.landmarks;
  lm.threads = config.landmark_threads;
  Timer lm_timer;
  LandmarkIndex landmarks =
      LandmarkIndex::Build(instance.graph(), instance.reverse(), lm);
  times.landmark_build_s = lm_timer.ElapsedSeconds();
  CategoryIndex categories(instance.NumNodes());
  AssignNestedPoiSets(categories, config.poi_seed);

  GraphFileSections sections;
  sections.graph = &instance.graph();
  sections.reverse = &instance.reverse();
  sections.permutation = &instance.permutation();
  sections.landmarks = &landmarks;
  sections.categories = &categories;
  Timer write_timer;
  Check(SaveGraphFileV4(sections, v4_path), "write v4");
  times.v4_write_ms = write_timer.ElapsedMillis();
  return times;
}

KpjInstance MapVerified(const std::string& v4_path) {
  MappedLoadOptions options;
  options.verify_checksums = true;
  return Check(KpjInstance::LoadMapped(v4_path, options), "LoadMapped");
}

std::unique_ptr<server::KpjServer> StartServer(const Config& config,
                                               const std::string& v4_path) {
  server::KpjServerOptions options;
  options.graph_path = v4_path;
  options.engine = config.engine;
  // Closed loops hold at most `clients` requests; the queue bound only
  // has to exceed that so no request of a correct run is shed.
  options.max_queue = 16;
  auto server = std::make_unique<server::KpjServer>(std::move(options));
  Check(server->Start(), "server start");
  return server;
}

void StopServer(std::unique_ptr<server::KpjServer>& server) {
  if (server == nullptr) return;
  server->RequestDrain();
  server->Wait();
  server.reset();
}

// --- Requests -------------------------------------------------------------------

/// One request as the client saw it.
struct Sample {
  size_t query = 0;  ///< Index into the round's query list.
  bool answered = false;  ///< A well-formed response arrived.
  api::StatusCode status = api::StatusCode::kInternal;
  double latency_ms = 0.0;  ///< Encoded request to decoded response.
  double queue_ms = 0.0;    ///< Server-reported admission wait.
  double exec_ms = 0.0;     ///< Submit -> future ready (server or caller).
  double encode_us = 0.0;
  double decode_us = 0.0;
  double response_bytes = 0.0;
  std::string algorithm;
  std::string reason;
  std::vector<Path> paths;  ///< Dropped once validated.
  bool valid = false;
  std::vector<PathLength> lengths;
};

KpjQuery ToQuery(const QuerySpec& q) {
  KpjQuery query;
  query.sources = {q.source};
  query.targets.assign(q.targets.begin(), q.targets.end());
  query.k = q.k;
  return query;
}

/// A trace id unique within the run: round in the high bits.
uint64_t TraceId(size_t round, size_t index) {
  return (static_cast<uint64_t>(round + 1) << 32) | (index + 1);
}

/// One query over an open connection; the caller times its latency.
Sample WireCall(const Socket& socket, const QuerySpec& q, size_t index,
                uint64_t trace_id) {
  Sample s;
  s.query = index;
  TraceContext trace_context(trace_id);
  TraceSpan request_span("bench.request");
  std::string frame;
  {
    TraceSpan span("bench.encode");
    Timer timer;
    api::RequestEnvelope envelope;
    envelope.id = index;
    envelope.type = api::RequestType::kQuery;
    envelope.payload = api::ToJson(api::QueryRequest::FromQuery(ToQuery(q)));
    envelope.trace_id = trace_id;
    frame = api::SerializeRequest(envelope);
    s.encode_us = timer.ElapsedMillis() * 1e3;
  }
  Result<Frame> reply = Status::FailedPrecondition("not sent");
  {
    TraceSpan span("bench.submit");
    Status sent = WriteFrame(socket, frame);
    if (sent.ok()) reply = ReadFrame(socket, kMaxFrameBytes);
  }
  if (!reply.ok() || reply.value().eof) return s;
  {
    TraceSpan span("bench.decode");
    Timer timer;
    s.response_bytes = static_cast<double>(reply.value().payload.size());
    Result<api::ResponseEnvelope> envelope =
        api::ParseResponse(reply.value().payload);
    if (envelope.ok()) {
      s.status = envelope.value().status;
      Result<api::QueryResponse> response =
          api::QueryResponseFromJson(envelope.value().payload);
      if (response.ok()) {
        api::QueryResponse& r = response.value();
        s.answered = true;
        s.status = r.status;
        s.queue_ms = r.queue_ms;
        s.exec_ms = r.elapsed_ms;
        s.algorithm = std::move(r.algorithm_chosen);
        s.reason = std::move(r.planner_reason);
        s.paths.reserve(r.paths.size());
        for (api::PathPayload& p : r.paths) {
          Path path;
          path.nodes.assign(p.nodes.begin(), p.nodes.end());
          path.length = p.length;
          s.paths.push_back(std::move(path));
        }
      }
    }
    s.decode_us = timer.ElapsedMillis() * 1e3;
  }
  return s;
}

Sample EngineCall(KpjEngine& engine, const QuerySpec& q, size_t index,
                  uint64_t trace_id) {
  Sample s;
  s.query = index;
  TraceContext trace_context(trace_id);
  TraceSpan request_span("bench.request");
  Timer timer;
  Result<KpjResult> result = Status::FailedPrecondition("not run");
  {
    TraceSpan span("bench.submit");
    QueryContext context;
    context.trace_id = trace_id;
    result = engine.Submit(ToQuery(q), /*deadline_ms=*/0.0, context).get();
  }
  s.exec_ms = timer.ElapsedMillis();
  if (!result.ok()) {
    s.status = api::FromCoreStatus(result.status());
    return s;
  }
  KpjResult& r = result.value();
  s.answered = true;
  s.status = api::FromCoreStatus(r.status);
  s.algorithm = AlgorithmName(r.algorithm_used);
  s.reason = r.planner_reason;
  s.paths = std::move(r.paths);
  return s;
}

// --- Layer counters ---------------------------------------------------------------

/// Sums of the engine counters the per-layer table reads, over every
/// engine that served a round (each round and each swap builds a fresh
/// engine, so the sum of their snapshots is exactly the window's delta).
struct EngineTotals {
  uint64_t served = 0;
  uint64_t heap_pops = 0;
  uint64_t edges_relaxed = 0;
  uint64_t sp_computations = 0;
  double exec_ms_sum = 0.0;
  uint64_t exec_count = 0;
  uint64_t spt_cache_evictions = 0;
  double cache_bytes_max = 0.0;
  AlgoStats algo;
  std::array<uint64_t, kNumPlannableAlgorithms> planner_choice{};

  void Add(const EngineMetricsSnapshot& s) {
    EngineTotals t;
    t.served = s.queries_served;
    t.heap_pops = s.heap_pops;
    t.edges_relaxed = s.edges_relaxed;
    t.sp_computations = s.sp_computations;
    t.exec_ms_sum = s.latency_mean_ms * static_cast<double>(s.latency_count);
    t.exec_count = s.latency_count;
    t.spt_cache_evictions = s.spt_cache_evictions;
    t.cache_bytes_max = static_cast<double>(s.cache_bytes);
    t.algo = s.algo;
    t.planner_choice = s.planner_choice;
    Merge(t);
  }

  void Merge(const EngineTotals& o) {
    served += o.served;
    heap_pops += o.heap_pops;
    edges_relaxed += o.edges_relaxed;
    sp_computations += o.sp_computations;
    exec_ms_sum += o.exec_ms_sum;
    exec_count += o.exec_count;
    spt_cache_evictions += o.spt_cache_evictions;
    cache_bytes_max = std::max(cache_bytes_max, o.cache_bytes_max);
    algo.Accumulate(o.algo);
    for (size_t i = 0; i < planner_choice.size(); ++i) {
      planner_choice[i] += o.planner_choice[i];
    }
  }
};

struct RoundResult {
  std::vector<QuerySpec> queries;
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::vector<double> swap_ms;
  EngineTotals engine;
  bool traced = false;
  double peak_rss_mb = 0.0;  ///< Peak resident set while the round ran.
};

// --- Workload rounds ----------------------------------------------------------

/// Flips a server to the other byte-identical copy of the v4 file every
/// `period_s` seconds (at 0.5, 1.5, ... periods) until Stop().
class HotSwapper {
 public:
  HotSwapper(server::KpjServer& server, const std::string (&v4_copies)[2],
             double period_s, RoundResult& result)
      : server_(server), serving_(server.state()), result_(result) {
    if (period_s <= 0.0) return;
    const Clock::time_point start = Clock::now();
    thread_ = std::thread([this, &v4_copies, period_s, start] {
      for (size_t n = 1;; ++n) {
        std::unique_lock<std::mutex> lock(mu_);
        const double at_s = period_s * (static_cast<double>(n) - 0.5);
        if (cv_.wait_until(
                lock, start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(at_s)),
                [&] { return done_; })) {
          return;
        }
        lock.unlock();
        api::SwapRequest request;
        request.graph = v4_copies[n % 2];
        api::SwapInfo info = Check(server_.Swap(request), "swap");
        result_.swap_ms.push_back(info.load_ms);
        // Queries in flight still hold the retired state. Once they
        // finish, its counters are final; then it is freed, as the server
        // would.
        std::shared_ptr<server::ServingState> retired =
            std::exchange(serving_, server_.state());
        for (int waited_ms = 0; retired.use_count() > 1 && waited_ms < 10000;
             ++waited_ms) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        result_.engine.Add(retired->engine->MetricsSnapshot());
      }
    });
  }

  /// Stops swapping and adds the serving engine's counters to the result.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    result_.engine.Add(serving_->engine->MetricsSnapshot());
    serving_.reset();
  }

 private:
  server::KpjServer& server_;
  std::shared_ptr<server::ServingState> serving_;
  RoundResult& result_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Closed loop over `clients` connections to a fresh server; with a swap
/// period, the server hot-swaps between the two copies of the v4 file
/// while the round runs.
RoundResult ServiceClosedRound(const Config& config,
                               const std::string (&v4_copies)[2],
                               size_t round, std::vector<QuerySpec> queries,
                               bool traced) {
  const WorkloadConfig& w = config.workload;
  RoundResult result;
  result.traced = traced;
  result.queries = std::move(queries);
  std::unique_ptr<server::KpjServer> server =
      StartServer(config, v4_copies[0]);
  std::vector<Socket> sockets;
  for (unsigned c = 0; c < w.clients; ++c) {
    sockets.push_back(
        Check(ConnectTcp("127.0.0.1", server->port()), "connect"));
  }
  if (traced) TraceRecorder::Global().Enable();
  result.samples.resize(result.queries.size());
  HotSwapper swapper(*server, v4_copies, w.swap_every_s, result);
  std::vector<double> latency = RunClosedLoop(
      w.clients, result.queries.size(),
      [&](unsigned c, size_t i) {
        result.samples[i] = WireCall(sockets[c], result.queries[i], i,
                                     traced ? TraceId(round, i) : 0);
      },
      &result.wall_s);
  swapper.Stop();
  for (size_t i = 0; i < latency.size(); ++i) {
    result.samples[i].latency_ms = latency[i];
  }
  TraceRecorder::Global().Disable();
  sockets.clear();
  StopServer(server);
  return result;
}

RoundResult EngineClosedRound(const Config& config,
                              const KpjInstance& instance,
                              size_t round, std::vector<QuerySpec> queries,
                              bool traced) {
  const WorkloadConfig& w = config.workload;
  RoundResult result;
  result.traced = traced;
  result.queries = std::move(queries);
  auto engine = std::make_unique<KpjEngine>(instance,
                                            config.engine.ToEngineOptions());
  if (traced) TraceRecorder::Global().Enable();
  result.samples.resize(result.queries.size());
  std::vector<double> latency = RunClosedLoop(
      w.clients, result.queries.size(),
      [&](unsigned, size_t i) {
        result.samples[i] = EngineCall(*engine, result.queries[i], i,
                                       traced ? TraceId(round, i) : 0);
      },
      &result.wall_s);
  for (size_t i = 0; i < latency.size(); ++i) {
    result.samples[i].latency_ms = latency[i];
  }
  TraceRecorder::Global().Disable();
  result.engine.Add(engine->MetricsSnapshot());
  return result;
}

// --- Answer check -------------------------------------------------------------

struct FailureCounts {
  uint64_t shed = 0;
  uint64_t errors = 0;     ///< No response, or a non-ok non-shed status.
  uint64_t invalid = 0;    ///< ValidateResultStructure rejected it.
  uint64_t mismatch = 0;   ///< Lengths differ from the reference.
  uint64_t Total() const { return shed + errors + invalid + mismatch; }
};

/// Validates each answer's structure on the instance graph and keeps only
/// its lengths (paths of a whole run would not fit in memory next to the
/// graph). Runs outside the measured window on kCheckThreads threads:
/// validation of long k = 20 paths costs more than answering them.
void ValidateRound(const Graph& graph, RoundResult& round) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= round.samples.size()) break;
        Sample& s = round.samples[i];
        if (s.answered && s.status == api::StatusCode::kOk) {
          s.valid = ValidateResultStructure(
                        graph, ToQuery(round.queries[s.query]), s.paths)
                        .ok();
          for (const Path& p : s.paths) s.lengths.push_back(p.length);
        }
        s.paths = {};
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Compares every ok answer's lengths with IterBoundI on the same instance
/// (one run per distinct query; caching off), counting each failure kind.
/// Marks samples correct in `correct`.
FailureCounts CheckAnswers(const KpjInstance& instance,
                           const std::vector<RoundResult>& rounds,
                           std::vector<std::vector<bool>>& correct) {
  std::map<std::vector<uint32_t>, size_t> index;
  std::vector<KpjQuery> distinct;
  auto key_of = [](const QuerySpec& q) {
    std::vector<uint32_t> key = {q.source, q.k};
    key.insert(key.end(), q.targets.begin(), q.targets.end());
    return key;
  };
  for (const RoundResult& round : rounds) {
    for (const QuerySpec& q : round.queries) {
      if (index.emplace(key_of(q), distinct.size()).second) {
        distinct.push_back(ToQuery(q));
      }
    }
  }
  api::EngineConfig reference_config;
  reference_config.workers = kCheckThreads;
  reference_config.algorithm = Algorithm::kIterBoundSptI;
  KpjEngine reference(instance, reference_config.ToEngineOptions());
  std::vector<Result<KpjResult>> answers = reference.RunBatch(distinct);

  FailureCounts failures;
  correct.clear();
  for (const RoundResult& round : rounds) {
    std::vector<bool>& ok = correct.emplace_back(round.samples.size(), false);
    for (size_t i = 0; i < round.samples.size(); ++i) {
      const Sample& s = round.samples[i];
      if (s.status == api::StatusCode::kOverloaded) {
        ++failures.shed;
        continue;
      }
      if (!s.answered || s.status != api::StatusCode::kOk) {
        ++failures.errors;
        continue;
      }
      if (!s.valid) {
        ++failures.invalid;
        continue;
      }
      const Result<KpjResult>& ref =
          answers[index.at(key_of(round.queries[s.query]))];
      std::vector<PathLength> expected;
      if (ref.ok()) {
        for (const Path& p : ref.value().paths) expected.push_back(p.length);
      }
      if (!ref.ok() || !ref.value().status.ok() || expected != s.lengths) {
        ++failures.mismatch;
        continue;
      }
      ok[i] = true;
    }
  }
  return failures;
}

// --- Spans ---------------------------------------------------------------------

std::vector<SpanRecord> HarvestSpans() {
  std::vector<SpanRecord> spans;
  for (const TraceRecorder::Event& e : TraceRecorder::Global().Snapshot()) {
    if (e.phase != 'X') continue;
    spans.push_back({e.name, e.ts_us, e.dur_us, e.trace_id});
  }
  return spans;
}

/// Writes the recorder's Chrome trace with the host fingerprint attached
/// as trace metadata ("otherData").
void WriteChromeTrace(const std::string& path,
                      const api::JsonValue& fingerprint) {
  std::string json = TraceRecorder::Global().ToChromeJson();
  size_t close = json.rfind('}');
  if (close == std::string::npos) return;
  json.insert(close, ", \"otherData\": " + fingerprint.Dump());
  std::ofstream out(path);
  out << json;
}

// --- Metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!ValidMetricName(name)) Die("bad metric name " + name);
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  const std::vector<Metric>& items() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename Pred>
std::vector<double> Collect(const std::vector<RoundResult>& rounds,
                            double Sample::*field, Pred keep) {
  std::vector<double> values;
  for (const RoundResult& round : rounds) {
    for (const Sample& s : round.samples) {
      if (keep(round, s)) values.push_back(s.*field);
    }
  }
  return values;
}

int Run(const Flags& flags) {
  const std::string workload = flags.Get("workload");
  const Config config = LoadConfig(flags.Get("config"), workload);
  const WorkloadConfig& w = config.workload;
  const std::string fixture = flags.Get("fixture");
  const std::string work_dir = flags.Get("work-dir");
  const uint64_t seed = std::stoull(flags.Get("seed"));
  const double seconds = std::stod(flags.Get("seconds"));
  const bool trace = flags.Get("trace") == "1";
  const api::JsonValue fingerprint = Fingerprint(flags.Get("source-id", "unknown"));
  std::printf("fingerprint %s\n", fingerprint.Dump().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);

  Timer phase;
  auto end_phase = [&](const char* name) {
    std::printf("phase %s %.3f s\n", name, phase.ElapsedSeconds());
    phase.Restart();
  };
  // --- Set-up, timed several times; the median is setup_s. -------------
  const std::string v4_copies[2] = {work_dir + "/serving_a.kpj",
                                    work_dir + "/serving_b.kpj"};
  std::vector<double> setup_s, landmark_s, write_ms, map_ms;
  for (unsigned r = 0; r < config.setup_repeats; ++r) {
    Timer total;
    SetupTimes built = BuildServingFile(config, fixture, v4_copies[0]);
    landmark_s.push_back(built.landmark_build_s);
    write_ms.push_back(built.v4_write_ms);
    if (w.mode == Mode::kEngineClosed) {
      Timer map_timer;
      KpjInstance instance = MapVerified(v4_copies[0]);
      map_ms.push_back(map_timer.ElapsedMillis());
      KpjEngine engine(instance, config.engine.ToEngineOptions());
      setup_s.push_back(total.ElapsedSeconds());
    } else {
      std::unique_ptr<server::KpjServer> server =
          StartServer(config, v4_copies[0]);
      setup_s.push_back(total.ElapsedSeconds());
      StopServer(server);
      Timer map_timer;
      KpjInstance instance = MapVerified(v4_copies[0]);
      map_ms.push_back(map_timer.ElapsedMillis());
    }
  }
  if (w.swap_every_s > 0.0) {
    std::ifstream src(v4_copies[0], std::ios::binary);
    std::ofstream dst(v4_copies[1], std::ios::binary | std::ios::trunc);
    dst << src.rdbuf();
    if (!dst.flush()) Die("cannot copy the v4 file");
  }
  const KpjInstance instance = MapVerified(v4_copies[0]);
  const NodeId num_nodes = instance.NumNodes();
  std::optional<Popularity> popularity;
  if (w.zipf_s > 0.0) popularity.emplace(num_nodes, w.popularity_seed);
  std::optional<CategoryQuerySampler> categories;
  if (w.mode == Mode::kEngineClosed) {
    if (instance.categories() == nullptr) Die("instance has no categories");
    categories.emplace(instance.reverse(), *instance.categories(), w.k,
                       kCategoryPool, seed);
  }

  // --- Measured rounds. ---------------------------------------------------
  double validate_s = 0.0;
  auto run_round = [&](size_t round, uint64_t list_seed, bool traced) {
    ReleaseFreedHeap();
    ResetPeakRss();
    TraceRecorder::Global().Clear();
    const Popularity* pop = popularity ? &*popularity : nullptr;
    RoundResult result;
    switch (w.mode) {
      case Mode::kServiceClosed:
        result = ServiceClosedRound(
            config, v4_copies, round,
            MixQueries(num_nodes, w.round_queries, w.targets, w.k, pop,
                       w.zipf_s, list_seed),
            traced);
        break;
      case Mode::kEngineClosed:
        result = EngineClosedRound(config, instance, round,
                                   categories->Round(w.per_stratum, list_seed),
                                   traced);
        break;
    }
    result.peak_rss_mb = PeakRssMb();
    return result;
  };
  // One unmeasured round first: page faults on the mapped file and the
  // allocator's first growth are paid once per process, not per round.
  end_phase("setup");
  run_round(0, RoundSeed(seed, kWarmupRound), false);
  end_phase("warmup");

  std::vector<RoundResult> rounds;
  SelfTimeTable spans;
  bool wrote_trace = false;
  double measured_s = 0.0;
  size_t measured_samples = 0;
  const size_t min_rounds = trace ? 2 : 1;
  for (size_t round = 0;
       (measured_s < seconds || measured_samples < kMinLatencySamples ||
        rounds.size() < min_rounds) &&
       measured_s < kMaxSecondsFactor * seconds;
       ++round) {
    // A traced run pairs each untraced round with a traced replay of the
    // same query list, so trace.overhead_ratio compares like with like.
    const bool traced = trace && round % 2 == 1;
    RoundResult result =
        run_round(round, RoundSeed(seed, trace ? round / 2 : round), traced);
    measured_s += result.wall_s;
    measured_samples += result.samples.size();
    std::printf("round %zu%s: %zu queries in %.3f s, peak rss %.1f MiB\n",
                round, traced ? " (traced)" : "", result.samples.size(),
                result.wall_s, result.peak_rss_mb);
    if (traced) {
      SelfTimeTable table = ComputeSelfTimes(HarvestSpans(), "bench.request");
      spans.requests += table.requests;
      for (const auto& [name, us] : table.self_us) spans.self_us[name] += us;
      if (!wrote_trace) {
        WriteChromeTrace(work_dir + "/trace_" + workload + ".json",
                         fingerprint);
        wrote_trace = true;
      }
      TraceRecorder::Global().Clear();
    }
    Timer validate_timer;
    ValidateRound(instance.graph(), result);
    validate_s += validate_timer.ElapsedSeconds();
    rounds.push_back(std::move(result));
  }

  // --- Answer check (outside the measured window). -------------------------
  std::printf("phase validate %.3f s (inside rounds)\n", validate_s);
  end_phase("rounds");
  std::vector<std::vector<bool>> correct;
  const FailureCounts failures = CheckAnswers(instance, rounds, correct);
  end_phase("check");
  uint64_t attempted = 0;
  uint64_t answered_ok = 0;
  uint64_t within_slo = 0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    for (size_t i = 0; i < rounds[r].samples.size(); ++i) {
      ++attempted;
      if (!correct[r][i]) continue;
      ++answered_ok;
      if (rounds[r].samples[i].latency_ms <= w.slo_ms) ++within_slo;
    }
  }

  auto untraced = [](const RoundResult& r, const Sample&) { return !r.traced; };
  auto traced_only = [](const RoundResult& r, const Sample&) { return r.traced; };
  auto any = [](const RoundResult&, const Sample&) { return true; };
  const std::vector<double> latency =
      Collect(rounds, &Sample::latency_ms, untraced);
  // Per-round figures of the untraced rounds; their medians resist a
  // round disturbed by another tenant of the host.
  std::vector<double> round_qps, round_mean_ms, round_rss_mb;
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (rounds[r].traced) continue;
    std::vector<double> lat;
    uint64_t ok = 0;
    for (size_t i = 0; i < rounds[r].samples.size(); ++i) {
      lat.push_back(rounds[r].samples[i].latency_ms);
      ok += correct[r][i] ? 1 : 0;
    }
    round_qps.push_back(Ratio(static_cast<double>(ok), rounds[r].wall_s));
    round_mean_ms.push_back(Mean(lat));
    round_rss_mb.push_back(rounds[r].peak_rss_mb);
  }

  std::printf(
      "rounds %zu measured_s %.3f attempted %llu correct %llu\n"
      "fail_ratio %.6f (shed %llu, errors %llu, invalid %llu, "
      "mismatch %llu)\n",
      rounds.size(), measured_s, static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(answered_ok),
      Ratio(static_cast<double>(failures.Total()),
            static_cast<double>(attempted)),
      static_cast<unsigned long long>(failures.shed),
      static_cast<unsigned long long>(failures.errors),
      static_cast<unsigned long long>(failures.invalid),
      static_cast<unsigned long long>(failures.mismatch));
  if (!trace) {
    std::printf("latency samples %zu, p99 %s (needs %zu beyond the rank)\n",
                latency.size(),
                PercentileSupported(latency.size(), 99.0) ? "supported"
                                                          : "UNSUPPORTED",
                kMinSamplesBeyond);
  }

  MetricList metrics;
  if (!trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("qps", Median(round_qps), "1/s");
    metrics.Add("mean_ms", Median(round_mean_ms), "ms");
    metrics.Add("p50_ms", Percentile(latency, 50.0), "ms");
    metrics.Add("p99_ms", Percentile(latency, 99.0), "ms");
    metrics.Add("slo_ratio",
                Ratio(static_cast<double>(within_slo),
                      static_cast<double>(attempted)),
                "ratio");
    metrics.Add("peak_rss_mb", Median(round_rss_mb), "MiB");
  } else {
    const bool service = w.mode != Mode::kEngineClosed;
    EngineTotals engine;
    std::vector<double> swap_ms;
    for (const RoundResult& r : rounds) {
      engine.Merge(r.engine);
      swap_ms.insert(swap_ms.end(), r.swap_ms.begin(), r.swap_ms.end());
    }
    const double served = static_cast<double>(engine.served);
    const std::vector<double> queue = Collect(rounds, &Sample::queue_ms, any);
    const std::vector<double> exec = Collect(rounds, &Sample::exec_ms, any);
    double wall_all = 0.0;
    for (const RoundResult& r : rounds) wall_all += r.wall_s;

    metrics.Add("server.queue_ms_mean", service ? Mean(queue) : 0.0, "ms");
    metrics.Add("server.queue_ms_p99", service ? Percentile(queue, 99.0) : 0.0,
                "ms");
    metrics.Add("server.exec_ms_p50", service ? Percentile(exec, 50.0) : 0.0,
                "ms");
    metrics.Add("server.exec_ms_p99", service ? Percentile(exec, 99.0) : 0.0,
                "ms");
    metrics.Add("server.shed", static_cast<double>(failures.shed), "count");
    metrics.Add("server.swap_ms_max",
                swap_ms.empty() ? 0.0
                                : *std::max_element(swap_ms.begin(),
                                                    swap_ms.end()),
                "ms");

    std::vector<double> wire;
    for (const RoundResult& r : rounds) {
      if (r.traced || !service) continue;
      for (const Sample& s : r.samples) {
        if (s.answered) wire.push_back(s.latency_ms - s.queue_ms - s.exec_ms);
      }
    }
    metrics.Add("api.wire_ms_mean", Mean(wire), "ms");
    metrics.Add("api.encode_us_mean",
                Mean(Collect(rounds, &Sample::encode_us, untraced)), "us");
    metrics.Add("api.decode_us_mean",
                Mean(Collect(rounds, &Sample::decode_us, untraced)), "us");
    metrics.Add("api.response_bytes_mean",
                Mean(Collect(rounds, &Sample::response_bytes, any)), "B");

    metrics.Add("engine.busy_ratio",
                Ratio(engine.exec_ms_sum,
                      wall_all * 1e3 * static_cast<double>(config.engine.workers)),
                "ratio");
    metrics.Add("engine.overhead_us_mean",
                (Mean(exec) - Ratio(engine.exec_ms_sum,
                                    static_cast<double>(engine.exec_count))) *
                    1e3,
                "us");

    for (Algorithm a : kAllAlgorithms) {
      metrics.Add(std::string("planner.choice.") + AlgorithmName(a),
                  static_cast<double>(engine.planner_choice[PlannerIndex(a)]),
                  "count");
    }
    std::map<std::string, double> reasons;
    for (const RoundResult& r : rounds) {
      for (const Sample& s : r.samples) reasons[s.reason] += 1.0;
    }
    for (const std::string& reason : PlannerReasons()) {
      metrics.Add("planner.reason." + reason, reasons[reason], "count");
    }
    for (Algorithm a : kAllAlgorithms) {
      std::vector<double> solve;
      for (const RoundResult& r : rounds) {
        for (const Sample& s : r.samples) {
          if (s.answered && s.algorithm == AlgorithmName(a)) {
            solve.push_back(s.exec_ms);
          }
        }
      }
      metrics.Add(std::string("core.solve_ms_p50.") + AlgorithmName(a),
                  Percentile(solve, 50.0), "ms");
      metrics.Add(std::string("core.solve_ms_p99.") + AlgorithmName(a),
                  Percentile(solve, 99.0), "ms");
    }
    const AlgoStats& algo = engine.algo;
    metrics.Add("core.sp_computations_per_query",
                Ratio(static_cast<double>(engine.sp_computations), served),
                "count");
    metrics.Add("core.iter_bound_rounds_per_query",
                Ratio(static_cast<double>(algo.iter_bound_rounds), served),
                "count");
    metrics.Add("core.candidates_pruned_ratio",
                Ratio(static_cast<double>(algo.candidates_pruned),
                      static_cast<double>(algo.candidates_generated)),
                "ratio");
    metrics.Add("sssp.heap_pops_per_query",
                Ratio(static_cast<double>(engine.heap_pops), served), "count");
    metrics.Add("sssp.edges_relaxed_per_query",
                Ratio(static_cast<double>(engine.edges_relaxed), served),
                "count");
    metrics.Add("index.lb_tightness",
                Ratio(static_cast<double>(algo.lb_tightness_num),
                      static_cast<double>(algo.lb_tightness_den)),
                "ratio");
    metrics.Add("index.bound_cache_hit_ratio",
                Ratio(static_cast<double>(algo.bound_cache_hits),
                      static_cast<double>(algo.bound_cache_hits +
                                          algo.bound_cache_misses)),
                "ratio");
    metrics.Add("spt_cache.hit_ratio",
                Ratio(static_cast<double>(algo.spt_cache_hits),
                      static_cast<double>(algo.spt_cache_hits +
                                          algo.spt_cache_misses)),
                "ratio");
    metrics.Add("spt_cache.insert_skips",
                static_cast<double>(algo.spt_cache_insert_skips), "count");
    metrics.Add("spt_cache.evictions",
                static_cast<double>(engine.spt_cache_evictions), "count");
    metrics.Add("spt_cache.bytes_mb", engine.cache_bytes_max / (1 << 20),
                "MiB");
    metrics.Add("graph.landmark_build_s", Median(landmark_s), "s");
    metrics.Add("graph.v4_write_ms", Median(write_ms), "ms");
    metrics.Add("graph.map_ms", Median(map_ms), "ms");
    metrics.Add("graph.mapped_mb",
                static_cast<double>(instance.mapped_bytes()) / (1 << 20),
                "MiB");

    const double requests = static_cast<double>(spans.requests);
    double self_sum_us = 0.0;
    for (const std::string& name : ReportedSpans()) {
      double us = spans.self_us.count(name) ? spans.self_us.at(name) : 0.0;
      metrics.Add("self_ms." + name, Ratio(us, requests) / 1e3, "ms");
    }
    for (const auto& [name, us] : spans.self_us) self_sum_us += us;
    const std::vector<double> traced_latency =
        Collect(rounds, &Sample::latency_ms, traced_only);
    metrics.Add("trace.overhead_ratio",
                Ratio(Mean(traced_latency), Mean(latency)), "ratio");
    // Round trip = the client-timed latency of the traced requests.
    const double round_trip_us = Mean(traced_latency) * 1e3;
    metrics.Add("trace.unaccounted_ratio",
                Ratio(round_trip_us - Ratio(self_sum_us, requests),
                      round_trip_us),
                "ratio");
    std::printf("traced requests %zu\n", spans.requests);
  }

  std::vector<std::string> names;
  for (const Metric& m : metrics.items()) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    names.push_back(m.name);
  }
  // BENCHMARK.json lists the declared names (perfbench_selftest checks it).
  if (names != (trace ? PerLayerMetricNames() : EndToEndMetricNames())) {
    Die("the metrics printed differ from the declared metric names");
  }
  api::JsonValue out = api::JsonValue::Object();
  out.Set("correct", api::JsonValue::Bool(failures.Total() == 0));
  out.Set("attempted", api::JsonValue::Uint(attempted));
  out.Set("failed", api::JsonValue::Uint(failures.Total()));
  api::JsonValue values = api::JsonValue::Object();
  for (const Metric& m : metrics.items()) {
    api::JsonValue entry = api::JsonValue::Object();
    entry.Set("value", api::JsonValue::Double(m.value));
    entry.Set("unit", api::JsonValue::Str(m.unit));
    values.Set(m.name, std::move(entry));
  }
  out.Set("metrics", std::move(values));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  return 0;
}

int MakeFixture(const Flags& flags) {
  const Config config = LoadConfig(flags.Get("config"), "");
  RoadGenOptions options;
  options.target_nodes = config.nodes;
  options.seed = config.graph_seed;
  RoadNetwork net = GenerateRoadNetwork(options);
  const std::string out = flags.Get("out");
  Check(SaveGraphBinary(net.graph, out), "write fixture");
  std::printf("fixture %u nodes, %u arcs -> %s\n", net.graph.NumNodes(),
              net.graph.NumEdges(), out.c_str());
  return 0;
}

}  // namespace
}  // namespace kpj::perfbench

int main(int argc, char** argv) {
  using namespace kpj::perfbench;
  Flags flags = ParseFlags(argc, argv);
  if (flags.command == "fixture") return MakeFixture(flags);
  if (flags.command == "run") return Run(flags);
  Die("unknown command " + flags.command);
}
