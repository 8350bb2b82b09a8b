#!/usr/bin/env python3
"""Schema checks for the KPJ CLI's observability outputs.

Validates one file per invocation:

    tools/validate_metrics.py --mode metrics-json engine_metrics.json
    tools/validate_metrics.py --mode prom         engine_metrics.prom
    tools/validate_metrics.py --mode trace        trace.json
    tools/validate_metrics.py --mode access-log   access.log
    tools/validate_metrics.py --mode stats        stats.json

Pass --server for expositions produced by kpjd: the daemon splices
server-level keys (server_accepted, kpj_server_*_total, the
kpj_server_queue_time_ms histogram, ...) into the engine body, and those
become required on top of the engine schema.

Exit status 0 means the file is well-formed; any violation prints a
diagnostic and exits 1. Used by scripts/check.sh to gate the CLI smoke
run and the kpjd service smoke, and handy standalone when wiring
dashboards.
"""

import argparse
import json
import math
import re
import sys

METRICS_REQUIRED_KEYS = [
    "workers",
    "queries_served",
    "queries_failed",
    "deadline_exceeded",
    "slow_queries",
    "paths_returned",
    "heap_pops",
    "edges_relaxed",
    "sp_computations",
    "algo_heap_pushes",
    "algo_heap_pops",
    "algo_heap_decrease_keys",
    "algo_node_expansions",
    "algo_spt_resume_hits",
    "algo_spt_resume_misses",
    "algo_iter_bound_rounds",
    "algo_candidates_generated",
    "algo_candidates_pruned",
    "algo_lb_tightness",
    "algo_spt_cache_hits",
    "algo_spt_cache_misses",
    "algo_bound_cache_hits",
    "algo_bound_cache_misses",
    "algo_spt_cache_insert_skips",
    "planner_choice_DA",
    "planner_choice_DA_SPT",
    "planner_choice_BestFirst",
    "planner_choice_IterBound",
    "planner_choice_IterBoundP",
    "planner_choice_IterBoundI",
    "planner_choice_IterBoundI_NL",
    "planner_choice_total",
    "planner_fallback_total",
    "spt_cache_insertions",
    "spt_cache_evictions",
    "bound_cache_evictions",
    "cache_bytes",
    "latency_count",
    "latency_mean_ms",
    "latency_min_ms",
    "latency_max_ms",
    "latency_p50_ms",
    "latency_p90_ms",
    "latency_p99_ms",
]

PROM_REQUIRED_SERIES = [
    "kpj_workers",
    "kpj_queries_served_total",
    "kpj_queries_failed_total",
    "kpj_queries_deadline_exceeded_total",
    "kpj_slow_queries_total",
    "kpj_paths_returned_total",
    "kpj_sp_computations_total",
    "kpj_heap_pushes_total",
    "kpj_heap_pops_total",
    "kpj_heap_decrease_keys_total",
    "kpj_node_expansions_total",
    "kpj_edges_relaxed_total",
    "kpj_spt_resume_hits_total",
    "kpj_spt_resume_misses_total",
    "kpj_iter_bound_rounds_total",
    "kpj_candidates_generated_total",
    "kpj_candidates_pruned_total",
    "kpj_lower_bound_tightness_ratio",
    "kpj_lb_tightness_num_total",
    "kpj_lb_tightness_den_total",
    "kpj_spt_cache_hits_total",
    "kpj_spt_cache_misses_total",
    "kpj_bound_cache_hits_total",
    "kpj_bound_cache_misses_total",
    "kpj_spt_cache_evictions_total",
    "kpj_bound_cache_evictions_total",
    "kpj_spt_cache_insert_skips_total",
    "kpj_planner_choice_total",
    "kpj_planner_fallback_total",
    "kpj_cache_bytes",
    "kpj_query_latency_ms",
]

# Spliced into both expositions by kpjd (src/server/server.cc); required
# only under --server.
SERVER_METRICS_REQUIRED_KEYS = [
    "server_accepted",
    "server_rejected",
    "server_shed",
    "server_drained",
    "server_in_flight",
    "server_epoch",
    "server_queue_count",
    "server_queue_mean_ms",
    "server_queue_max_ms",
    "server_queue_p99_ms",
    "server_swap_count",
    "server_swap_mean_ms",
    "server_swap_max_ms",
    "server_swap_p99_ms",
    "server_mapped_bytes",
]

SERVER_PROM_REQUIRED_SERIES = [
    "kpj_server_accepted_total",
    "kpj_server_rejected_total",
    "kpj_server_shed_total",
    "kpj_server_drained_total",
    "kpj_server_in_flight",
    "kpj_server_epoch",
    "kpj_server_mapped_bytes",
    "kpj_server_queue_time_ms",
    "kpj_server_swap_ms",
]

# Every histogram in the exposition gets cumulative-bucket and
# +Inf == _count checks; these are the ones that must exist at all.
REQUIRED_HISTOGRAMS = ["kpj_query_latency_ms"]
SERVER_REQUIRED_HISTOGRAMS = ["kpj_server_queue_time_ms", "kpj_server_swap_ms"]


def fail(message):
    print(f"validate_metrics: {message}", file=sys.stderr)
    sys.exit(1)


def check_metrics_json(text, server=False):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"metrics JSON does not parse: {e}")
    if not isinstance(data, dict):
        fail("metrics JSON root must be an object")
    required = METRICS_REQUIRED_KEYS + (
        SERVER_METRICS_REQUIRED_KEYS if server else [])
    for key in required:
        if key not in data:
            fail(f"metrics JSON missing key {key!r}")
        value = data[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"metrics key {key!r} must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            fail(f"metrics key {key!r} is not finite: {value!r}")
        if value < 0:
            fail(f"metrics key {key!r} is negative: {value!r}")
    if not 0.0 <= data["algo_lb_tightness"] <= 1.0 + 1e-9:
        fail(f"algo_lb_tightness outside [0, 1]: {data['algo_lb_tightness']}")


def check_prom(text, server=False):
    # sample line: name{labels} value  |  name value
    sample_re = re.compile(
        r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
    typed = {}
    seen = set()
    bucket_counts = {}     # histogram base name -> [bucket values in order]
    histogram_counts = {}  # histogram base name -> _count value
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram"):
                fail(f"line {line_no}: malformed TYPE comment: {line!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            fail(f"line {line_no}: unknown comment form: {line!r}")
        m = sample_re.match(line)
        if m is None:
            fail(f"line {line_no}: unparseable sample: {line!r}")
        name, labels, value_text = m.groups()
        try:
            value = float(value_text)
        except ValueError:
            fail(f"line {line_no}: non-numeric value: {line!r}")
        if not math.isfinite(value):
            fail(f"line {line_no}: non-finite value: {line!r}")
        if value < 0:
            fail(f"line {line_no}: negative value: {line!r}")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base not in typed:
            fail(f"line {line_no}: sample {name!r} has no TYPE comment")
        seen.add(base)
        if name in ("kpj_lb_tightness_num_total",
                    "kpj_lb_tightness_den_total",
                    "kpj_planner_choice_total"):
            # Raw tightness terms and planner decisions are per-solver
            # series; without the algorithm label they would aggregate
            # into a meaningless sum.
            if labels is None or 'algorithm="' not in labels:
                fail(f"line {line_no}: {name} without algorithm label")
        if name.endswith("_bucket") and typed.get(base) == "histogram":
            if labels is None or 'le="' not in labels:
                fail(f"line {line_no}: histogram bucket without le label")
            bucket_counts.setdefault(base, []).append(value)
        if name.endswith("_count") and typed.get(base) == "histogram":
            histogram_counts[base] = value
    required = PROM_REQUIRED_SERIES + (
        SERVER_PROM_REQUIRED_SERIES if server else [])
    for name in required:
        if name not in seen:
            fail(f"missing series {name!r}")
    required_histograms = REQUIRED_HISTOGRAMS + (
        SERVER_REQUIRED_HISTOGRAMS if server else [])
    for base in required_histograms:
        if base not in bucket_counts:
            fail(f"histogram {base!r} has no buckets")
    for base, buckets in bucket_counts.items():
        if any(b > a for b, a in zip(buckets, buckets[1:])):
            fail(f"histogram {base!r} buckets are not cumulative")
        if base not in histogram_counts:
            fail(f"histogram {base!r} has no _count sample")
        if buckets[-1] != histogram_counts[base]:
            fail(f"{base}: +Inf bucket {buckets[-1]} != "
                 f"_count {histogram_counts[base]}")


# One JSONL object per finished request, written by kpjd --access-log
# (src/server/access_log.cc). trace_id is always present: zero-padded
# 16-hex, all zeros when the client sent no trace context.
ACCESS_LOG_STRING_KEYS = [
    "trace_id", "peer", "type", "algorithm", "status", "shed_reason"]
ACCESS_LOG_NUMBER_KEYS = ["ts_ms", "k", "queue_ms", "exec_ms", "epoch"]
TRACE_ID_RE = re.compile(r"^[0-9a-f]{16}$")

# Rolling-window gauge payload served by the kpjd `stats` request
# (api::StatsInfo).
STATS_REQUIRED_KEYS = [
    "window_s", "requests", "shed", "errors", "qps",
    "latency_mean_ms", "latency_p50_ms", "latency_p90_ms",
    "latency_p99_ms", "latency_max_ms", "in_flight", "epoch",
]


def check_access_log(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail("access log has no lines")
    for line_no, line in enumerate(lines, 1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"access log line {line_no} does not parse: {e}")
        if not isinstance(entry, dict):
            fail(f"access log line {line_no} is not an object")
        for key in ACCESS_LOG_STRING_KEYS:
            if key not in entry:
                fail(f"access log line {line_no} missing key {key!r}")
            if not isinstance(entry[key], str):
                fail(f"access log line {line_no}: {key!r} must be a string, "
                     f"got {entry[key]!r}")
        for key in ACCESS_LOG_NUMBER_KEYS:
            if key not in entry:
                fail(f"access log line {line_no} missing key {key!r}")
            value = entry[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(f"access log line {line_no}: {key!r} must be a number, "
                     f"got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                fail(f"access log line {line_no}: {key!r} is not finite")
            if value < 0:
                fail(f"access log line {line_no}: {key!r} is negative")
        if not TRACE_ID_RE.match(entry["trace_id"]):
            fail(f"access log line {line_no}: trace_id is not 16-hex: "
                 f"{entry['trace_id']!r}")
        if not entry["type"]:
            fail(f"access log line {line_no}: empty request type")
        if not entry["status"]:
            fail(f"access log line {line_no}: empty status")
    print(f"validate_metrics: checked {len(lines)} access-log lines",
          file=sys.stderr)


def check_stats(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"stats JSON does not parse: {e}")
    if not isinstance(data, dict):
        fail("stats JSON root must be an object")
    for key in STATS_REQUIRED_KEYS:
        if key not in data:
            fail(f"stats JSON missing key {key!r}")
        value = data[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"stats key {key!r} must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            fail(f"stats key {key!r} is not finite: {value!r}")
        if value < 0:
            fail(f"stats key {key!r} is negative: {value!r}")
    if data["shed"] + data["errors"] > data["requests"]:
        fail("stats: shed + errors exceeds requests")
    if "per_second" not in data or not isinstance(data["per_second"], list):
        fail("stats JSON missing 'per_second' array")
    for i, n in enumerate(data["per_second"]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            fail(f"stats per_second[{i}] must be a non-negative integer")
    if len(data["per_second"]) > data["window_s"]:
        fail("stats: per_second has more buckets than window_s")


def check_trace(text, expect_spans=()):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"trace JSON does not parse: {e}")
    if not isinstance(data, dict) or "traceEvents" not in data:
        fail("trace JSON must be an object with a 'traceEvents' array")
    events = data["traceEvents"]
    if not isinstance(events, list):
        fail("'traceEvents' must be an array")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"event {i} is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"event {i} missing {key!r}")
        if event["ph"] not in ("X", "i"):
            fail(f"event {i} has unsupported phase {event['ph']!r}")
        if event["ph"] == "X":
            if "dur" not in event or event["dur"] < 0:
                fail(f"event {i}: complete event needs dur >= 0")
        if event["ph"] == "i" and event.get("s") != "t":
            fail(f"event {i}: instant event needs scope 's': 't'")
        if event["ts"] < 0:
            fail(f"event {i} has negative timestamp")
    if expect_spans:
        names = {e["name"] for e in events}
        for span in expect_spans:
            if span not in names:
                fail(f"trace missing expected span {span!r}")
        trace_ids = {e["args"]["trace_id"] for e in events
                     if isinstance(e.get("args"), dict)
                     and "trace_id" in e["args"]}
        if len(trace_ids) != 1:
            fail(f"expected one shared trace_id across spans, "
                 f"got {sorted(trace_ids)!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=["metrics-json", "prom", "trace",
                                 "access-log", "stats"])
    parser.add_argument("--server", action="store_true",
                        help="require kpjd server-level series too")
    parser.add_argument("--expect-span", action="append", default=[],
                        metavar="NAME",
                        help="trace mode: require a span with this name and "
                             "a single shared args.trace_id (repeatable)")
    parser.add_argument("path")
    args = parser.parse_args()
    if args.server and args.mode not in ("metrics-json", "prom"):
        fail("--server only applies to metrics-json and prom modes")
    if args.expect_span and args.mode != "trace":
        fail("--expect-span only applies to trace mode")
    with open(args.path, "r", encoding="utf-8") as f:
        text = f.read()
    if args.mode == "metrics-json":
        check_metrics_json(text, server=args.server)
    elif args.mode == "prom":
        check_prom(text, server=args.server)
    elif args.mode == "access-log":
        check_access_log(text)
    elif args.mode == "stats":
        check_stats(text)
    else:
        check_trace(text, expect_spans=args.expect_span)
    print(f"validate_metrics: {args.mode} OK: {args.path}")


if __name__ == "__main__":
    main()
