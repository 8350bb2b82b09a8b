#!/usr/bin/env python3
"""Builds and runs the KPJ service benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload service_zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20     # every workload
    python3 perfbench/run.py --selftest                      # benchmark self-tests

Run from the repository root. The benchmark is compiled from the sources
in the checkout into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); inputs, serving files and traces go to
.../perfbench-work. The last stdout line of a run is its JSON result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG = os.path.join(HERE, "workloads.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dirs():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench"), os.path.join(base, "perfbench-work")


def child_env(work):
    # Compilers and the benchmark keep their temporary files in the checkout.
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the KPJ sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env, timeout=600)
    subprocess.run(["cmake", "--build", build_dir, "-j4"], check=True,
                   stdout=sys.stderr, env=env, timeout=840)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def fixture(binary, work, env):
    with open(CONFIG) as f:
        graph = json.load(f)["graph"]
    path = os.path.join(work, "road_%d_%d.bin" % (graph["nodes"], graph["seed"]))
    if not os.path.isfile(path):
        tmp = path + ".partial"
        subprocess.run([binary, "fixture", "--config", CONFIG, "--out", tmp],
                       check=True, stdout=sys.stderr, env=env, timeout=RUN_TIMEOUT_S)
        os.replace(tmp, path)
    return path


def run_workload(binary, fixture_path, work, env, args, workload, trace):
    cmd = [binary, "run", "--config", CONFIG, "--fixture", fixture_path,
           "--work-dir", work, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--source-id", source_id()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("%s exited with %d" % (workload, proc.returncode))
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_dir, work = build_dirs()
    os.makedirs(work, exist_ok=True)
    env = child_env(work)
    build(build_dir, env)
    if args.selftest:
        test = subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                               "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json"),
                               "--config", CONFIG], env=env, timeout=RUN_TIMEOUT_S)
        sys.exit(test.returncode)

    with open(CONFIG) as f:
        workloads = list(json.load(f)["workloads"])
    binary = os.path.join(build_dir, "kpj_perfbench")
    fixture_path = fixture(binary, work, env)
    if args.all:
        for workload in workloads:
            for trace in (0, 1):
                sys.stdout.write(run_workload(binary, fixture_path, work, env,
                                              args, workload, trace))
        return
    if args.workload not in workloads:
        fail("--workload must be one of: " + ", ".join(workloads))
    sys.stdout.write(run_workload(binary, fixture_path, work, env, args,
                                  args.workload, args.trace))


if __name__ == "__main__":
    main()
