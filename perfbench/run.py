#!/usr/bin/env python3
"""Runs one workload of the tempest benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --manifest     # rewrite BENCHMARK.json

The first run in a checkout builds perfbench/CMakeLists.txt (the server
libraries from src/ plus the two benchmark binaries) into .bench_build/.
With --trace 0 it runs the untraced binary and reports the end-to-end
metrics. With --trace 1 it runs the untraced binary and then the traced one
on the same seed, and reports the per-layer metrics together with both runs'
end-to-end metrics, whose difference is the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 1 when a check failed or the run was invalid (the JSON line
is still printed, with "correct": false), and 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPLAY = os.path.join(ROOT, ".bench_build", "perfbench-replay")
TIME_BUDGET_S = 170.0

WORKLOADS = [
    ("paper_ordering",
     "logged-in TPC-W ordering mix, simulated costs on: sessions, response "
     "and fragment caches, DB writes and invalidation, quick/lengthy split"),
    ("paper_browsing",
     "the paper's setup in process: simulated costs, caches off, paper "
     "controller; latency is set by pools, quick/lengthy split, treserve"),
]
RUN_SECONDS = 40

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p95_ms": ("ms", "lower", 0.25),
    "quick_p50_ms": ("ms", "lower", 0.25),
    "quick_p95_ms": ("ms", "lower", 0.25),
    "lengthy_p50_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_req": ("ms", "lower", 0.25),
    "rss_mb": ("MB", "lower", 0.2),
    "achieved_rps": ("1/s", "higher", 0.08),
    "ok_frac": ("fraction", "higher", 0.01),
}

STAGES = ["header", "static", "general", "lengthy", "render"]

# name -> unit
PER_LAYER = {
    "server.residence_p50_ms": "ms",
    "server.residence_p99_ms": "ms",
    "transport.outside_p50_ms": "ms",
    "transport.outside_p99_ms": "ms",
    # The server's stage histograms report a 1.6x bucket's upper bound, so
    # their p50/p99 are bucket labels in ms; the means are exact.
    **{f"stage.{s}.{kind}_{stat}_ms": "ms_bucket" if stat != "mean" else "ms"
       for s in STAGES for kind in ("wait", "service")
       for stat in ("p50", "p99", "mean")},
    "stage.lengthy.share": "fraction",
    "handler.quick_p50_ms": "ms",
    "handler.lengthy_p50_ms": "ms",
    "handler.lengthy_p99_ms": "ms",
    "db.statements_per_req": "count",
    "db.acquire_wait_mean_ms": "ms",
    "db.idle_while_held": "fraction",
    "db.plan_cache_hit_rate": "fraction",
    "db.order_line_rows_end": "count",
    "response_cache.hit_rate": "fraction",
    "response_cache.invalidations": "count",
    "fragment_cache.hit_rate": "fraction",
    "fragment_cache.splices_per_req": "count",
    "fragment_cache.invalidations": "count",
    "fragment_cache.stale_rejects": "count",
    "session.validations_per_req": "count",
    "controller.treserve_mean": "threads",
    "controller.tspare_min": "threads",
    "process.allocs_per_req": "count",
    "process.alloc_bytes_per_req": "B",
    "process.vcsw_per_req": "count",
    "process.ivcsw_per_req": "count",
    "gen.cpu_ms_per_req": "ms",
    "gen.late_p99_ms": "ms",
    # Tracing overhead: the same seed's end-to-end metrics, traced and not.
    **{f"{side}.{name}": unit
       for name, (unit, _, _) in END_TO_END.items()
       for side in ("traced", "untraced")},
}


HIGHER_IS_BETTER = ("hit_rate", "splices_per_req", "tspare_min",
                    "achieved_rps", "ok_frac")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no tempest sources next to perfbench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(binary, args, deadline):
    cmd = [os.path.join(BUILD, binary)] + args
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if out.stderr:
        log(out.stderr.rstrip())
    return json.loads(out.stdout.strip().splitlines()[-1])


def replay_problems(result, seconds):
    """Same workload, seed and length must do the same work on every run."""
    os.makedirs(REPLAY, exist_ok=True)
    path = os.path.join(
        REPLAY, f"{result['workload']}-{int(result['seed'])}-{seconds:g}.json")
    record = {"plan_digest": result["plan_digest"], "rows": result["rows"]}
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(record, f)
        return []
    with open(path) as f:
        earlier = json.load(f)
    problems = []
    if earlier["plan_digest"] != record["plan_digest"]:
        problems.append("plan differs from an earlier run of this seed")
    if earlier["rows"] != record["rows"]:
        problems.append("final row counts differ from an earlier run of "
                        f"this seed: {earlier['rows']} vs {record['rows']}")
    return problems


def report(results, trace):
    """Prints the human-readable table; returns the metrics object."""
    main = results[-1]
    metrics = {}
    if not trace:
        for name, (unit, _, _) in END_TO_END.items():
            metrics[name] = {"value": main["e2e"][name], "unit": unit}
    else:
        plain, traced = results
        for name, unit in PER_LAYER.items():
            side, _, e2e_name = name.partition(".")
            if side in ("traced", "untraced") and e2e_name in END_TO_END:
                source = traced if side == "traced" else plain
                value = source["e2e"][e2e_name]
            else:
                value = traced["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
    print(f"workload {main['workload']}  seed {int(main['seed'])}  "
          f"requests {int(main['attempted'])}  failed {int(main['failed'])}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'error_frac':36s} {main['e2e']['error_frac']:>16.6f} fraction")
    print(f"  {'generator late p99':36s} {main['gen_late_p99_ms']:>16.6f} ms")
    print(f"  {'latency max':36s} {main['latency_max_ms']:>16.6f} ms")
    for result in results:
        for check, status in result["checks"].items():
            print(f"  check {check:30s} {status}")
    return metrics


def manifest():
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n.endswith(HIGHER_IS_BETTER)
                       else "lower"}
                      for n, u in PER_LAYER.items()],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true")
    args = parser.parse_args()
    if args.manifest:
        manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + TIME_BUDGET_S
    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
    binaries = ["perfbench"] + (["perfbench_traced"] if args.trace else [])
    try:
        results = [run_binary(b, run_args, deadline) for b in binaries]
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: run failed: {e}")
        return 1

    problems = []
    for result in results:
        problems += [f"{k}: {v}" for k, v in result["checks"].items()
                     if v != "ok"]
        if result["invalid"]:
            problems.append(f"invalid run: {result['invalid']}")
        problems += replay_problems(result, args.seconds)
    metrics = report(results, args.trace)
    for problem in problems:
        print(f"  FAILED {problem}")
    main_result = results[-1]
    print(json.dumps({
        "correct": not problems,
        "attempted": int(main_result["attempted"]),
        "failed": int(main_result["failed"]),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
