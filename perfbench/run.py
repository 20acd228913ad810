"""Benchmark entry point for sdckws.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in a child process of its own (workloads.py), so its
peak RSS is its own.  With --trace 0 the named workload runs untraced
and the last line of output is a JSON object with its end-to-end
metrics.  With --trace 1 the traced versions of all three workloads run,
each in its own process for a third of --seconds, because every
per-layer metric is defined on the workload that exercises that layer;
the last line then carries the per-layer metrics, each named after its
workload.  --workload all runs the three untraced, then traced, and
prints the tracing overhead.

Lines before the last one give every metric by name and unit, the
machine context and a digest of the generated inputs.  Generated files
go to .perfbench_work/ under the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-short", "score-1s", "extract-1s")
# Whole-command budget: the single-workload modes must end within 180 s.
BUDGET_S = 170.0
# One BLAS thread per workload process.  On the 2-core machine the
# committed numbers come from, two OpenBLAS threads made score-1s slower
# and its run-to-run spread wider (see NOTES.md).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def run_child(workload, seed, seconds, trace, work, timeout):
    """Run one workload process; returns its result dict, or None on failure."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", os.path.join(work, f"{workload}-{'traced' if trace else 'plain'}")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              env={**os.environ, **BLAS_ENV}, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {timeout:.0f} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload}: exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def describe(result):
    tag = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({tag}, seed {result['seed']})")
    for name, value, unit, note in result["named"]:
        print(f"  {name:<24} {value:>12.6g} {unit:<8} {note}")
    ctx = result["context"]
    flag = "  OVERLOADED: load above nproc" if ctx["overloaded"] else ""
    print(f"  context  nproc={ctx['nproc']} affinity={ctx['affinity']}"
          f" blas={ctx['blas']} blas_env={ctx['blas_env']} python={ctx['python']}"
          f" numpy={ctx['numpy']} load_before={ctx['loadavg_before']}"
          f" load_after={ctx['loadavg_after']}{flag}")
    print(f"  inputs   sha256={result['digest']}")
    for failure in result["failures"]:
        print(f"  FAILED   {failure}")
    for name, value in result.get("layers", {}).items():
        print(f"  layer    {name:<36} {value:.6g}")


def units():
    """Metric units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def summary(results, metrics, unit_of):
    """The result's last line; metric names must match BENCHMARK.json exactly."""
    if set(metrics) != set(unit_of):
        missing = sorted(set(unit_of) - set(metrics))
        extra = sorted(set(metrics) - set(unit_of))
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing},"
                         f" undeclared {extra}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of[name]}
                        for name, value in metrics.items()}}


def layer_metrics(results):
    return {f"{r['workload']}.{name}": value
            for r in results for name, value in r["layers"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="sdckws benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "sdckws", "__init__.py")):
        print("src/sdckws not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = units()
    work = os.path.join(ROOT, ".perfbench_work")
    deadline = time.monotonic() + BUDGET_S
    if args.workload == "all":
        deadline = float("inf")
        plain_names = traced_names = WORKLOADS
    elif args.trace:
        plain_names, traced_names = (), WORKLOADS
    else:
        plain_names, traced_names = (args.workload,), ()
    plain, traced = [], []
    try:
        for names, trace, out in ((plain_names, 0, plain), (traced_names, 1, traced)):
            for name in names:
                seconds = max(1, args.seconds // 3) if trace else args.seconds
                result = run_child(name, args.seed, seconds, trace, work,
                                   min(BUDGET_S, deadline - time.monotonic()))
                if result is None:
                    return 1
                describe(result)
                out.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        print("== tracing overhead (traced - untraced) / untraced")
        for p, t in zip(plain, traced):
            for name, value in p["e2e"].items():
                change = (t["e2e"][name] - value) / value
                print(f"  {p['workload']:<12} {name:<18} {change:+.1%}")
        metrics = {f"{r['workload']}.{k}": v for r in plain for k, v in r["e2e"].items()}
        metrics.update(layer_metrics(traced))
        unit_of = {f"{w}.{k}": u for w in WORKLOADS for k, u in e2e_units.items()}
        unit_of.update(layer_units)
        line = summary(plain + traced, metrics, unit_of)
    elif args.trace:
        line = summary(traced, layer_metrics(traced), layer_units)
    else:
        line = summary(plain, plain[0]["e2e"], e2e_units)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
