#!/usr/bin/env python3
"""Heron benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds `perfbench/` (a package of its own
that links the repository's crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload as a series of fresh
child processes for about `--seconds` host seconds. Each child is one
sub-run: set-up, warm-up, the measurement window and a drain of a
simulation seeded from `--seed`, followed by the correctness check:
replicas of every partition must hold equal state digests and equal
delivered prefixes, and every request must be counted once, as completed
(the cluster counts it too) or as failed.

Virtual metrics (simulated time) are deterministic for a sub-run's seed:
every child of a sub-run, traced or not, must report them bit-identically,
or the run fails. With `--trace 0` the children run the 6 sub-runs and
then repeat from sub-run 0; the last line reports the end-to-end metrics,
virtual ones pooled over the 6 sub-runs and host ones as the median over
the children. With `--trace 1` each sub-run runs untraced and then traced;
the last line reports the per-layer metrics: virtual ones of sub-run 0,
host ones as the median over the traced children, which also record
spans from the benchmark's own code into `perfbench/out/`.

`--selftest` corrupts one stored object at one replica after the drain
and passes only if the correctness check catches it.

The metric names, units and bounds are read from `BENCHMARK.json`; what
each per-layer metric is predicted to move is in `perfbench/predictions.json`.
"""

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BINARY = "heron-perfbench"
WORKLOADS = ("tpcc-4p", "ordering-4p", "failover-4p")
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
# Sub-runs pooled into the end-to-end metrics of one run. Each is a short
# simulation with its own seed derived from --seed; pooling them narrows
# the spread between seeds of tps and the latency percentiles about as much
# as one window that many times longer would, at a fraction of the cost of
# a longer run repeated for the determinism check.
SUBRUNS = 6
# Printed with the end-to-end metrics but not bounded in BENCHMARK.json:
# `unavail_ms` is meaningful only under a fault (failover-4p), and the two
# fractions are bounded as their complements `ok_frac` and `slo_ok_frac`,
# because an end-to-end metric must not be 0.
REPORTED = {"unavail_ms": "ms", "failed_frac": "frac", "slo_miss_frac": "frac"}
# Host measurements printed and recorded but not bounded: set-up's wall
# time, beside `setup_s`, which is set-up's CPU time.
REPORTED_HOST = {"setup_wall_s": "s"}
# Per-layer host metrics measured on the untraced children (all others
# come from the traced ones): per-layer name -> key in the child's report.
# Host time per request is per-layer, not end-to-end: every simulated
# process is an OS thread, so wall and CPU time per request follow the
# machine's thread wake-up behaviour and moved by up to 2x between runs
# minutes apart on a shared 2-vCPU machine.
UNTRACED_HOST = {
    "bench.wall_us_per_req": "bench.wall_us_per_req",
    "bench.cpu_us_per_req_untraced": "sim.cpu_us_per_req",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path or None."""
    manifest = HERE / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return target / "release" / BINARY


def sub_seed(seed, k):
    return (seed * SUBRUNS + k) % 2**64


def spans_path(workload, seed):
    return OUT / f"spans-{workload}-seed{seed}.csv"


def quantile(sorted_values, q):
    """Nearest-rank quantile, as the benchmark binary computes it."""
    if not sorted_values:
        return 0
    rank = min(max(math.ceil(len(sorted_values) * q), 1), len(sorted_values))
    return sorted_values[rank - 1]


def run_child(binary, workload, seed, traced, extra=()):
    """One sub-run in a fresh process: set-up, window, drain and check.
    Returns (exit code, parsed report or None, stderr)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), *extra]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace", str(spans_path(workload, seed))]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"child exceeded {CHILD_TIMEOUT_S} s"
    try:
        report = json.loads(done.stdout)
    except json.JSONDecodeError:
        report = None
    return done.returncode, report, done.stderr


def host_stats(reports, key):
    """Median, quartiles (statistics.quantiles, n=4) and values of a host
    measurement over the given children."""
    vals = [r["host"][key] for r in reports]
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"value": med, "q1": q1, "q3": q3, "n": len(vals), "values": vals}


def pool(subruns):
    """End-to-end virtual metrics over the sub-runs: throughput over their
    summed windows, percentiles and fractions over all their requests."""
    lat = sorted(x for v in subruns for x in v["lat_ns"])
    attempted = sum(v["attempted"] for v in subruns)
    failed = sum(v["failed"] for v in subruns)
    slo_miss = sum(v["slo_miss"] for v in subruns)
    p99 = quantile(lat, 0.99)
    metrics = {
        "tps": sum(v["committed"] for v in subruns) / sum(v["window_s"] for v in subruns),
        "lat_p50_us": quantile(lat, 0.5) / 1e3,
        "lat_p99_us": p99 / 1e3,
        "ok_frac": 1.0 - failed / attempted,
        "slo_ok_frac": 1.0 - slo_miss / attempted,
        "failed_frac": failed / attempted,
        "slo_miss_frac": slo_miss / attempted,
        "unavail_ms": statistics.median(v["unavail_ms"] for v in subruns),
    }
    counts = {
        "attempted": attempted,
        "failed": failed,
        "lat": len(lat),
        "lat_beyond_p99": sum(1 for x in lat if x > p99),
    }
    return metrics, counts


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "rustc": rustc, "kernel": platform.release()}


def selftest(binary):
    code, report, err = run_child(binary, "tpcc-4p", 42, False, extra=["--corrupt"])
    caught = code == 1 and report is not None and any("digests differ" in f for f in report["failures"])
    log(err.strip())
    print(f"selftest: a corrupted replica is {'caught' if caught else 'NOT caught'} by the digest check")
    return 0 if caught else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    with open("BENCHMARK.json") as f:
        definition = json.load(f)

    # Children to run, in order: with --trace 0 the sub-runs 0..SUBRUNS-1
    # once each and then again from 0, so that sub-run 0 repeats; with
    # --trace 1 an untraced and a traced child per sub-run. Stop starting
    # children once the next would overrun the budget, but not before the
    # minimum has run.
    if args.trace == 0:
        plan = ((k % SUBRUNS, False) for k in itertools.count())
        minimum = SUBRUNS + 1
    else:
        plan = ((k // 2 % SUBRUNS, k % 2 == 1) for k in itertools.count())
        minimum = 2
    reports = []
    started = time.monotonic()
    for k, traced in plan:
        t0 = time.monotonic()
        code, report, err = run_child(binary, args.workload, sub_seed(args.seed, k), traced)
        if report is None:
            log(err.strip())
            log(f"sub-run {k} produced no report (exit code {code})")
            return 1
        report["sub_run"] = k
        reports.append(report)
        if code != 0:
            log(err.strip())
            break
        took = time.monotonic() - t0
        if len(reports) >= minimum and time.monotonic() - started + took > args.seconds:
            break

    # Determinism: every child of a sub-run, traced or not, reports the
    # same virtual metrics bit for bit.
    failures = [f"sub-run {r['sub_run']}: {f}" for r in reports for f in r["failures"]]
    by_sub = {}
    for r in reports:
        by_sub.setdefault(r["sub_run"], []).append(r)
    for k, group in sorted(by_sub.items()):
        base = group[0]["virtual"]
        for r in group[1:]:
            if r["virtual"] != base:
                diff = sorted(key for key in base if r["virtual"].get(key) != base[key])
                kind = "traced" if r["trace"] else "untraced"
                failures.append(f"sub-run {k} repeated ({kind}) differs in {diff}")
    correct = not failures

    subruns = [group[0]["virtual"] for _, group in sorted(by_sub.items())]
    first = subruns[0]
    untraced = [r for r in reports if not r["trace"]]
    traced = [r for r in reports if r["trace"]]
    pooled, counts = pool(subruns)

    def e2e(name):
        if name in pooled:
            return {"value": pooled[name]}
        return host_stats(untraced, name) if name in untraced[0]["host"] else None

    def layer(name):
        """Per-layer virtual metrics describe sub-run 0."""
        if name in first:
            return {"value": first[name]}
        if name in UNTRACED_HOST:
            return host_stats(untraced, UNTRACED_HOST[name])
        if not traced:
            return None
        if name == "bench.trace_overhead_frac":
            plain = host_stats(untraced, "sim.cpu_us_per_req")["value"]
            return {"value": host_stats(traced, "sim.cpu_us_per_req")["value"] / plain - 1.0}
        return host_stats(traced, name) if name in traced[0]["host"] else None

    def measured(defs, get):
        out = {}
        for m in defs:
            v = get(m["name"])
            if v is not None:
                out[m["name"]] = {**v, "unit": m["unit"]}
        return out

    metrics = measured(definition["end_to_end"], e2e)
    layers = measured(definition["per_layer"], layer)
    reported = {k: {"value": pooled[k], "unit": u} for k, u in REPORTED.items()}
    reported.update({k: {**host_stats(untraced, k), "unit": u} for k, u in REPORTED_HOST.items()})

    samples = {
        "sub_runs_pooled": len(subruns),
        "lat": counts["lat"],
        "lat_beyond_p99": counts["lat_beyond_p99"],
        "sub_run_0": {k: v for k, v in first.items() if k.startswith("samples.")},
    }
    hashes = {k: group[0]["virtual"]["schedule_hash"] for k, group in sorted(by_sub.items())}
    print(f"workload {args.workload}  seed {args.seed}  schedule_hash (sub-run 0) {first['schedule_hash']}")
    print(f"children {len(untraced)} untraced, {len(traced)} traced; samples {samples}")
    for name, m in {**metrics, **reported, **layers}.items():
        q = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]" if "q1" in m else ""
        print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}{q}")
    if traced:
        print("span self time, last traced child (host us per span):")
        for row in traced[-1]["host"]["spans"]:
            n = row["count"]
            print(f"  {row['name']:16s} count {n:>8}  mean {row['total_us'] / n:>12.2f}"
                  f"  self {row['self_us'] / n:>12.2f}")
    for f in failures:
        print(f"CHECK FAILED: {f}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "children": {"untraced": len(untraced), "traced": len(traced)},
        "schedule_hashes": hashes,
        "correct": correct,
        "failures": failures,
        "samples": samples,
        "end_to_end": metrics,
        "reported": reported,
        "per_layer": layers,
        "spans": traced[-1]["host"]["spans"] if traced else [],
        "spans_file": str(spans_path(args.workload, traced[-1]["seed"])) if traced else None,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    chosen = layers if args.trace == 1 else metrics
    wanted = definition["per_layer" if args.trace == 1 else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in chosen]
    if missing:
        log(f"this run does not produce {missing}, which BENCHMARK.json names")
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": chosen[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
