"""The gradedcenter benchmark: one seeded workload per run, every result
checked against an oracle, metrics printed by name with their units.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src.
Each workload is a closed loop with one caller.  --seconds sets the amount
of work: whole rounds of inputs, as many as take about that long at the
seed commit (inputs.ROUND_SECONDS).  --trace 0 times the ops, scaled to
the machine's speed measured between them (speed.py), and prints the
end-to-end metrics; --trace 1 runs a quarter of the ops with and without
boundary spans and prints the per-layer metrics.
The last line of output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("solve", "membership", "reconcile")

# fresh processes timed from spawn to first op ready; setup_s is their median
SETUP_PROBES = 5

# the traced run takes every TRACE_EVERY-th group of ops of the first round
TRACE_EVERY = 4
# reconcile ops come in groups of four on one (r, n, m, W); keep them whole
GROUP_SIZE = {"solve": 1, "membership": 1, "reconcile": 4}

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
]

# per-layer metric suffixes that read a span's summed count, and those
# that read that count over the span's calls
_COUNT_FIELDS = {"steps", "arrows", "vertices", "components", "support", "degrees"}
_RATIO_FIELDS = {"hit_ratio", "nonempty_ratio", "pass_ratio"}

PER_LAYER = [
    "model.sigma_mor_pow.calls",
    "model.sigma_mor_pow.self_s",
    "model.sigma_mor_pow.steps",
    "model.compose.calls",
    "model.compose.self_s",
    "model.arrows_from.calls",
    "model.arrows_from.self_s",
    "model.arrows_from.arrows",
    "model.arrows_to.calls",
    "model.arrows_to.self_s",
    "model.arrows_to.arrows",
    "model.arrow_of_degree.calls",
    "model.arrow_of_degree.self_s",
    "model.arrow_of_degree.hit_ratio",
    "model.sigma_pow.calls",
    "model.sigma_pow.self_s",
    "model.sigma_pow.steps",
    "model.sigma.calls",
    "model.enumerate_vertices.self_s",
    "model.enumerate_vertices.vertices",
    "hom.hom_basis.calls",
    "hom.hom_basis.self_s",
    "hom.hom_basis.nonempty_ratio",
    "center.solve_component.calls",
    "center.solve_component.self_s",
    "center.solve_component.components",
    "center.make_generator.self_s",
    "center.make_generator.support",
    "center.check_membership.self_s",
    "center.check_membership.pass_ratio",
    "ring.reconcile.calls",
    "ring.reconcile.wall_s",
    "ring.reconcile.degrees",
    "ring.reconcile.pool_busy_ratio",
    "ring.theorem_case.self_s",
    "gf.FieldScalar.calls",
    "trace.overhead_ratio",
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------ environment


def environment() -> dict:
    nproc = None
    if shutil.which("nproc"):
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=False)
        if out.returncode == 0:
            nproc = int(out.stdout.strip())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": nproc,
        "os.cpu_count": os.cpu_count(),
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }


def check_source() -> None:
    if not (SRC / "gradedcenter" / "__init__.py").is_file():
        raise BenchError(f"no gradedcenter source under {SRC}; run from a checkout")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ------------------------------------------------------------------- ops


def execute(workload, op, expected) -> tuple[float, str | None]:
    """Run one op and its oracle: (seconds the op took, failure or None).
    An exception is a failed op, never the end of the run."""
    start = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception:
        return time.perf_counter() - start, traceback.format_exc()
    elapsed = time.perf_counter() - start
    try:
        ok = workload.check(op, out, expected)
    except Exception:
        return elapsed, traceback.format_exc()
    return elapsed, None if ok else f"oracle disagrees: {op}"


def cpu_seconds() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def setup_seconds(name: str, seed: int, rounds: int, tiny: bool) -> list[tuple[float, float]]:
    """(seconds, speed factor) from spawn to ready of fresh processes
    doing the run's set-up."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), str(rounds)]
    if tiny:
        argv.append("tiny")
    times = []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
        times.append((elapsed, speed.scale(before, speed.probe())))
    return times


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta((n + 1) q, (n + 1)(1 - q)) mass of
    each rank's interval, integrated by the midpoint rule.  It averages the
    few order statistics around the quantile instead of trusting one."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 32
    logs = [
        (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
        for x in ((j + 0.5) / (n * steps) for j in range(n * steps))
    ]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile
    that still has at least 10 samples beyond it, by Harrell-Davis; the
    maximum when there are fewer than 11 samples."""
    n = len(latencies)
    if n < 11:
        return max(latencies), 100.0, 0
    q = (n - 10) / n
    return harrell_davis(latencies, q), 100.0 * q, 10


# ------------------------------------------------------------------- runs


def timed_loop(workload, ops, setup, out) -> dict:
    """The closed loop over prepared (op, expected) pairs, and its
    end-to-end metrics; setup holds the set-up probes' (seconds, factor).
    Times are scaled to reference speed (speed.py) op by op."""
    latencies = []
    factors = []
    cpu = []
    failures = []
    before = speed.probe()
    for op, expected in ops:
        cpu0 = cpu_seconds()
        elapsed, failure = execute(workload, op, expected)
        cpu1 = cpu_seconds()
        after = speed.probe()
        latencies.append(elapsed)
        factors.append(speed.scale(before, after))
        cpu.append(cpu1[0] - cpu0[0] + cpu1[1] - cpu0[1])
        if failure:
            failures.append(failure)
        before = after
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    attempted = len(latencies)
    correct = attempted - len(failures)
    scaled = [t * f for t, f in zip(latencies, factors)]
    tail_s, tail_pct, beyond = tail(scaled)
    values = {
        "setup_s": statistics.median(t * f for t, f in setup),
        "ops_per_s": correct / sum(scaled),
        "op_p50_ms": 1000 * harrell_davis(scaled, 0.5),
        "op_tail_ms": 1000 * tail_s,
        "cpu_s_per_op": sum(c * f for c, f in zip(cpu, factors)) / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "ops_per_s": correct / sum(latencies),
        "op_p50_ms": 1000 * harrell_davis(latencies, 0.5),
        "op_tail_ms": 1000 * tail(latencies)[0],
        "cpu_s_per_op": sum(cpu) / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "ops_per_s": f"{correct} correct ops in {sum(scaled):.3f} s of op time",
        "op_p50_ms": f"Harrell-Davis estimate over {attempted} ops",
        "op_tail_ms": f"Harrell-Davis estimate at p{tail_pct:.1f}: {attempted} samples, {beyond} beyond",
        "cpu_s_per_op": "this process and its children",
    }
    print(
        f"speed: times scaled to a {1000 * speed.REFERENCE_S:g} ms probe;"
        f" median factor {statistics.median(factors):.4f} over {attempted} ops",
        file=out,
    )
    for name, unit in END_TO_END:
        note = [f"raw {raw[name]:.6g}"] if name in raw else []
        note += [notes[name]] if name in notes else []
        tail_note = f"  ({'; '.join(note)})" if note else ""
        print(f"{name}: {values[name]:.6g} {unit}{tail_note}", file=out)
    print(
        f"error_rate: {len(failures) / attempted:.6g}  ({len(failures)} of {attempted} ops failed)",
        file=out,
    )
    for failure in failures[:3]:
        print(f"failed op: {failure.strip()}", file=sys.stderr)
    return result(attempted, len(failures), {n: (values[n], u) for n, u in END_TO_END})


def run_traced(name, seed, workload, first_round, out) -> dict:
    """The traced share of the first round: every TRACE_EVERY-th group of
    ops.  Each op runs twice, plain and traced, in alternating order, so
    drift in machine speed cancels from trace.overhead_ratio.  Per-layer
    metrics come from the traced runs."""
    from tracing import Tracer

    size = GROUP_SIZE[name]
    ops = [item for i, item in enumerate(first_round) if (i // size) % TRACE_EVERY == 0]
    tracer = Tracer()
    plain_s = traced_s = child_cpu = 0.0
    attempted = failed = 0
    for i, (op, expected) in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                child0 = cpu_seconds()[1]
                with tracer.installed():
                    elapsed, failure = execute(workload, op, expected)
                child_cpu += cpu_seconds()[1] - child0
                traced_s += elapsed
            else:
                elapsed, failure = execute(workload, op, expected)
                plain_s += elapsed
            attempted += 1
            if failure:
                failed += 1
                print(f"failed op: {failure.strip()}", file=sys.stderr)
    summary = tracer.summary()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
    tracer.write(spans_path)
    print(f"traced: {len(ops)} ops, {len(tracer)} spans written to {spans_path}", file=out)
    workers = os.cpu_count() or 1
    metrics = {}
    for metric in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        if metric == "trace.overhead_ratio":
            value, unit = traced_s / plain_s, "ratio"
        elif metric == "ring.reconcile.pool_busy_ratio":
            wall = summary[span]["wall_s"]
            value, unit = (child_cpu / (wall * workers) if wall else 0.0), "ratio"
        elif field in ("self_s", "wall_s"):
            value, unit = summary[span][field], "s"
        elif field == "calls":
            value, unit = summary[span]["calls"], "count"
        elif field in _COUNT_FIELDS:
            value, unit = summary[span]["count"], "count"
        elif field in _RATIO_FIELDS:
            calls = summary[span]["calls"]
            value, unit = (summary[span]["count"] / calls if calls else 0.0), "ratio"
        else:
            raise AssertionError(f"no rule for per-layer metric {metric}")
        metrics[metric] = (value, unit)
        print(f"{metric}: {value:.6g} {unit}", file=out)
    return result(attempted, failed, metrics)


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def bench(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, out=sys.stdout) -> dict:
    """One run: report lines to out, the result object returned.  tiny
    shrinks every workload to its smallest inputs, for smoke tests."""
    import inputs
    import workloads

    env = environment()
    if name == "reconcile" and env["os.cpu_count"] > env["sched_getaffinity"]:
        raise BenchError(
            f"invalid reconcile run: ring.reconcile sizes its pool from os.cpu_count()"
            f" = {env['os.cpu_count']}, but only {env['sched_getaffinity']} CPUs are usable"
        )
    rounds = inputs.rounds_for(name, seconds)
    prepared = workloads.prepare(name, seed, rounds, tiny)
    ops = [pair for round_ in prepared for pair in round_]
    repeats, total = inputs.repeat_share([op for op, _ in ops])
    print(f"workload: {name} (seed {seed}, {rounds} round(s), {total} ops, closed loop, 1 caller)", file=out)
    print(f"why: {inputs.WHY[name]}", file=out)
    print(f"repeat share: {repeats}/{total} ops repeat an earlier (r, n, m, W)", file=out)
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()), file=out)
    workload = workloads.WORKLOADS[name]
    if trace:
        return run_traced(name, seed, workload, prepared[0], out)
    setup = setup_seconds(name, seed, rounds, tiny)
    return timed_loop(workload, ops, setup, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_source()
        res = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
