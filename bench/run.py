#!/usr/bin/env python3
"""Benchmark of the multiport package in ``src/`` of this checkout.

One process runs one closed-loop workload with one client:

    python3 bench/run.py --workload mesh --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  ``--workload all`` runs every workload in turn and
prints one table.  See ``bench/README.md`` for what each workload is for.
"""

import os

# One BLAS thread: the load process stays on one core of a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mesh", "contexts", "cli")
SETUP_SAMPLES = 7  # setup_s is the median of this many cold set-ups
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def python_probe_ms() -> float:
    """A fixed pure-Python loop; context for diagnosing machine noise only."""
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return 1e3 * (perf_counter() - t0)


def quantile(xs, q: float) -> float:
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# On the shared 2-core machine this was tuned on, execution comes in bursts
# of up to 1.5x faster lasting a few seconds; the share of a 30 s run they
# cover ranges from none to more than half.  Per-op and per-cycle figures
# are therefore read at the slow quartile (upper quartile of time, lower
# quartile of throughput), which stays on the steady level while bursts
# cover less than three quarters of the run.  Medians and pooled quantiles
# flip with the burst share.
SLOW_QUARTILE = 0.75


class Phase:
    """Ops run in one mode (traced or not), kept per cycle.

    Each op of the cycle is timed once per cycle.  ``op_latencies`` gives
    each op its upper-quartile latency over the cycles; ``ok_per_s`` is the
    lower quartile over cycles of ok ops per wall second of the cycle.
    """

    def __init__(self):
        self.latencies: list[list[float]] = []  # [cycle][op]
        self.seconds: list[float] = []  # wall time of each cycle
        self.outcomes: list = []

    @property
    def ok(self) -> int:
        return sum(o.ok for o in self.outcomes)

    def op_latencies(self) -> list[float]:
        ops = range(len(self.latencies[0]))
        return [quantile([cycle[i] for cycle in self.latencies], SLOW_QUARTILE) for i in ops]

    def ok_per_s(self) -> float:
        per_cycle = len(self.latencies[0])
        rates = [
            sum(o.ok for o in self.outcomes[k * per_cycle : (k + 1) * per_cycle]) / sec
            for k, sec in enumerate(self.seconds)
        ]
        return quantile(rates, 1 - SLOW_QUARTILE)


def run_cycles(wl, seconds: float, tracer=None) -> tuple[Phase, Phase]:
    """Closed loop over whole cycles of ``wl.cycle`` until ``seconds`` pass.

    Whole cycles keep every input family at its fixed share.  With a tracer,
    cycles alternate untraced / traced, so both halves see the same machine
    phases, and the loop ends after a traced cycle.
    """
    plain, traced = Phase(), Phase()
    start = perf_counter()
    k = 0
    while True:
        tracing = tracer is not None and k % 2 == 1
        phase = traced if tracing else plain
        if tracing:
            tracer.install(wl.trace_points)
        latencies = []
        t_cycle = perf_counter()
        try:
            for item in wl.cycle:
                if tracing:
                    tracer.op = len(phase.outcomes)
                t0 = perf_counter()
                outcome = wl.run(item)
                latencies.append(perf_counter() - t0)
                phase.outcomes.append(outcome)
        finally:
            if tracing:
                tracer.uninstall()
        phase.seconds.append(perf_counter() - t_cycle)
        phase.latencies.append(latencies)
        k += 1
        if perf_counter() - start >= seconds and (tracer is None or k % 2 == 0):
            return plain, traced


def setup_seconds(args) -> float:
    """Median wall time from spawning a fresh process until its first op is due."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            try:
                rest = proc.communicate(timeout=SETUP_TIMEOUT_S)[0]
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up run failed (exit {proc.returncode}): {line}{rest}")
    return statistics.median(samples)


def environment(args, probe_start: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "probe_ms_start": round(probe_start, 3),
        "probe_ms_end": round(python_probe_ms(), 3),
    }


def end_to_end(wl, args, phase: Phase) -> dict:
    latencies = phase.op_latencies()
    return {
        "op_ms_p50": 1e3 * quantile(latencies, 0.5),
        "op_ms_p90": 1e3 * quantile(latencies, 0.9),
        "ok_ops_per_s": phase.ok_per_s(),
        "ok_ratio": phase.ok / len(phase.outcomes),
        "peak_rss_mb": wl.peak_rss_kb() / 1024,
        # Last: its child processes must not count towards peak_rss_mb.
        "setup_s": setup_seconds(args),
    }


def per_layer(wl, tracer, plain: Phase, traced: Phase, extras: dict) -> dict:
    """Counts and busy times per traced cycle, medians per call, and overhead."""
    cycles = len(traced.seconds)
    values = {}
    for name, s in tracer.stats.items():
        values[f"{name}.calls"] = s.calls / cycles
        values[f"{name}.busy_ms"] = 1e3 * s.self_s / cycles
        values[f"{name}.ms_p50"] = 1e3 * statistics.median(s.durations)
    values.update(wl.layer_metrics([o.info for o in traced.outcomes], cycles, tracer.stats))
    values.update(extras)
    values["trace.overhead_ratio"] = plain.ok_per_s() / traced.ok_per_s()
    return values


def run_workload(args) -> int:
    if not (SRC / "multiport" / "__init__.py").is_file():
        print(f"error: no multiport package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probe_start = python_probe_ms() if not args.setup_only else 0.0

    import workloads
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            extras, records = wl.prepare_trace()
            for rec in records:
                print("known defect " + json.dumps(rec))
            tracer = Tracer()
            t0 = perf_counter()
            plain, traced = run_cycles(wl, args.seconds, tracer)
            values = per_layer(wl, tracer, plain, traced, extras)
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl", t0)
            outcomes = plain.outcomes + traced.outcomes
            cycles = len(plain.seconds) + len(traced.seconds)
            wanted = spec["per_layer"]
        else:
            plain, _ = run_cycles(wl, args.seconds)
            values = end_to_end(wl, args, plain)
            outcomes = plain.outcomes
            cycles = len(plain.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o.info for o in outcomes if not o.ok]
    for rec in failures:
        print("failure " + json.dumps(rec))
    print("env " + json.dumps(environment(args, probe_start)))
    metrics = {}
    samples = f"{len(outcomes)} ops in {cycles} cycles"
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:8s} {m['name']:52s} {value:14.6g} {m['unit']:6s} {samples}")
    result = {"correct": not failures, "attempted": len(outcomes), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own; one table, one JSON object."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:8s} {metric:52s} {m['value']:14.6g} {m['unit']:6s} n={res['attempted']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
