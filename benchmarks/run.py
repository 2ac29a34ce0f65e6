#!/usr/bin/env python3
"""treewalk benchmark: one seeded workload, end to end or traced per layer.

    python3 benchmarks/run.py --workload routes --seed 1 --seconds 25 --trace 0

A single process runs the workload's operations one after another
(closed loop, one client) through ``treewalk.cli.main`` in-process,
with stdout captured, and checks every output against ``oracle``. It
repeats the whole operation list while whole passes fit in
``--seconds``. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics (``spans.py``). The last stdout line is the result
object; the line before it holds the environment, sample counts and
per-operation details. ``--smoke`` runs tiny inputs for the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TAIL_PERCENTILE, WORKLOADS, prepare, probe_outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 11
# time-like end-to-end metrics are in reference seconds: wall seconds scaled by
# REFERENCE_S over the reference kernel's time measured around each measurement
REFERENCE_S = 0.005
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# fresh interpreter: import the CLI, then generate and write the inputs
SETUP_SNIPPET = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import treewalk.cli, workloads; "
    "workloads.prepare(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]), sys.argv[6] == '1')"
)

# per-layer metrics: (name, unit); each layer's calls and self time, then its hot functions and counts
LAYER_METRICS = [
    *[(f"{layer}.{kind}", unit) for layer in (
        "cli", "graphs", "walks", "spectral", "forests", "extremal", "transfers", "homorder", "simulate",
    ) for kind, unit in (("calls", "count"), ("self_s", "s"))],
    ("graphs.canonical_form.calls", "count"), ("graphs.canonical_form.self_s", "s"),
    ("graphs.enumerate_free_trees.self_s", "s"), ("graphs.parse_twg.self_s", "s"),
    ("walks.hitting_matrix.calls", "count"), ("walks.hitting_matrix.self_s", "s"),
    ("walks.walk_stats.calls", "count"),
    ("walks.average_hitting_time.calls", "count"), ("walks.average_hitting_time.self_s", "s"),
    ("walks.solves", "count"), ("walks.gflop", "GFLOP"),
    ("spectral.laplacian_spectra.calls", "count"), ("spectral.laplacian_spectra.self_s", "s"),
    ("spectral.eigh", "count"),
    ("forests.tau.calls", "count"), ("forests.tau.self_s", "s"),
    ("forests.forest_sums.calls", "count"), ("forests.forest_sums.self_s", "s"),
    ("forests.two_forest_candidates", "count"), ("forests.two_forests", "count"),
    ("forests.two_forest_yield", "ratio"),
    ("forests.alpha_forest.calls", "count"), ("forests.alpha_forest.self_s", "s"),
    ("forests.kappa_forest.calls", "count"), ("forests.kappa_forest.self_s", "s"),
    ("extremal.tree_family.calls", "count"), ("extremal.tree_family.self_s", "s"),
    ("extremal.family_candidates", "count"), ("extremal.family_size", "count"),
    ("extremal.dedup_yield", "ratio"), ("extremal.extremal_scan.self_s", "s"),
    ("extremal.best_path_assignment.self_s", "s"), ("extremal.path_orders", "count"),
    ("transfers.legal_moves.calls", "count"), ("transfers.legal_moves.self_s", "s"),
    ("transfers.moves", "count"),
    ("transfers.apply_move.calls", "count"), ("transfers.apply_move.self_s", "s"),
    ("transfers.build_hasse.self_s", "s"),
    ("homorder.connected_graph_corpus.self_s", "s"), ("homorder.corpus_subsets", "count"),
    ("homorder.corpus_size", "count"), ("homorder.corpus_yield", "ratio"),
    ("homorder.hom_count.calls", "count"), ("homorder.hom_count.self_s", "s"),
    ("homorder.conjecture_scan.self_s", "s"),
    ("simulate.estimate_hitting.calls", "count"), ("simulate.estimate_hitting.self_s", "s"),
    ("simulate.steps", "count"), ("simulate.ns_per_step", "ns"),
    ("walks.wide_failures", "count"), ("forests.wide_failures", "count"),
    ("spectral.wide_failures", "count"),
    ("trace.job_s", "s"), ("trace.overhead_s", "s"), ("trace.accounted_share", "ratio"),
]

COMPUTED = [
    "walks.solves", "walks.gflop", "spectral.eigh", "forests.two_forest_candidates",
    "extremal.family_candidates", "extremal.family_size", "homorder.corpus_subsets",
    "homorder.corpus_size", "simulate.steps",
]

# (yield metric, numerator count, denominator count)
YIELDS = [
    ("forests.two_forest_yield", "forests.two_forests", "forests.two_forest_candidates"),
    ("extremal.dedup_yield", "extremal.family_size", "extremal.family_candidates"),
    ("homorder.corpus_yield", "homorder.corpus_size", "homorder.corpus_subsets"),
]

PROBE_LAYER = {"exact": "walks", "forest": "forests", "spectral": "spectral"}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _reference_kernel() -> int:
    """Fixed pure-Python work (tuples, string formatting, dicts, sorting), never treewalk code."""
    table = {}
    for i in range(4000):
        table[(i % 97, format(i * 0.37, ".12g"))] = sorted((i, i ^ 5, i * 3 % 11))
    return len(table)


def reference_time() -> float:
    """The reference kernel's time now: the faster of two runs.

    On shared cores, other tenants slow all code by a third or more for
    seconds to minutes at a time. Dividing a measurement by
    the kernel's time taken around it cancels those phases; the kernel
    runs no program code, so a change to the program moves only the
    numerator.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def time_fresh_setups(workload: str, seed: int, workdir: Path, smoke: bool) -> list[tuple[float, float]]:
    """(wall, reference) seconds of fresh interpreters that import the CLI and write the inputs."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(BENCH_DIR), str(SRC), workload, str(seed),
            str(workdir), "1" if smoke else "0"]
    times = []
    before = reference_time()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdin=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = reference_time()
        times.append((wall, wall * REFERENCE_S * 2 / (before + after)))
        before = after
    return times


def run_op(op):
    """(seconds, error or None, result) for one operation; the check is not timed."""
    import treewalk.cli

    kind, target = op.run
    t0 = time.perf_counter()
    try:
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = treewalk.cli.main(list(target))
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code if isinstance(exc.code, int) else 2
            result = (rc, out.getvalue(), err.getvalue())
        else:
            result = target()
    except Exception as exc:
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}", None
    elapsed = time.perf_counter() - t0
    try:
        error = op.check(result)
    except Exception as exc:
        error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, error, result


def run_passes(ops, seconds: float, tracer=None) -> list[dict]:
    """Whole passes over the operation list while the next one fits in ``seconds``.

    Each operation yields (label, wall seconds, error, reference seconds).
    With a tracer, passes alternate untraced and traced, starting untraced.
    """
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        results = []
        before = reference_time()
        try:
            for op in ops:
                elapsed, error, _ = run_op(op)
                after = reference_time()
                results.append((op.label, elapsed, error, elapsed * REFERENCE_S * 2 / (before + after)))
                before = after
        finally:
            if traced:
                tracer.uninstall()
        passes.append({
            "traced": traced,
            "wall_s": time.perf_counter() - t0,
            "wall_job_s": sum(r[1] for r in results),
            "job_s": sum(r[3] for r in results),
            "ops": results,
        })
        longest = max(p["wall_s"] for p in passes)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + longest > seconds:
            return passes


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1], len(ordered) - rank


def op_medians(passes) -> list[float]:
    """Each operation's median over the passes, in reference seconds, in list order."""
    return [statistics.median(p["ops"][i][3] for p in passes) for i in range(len(passes[0]["ops"]))]


def end_to_end(workload: str, passes, setups, once) -> tuple[dict, dict]:
    """End-to-end metrics from each operation's median over the passes.

    Latency percentiles are taken over every operation run, each sample
    replaced by its operation's median: the percentile then always lands
    on the same operation of the list, whatever the number of passes.
    """
    medians = op_medians(passes)
    latencies = [m for m in medians for _ in passes]
    attempted = len(latencies) + len(once)
    failed = sum(1 for p in passes for _, _, err, _ in p["ops"] if err) + sum(1 for _, _, err in once if err)
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(latencies, pct)
    metrics = {
        "job_s": {"value": sum(medians), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "setup_s": {"value": statistics.median(ref for _, ref in setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    samples = {"job_s": len(passes), "op_p50_ms": len(latencies), "op_tail_ms": len(latencies),
               "ok_ratio": attempted, "setup_s": len(setups), "peak_rss_mb": 1}
    return metrics, {"samples": samples, "op_tail_ms": {"percentile": pct, "samples_beyond": beyond}}


def per_layer(tracer, passes, probe_counts) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    k = len(traced)
    spans = tracer.by_name()
    values: dict[str, float] = {}
    for name, total in tracer.counts.items():
        values[name] = total / k
    for name, (calls, _, own) in spans.items():
        layer = name.split(".", 1)[0]
        values[f"{name}.calls"] = calls / k
        values[f"{name}.self_s"] = own / k
        values[f"{layer}.calls"] = values.get(f"{layer}.calls", 0) + calls / k
        values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + own / k
    for name, num, den in YIELDS:
        values[name] = values.get(num, 0) / values[den] if values.get(den) else 0.0
    steps = values.get("simulate.steps", 0)
    values["simulate.ns_per_step"] = values.get("simulate.estimate_hitting.self_s", 0.0) * 1e9 / steps if steps else 0.0
    for method, layer in PROBE_LAYER.items():
        values[f"{layer}.wide_failures"] = sum(n for outcome, n in probe_counts.get(method, {}).items() if outcome != "ok")
    traced_job = statistics.median(p["wall_job_s"] for p in traced)  # wall seconds, the spans' clock
    values["trace.job_s"] = traced_job
    values["trace.overhead_s"] = traced_job - statistics.median(p["wall_job_s"] for p in plain)
    values["trace.accounted_share"] = sum(own for _, _, own in spans.values()) / k / statistics.mean(
        p["wall_job_s"] for p in traced
    )
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}


def run_probe(probe) -> dict:
    counts: dict[str, dict[str, int]] = {}
    for op in probe:
        _, error, result = run_op(op)
        outcome = "error" if result is None else probe_outcome(result, op.check)
        method = op.label.rsplit(" ", 1)[1]
        counts.setdefault(method, {}).setdefault(outcome, 0)
        counts[method][outcome] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "treewalk" / "__init__.py").is_file():
        print(f"treewalk sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setups = time_fresh_setups(args.workload, args.seed, workdir, args.smoke)
        import treewalk.cli  # noqa: F401  (the in-process set-up the fresh ones measured)
        from spans import Tracer

        work = prepare(args.workload, args.seed, workdir, args.smoke)
        probe_counts = run_probe(work.probe)
        once = [(op.label, *run_op(op)[:2]) for op in work.once]
        tracer = Tracer() if args.trace else None
        passes = run_passes(work.ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(once) + sum(len(p["ops"]) for p in passes)
    failures = [f"{label}: {err}" for label, _, err in once if err]
    failures += [f"{label}: {err}" for p in passes for label, _, err, _ in p["ops"] if err]
    metrics, stats = end_to_end(args.workload, [p for p in passes if not p["traced"]], setups, once)
    if tracer is not None:
        metrics = per_layer(tracer, passes, probe_counts)
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"spans-{args.workload}-s{args.seed}.json"
        spans_file.write_text(json.dumps({
            "traced_passes": sum(p["traced"] for p in passes),
            "spans": [{"name": n, "parent": par, "calls": c, "total_s": t, "self_s": s}
                      for (n, par), (c, t, s) in sorted(tracer.spans.items())],
            "counts": dict(tracer.counts),
        }, indent=1))
    per_op: dict[str, list[float]] = {}
    for p in passes:
        if not p["traced"]:
            for label, seconds, *_ in p["ops"]:
                per_op.setdefault(label, []).append(seconds * 1e3)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "passes": len(passes),
        "pass_wall_job_s": [p["wall_job_s"] for p in passes],
        "pass_job_s": [p["job_s"] for p in passes],
        "ops_per_pass": len(work.ops),
        "once_wall_ms": {label: seconds * 1e3 for label, seconds, _ in once},
        **stats,
        "setup_runs_wall_s": [wall for wall, _ in setups],
        "setup_runs_s": [ref for _, ref in setups],
        "computed": COMPUTED if args.trace else [],
        "op_median_wall_ms": {label: statistics.median(v) for label, v in per_op.items()},
        "wide_probe": probe_counts,
        "failures": failures[:20],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
