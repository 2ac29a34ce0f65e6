"""Tests of the benchmark itself: python -m pytest benchmarks -q"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from compare import report, verdict  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_named_metric(workload, trace):
    proc = _result("benchmarks/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for spec in BENCH["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert set(detail["env"]) == {"python", "numpy", "blas", "cpu", "nproc", "blas_threads", "seed"}


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result("benchmarks/run.py", "--workload", "routes", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tree_op(tmp_path):
    ops = workloads.prepare("routes", 5, tmp_path, smoke=True).ops
    return next(op for op in ops if op.label.startswith("tree"))


def test_perturbed_route_value_counts_as_failed(tmp_path, monkeypatch):
    import treewalk.cli

    op = _tree_op(tmp_path)
    assert run.run_op(op)[1] is None
    honest = treewalk.cli.METHODS["spectral"]

    def perturbed(g):
        alpha, kappa = honest(g)
        return alpha * (1 + 1e-6), kappa

    monkeypatch.setitem(treewalk.cli.METHODS, "spectral", perturbed)
    passes = run.run_passes([op], seconds=0)
    assert passes[0]["ops"][0][2] is not None


def _function_bindings():
    import treewalk.cli  # noqa: F401  (imports every module)

    return {
        (name, attr): obj
        for name, mod in sys.modules.items()
        if name == "treewalk" or name.startswith("treewalk.")
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


def test_trace_wraps_every_binding_and_restores_them():
    import treewalk
    import treewalk.cli
    import treewalk.walks

    before = _function_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = treewalk.walks.walk_stats
        assert wrapped is not before[("treewalk.walks", "walk_stats")]
        assert treewalk.cli.walk_stats is wrapped and treewalk.walk_stats is wrapped
        assert treewalk.walks.hitting_matrix is not before[("treewalk.walks", "hitting_matrix")]
    finally:
        tracer.uninstall()
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_compute_counts(tmp_path):
    edges = workloads.random_graph(random.Random(2), 6, 8)
    path = workloads.write_twg(tmp_path / "g.twg", 6, edges)
    op = workloads._compute("general", path, "all", lambda: oracle.graph_stats(6, edges))
    tracer = Tracer()
    tracer.install()
    try:
        assert run.run_op(op)[1] is None
    finally:
        tracer.uninstall()
    spans = tracer.by_name()
    assert spans["walks.walk_stats"][0] == 2
    assert spans["spectral.laplacian_spectra"][0] == 2
    assert spans["cli.main"][0] == 1
    assert tracer.counts["spectral.eigh"] == 4
    assert tracer.counts["walks.solves"] == 2 * 6
    # alpha_forest and kappa_forest each enumerate the 2-forests
    assert tracer.counts["forests.two_forest_candidates"] == 2 * math.comb(8, 4)
    assert 0 < tracer.counts["forests.two_forests"] <= tracer.counts["forests.two_forest_candidates"]
    own = sum(s for _, _, s in spans.values())
    assert own <= spans["cli.main"][1] * 1.0001


def test_oracle_hand_values():
    path3 = [(0, 1, 1.0), (1, 2, 1.0)]
    assert oracle.tree_stats(3, path3) == pytest.approx((16 / 9, 3 / 2), rel=1e-12)
    assert oracle.path_extremes([1.0, 1.0], "alpha") == pytest.approx(16 / 9, rel=1e-12)
    assert oracle.tree_hitting_times(3, path3)[0][2] == pytest.approx(4.0)
    kn = [(u, v, 2.5) for u in range(7) for v in range(u + 1, 7)]
    assert oracle.graph_stats(7, kn) == pytest.approx(oracle.complete_stats(7), rel=1e-12)
    assert oracle.graph_stats(3, path3) == pytest.approx((16 / 9, 3 / 2), rel=1e-12)
    assert oracle.star_code([2.0, 1.0, 1.0]) == "(|(1|)(1|)(2|))"


def test_same_seed_same_inputs(tmp_path):
    a = workloads.prepare("monte-carlo", 9, tmp_path / "a")
    b = workloads.prepare("monte-carlo", 9, tmp_path / "b")
    assert [op.label for op in a.ops] == [op.label for op in b.ops]
    for f in (tmp_path / "a").iterdir():
        assert f.read_text() == (tmp_path / "b" / f.name).read_text()


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert verdict(parent, faster, "lower", 0.1)[1] == 1.0
    assert verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "worse"
    assert verdict(parent, [v * 1.01 for v in parent], "lower", 0.1)[0] == "within bound"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"
    assert verdict(parent, faster, "lower", 0.1, more_failures=True)[0] == "within bound"
    assert verdict([1.0] * 10, [0.9] * 10, "higher", 0.05)[0] == "worse"
    # fewer than 10 pairs never resolve, however clear the win
    assert verdict(parent[:1], faster[:1], "lower", 0.1)[0] == "unresolved"
    assert verdict(parent[:9], faster[:9], "lower", 0.1)[0] == "unresolved"


def test_compare_report_flags_extra_failures():
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}
    rows = [{"pair": i, "side": side, "workload": "routes", "metrics": metrics,
             "failed": int(side == "change" and i == 0)}
            for i in range(10) for side in ("parent", "change")]
    lines = report(rows, BENCH)
    assert lines[-1].split()[:3] == ["routes", "failed", "ops"]
    assert lines[-1].endswith("  worse")
    assert all(line.endswith("within bound") for line in lines[1:-1])
    short = report(rows[:-1], BENCH)  # pair 9 has no change run
    assert all(line.endswith("unresolved") for line in short[1:-1])
    one_sided = report([r for r in rows if r["side"] == "parent"], BENCH)
    assert all(line.endswith("unresolved") for line in one_sided[1:-1])


def test_metric_table_covers_every_metric():
    readme = (BENCH_DIR / "README.md").read_text()
    assert [name for name, _ in run.LAYER_METRICS] == [m["name"] for m in BENCH["per_layer"]]
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert f"`{metric['name']}`" in readme, metric["name"]
