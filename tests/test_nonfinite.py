"""Inputs whose arithmetic leaves the float range: every route and scan refuses.

Weights near 1e308 overflow the volume; weights 1e300 and 1e-300 on one
graph overflow the closed forms or underflow the stationary
distribution to 0. Each must end in ConsistencyError (CLI exit 4) that
names the quantity, never in inf or NaN with exit 0.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treewalk
from treewalk import forests, spectral
from treewalk.cli import METHODS, main
from treewalk.errors import ConsistencyError
from treewalk.extremal import _check_rankings_agree, best_path_assignment, extremal_scan
from treewalk.graphs import parse_twg
from treewalk.simulate import estimate_hitting
from treewalk.walks import hitting_matrix, walk_stats

HUGE = "3\n0 1 1e308\n1 2 1e308\n"
WIDE = "3\n0 1 1e300\n1 2 1e-300\n"
HUGE_WEIGHTS = "1e308,1e308,1e308"
WIDE_WEIGHTS = "1e300,1e-300,1e-300,1"
# products of two such weights underflow: the tree closed forms' kappa would read 0
TINY = "3\n0 1 1e-200\n1 2 1e-200\n"
TINY_WEIGHTS = "1e-200,2e-200,3e-200,4e-200"
UNDERFLOW = "put products of two weights below the float range"

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize(
    "text,method,what",
    [
        (HUGE, "forest", "forest-route alpha: not finite"),
        (WIDE, "exact", "hitting times: not finite"),
        (WIDE, "forest", "forest-route alpha: not finite"),
        # the spectral route's own checks refuse both before its finiteness check
        (HUGE, "spectral", "eigenpair residual nan"),
        (WIDE, "spectral", "second eigenvalue not positive"),
        (HUGE, "all", "stationary fixed-point residual nan"),
        (WIDE, "all", "hitting times: not finite"),
    ],
    ids=["huge-forest", "wide-exact", "wide-forest", "huge-spectral", "wide-spectral", "huge-all", "wide-all"],
)
def test_compute_exits_4(tmp_path, capsys, text, method, what):
    path = tmp_path / "g.twg"
    path.write_text(text)
    assert main(["compute", "--method", method, "--json", "--input", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert what in captured.err


@pytest.mark.parametrize("weights", [HUGE_WEIGHTS, WIDE_WEIGHTS])
def test_search_path_exits_4(capsys, weights):
    assert main(["search-path", "--weights", weights]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("stat", ["alpha", "kappa"])
@pytest.mark.parametrize("weights", [HUGE_WEIGHTS, WIDE_WEIGHTS])
def test_verify_extremal_blames_the_float_range(capsys, weights, stat):
    assert main(["verify-extremal", "--weights", weights, "--stat", stat]) == 4
    err = capsys.readouterr().err
    assert f"{stat} values of the family: not finite" in err
    assert "argmin" not in err


def test_library_entry_points_raise():
    huge, wide = parse_twg(HUGE), parse_twg(WIDE)
    for g in (huge, wide):
        with pytest.raises(ConsistencyError, match="forest-route alpha: not finite"):
            forests.stats(g)
        with pytest.raises(ConsistencyError):
            spectral.stats(g)
    with pytest.raises(ConsistencyError, match="hitting times: not finite"):
        hitting_matrix(wide)
    with pytest.raises(ConsistencyError, match="hitting times: not finite"):
        walk_stats(wide)
    # an infinite weighted degree would send every step to the last neighbour
    with pytest.raises(ConsistencyError, match="weighted degrees: not finite"):
        estimate_hitting(huge, 0, 2, 1000, 0)
    for text in (HUGE_WEIGHTS, WIDE_WEIGHTS):
        ws = [float(w) for w in text.split(",")]
        with pytest.raises(ConsistencyError, match="not finite"):
            best_path_assignment(ws)
        for stat in ("alpha", "kappa"):
            with pytest.raises(ConsistencyError, match="values of the family: not finite"):
                extremal_scan(ws, stat)


class TestUnderflow:
    """Weights whose squares fall below the normal floats: the tree closed
    forms' kappa is refused, never printed as 0; the routes and the stat
    that form no product of two weights still answer."""

    def test_compute_forest_exits_4(self, tmp_path, capsys):
        path = tmp_path / "tiny.twg"
        path.write_text(TINY)
        assert main(["compute", "--method", "forest", "--input", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verification failure: forest-route kappa: weights down to 1.000e-200 {UNDERFLOW}\n"
        for method in ("exact", "spectral"):
            assert main(["compute", "--method", method, "--input", str(path)]) == 0
            assert "kappa=1.5\n" in capsys.readouterr().out

    def test_search_path_exits_4(self, capsys):
        assert main(["search-path", "--weights", TINY_WEIGHTS]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verification failure: path objective J and kappa: weights down to 1.000e-200 {UNDERFLOW}\n"

    def test_verify_extremal_kappa_exits_4_alpha_answers(self, capsys):
        assert main(["verify-extremal", "--weights", TINY_WEIGHTS, "--stat", "kappa"]) == 4
        err = capsys.readouterr().err
        assert UNDERFLOW in err and "argmin" not in err
        # alpha is scale-free and forms no product of two weights: the same scan as for 1, 2, 3, 4
        assert main(["verify-extremal", "--weights", TINY_WEIGHTS, "--stat", "alpha"]) == 0
        tiny = capsys.readouterr().out
        assert main(["verify-extremal", "--weights", "1,2,3,4", "--stat", "alpha"]) == 0
        unit = capsys.readouterr().out
        assert tiny.splitlines()[:3] == unit.splitlines()[:3]
        assert "polarized paths share alpha = 9.06666666667" in tiny

    def test_library_entry_points_raise(self):
        ws = [float(w) for w in TINY_WEIGHTS.split(",")]
        with pytest.raises(ConsistencyError, match=UNDERFLOW):
            forests.stats(parse_twg(TINY))
        with pytest.raises(ConsistencyError, match=UNDERFLOW):
            best_path_assignment(ws)
        with pytest.raises(ConsistencyError, match=UNDERFLOW):
            extremal_scan(ws, "kappa")
        assert extremal_scan(ws, "alpha").max_value == extremal_scan([1, 2, 3, 4], "alpha").max_value

    def test_guard_sits_at_the_square_root_of_tiny(self):
        edge = math.sqrt(np.finfo(float).tiny)
        above = parse_twg(f"3\n0 1 {edge * 1.01!r}\n1 2 {edge * 1.01!r}\n")
        assert forests.stats(above) == pytest.approx((16 / 9, 1.5), rel=1e-12)
        below = parse_twg(f"3\n0 1 {edge * 0.99!r}\n1 2 {edge * 0.99!r}\n")
        with pytest.raises(ConsistencyError, match=UNDERFLOW):
            forests.stats(below)
        assert best_path_assignment([edge * 1.01, edge * 2.02]).kappa == pytest.approx(1.5, rel=1e-12)
        with pytest.raises(ConsistencyError, match=UNDERFLOW):
            best_path_assignment([edge * 0.99, 1.0])

    def test_graphs_with_a_cycle_still_answer(self):
        triangle = parse_twg("3\n0 1 1e-200\n1 2 1e-200\n0 2 2e-200\n")
        assert forests.stats(triangle) == pytest.approx(walk_stats(triangle), rel=1e-9)


def test_nan_fails_the_ranking_check():
    objectives = np.array([math.nan, math.nan])
    with pytest.raises(ConsistencyError, match="rankings disagree"):
        _check_rankings_agree((1.0, 2.0), objectives, np.array([2.0, 1.0]))


def test_nan_route_fails_the_agreement_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(METHODS, "spectral", lambda g: (math.nan, 1.5))
    path = tmp_path / "p3.twg"
    path.write_text("3\n0 1 1\n1 2 1\n")
    assert main(["compute", "--method", "all", "--input", str(path)]) == 4
    assert "method disagreement nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--method", "forest", "--input", "huge.twg"],
        ["compute", "--method", "exact", "--json", "--input", "wide.twg"],
        ["compute", "--method", "forest", "--input", "wide.twg"],
        ["search-path", "--weights", HUGE_WEIGHTS],
        ["search-path", "--weights", WIDE_WEIGHTS],
        ["simulate", "--input", "huge.twg", "--from", "0", "--to", "2", "--trials", "1000"],
        ["compute", "--method", "forest", "--input", "tiny.twg"],
        ["search-path", "--weights", TINY_WEIGHTS],
    ],
    ids=["huge-forest", "wide-exact", "wide-forest", "huge-search", "wide-search", "huge-simulate",
         "tiny-forest", "tiny-search"],
)
def test_console_prints_only_the_refusal(tmp_path, argv):
    """In a fresh interpreter, with Python's default warning filters: no
    numpy RuntimeWarning lines ahead of the one line of the refusal."""
    (tmp_path / "huge.twg").write_text(HUGE)
    (tmp_path / "wide.twg").write_text(WIDE)
    (tmp_path / "tiny.twg").write_text(TINY)
    env = {**os.environ, "PYTHONPATH": str(Path(treewalk.__file__).parents[1])}
    code = "from treewalk.cli import entrypoint; entrypoint()"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 4
    assert done.stdout == ""
    assert done.stderr.startswith("verification failure: ") and done.stderr.count("\n") == 1
