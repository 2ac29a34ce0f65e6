"""Inputs whose arithmetic leaves the float range: every route and scan refuses.

Weights near 1e308 overflow the volume; weights 1e300 and 1e-300 on one
graph overflow the closed forms or underflow the stationary
distribution to 0. Each must end in ConsistencyError (CLI exit 4) that
names the quantity, never in inf or NaN with exit 0.
"""

import math

import numpy as np
import pytest

from treewalk import forests, spectral
from treewalk.cli import METHODS, main
from treewalk.errors import ConsistencyError
from treewalk.extremal import _check_rankings_agree, best_path_assignment, extremal_scan
from treewalk.graphs import parse_twg
from treewalk.walks import hitting_matrix, walk_stats

HUGE = "3\n0 1 1e308\n1 2 1e308\n"
WIDE = "3\n0 1 1e300\n1 2 1e-300\n"
HUGE_WEIGHTS = "1e308,1e308,1e308"
WIDE_WEIGHTS = "1e300,1e-300,1e-300,1"

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
    for text in (HUGE_WEIGHTS, WIDE_WEIGHTS):
        ws = [float(w) for w in text.split(",")]
        with pytest.raises(ConsistencyError, match="not finite"):
            best_path_assignment(ws)
        for stat in ("alpha", "kappa"):
            with pytest.raises(ConsistencyError, match="values of the family: not finite"):
                extremal_scan(ws, stat)


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
