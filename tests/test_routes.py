"""The three routes on inputs outside the acceptance corpus.

Weights spanning 12 orders of magnitude, graphs over the 20-edge
enumeration limit, and the one-vertex graph. A route may refuse
(ConsistencyError) but must never return a value off the oracle.
"""

import json
import random

import numpy as np
import pytest

from _enumeration import enumerated_stats, random_weighted_tree, tree_stats
from treewalk import forests, spectral
from treewalk.cli import METHODS, main
from treewalk.errors import ConsistencyError
from treewalk.graphs import WeightedGraph, complete_graph
from treewalk.walks import hitting_matrix, walk_stats

ORACLE_RTOL = 1e-7


def _outcomes(g, want):
    """Per route: 'refused', or 'ok' after checking the value against want."""
    out = {}
    for name, route in METHODS.items():
        try:
            alpha, kappa = route(g)
        except ConsistencyError:
            out[name] = "refused"
            continue
        assert alpha == pytest.approx(want[0], rel=ORACLE_RTOL), name
        assert kappa == pytest.approx(want[1], rel=ORACLE_RTOL), name
        out[name] = "ok"
    return out


def _wide_graph(rng, n, m):
    """Connected graph with m edges and weights log-uniform in [1e-6, 1e6]."""
    t = random_weighted_tree(rng, n, 1e-6, 1e6)
    present = {(u, v) for u, v, _ in t.edges}
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    chords = tuple((u, v, 10 ** rng.uniform(-6, 6)) for u, v in rng.sample(spare, m - n + 1))
    return WeightedGraph(n, t.edges + chords)


def _dense_graph(rng, n, p):
    t = random_weighted_tree(rng, n)
    present = {(u, v) for u, v, _ in t.edges}
    chords = tuple(
        (u, v, 10 ** rng.uniform(-1, 1))
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present and rng.random() < p
    )
    return WeightedGraph(n, t.edges + chords)


def test_wide_weight_trees_refuse_or_match_closed_forms():
    rng = random.Random(60)
    for _ in range(6):
        t = random_weighted_tree(rng, 60, 1e-6, 1e6)
        outcomes = _outcomes(t, tree_stats(t))
        assert outcomes["forest"] == "ok"  # the closed forms need no factorization


def test_wide_weight_general_graphs_refuse_or_match_enumeration():
    rng = random.Random(61)
    for n, m in ((5, 7), (6, 9), (7, 10), (8, 12)):
        for _ in range(3):
            g = _wide_graph(rng, n, m)
            _outcomes(g, enumerated_stats(g))


@pytest.mark.parametrize("name", ["K_8", "dense n=30", "tree n=30"])
def test_forest_route_beyond_enumeration_limit(name):
    g = {
        "K_8": lambda: complete_graph(8, 2.5),
        "dense n=30": lambda: _dense_graph(random.Random(30), 30, 0.4),
        "tree n=30": lambda: random_weighted_tree(random.Random(31), 30),
    }[name]()
    assert len(g.edges) > 20
    exact = walk_stats(g)
    # each CLI method is its route's function, which returns two floats
    for method, route in (("exact", walk_stats), ("forest", forests.stats), ("spectral", spectral.stats)):
        got = route(g)
        assert type(got) is tuple and [type(x) for x in got] == [float, float]
        assert METHODS[method](g) == got == pytest.approx(exact, rel=ORACLE_RTOL)
    if name == "K_8":
        assert exact == pytest.approx((49 / 8, 49 / 8), rel=1e-12)  # (n-1)^2/n for both


def test_forest_route_on_k150_never_forms_tau():
    # tau(K_150) = 150^148 overflows a double; alpha and kappa do not need it
    assert forests.stats(complete_graph(150)) == pytest.approx((149**2 / 150, 149**2 / 150), rel=1e-9)


def test_compute_all_on_k8_exits_0(tmp_path, capsys):
    path = tmp_path / "k8.twg"
    path.write_text("8\n" + "".join(f"{u} {v} 1\n" for u in range(8) for v in range(u + 1, 8)))
    assert main(["compute", "--input", str(path), "--method", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["methods"]["forest"]["alpha"] == pytest.approx(49 / 8, rel=1e-10)


def test_one_vertex_contract(tmp_path, capsys):
    g = WeightedGraph(1, ())
    assert METHODS["exact"](g) == (0.0, 0.0)
    assert forests.stats(g) == (0.0, 0.0)
    assert spectral.stats(g) == (0.0, 0.0)
    assert np.array_equal(hitting_matrix(g), [[0.0]])
    path = tmp_path / "one.twg"
    path.write_text("1\n")
    assert main(["compute", "--input", str(path), "--method", "all", "--json", "--hitting"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_rel_delta"] == 0.0
    assert payload["hitting"] == [[0.0]]
    for vals in payload["methods"].values():
        assert vals == {"alpha": 0.0, "kappa": 0.0}
