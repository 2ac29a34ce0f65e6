import random
from fractions import Fraction

import numpy as np
import pytest

import _exact_stats
from _enumeration import random_labeled_tree, random_weighted_tree
from treewalk import forests, spectral
from treewalk.errors import ConsistencyError
from treewalk.graphs import (
    WeightedGraph,
    complete_graph,
    cycle_graph,
    enumerate_free_trees,
    path_graph,
    star_graph,
)
from treewalk.spectral import laplacian_matrices, laplacian_spectra, stats
from treewalk.walks import ERROR_BOUND_RTOL, walk_stats

P3 = path_graph([1, 1])
K2 = path_graph([1])
STAR4 = star_graph([1, 1, 1])


class TestSpectra:
    def test_unit_path_spectra(self):
        s = laplacian_spectra(P3)
        assert s.combinatorial == pytest.approx((0.0, 1.0, 3.0), abs=1e-9)
        assert s.normalized == pytest.approx((0.0, 1.0, 2.0), abs=1e-9)

    def test_k2(self):
        s = laplacian_spectra(K2)
        assert s.combinatorial == pytest.approx((0.0, 2.0), abs=1e-12)
        assert s.normalized == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_unit_star(self):
        s = laplacian_spectra(STAR4)
        assert s.combinatorial == pytest.approx((0.0, 1.0, 1.0, 4.0), abs=1e-9)

    def test_trace_identities(self):
        rng = random.Random(43)
        for _ in range(15):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            s = laplacian_spectra(g)
            assert sum(s.combinatorial) == pytest.approx(g.vol, rel=1e-9)
            assert sum(s.normalized) == pytest.approx(g.n, rel=1e-9)

    def test_normalized_range(self):
        rng = random.Random(47)
        for _ in range(10):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            s = laplacian_spectra(g)
            assert s.normalized[0] >= -1e-9
            assert s.normalized[-1] <= 2.0 + 1e-9


class TestScalars:
    def test_unit_path_alpha(self):
        assert stats(P3)[0] == pytest.approx(16 / 9, rel=1e-10)

    def test_k2_alpha(self):
        assert stats(K2)[0] == pytest.approx(0.5, rel=1e-12)

    def test_star_alpha(self):
        assert stats(STAR4)[0] == pytest.approx(27 / 8, rel=1e-10)

    def test_unit_path_kappa(self):
        assert stats(P3)[1] == pytest.approx(3 / 2, rel=1e-10)

    def test_k2_kappa(self):
        assert stats(K2)[1] == pytest.approx(0.5, rel=1e-12)

    def test_p4_kappa_matches_forest(self):
        p4 = path_graph([1, 1, 1])
        assert stats(p4)[1] == pytest.approx(19 / 6, rel=1e-10)
        assert stats(p4)[1] == pytest.approx(forests.stats(p4)[1], rel=1e-10)

    def test_triple_agreement_free_trees(self):
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                exact = walk_stats(t)
                assert forests.stats(t) == pytest.approx(exact, rel=1e-7)
                assert stats(t) == pytest.approx(exact, rel=1e-7)

    def test_triple_agreement_random_weighted(self):
        rng = random.Random(53)
        for _ in range(30):
            t = random_weighted_tree(rng, rng.randint(2, 10))
            exact = walk_stats(t)
            assert forests.stats(t) == pytest.approx(exact, rel=1e-7)
            assert stats(t) == pytest.approx(exact, rel=1e-7)

    def test_agreement_on_cycles(self):
        for n in range(3, 7):
            c = cycle_graph(n)
            assert stats(c) == pytest.approx(walk_stats(c), rel=1e-7)


def _light_edge_tree(rng):
    """20 vertices, one edge of weight 1e-6, the others log-uniform in [1, 1e6]."""
    t = random_weighted_tree(rng, 20, 1.0, 1e6)
    light = rng.randrange(len(t.edges))
    return WeightedGraph(20, tuple((u, v, 1e-6 if i == light else w) for i, (u, v, w) in enumerate(t.edges)))


def _wide_graph(rng):
    """14 vertices and 30 edges, weights log-uniform in [1e-4, 1e4]."""
    pairs = {(u, v) for u, v, _ in random_labeled_tree(rng, 14).edges}
    rest = [(u, v) for u in range(14) for v in range(u + 1, 14) if (u, v) not in pairs]
    pairs |= set(rng.sample(rest, 30 - 13))
    return WeightedGraph(14, tuple((u, v, 10.0 ** rng.uniform(-4, 4)) for u, v in sorted(pairs)))


def _accuracy_corpus():
    rng = random.Random(2024)
    makers = (
        _light_edge_tree,
        _wide_graph,
        lambda rng: path_graph([10.0 ** rng.uniform(-3, 3) for _ in range(39)]),
        lambda rng: random_weighted_tree(rng, 60, 1e-2, 1e2),
    )
    return [make(rng) for make in makers for _ in range(10)]


class TestOneEigendecomposition:
    def test_stats_calls_eigh_once_per_graph(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        graphs = [K2, STAR4, cycle_graph(5), complete_graph(6), random_weighted_tree(random.Random(3), 9)]
        for g in graphs:
            stats(g)
        assert shapes == [(g.n, g.n) for g in graphs]
        shapes.clear()
        laplacian_spectra(STAR4)  # one per Laplacian
        assert shapes == [(4, 4), (4, 4)]

    def test_laplacian_spectra_returns_both_spectra(self):
        g = random_weighted_tree(random.Random(5), 12)
        lap, norm = laplacian_matrices(g)
        s = laplacian_spectra(g)
        assert s.combinatorial == tuple(np.linalg.eigh(lap)[0].tolist())
        assert s.normalized == tuple(np.linalg.eigh(norm)[0].tolist())

    def test_answers_within_the_residual_bound(self, monkeypatch):
        """Light-edge trees, wide general graphs, weighted paths and 60-vertex
        trees against exact rational values: every answer lies within the bound
        the route checked, and the route refuses only where that bound is above
        ERROR_BOUND_RTOL."""
        bounds = []
        check = spectral.check_error_bound
        monkeypatch.setattr(
            spectral, "check_error_bound", lambda b, what, kind: bounds.append(float(b)) or check(b, what, kind)
        )
        answered = 0
        for g in _accuracy_corpus():
            try:
                got = stats(g)
            except ConsistencyError as exc:
                assert "normalized spectrum: a-posteriori error bound" in str(exc)
                assert bounds[-1] > ERROR_BOUND_RTOL
                continue
            exact = _exact_stats.tree_stats(g) if g.is_tree() else _exact_stats.graph_stats(g)
            for value, want in zip(got, exact):
                assert abs(Fraction(value) - want) <= Fraction(bounds[-1]) * want
            answered += 1
        assert answered >= 30  # only light-edge trees may be refused
