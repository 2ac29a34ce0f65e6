import random
from fractions import Fraction

import numpy as np
import pytest

import _exact_stats
from _enumeration import random_labeled_tree, random_weighted_tree
from treewalk import forests, spectral
from treewalk.cli import main
from treewalk.errors import ConsistencyError
from treewalk.graphs import (
    WeightedGraph,
    complete_graph,
    cycle_graph,
    enumerate_free_trees,
    format_twg,
    path_graph,
    rooted_order,
    star_graph,
)
from treewalk.spectral import _eigenpairs, _normalized_laplacian, stats
from treewalk.walks import EPS, ERROR_BOUND_RTOL, walk_stats

P3 = path_graph([1, 1])
K2 = path_graph([1])
STAR4 = star_graph([1, 1, 1])
P4 = path_graph([1, 1, 1])


def _spectra(monkeypatch, g):
    """N's ascending eigenvalues from both sources: the route's own (the SVD
    on a tree), then the eigh path's."""
    return _eigenpairs(g)[0].tolist(), _eigh_path(monkeypatch, g, _eigenpairs)[0].tolist()


class TestSpectra:
    """N's spectrum as the spectral route checks it, from the SVD and from eigh."""

    def test_unit_path_spectra(self, monkeypatch):
        for mu in _spectra(monkeypatch, P3):
            assert mu == pytest.approx((0.0, 1.0, 2.0), abs=1e-9)

    def test_k2(self, monkeypatch):
        for mu in _spectra(monkeypatch, K2):
            assert mu == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_unit_star(self, monkeypatch):
        for mu in _spectra(monkeypatch, STAR4):
            assert mu == pytest.approx((0.0, 1.0, 1.0, 2.0), abs=1e-9)

    def test_trace_identities(self, monkeypatch):
        rng = random.Random(43)
        for _ in range(15):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            for mu in _spectra(monkeypatch, g):
                assert sum(mu) == pytest.approx(g.n, rel=1e-9)

    def test_normalized_range(self, monkeypatch):
        rng = random.Random(47)
        for _ in range(10):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            for mu in _spectra(monkeypatch, g):
                assert mu[0] >= -1e-9
                assert mu[-1] <= 2.0 + 1e-9


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


def _sides(t):
    """Vertex counts of a tree's even-depth and odd-depth sides, rooted at 0."""
    order, parent = rooted_order(t)
    depth = [0] * t.n
    for x in order[1:]:
        depth[x] = depth[parent[x]] + 1
    odd = sum(d % 2 for d in depth)
    return t.n - odd, odd


@pytest.fixture
def bounds(monkeypatch):
    """The a-posteriori bounds the spectral route checks, in call order."""
    seen = []
    check = spectral.check_error_bound
    monkeypatch.setattr(
        spectral, "check_error_bound", lambda b, what, kind: seen.append(float(b)) or check(b, what, kind)
    )
    return seen


@pytest.fixture
def factorizations(monkeypatch):
    """(name, shape) of every SVD and eigh numpy runs, in call order."""
    seen = []
    svd, eigh = np.linalg.svd, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "svd", lambda a: seen.append(("svd", a.shape)) or svd(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(("eigh", a.shape)) or eigh(a))
    return seen


def _refuse_first_bound(monkeypatch):
    """The next bound the spectral route checks reads 1.0, over the gate: the tree path refuses."""
    check = spectral.check_error_bound
    forced = iter([1.0])
    monkeypatch.setattr(spectral, "check_error_bound", lambda b, what, kind: check(next(forced, b), what, kind))


def _eigh_path(monkeypatch, g, route=stats):
    """route(g), stats by default, through the eigh path, as a graph with a cycle takes it."""
    with monkeypatch.context() as m:
        m.setattr(WeightedGraph, "is_tree", lambda self: False)
        return route(g)


class TestOneEigendecomposition:
    def test_stats_factors_once_per_graph(self, monkeypatch, factorizations):
        """A tree: one SVD of its (n1, n2) block and no eigh. A graph with a
        cycle: one eigh of N. A tree whose SVD the checks refuse: one SVD,
        then one eigh."""
        trees = [K2, STAR4, P4, random_weighted_tree(random.Random(3), 9)]
        for t in trees:
            factorizations.clear()
            stats(t)
            assert factorizations == [("svd", _sides(t))]
        for g in (cycle_graph(5), complete_graph(6)):
            factorizations.clear()
            stats(g)
            assert factorizations == [("eigh", (g.n, g.n))]
        t = trees[-1]
        factorizations.clear()
        _refuse_first_bound(monkeypatch)
        stats(t)
        assert factorizations == [("svd", _sides(t)), ("eigh", (t.n, t.n))]

    def test_eigh_path_returns_eigh_of_normalized_laplacian(self):
        g = complete_graph(6)
        g = WeightedGraph(6, tuple((u, v, 1.0 + u + 2.0 * v) for u, v, _ in g.edges))
        mu, phi, d = _eigenpairs(g)
        want_mu, want_phi = np.linalg.eigh(_normalized_laplacian(g))
        assert mu.tolist() == want_mu.tolist() and phi.tolist() == want_phi.tolist()
        assert d.tolist() == list(g.degrees)

    def test_answers_within_the_residual_bound(self, bounds):
        """Light-edge trees, wide general graphs, weighted paths and 60-vertex
        trees against exact rational values: every answer lies within the bound
        the route checked, and the route refuses only where that bound is above
        ERROR_BOUND_RTOL."""
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
        assert answered >= 32  # as with eigh alone: only light-edge trees are refused


def _broom(rng):
    """A 100-vertex path with 200 leaves at its end vertex 99: sides of 250 and 50."""
    spokes = [(99, 100 + i, 10.0 ** rng.uniform(-1, 1)) for i in range(200)]
    return WeightedGraph(300, tuple((i, i + 1, 10.0 ** rng.uniform(-1, 1)) for i in range(99)) + tuple(spokes))


def _double_star(rng):
    """Centres 0 and 1 with 200 and 98 leaves: sides of 99 and 201."""
    leaves = [(0, 2 + i, 10.0 ** rng.uniform(-1, 1)) for i in range(200)]
    leaves += [(1, 202 + i, 10.0 ** rng.uniform(-1, 1)) for i in range(98)]
    return WeightedGraph(300, ((0, 1, 10.0 ** rng.uniform(-1, 1)),) + tuple(leaves))


class TestTreePath:
    """The SVD of the bipartite block C against hand values, exact rational
    values and the eigh path."""

    @pytest.mark.parametrize(
        "t, want",
        [(K2, (1 / 2, 1 / 2)), (P3, (16 / 9, 3 / 2)), (STAR4, (27 / 8, 5 / 2)), (P4, (15 / 4, 19 / 6))],
        ids=["K2", "P3", "STAR4", "P4"],
    )
    def test_hand_values(self, factorizations, t, want):
        assert stats(t) == pytest.approx(want, rel=1e-12)
        assert [name for name, _ in factorizations] == ["svd"]

    @pytest.mark.parametrize("make", [_broom, _double_star], ids=["broom", "double-star"])
    def test_unbalanced_sides(self, monkeypatch, bounds, factorizations, make):
        """|n1 - n2| eigenvalues 1 come from the unpaired columns of U or V."""
        t = make(random.Random(7))
        n1, n2 = _sides(t)
        assert abs(n1 - n2) >= 100
        got = stats(t)
        assert factorizations == [("svd", (n1, n2))] and len(bounds) == 1
        for value, want in zip(got, _exact_stats.tree_stats(t)):
            assert abs(Fraction(value) - want) <= Fraction(bounds[-1] + t.n * EPS) * want
        assert got == pytest.approx(_eigh_path(monkeypatch, t), rel=1e-10)

    def test_star_kappa_is_m_minus_half(self, factorizations):
        """N of a star has eigenvalues 0, 2 and n - 2 ones, whatever the weights."""
        rng = random.Random(8)
        t = star_graph([10.0 ** rng.uniform(-3, 3) for _ in range(299)])
        alpha, kappa = stats(t)
        assert factorizations == [("svd", (1, 299))]
        assert kappa == pytest.approx(298.5, rel=1e-12)
        assert alpha == pytest.approx(float(_exact_stats.tree_stats(t)[0]), rel=1e-10)

    def test_seeded_trees_within_checked_bound(self, monkeypatch, bounds):
        """50 weighted trees, n = 2..150: each answer from the SVD alone, within
        the bound it checked plus n * eps for the rounding of the sums (the
        bound covers the eigenpairs only: K2's is exactly 0), and within 1e-10
        of the eigh path."""
        rng = random.Random(28)
        for i in range(50):
            t = random_weighted_tree(rng, 2 + i * 148 // 49)
            bounds.clear()
            got = stats(t)
            assert len(bounds) == 1  # the SVD answered
            for value, want in zip(got, _exact_stats.tree_stats(t)):
                assert abs(Fraction(value) - want) <= Fraction(bounds[0] + t.n * EPS) * want
            assert got == pytest.approx(_eigh_path(monkeypatch, t), rel=1e-10)

    def test_refused_svd_falls_back_to_eigh_bit_for_bit(self, monkeypatch):
        t = random_weighted_tree(random.Random(9), 40)
        want = _eigh_path(monkeypatch, t)
        _refuse_first_bound(monkeypatch)
        assert stats(t) == want

    @pytest.mark.parametrize("column", ["paired", "unpaired"])
    def test_residual_gate_sees_a_wrong_column(self, monkeypatch, column):
        """A singular triple that is off by 1e-6, or an unpaired column of U
        that C^T does not annihilate, fails the residual gate: eigh decides."""
        t = _broom(random.Random(7))  # 250 x 50 block: U has unpaired columns
        want = _eigh_path(monkeypatch, t)
        svd = np.linalg.svd

        def corrupted(a):
            u, s, vt = svd(a)
            if column == "paired":
                s[1] *= 1 + 1e-6
            else:
                u[:, -1] = u[:, 0]
            return u, s, vt

        monkeypatch.setattr(np.linalg, "svd", corrupted)
        assert stats(t) == want

    def test_wide_weight_tree_still_exits_4(self, tmp_path, capsys, bounds):
        """Weights 1e-6..1e6 on 60 vertices: the bounds of both the SVD and eigh are over the gate."""
        t = random_weighted_tree(random.Random(60), 60, 1e-6, 1e6)
        path = tmp_path / "wide.twg"
        path.write_text(format_twg(t))
        assert main(["compute", "--input", str(path), "--method", "spectral"]) == 4
        assert "normalized spectrum: a-posteriori error bound" in capsys.readouterr().err
        assert len(bounds) == 2 and min(bounds) > ERROR_BOUND_RTOL
