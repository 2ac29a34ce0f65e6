import random

import numpy as np
import pytest

from _enumeration import (
    edge_cut,
    random_labeled_tree,
    random_weighted_tree,
    spanning_tree_weight,
    two_forest_sums,
)
from _family_oracle import tree_sums
from treewalk.cli import METHODS
from treewalk.errors import ConsistencyError
from treewalk.forests import _resistance_sums, stats, tree_stats
from treewalk.graphs import (
    WeightedGraph,
    cycle_graph,
    complete_graph,
    enumerate_free_trees,
    path_graph,
    star_graph,
)
from treewalk.walks import laplacian, walk_stats

P3 = path_graph([1, 1])
P4 = path_graph([1, 1, 1])
STAR4 = star_graph([1, 1, 1])
W21 = path_graph([2, 1])


def random_connected_graph(rng, n, extra_edges):
    """Random tree plus a few extra edges, for the general-graph route."""
    t = random_weighted_tree(rng, n)
    edges = list(t.edges)
    present = {(u, v) for u, v, _ in edges}
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    rng.shuffle(candidates)
    for u, v in candidates[:extra_edges]:
        edges.append((u, v, 10 ** rng.uniform(-1, 1)))
    return WeightedGraph(n, tuple(edges))


def s_values(t):
    """Size product of each edge cut of a tree, in edge order."""
    return [n1 * n2 for _, (n1, n2), _ in (edge_cut(t, u, v) for u, v, _ in t.edges)]


class TestCuts:
    def test_unit_path_s_values(self):
        assert s_values(P3) == [2, 2]

    def test_p4_s_values(self):
        assert s_values(P4) == [3, 4, 3]

    def test_tree_cut_fields(self):
        sides, sizes, volumes = edge_cut(W21, 0, 1)
        assert sides == (frozenset({0}), frozenset({1, 2}))
        assert sizes == (1, 2)
        assert volumes == (2.0, 4.0)

    def test_ambient_volumes_sum_to_vol(self):
        rng = random.Random(31)
        for _ in range(10):
            t = random_weighted_tree(rng, rng.randint(2, 10))
            for u, v, _ in t.edges:
                (b1, b2), _, (vol1, vol2) = edge_cut(t, u, v)
                assert t.volume(b1) + t.volume(b2) == pytest.approx(t.vol, rel=1e-12)
                assert vol1 + vol2 == pytest.approx(t.vol, rel=1e-12)

    def test_ambient_is_standalone_plus_cut_weight(self):
        rng = random.Random(37)
        for _ in range(10):
            t = random_weighted_tree(rng, rng.randint(2, 10))
            for u, v, w in t.edges:
                for block in edge_cut(t, u, v)[0]:
                    standalone = 2 * sum(
                        wt for a, b, wt in t.edges if a in block and b in block
                    )
                    assert t.volume(block) == pytest.approx(standalone + w, rel=1e-12)


class TestScalars:
    @pytest.mark.parametrize(
        "g,alpha,kappa_val",
        [
            (P3, 16 / 9, 3 / 2),
            (P4, 15 / 4, 19 / 6),
            (STAR4, 27 / 8, 5 / 2),
            (W21, 2.0, 3 / 2),
        ],
    )
    def test_hand_values(self, g, alpha, kappa_val):
        assert stats(g) == pytest.approx((alpha, kappa_val), rel=1e-12)

    def test_agrees_with_walk_on_free_trees(self):
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                assert stats(t) == pytest.approx(walk_stats(t), rel=1e-8)

    def test_agrees_with_walk_on_cycles(self):
        for n in range(3, 8):
            c = cycle_graph(n)
            assert stats(c) == pytest.approx(walk_stats(c), rel=1e-8)

    def test_agrees_with_walk_on_random_connected(self):
        rng = random.Random(41)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(4, 7), rng.randint(1, 3))
            assert stats(g) == pytest.approx(walk_stats(g), rel=1e-8)

    def test_wiener_index_identity(self):
        # sum of cut size-products equals sum of pairwise path lengths
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                s_total = sum(s_values(t))
                dist_total = 0
                for u in range(n):
                    dist = _bfs_distances(t, u)
                    dist_total += sum(dist[v] for v in range(u + 1, n))
                assert s_total == dist_total

    def test_forest_sums_tree_shape(self):
        # unit P4: tau = 1, cut size products 3 + 4 + 3 = 10, ambient volume
        # products 1*5 + 3*3 + 5*1 = 19 and vol = 6
        assert stats(P4) == pytest.approx((6 * 10 / 16, 19 / 6), rel=1e-12)


class TestTreeStats:
    def test_floats_and_columns_bit_equal_to_reference(self):
        """One closed form for one tree and for many: both equal the scalar reference bit for bit."""
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(2, 300)
            shape = random_labeled_tree(rng, n)
            rows = np.array([[10 ** rng.uniform(-6, 6) for _ in shape.edges] for _ in range(3)])
            alphas, kappas = tree_stats(shape, rows.T)
            for row, a, k in zip(rows.tolist(), alphas.tolist(), kappas.tolist()):
                want = tree_sums(WeightedGraph(n, tuple((u, v, w) for (u, v, _), w in zip(shape.edges, row))))
                assert tree_stats(shape, row) == want
                assert (a, k) == want


def _general_graphs():
    """Every graph with a cycle that the tests above use, up to 20 edges."""
    graphs = [cycle_graph(n) for n in range(3, 8)] + [complete_graph(5)]
    rng = random.Random(41)
    for _ in range(8):
        graphs.append(random_connected_graph(rng, rng.randint(4, 7), rng.randint(1, 3)))
    return graphs


class TestEnumerationOracle:
    @pytest.mark.parametrize("g", _general_graphs(), ids=lambda g: f"n{g.n}m{len(g.edges)}")
    def test_matches_tau_and_forest_sums(self, g):
        # the resistance sums are the weighted 2-forest sums over tau
        want_tau, want_s, want_v = two_forest_sums(g)
        assert spanning_tree_weight(g) == want_tau
        r_sum, dr_sum = _resistance_sums(g, laplacian(g)[1:, 1:])
        assert r_sum == pytest.approx(want_s / want_tau, rel=1e-12)
        assert dr_sum == pytest.approx(want_v / want_tau, rel=1e-12)


def _two_cliques_bridged(k, bridge):
    clique = [(u, v, 1.0) for u in range(k) for v in range(u + 1, k)]
    shifted = [(u + k, v + k, w) for u, v, w in clique]
    return WeightedGraph(2 * k, tuple(clique + shifted + [(0, k, bridge)]))


class TestOneInverse:
    """The route on graphs with a cycle inverts the reduced Laplacian once and factors nothing else."""

    @pytest.fixture
    def no_cholesky(self, monkeypatch):
        def refuse(_):
            raise np.linalg.LinAlgError("Cholesky is not on the route")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)

    @pytest.mark.parametrize("name", ["K_20", "C_7", "dense n=40"])
    def test_route_runs_without_cholesky(self, name, no_cholesky):
        g = {
            "K_20": lambda: complete_graph(20),
            "C_7": lambda: cycle_graph(7),
            "dense n=40": lambda: random_connected_graph(random.Random(40), 40, 300),
        }[name]()
        assert stats(g) == pytest.approx(METHODS["exact"](g), rel=1e-12)

    def test_matches_exact_route_on_dense_n300(self):
        g = random_connected_graph(random.Random(300), 300, 13_000)
        assert stats(g) == pytest.approx(METHODS["exact"](g), rel=1e-12)

    def test_near_disconnected_cliques_are_refused(self):
        with pytest.raises(ConsistencyError, match="2-forest sums: a-priori error bound"):
            stats(_two_cliques_bridged(6, 1e-8))

    def test_singular_reduced_laplacian_is_refused(self, monkeypatch):
        def singular(_):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(ConsistencyError, match="reduced Laplacian is singular"):
            stats(cycle_graph(5))


def _bfs_distances(t, start):
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y, _ in t.neighbors[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist
