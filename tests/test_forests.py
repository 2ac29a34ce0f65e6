import random

import numpy as np
import pytest

from _enumeration import random_labeled_tree, random_weighted_tree, spanning_tree_weight, two_forest_sums
from _family_oracle import tree_sums
from treewalk.errors import ConsistencyError, DisconnectedError, GraphError, NotATreeError
from treewalk.forests import (
    alpha_forest,
    forest_sums,
    kappa_forest,
    tau,
    tree_cut,
    tree_stats,
    two_forest_cuts,
)
from treewalk.graphs import (
    WeightedGraph,
    cycle_graph,
    complete_graph,
    enumerate_free_trees,
    path_graph,
    star_graph,
)
from treewalk.walks import average_hitting_time, hitting_matrix, kemeny

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


class TestTau:
    def test_tree_is_weight_product(self):
        assert tau(W21) == pytest.approx(2.0, rel=1e-12)

    def test_unit_triangle(self):
        assert tau(cycle_graph(3)) == pytest.approx(3.0, rel=1e-9)

    def test_unit_four_cycle(self):
        assert tau(cycle_graph(4)) == pytest.approx(4.0, rel=1e-9)

    def test_cayley_count(self):
        assert tau(complete_graph(5)) == pytest.approx(5**3, rel=1e-9)

    def test_disconnected_is_error(self):
        with pytest.raises(DisconnectedError):
            tau(WeightedGraph(3, ((0, 1, 1.0),)))

    # tau(K_150) = 150^148 ~ 1e322 overflows; the path's tau = 1e-450 underflows to 0
    @pytest.mark.parametrize(
        "g", [complete_graph(150), path_graph([1e-3] * 150)], ids=["K150", "path-1e-3"]
    )
    def test_outside_float_range_is_refused(self, g):
        with pytest.raises(ConsistencyError, match="float range"):
            tau(g)
        with pytest.raises(ConsistencyError, match="float range"):
            forest_sums(g)

    def test_sums_outside_float_range_are_refused(self):
        # on K_n, sum R = n - 1 and sum d_u d_v R = (n - 1)^3: tau(K_143) ~ 8e303
        # fits, v_sum = tau * 142^3 does not; K_140's v_sum ~ 4e302 still does
        g = complete_graph(143)
        assert tau(g) == pytest.approx(143.0**141, rel=1e-11)
        with pytest.raises(ConsistencyError, match="V-weighted 2-forest sum .* float range"):
            forest_sums(g)
        sums = forest_sums(complete_graph(140))
        assert sums.v_sum == pytest.approx(140.0**138 * 139.0**3, rel=1e-10)

    def test_near_the_float_range_edges(self):
        assert tau(complete_graph(140)) == pytest.approx(140.0**138, rel=1e-11)
        assert tau(path_graph([1e-3] * 100)) == pytest.approx(1e-300, rel=1e-11)


class TestCuts:
    def test_unit_path_s_values(self):
        assert [c.s_value for c in two_forest_cuts(P3)] == [2, 2]

    def test_p4_s_values(self):
        assert [c.s_value for c in two_forest_cuts(P4)] == [3, 4, 3]

    def test_general_graph_is_not_a_tree(self):
        # general-graph 2-forest sums are checked by TestEnumerationOracle
        for n in (3, 4):
            with pytest.raises(NotATreeError):
                list(two_forest_cuts(cycle_graph(n)))

    def test_tree_cut_fields(self):
        cut = tree_cut(W21, 0, 1)
        assert cut.deleted_edges == ((0, 1),)
        assert cut.blocks == (frozenset({0}), frozenset({1, 2}))
        assert cut.s_value == 2
        assert cut.v_value == pytest.approx(2.0 * 4.0)
        assert cut.weight == pytest.approx(1.0)

    def test_ambient_volumes_sum_to_vol(self):
        rng = random.Random(31)
        for _ in range(10):
            t = random_weighted_tree(rng, rng.randint(2, 10))
            for cut in two_forest_cuts(t):
                b1, b2 = cut.blocks
                assert t.volume(b1) + t.volume(b2) == pytest.approx(t.vol, rel=1e-12)

    def test_ambient_is_standalone_plus_cut_weight(self):
        rng = random.Random(37)
        for _ in range(10):
            t = random_weighted_tree(rng, rng.randint(2, 10))
            for cut in two_forest_cuts(t):
                (u, v) = cut.deleted_edges[0]
                w = t.weight(u, v)
                for block in cut.blocks:
                    standalone = 2 * sum(
                        wt for a, b, wt in t.edges if a in block and b in block
                    )
                    assert t.volume(block) == pytest.approx(standalone + w, rel=1e-12)

    def test_size_guard(self):
        with pytest.raises(GraphError):
            list(two_forest_cuts(complete_graph(7)))


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
        assert alpha_forest(g) == pytest.approx(alpha, rel=1e-12)
        assert kappa_forest(g) == pytest.approx(kappa_val, rel=1e-12)

    def test_agrees_with_walk_on_free_trees(self):
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                assert alpha_forest(t) == pytest.approx(average_hitting_time(t), rel=1e-8)
                assert kappa_forest(t) == pytest.approx(kemeny(t), rel=1e-8)

    def test_agrees_with_walk_on_cycles(self):
        for n in range(3, 8):
            c = cycle_graph(n)
            assert alpha_forest(c) == pytest.approx(average_hitting_time(c), rel=1e-8)
            assert kappa_forest(c) == pytest.approx(kemeny(c), rel=1e-8)

    def test_agrees_with_walk_on_random_connected(self):
        rng = random.Random(41)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(4, 7), rng.randint(1, 3))
            assert alpha_forest(g) == pytest.approx(average_hitting_time(g), rel=1e-8)
            assert kappa_forest(g) == pytest.approx(kemeny(g), rel=1e-8)

    def test_wiener_index_identity(self):
        # sum of cut size-products equals sum of pairwise path lengths
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                s_total = sum(c.s_value for c in two_forest_cuts(t))
                h = hitting_matrix(t)  # reuse BFS-free distance via brute force below
                dist_total = 0
                for u in range(n):
                    dist = _bfs_distances(t, u)
                    dist_total += sum(dist[v] for v in range(u + 1, n))
                assert s_total == dist_total

    def test_forest_sums_tree_shape(self):
        sums = forest_sums(P4)
        assert sums.tau == pytest.approx(1.0, rel=1e-9)
        assert sums.s_sum == pytest.approx(10.0, rel=1e-12)
        assert sums.v_sum == pytest.approx(19.0, rel=1e-12)


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
        want_tau, want_s, want_v = two_forest_sums(g)
        assert spanning_tree_weight(g) == want_tau
        sums = forest_sums(g)
        assert tau(g) == pytest.approx(want_tau, rel=1e-12)
        assert sums.tau == pytest.approx(want_tau, rel=1e-12)
        assert sums.s_sum == pytest.approx(want_s, rel=1e-12)
        assert sums.v_sum == pytest.approx(want_v, rel=1e-12)


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
