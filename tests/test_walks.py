import random

import numpy as np
import pytest

from _enumeration import random_weighted_tree
from treewalk.errors import DisconnectedError
from treewalk.graphs import (
    WeightedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from treewalk.walks import (
    adjacency_matrix,
    hitting_matrix,
    laplacian,
    stationary,
    transition_matrix,
    walk_stats,
)

P3 = path_graph([1, 1])
P4 = path_graph([1, 1, 1])
STAR4 = star_graph([1, 1, 1])
W21 = path_graph([2, 1])


class TestLaplacian:
    def test_weighted_non_tree_is_d_minus_a(self):
        # triangle 0-1-2 with a pendant vertex 3 on 2
        g = WeightedGraph(4, ((0, 1, 2.0), (1, 2, 0.5), (2, 0, 3.0), (2, 3, 1.5)))
        a = np.array(
            [
                [0.0, 2.0, 3.0, 0.0],
                [2.0, 0.0, 0.5, 0.0],
                [3.0, 0.5, 0.0, 1.5],
                [0.0, 0.0, 1.5, 0.0],
            ]
        )
        assert np.array_equal(adjacency_matrix(g), a)
        assert np.array_equal(laplacian(g), np.diag([5.0, 2.5, 5.0, 1.5]) - a)

    def test_no_edges(self):
        assert adjacency_matrix(WeightedGraph(1, ())).tolist() == [[0.0]]
        assert laplacian(WeightedGraph(1, ())).tolist() == [[0.0]]


class TestTransition:
    def test_unit_path_middle_row(self):
        p = transition_matrix(P3)
        assert p[1].tolist() == [0.5, 0.0, 0.5]

    def test_weighted_path_row(self):
        p = transition_matrix(W21)
        assert np.allclose(p[1], [2 / 3, 0.0, 1 / 3])

    def test_star_center_uniform(self):
        p = transition_matrix(star_graph([1] * 5))
        assert np.allclose(p[0, 1:], 0.2)

    def test_rows_sum_to_one_diag_zero(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            p = transition_matrix(g)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(np.diag(p) == 0.0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            transition_matrix(WeightedGraph(3, ((0, 1, 1.0),)))


class TestStationary:
    def test_unit_path(self):
        assert np.allclose(stationary(P3), [0.25, 0.5, 0.25])

    def test_weighted_path(self):
        assert np.allclose(stationary(W21), [1 / 3, 1 / 2, 1 / 6])

    def test_regular_graph_uniform(self):
        assert np.allclose(stationary(cycle_graph(5)), 0.2)

    def test_fixed_point(self):
        rng = random.Random(9)
        for _ in range(10):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            pi = stationary(g)
            p = transition_matrix(g)
            assert np.max(np.abs(pi @ p - pi)) < 1e-10


class TestHitting:
    def test_unit_path_values(self):
        h = hitting_matrix(P3)
        assert h[0, 2] == pytest.approx(4.0, rel=1e-12)
        assert h[1, 2] == pytest.approx(3.0, rel=1e-12)
        assert h[0, 1] == pytest.approx(1.0, rel=1e-12)

    def test_weighted_path_values(self):
        h = hitting_matrix(W21)
        assert h[0, 2] == pytest.approx(6.0, rel=1e-12)
        assert h[1, 2] == pytest.approx(5.0, rel=1e-12)
        assert h[1, 0] == pytest.approx(2.0, rel=1e-12)
        assert h[2, 0] == pytest.approx(3.0, rel=1e-12)

    def test_star_values(self):
        h = hitting_matrix(STAR4)
        assert h[1, 0] == pytest.approx(1.0, rel=1e-12)
        assert h[0, 1] == pytest.approx(5.0, rel=1e-12)
        assert h[1, 2] == pytest.approx(6.0, rel=1e-12)

    def test_diagonal_zero_offdiag_positive(self):
        h = hitting_matrix(complete_graph(4))
        assert np.all(np.diag(h) == 0.0)
        off = h[~np.eye(4, dtype=bool)]
        assert np.all(off > 0)

    def test_one_step_recurrence(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            p = transition_matrix(g)
            h = hitting_matrix(g)
            lhs = h
            rhs = 1.0 + p @ h
            mask = ~np.eye(g.n, dtype=bool)
            rel = np.abs(lhs - rhs)[mask] / np.abs(lhs[mask])
            assert rel.max() < 1e-8


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
        assert walk_stats(g) == pytest.approx((alpha, kappa_val), rel=1e-12)

    def test_kemeny_start_independence(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            h = hitting_matrix(g)
            pi = stationary(g)
            per_start = h @ pi
            assert np.std(per_start) <= 1e-8 * per_start.mean()

    def test_scale_invariance(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_weighted_tree(rng, rng.randint(2, 9))
            c = 10 ** rng.uniform(-2, 2)
            scaled = WeightedGraph(g.n, tuple((u, v, c * w) for u, v, w in g.edges))
            assert np.allclose(transition_matrix(g), transition_matrix(scaled), rtol=1e-9)
            assert np.allclose(hitting_matrix(g), hitting_matrix(scaled), rtol=1e-9)
            assert walk_stats(g) == pytest.approx(walk_stats(scaled), rel=1e-9)

    def test_walk_stats_bundle(self):
        stats = walk_stats(P3)
        assert type(stats) is tuple and [type(x) for x in stats] == [float, float]
        assert stats == pytest.approx((16 / 9, 3 / 2), rel=1e-12)
