import random
from fractions import Fraction

import numpy as np
import pytest

import _dense_oracle as oracle
import _exact_stats
from _enumeration import random_weighted_tree
from treewalk import walks
from treewalk.errors import ConsistencyError, DisconnectedError
from treewalk.graphs import (
    WeightedGraph,
    complete_graph,
    cycle_graph,
    parse_twg,
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
C4 = cycle_graph(4)
C3W = WeightedGraph(3, ((0, 1, 2.0), (1, 2, 1.0), (0, 2, 0.5)))


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


def _random_graph(rng, n):
    """A random connected graph on n vertices, a tree about half the time,
    weights 10^U(-2, 2)."""
    pairs = {(u, v) for u, v, _ in random_weighted_tree(rng, n).edges}
    if n > 2 and rng.random() < 0.5:
        for _ in range(rng.randint(1, n)):
            u, v = sorted(rng.sample(range(n), 2))
            pairs.add((u, v))
    return WeightedGraph(n, tuple((u, v, 10 ** rng.uniform(-2, 2)) for u, v in sorted(pairs)))


def _tree_bound(g):
    """The a-priori bound the exact route checks on a tree: 6 n eps."""
    return 6 * g.n * walks.EPS


def _assert_exact_route(g):
    """``walk_stats(g)``: on a tree of two or more vertices within its own
    bound of the exact rationals, otherwise the bits of the per-graph
    dense route in ``_dense_oracle``."""
    if g.n > 1 and g.is_tree():
        for got, want in zip(walk_stats(g), _exact_stats.tree_stats(g)):
            assert abs(Fraction(got) - want) <= _tree_bound(g) * want
    else:
        assert walk_stats(g) == oracle.walk_stats(g)


class TestStack:
    """Graphs of every size up to 12, two large ones and one vertex: the exact
    route gives the bits of the per-graph route in ``_dense_oracle`` on every
    graph with a cycle and in every hitting matrix, and on a tree (alpha,
    kappa) within its bound of the exact rationals."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_each_graph_alone(self, n):
        rng = random.Random(100 + n)
        for _ in range(4):
            for g in [_random_graph(rng, n) if n > 1 else WeightedGraph(1, ()) for _ in range(rng.randint(1, 7))]:
                _assert_exact_route(g)
                assert np.array_equal(hitting_matrix(g), oracle.hitting_matrix(g))

    @pytest.mark.parametrize(
        "g", [complete_graph(150), random_weighted_tree(random.Random(31), 300)], ids=["K150", "tree300"]
    )
    def test_large_stacks_of_one(self, g):
        h = hitting_matrix(g)
        assert np.array_equal(h, oracle.hitting_matrix(g))
        assert walk_stats(g) == walk_stats(g, h)  # a tree's sums do not read h
        _assert_exact_route(g)

    def test_one_vertex(self):
        assert walk_stats(WeightedGraph(1, ())) == (0.0, 0.0)
        assert hitting_matrix(WeightedGraph(1, ())).tolist() == [[0.0]]

    def test_refuses_disconnected_graphs(self):
        for g in (WeightedGraph(3, ((0, 1, 1.0),)), WeightedGraph(2, ())):
            for route in (walk_stats, hitting_matrix, stationary, transition_matrix):
                with pytest.raises(DisconnectedError):
                    route(g)
        for route in (stationary, transition_matrix):  # one vertex has no walk to take
            with pytest.raises(DisconnectedError, match="walk needs at least 2 vertices"):
                route(WeightedGraph(1, ()))

    def test_single_graph_path_has_no_stack_axis(self, monkeypatch):
        shapes = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
        walk_stats(C4)
        hitting_matrix(STAR4)
        assert shapes == [(4, 4), (4, 4)]
        walk_stats(P4)  # a tree: the O(n) sums invert nothing
        assert shapes == [(4, 4), (4, 4)]


# one graph of each kind that the exact route refuses, and what it says; both
# are trees, which the O(n) sums and the dense hitting matrix refuse alike
WIDE = parse_twg("3\n0 1 1e300\n1 2 1e-300\n")  # pi underflows to 0: hitting times not finite
HUGE = parse_twg("3\n0 1 1e308\n1 2 1e308\n")  # the volume overflows: stationary residual NaN
# paths with a light edge: the conditioning of their fundamental matrices
# bounds the error above 1e-8, while the O(n) sums answer them
ILL = [path_graph([1.0, 1.0, 1.0, 10.0 ** -e, 1.0]) for e in (7, 8)]
# ... and with a triangle closed at one end, which the O(n) sums do not take:
# a-priori bounds 1.279e-08 and 1.279e-07
ILL_CYCLE = [WeightedGraph(6, g.edges + ((0, 2, 1.0),)) for g in ILL]


class TestStackChecks:
    """Each check of the exact route refuses a graph with that graph's own
    values in the message: the message of the reference route in
    ``_dense_oracle``, through ``walk_stats`` and, for every check but
    Kemeny's, through ``hitting_matrix`` too."""

    @staticmethod
    def _message(g):
        with pytest.raises(ConsistencyError) as alone:
            oracle.walk_stats(g)
        return str(alone.value)

    def _refused(self, g, in_hitting=True):
        message = self._message(g)
        routes = (walk_stats, hitting_matrix) if in_hitting else (walk_stats,)
        for route in routes:
            with pytest.raises(ConsistencyError) as refused:
                route(g)
            assert str(refused.value) == message
        return message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stationary_residual(self):
        assert self._refused(HUGE) == "stationary fixed-point residual nan"

    def test_error_bound_names_the_first_failing_graph(self):
        messages = [self._refused(g) for g in ILL_CYCLE]
        assert all(m.startswith("hitting times: a-priori error bound") for m in messages)
        assert messages[0] != messages[1]  # each names its own bound
        for g in (cycle_graph(5), complete_graph(5)):
            assert walk_stats(g) == oracle.walk_stats(g)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_not_finite(self):
        assert self._refused(WIDE) == "hitting times: not finite, the arithmetic left the float range"

    def test_singular(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        for g in (cycle_graph(3), C3W):
            assert self._refused(g) == "fundamental matrix is singular: Singular matrix"
        assert walk_stats(P3) == pytest.approx((16 / 9, 3 / 2), rel=1e-15)  # a tree inverts nothing

    @pytest.mark.parametrize(
        "rtol,what",
        [
            ("STATIONARY_RTOL", "stationary fixed-point residual"),
            ("ONE_STEP_RESIDUAL_RTOL", "one-step equation residual"),
            ("KEMENY_INDEPENDENCE_RTOL", "Kemeny start-independence violated"),
        ],
    )
    def test_residual_checks_name_the_first_failing_graph(self, monkeypatch, rtol, what):
        """At some tolerance one random graph passes and two fail this check,
        each with its own residual in its message. The one-step equations
        and the dense stationary residual are checked on graphs with a cycle:
        a tree's O(n) sums solve no equations and take pi P from the edges."""
        rng = random.Random(7)
        graphs = [_random_graph(rng, 4) for _ in range(30)]
        if rtol != "KEMENY_INDEPENDENCE_RTOL":
            graphs = [g for g in graphs if not g.is_tree()]
        for tol in [0.0, *np.logspace(-17, -13, 41).tolist()]:
            monkeypatch.setattr(walks, rtol, tol)
            verdicts = {}
            for g in graphs:
                try:
                    oracle.walk_stats(g)
                    verdicts.setdefault("pass", g)
                except ConsistencyError as exc:
                    if str(exc).startswith(what):
                        verdicts.setdefault("fail", []).append(g)
            if "pass" in verdicts and len(verdicts.get("fail", ())) >= 2:
                break
        else:
            pytest.fail(f"no tolerance splits the graphs for {rtol}")
        good, bad = verdicts["pass"], verdicts["fail"]
        assert walk_stats(good) == oracle.walk_stats(good)
        for g in bad[:2]:
            assert self._refused(g, in_hitting=rtol != "KEMENY_INDEPENDENCE_RTOL").startswith(what)


class TestTreeChecks:
    """The checks of the O(n) sums that the graphs above do not reach: the
    a-priori bound, 6 n eps, and Kemeny's constant from every start, each
    refusing a tree with its own value in the message."""

    def test_error_bound(self, monkeypatch):
        monkeypatch.setattr(walks, "ERROR_BOUND_RTOL", 6 * 5 * walks.EPS)
        _assert_exact_route(path_graph([1.0] * 4))  # n = 5: the bound equals the gate
        messages = []
        for n in (6, 7):
            with pytest.raises(ConsistencyError) as refused:
                walk_stats(path_graph([1.0] * (n - 1)))
            messages.append(str(refused.value))
        assert messages == [
            f"hitting times: a-priori error bound {6 * n * walks.EPS:.3e} exceeds {6 * 5 * walks.EPS}" for n in (6, 7)
        ]

    def test_kemeny_start_independence(self, monkeypatch):
        monkeypatch.setattr(walks, "KEMENY_INDEPENDENCE_RTOL", 0.0)
        assert walk_stats(P3) == pytest.approx((16 / 9, 3 / 2), rel=1e-15)  # every start gives 1.5 exactly
        for g, spread in ((W21, "1.110e-16"), (path_graph([0.3, 1.7, 2.9, 0.1]), "2.220e-16")):
            with pytest.raises(ConsistencyError, match=f"^Kemeny start-independence violated: spread {spread} at"):
                walk_stats(g)


def _light_root_tree(rng):
    """20 vertices: vertex 0 a leaf on an edge of weight 1e-6, the other edges
    log-uniform in [1, 1e6]. The forest closed form's ``vol - side_vol``
    cancels on this shape."""
    t = random_weighted_tree(rng, 19, 1.0, 1e6)
    edges = tuple((u + 1, v + 1, w) for u, v, w in t.edges) + ((0, rng.randint(1, 19), 1e-6),)
    return WeightedGraph(20, edges)


def _broom(weights):
    """A 100-vertex path with 200 leaves at its end, one weight per edge."""
    return WeightedGraph(300, tuple((min(i, 99), i + 1, w) for i, w in enumerate(weights)))


def _tree_corpus(name):
    rng = random.Random(f"tree accuracy: {name}")
    if name == "light-root":
        return [_light_root_tree(rng) for _ in range(60)]
    if name == "ill":
        return ILL
    if name == "broom-unit":
        return [_broom([1.0] * 299)]
    if name == "broom-weighted":
        return [_broom([10 ** rng.uniform(-1, 1) for _ in range(299)])]
    return [random_weighted_tree(rng, 60, 1e-6, 1e6) for _ in range(20)]  # wide


@pytest.mark.parametrize("name", ["light-root", "ill", "broom-unit", "broom-weighted", "wide"])
def test_tree_accuracy(name):
    """Each seeded tree is answered, within the route's own bound of the exact
    rationals: trees the dense inverse refused (the paths in ILL, the weighted
    broom, weights from 1e-6 to 1e6) and trees the forest closed form loses
    digits on (a light edge at the root)."""
    for g in _tree_corpus(name):
        _assert_exact_route(g)
