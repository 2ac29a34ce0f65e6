import math
import random
import sys
import time
from itertools import permutations

import numpy as np
import pytest

import _family_oracle as oracle
from _enumeration import enumerate_labeled_trees, is_star_graph
from treewalk.errors import ConsistencyError, GraphError
from treewalk.extremal import (
    EXTREME_GROUP_RTOL,
    _check_rankings_agree,
    _distinct_orders,
    _family_rows,
    _weighted,
    best_path_assignment,
    centrality,
    extremal_scan,
    is_polarized,
    path_kappa_objective,
    polarized_paths,
    star_of,
    tree_family,
    weight_multiset,
)
from treewalk.forests import stats, tree_stats
from treewalk.graphs import (
    canonical_form,
    is_path_graph,
    path_graph,
)
from treewalk.walks import walk_stats


class TestPolarized:
    def test_centrality_profile(self):
        # path on 7 vertices: edges 1..6 have centralities 1,2,3,3,2,1
        assert [centrality(i, 7) for i in range(1, 7)] == [1, 2, 3, 3, 2, 1]

    def test_figure_family(self):
        layouts = polarized_paths([7, 5, 4, 2, 2, 1])
        # outermost pair {7,5}, then {4,2}, middle pair {2,1}
        for layout in layouts:
            assert {layout[0], layout[5]} == {7, 5}
            assert {layout[1], layout[4]} == {4, 2}
            assert {layout[2], layout[3]} == {2, 1}
        assert len(layouts) == 4  # three splittable classes, halved by reversal
        # one representative per reversal pair, in canonical-code order
        assert layouts == [
            (7.0, 4.0, 2.0, 1.0, 2.0, 5.0),
            (7.0, 2.0, 1.0, 2.0, 4.0, 5.0),
            (7.0, 2.0, 2.0, 1.0, 4.0, 5.0),
            (7.0, 4.0, 1.0, 2.0, 2.0, 5.0),
        ]

    def test_all_unit_weights_single_layout(self):
        assert polarized_paths([1, 1, 1]) == [(1.0, 1.0, 1.0)]

    def test_four_weights(self):
        layouts = set(polarized_paths([3, 2, 1, 0.5]))
        assert layouts == {(3.0, 1.0, 0.5, 2.0), (3.0, 0.5, 1.0, 2.0)}

    def test_matches_filter_over_all_assignments(self):
        # oracle: filter every permutation by the predicate, dedup by reversal
        ws = (3.0, 2.0, 1.0, 0.5)
        expected = set()
        for perm in permutations(ws):
            if is_polarized(perm):
                expected.add(canonical_form(path_graph(perm)))
        got = {canonical_form(path_graph(p)) for p in polarized_paths(ws)}
        assert got == expected

    def test_predicate(self):
        assert is_polarized((7, 5, 4, 2, 2, 1)) is False  # 5 central of 4
        assert is_polarized((7, 4, 2, 1, 2, 5)) is True
        assert is_polarized((1, 1, 1)) is True

    def test_polarized_layouts_share_alpha(self):
        for ws in ([7, 5, 4, 2, 2, 1], [3, 2, 1, 0.5], [2, 2, 1, 1]):
            vals = [stats(path_graph(p))[0] for p in polarized_paths(ws)]
            assert max(vals) - min(vals) <= 1e-10 * abs(max(vals))

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            polarized_paths([])


class TestStarAndFamily:
    def test_star_shape(self):
        s = star_of([1, 1, 1])
        assert is_star_graph(s) and s.n == 4

    def test_star_n3_degenerate(self):
        s = star_of([2, 1])
        assert canonical_form(s) == canonical_form(path_graph([2, 1]))

    def test_family_sizes(self):
        assert len(tree_family([1, 1, 1])) == 2
        assert len(tree_family([2, 1])) == 1
        assert len(tree_family([1, 1, 1, 1])) == 3

    def test_family_matches_labeled_cross_product(self):
        # oracle: labeled trees x all raw permutations, dedup by canonical form
        for ws in ([2.0, 1.0], [3.0, 2.0, 1.0], [2.0, 2.0, 1.0]):
            n = len(ws) + 1
            expected = set()
            for t in enumerate_labeled_trees(n):
                pairs = [(u, v) for u, v, _ in t.edges]
                for perm in permutations(ws):
                    reweighted = t.__class__(
                        n, tuple((u, v, w) for (u, v), w in zip(pairs, perm))
                    )
                    expected.add(canonical_form(reweighted))
            got = {canonical_form(t) for t in tree_family(ws)}
            assert got == expected

    def test_family_members_have_right_multiset(self):
        ws = weight_multiset([3, 2, 1, 0.5])
        for t in tree_family(ws):
            assert t.weight_multiset() == ws

    def test_guard(self):
        with pytest.raises(GraphError, match=r"^family enumeration guarded to 8 weights, got m=9$"):
            tree_family([1.0] * 9)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0, 0.0])
    def test_weight_multiset_rejects_non_finite_and_non_positive(self, bad):
        with pytest.raises(GraphError, match="positive and finite"):
            weight_multiset([bad, 1.0])


class TestObjective:
    def test_no_valid_triple(self):
        assert path_kappa_objective([1, 1]) == 0.0

    def test_single_triple(self):
        assert path_kappa_objective([1, 1, 1]) == 1.0

    def test_hand_value(self):
        assert path_kappa_objective([2, 1, 3]) == pytest.approx(6.0, rel=1e-12)

    def test_matches_naive_triple_sum(self):
        rng = random.Random(89)
        for _ in range(20):
            ws = [10 ** rng.uniform(-1, 1) for _ in range(rng.randint(2, 7))]
            naive = 0.0
            m = len(ws)
            for i in range(m):
                for j in range(i):
                    for k in range(i + 1, m):
                        naive += ws[j] * ws[k] / ws[i]
            assert path_kappa_objective(ws) == pytest.approx(naive, rel=1e-12)

    def test_path_alpha_closed_form(self):
        # alpha(P) = (2S/n^2) * sum i(n-i)/w_i
        rng = random.Random(97)
        for _ in range(20):
            ws = [10 ** rng.uniform(-1, 1) for _ in range(rng.randint(1, 8))]
            n = len(ws) + 1
            s = sum(ws)
            closed = (2 * s / n**2) * sum(
                (i + 1) * (n - i - 1) / w for i, w in enumerate(ws)
            )
            assert walk_stats(path_graph(ws))[0] == pytest.approx(closed, rel=1e-9)

    def test_kappa_objective_affine_identity(self):
        # 2 S kappa(P) - 4 J = (2n-3) S holds for every ordering of a multiset
        rng = random.Random(101)
        for _ in range(10):
            ws = tuple(10 ** rng.uniform(-1, 1) for _ in range(rng.randint(1, 5)))
            n = len(ws) + 1
            s = sum(ws)
            for perm in permutations(ws):
                kap = walk_stats(path_graph(perm))[1]
                j = path_kappa_objective(perm)
                assert 2 * s * kap - 4 * j == pytest.approx((2 * n - 3) * s, rel=1e-9)


def distinct_orders(items):
    """The rows of ``_distinct_orders`` as tuples of the items."""
    values, rows = _distinct_orders(items)
    assert rows.dtype == np.int8
    return [tuple(values[i] for i in row) for row in rows.tolist()]


class TestDistinctPermutations:
    def test_counts_respect_multiplicity(self):
        assert len(distinct_orders([10, 8, 1, 1, 0.1])) == 60
        assert len(distinct_orders([2, 2, 1, 1])) == 6
        assert len(distinct_orders([1, 1, 1])) == 1
        assert len(distinct_orders([1.0] * 10)) == 1

    def test_lexicographic_and_unique(self):
        for ws in ([3, 1, 1], [2, 2, 1, 1], [10, 8, 1, 1, 0.1], [1, 2, 3], [5], []):
            assert distinct_orders(ws) == sorted(set(permutations(ws)))
        for ws in ([5, 5, 5, 2, 2, 2, 1, 0.5], [8, 7, 6, 5, 4, 3, 2, 1], [3, 3, 3, 3, 3, 3, 3, 1]):
            assert distinct_orders(ws) == list(oracle.distinct_permutations(ws))

    def test_orders_hold_the_weights_own_floats(self):
        ws = weight_multiset([9.5, 3.25, 3.25, 2.0])
        result = best_path_assignment(ws)
        assert len(result.evaluations) == 12
        own = set(map(id, ws))  # no new float objects per order
        assert all(id(w) in own for order, _, _ in result.evaluations for w in order)


class TestScan:
    def test_theorem_simple_trees(self):
        report = extremal_scan([1, 1, 1, 1, 1], "alpha")
        assert report.family_size == 6
        assert len(report.argmax_trees) == 1
        assert is_path_graph(report.argmax_trees[0])
        assert is_star_graph(report.argmin_trees[0])

    def test_alpha_scan_weighted(self):
        report = extremal_scan([3, 2, 1, 0.5], "alpha")
        assert len(report.argmax_codes) == 2
        assert set(report.polarized_layouts) == {(3.0, 1.0, 0.5, 2.0), (3.0, 0.5, 1.0, 2.0)}
        assert report.argmin_codes == (canonical_form(star_of([3, 2, 1, 0.5])),)
        assert report.runner_up_min > report.min_value

    def test_kappa_scan_weighted(self):
        report = extremal_scan([3, 2, 1, 0.5], "kappa")
        for t in report.argmax_trees:
            assert is_path_graph(t)
        assert report.argmin_codes == (canonical_form(star_of([3, 2, 1, 0.5])),)

    def test_kappa_max_not_polarized_for_remark_family(self):
        report = extremal_scan([10, 8, 1, 1, 0.1], "kappa")
        assert len(report.argmax_trees) == 1
        winner = report.argmax_trees[0]
        assert is_path_graph(winner)
        # read the weights along the path from one leaf
        order = _path_weights_in_order(winner)
        assert order in ((10.0, 0.1, 1.0, 1.0, 8.0), (8.0, 1.0, 1.0, 0.1, 10.0))
        assert not is_polarized(order)

    def test_values_bracket_family(self):
        report = extremal_scan([2, 2, 1, 1], "alpha")
        for t in tree_family([2, 2, 1, 1]):
            v = stats(t)[0]
            assert report.min_value - 1e-12 <= v <= report.max_value + 1e-12

    def test_six_weight_family_scan(self):
        # the larger showcase family: four polarized layouts share the max
        report = extremal_scan([7, 5, 4, 2, 2, 1], "alpha")
        assert len(report.argmax_codes) == 4
        assert set(report.polarized_layouts) == set(polarized_paths([7, 5, 4, 2, 2, 1]))
        assert report.argmin_codes == (canonical_form(star_of([7, 5, 4, 2, 2, 1])),)


class TestBestPath:
    def test_remark_instance(self):
        result = best_path_assignment([10, 8, 1, 1, 0.1])
        assert result.assignment in ((10.0, 0.1, 1.0, 1.0, 8.0), (8.0, 1.0, 1.0, 0.1, 10.0))
        assert len(result.evaluations) == 60

    def test_trivial_tie(self):
        result = best_path_assignment([1, 1, 1])
        assert result.assignment == (1.0, 1.0, 1.0)

    def test_small_brute_force(self):
        result = best_path_assignment([3, 2, 1])
        by_kappa = max(
            ((perm, stats(path_graph(perm))[1]) for perm in permutations((3.0, 2.0, 1.0))),
            key=lambda e: e[1],
        )
        assert result.kappa == pytest.approx(by_kappa[1], rel=1e-12)

    def test_matches_family_scan(self):
        result = best_path_assignment([3, 2, 1, 0.5])
        report = extremal_scan([3, 2, 1, 0.5], "kappa")
        assert result.kappa == pytest.approx(report.max_value, rel=1e-10)
        assert canonical_form(path_graph(result.assignment)) in report.argmax_codes

    def test_guard(self):
        with pytest.raises(GraphError, match=r"^path search guarded to 10 weights, got m=11$"):
            best_path_assignment([1.0] * 11)

    def test_seeded_sweep_answers(self):
        rng = random.Random(61)
        for m in range(2, 8):
            for i in range(10):
                if i % 2:
                    ws = [10 ** rng.uniform(-6, 6) for _ in range(m)]
                else:
                    ws = [rng.uniform(0.1, 10) for _ in range(m)]
                result = best_path_assignment(ws)
                total = sum(ws)
                for _, j, k in result.evaluations:
                    # on a path kappa is affine in J, so the two rankings are one
                    assert k == pytest.approx((2 * m - 1) / 2 + 2 * j / total, rel=1e-5)

    def test_assignment_is_the_greatest_kappa_then_order(self):
        # the last row of greatest kappa is what max over (kappa, order) chose
        # when every order was a tuple; few distinct weights give exact ties
        rng = random.Random(83)
        tied = 0
        for trial in range(120):
            m = rng.randint(1, 7)
            if trial % 3 == 0:
                ws = [rng.uniform(0.1, 10) for _ in range(m)]
            else:
                pool = rng.sample((0.5, 1.0, 2.0, 3.0, 1e-3, 1e3), rng.randint(1, 3))
                ws = [rng.choice(pool) for _ in range(m)]
            result = best_path_assignment(ws)
            order, j, k = max(result.evaluations, key=lambda e: (e[2], e[0]))
            assert (result.assignment, result.objective, result.kappa) == (order, j, k), ws
            assert all(type(x) is float for x in (result.objective, result.kappa))
            tied += sum(e[2] == k for e in result.evaluations) > 1
        assert tied > 30

    def test_swapped_kappas_disagree(self):
        evaluations = best_path_assignment([7, 6, 5, 4, 3]).evaluations
        _, objectives, kappas = (np.array(c) for c in zip(*evaluations))
        lo, hi = np.argmin(objectives), np.argmax(objectives)
        assert objectives[hi] - objectives[lo] > 1.0
        kappas[[lo, hi]] = kappas[[hi, lo]]
        with pytest.raises(ConsistencyError, match="rankings disagree"):
            _check_rankings_agree(evaluations[0][0], objectives, kappas)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_evaluations_match_per_order_oracle(self, m):
        rng = random.Random(300 + m)
        cases = [
            [rng.uniform(0.1, 10) for _ in range(m)],
            [10 ** rng.uniform(-6, 6) for _ in range(m)],
            [rng.choice((0.5, 2.0, 3.0)) for _ in range(m)],
        ]
        for ws in cases:
            evaluations = best_path_assignment(ws).evaluations
            assert evaluations == tuple(oracle.path_evaluations(ws))
            assert all(type(j) is float and type(k) is float for _, j, k in evaluations)

    def test_ranking_check_raises_where_the_sort_check_does(self):
        # perturbations around the tolerance, ties and swaps: the column check
        # raises, with the same message, exactly where the sort check raises
        rng = random.Random(71)
        raised = 0
        for trial in range(300):
            ws = [rng.choice((1.0, 2.0, 3.0, 10 ** rng.uniform(-3, 3))) for _ in range(rng.randint(1, 6))]
            evaluations = oracle.path_evaluations(ws)
            total = sum(evaluations[0][0])
            tol = 16 * len(ws) * sys.float_info.epsilon * total * total / min(ws)
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(evaluations))
                order, j, k = evaluations[i]
                nudge = rng.choice((-3, -1, -0.5, 0.5, 1, 3)) * tol
                kind = rng.randrange(3)
                if kind == 0:
                    j += nudge
                elif kind == 1:  # kappa's tolerance is 2/T times J's
                    k += 2.0 / total * nudge
                else:
                    k = evaluations[rng.randrange(len(evaluations))][2]
                evaluations[i] = (order, j, k)
            _, objectives, kappas = (np.array(c) for c in zip(*evaluations))
            expected = _refusal(lambda: oracle.check_rankings_agree(evaluations))
            got = _refusal(lambda: _check_rankings_agree(evaluations[0][0], objectives, kappas))
            assert got == expected, (trial, ws)
            raised += expected is not None
        assert 50 < raised < 250


def _refusal(check):
    """The ConsistencyError message a check raises, or None."""
    try:
        check()
    except ConsistencyError as exc:
        return str(exc)
    return None


def _seeded_cases():
    rng = random.Random(2024)
    cases = [[10 ** rng.uniform(-1, 1) for _ in range(m)] for m in range(1, 7)]
    for pattern in ((3, 2, 2), (2, 2, 1, 1), (2, 1, 1), (4, 1), (5,)):
        base = [10 ** rng.uniform(-1, 1) for _ in pattern]
        cases.append([w for w, k in zip(base, pattern) for _ in range(k)])
    cases += [[1.0, 1.0000000000001, 2, 3], [1.0, 1.00000000000001, 1.0, 2.0, 2.00000000000001]]
    cases += [[10 ** rng.uniform(-6, 6) for _ in range(m)] for m in (3, 4, 5, 6, 6)]
    return cases


SCAN_CASES = _seeded_cases()


class TestArrayScan:
    """The per-shape array scans against the per-row oracle in _family_oracle."""

    @pytest.mark.parametrize("ws", SCAN_CASES, ids=lambda ws: f"m{len(ws)}-{ws[0]:.3g}")
    def test_matches_per_row_oracle(self, ws):
        family = oracle.family(ws)
        assert tree_family(ws) == family
        star = canonical_form(star_of(ws))
        for stat in ("alpha", "kappa"):
            want = oracle.scan(family, stat)
            try:
                report = extremal_scan(ws, stat)
            except ConsistencyError:
                # refused only where the oracle's extremes break the star check too
                margin = want["runner_up_min"] - want["min_value"]
                assert want["argmin_codes"] != (star,) or not margin > EXTREME_GROUP_RTOL * abs(want["min_value"])
                continue
            assert {k: getattr(report, k) for k in want} == want

    @pytest.mark.parametrize("ws", SCAN_CASES, ids=lambda ws: f"m{len(ws)}-{ws[0]:.3g}")
    def test_shape_stats_bit_equal_to_scalar_route(self, ws):
        for shape, rows in _family_rows(weight_multiset(ws)):
            alphas, kappas = tree_stats(shape, rows.T)
            for row, a, k in zip(rows.tolist(), alphas.tolist(), kappas.tolist()):
                assert (a, k) == stats(_weighted(shape, row))

    @pytest.mark.parametrize("ws", SCAN_CASES, ids=lambda ws: f"m{len(ws)}-{ws[0]:.3g}")
    def test_tree_stats_bit_equal_to_reference(self, ws):
        for shape, rows in _family_rows(weight_multiset(ws)):
            alphas, kappas = tree_stats(shape, rows.T)
            for row, a, k in zip(rows.tolist(), alphas.tolist(), kappas.tolist()):
                want = oracle.tree_sums(_weighted(shape, row))
                assert tree_stats(shape, row) == want
                assert (a, k) == want

    @pytest.mark.parametrize("m", range(2, 8))
    def test_distinct_weights_count_n_to_the_n_minus_3(self, m):
        n = m + 1
        assert extremal_scan(range(1, m + 1), "alpha").family_size == n ** (n - 3)

    def test_eight_distinct_weights_in_seconds(self):
        start = time.perf_counter()
        report = extremal_scan([9, 8, 7, 6, 5, 4, 3, 2], "alpha")
        elapsed = time.perf_counter() - start
        assert report.family_size == 9**6 == 531_441
        assert elapsed < 20.0


def _path_weights_in_order(t):
    (start,) = [v for v in range(t.n) if len(t.neighbors[v]) == 1 and v == min(
        u for u in range(t.n) if len(t.neighbors[u]) == 1
    )]
    order = []
    prev, cur = -1, start
    while len(order) < t.n - 1:
        (nxt,) = [u for u, _ in t.neighbors[cur] if u != prev]
        order.append(t.weight(cur, nxt))
        prev, cur = cur, nxt
    canonical = tuple(order)
    return canonical if canonical >= tuple(reversed(canonical)) else tuple(reversed(canonical))
