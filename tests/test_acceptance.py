"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS lines.
"""

import math
import random
import time

import pytest

from _enumeration import edge_cut, is_star_graph, random_weighted_tree
from _separators import find_separator, separator_library
from treewalk import forests, spectral
from treewalk.extremal import (
    best_path_assignment,
    extremal_scan,
    is_polarized,
    polarized_paths,
    star_of,
)
from treewalk.graphs import (
    WeightedGraph,
    canonical_form,
    enumerate_free_trees,
    is_path_graph,
    path_graph,
    star_graph,
)
from treewalk.homorder import conjecture_scan, connected_graph_corpus
from treewalk.simulate import estimate_hitting
from treewalk.spectral import _eigenpairs
from treewalk.transfers import apply_move, build_hasse, legal_moves
from treewalk.walks import hitting_matrix, walk_stats

AGREEMENT_RTOL = 1e-7
HAND_RTOL = 1e-10
IDENTITY_RTOL = 1e-9


def _report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS - {message}")


@pytest.fixture(scope="module")
def agreement_corpus():
    """Criterion 1's graphs: unit free trees of sizes 7-10 plus 500 random trees."""
    graphs = []
    for n in (10, 9, 8, 7):
        graphs.extend(enumerate_free_trees(n))
    rng = random.Random(20260808)
    for _ in range(500):
        graphs.append(random_weighted_tree(rng, rng.randint(2, 10)))
    return graphs


def test_criterion_1_triple_method_agreement(agreement_corpus):
    start = time.perf_counter()
    assert len(agreement_corpus) == 106 + 47 + 23 + 11 + 500
    for g in agreement_corpus:
        exact = walk_stats(g)
        assert forests.stats(g) == pytest.approx(exact, rel=AGREEMENT_RTOL)
        assert spectral.stats(g) == pytest.approx(exact, rel=AGREEMENT_RTOL)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"exact/forest/spectral agree to {AGREEMENT_RTOL} on "
               f"{len(agreement_corpus)} graphs in {elapsed:.1f}s")


def test_criterion_2_hand_oracles():
    cases = [
        ("path3", path_graph([1, 1]), 16 / 9, 3 / 2),
        ("path4", path_graph([1, 1, 1]), 15 / 4, 19 / 6),
        ("star4", star_graph([1, 1, 1]), 27 / 8, 5 / 2),
        ("w21", path_graph([2, 1]), 2.0, 3 / 2),
    ]
    for name, g, alpha, kappa in cases:
        for route in (walk_stats, forests.stats, spectral.stats):
            assert route(g) == pytest.approx((alpha, kappa), rel=HAND_RTOL), (name, route.__module__)
    _report(2, "all hand-derived alpha/kappa values reproduced to 1e-10 by all methods")


def test_criterion_3_path_max_star_min_simple_trees():
    start = time.perf_counter()
    for n in range(5, 9):
        trees = enumerate_free_trees(n)
        for values in zip(*map(forests.stats, trees)):  # alphas, then kappas
            order = sorted(range(len(trees)), key=lambda i: values[i])
            assert is_star_graph(trees[order[0]])
            assert is_path_graph(trees[order[-1]])
            assert values[order[-1]] > max(
                v for i, v in enumerate(values) if i != order[-1]
            )
            assert values[order[0]] < min(
                v for i, v in enumerate(values) if i != order[0]
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"path is strict max and star strict min for alpha and kappa, "
               f"sizes 5-8, in {elapsed:.1f}s")


SCAN_FAMILIES = ([3.0, 2.0, 1.0, 0.5], [2.0, 2.0, 1.0, 1.0])


def test_criterion_4_alpha_extremes_weighted():
    for weights in SCAN_FAMILIES:
        start = time.perf_counter()
        report = extremal_scan(weights, "alpha")
        polarized = {canonical_form(path_graph(p)) for p in polarized_paths(weights)}
        assert set(report.argmax_codes) == polarized
        values = [forests.stats(path_graph(p))[0] for p in polarized_paths(weights)]
        assert max(values) - min(values) <= 1e-10 * abs(max(values))
        assert report.argmin_codes == (canonical_form(star_of(weights)),)
        assert report.runner_up_min - report.min_value > 1e-10 * report.min_value
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
    _report(4, f"alpha argmax = polarized paths (shared value), argmin = star, "
               f"for W in {SCAN_FAMILIES}")


def test_criterion_5_kappa_extremes_weighted():
    for weights in SCAN_FAMILIES:
        report = extremal_scan(weights, "kappa")
        assert all(is_path_graph(t) for t in report.argmax_trees)
        assert report.argmin_codes == (canonical_form(star_of(weights)),)
        assert report.runner_up_min - report.min_value > 1e-10 * report.min_value
    _report(5, f"kappa argmax trees are paths, argmin = star, for W in {SCAN_FAMILIES}")


def test_criterion_6_transfer_monotonicity_property_suite():
    rng = random.Random(31337)
    size_moves = volume_moves = 0
    for _ in range(1000):
        t = random_weighted_tree(rng, rng.randint(3, 10))
        n, vol = t.n, t.vol
        alpha_before, kappa_before = forests.stats(t)
        for move in legal_moves(t, "size"):
            out = apply_move(t, move)
            alpha_after = forests.stats(out)[0]
            assert alpha_before > alpha_after
            lhs = (n / vol) * (alpha_before - alpha_after)
            rhs = (
                math.prod(edge_cut(t, move.v1, move.v2)[1])
                - math.prod(edge_cut(out, move.v1, move.v2)[1])
            ) / (n * t.weight(move.v1, move.v2))
            assert abs(lhs - rhs) <= IDENTITY_RTOL * max(abs(lhs), abs(rhs))
            size_moves += 1
        for move in legal_moves(t, "volume"):
            out = apply_move(t, move)
            kappa_after = forests.stats(out)[1]
            assert kappa_before > kappa_after
            lhs = kappa_before - kappa_after
            rhs = (
                math.prod(edge_cut(t, move.v1, move.v2)[2])
                - math.prod(edge_cut(out, move.v1, move.v2)[2])
            ) / (vol * t.weight(move.v1, move.v2))
            assert abs(lhs - rhs) <= IDENTITY_RTOL * max(abs(lhs), abs(rhs))
            volume_moves += 1
    assert size_moves > 1000 and volume_moves > 1000
    _report(6, f"alpha/kappa strictly decrease and both cut identities hold over "
               f"{size_moves} size and {volume_moves} volume moves, zero violations")


def test_criterion_7_path_search_instance():
    weights = [10.0, 8.0, 1.0, 1.0, 0.1]
    result = best_path_assignment(weights)
    assert len(result.evaluations) == 60
    expected = (10.0, 0.1, 1.0, 1.0, 8.0)
    assert result.assignment in (expected, expected[::-1])
    # unique maximizer up to reversal
    best_code = canonical_form(path_graph(result.assignment))
    top = [
        order
        for order, _, kap in result.evaluations
        if kap >= result.kappa * (1 - 1e-12)
    ]
    assert {canonical_form(path_graph(o)) for o in top} == {best_code}
    assert not is_polarized(result.assignment)
    # ranking agreement across all 60, pairwise
    evals = result.evaluations
    for i in range(len(evals)):
        for j in range(i + 1, len(evals)):
            dj = evals[i][1] - evals[j][1]
            dk = evals[i][2] - evals[j][2]
            scale_j = max(abs(evals[i][1]), abs(evals[j][1]))
            scale_k = max(abs(evals[i][2]), abs(evals[j][2]))
            tied_j = abs(dj) <= 1e-9 * scale_j
            tied_k = abs(dk) <= 1e-9 * scale_k
            assert tied_j == tied_k
            if not tied_j:
                assert (dj > 0) == (dk > 0)
    _report(7, "kappa maximizer over W={10,8,1,1,0.1} is (10,0.1,1,1,8) up to "
               "reversal, not polarized; objective and kappa rankings agree on all 60 orders")


def test_criterion_8_spectral_trace_identities(agreement_corpus, monkeypatch):
    """sum mu_i = n = trace N, on the eigenvalues the spectral route checks:
    from the SVD of each tree's bipartite block, then from eigh of N."""
    for g in agreement_corpus:
        assert sum(_eigenpairs(g)[0].tolist()) == pytest.approx(g.n, rel=IDENTITY_RTOL)
    with monkeypatch.context() as m:
        m.setattr(WeightedGraph, "is_tree", lambda self: False)
        for g in agreement_corpus:
            assert sum(_eigenpairs(g)[0].tolist()) == pytest.approx(g.n, rel=IDENTITY_RTOL)
    _report(8, f"sum of normalized eigenvalues = n to 1e-9 on all {len(agreement_corpus)} "
               f"criterion-1 graphs, from the SVD and from eigh")


def test_criterion_9_hasse_reproduction():
    diagram = build_hasse(enumerate_free_trees(7), "size")
    assert len(diagram.nodes) == 11
    (top,) = diagram.maximal()
    (bottom,) = diagram.minimal()
    assert is_path_graph(diagram.representatives[top])
    assert is_star_graph(diagram.representatives[bottom])
    for n in range(2, 9):
        trees = enumerate_free_trees(n)
        by_size = build_hasse(trees, "size")
        by_volume = build_hasse(trees, "volume")
        assert by_size.nodes == by_volume.nodes
        assert by_size.covers == by_volume.covers
        for t in trees:
            size_set = {(m.v1, m.v2, m.v3) for m in legal_moves(t, "size")}
            volume_set = {(m.v1, m.v2, m.v3) for m in legal_moves(t, "volume")}
            assert size_set == volume_set
    _report(9, "size-7 diagram has 11 nodes with unique path top and star bottom; "
               "size and volume orders coincide on simple trees up to size 8")


def test_criterion_10_conjecture_scan_soft():
    """Soft criterion: the scan must not contradict the hom-order conjecture.

    The spec predicted zero violations at n=6 and n=7 with the 2..5-vertex
    corpus; the scan actually reports corpus-level violations there (the
    hom counts are brute-force verified, see test_homorder). Every such
    violation must therefore be PROVEN a finite-corpus false positive by
    an explicit separator graph that breaks the claimed dominance. The
    6-vertex extension prescribed by the spec suffices at n=6 and n=7;
    six ordered pairs at n=8 additionally need the frozen large
    witnesses, re-verified from scratch here.
    """
    corpus6 = connected_graph_corpus(6, 6)
    library = separator_library()
    start = time.perf_counter()
    totals = {}
    for n in (6, 7, 8):
        report = conjecture_scan(n)
        trees = {canonical_form(t): t for t in enumerate_free_trees(n)}
        flagged_by_extension = 0
        flagged_by_library = 0
        for code_a, code_b, alpha_a, alpha_b in report.violations:
            a, b = trees[code_a], trees[code_b]
            assert alpha_b < alpha_a  # this is what made it a violation
            if find_separator(a, b, corpus6) is not None:
                flagged_by_extension += 1
            else:
                witness = find_separator(a, b, library)
                assert witness is not None, (
                    f"violation at n={n} not provably a corpus false positive"
                )
                flagged_by_library += 1
        totals[n] = (len(report.violations), flagged_by_extension, flagged_by_library)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    # spec's own remedy (6-vertex extension) fully explains n=6 and n=7
    assert totals[6][0] == totals[6][1]
    assert totals[7][0] == totals[7][1]
    assert totals[8][0] == totals[8][1] + totals[8][2]
    _report(10, "conjecture unfalsified: every scan violation "
                f"{ {n: v[0] for n, v in totals.items()} } is a proven corpus "
                f"false positive (6-vertex extension covers n=6,7; "
                f"{totals[8][2]} pairs at n=8 need the frozen large separators); "
                f"{elapsed:.1f}s")


def test_criterion_11_monte_carlo_oracle():
    rng = random.Random(4)
    smoke = [
        (path_graph([1, 1]), 0, 2),
        (path_graph([1, 1, 1]), 0, 3),
        (star_graph([1, 1, 1]), 0, 1),
        (random_weighted_tree(rng, 6), 0, 5),
    ]
    for seed, (g, src, dst) in enumerate(smoke, start=101):
        exact = hitting_matrix(g)[src, dst]
        est = estimate_hitting(g, src, dst, 100_000, seed=seed)
        assert abs(est.mean - exact) <= 4 * est.stderr, (seed, est, exact)
        rerun = estimate_hitting(g, src, dst, 100_000, seed=seed)
        assert rerun == est
    _report(11, "Monte Carlo smoke set within 4 standard errors of exact values "
                "at 1e5 trials; reruns bit-identical")
