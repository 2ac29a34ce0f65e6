import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import _conjecture_oracle
from _enumeration import (
    _simple_canonical,
    compare_counts,
    extension_graph_corpus,
    scalar_hom_count,
    scalar_pair_verdicts,
    subset_graph_corpus,
)
from treewalk.cli import main
from treewalk.errors import GraphError
from treewalk.graphs import (
    FREE_TREE_MAX,
    WeightedGraph,
    complete_graph,
    cycle_graph,
    enumerate_free_trees,
    path_graph,
    sig12,
    star_graph,
)
from treewalk.homorder import (
    SCAN_TREE_MAX,
    _wiener_index,
    connected_graph_corpus,
    conjecture_scan,
    corpus_dominates,
    hom_count,
    hom_counts,
)
from treewalk.walks import walk_stats


def hom_bruteforce(t, g):
    """Oracle: enumerate all |V(G)|^|T| vertex maps."""
    edges = [(u, v) for u, v, _ in t.edges]
    adjacent = set()
    for u, v, _ in g.edges:
        adjacent.add((u, v))
        adjacent.add((v, u))
    count = 0
    for mapping in product(range(g.n), repeat=t.n):
        if all((mapping[u], mapping[v]) in adjacent for u, v in edges):
            count += 1
    return count


class TestHomCount:
    def test_single_edge_counts_oriented_edges(self):
        e = path_graph([1])
        for g in (complete_graph(4), cycle_graph(5), star_graph([1, 1, 1])):
            assert hom_count(e, g) == 2 * len(g.edges)

    def test_no_edges_available(self):
        assert hom_count(path_graph([1]), WeightedGraph(1, ())) == 0

    def test_p3_into_k3(self):
        assert hom_count(path_graph([1, 1]), complete_graph(3)) == 12

    def test_complete_target_closed_form(self):
        for k in range(2, 6):
            for size in range(2, 9):
                t = path_graph([1] * (size - 1))
                assert hom_count(t, complete_graph(k)) == k * (k - 1) ** (size - 1)
                s = star_graph([1] * (size - 1))
                assert hom_count(s, complete_graph(k)) == k * (k - 1) ** (size - 1)

    def test_matches_bruteforce(self):
        targets = [
            complete_graph(2),
            complete_graph(3),
            cycle_graph(4),
            path_graph([1, 1, 1]),
            star_graph([1, 1, 1]),
        ]
        trees = [t for n in range(2, 6) for t in enumerate_free_trees(n)]
        for t in trees:
            for g in targets:
                assert hom_count(t, g) == hom_bruteforce(t, g)

    def test_relabeling_invariance(self):
        t = path_graph([1, 1, 1])
        g = cycle_graph(5)
        t2 = t.relabeled([3, 1, 0, 2])
        g2 = g.relabeled([4, 2, 0, 3, 1])
        assert hom_count(t, g) == hom_count(t2, g) == hom_count(t, g2)

    def test_vertex_map_count_single_vertex_tree(self):
        assert hom_count(WeightedGraph(1, ()), complete_graph(4)) == 4

    def test_rows_match_scalar_reference(self):
        corpus = connected_graph_corpus(1, 6)
        for n in range(1, 9):
            for t in enumerate_free_trees(n):
                assert hom_counts(t, corpus) == [scalar_hom_count(t, g) for g in corpus]

    def test_empty_graph_list(self):
        assert hom_counts(path_graph([1, 1]), []) == []

    def test_single_vertex_targets_anywhere_in_the_list(self):
        k1 = WeightedGraph(1, ())
        graphs = [k1, complete_graph(2), k1, cycle_graph(4), k1]
        for t in (WeightedGraph(1, ()), path_graph([1]), star_graph([1, 1, 1])):
            assert hom_counts(t, graphs) == [scalar_hom_count(t, g) for g in graphs]
        assert hom_counts(path_graph([1]), graphs) == [0, 2, 0, 8, 0]

    def test_exact_past_int64(self):
        k20 = complete_graph(20)
        for size in range(2, 31):
            t = path_graph([1] * (size - 1))
            assert hom_count(t, k20) == 20 * 19 ** (size - 1)
        assert 20 * 19**29 >= 2**63


class TestCorpus:
    def test_connected_counts_by_size(self):
        corpus = connected_graph_corpus(2, 6)
        by_n = {}
        for g in corpus:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

    def test_matches_subset_enumeration(self):
        def keys(graphs):
            return [(g.n, _simple_canonical(g.n, [(u, v) for u, v, _ in g.edges])) for g in graphs]

        levels = {n: keys(subset_graph_corpus(n, n)) for n in range(1, 7)}
        for min_n in range(1, 7):
            for max_n in range(min_n, 7):
                want = [key for n in range(min_n, max_n + 1) for key in levels[n]]
                assert keys(connected_graph_corpus(min_n, max_n)) == want

    def test_labels_match_extension_oracle(self):
        levels = {}
        for g in extension_graph_corpus(1, 6):
            levels.setdefault(g.n, []).append(g.edges)
        for min_n in range(1, 7):
            for max_n in range(min_n, 7):
                want = [edges for n in range(min_n, max_n + 1) for edges in levels[n]]
                assert [g.edges for g in connected_graph_corpus(min_n, max_n)] == want

    def test_deterministic(self):
        a = connected_graph_corpus()
        b = connected_graph_corpus()
        assert [g.edges for g in a] == [g.edges for g in b]

    def test_all_connected(self):
        assert all(g.is_connected() for g in connected_graph_corpus(1, 6))

    def test_guard(self):
        with pytest.raises(GraphError):
            connected_graph_corpus(2, 7)


class TestDominance:
    def test_equal_tree_is_equal(self):
        corpus = connected_graph_corpus(2, 4)
        p = path_graph([1, 1, 1])
        assert corpus_dominates(p, p, corpus) == "equal-on-corpus"
        assert corpus_dominates(p, p, []) == "equal-on-corpus"

    def test_star_dominates_path(self):
        corpus = [complete_graph(2), complete_graph(3), path_graph([1, 1])]
        p4, s4 = path_graph([1, 1, 1]), star_graph([1, 1, 1])
        assert corpus_dominates(s4, p4, corpus) == "dominates"
        assert corpus_dominates(p4, s4, corpus) == "dominated"

    def test_matches_scalar_comparison(self):
        corpus = connected_graph_corpus(2, 5)
        trees = enumerate_free_trees(6)
        rows = [[scalar_hom_count(t, g) for g in corpus] for t in trees]
        for i, t in enumerate(trees):
            for j, t2 in enumerate(trees):
                assert corpus_dominates(t, t2, corpus) == compare_counts(rows[i], rows[j])[0]

    def test_size_mismatch_rejected(self):
        with pytest.raises(GraphError):
            corpus_dominates(path_graph([1]), path_graph([1, 1]), [complete_graph(2)])

    def test_star_dominates_every_tree_path_dominated(self):
        corpus = connected_graph_corpus()
        for n in (5, 6):
            trees = enumerate_free_trees(n)
            star = star_graph([1] * (n - 1))
            path = path_graph([1] * (n - 1))
            for t in trees:
                if t.degree_sequence() == star.degree_sequence():
                    continue
                assert corpus_dominates(star, t, corpus) == "dominates"
            for t in trees:
                if t.degree_sequence() == path.degree_sequence():
                    continue
                assert corpus_dominates(path, t, corpus) == "dominated"


def assert_scan_matches_scalar_loop(n, corpus):
    """Verdicts, witnesses and violations equal the pair-at-a-time loop on scalar counts."""
    report = conjecture_scan(n, corpus=corpus)
    codes = list(report.codes)
    trees = enumerate_free_trees(n)
    exact = [_conjecture_oracle.exact_alpha(t) for t in trees]
    rows = [[scalar_hom_count(t, g) for g in corpus] for t in trees]
    want = scalar_pair_verdicts(rows)
    got = _conjecture_oracle.report_pairs(report)
    assert list(got) == [(codes[i], codes[j], verdict, witness) for i, j, verdict, witness in want]
    assert report.violations == tuple(
        (codes[i], codes[j], float(exact[i]), float(exact[j]))
        for i, j, verdict, _ in want
        if verdict == "dominates" and exact[j] < exact[i]
    )


class TestConjectureScan:
    def test_verdicts_match_scalar_loop(self):
        for corpus_max in range(2, 7):
            corpus = connected_graph_corpus(2, corpus_max)
            for n in range(1, 9):
                assert_scan_matches_scalar_loop(n, corpus)

    def test_verdicts_match_scalar_loop_on_empty_corpus(self):
        for n in range(1, 9):
            assert_scan_matches_scalar_loop(n, [])

    def test_verdicts_match_scalar_loop_with_single_vertex_graphs(self):
        k1 = WeightedGraph(1, ())
        for corpus in (connected_graph_corpus(1, 4), [k1, complete_graph(2), k1, cycle_graph(4)], [k1, k1]):
            for n in range(1, 9):
                assert_scan_matches_scalar_loop(n, corpus)

    def test_verdicts_match_scalar_loop_past_int64(self):
        corpus = [complete_graph(3), star_graph([1] * 600), path_graph([1, 1])]
        assert max(hom_counts(star_graph([1] * 7), corpus)) >= 2**63
        assert_scan_matches_scalar_loop(8, corpus)

    def test_n3_trivial(self):
        report = conjecture_scan(3)
        assert _conjecture_oracle.report_pairs(report) == ()
        assert report.violations == ()

    def test_n4_path_vs_star(self):
        report = conjecture_scan(4)
        assert report.violations == ()
        verdicts = {(a, b): verdict for a, b, verdict, _ in _conjecture_oracle.report_pairs(report)}
        assert len(verdicts) == 2
        alphas = dict(_conjecture_oracle.report_alphas(report))
        path_code = [c for c, a in alphas.items() if a == pytest.approx(15 / 4)][0]
        star_code = [c for c, a in alphas.items() if a == pytest.approx(27 / 8)][0]
        assert verdicts[(star_code, path_code)] == "dominates"
        assert verdicts[(path_code, star_code)] == "dominated"
        assert alphas[path_code] > alphas[star_code]

    def test_empty_corpus_decides_nothing(self):
        report = conjecture_scan(4, corpus=[])
        assert report.corpus_size == 0
        pairs = _conjecture_oracle.report_pairs(report)
        assert len(pairs) == 2
        assert {verdict for _, _, verdict, _ in pairs} == {"equal-on-corpus"}
        assert report.violations == ()

    def test_dominant_pairs_have_witnesses(self):
        report = conjecture_scan(5)
        for _, _, verdict, witness in _conjecture_oracle.report_pairs(report):
            if verdict in ("dominates", "dominated"):
                assert witness is not None
                graph_idx, hom_a, hom_b = witness
                assert hom_a != hom_b

    def test_size6_corpus_violation_is_real_and_bruteforce_verified(self):
        """The 2..5-vertex corpus genuinely reports one violating pair at n=6.

        The pair is the two caterpillars with degree sequence
        (3,2,2,1,1,1); the one with the branch next to the path's end
        corpus-dominates the one with the central branch while having
        the larger average hitting time. Brute-force map enumeration
        confirms the counts on every corpus graph, and a 6-vertex graph
        separates the pair the other way, proving the dominance is an
        artifact of the corpus bound, not a conjecture counterexample.
        """
        near_end = WeightedGraph(
            6, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 5, 1.0))
        )
        central = WeightedGraph(
            6, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 5, 1.0))
        )
        corpus = connected_graph_corpus()
        for g in corpus:
            assert hom_count(near_end, g) == hom_bruteforce(near_end, g)
            assert hom_count(central, g) == hom_bruteforce(central, g)
        assert corpus_dominates(near_end, central, corpus) == "dominates"
        assert walk_stats(central)[0] < walk_stats(near_end)[0]
        report = conjecture_scan(6)
        assert len(report.violations) == 1
        separator = WeightedGraph(
            6,
            ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0),
             (2, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)),
        )
        a = hom_count(near_end, separator)
        b = hom_count(central, separator)
        assert a == hom_bruteforce(near_end, separator)
        assert b == hom_bruteforce(central, separator)
        assert a < b

    def test_readers_match_pair_by_pair_oracle(self):
        corpora = [[], *(connected_graph_corpus(2, c) for c in range(2, 7))]
        for corpus in corpora:
            for n in range(1, 9):
                report = conjecture_scan(n, corpus=corpus)
                want = _conjecture_oracle.scan(n, corpus)
                pairs = _conjecture_oracle.report_pairs(report)
                alphas = _conjecture_oracle.report_alphas(report)
                assert (pairs, alphas, report.violations) == want
                assert all(type(a) is float for _, a in alphas)
                assert all(type(v) is int for _, _, _, witness in pairs if witness for v in witness)
                assert report.violations is report.violations  # built once, on first read

    def test_json_roundtrip(self, capsys):
        report = conjecture_scan(4)
        assert main(["conjecture", "--n", "4", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["tree_size"] == 4 and blob["corpus_size"] == report.corpus_size
        assert [(r["code"], r["alpha"]) for r in blob["alphas"]] == [
            (c, sig12(a)) for c, a in _conjecture_oracle.report_alphas(report)
        ]

    @pytest.mark.parametrize("n", range(1, FREE_TREE_MAX + 1))
    def test_wiener_identity_is_the_exact_alpha(self, n):
        """alpha = 2 (n - 1) W / n^2 on every free tree, in Fractions, and
        within 1e-12 of the exact route's float alpha."""
        for t in enumerate_free_trees(n):
            exact = _conjecture_oracle.exact_alpha(t)
            assert Fraction(2 * (n - 1) * _wiener_index(t), n * n) == exact
            assert walk_stats(t)[0] == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(1, SCAN_TREE_MAX + 1))
    def test_scan_alphas_are_correctly_rounded(self, n):
        report = conjecture_scan(n, corpus=[])
        want = [float(_conjecture_oracle.exact_alpha(t)) for t in enumerate_free_trees(n)]
        assert report.alpha.tolist() == want  # bit for bit

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_scan_inverts_nothing(self, monkeypatch, n):
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        conjecture_scan(n, corpus=[])
        assert calls == []

    def test_guard(self):
        with pytest.raises(GraphError):
            conjecture_scan(9)
