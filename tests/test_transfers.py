import functools
import hashlib
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import _transfer_oracle as oracle
from _enumeration import edge_cut, is_star_graph, random_weighted_tree, recursive_canonical_form
from treewalk import graphs, transfers
from treewalk.cli import main
from treewalk.errors import ConsistencyError, GraphError, NotATreeError
from treewalk.extremal import tree_family
from treewalk.forests import stats
from treewalk.graphs import (
    WeightedGraph,
    canonical_form,
    cycle_graph,
    enumerate_free_trees,
    format_weight,
    is_path_graph,
    path_graph,
    star_graph,
)
from treewalk.transfers import (
    TransferMove,
    apply_move,
    build_hasse,
    hasse_to_dot,
    legal_moves,
    verify_monotonicity,
)

P4 = path_graph([1, 1, 1])

# weight multisets whose families the per-pair oracle checks
ORACLE_FAMILIES = {
    "distinct": (6, 5, 4, 3, 2, 1),
    "repeated": (2, 2, 1, 1),
    "tie-12-digits": (3.0, 3.0 + 4e-13, 2.0, 1.0, 1.0 + 1e-13),  # equal to 12 significant digits
    "spread": (1e-6, 1e-3, 1.0, 1e3, 1e6),
}


@functools.cache
def oracle_family(name):
    if name.startswith("free-"):
        return enumerate_free_trees(int(name[5:]))
    return tree_family(ORACLE_FAMILIES[name])


class TestMoves:
    def test_p4_components_and_legality(self):
        b1, b2, b3 = oracle.components(P4, 1, 2, 3)
        assert (b1, b2, b3) == (frozenset({0, 1}), frozenset({2}), frozenset({3}))
        moves = legal_moves(P4, "size")
        assert {(m.v1, m.v2, m.v3) for m in moves} == {(1, 2, 3), (2, 1, 0)}

    def test_star_has_no_moves(self):
        for mode in ("size", "volume"):
            assert legal_moves(star_graph([1, 1, 1]), mode) == []

    def test_p3_has_no_moves(self):
        for mode in ("size", "volume"):
            assert legal_moves(path_graph([1, 1]), mode) == []

    def test_apply_p4_gives_star(self):
        move = [m for m in legal_moves(P4, "size") if (m.v1, m.v2, m.v3) == (1, 2, 3)][0]
        result = apply_move(P4, move)
        assert is_star_graph(result)
        assert result.has_edge(1, 3)
        assert not result.has_edge(2, 3)

    def test_transferred_weight_preserved(self):
        rng = random.Random(61)
        for _ in range(30):
            t = random_weighted_tree(rng, rng.randint(4, 10))
            for move in legal_moves(t, "size"):
                out = apply_move(t, move)
                assert out.weight(move.v1, move.v3) == t.weight(move.v2, move.v3)
                assert out.weight_multiset() == t.weight_multiset()
                assert out.is_tree()

    def test_illegal_move_rejected(self):
        legal = legal_moves(P4, "size")[0]
        # replay the same move object on the already-transformed tree
        moved = apply_move(P4, legal)
        with pytest.raises(GraphError):
            apply_move(moved, legal)

    def test_non_tree_result_refused(self, monkeypatch):
        # drop the moved edge, so the result is a disconnected forest
        real = transfers.WeightedGraph
        monkeypatch.setattr(transfers, "WeightedGraph", lambda n, edges: real(n, edges[:-1]))
        with pytest.raises(ConsistencyError, match="did not leave a tree"):
            apply_move(P4, legal_moves(P4, "size")[0])

    def test_volumes_add_in_edge_order(self):
        # vol(T1) of (3, 4, 5) adds 1e16, 1 and 1 one by one and stays 1e16; a compensated sum
        # (Python 3.12's builtin sum) would give 1e16 + 2
        t = WeightedGraph(6, ((0, 1, 1e16), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 0.5), (4, 5, 0.25)))
        (move,) = [m for m in legal_moves(t, "volume") if (m.v1, m.v2, m.v3) == (3, 4, 5)]
        assert (move.t1_stat, move.t2_stat) == (2e16, 0.0)
        assert oracle.standalone_volume(t, {0, 1, 2, 3}) == 2e16

    def test_mode_validation(self):
        with pytest.raises(GraphError):
            legal_moves(P4, "sideways")


class TestMonotonicity:
    def test_p4_size_move_alpha(self):
        move = [m for m in legal_moves(P4, "size") if (m.v1, m.v2, m.v3) == (1, 2, 3)][0]
        before, after = verify_monotonicity(P4, move)
        assert before == pytest.approx(15 / 4, rel=1e-12)
        assert after == pytest.approx(27 / 8, rel=1e-12)

    def test_p4_volume_move_kappa(self):
        move = [m for m in legal_moves(P4, "volume") if (m.v1, m.v2, m.v3) == (1, 2, 3)][0]
        before, after = verify_monotonicity(P4, move)
        assert before == pytest.approx(19 / 6, rel=1e-12)
        assert after == pytest.approx(5 / 2, rel=1e-12)

    def test_alpha_strictly_decreases_on_random_trees(self):
        rng = random.Random(67)
        for _ in range(100):
            t = random_weighted_tree(rng, rng.randint(3, 10))
            for move in legal_moves(t, "size"):
                before, after = verify_monotonicity(t, move)
                assert before > after

    def test_kappa_strictly_decreases_on_random_trees(self):
        rng = random.Random(71)
        for _ in range(100):
            t = random_weighted_tree(rng, rng.randint(3, 10))
            for move in legal_moves(t, "volume"):
                before, after = verify_monotonicity(t, move)
                assert before > after

    def test_alpha_difference_identity(self):
        # (n/vol)(alpha(T)-alpha(T')) == (S(T\e1) - S(T'\e1)) / (n w(e1))
        rng = random.Random(73)
        for _ in range(60):
            t = random_weighted_tree(rng, rng.randint(3, 10))
            n, vol = t.n, t.vol
            for move in legal_moves(t, "size"):
                out = apply_move(t, move)
                lhs = (n / vol) * (stats(t)[0] - stats(out)[0])
                s_t = math.prod(edge_cut(t, move.v1, move.v2)[1])
                s_out = math.prod(edge_cut(out, move.v1, move.v2)[1])
                rhs = (s_t - s_out) / (n * t.weight(move.v1, move.v2))
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_kappa_difference_identity(self):
        # kappa(T)-kappa(T') == (V_T(T\e1) - V_T'(T'\e1)) / (vol w(e1))
        rng = random.Random(79)
        for _ in range(60):
            t = random_weighted_tree(rng, rng.randint(3, 10))
            vol = t.vol
            for move in legal_moves(t, "volume"):
                out = apply_move(t, move)
                lhs = stats(t)[1] - stats(out)[1]
                v_t = math.prod(edge_cut(t, move.v1, move.v2)[2])
                v_out = math.prod(edge_cut(out, move.v1, move.v2)[2])
                rhs = (v_t - v_out) / (vol * t.weight(move.v1, move.v2))
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_volume_bookkeeping_identity(self):
        # vol_T(T2 u T3) = vol(T2 standalone) + w1 + 2 w2 + vol(T3 standalone)
        rng = random.Random(83)
        for _ in range(60):
            t = random_weighted_tree(rng, rng.randint(3, 10))
            for move in legal_moves(t, "volume"):
                b1, b2, b3 = oracle.components(t, move.v1, move.v2, move.v3)
                w1 = t.weight(move.v1, move.v2)
                w2 = t.weight(move.v2, move.v3)
                standalone2 = 2 * sum(w for a, b, w in t.edges if a in b2 and b in b2)
                standalone3 = 2 * sum(w for a, b, w in t.edges if a in b3 and b in b3)
                assert t.volume(b2 | b3) == pytest.approx(
                    standalone2 + w1 + 2 * w2 + standalone3, rel=1e-12
                )

    def test_modes_coincide_on_simple_trees(self):
        for n in range(2, 9):
            for t in enumerate_free_trees(n):
                size_set = {(m.v1, m.v2, m.v3) for m in legal_moves(t, "size")}
                vol_set = {(m.v1, m.v2, m.v3) for m in legal_moves(t, "volume")}
                assert size_set == vol_set


class TestHasse:
    def test_n4(self):
        h = build_hasse(enumerate_free_trees(4), "size")
        assert len(h.nodes) == 2
        assert len(h.covers) == 1
        (i, j) = h.covers[0]
        assert is_path_graph(h.representatives[i])
        assert is_star_graph(h.representatives[j])

    def test_n5_chain(self):
        h = build_hasse(enumerate_free_trees(5), "size")
        assert len(h.nodes) == 3
        assert len(h.covers) == 2  # path > spider > star
        assert len(h.maximal()) == 1
        assert len(h.minimal()) == 1

    def test_n7_figure(self):
        h = build_hasse(enumerate_free_trees(7), "size")
        assert len(h.nodes) == 11
        (top,) = h.maximal()
        (bottom,) = h.minimal()
        assert is_path_graph(h.representatives[top])
        assert is_star_graph(h.representatives[bottom])

    def test_n2_single_node(self):
        h = build_hasse(enumerate_free_trees(2), "size")
        assert len(h.nodes) == 1
        assert h.covers == ()

    def test_modes_give_same_diagram(self):
        for n in range(2, 9):
            trees = enumerate_free_trees(n)
            hs = build_hasse(trees, "size")
            hv = build_hasse(trees, "volume")
            assert hs.nodes == hv.nodes
            assert hs.covers == hv.covers

    def test_covers_are_reduced(self):
        h = build_hasse(enumerate_free_trees(7), "size")
        succ = {i: {j for a, j in h.covers if a == i} for i in range(len(h.nodes))}

        def reach(i, seen=None):
            seen = set() if seen is None else seen
            for j in succ[i]:
                if j not in seen:
                    seen.add(j)
                    reach(j, seen)
            return seen

        for i, j in h.covers:
            via = any(j in reach(k) for k in succ[i] if k != j)
            assert not via

    @pytest.mark.parametrize("mode", ["size", "volume"])
    @pytest.mark.parametrize("family", ["weighted-3,2,1,0.5", "free-8"])
    def test_covers_close_to_move_reachability(self, family, mode):
        trees = tree_family([3, 2, 1, 0.5]) if family.startswith("weighted") else enumerate_free_trees(8)
        h = build_hasse(trees, mode)
        index = {code: i for i, code in enumerate(h.nodes)}
        below = {i: {j for a, j in h.covers if a == i} for i in range(len(h.nodes))}
        for i, t in enumerate(h.representatives):
            # nodes reachable by one or more moves, found by applying moves
            moved, frontier = set(), [t]
            while frontier:
                s = frontier.pop()
                for move in legal_moves(s, mode):
                    j = index[canonical_form(apply_move(s, move))]
                    if j not in moved:
                        moved.add(j)
                        frontier.append(h.representatives[j])
            # nodes reachable along one or more covers
            closure, frontier = set(), [i]
            while frontier:
                for j in below[frontier.pop()] - closure:
                    closure.add(j)
                    frontier.append(j)
            assert closure == moved

    def test_move_cycle_is_a_consistency_error(self, monkeypatch):
        # a move back to a tree it left would contradict strict monotonicity. The path's moves
        # lead to the spider and the spider's to the star; swapping the path's and the star's
        # keys in the family rows (the first rows keyed) makes the spider's results look up as
        # the path
        trees = enumerate_free_trees(5)  # sorted by code, as build_hasse sorts them
        path = next(i for i, t in enumerate(trees) if is_path_graph(t))
        star = next(i for i, t in enumerate(trees) if is_star_graph(t))
        keys = transfers._keys

        def swapped(*args):
            out = keys(*args)
            out[[path, star]] = out[[star, path]]
            return out

        monkeypatch.setattr(transfers, "_keys", swapped)
        with pytest.raises(ConsistencyError, match="lead back"):
            build_hasse(trees, "size")

    def test_non_tree_rejected(self):
        with pytest.raises(NotATreeError):
            build_hasse([cycle_graph(4)], "size")

    def test_one_large_tree_keeps_linear_text(self):
        # the first move result of a 5,000-vertex path leaves the one-tree family. The first chunk
        # of moves, about 6 results keyed with the family, takes about 8 MB; keeping the text of
        # every subtree met would add about 19 MB
        t = path_graph([1.0] * 4999)
        assert canonical_form(t) and t.neighbors
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="left the provided family"):
                build_hasse([t], "size")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6

    def test_one_large_tree_in_volume_mode(self):
        # as above in volume mode: the first chunk's block volumes are summed over its own
        # moves' edge rows, so the scan stops after that chunk, in about 2 s under tracemalloc
        # on a 2-core Xeon VM; the bound leaves room for a slower runner
        t = path_graph([1.0] * 4999)
        assert canonical_form(t) and t.neighbors
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="left the provided family"):
                build_hasse([t], "volume")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6
        assert time.perf_counter() - start < 10.0

    def test_mixed_multisets_rejected(self):
        with pytest.raises(GraphError):
            build_hasse([path_graph([1, 1]), path_graph([2, 1])], "size")

    def test_weighted_family_acyclic_order(self):
        trees = tree_family([3.0, 2.0, 1.0, 0.5])
        h = build_hasse(trees, "size")
        # alpha must strictly decrease along every cover
        for i, j in h.covers:
            assert stats(h.representatives[i])[0] > stats(h.representatives[j])[0]

    def test_weighted_family_extremes(self):
        # maximal elements are exactly the weighted paths; the star is the
        # unique minimal element, in both modes
        trees = tree_family([3.0, 2.0, 1.0, 0.5])
        path_indices = {i for i, t in enumerate(trees) if is_path_graph(t)}
        for mode, k in (("size", 0), ("volume", 1)):  # alpha, then kappa
            h = build_hasse(trees, mode)
            reordered = {i for i, t in enumerate(h.representatives) if is_path_graph(t)}
            assert set(h.maximal()) == reordered
            assert len(path_indices) == len(reordered)
            (bottom,) = h.minimal()
            assert is_star_graph(h.representatives[bottom])
            for i, j in h.covers:
                assert stats(h.representatives[i])[k] > stats(h.representatives[j])[k]

    def test_dot_output_deterministic(self):
        trees = enumerate_free_trees(5)
        a = hasse_to_dot(build_hasse(trees, "size"))
        b = hasse_to_dot(build_hasse(list(reversed(trees)), "size"))
        assert a == b
        assert a.startswith("digraph hasse {")
        assert a.count("->") == 2


# sha256 of hasse_to_dot(build_hasse(tree_family(W), mode)), frozen: whichever way
# build_hasse looks its move results up, the bytes must not move
WEIGHTED_HASSE_SHA256 = {
    ((3, 2, 1, 0.5), "size"): "140883ab3b629d0b89e7d2873fb279bd609c89461b2727d43d204942291ee5e9",
    ((3, 2, 1, 0.5), "volume"): "07decfba69c02e569175027082aea39e1b859da3f0fa52911ab68c112ca58483",
    ((2, 2, 1, 1), "size"): "c73ad8f4684944893c6e99d8c5de5e7b2b75475cb26dc6020145718330511c78",
    ((2, 2, 1, 1), "volume"): "d9e1872f15acd73b6fed6ce67d35845daa9bbb788010ec3ce4713bef5bb7fe0f",
    (ORACLE_FAMILIES["tie-12-digits"], "size"): "ef6eb3818caf3e03a20b34bcf31bcd9bd04dacfeee2624bb7f49a67536606756",
    (ORACLE_FAMILIES["tie-12-digits"], "volume"): "9a2cdcb579d4ad035a19cf1e2beae6b6f4f95e625f13ea82b541c939105d3ad6",
    (ORACLE_FAMILIES["spread"], "size"): "5d273fa3910cc8734e7c6bb3f580323137b666cbc1d32307555b3746ade14c20",
    (ORACLE_FAMILIES["spread"], "volume"): "271023d0ff23f8becb76c6baf3e4df6afec7e4314f877cae3d8db6c6cd17c0d3",
}


@pytest.mark.parametrize("weights, mode", list(WEIGHTED_HASSE_SHA256), ids=str)
def test_weighted_hasse_frozen(weights, mode):
    dot = hasse_to_dot(build_hasse(tree_family(weights), mode))
    assert hashlib.sha256(dot.encode()).hexdigest() == WEIGHTED_HASSE_SHA256[weights, mode]


class TestAgainstPerPairOracle:
    """The kernel's moves, result rows and keys against one search per pair and one graph per result."""

    FAMILIES = sorted(ORACLE_FAMILIES) + [f"free-{n}" for n in range(1, 10)]

    def test_tie_family_has_ties(self):
        ws = ORACLE_FAMILIES["tie-12-digits"]
        assert len(set(ws)) == 5
        assert len({format_weight(w) for w in ws}) == 3

    @pytest.mark.parametrize("mode", ["size", "volume"])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_legal_moves(self, name, mode):
        for t in oracle_family(name):
            got, want = legal_moves(t, mode), oracle.legal_moves(t, mode)
            # dataclass equality compares the positive float stats exactly
            assert got == want
            assert [(m.t1_stat.hex(), m.t2_stat.hex()) for m in got] == [
                (m.t1_stat.hex(), m.t2_stat.hex()) for m in want
            ]

    @pytest.mark.parametrize("mode", ["size", "volume"])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_build_hasse(self, name, mode):
        trees = oracle_family(name)
        got, want = build_hasse(trees, mode), oracle.build_hasse(trees, mode)
        assert got.nodes == want.nodes
        assert got.covers == want.covers
        assert got.representatives == want.representatives
        assert hasse_to_dot(got) == hasse_to_dot(want)

    @pytest.mark.parametrize("mode", ["size", "volume"])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_apply_move_and_moved_code(self, name, mode):
        # apply_move, and the batched result rows that build_hasse keys, against one graph per result
        trees = oracle_family(name)
        want = [oracle.apply_move(t, move) for t in trees for move in oracle.legal_moves(t, mode)]
        assert [apply_move(t, move) for t in trees for move in legal_moves(t, mode)] == want
        assert [graph for _, graph in moved_rows(trees, mode)] == want

    @pytest.mark.parametrize("mode", ["size", "volume"])
    @pytest.mark.parametrize("name", ["free-9", "tie-12-digits"])
    def test_one_move_per_chunk(self, monkeypatch, name, mode):
        # one move per chunk: each result is keyed in a batch of its own with the family
        trees = oracle_family(name)
        batches = []
        keys = transfers._keys
        monkeypatch.setattr(transfers, "_CHUNK", 1)
        monkeypatch.setattr(transfers, "_keys", lambda *args: batches.append(len(args[1])) or keys(*args))
        got, want = build_hasse(trees, mode), oracle.build_hasse(trees, mode)
        assert got.nodes == want.nodes
        assert got.covers == want.covers
        assert batches == [len(trees) + 1] * sum(len(legal_moves(t, mode)) for t in trees)

    @pytest.mark.parametrize("name", FAMILIES + ["free-10"])
    def test_keys_match_codes(self, name):
        # the batched keys of the family and of every move result in both modes partition them
        # exactly as the recursive reference codes do
        trees = oracle_family(name)
        codes = [recursive_canonical_form(t) for t in trees]
        assert codes == [canonical_form(t) for t in trees]
        results = [oracle.apply_move(t, m) for mode in ("size", "volume") for t in trees for m in oracle.legal_moves(t, mode)]
        result_codes = [recursive_canonical_form(g) for g in results]
        assert set(result_codes) <= set(codes)  # every result lands in the family
        batch = transfers._Trees([*trees, *results])
        keys = transfers._keys(batch.n, batch.u, batch.v, graphs._weight_classes(batch.w)).tolist()
        classes = set(zip(keys, codes + result_codes))
        assert len(classes) == len(set(keys)) == len(set(codes))

    def test_transfer_components(self):
        # the kernel's T1, T2, T3 and compared statistics of every ordered pair of adjacent
        # edges, in the order of legal_moves, against one search per pair
        for name in ("free-8", "spread"):
            trees = oracle_family(name)
            family = transfers._Trees(trees)
            seen = []
            for move in family.triples():
                blocks = family.blocks(*move)
                stats = {mode: family.stats(*move, mode) for mode in ("size", "volume")}
                for r, (i, v1, v2, v3) in enumerate(zip(*(x.tolist() for x in move))):
                    seen.append((i, v1, v2, v3))
                    got = tuple(frozenset(np.flatnonzero(blocks[r] == b).tolist()) for b in (1, 2, 3))
                    assert got == oracle.components(trees[i], v1, v2, v3)
                    for mode, (s1, s2) in stats.items():
                        want = oracle.component_stats(trees[i], v1, v2, v3, mode)
                        assert (s1[r].hex(), s2[r].hex()) == tuple(x.hex() for x in want)
            assert seen == [
                (i, v1, v2, v3)
                for i, t in enumerate(trees)
                for v2 in range(t.n)
                for v1, _ in t.neighbors[v2]
                for v3, _ in t.neighbors[v2]
                if v1 != v3
            ]

    def test_missing_move_edges_rejected(self):
        for v1, v2, v3 in ((0, 1, 0), (0, 2, 3), (0, 1, 3), (0, 1, 4), (-1, 0, 1)):
            with pytest.raises(GraphError, match="not present"):
                apply_move(P4, TransferMove(v1, v2, v3, "size", 3.0, 1.0))


def moved_rows(trees, mode):
    """(tree index, result graph) for every legal move, from the kernel's batched result rows."""
    family = transfers._Trees(trees)
    out = []
    for move, _, _ in family.legal(mode):
        u, v = family.moved(*move)
        for i, a, b in zip(move[0].tolist(), u.tolist(), v.tolist()):
            out.append((i, WeightedGraph(family.n, tuple(zip(a, b, family.w[i].tolist())))))
    return out


class TestCodedOnce:
    """Each tree gets its code once, counted at the one coder ``graphs._tree_code``, which codes
    single trees and the enumeration. ``build_hasse`` codes no tree: it keys each legal move's
    result once, in batches that start with the family's rows."""

    @pytest.fixture
    def coded(self, monkeypatch):
        calls = []
        tree_code = graphs._tree_code
        monkeypatch.setattr(graphs, "_tree_code", lambda *args: calls.append(graphs) or tree_code(*args))
        return calls

    @pytest.fixture
    def keyed(self, monkeypatch):
        batches = []
        keys = transfers._keys
        monkeypatch.setattr(transfers, "_keys", lambda n, u, v, label: batches.append((u, v)) or keys(n, u, v, label))
        return batches

    @staticmethod
    def edge_sets(u, v):
        return [sorted(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())) for u, v in zip(u, v)]

    @pytest.mark.parametrize("mode", ["size", "volume"])
    @pytest.mark.parametrize("weights", [(3, 2, 1, 0.5), (2, 2, 1, 1), (5.5, 3.25, 2.0, 1.75, 0.5)])
    def test_build_hasse_of_tree_family(self, coded, keyed, weights, mode):
        enumerate_free_trees(len(weights) + 1)
        shapes = len(coded)  # what the enumeration of the family's shapes codes
        coded.clear()
        family = tree_family(weights)
        assert coded == [graphs] * (shapes + len(family))
        coded.clear()
        build_hasse(family, mode)
        assert coded == []  # no family tree and no move result
        # each legal move's result keyed once, after the family's rows
        rows = [[(u, v) for u, v, _ in t.edges] for t in family]
        results = [sorted((u, v) for u, v, _ in oracle.apply_move(t, m).edges) for t in family for m in legal_moves(t, mode)]
        assert results and all(self.edge_sets(u[: len(family)], v[: len(family)]) == rows for u, v in keyed)
        assert [e for u, v in keyed for e in self.edge_sets(u[len(family):], v[len(family):])] == results

    def test_hasse_codes_only_the_enumeration(self, coded, keyed, capsys):
        trees = enumerate_free_trees(8)
        enumerated = len(coded)
        moves = sum(len(legal_moves(t, "size")) for t in trees)
        coded.clear()
        assert main(["hasse", "--n", "8"]) == 0
        # the enumeration, then each legal move's result keyed once through build_hasse
        assert coded == [graphs] * enumerated
        assert sum(len(u) - len(trees) for u, _ in keyed) == moves
        assert capsys.readouterr().out.startswith("digraph hasse {")

    def test_code_is_kept(self, coded):
        t = path_graph([2.0, 1.0, 3.0])
        assert canonical_form(t) is canonical_form(t)
        assert len(coded) == 1

    @pytest.mark.parametrize("g", [cycle_graph(4), WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))])
    def test_non_tree_still_refused(self, coded, g):
        for _ in range(2):  # a refusal is not kept as a code
            with pytest.raises(NotATreeError):
                canonical_form(g)
        assert not coded
