import math
import random
import tracemalloc
from itertools import permutations

import pytest

import _transfer_oracle as oracle
from _enumeration import (
    FREE_TREE_COUNTS,
    enumerate_labeled_trees,
    peeled_centres,
    prufer_tree,
    random_weighted_tree,
    recursive_canonical_form,
    remove_edges_partition,
)
from treewalk import graphs
from treewalk.errors import ConsistencyError, GraphError, NotATreeError, TwgParseError
from treewalk.extremal import tree_family
from treewalk.graphs import (
    FREE_TREE_MAX,
    WeightedGraph,
    _free_tree_classes,
    _height_is_diameter,
    _peel,
    _tree_code,
    canonical_form,
    complete_graph,
    cycle_graph,
    enumerate_free_trees,
    format_twg,
    parse_twg,
    path_graph,
    rooted_order,
    star_graph,
    tree_centers,
)


def weight_isomorphic_bruteforce(a: WeightedGraph, b: WeightedGraph) -> bool:
    """Independent oracle: try every vertex bijection."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    b_index = {(u, v): w for u, v, w in b.edges}
    for perm in permutations(range(a.n)):
        ok = True
        for u, v, w in a.edges:
            x, y = perm[u], perm[v]
            key = (x, y) if x < y else (y, x)
            if b_index.get(key) != w:
                ok = False
                break
        if ok:
            return True
    return False


class TestParse:
    def test_unit_path(self):
        g = parse_twg("3\n0 1 1\n1 2 1\n")
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_weighted_path_readback(self):
        g = parse_twg("3\n0 1 2\n1 2 1\n")
        assert g.weight(0, 1) == 2.0
        assert g.weight(1, 2) == 1.0

    def test_comments_and_blanks(self):
        g = parse_twg("# header\n\n2\n# edge\n0 1 0.5\n")
        assert g.edges == ((0, 1, 0.5),)

    PARSE_ERRORS = [
        ("2\n0 0 1\n", 2, "loop at vertex 0"),
        ("2\n0 1 1\n1 0 2\n", 3, "duplicate edge (0, 1)"),
        ("2\n0 1 -1\n", 2, "edge (0, 1) weight must be positive and finite, got -1.0"),
        ("2\n0 1 0\n", 2, "edge (0, 1) weight must be positive and finite, got 0.0"),
        ("2\n0 2 1\n", 2, "edge (0, 2) out of range for n=2"),
        ("2\n0 1\n", 2, "expected 'u v w', got '0 1'"),
        ("x\n", 1, "invalid vertex count 'x'"),
        ("", 1, "empty input, expected vertex count"),
        # the edge rules run after the last line, yet the earlier line is reported
        ("3\n0 0 1\n0 1\n", 2, "loop at vertex 0"),
    ]

    @pytest.mark.parametrize(
        "text,line,message",
        PARSE_ERRORS,
        ids=[f"{text}-{line}" for text, line, _ in PARSE_ERRORS],
    )
    def test_errors_carry_line_numbers(self, text, line, message):
        with pytest.raises(TwgParseError) as err:
            parse_twg(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_roundtrip(self):
        g = path_graph([2.0, 1.0, 0.125])
        assert parse_twg(format_twg(g)) == g


class TestBasics:
    def test_star_center_degree(self):
        assert star_graph([1, 1, 1]).degree(0) == 3.0

    def test_weighted_degree(self):
        assert path_graph([2, 1]).degree(1) == 3.0

    def test_isolated_vertex_degree(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        assert g.degree(2) == 0.0

    def test_volume_whole_graph_is_twice_total_weight(self):
        g = random_weighted_tree(random.Random(1), 8)
        total = sum(w for _, _, w in g.edges)
        assert g.volume(range(g.n)) == pytest.approx(2 * total, rel=1e-12)

    def test_volume_subset_uses_ambient_degrees(self):
        g = path_graph([2, 1])
        assert g.volume({1, 2}) == 4.0
        assert g.volume({2}) == 1.0

    def test_handshake_over_random_graphs(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            assert sum(g.degrees) == pytest.approx(
                2 * sum(w for _, _, w in g.edges), rel=1e-12
            )

    def test_construction_rejects_bad_edges(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, ((0, 0, 1.0),))
        with pytest.raises(GraphError):
            WeightedGraph(2, ((0, 1, 1.0), (1, 0, 1.0)))
        with pytest.raises(GraphError):
            WeightedGraph(2, ((0, 1, -2.0),))
        with pytest.raises(GraphError):
            WeightedGraph(2, ((0, 3, 1.0),))
        with pytest.raises(GraphError, match="finite"):
            WeightedGraph(2, ((0, 1, math.inf),))

    def test_construction_rejects_non_integer_vertices(self):
        with pytest.raises(GraphError, match="integers"):
            WeightedGraph(2, ((0.5, 1, 1.0),))


class TestPartitions:
    def test_single_cut(self):
        p4 = path_graph([1, 1, 1])
        assert remove_edges_partition(p4, [(1, 2)]) == (
            frozenset({0, 1}),
            frozenset({2, 3}),
        )

    def test_double_cut(self):
        p4 = path_graph([1, 1, 1])
        blocks = remove_edges_partition(p4, [(0, 1), (1, 2)])
        assert blocks == (frozenset({0}), frozenset({1}), frozenset({2, 3}))

    def test_star_spoke_cut(self):
        s = star_graph([1, 1, 1])
        blocks = remove_edges_partition(s, [(0, 2)])
        assert frozenset({2}) in blocks
        assert frozenset({0, 1, 3}) in blocks

    def test_block_count_matches_cut_count(self):
        rng = random.Random(3)
        for _ in range(20):
            t = random_weighted_tree(rng, rng.randint(3, 10))
            pairs = [(u, v) for u, v, _ in t.edges]
            k = rng.randint(1, len(pairs))
            chosen = rng.sample(pairs, k)
            assert len(remove_edges_partition(t, chosen)) == k + 1

    def test_rejects_non_tree(self):
        with pytest.raises(NotATreeError):
            remove_edges_partition(cycle_graph(4), [(0, 1)])


class TestRootedOrder:
    def test_weighted_path(self):
        # edges 0-1 (2.0), 1-2 (1.0), 2-3 (3.0); BFS from vertex 0
        assert rooted_order(path_graph([2, 1, 3])) == ([0, 1, 2, 3], [-1, 0, 1, 2])

    def test_parents_precede_children(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_weighted_tree(rng, rng.randint(1, 12))
            order, parent = rooted_order(t)
            assert sorted(order) == list(range(t.n))
            position = {x: i for i, x in enumerate(order)}
            for x in order[1:]:
                assert position[parent[x]] < position[x]
                assert t.has_edge(x, parent[x])


class TestCanonicalForm:
    def test_path_reversal_is_isomorphic(self):
        assert canonical_form(path_graph([3, 1, 2])) == canonical_form(path_graph([2, 1, 3]))

    def test_distinct_weight_orders_differ(self):
        a, b = path_graph([3, 1, 2]), path_graph([3, 2, 1])
        assert not weight_isomorphic_bruteforce(a, b)
        assert canonical_form(a) != canonical_form(b)

    def test_unit_stars_agree(self):
        s1 = star_graph([1, 1, 1, 1])
        s2 = s1.relabeled([4, 0, 1, 2, 3])
        assert canonical_form(s1) == canonical_form(s2)

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            t = random_weighted_tree(rng, rng.randint(2, 9))
            mapping = list(range(t.n))
            rng.shuffle(mapping)
            assert canonical_form(t) == canonical_form(t.relabeled(mapping))

    def test_agrees_with_bruteforce_oracle(self):
        rng = random.Random(13)
        trees = [random_weighted_tree(rng, 6, low=1, high=3) for _ in range(12)]
        # quantize weights so collisions actually occur
        trees = [
            WeightedGraph(t.n, tuple((u, v, round(w)) for u, v, w in t.edges)) for t in trees
        ]
        for a in trees:
            for b in trees:
                assert (canonical_form(a) == canonical_form(b)) == weight_isomorphic_bruteforce(a, b)

    def test_centers_of_paths(self):
        assert tree_centers(path_graph([1, 1])) == (1,)
        assert tree_centers(path_graph([1, 1, 1])) == (1, 2)

    def test_matches_recursive_coder(self):
        trees = [t for n in range(1, FREE_TREE_MAX + 1) for t in enumerate_free_trees(n)]
        rng = random.Random(17)
        for i in range(2000):
            t = random_weighted_tree(rng, rng.randint(1, 40))
            if i % 2:  # few distinct weights, so equal subtrees and ties in the sort occur
                t = WeightedGraph(t.n, tuple((u, v, float(round(w) % 3 + 1)) for u, v, w in t.edges))
            trees.append(t)
        trees += tree_family([2, 2, 1, 1, 0.5])
        for t in trees:
            assert canonical_form(t) == recursive_canonical_form(t)

    def test_deep_path(self):
        code = canonical_form(path_graph([1.0] * 4999))
        assert code.count("(") == 5000

    def test_code_builder_refuses_a_cycle(self):
        # a 4-cycle with a pendant vertex: peeling takes the pendant, then finds no leaf
        g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (3, 4, 1.0)))
        with pytest.raises(ConsistencyError, match="peeling stalled"):
            _tree_code(g.n, g.neighbors)
        with pytest.raises(NotATreeError):
            canonical_form(g)

    @pytest.mark.parametrize(
        "n,edges",
        [
            (5, ((0, 1), (2, 3), (3, 4))),  # P2 + P3: the P2's leaves peel in one layer
            (6, ((0, 1), (1, 2), (3, 4), (4, 5))),  # P3 + P3: two centres, not adjacent
            (3, ((0, 1),)),  # P2 + an isolated vertex: the same, and no centre left
            (2, ()),
            (5, ((0, 1), (0, 2), (0, 3))),  # a star + an isolated vertex: the vertex missed
        ],
    )
    def test_code_builder_refuses_a_forest(self, n, edges):
        g = WeightedGraph(n, tuple((u, v, 1.0) for u, v in edges))
        with pytest.raises(ConsistencyError, match="not a tree"):
            _tree_code(g.n, g.neighbors)
        with pytest.raises(NotATreeError):
            canonical_form(g)


class TestTreeKey:
    """Codes made by ``_tree_code`` from neighbour lists, the one tree coder, against the
    recursive reference, on relabelled copies, few distinct weights, ties and a deep path."""

    @staticmethod
    def codes(trees, recursive=True):
        codes = [_tree_code(t.n, t.neighbors) for t in trees]
        assert codes == [canonical_form(t) for t in trees]
        if recursive:
            assert codes == [recursive_canonical_form(t) for t in trees]
        return codes

    @staticmethod
    def shuffled(rng, t):
        mapping = list(range(t.n))
        rng.shuffle(mapping)
        return t.relabeled(mapping)

    def test_free_trees(self):
        rng = random.Random(23)
        trees = [t for n in range(1, FREE_TREE_MAX + 1) for t in enumerate_free_trees(n)]
        codes = self.codes(trees + [self.shuffled(rng, t) for t in trees])
        assert codes[: len(trees)] == codes[len(trees) :]
        assert len(set(codes)) == len(trees)

    def test_random_weighted_trees(self):
        rng = random.Random(29)
        trees = []
        for _ in range(300):  # few distinct weights, so equal subtrees and ties in the sort occur
            t = random_weighted_tree(rng, rng.randint(1, 12))
            t = WeightedGraph(t.n, tuple((u, v, float(round(w) % 3 + 1)) for u, v, w in t.edges))
            trees += [t, self.shuffled(rng, t)]
        codes = self.codes(trees)
        assert codes[0::2] == codes[1::2]

    def test_twelve_digit_ties(self):
        # 1 + 1e-13 and 1 + 1e-12 print as 1 at 12 significant digits; 1 + 1e-11 does not
        ws = (1.0, 1.0000000000001, 1.000000000001, 1.00000000001)
        trees = [g(w) for g in (lambda w: path_graph([w, 2.0, 3.0]), lambda w: star_graph([w, 2.0])) for w in ws]
        codes = self.codes(trees)
        assert codes[0] == codes[1] == codes[2] != codes[3] and codes[4] == codes[5] == codes[6] != codes[7]
        assert ["(1|)" in c for c in codes] == [True, True, True, False] * 2
        assert ["(1.00000000001|)" in c for c in codes] == [False, False, False, True] * 2

    def test_deep_path(self):
        # 5,000 vertices in one chain of layers: no recursion, no nested values
        rng = random.Random(31)
        path = path_graph([1.0] * 4999)
        heavy_end = path_graph([1.0] * 4998 + [2.0])
        codes = self.codes([path, self.shuffled(rng, path), heavy_end, self.shuffled(rng, heavy_end)], recursive=False)
        assert codes[0] == codes[1] != codes[2] == codes[3]
        assert codes[0].count("(") == 5000

    def test_one_tree_keeps_linear_text(self):
        # the 20,000-vertex path keeps about 3 MB alive; a coder that kept the text of every
        # subtree would keep about 204 MB
        t = path_graph([1.0] * 19999)
        neighbors = t.neighbors
        tracemalloc.start()
        try:
            code = _tree_code(t.n, neighbors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code.count("(") == 20000
        assert peak < 20e6


class TestPeel:
    """The leaf layers that both tree coders walk, against peeling on a degree count alone."""

    @staticmethod
    def trees():
        rng = random.Random(29)
        for n in range(1, 61):
            yield random_weighted_tree(rng, n)
            yield path_graph([rng.uniform(0.5, 2.0) for _ in range(n - 1)])
            yield star_graph([1.0] * (n - 1))

    def test_layers_parents_and_centres(self):
        for t in self.trees():
            layers, parent, above = _peel(t.n, t.neighbors)
            layer_of = {x: i for i, layer in enumerate(layers) for x in layer}
            assert sorted(layer_of) == list(range(t.n))
            assert sum(map(len, layers)) == t.n
            centres = layers[-1]
            assert sorted(centres) == peeled_centres(t.n, t.neighbors) == list(tree_centers(t))
            for x in range(t.n):
                if x in centres:
                    continue
                assert t.has_edge(x, parent[x]) and above[x] == t.weight(x, parent[x])
                assert layer_of[parent[x]] > layer_of[x]
            if len(centres) == 2:
                a, b = centres
                assert (parent[a], parent[b]) == (b, a) and above[a] == above[b] == t.weight(a, b)
            else:
                assert (parent[centres[0]], above[centres[0]]) == (-1, None)

    def test_deep_path_layers(self):
        layers, _, _ = _peel(5000, path_graph([1.0] * 4999).neighbors)
        assert len(layers) == 2500 and layers[-1] == [2499, 2500]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
    def test_labeled_counts(self, n, count):
        assert sum(1 for _ in enumerate_labeled_trees(n)) == count

    def test_labeled_count_n8(self):
        assert sum(1 for _ in enumerate_labeled_trees(8)) == 8**6

    def test_labeled_guard(self):
        with pytest.raises(GraphError):
            list(enumerate_labeled_trees(10))

    def test_labeled_trees_are_distinct_trees(self):
        seen = set()
        for t in enumerate_labeled_trees(5):
            assert t.is_tree()
            seen.add(t.edges)
        assert len(seen) == 125

    def test_free_tree_counts(self):
        for n in range(1, 11):
            assert len(enumerate_free_trees(n)) == FREE_TREE_COUNTS[n - 1]

    def test_free_trees_pairwise_non_isomorphic(self):
        for n in (6, 7):
            codes = [canonical_form(t) for t in enumerate_free_trees(n)]
            assert len(set(codes)) == len(codes)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_free_trees_match_prufer_dedup(self, n):
        via_prufer = {canonical_form(t) for t in enumerate_labeled_trees(n)}
        via_successor = {canonical_form(t) for t in enumerate_free_trees(n)}
        assert via_prufer == via_successor

    def test_free_trees_match_prufer_dedup_n8(self):
        via_prufer = {canonical_form(t) for t in enumerate_labeled_trees(8)}
        assert via_prufer == {canonical_form(t) for t in enumerate_free_trees(8)}

    @pytest.mark.parametrize("n", range(1, FREE_TREE_MAX + 1))
    def test_free_trees_match_graph_per_sequence_dedup(self, n):
        assert enumerate_free_trees(n) == oracle.free_trees(n)

    @pytest.mark.parametrize(
        "parents, expected",
        [
            ([-1], True),  # one vertex
            ([-1, 0, 1, 2, 3], True),  # path rooted at an end
            ([-1, 0, 1, 0, 3], False),  # path rooted at its middle
            ([-1, 0, 1, 1, 1], True),  # star rooted at a leaf
            ([-1, 0, 0, 0, 0], False),  # star rooted at its centre
            ([-1, 0, 1, 2, 3, 2], True),  # spider with legs 2, 2, 1 from the end of a long leg
            ([-1, 0, 1, 2, 1, 4], False),  # ... from the end of its short leg
            ([-1, 0, 1, 0, 3, 0], False),  # ... from its centre
        ],
    )
    def test_height_is_diameter(self, parents, expected):
        assert _height_is_diameter(parents) is expected

    @pytest.mark.parametrize("n", range(1, FREE_TREE_MAX + 1))
    def test_class_codes_are_canonical_and_increasing(self, n):
        classes = _free_tree_classes(n)
        codes = [c for c, _ in classes]
        assert codes == [canonical_form(t) for _, t in classes]
        assert all(a < b for a, b in zip(codes, codes[1:]))

    @pytest.mark.parametrize("n, coded", [(8, 37), (10, 195)])
    def test_codes_only_peripheral_roots(self, n, coded, monkeypatch):
        calls = []
        tree_code = graphs._tree_code
        monkeypatch.setattr(graphs, "_tree_code", lambda *args: calls.append(1) or tree_code(*args))
        assert len(enumerate_free_trees(n)) == FREE_TREE_COUNTS[n - 1]
        assert len(calls) <= coded

    @pytest.mark.parametrize("n", [0, -1, FREE_TREE_MAX + 1])
    def test_class_guard(self, n):
        with pytest.raises(GraphError, match=r"^free-tree enumeration supports 1 <= n <= 10$"):
            _free_tree_classes(n)

    def test_prufer_decode_example(self):
        t = prufer_tree((3, 3, 3, 4), 6)
        assert t.is_tree()
        assert t.degree(3) == 4.0

    def test_simple_tree_volume(self):
        for t in enumerate_free_trees(6):
            assert t.vol == 2 * (t.n - 1)


class TestBuilders:
    def test_cycle(self):
        c = cycle_graph(4)
        assert c.degree_sequence() == (2, 2, 2, 2)

    def test_complete(self):
        k = complete_graph(4)
        assert len(k.edges) == 6
