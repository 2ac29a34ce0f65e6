"""``parse_twg`` against the line-by-line reference, and union-find connectivity.

Both readers must agree on every input: accept or reject, the exception
class, its message and line, and for accepted text ``n``, ``edges`` and
``degrees`` bit for bit.
"""

import random

import pytest

import _twg_reference as reference
from _enumeration import components
from treewalk import graphs
from treewalk.errors import TwgParseError
from treewalk.graphs import WeightedGraph, parse_twg

# index spellings on which Python's int and numpy's reader could disagree ("Ǿ" numpy reads as a digit)
INDEX_SPELLINGS = ["+1", "1_000", "0x10", "1e0", "0.5", "-0", "00", "٣", "Ǿ", "1.0", "2**3"]
WEIGHT_SPELLINGS = [
    "inf", "-inf", "nan", "-nan", "0", "-0", "-1", "1_0", "0x10", "1e400", "1e-400", "Infinity",
    ".5", "5.", "+2", "١", "1,5", "1e", "0b1", "2.5f", "1j",
]
COUNT_SPELLINGS = ["+3", "3_0", "0", "-2", "x", "3 4", "٣", "3.0", "03"]
# Unicode and ASCII whitespace, some of it also a line break to str.splitlines
SPACES = [" ", "\t", "  ", " ", " ", "　", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", " "]


def outcome(parse, text):
    try:
        n, edges, degrees = parse(text)
    except Exception as exc:  # the class itself is compared
        return "error", type(exc), str(exc), getattr(exc, "line", None)
    assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in edges)
    return "ok", n, tuple((u, v, w.hex()) for u, v, w in edges), tuple(d.hex() for d in degrees)


def package(text):
    g = parse_twg(text)
    return g.n, g.edges, g.degrees


def assert_parity(text):
    want = outcome(reference.parse, text)
    assert outcome(package, text) == want
    return want


def weight_text(rng, w):
    return rng.choice([repr(w), f"{w:.3g}", f"{w:e}", f"+{w!r}", f"{w:.0f}" if w >= 1 else repr(w)])


def random_rows(rng, n, m):
    """m distinct vertex pairs of an n-vertex graph, in random order and orientation."""
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
    rows = []
    for u, v in pairs:
        if rng.random() < 0.5:
            u, v = v, u
        rows.append([str(u), str(v), weight_text(rng, 10.0 ** rng.uniform(-8, 8))])
    return rows


def render(rng, count, rows, noisy, spaces=SPACES):
    lines = [count] + [" ".join(r) for r in rows]
    if not noisy:
        return "\n".join(lines) + "\n"
    out = []
    for line in lines:
        while rng.random() < 0.2:
            out.append(rng.choice(["", "# comment", "   ", "\t# indented comment", "#"]))
        sep = rng.choice(spaces[:3]) if rng.random() < 0.8 else rng.choice(spaces)
        out.append(rng.choice(["", " ", "\t"]) + line.replace(" ", sep) + rng.choice(["", " ", "\t"]))
    return rng.choice(["\n", "\r\n", "\r"]).join(out) + rng.choice(["", "\n", "\r\n"])


def mutate(rng, rows, n):
    """One corruption of an edge row list, in place."""
    row = rng.choice(rows) if rows else None
    if row is None or len(row) != 3:  # no edge rows, or an earlier mutation changed the shape
        rows.append(["0", "0", "1"])
        return
    kind = rng.randrange(8)
    if kind == 0:
        row[rng.randrange(2)] = rng.choice(INDEX_SPELLINGS + [str(n), str(-1), str(10**20)])
    elif kind == 1:
        row[2] = rng.choice(WEIGHT_SPELLINGS)
    elif kind == 2:
        row.pop(rng.randrange(3))
    elif kind == 3:
        row.append(rng.choice(["# c", "1", "x"]))
    elif kind == 4:
        rows.insert(rng.randrange(len(rows) + 1), [row[1], row[0], row[2]])
    elif kind == 5:
        row[1] = row[0]
    elif kind == 6:
        rows.insert(rng.randrange(len(rows) + 1), [str(n)])
    else:
        row[rng.randrange(3)] = rng.choice(["", "#", "x", "0 1"])


class TestNamedCases:
    @pytest.mark.parametrize("token", INDEX_SPELLINGS)
    def test_vertex_index_spellings(self, token):
        assert_parity(f"3000\n0 1 1\n{token} 2 1.5\n1 2 2\n")
        assert_parity(f"3000\n0 1 1\n2 {token} 1.5\n")

    @pytest.mark.parametrize("token", WEIGHT_SPELLINGS)
    def test_weight_spellings(self, token):
        assert_parity(f"3\n0 1 1\n1 2 {token}\n")

    @pytest.mark.parametrize("token", COUNT_SPELLINGS)
    def test_vertex_count_spellings(self, token):
        assert_parity(f"# header\n{token}\n0 1 1\n1 2 1\n")

    @pytest.mark.parametrize("sep", SPACES)
    def test_whitespace(self, sep):
        assert_parity(f"{sep}3{sep}\n0{sep}1{sep}2\n1 2{sep}0.5{sep}\n")

    def test_trailing_comment_is_an_error(self):
        want = assert_parity("3\n0 1 2 # c\n1 2 1\n")
        assert want[0] == "error" and want[3] == 2

    def test_accepted_only_by_python(self):
        assert assert_parity("1_0\n0 1 1_0\n+1 9 0.5\n")[0] == "ok"

    @pytest.mark.parametrize(
        "text", ["1\n", "# c\n1\n# d\n", "1\n\n\n", "", "# only a comment\n", "\n \n\t\n", "0\n", "1\n0 0 1\n"]
    )
    def test_small_inputs(self, text):
        assert_parity(text)

    def test_crlf_and_interleaved_comments(self):
        assert_parity("\r\n# a\r\n3\r\n\r\n# b\r\n0 1 1\r\n  # c\r\n1 2 2\r\n")


class TestLargeFiles:
    N = 300
    M = 20_000

    @pytest.fixture(scope="class")
    def rows(self):
        return random_rows(random.Random(20_000), self.N, self.M)

    def test_valid(self, rows):
        assert assert_parity(render(random.Random(1), str(self.N), rows, False))[0] == "ok"

    def test_valid_noisy(self, rows):
        text = render(random.Random(2), str(self.N), rows, True, [" ", "\t", "  ", "\x1f"])
        assert assert_parity(text)[0] == "ok"

    def test_reversed_duplicate_on_last_line(self, rows):
        u, v, _ = rows[0]
        text = render(random.Random(3), str(self.N), rows + [[v, u, "1.5"]], False)
        want = assert_parity(text)
        assert want[0] == "error" and want[3] == self.M + 2
        assert want[2].endswith(f"duplicate edge ({min(int(u), int(v))}, {max(int(u), int(v))})")

    def test_broken_rule_reads_each_edge_once(self, rows, monkeypatch):
        # the array check only detects the broken rule; the line reader alone runs the edge rules
        calls = []
        checked_edge = graphs._checked_edge
        monkeypatch.setattr(graphs, "_checked_edge", lambda *a: calls.append(a) or checked_edge(*a))
        u, v, _ = rows[0]
        with pytest.raises(TwgParseError, match=f"line {self.M + 2}: duplicate edge"):
            parse_twg(render(random.Random(3), str(self.N), rows + [[v, u, "1.5"]], False))
        assert len(calls) == self.M + 1

    def test_out_of_range_on_first_line(self, rows):
        bad = [[str(self.N), "0", "1"]] + rows[1:] + [[rows[0][1], rows[0][0], "2"]]
        want = assert_parity(render(random.Random(4), str(self.N), bad, False))
        assert want[0] == "error" and want[3] == 2

    def test_python_only_spelling_deep_inside(self, rows):
        patched = [list(r) for r in rows]
        patched[self.M // 2][2] = "1_5"
        assert assert_parity(render(random.Random(5), str(self.N), patched, False))[0] == "ok"


@pytest.mark.parametrize("seed", range(40))
def test_seeded_fuzz(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 12)
        rows = random_rows(rng, n, rng.randint(0, n * (n - 1) // 2))
        count = str(n)
        for _ in range(rng.choice([0, 0, 1, 2])):
            mutate(rng, rows, n)
        if rng.random() < 0.05:
            count = rng.choice(COUNT_SPELLINGS)
        assert_parity(render(rng, count, rows, rng.random() < 0.5))


def test_union_find_matches_components():
    rng = random.Random(1975)
    graphs = [WeightedGraph(1, ())]
    for _ in range(600):
        n = rng.randint(1, 25)
        p = rng.choice([0.0, 0.05, 0.1, 0.2, 0.35, 0.6, 1.0])
        isolated = rng.randrange(n) if rng.random() < 0.3 else -1
        edges = tuple(
            (u, v, 1.0)
            for u in range(n)
            for v in range(u + 1, n)
            if isolated not in (u, v) and rng.random() < p
        )
        graphs.append(WeightedGraph(n, edges))
    connected = [g.is_connected() for g in graphs]
    assert connected == [len(components(g)) == 1 for g in graphs]
    assert 100 < sum(connected) < len(graphs) - 100  # both answers are well represented
