"""The CLI's JSON writer against json.dumps(x, indent=2, sort_keys=True), byte for byte."""

import hashlib
import json
import math
import random
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import _conjecture_oracle
import _family_oracle as oracle
from treewalk import cli
from treewalk.cli import _json_text, main
from treewalk.extremal import best_path_assignment
from treewalk.graphs import sig12
from treewalk.homorder import connected_graph_corpus
from treewalk.walks import hitting_matrix


def _stdlib(x):
    return json.dumps(x, indent=2, sort_keys=True)


def _outcome(write, x):
    """What a writer gives for x: its text, or the type and message of its error."""
    try:
        return write(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


TREE5 = "5\n0 1 2\n1 2 0.5\n1 3 3\n3 4 1.25\n"
GRAPH4 = "4\n0 1 1\n1 2 2.5\n2 3 0.5\n3 0 4\n0 2 1.5\n"
PATH_WEIGHTS = "9.5,7.25,5,4.125,3,2.5,1"
# repeated weights, a tie at 12 significant digits (1 and 1 + 1e-13 print
# alike but are two weights) and a spread of twelve orders of magnitude
PATH_MULTISETS = ["9.5,3.25,3.25,2,1.5,0.7,0.2", "2,2", "1,1.0000000000001,2,3", "1e-6,1e-3,1,1e3,1e6"]

REPORTS = [
    ["compute", "--input", "{tree}"],
    ["compute", "--input", "{tree}", "--hitting"],
    ["compute", "--input", "{graph}", "--hitting"],
    ["verify-extremal", "--weights", "7,5,4,2,2,1", "--stat", "alpha"],
    ["verify-extremal", "--weights", "7,5,4,2,2,1", "--stat", "kappa"],
    *(["search-path", "--weights", ",".join(PATH_WEIGHTS.split(",")[:m])] for m in range(1, 8)),
    *(["search-path", "--weights", w] for w in PATH_MULTISETS),
    ["conjecture", "--n", "8", "--corpus-max", "3"],
    ["conjecture", "--n", "8", "--corpus-max", "6"],
    ["simulate", "--input", "{tree}", "--from", "0", "--to", "4", "--trials", "2000", "--seed", "3"],
]


def _capture_emit(monkeypatch):
    """The payloads that ``_emit`` writes from now on, with every wall time 0.0."""
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, payload, lines: payloads.append(payload) or emit(args, payload, lines))
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    return payloads


def _hitting_payload(argv, capsys, payloads):
    """The ``compute --hitting --json`` payload as it was built before the
    matrix was written a row at a time: the payload of the same command
    without ``--hitting``, plus the matrix as nested lists."""
    assert main([a for a in argv if a != "--hitting"] + ["--json"]) == 0
    capsys.readouterr()
    (payload,) = payloads
    g, _ = cli._read_graph(argv[argv.index("--input") + 1])
    return {**payload, "hitting": [[sig12(x) for x in row] for row in hitting_matrix(g).tolist()]}


@pytest.mark.parametrize("argv", REPORTS, ids=" ".join)
def test_every_report(argv, tmp_path, capsys, monkeypatch):
    tree, graph = tmp_path / "tree.twg", tmp_path / "graph.twg"
    tree.write_text(TREE5)
    graph.write_text(GRAPH4)
    payloads = _capture_emit(monkeypatch)
    argv = [a.format(tree=tree, graph=graph) for a in argv]
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    # search-path, conjecture and compute --hitting write their reports from
    # arrays, with no payload: the payload is the one the oracles build
    if argv[0] == "search-path":
        assert payloads == []
        payloads.append(oracle.path_payload(best_path_assignment(cli._parse_weights(argv[2]))))
    elif argv[0] == "conjecture":
        assert payloads == []
        payloads.append(_conjecture_oracle.payload(int(argv[2]), connected_graph_corpus(2, int(argv[4]))))
    elif "--hitting" in argv:
        assert payloads == []
        payloads[:] = [_hitting_payload(argv, capsys, payloads)]
    (payload,) = payloads
    assert _json_text(payload) == _stdlib(payload)
    assert out == _stdlib(payload) + "\n"


@pytest.mark.parametrize("corpus_max", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", range(1, 9))
def test_conjecture_report(n, corpus_max, capsys):
    corpus = connected_graph_corpus(2, corpus_max)
    assert main(["conjecture", "--n", str(n), "--corpus-max", str(corpus_max), "--json"]) == 0
    assert capsys.readouterr().out == _conjecture_oracle.json_report(n, corpus)
    assert main(["conjecture", "--n", str(n), "--corpus-max", str(corpus_max)]) == 0
    assert capsys.readouterr().out == _conjecture_oracle.text_report(n, corpus)


@pytest.mark.parametrize("n", range(1, 9))
def test_conjecture_report_on_empty_corpus(n, capsys, monkeypatch):
    # every pair is equal-on-corpus, with a null witness
    monkeypatch.setattr(cli, "connected_graph_corpus", lambda min_n, max_n: [])
    assert main(["conjecture", "--n", str(n), "--json"]) == 0
    assert capsys.readouterr().out == _conjecture_oracle.json_report(n, [])
    assert main(["conjecture", "--n", str(n)]) == 0
    assert capsys.readouterr().out == _conjecture_oracle.text_report(n, [])


def _graph_with_cycles(n, extra, seed):
    """A seeded connected TWG text: a random tree plus ``extra`` more edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return f"{n}\n" + "".join(f"{u} {v} {rng.uniform(0.1, 10)!r}\n" for u, v in sorted(edges))


@pytest.mark.parametrize("method", ["exact", "forest", "all"])
@pytest.mark.parametrize("text", ["1\n", "2\n0 1 2.5\n", _graph_with_cycles(40, 25, 20261020)], ids=["n1", "n2", "n40"])
def test_hitting_report(text, method, tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.twg"
    path.write_text(text)
    payloads = _capture_emit(monkeypatch)
    argv = ["compute", "--method", method, "--hitting", "--input", str(path)]
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert payloads == []
    assert out == _stdlib(_hitting_payload(argv, capsys, payloads)) + "\n"


@pytest.mark.parametrize("block", [1, 2, 59, 60, 61])
def test_path_report_blocks(block, capsys, monkeypatch):
    # 60 orders, written in blocks that split them every way
    monkeypatch.setattr(cli, "_PATH_BLOCK_ROWS", block)
    assert main(["search-path", "--weights", "10,8,1,1,0.1", "--json"]) == 0
    payload = oracle.path_payload(best_path_assignment([10, 8, 1, 1, 0.1]))
    assert capsys.readouterr().out == _stdlib(payload) + "\n"


class _HashSink:
    """A stdout that keeps only the sha256 and length of what is written."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.chars = 0

    def write(self, text):
        self.sha.update(text.encode())
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_path_report_memory(monkeypatch):
    # 40,320 orders of 8 distinct weights: an 8 MB report. Building it as one
    # dict per order and one string took a 47 MB tracemalloc peak; the arrays
    # and tree_stats' columns take about 10 MB, and the writer about 2.4 MB
    weights = "9.5,7.25,5,4.125,3,2.5,1,0.75"
    sink, writer_sink = _HashSink(), _HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["search-path", "--weights", weights, "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
        result = best_path_assignment(cli._parse_weights(weights))
        monkeypatch.setattr(sys, "stdout", writer_sink)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        cli._write_path_report(result)
        writer_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert sink.chars == writer_sink.chars > 8_000_000
    assert peak < 20 * 2**20, peak
    assert writer_peak < 5 * 2**20, writer_peak  # below the report's 8 MB: one block at a time
    # the evaluations are still made on request, as tuples of the weights' own floats
    evaluations = result.evaluations
    assert len(evaluations) == 40320 and result.evaluations is evaluations
    own = set(map(id, result.values))
    assert all(type(o) is tuple and all(id(w) in own for w in o) for o, _, _ in evaluations)
    assert all(type(j) is float and type(k) is float for _, j, k in evaluations)
    assert [(j, k) for _, j, k in evaluations] == list(zip(result.objectives.tolist(), result.kappas.tolist()))
    text = (_stdlib(oracle.path_payload(result)) + "\n").encode()
    assert sink.sha.hexdigest() == writer_sink.sha.hexdigest() == hashlib.sha256(text).hexdigest()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1]
INTS = [0, -1, 7, 2**63, 2**64 + 1, -(2**70), 10**30]
STRINGS = [
    "", "plain", 'say "hi"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "café ∑ 日本",
    "lone \ud800 surrogate", "trail \udfff", "emoji \U0001F600", "</script>",
]
ODD_KEYS = [
    [1, -3, 2**65],  # ints: json.dumps writes them as strings
    [0.5, -1.5, math.inf, math.nan],
    [True, False],
    [None, True],  # unsortable: both raise the same TypeError
    ["a", 1],
]


def _scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(SPECIAL_FLOATS)
    if kind == 1:
        return rng.choice((1, -1)) * 10 ** rng.uniform(-300, 300)
    if kind == 2:
        return rng.choice(INTS)
    if kind == 3:
        return rng.choice(STRINGS)
    if kind == 4:
        return rng.choice((True, False, None))
    if kind == 5:
        return np.float64(rng.choice((2.5, -0.0, 1e-310, math.nan)))
    return rng.choice(({1, 2}, b"bytes", np.int64(3), 1j))  # json.dumps refuses these


def _value(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _scalar(rng)
    size = rng.choice((0, 0, 1, 2, 5))  # empty containers at every depth
    kind = rng.randrange(6)
    if kind == 0:
        return [_value(rng, depth - 1) for _ in range(size)]
    if kind == 1:
        return tuple(_value(rng, depth - 1) for _ in range(size))
    if kind == 2:  # a flat list of floats, sometimes with one odd item
        floats = [rng.choice((1, -1)) * 10 ** rng.uniform(-20, 20) for _ in range(size)]
        if floats and rng.random() < 0.6:
            odd = (True, False, 3, 2**64, np.float64(0.25), *SPECIAL_FLOATS)
            floats[rng.randrange(size)] = rng.choice(odd)
        return floats
    if kind == 3:
        return {f"{rng.choice(STRINGS)}{i}": _value(rng, depth - 1) for i in range(size)}
    if kind == 4:
        return {k: _value(rng, depth - 1) for k in rng.choice(ODD_KEYS)}
    return {"k": _value(rng, depth - 1), "j": [_value(rng, depth - 1)]}


def test_seeded_fuzz():
    rng = random.Random(20261019)
    refused = 0
    for trial in range(3000):
        x = _value(rng, rng.randint(0, 5))
        expected = _outcome(_stdlib, x)
        assert _outcome(_json_text, x) == expected, (trial, x)
        refused += isinstance(expected, tuple)
    assert 100 < refused < 2900


@pytest.mark.parametrize(
    "x",
    [
        {}, [], (), [[]], {"a": {}}, [(), {}], 5e-324, -0.0, math.nan, 2**64 + 1, "\ud800",
        [True, 1.5, False], [1.0, math.nan, 2.0], [np.float64(1.5), 2.0], (0.1, -math.inf),
        {"b": [1.0, 2.0], "a": (3, "x"), "c": {"z": None, "y": -0.0}},
        {1: "one", 2: [1.5]}, {True: 1, False: [2.0]}, {"x": {1.5: [0.5]}},
    ],
)
def test_edge_values(x):
    assert _json_text(x) == _stdlib(x)


@pytest.mark.parametrize("x", [{"a": 1, 2: 3}, {"s": {1, 2}}, [b"raw"], np.int64(1), {"c": [1j]}])
def test_same_errors(x):
    expected = _outcome(_stdlib, x)
    assert isinstance(expected, tuple)
    assert _outcome(_json_text, x) == expected


# -- record lists: lists of dicts with one set of keys ---------------------------

RECORD_KEYS = ["a", "b", "code", "witness", "k%", "%s", "x%sy", "%%d"]


class Row(dict):
    pass


class Real(float):
    pass


# float lists that repeat a few values, as the path search's orders do, and
# the items a table of texts keyed by value alone would write wrongly: 0.0 and
# -0.0 are one dict key, and so are 1, True and 1.0
REPEATED = [2.5, 0.1, 1e16, 7.0, 1.0, 5e-324, 3.25]
TABLE_TRAPS = [0.0, -0.0, 1, True, 1.0, False, 0, math.nan, math.inf, -math.inf, np.float64(2.5), Real(1.0), Real(0.1)]


def _cell(rng, kind, depth):
    """One value of a column of this kind, sometimes an odd one out."""
    if rng.random() < 0.05:
        return _value(rng, 1)
    if kind == 0:
        if rng.random() < 0.2:
            return rng.choice((math.nan, math.inf, -math.inf, -0.0, 0.0))
        return rng.choice((1, -1)) * 10 ** rng.uniform(-30, 30)
    if kind == 1:
        return rng.choice((*STRINGS, "%s", "50%", "%(a)s"))
    if kind == 2:
        return rng.choice((0, 3, -12, 7**20)) if rng.random() < 0.8 else rng.choice((True, False, 2**64))
    if kind == 3:  # a nonempty float list, sometimes empty or with an odd item
        floats = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            return []
        if rng.random() < 0.2:
            floats[rng.randrange(len(floats))] = rng.choice((1, True, "x", None, np.float64(0.5), math.nan))
        return floats
    if kind == 4:  # nested dicts or None, like the conjecture report's witnesses
        if depth == 0 or rng.random() < 0.3:
            return None
        return _record(rng, ["graph", "hom_a", "hom_b"], [2, 2, rng.choice((2, 0, 4))], depth - 1)
    if kind == 5:  # a few values repeated, sometimes with one or two traps among them
        floats = [rng.choice(REPEATED) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            floats[rng.randrange(len(floats))] = rng.choice(TABLE_TRAPS)
        return floats
    return _value(rng, 2)


def _record(rng, keys, kinds, depth):
    return {k: _cell(rng, kind, depth) for k, kind in zip(keys, kinds)}


def _records(rng):
    """A list of dicts with one set of keys, sometimes broken in one row."""
    keys = rng.sample(RECORD_KEYS, rng.randint(1, 4))
    kinds = [rng.randrange(7) for _ in keys]
    rows = [_record(rng, keys, kinds, 2) for _ in range(rng.choice((1, 2, 3, 8)))]
    at = rng.randrange(len(rows))
    twist = rng.randrange(10)
    if twist == 0:
        rows[at].pop(rng.choice(keys))
    elif twist == 1:
        rows[at]["extra"] = 1.5
    elif twist == 2:
        rows[at] = dict(reversed(list(rows[at].items())))
    elif twist == 3:
        rows[at] = Row(rows[at])
    elif twist == 4:
        rows[at] = {}
    if rng.random() < 0.2:
        return tuple(rows)
    return rows if rng.random() < 0.5 else {"rows": rows, "n": len(rows)}


def test_seeded_record_fuzz():
    rng = random.Random(20261020)
    refused = 0
    for trial in range(2000):
        x = _records(rng)
        expected = _outcome(_stdlib, x)
        assert _outcome(_json_text, x) == expected, (trial, x)
        refused += isinstance(expected, tuple)
    assert 100 < refused < 1900


def test_record_error_is_the_first_rows():
    # row 0's set is refused before row 1's bytes, in json.dumps' own order
    x = [{"a": 1, "b": {1, 2}}, {"a": b"raw", "b": 2}]
    expected = _outcome(_stdlib, x)
    assert expected == (TypeError, "Object of type set is not JSON serializable")
    assert _outcome(_json_text, x) == expected
