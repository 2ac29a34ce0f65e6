"""The CLI's JSON writer against json.dumps(x, indent=2, sort_keys=True), byte for byte."""

import contextlib
import hashlib
import io
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
from treewalk.cli import _write_json, main
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


def _written(payload, lists=None):
    """What ``_write_json`` writes for a payload and its streamed lists."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_json(payload, lists)
    return out.getvalue()


# each payload value is json.dumps' own text re-indented: values whose text
# nests, is empty or is not plain ASCII
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
    assert _written({"x": x}) == _stdlib({"x": x}) + "\n"


@pytest.mark.parametrize("x", [{"a": 1, 2: 3}, {"s": {1, 2}}, [b"raw"], np.int64(1), {"c": [1j]}])
def test_same_errors(x):
    expected = _outcome(_stdlib, {"x": x})
    assert isinstance(expected, tuple)
    assert _outcome(_written, {"x": x}) == expected


def test_empty_payload():
    assert _written({}) == _stdlib({}) + "\n" == "{}\n"


@pytest.mark.parametrize("blocks", [[], [[]], [[], [], []]], ids=["no blocks", "one empty", "three empty"])
def test_list_without_items(blocks):
    lists = {"a": iter(blocks), "m": (b for b in blocks), "z": iter(blocks)}
    assert _written({"k": 1}, lists) == _stdlib({"a": [], "k": 1, "m": [], "z": []}) + "\n"
    assert _written({}, {"only": iter(blocks)}) == _stdlib({"only": []}) + "\n"


def test_empty_blocks_between_full_ones():
    items = [{"k": i, "v": [i / 3, {"w": None}]} for i in range(7)] + [[], "s", math.inf]
    texts = [_stdlib(v).replace("\n", "\n    ") for v in items]  # indented to sit in a top-level list
    blocks = [[], texts[:2], [], [], texts[2:3], texts[3:9], [], texts[9:], []]
    # a NaN scalar and a nested dict; one list sorts first, the other between scalars
    payload = {"b_nan": math.nan, "d_nested": {"z": {"y": [1, {}]}, "a": -math.inf}, "e_last": 0}
    got = _written(payload, {"c_items": iter(blocks), "a_first": iter([texts[:1]])})
    assert got == _stdlib({**payload, "c_items": items, "a_first": items[:1]}) + "\n"
