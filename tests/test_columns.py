"""The edge columns and everything built from them, against edge-by-edge oracles.

``WeightedGraph.columns`` holds the edges as sorted int64/int64/float64
arrays: the parser's own arrays for a parsed graph, one ``np.fromiter``
for a graph built from tuples. Degrees, the adjacency matrix and the
Laplacian are built from them and must match ``_dense_oracle`` bit for
bit, and so must every ``compute`` report.
"""

import itertools
import random

import numpy as np
import pytest

from _dense_oracle import fromiter_adjacency, loop_degrees, loop_vol, reference_laplacian
from treewalk import cli, forests, spectral, walks
from treewalk.graphs import WeightedGraph, parse_twg
from treewalk.walks import adjacency_matrix, laplacian


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


def _case(seed, n, pairs, weight):
    """(n, edges) with the pairs shuffled and each pair in a random orientation."""
    rng = random.Random(seed)
    edges = [(v, u, weight(rng)) if rng.random() < 0.5 else (u, v, weight(rng)) for u, v in pairs]
    rng.shuffle(edges)
    return n, edges


def _sample_pairs(seed, among, m):
    """m distinct pairs of vertices below ``among``."""
    return random.Random(seed).sample(list(itertools.combinations(range(among), 2)), m)


def _wide(rng):
    return _log_uniform(rng, -300, 300)


def _repeated(rng):
    return rng.choice((0.1, 1.0, 2.5))


def _plain(rng):
    return _log_uniform(rng, -1, 1)


def _cases():
    yield "n=1", (1, [])
    yield "no edges", (6, [])
    yield "single edge", _case(1, 2, [(0, 1)], _wide)
    yield "isolated vertices", _case(2, 30, _sample_pairs(2, 20, 60), _plain)
    yield "isolated vertex 0", _case(3, 12, [(u, v) for u, v in itertools.combinations(range(1, 12), 2)], _plain)
    for seed in range(4):
        yield f"wide {seed}", _case(10 + seed, 40, _sample_pairs(10 + seed, 40, 200), _wide)
        yield f"repeated {seed}", _case(20 + seed, 25, _sample_pairs(20 + seed, 25, 120), _repeated)
    yield "complete n=60 wide", _case(30, 60, itertools.combinations(range(60), 2), _wide)
    yield "20000 edges", _case(31, 201, _sample_pairs(31, 201, 20_000), _wide)


CASES = dict(_cases())


def _text(n, edges):
    return f"{n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)


@pytest.fixture(params=sorted(CASES), scope="module")
def graphs(request):
    n, edges = CASES[request.param]
    built, parsed = WeightedGraph(n, edges), parse_twg(_text(n, edges))
    if edges:  # the parser handed its own arrays over
        assert "columns" in vars(parsed)
    return built, parsed


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_columns_equal_for_parsed_and_built(graphs):
    built, parsed = graphs
    assert built == parsed
    for a, b, dtype in zip(built.columns, parsed.columns, (np.int64, np.int64, np.float64)):
        assert a.dtype == b.dtype == dtype
        assert a.tobytes() == b.tobytes()
    lo, hi, w = built.columns
    assert list(zip(lo.tolist(), hi.tolist(), w.tolist())) == list(built.edges)


def test_columns_are_read_only(graphs):
    for g in graphs:
        for col in g.columns:
            assert not col.flags.writeable
            if col.size:
                with pytest.raises(ValueError):
                    col[0] = 1


def test_degrees_and_vol_match_the_loop(graphs):
    for g in graphs:
        assert all(type(d) is float for d in g.degrees)
        assert _bits(g.degrees) == _bits(loop_degrees(g))
        assert g.vol.hex() == loop_vol(g).hex()


def test_matrices_match_the_fromiter_builder(graphs):
    for g in graphs:
        assert adjacency_matrix(g).tobytes() == fromiter_adjacency(g).tobytes()
        lap = laplacian(g)
        assert lap.tobytes() == reference_laplacian(g).tobytes()
        assert not np.signbit(lap[lap == 0.0]).any()  # no -0.0 off the edges


def _use_reference_builders(monkeypatch):
    """The oracles in place of the column builders, and a fresh parser per call."""
    monkeypatch.setattr(WeightedGraph, "degrees", property(loop_degrees))
    monkeypatch.setattr(walks, "adjacency_matrix", fromiter_adjacency)
    for mod in (walks, forests, spectral):
        monkeypatch.setattr(mod, "laplacian", reference_laplacian)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)


def _report(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    # the report's one timing line is the only output that may differ
    out = "".join(line for line in captured.out.splitlines(True) if '"wall_time_s"' not in line)
    return code, out, captured.err


def _graph_files(tmp_path):
    rng = random.Random(1500)
    n = 150
    tree = [(i, rng.randrange(i), _plain(rng)) for i in range(1, 120)]
    w = _plain(rng)
    complete = [(u, v, w) for u, v in itertools.combinations(range(n), 2)]
    dense = [(u, v, _plain(rng)) for u, v in itertools.combinations(range(n), 2)
             if v == u + 1 or rng.random() < 0.5]
    general = [(u, v, _plain(rng)) for u, v in itertools.combinations(range(11), 2)
               if v == u + 1 or rng.random() < 0.35]
    files = {}
    for name, (size, edges) in {"tree": (120, tree), "K_150": (n, complete),
                                "dense": (n, dense), "general": (11, general)}.items():
        files[name] = tmp_path / f"{name}.twg"
        files[name].write_text(_text(size, edges))
    return files


def test_compute_reports_match_the_reference_builders(tmp_path, capsys, monkeypatch):
    argvs = []
    for name, path in _graph_files(tmp_path).items():
        argvs.append(["compute", "--method", "all", "--json", "--input", str(path)])
        argvs.append(["compute", "--method", "all", "--input", str(path)])
    argvs.append(["compute", "--method", "exact", "--hitting", "--json", "--input", argvs[-1][-1]])
    got = [_report(argv, capsys) for argv in argvs]
    _use_reference_builders(monkeypatch)
    want = [_report(argv, capsys) for argv in argvs]
    for argv, g, w in zip(argvs, got, want):
        assert g == w, argv
    assert all(code == 0 for code, _, _ in got)
