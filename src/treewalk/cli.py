"""Command-line interface.

Subcommands: compute, verify-extremal, hasse, search-path, conjecture,
simulate. Exit codes form the CI contract: 0 success, 2 parse/usage
error, 3 structurally invalid graph (e.g. disconnected), 4 numerical
disagreement, failed verification assertion or an input too large for
the memory its route needs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import forests, spectral
from .errors import ConsistencyError, DisconnectedError, GraphError, NotATreeError, TwgParseError
from .extremal import PathSearchResult, best_path_assignment, extremal_scan, weight_multiset
from .graphs import FREE_TREE_MAX, WEIGHT_FORMAT, WeightedGraph, enumerate_free_trees, parse_twg, sig12
from .homorder import (
    DOMINATES, EQUAL, VERDICTS, HomDominanceReport, conjecture_scan, connected_graph_corpus, require_scan_size,
)
from .simulate import estimate_hitting
from .transfers import build_hasse, hasse_to_dot
from .walks import hitting_matrix, walk_stats

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GRAPH = 3
EXIT_ASSERTION = 4

METHOD_AGREEMENT_RTOL = 1e-6

_PATH_BLOCK_ROWS = 4096  # rows of the search-path report written at a time


# Each route computes (alpha, kappa) from one factorization. Names are looked
# up per call, so rebinding a route function elsewhere takes effect here too.
METHODS = {
    "exact": lambda g: walk_stats(g),
    "forest": lambda g: forests.stats(g),
    "spectral": lambda g: spectral.stats(g),
}


class _Unreadable(Exception):
    """An input file that could not be opened, read or decoded."""


def _read_graph(path: str) -> tuple[WeightedGraph, str]:
    """The graph in a TWG file and the sha256 of the very bytes it was parsed from."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8-sig")  # a leading byte order mark is not part of the text
    except (OSError, UnicodeDecodeError) as exc:
        raise _Unreadable(exc) from exc
    return parse_twg(text), hashlib.sha256(data).hexdigest()


def _parse_weights(text: str) -> tuple[float, ...]:
    try:
        return weight_multiset([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError as exc:
        raise GraphError(f"bad weights list {text!r}: {exc}") from exc


def _write_json(payload: dict, lists: dict | None = None) -> None:
    """Write ``json.dumps({**payload, **lists}, indent=2, sort_keys=True)`` and
    a newline, byte for byte, one piece at a time: every ``--json`` report.

    Each value of ``payload`` is written by json.dumps itself. Each value of
    ``lists`` is an iterable of blocks, each a list of item texts already
    indented to sit in a top-level list, so only one block's text exists at
    once. The closing brace is a write of its own: on unbuffered stdout a
    short write into a closed pipe goes unreported, and only the next fails.
    """
    write = sys.stdout.write
    lists = lists or {}
    values = {**payload, **lists}
    sep = "{"
    for key in sorted(values):
        write(sep + "\n  " + json.dumps(key) + ": ")
        sep = ","
        if key not in lists:
            write(json.dumps(values[key], indent=2, sort_keys=True).replace("\n", "\n  "))
            continue
        opening = "["
        for block in filter(None, lists[key]):
            write(opening + "\n    " + ",\n    ".join(block))
            opening = ","
        write("[]" if opening == "[" else "\n  ]")
    write("\n}\n" if values else "{}\n")


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        _write_json(payload)
    else:
        for line in human_lines:
            print(line)


def _sig12_texts(x: np.ndarray) -> list[str]:
    """The JSON text of ``sig12(v)`` for every value of a float array."""
    return list(map(float.__repr__, map(float, map(format, x.tolist(), repeat(WEIGHT_FORMAT)))))


def _write_path_report(result: PathSearchResult) -> None:
    """``search-path --json``: ``{assignment, evaluations: [{kappa, objective,
    order}], kappa, objective}`` through ``_write_json``, the evaluations
    made from the arrays a block of rows at a time, with one text per
    distinct weight and one ``%`` template per row.
    """
    weight_text = np.array(list(map(float.__repr__, result.values)), dtype=object)
    order = ",\n        ".join(["%s"] * result.rows.shape[1])
    row = '{\n      "kappa": %s,\n      "objective": %s,\n      "order": [\n        ' + order + "\n      ]\n    }"

    def blocks():
        for start in range(0, len(result.rows), _PATH_BLOCK_ROWS):
            block = slice(start, start + _PATH_BLOCK_ROWS)
            cells = zip(
                _sig12_texts(result.kappas[block]),
                _sig12_texts(result.objectives[block]),
                *weight_text[result.rows[block]].T.tolist(),
            )
            yield list(map(row.__mod__, cells))

    head = {"assignment": result.assignment, "kappa": sig12(result.kappa), "objective": sig12(result.objective)}
    _write_json(head, {"evaluations": blocks()})


def _write_hitting_report(payload: dict, h: np.ndarray) -> None:
    """``compute --hitting --json``: the payload plus ``hitting`` (values at 12
    significant digits) through ``_write_json``, one block per matrix row.
    """
    rows = (["[\n      " + ",\n      ".join(_sig12_texts(row)) + "\n    ]"] for row in h)
    _write_json(payload, {"hitting": rows})


def _write_conjecture_report(report: HomDominanceReport) -> None:
    """``conjecture --json`` through ``_write_json``: the tree and corpus sizes,
    then three record lists made from the verdict arrays (``alphas`` at 12
    significant digits, ``pairs``, and ``violations`` with both alphas
    unrounded), with one text per tree code and one ``%`` template per pair
    row (another for a pair without witness).
    """
    code = list(map(encode_basestring_ascii, report.codes))
    verdict = list(map(encode_basestring_ascii, VERDICTS))
    head = '{\n      "a": %s,\n      "b": %s,\n      "verdict": '
    witness = '{\n        "graph": %d,\n        "hom_a": %d,\n        "hom_b": %d\n      }'
    decided = head + '%s,\n      "witness": ' + witness + "\n    }"
    equal = head + encode_basestring_ascii(EQUAL) + ',\n      "witness": null\n    }'
    cells = zip(*(x.tolist() for x in (report.a, report.b, report.kind, report.graph, report.hom_a, report.hom_b)))
    pairs = [
        decided % (code[i], code[j], verdict[k], g, x, y) if k else equal % (code[i], code[j])
        for i, j, k, g, x, y in cells
    ]
    alphas = list(map('{\n      "alpha": %s,\n      "code": %s\n    }'.__mod__, zip(_sig12_texts(report.alpha), code)))
    violations = [
        '{\n      "a": %s,\n      "alpha_a": %r,\n      "alpha_b": %r,\n      "b": %s\n    }'
        % (encode_basestring_ascii(a), alpha_a, alpha_b, encode_basestring_ascii(b))
        for a, b, alpha_a, alpha_b in report.violations
    ]
    _write_json(
        {"corpus_size": report.corpus_size, "tree_size": report.tree_size},
        {"alphas": [alphas], "pairs": [pairs], "violations": [violations]},
    )


def cmd_compute(args) -> int:
    t0 = time.perf_counter()
    g, digest = _read_graph(args.input)
    selected = list(METHODS) if args.method == "all" else [args.method]
    # with --hitting, the exact route (always the first to run) takes the
    # matrix it prints: one inverse serves both
    h = hitting_matrix(g) if args.hitting and "exact" in selected else None
    routes = METHODS if h is None else {**METHODS, "exact": lambda g: walk_stats(g, h)}
    raw = {name: routes[name](g) for name in selected}
    results = {name: {"alpha": sig12(a), "kappa": sig12(k)} for name, (a, k) in raw.items()}
    vals = np.array(list(raw.values()))  # one row per route: alpha, kappa
    top = np.abs(vals).max(axis=0)
    spread = vals.max(axis=0) - vals.min(axis=0)
    # all routes give exactly 0 on one vertex; a NaN anywhere makes delta NaN
    delta = float((spread / np.where(top == 0.0, 1.0, top)).max())
    payload = {
        "command": "compute",
        "input_digest": digest,
        "n": g.n,
        "edge_count": len(g.edges),
        "methods": results,
        "max_rel_delta": delta,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    lines = [f"n={g.n} edges={len(g.edges)} vol={g.vol:.12g}"]
    for name in selected:
        lines.append(f"{name:>9}: alpha={results[name]['alpha']:.12g} kappa={results[name]['kappa']:.12g}")
    if len(selected) > 1:
        lines.append(f"max relative delta across methods: {delta:.3e}")
    if args.hitting:
        h = hitting_matrix(g) if h is None else h
    if args.hitting and args.json:
        _write_hitting_report(payload, h)
    else:
        if args.hitting:
            lines.append("hitting matrix:")
            lines.extend("  " + " ".join(f"{x:12.6g}" for x in row) for row in h)
        _emit(args, payload, lines)
    if not delta <= METHOD_AGREEMENT_RTOL:
        print(f"method disagreement {delta:.3e} exceeds {METHOD_AGREEMENT_RTOL}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_verify_extremal(args) -> int:
    weights = _parse_weights(args.weights)
    report = extremal_scan(weights, args.stat)
    lines = [
        f"family size: {report.family_size}",
        f"{args.stat} max = {report.max_value:.12g} attained by {len(report.argmax_codes)} tree(s)",
        f"{args.stat} min = {report.min_value:.12g} attained by {len(report.argmin_codes)} tree(s)",
    ]
    for t in report.argmax_trees:
        lines.append(f"  argmax layout: {[w for _, _, w in t.edges]} degseq={t.degree_sequence()}")
    for t in report.argmin_trees:
        lines.append(f"  argmin layout: {[w for _, _, w in t.edges]} degseq={t.degree_sequence()}")
    if report.polarized_value is not None:
        lines.append(f"polarized paths share {args.stat} = {report.polarized_value:.12g}")
    _emit(args, report.to_json_dict(), lines)
    return EXIT_OK


def cmd_hasse(args) -> int:
    trees = enumerate_free_trees(args.n)
    diagram = build_hasse(trees, args.mode)
    dot = hasse_to_dot(diagram)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        print(dot, end="")
    print(f"nodes={len(diagram.nodes)} covers={len(diagram.covers)}", file=sys.stderr)
    return EXIT_OK


def cmd_search_path(args) -> int:
    weights = _parse_weights(args.weights)
    result = best_path_assignment(weights)
    if args.json:
        _write_path_report(result)
        return EXIT_OK
    print(f"best kappa over {len(result.rows)} distinct orders: {result.kappa:.12g}")
    print(f"assignment: {list(result.assignment)}")
    print(f"objective:  {result.objective:.12g}")
    return EXIT_OK


def cmd_conjecture(args) -> int:
    require_scan_size(args.n)  # before the corpus, which checks its own range first
    corpus = connected_graph_corpus(2, args.corpus_max)
    report = conjecture_scan(args.n, corpus=corpus)
    if args.json:
        _write_conjecture_report(report)
        return EXIT_OK
    dominant = int((report.kind == VERDICTS.index(DOMINATES)).sum())
    print(f"trees of size {args.n}: {len(report.codes)}; corpus graphs: {report.corpus_size}")
    print(f"ordered pairs: {len(report.kind)}; corpus-dominant: {dominant}")
    print(f"violations: {len(report.violations)}")
    for _, _, aa, ab in report.violations:
        print(f"  violation: alpha {aa:.9g} -> {ab:.9g} (corpus false positive suspected)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    g, _ = _read_graph(args.input)
    est = estimate_hitting(g, args.src, args.dst, args.trials, args.seed)
    payload = {"mean": est.mean, "stderr": est.stderr, "trials": est.trials, "seed": est.seed}
    lines = [
        f"estimated hitting time {args.src} -> {args.dst}: "
        f"{est.mean:.6g} (stderr {est.stderr:.3g}, trials {est.trials}, seed {est.seed})"
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewalk",
        description="Random-walk functionals on weighted graphs by three mutually "
        "verifying methods, plus extremal weighted-tree verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("compute", help="alpha/kappa for a TWG file")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["exact", "forest", "spectral", "all"], default="all")
    p.add_argument("--hitting", action="store_true", help="include the full hitting matrix")
    common(p)

    p = sub.add_parser("verify-extremal", help="exhaustive extremal scan over one weight multiset")
    p.add_argument("--weights", required=True, help="comma-separated positive weights")
    p.add_argument("--stat", choices=["alpha", "kappa"], required=True)
    common(p)

    p = sub.add_parser("hasse", help="Hasse diagram of the transfer order on simple trees")
    p.add_argument("--n", type=int, required=True, help=f"tree size, 1..{FREE_TREE_MAX}")
    p.add_argument("--mode", choices=["size", "volume"], default="size")
    p.add_argument("--output", help="DOT output path (stdout when omitted)")

    p = sub.add_parser("search-path", help="kappa-maximizing path ordering of a weight multiset")
    p.add_argument("--weights", required=True)
    common(p)

    p = sub.add_parser("conjecture", help="hom-dominance vs alpha scan over free trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--corpus-max", type=int, default=5, help="largest corpus graph size")
    common(p)

    p = sub.add_parser("simulate", help="Monte Carlo hitting-time estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first ``main`` call: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # the cmd_* function is looked up by subcommand name per call, like the
    # routes in METHODS, so rebinding one takes effect despite the one parser
    command = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        # overflow, 0/0 and the like are refused by check_finite with a
        # ConsistencyError; numpy's warnings would only repeat that on stderr
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            code = command(args)
        sys.stdout.flush()  # a write that fails here is reported like any other
        return code
    except TwgParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _Unreadable as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DisconnectedError, NotATreeError) as exc:
        print(f"invalid graph: {exc}", file=sys.stderr)
        return EXIT_GRAPH
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except MemoryError as exc:
        print(f"cannot allocate: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write; send what is still buffered to
        # devnull so the flush at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
