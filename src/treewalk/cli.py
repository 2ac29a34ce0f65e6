"""Command-line interface.

Subcommands: compute, verify-extremal, hasse, search-path, conjecture,
simulate. Exit codes form the CI contract: 0 success, 2 parse/usage
error, 3 structurally invalid graph (e.g. disconnected), 4 numerical
disagreement or failed verification assertion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import forests, spectral
from .errors import ConsistencyError, DisconnectedError, GraphError, NotATreeError, TwgParseError
from .extremal import best_path_assignment, extremal_scan, weight_multiset
from .graphs import FREE_TREE_MAX, WeightedGraph, enumerate_free_trees, parse_twg, sig12
from .homorder import conjecture_scan, connected_graph_corpus, require_scan_size
from .simulate import estimate_hitting
from .transfers import build_hasse, hasse_to_dot
from .walks import hitting_matrix, walk_stats

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GRAPH = 3
EXIT_ASSERTION = 4

METHOD_AGREEMENT_RTOL = 1e-6


def _exact(g: WeightedGraph) -> tuple[float, float]:
    s = walk_stats(g)
    return s.alpha, s.kappa


# Each route computes (alpha, kappa) from one factorization. Names are looked
# up per call, so rebinding a route function elsewhere takes effect here too.
METHODS = {
    "exact": _exact,
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
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Unreadable(exc) from exc
    return parse_twg(text), hashlib.sha256(data).hexdigest()


def _parse_weights(text: str) -> tuple[float, ...]:
    try:
        return weight_multiset([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError as exc:
        raise GraphError(f"bad weights list {text!r}: {exc}") from exc


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# The scalar types json.dumps writes itself, by exact type: any other type,
# subclasses included, goes to json.dumps with its own rules and errors.
_SCALAR_TEXT = {
    float: _float_text,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(x, pad: str = "") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` byte for byte, for a value
    nested at indent ``pad``.

    With ``indent`` set, the stdlib runs its pure-Python encoder, one
    generator step per token. This writes each dict and list with one join
    and a flat list of floats with one ``map(float.__repr__, ...)``. Empty
    containers, dicts with non-str keys and values of any other type are
    written by json.dumps itself, re-indented.
    """
    kind = type(x)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        return scalar(x)
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict and x:
        try:
            keys = sorted(x)
            names = list(map(encode_basestring_ascii, keys))
        except TypeError:  # keys that are not all str: json.dumps converts or refuses them
            pass
        else:
            body = sep.join([name + ": " + _json_text(x[k], inner) for name, k in zip(names, keys)])
            return "{\n" + inner + body + "\n" + pad + "}"
    elif (kind is list or kind is tuple) and x:
        try:
            body = sep.join(map(float.__repr__, x))
        except TypeError:  # not all floats
            body = None
        if body is None or "n" in body:  # ... or nan or inf among them
            body = sep.join([_json_text(v, inner) for v in x])
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(_json_text(payload))
    else:
        for line in human_lines:
            print(line)


def cmd_compute(args) -> int:
    t0 = time.perf_counter()
    g, digest = _read_graph(args.input)
    selected = list(METHODS) if args.method == "all" else [args.method]
    raw = {name: METHODS[name](g) for name in selected}
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
        lines.append(
            f"{name:>9}: alpha={results[name]['alpha']:.12g} kappa={results[name]['kappa']:.12g}"
        )
    if len(selected) > 1:
        lines.append(f"max relative delta across methods: {delta:.3e}")
    if args.hitting:
        h = hitting_matrix(g)
        payload["hitting"] = [[sig12(x) for x in row] for row in h.tolist()]
        if not args.json:
            lines.append("hitting matrix:")
            for row in h:
                lines.append("  " + " ".join(f"{x:12.6g}" for x in row))
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
    lines = [
        f"best kappa over {len(result.evaluations)} distinct orders: {result.kappa:.12g}",
        f"assignment: {list(result.assignment)}",
        f"objective:  {result.objective:.12g}",
    ]
    _emit(args, result.to_json_dict(), lines)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    require_scan_size(args.n)  # before the corpus, which checks its own range first
    corpus = connected_graph_corpus(2, args.corpus_max)
    report = conjecture_scan(args.n, corpus=corpus)
    dominant = sum(1 for p in report.pairs if p.verdict == "dominates")
    lines = [
        f"trees of size {args.n}: {len(report.alphas)}; corpus graphs: {report.corpus_size}",
        f"ordered pairs: {len(report.pairs)}; corpus-dominant: {dominant}",
        f"violations: {len(report.violations)}",
    ]
    for a, b, aa, ab in report.violations:
        lines.append(f"  violation: alpha {aa:.9g} -> {ab:.9g} (corpus false positive suspected)")
    _emit(args, report.to_json_dict(), lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    g, _ = _read_graph(args.input)
    est = estimate_hitting(g, args.src, args.dst, args.trials, args.seed)
    payload = {
        "mean": est.mean,
        "stderr": est.stderr,
        "trials": est.trials,
        "seed": est.seed,
    }
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
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify-extremal", help="exhaustive extremal scan over one weight multiset")
    p.add_argument("--weights", required=True, help="comma-separated positive weights")
    p.add_argument("--stat", choices=["alpha", "kappa"], required=True)
    common(p)
    p.set_defaults(func=cmd_verify_extremal)

    p = sub.add_parser("hasse", help="Hasse diagram of the transfer order on simple trees")
    p.add_argument("--n", type=int, required=True, help=f"tree size, 1..{FREE_TREE_MAX}")
    p.add_argument("--mode", choices=["size", "volume"], default="size")
    p.add_argument("--output", help="DOT output path (stdout when omitted)")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("search-path", help="kappa-maximizing path ordering of a weight multiset")
    p.add_argument("--weights", required=True)
    common(p)
    p.set_defaults(func=cmd_search_path)

    p = sub.add_parser("conjecture", help="hom-dominance vs alpha scan over free trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--corpus-max", type=int, default=5, help="largest corpus graph size")
    common(p)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("simulate", help="Monte Carlo hitting-time estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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
