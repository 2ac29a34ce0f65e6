"""Seeded inputs and fixed operation lists for the four workloads.

``prepare(name, seed, workdir)`` draws every input from the seed with the
benchmark's own generators (never the program's), writes the graph
files, and returns the operations. An operation is one CLI invocation
(``treewalk.cli.main(argv)``) or, where no command exists, one library
call; each carries a check against ``oracle``. Why each workload exists:

* routes: ``compute`` on weighted trees (n = 100/200/300), K_n and a
  dense graph (n = 150) and small general graphs near the 20-edge
  enumeration guard. Time goes to walks (one LU per target, twice per
  call), spectral (four eigh) and brute-force forests; it never reaches
  canonical forms, extremal, transfers, homorder or simulate.
* family-scan: ``verify-extremal``, ``search-path``, ``hasse`` and
  ``build_hasse(tree_family(W))``. Time goes to canonical forms, family
  dedup, tiny tree closed forms and ``legal_moves``; no dense algebra.
  Distinct and repeated multisets load the dedup differently.
* hom-scan: ``conjecture`` for several (n, corpus-max) pairs, one with
  corpus-max 6. The only workload where homorder does real work, and
  walks runs many calls on trees of 8 or fewer vertices.
* monte-carlo: ``simulate`` on the unit path of 3 vertices, a longer
  unit path and a seeded weighted tree. Only the pure-Python step loop
  in simulate runs.

Sizes are fixed per operation slot and only structure and weights vary
with the seed (only weights, where the structure sets the cost), so the
cost of a pass does not depend on the seed.
Operations in ``once`` run one time per run before the timed passes:
checked and counted, but not timed. hom-scan puts its corpus-max 6 scan
there: a single 5 s operation spans several of the machine's speed
phases, so no reference measurement around it can steady its time. The
wide-weight probe (routes only) runs each route once on trees with
weights spanning 12 orders of magnitude; see ``probe_outcome``.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

# nearest-rank percentile reported as op_tail_ms: the highest of 50/75/90/99
# that keeps at least 10 operations beyond it in every 25 s run
TAIL_PERCENTILE = {"routes": 75, "family-scan": 75, "hom-scan": 90, "monte-carlo": 75}

SIM_SEEDS = (7, 11, 29, 4242, 31337, 20260808)


@dataclass
class Op:
    label: str
    run: tuple  # ("cli", argv) or ("call", zero-argument callable)
    check: Callable[[object], str | None]  # error message, or None when correct


@dataclass
class Workload:
    ops: list[Op]  # the timed operation list, repeated in passes
    once: list[Op] = field(default_factory=list)  # checked and counted, not timed
    probe: list[Op] = field(default_factory=list)  # outcomes reported, not counted


# -- input generation ---------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def random_tree(rng, n, lo=0.1, hi=10.0):
    """Uniform labelled tree (Pruefer decoding) with log-uniform weights."""
    if n == 2:
        return [(0, 1, _log_uniform(rng, lo, hi))]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    pairs = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        pairs.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    pairs.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return [(min(u, v), max(u, v), _log_uniform(rng, lo, hi)) for u, v in pairs]


def random_graph(rng, n, m, lo=0.1, hi=10.0):
    """Connected graph with exactly m edges: a random tree plus m - n + 1 chords."""
    edges = random_tree(rng, n, lo, hi)
    used = {(u, v) for u, v, _ in edges}
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in used]
    edges += [(u, v, _log_uniform(rng, lo, hi)) for u, v in rng.sample(spare, m - n + 1)]
    return edges


def dense_graph(rng, n, p, lo=0.1, hi=10.0):
    edges = random_tree(rng, n, lo, hi)
    used = {(u, v) for u, v, _ in edges}
    edges += [
        (u, v, _log_uniform(rng, lo, hi))
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in used and rng.random() < p
    ]
    return edges


def distinct_weights(rng, k):
    """k distinct weights in [0.1, 10] with 6 significant digits."""
    out: set[float] = set()
    while len(out) < k:
        out.add(float(f"{_log_uniform(rng, 0.1, 10.0):.6g}"))
    return sorted(out, reverse=True)


def patterned_weights(rng, multiplicities):
    values = distinct_weights(rng, len(multiplicities))
    return sorted((v for v, c in zip(values, multiplicities) for _ in range(c)), reverse=True)


def write_twg(path: Path, n: int, edges) -> str:
    path.write_text(f"{n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges))
    return str(path)


# -- checks ---------------------------------------------------------------------


def _cli_json(result):
    rc, out, _ = result
    if rc != 0:
        return None, f"exit {rc}"
    return json.loads(out), None


def _route_check(expected: Callable[[], tuple[float, float]]):
    cache = []

    def check(result):
        payload, err = _cli_json(result)
        if err:
            return err
        if not cache:
            cache.append(expected())
        want_a, want_k = cache[0]
        for name, vals in payload["methods"].items():
            if not (oracle.close(vals["alpha"], want_a) and oracle.close(vals["kappa"], want_k)):
                return f"{name}: ({vals['alpha']}, {vals['kappa']}) vs oracle ({want_a}, {want_k})"
        return None

    return check


def _golden(table: str, key: str):
    try:
        return oracle.GOLDEN[table][key]
    except KeyError:
        raise KeyError(f"no golden value {table}[{key!r}]") from None


def _verify_check(weights, stat):
    cache = []

    def check(result):
        payload, err = _cli_json(result)
        if err:
            return err
        if not cache:
            star = oracle.tree_stats(len(weights) + 1, [(0, i + 1, w) for i, w in enumerate(weights)])
            cache.append((oracle.path_extremes(weights, stat), star[0 if stat == "alpha" else 1]))
        top, low = cache[0]
        key = f"{len(weights)}:{oracle.pattern(weights)}"
        problems = []
        if payload["family_size"] != _golden("family_size", key):
            problems.append(f"family size {payload['family_size']}")
        if not oracle.close(payload["max_value"], top):
            problems.append(f"max {payload['max_value']} vs {top}")
        if not oracle.close(payload["min_value"], low):
            problems.append(f"min {payload['min_value']} vs {low}")
        if payload["argmin_codes"] != [oracle.star_code(weights)]:
            problems.append("argmin is not the star")
        if len(payload["argmax_codes"]) != _golden("argmax_count", f"{stat}:{key}"):
            problems.append(f"{len(payload['argmax_codes'])} argmax trees")
        return "; ".join(problems) or None

    return check


def _search_path_check(weights):
    cache = []

    def check(result):
        payload, err = _cli_json(result)
        if err:
            return err
        if not cache:
            cache.append(oracle.path_extremes(weights, "kappa"))
        order = payload["assignment"]
        if sorted(order) != sorted(weights):
            return "assignment is not a permutation of the weights"
        if len(payload["evaluations"]) != oracle.order_count(weights):
            return f"{len(payload['evaluations'])} orders evaluated"
        if not oracle.close(payload["kappa"], cache[0]):
            return f"kappa {payload['kappa']} vs {cache[0]}"
        if not oracle.close(payload["objective"], oracle.path_objective(order)):
            return "objective differs from the triple sum"
        return None

    return check


def _hasse_cli_check(n, mode):
    import hashlib

    def check(result):
        rc, out, err = result
        want = _golden("hasse", f"{n}:{mode}")
        if rc != 0:
            return f"exit {rc}"
        if hashlib.sha256(out.encode()).hexdigest() != want["dot_sha256"]:
            return "DOT output differs from the frozen diagram"
        if err.strip() != f"nodes={want['nodes']} covers={want['covers']}":
            return f"summary {err.strip()!r}"
        return None

    return check


def _hasse_family_check(weights, mode):
    def check(diagram):
        key = f"{len(weights)}:{oracle.pattern(weights)}"
        if len(diagram.nodes) != _golden("family_size", key):
            return f"{len(diagram.nodes)} nodes"
        if mode == "size" and len(diagram.covers) != _golden("hasse_size_covers", key):
            return f"{len(diagram.covers)} covers"
        k = 0 if mode == "size" else 1
        stats = [oracle.tree_stats(t.n, t.edges)[k] for t in diagram.representatives]
        for i, j in diagram.covers:
            if not stats[i] > stats[j]:
                return f"cover {i} -> {j} does not decrease the statistic"
        return None

    return check


def _conjecture_check(n, corpus_max):
    def check(result):
        payload, err = _cli_json(result)
        if err:
            return err
        want = _golden("conjecture", f"{n}:{corpus_max}")
        verdicts: dict[str, int] = {}
        for p in payload["pairs"]:
            verdicts[p["verdict"]] = verdicts.get(p["verdict"], 0) + 1
        got = {
            "corpus_size": payload["corpus_size"],
            "trees": len(payload["alphas"]),
            "verdicts": verdicts,
            "violations": [[v["a"], v["b"]] for v in payload["violations"]],
        }
        if got != want:
            return f"scan summary {got} differs from the frozen one"
        for a in payload["alphas"]:
            if not a["alpha"] > 0.0:
                return "non-positive alpha"
        return None

    return check


def _simulate_check(n, edges, src, dst, golden_key):
    exact = oracle.tree_hitting_times(n, edges)[src][dst]

    def check(result):
        payload, err = _cli_json(result)
        if err:
            return err
        if golden_key is not None and [payload["mean"], payload["stderr"]] != _golden("simulate", golden_key):
            return f"({payload['mean']}, {payload['stderr']}) is not the frozen estimate"
        if abs(payload["mean"] - exact) > oracle.MC_SIGMAS * payload["stderr"]:
            return f"mean {payload['mean']} is over {oracle.MC_SIGMAS} stderr from {exact}"
        return None

    return check


# -- workloads --------------------------------------------------------------------


def _compute(label, path, method, expected):
    return Op(label, ("cli", ["compute", "--input", path, "--method", method, "--json"]), _route_check(expected))


def _routes(rng, workdir, smoke):
    ops = []
    tree_sizes = (20, 30) if smoke else (100, 100, 100, 100, 200, 200, 300)
    for i, n in enumerate(tree_sizes):
        edges = random_tree(rng, n)
        path = write_twg(workdir / f"tree{i}.twg", n, edges)
        ops.append(_compute(f"tree n={n}", path, "all", lambda n=n, e=edges: oracle.tree_stats(n, e)))
    n = 12 if smoke else 150
    w = _log_uniform(rng, 0.1, 10.0)
    kn = write_twg(workdir / "complete.twg", n, [(u, v, w) for u in range(n) for v in range(u + 1, n)])
    edges = dense_graph(rng, n, 0.5)
    dense = write_twg(workdir / "dense.twg", n, edges)
    for method in ("exact", "spectral"):  # the forest route refuses graphs over 20 edges
        ops.append(_compute(f"K_n n={n} {method}", kn, method, lambda n=n: oracle.complete_stats(n)))
        ops.append(_compute(f"dense n={n} {method}", dense, method, lambda n=n, e=edges: oracle.graph_stats(n, e)))
    for i, (n, m) in enumerate([(6, 8)] if smoke else [(10, 16), (10, 17), (11, 17)]):
        # the enumeration's cost depends on the structure, so only the weights follow the seed
        shape = random_graph(random.Random(f"general:{i}"), n, m)
        edges = [(u, v, _log_uniform(rng, 0.1, 10.0)) for u, v, _ in shape]
        path = write_twg(workdir / f"general{i}.twg", n, edges)
        ops.append(_compute(f"general n={n} m={m}", path, "all", lambda n=n, e=edges: oracle.graph_stats(n, e)))
    probe = []
    for i in range(2 if smoke else 4):
        edges = random_tree(rng, 60, 1e-6, 1e6)
        path = write_twg(workdir / f"wide{i}.twg", 60, edges)
        for method in ("exact", "forest", "spectral"):
            probe.append(_compute(f"wide n=60 {method}", path, method, lambda e=edges: oracle.tree_stats(60, e)))
    return Workload(ops, probe=probe)


def _family_scan(rng, workdir, smoke):
    import treewalk

    w_small = [distinct_weights(rng, 3 if smoke else 5) for _ in range(3)]
    w_distinct = distinct_weights(rng, 4 if smoke else 6)
    w_repeat = patterned_weights(rng, (2, 2, 1) if smoke else (3, 2, 2))
    w_path = distinct_weights(rng, 5 if smoke else 7)
    w_size = distinct_weights(rng, 4 if smoke else 5)
    w_volume = distinct_weights(rng, 4 if smoke else 5)
    ops = []
    for weights in (*w_small, w_distinct, w_repeat):
        text = ",".join(map(repr, weights))
        for stat in ("alpha", "kappa"):
            ops.append(Op(
                f"verify-extremal m={len(weights)} {oracle.pattern(weights)} {stat}",
                ("cli", ["verify-extremal", "--weights", text, "--stat", stat, "--json"]),
                _verify_check(weights, stat),
            ))
    ops.append(Op(
        f"search-path m={len(w_path)}",
        ("cli", ["search-path", "--weights", ",".join(map(repr, w_path)), "--json"]),
        _search_path_check(w_path),
    ))
    for n in (4, 5) if smoke else (7, 8):
        for mode in ("size", "volume"):
            ops.append(Op(f"hasse n={n} {mode}", ("cli", ["hasse", "--n", str(n), "--mode", mode]), _hasse_cli_check(n, mode)))
    for weights, mode in ((w_size, "size"), (w_volume, "volume")):
        def call(weights=weights, mode=mode):  # looked up per call so tracing sees both layers
            return treewalk.transfers.build_hasse(treewalk.extremal.tree_family(weights), mode)

        ops.append(Op(f"build_hasse m={len(weights)} {mode}", ("call", call), _hasse_family_check(weights, mode)))
    return Workload(ops)


def _hom_scan(rng, workdir, smoke):
    def conjecture(k, c):
        return Op(
            f"conjecture n={k} corpus-max={c}",
            ("cli", ["conjecture", "--n", str(k), "--corpus-max", str(c), "--json"]),
            _conjecture_check(k, c),
        )

    pairs = [(5, 3), (5, 4)] if smoke else [(k, c) for c in (3, 4, 5) for k in (5, 6, 7, 8)]
    rng.shuffle(pairs)
    largest = (6, 4) if smoke else (rng.choice((6, 7, 8)), 6)
    return Workload([conjecture(k, c) for k, c in pairs], once=[conjecture(*largest)])


def _monte_carlo(rng, workdir, smoke):
    ops = []

    def simulate(name, n, edges, src, dst, trials, seed, golden):
        path = write_twg(workdir / f"{name}.twg", n, edges)
        key = f"{name}:{src}:{dst}:{trials}:{seed}" if golden else None
        ops.append(Op(
            f"simulate {name} trials={trials}",
            ("cli", ["simulate", "--input", path, "--from", str(src), "--to", str(dst),
                     "--trials", str(trials), "--seed", str(seed), "--json"]),
            _simulate_check(n, edges, src, dst, key),
        ))

    scale = 100 if smoke else 1
    path3 = [(0, 1, 1.0), (1, 2, 1.0)]
    simulate("path3", 3, path3, 0, 2, 50_000 // scale, rng.choice(SIM_SEEDS), True)
    for seed in rng.sample(SIM_SEEDS, 2):
        simulate("path3", 3, path3, 0, 2, 20_000 // scale, seed, True)
    k = 4 if smoke else 6
    unit = [(i, i + 1, 1.0) for i in range(k - 1)]
    for seed in rng.sample(SIM_SEEDS, 2):
        simulate(f"path{k}", k, unit, 0, k - 1, 10_000 // scale, seed, True)
    n = 8 if smoke else 30
    edges = random_tree(rng, n)
    h = oracle.tree_hitting_times(n, edges)
    # the pair whose exact hitting time is nearest 25 steps keeps the step count seed-independent
    src, dst = min(((u, v) for u in range(n) for v in range(n) if u != v), key=lambda p: abs(h[p[0]][p[1]] - 25.0))
    for _ in range(2):
        simulate("wtree", n, edges, src, dst, 10_000 // scale, rng.randrange(2**32), False)
    return Workload(ops)


GENERATORS = {"routes": _routes, "family-scan": _family_scan, "hom-scan": _hom_scan, "monte-carlo": _monte_carlo}
WORKLOADS = tuple(GENERATORS)


def prepare(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Generate and write the inputs; return the workload's operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, workdir, smoke)


def probe_outcome(result, check) -> str:
    """'ok', 'refused' (exit 4: the program's own cross-check fired) or 'wrong'/'error'."""
    rc = result[0]
    if rc == 4:
        return "refused"
    if rc != 0:
        return "error"
    return "ok" if check(result) is None else "wrong"
