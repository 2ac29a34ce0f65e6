"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of the nine treewalk
modules and rebinds each wrapper wherever the original function object
is bound across ``treewalk.*`` (``cli.walk_stats`` as well as
``walks.walk_stats``), so calls between modules are seen too.
``uninstall`` puts every original back. Spans are aggregated in memory
by (name, parent) into calls, total and self seconds; self time is a
span's duration minus the time its traced children took.

Counts marked computed are derived from arguments and results by the
hooks below, never measured inside the program.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import Counter

from oracle import FREE_TREE_COUNTS, order_count

LAYERS = ("cli", "graphs", "walks", "spectral", "forests", "extremal", "transfers", "homorder", "simulate")


def _hitting_matrix(c, args, result):
    n = args[0].n
    c["walks.solves"] += n
    c["walks.gflop"] += n * (2.0 / 3.0) * n**3 / 1e9  # one dense LU per target


def _laplacian_spectra(c, args, result):
    c["spectral.eigh"] += 2


def _forest_sums(c, args, result):
    g = args[0]
    if not g.is_tree():
        c["forests.two_forest_candidates"] += math.comb(len(g.edges), g.n - 2)


def _two_forest_cuts(c, args, yielded):
    if not args[0].is_tree():
        c["forests.two_forests"] += yielded


def _tree_family(c, args, result):
    weights = args[0]
    c["extremal.family_candidates"] += FREE_TREE_COUNTS[len(weights)] * order_count(weights)
    c["extremal.family_size"] += len(result)


def _best_path_assignment(c, args, result):
    c["extremal.path_orders"] += len(result.evaluations)


def _legal_moves(c, args, result):
    c["transfers.moves"] += len(result)


def _connected_graph_corpus(c, args, result):
    lo, hi = args  # the CLI passes both bounds
    for n in range(lo, hi + 1):
        pairs = n * (n - 1) // 2
        c["homorder.corpus_subsets"] += 1 if n == 1 else sum(
            math.comb(pairs, r) for r in range(n - 1, pairs + 1)
        )
    c["homorder.corpus_size"] += len(result)


def _estimate_hitting(c, args, result):
    c["simulate.steps"] += round(result.mean * result.trials)


HOOKS = {
    "walks.hitting_matrix": _hitting_matrix,
    "spectral.laplacian_spectra": _laplacian_spectra,
    "forests.forest_sums": _forest_sums,
    "forests.two_forest_cuts": _two_forest_cuts,
    "extremal.tree_family": _tree_family,
    "extremal.best_path_assignment": _best_path_assignment,
    "transfers.legal_moves": _legal_moves,
    "homorder.connected_graph_corpus": _connected_graph_corpus,
    "simulate.estimate_hitting": _estimate_hitting,
}


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._bindings: list[tuple[object, str, object]] = []

    def _close(self, frame, elapsed, calls):
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        rec = self.spans.setdefault((frame[0], parent[0] if parent else ""), [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        counts, stack, clock, close = self.counts, self._stack, time.perf_counter, self._close

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                items, calls = 0, 1
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        close(frame, clock() - t0, calls)
                        break
                    except BaseException:
                        close(frame, clock() - t0, calls)
                        raise
                    close(frame, clock() - t0, calls)
                    calls = 0
                    items += 1
                    yield item
                if hook:
                    hook(counts, args, items)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, clock() - t0, 1)
            if hook:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"treewalk.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "treewalk" or modname.startswith("treewalk."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
                        self._bindings.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._bindings):
            setattr(mod, attr, obj)
        self._bindings.clear()

    def by_name(self) -> dict[str, list]:
        """Spans summed over parents: name -> [calls, total_s, self_s]."""
        out: dict[str, list] = {}
        for (name, _), (calls, total, own) in self.spans.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        return out
