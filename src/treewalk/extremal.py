"""Extremal structures over trees with a fixed edge-weight multiset.

For a multiset W of positive weights, the family under study holds one
representative per weight-preserving isomorphism class of trees whose
edge weights equal W. Known extremes inside the family:

* the average hitting time is maximized exactly by the polarized paths
  (weights non-increasing as edges get more central) and minimized
  uniquely by the star;
* Kemeny's constant is maximized by paths (not necessarily polarized)
  and minimized uniquely by the star.

``extremal_scan`` verifies those statements exhaustively for a given W
and raises ConsistencyError on any violation. The scans work on arrays,
one tree shape at a time: integer AHU keys deduplicate the weight
permutations, ``tree_stats`` on weight columns gives every value, and
only the extreme trees become WeightedGraphs with canonical codes.
``best_path_assignment`` solves the path-ordering optimization for
Kemeny's constant via the equivalent triple-sum objective
sum_{j<i<k} w_j w_k / w_i.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConsistencyError, GraphError
from .forests import check_weight_products, tree_stats
from .graphs import (
    WeightedGraph,
    _peel,
    canonical_form,
    enumerate_free_trees,
    format_weight,
    is_path_graph,
    path_graph,
    sig12,
    star_graph,
)
from .walks import check_finite

FAMILY_WEIGHT_MAX = 8
PATH_SEARCH_MAX = 10

STAT_ALPHA = "alpha"
STAT_KAPPA = "kappa"

EXTREME_GROUP_RTOL = 1e-10


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of an exhaustive extremal scan over one weight multiset."""

    weights: tuple[float, ...]
    stat: str
    family_size: int
    max_value: float
    min_value: float
    argmax_codes: tuple[str, ...]
    argmin_codes: tuple[str, ...]
    argmax_trees: tuple[WeightedGraph, ...]
    argmin_trees: tuple[WeightedGraph, ...]
    runner_up_min: float
    polarized_layouts: tuple[tuple[float, ...], ...]
    polarized_value: float | None

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "stat": self.stat,
            "family_size": self.family_size,
            "max_value": sig12(self.max_value),
            "min_value": sig12(self.min_value),
            "argmax_codes": list(self.argmax_codes),
            "argmin_codes": list(self.argmin_codes),
            "argmax_weight_layouts": [
                [w for _, _, w in t.edges] for t in self.argmax_trees
            ],
            "polarized_layouts": [list(p) for p in self.polarized_layouts],
            "polarized_value": None if self.polarized_value is None else sig12(self.polarized_value),
        }


@dataclass(frozen=True, eq=False)
class PathSearchResult:
    """Best path ordering for Kemeny's constant plus the full ranking: one
    int8 row of indices into ``values`` (the distinct weights, ascending) per
    distinct order, rows in lexicographic order, and each row's J and kappa.
    """

    assignment: tuple[float, ...]
    kappa: float
    objective: float
    values: tuple[float, ...]
    rows: np.ndarray
    objectives: np.ndarray
    kappas: np.ndarray

    @cached_property
    def evaluations(self) -> tuple[tuple[tuple[float, ...], float, float], ...]:
        """(order, J, kappa) per row, each order a tuple of the weights' own float objects."""
        orders = zip(*np.array(self.values, dtype=object)[self.rows.T].tolist())
        return tuple(zip(orders, self.objectives.tolist(), self.kappas.tolist()))


def weight_multiset(weights: Sequence[float]) -> tuple[float, ...]:
    """Validate and sort a weight multiset descending."""
    if not weights:
        raise GraphError("weight multiset is empty")
    ws = []
    for w in weights:
        w = float(w)
        if not (w > 0.0 and math.isfinite(w)):
            raise GraphError(f"weights must be positive and finite, got {w}")
        ws.append(w)
    return tuple(sorted(ws, reverse=True))


def centrality(i: int, n: int) -> int:
    """How central edge e_i of a path on n vertices is: min(i, n - i), 1-based."""
    return min(i, n - i)


def is_polarized(weights_in_order: Sequence[float]) -> bool:
    """True when strictly more central edges never carry larger weights."""
    m = len(weights_in_order)
    n = m + 1
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if centrality(i, n) < centrality(j, n):
                if not weights_in_order[i - 1] >= weights_in_order[j - 1]:
                    return False
    return True


def polarized_paths(weights: Sequence[float]) -> list[tuple[float, ...]]:
    """All polarized weight layouts, deduplicated up to path reversal.

    The two largest weights go to the outermost centrality class in both
    orders, the next two to the second class, and so on; an odd count
    leaves the single middle edge with the smallest weight.
    """
    return list(_polarized_by_code(weights).values())


def _polarized_by_code(weights: Sequence[float]) -> dict[str, tuple[float, ...]]:
    """The polarized layouts keyed by their paths' canonical codes, in code order."""
    ws = weight_multiset(weights)
    pairs = len(ws) // 2
    classes = [ws[k : k + 2] for k in range(0, len(ws), 2)]
    unique: dict[str, tuple[float, ...]] = {}
    for orders in product(*(dict.fromkeys((c, c[::-1])) for c in classes)):
        # edge c takes a class's first weight, edge n - c its second
        layout = tuple(o[0] for o in orders) + tuple(o[1] for o in reversed(orders[:pairs]))
        unique.setdefault(canonical_form(path_graph(layout)), layout)
    return {c: unique[c] for c in sorted(unique)}


def star_of(weights: Sequence[float]) -> WeightedGraph:
    """The unique star in the family: center 0, spokes descending."""
    return star_graph(weight_multiset(weights))


def _distinct_orders(items: Sequence[float]) -> tuple[list[float], np.ndarray]:
    """The distinct items ascending, and every distinct ordering of the items
    as one int8 row of indices into them, rows in lexicographic order.

    Built one position at a time: each row so far is followed by every
    value it has left, in increasing order. So the rows stay in order and
    no ordering is made twice, however many items repeat.
    """
    values = sorted(set(items))
    index = {w: i for i, w in enumerate(values)}
    left = np.bincount([index[w] for w in items], minlength=len(values)).astype(np.int8)[None, :]
    rows = np.empty((1, 0), np.int8)
    for _ in items:
        at, value = np.nonzero(left)  # row by row, values ascending
        rows = np.column_stack((rows[at], value.astype(np.int8)))
        left = left[at]
        left[np.arange(len(at)), value] -= 1
    return values, rows


def _shape_keys(shape: WeightedGraph, ids: np.ndarray) -> np.ndarray:
    """Per row of edge-weight labels on one tree shape, an integer that is
    equal for two rows iff their weighted trees are isomorphic.

    ``ids`` holds one row per weight assignment, one column per edge of
    ``shape`` in edge order. AHU relabelling (Aho, Hopcroft & Ullman
    1974) over the leaf layers that find the centre: each layer labels
    every vertex of every row at once by the class of (label of the edge
    above, sorted labels of its children). Siblings can sit in different
    layers, so each layer's classes are numbered past the layers before.
    """
    rows = len(ids)
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(shape.n)]
    for i, (u, v, _) in enumerate(shape.edges):
        neighbors[u].append((v, i))
        neighbors[v].append((u, i))
    layers, parent, up_edge = _peel(shape.n, neighbors)
    children: list[list[int]] = [[] for _ in range(shape.n)]
    for layer in layers[:-1]:
        for x in layer:
            children[parent[x]].append(x)
    label = np.empty((shape.n, rows), dtype=np.int64)
    offset = 0
    for layer in layers:
        width = 1 + max(len(children[x]) for x in layer)
        table = np.full((len(layer), rows, width), -1, dtype=np.int64)
        for j, x in enumerate(layer):
            if up_edge[x] is not None:
                table[j, :, 0] = ids[:, up_edge[x]]
            if children[x]:
                table[j, :, width - len(children[x]):] = np.sort(label[children[x]].T, axis=1)
        classes = _classes(table.reshape(-1, width))
        label[layer] = classes.reshape(len(layer), rows) + offset
        offset += int(classes.max()) + 1
    centres = layers[-1]
    if len(centres) == 1:
        return label[centres[0]]
    return _classes(np.sort(label[centres].T, axis=1))


def _classes(table: np.ndarray) -> np.ndarray:
    """Dense class number of every row of a 2-D integer table, equal rows equal."""
    order = np.lexsort(table.T)
    ranked = table[order]
    new = np.ones(len(table), dtype=np.int64)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    classes = np.empty(len(table), dtype=np.int64)
    classes[order] = np.cumsum(new) - 1
    return classes


def _family_rows(ws: tuple[float, ...]) -> Iterator[tuple[WeightedGraph, np.ndarray]]:
    """Per tree shape, the edge weights of one row per isomorphism class.

    Every shape on |W|+1 vertices is crossed with every distinct
    permutation of W on its edges; each class keeps its first row in
    the lexicographic order of the permutations. Weights equal to 12
    significant digits share one label, as in ``canonical_form``.
    """
    if len(ws) > FAMILY_WEIGHT_MAX:
        raise GraphError(f"family enumeration guarded to {FAMILY_WEIGHT_MAX} weights, got m={len(ws)}")
    values, perms = _distinct_orders(ws)
    labels = np.unique([format_weight(w) for w in values], return_inverse=True)[1][perms]
    weights = np.array(values)[perms]
    for shape in enumerate_free_trees(len(ws) + 1):
        _, first = np.unique(_shape_keys(shape, labels), return_index=True)
        yield shape, weights[np.sort(first)]


def _weighted(shape: WeightedGraph, row: Sequence[float]) -> WeightedGraph:
    return WeightedGraph(shape.n, tuple((u, v, w) for (u, v, _), w in zip(shape.edges, row)))


def _by_code(trees: Iterable[WeightedGraph]) -> tuple[tuple[str, ...], tuple[WeightedGraph, ...]]:
    """Trees sorted by canonical code, with their codes."""
    coded = {canonical_form(t): t for t in trees}
    codes = tuple(sorted(coded))
    return codes, tuple(coded[c] for c in codes)


def tree_family(weights: Sequence[float]) -> list[WeightedGraph]:
    """One representative per isomorphism class of trees with weights W, by canonical code."""
    ws = weight_multiset(weights)
    _, trees = _by_code(
        _weighted(shape, row) for shape, rows in _family_rows(ws) for row in rows.tolist()
    )
    return list(trees)


def extremal_scan(weights: Sequence[float], stat: str) -> FamilyReport:
    """Exhaustive argmax/argmin over the family, with the theorem checks.

    alpha: the argmax set must be exactly the polarized paths, sharing
    one value; the argmin must be uniquely the star, with margin.
    kappa: every argmax tree must be a path; argmin uniquely the star.
    Only the extreme trees are built and coded.
    """
    if stat not in (STAT_ALPHA, STAT_KAPPA):
        raise GraphError(f"unknown statistic {stat!r}")
    ws = weight_multiset(weights)
    which = 0 if stat == STAT_ALPHA else 1
    shapes: list[WeightedGraph] = []
    rows, parts = [], []
    for shape, reps in _family_rows(ws):
        shapes += [shape] * len(reps)
        rows.append(reps)
        parts.append(tree_stats(shape, reps.T)[which])
    weight_rows = np.concatenate(rows)
    values = np.concatenate(parts)
    check_finite(values, f"{stat} values of the family")
    if stat == STAT_KAPPA:
        check_weight_products(ws[-1], "kappa values of the family")

    def trees(mask: np.ndarray) -> Iterator[WeightedGraph]:
        for i in np.flatnonzero(mask).tolist():
            yield _weighted(shapes[i], weight_rows[i].tolist())

    family_size = len(values)
    max_value = float(values.max())
    min_value = float(values.min())
    max_cut = max_value - EXTREME_GROUP_RTOL * abs(max_value)
    min_cut = min_value + EXTREME_GROUP_RTOL * abs(min_value)
    above = values[values > min_cut]
    runner_up = float(above.min()) if above.size else min_value
    argmax_codes, argmax_trees = _by_code(trees(values >= max_cut))
    argmin_codes, argmin_trees = _by_code(trees(values <= min_cut))

    if argmin_codes != (canonical_form(star_of(ws)),) and family_size > 1:
        raise ConsistencyError(f"{stat} argmin is not uniquely the star for W={ws}")
    if family_size > 1 and not runner_up - min_value > EXTREME_GROUP_RTOL * abs(min_value):
        raise ConsistencyError(f"{stat} star minimum lacks a strict margin for W={ws}")

    pol_layouts: tuple[tuple[float, ...], ...] = ()
    pol_value: float | None = None
    if stat == STAT_ALPHA:
        polarized = _polarized_by_code(ws)
        pol_layouts = tuple(polarized.values())
        if argmax_codes != tuple(polarized):  # both in code order
            raise ConsistencyError(f"alpha argmax set differs from the polarized paths for W={ws}")
        pol_vals = [tree_stats(path_graph(p), p)[0] for p in pol_layouts]  # alpha needs no kappa products
        spread = max(pol_vals) - min(pol_vals)
        if not spread <= EXTREME_GROUP_RTOL * abs(max_value):
            raise ConsistencyError(f"polarized paths do not share one alpha for W={ws}")
        pol_value = max_value
    else:
        for t in argmax_trees:
            if not is_path_graph(t):
                raise ConsistencyError(f"kappa argmax contains a non-path for W={ws}")

    return FamilyReport(
        weights=ws,
        stat=stat,
        family_size=family_size,
        max_value=max_value,
        min_value=min_value,
        argmax_codes=argmax_codes,
        argmin_codes=argmin_codes,
        argmax_trees=argmax_trees,
        argmin_trees=argmin_trees,
        runner_up_min=runner_up,
        polarized_layouts=pol_layouts,
        polarized_value=pol_value,
    )


def path_kappa_objective(weights_in_order: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """The triple sum sum_{j<i<k} w_j w_k / w_i, factored to O(m).

    Over orderings of a fixed multiset, Kemeny's constant of the path is
    an increasing affine function of this value, so ranking orders by it
    ranks them by kappa. ``weights_in_order`` holds floats for one order,
    or numpy arrays with each position's weight in many orders, which give
    an array of values; as in ``tree_stats``, the same statements do both,
    bit for bit alike. Its products of two partial sums need the least
    weight checked by ``forests.check_weight_products``, as
    ``best_path_assignment`` does.
    """
    low = float(np.asarray(weights_in_order, dtype=float).min(initial=math.inf))
    if not low > 0.0:
        raise GraphError(f"weights must be positive, got {low}")
    total = 0.0
    for w in weights_in_order:
        total = total + w
    left = 0.0
    objective = 0.0
    for w in weights_in_order:
        right = total - left - w
        objective = objective + left * right / w
        left = left + w
    return objective


def best_path_assignment(weights: Sequence[float]) -> PathSearchResult:
    """Maximize Kemeny's constant over distinct path orderings of W.

    Every distinct ordering is evaluated both by the triple-sum
    objective and by the forest-formula kappa, on one column per path
    position; the two rankings must agree, which cross-checks both
    computations.
    """
    ws = weight_multiset(weights)
    if len(ws) > PATH_SEARCH_MAX:
        raise GraphError(f"path search guarded to {PATH_SEARCH_MAX} weights, got m={len(ws)}")
    values, rows = _distinct_orders(ws)
    columns = np.array(values)[rows.T]
    objectives = path_kappa_objective(columns)
    kappas = tree_stats(path_graph([1.0] * len(ws)), columns)[1]
    check_finite(objectives, "path objective J")
    check_finite(kappas, "path kappa")
    check_weight_products(ws[-1], "path objective J and kappa")
    _check_rankings_agree(ws[::-1], objectives, kappas)  # the first row: the weights ascending
    # rows ascend, so the last row of greatest kappa has the greatest (kappa, order)
    best = int(np.flatnonzero(kappas == kappas.max())[-1])
    return PathSearchResult(
        assignment=tuple(values[i] for i in rows[best].tolist()),
        kappa=float(kappas[best]),
        objective=float(objectives[best]),
        values=tuple(values),
        rows=rows,
        objectives=objectives,
        kappas=kappas,
    )


def _check_rankings_agree(order: Sequence[float], objectives: np.ndarray, kappas: np.ndarray) -> None:
    """Both rankings of the orders must agree up to rounding: on a path of
    total weight T, kappa = (2m - 1)/2 + 2J/T exactly. Each of J's m terms
    is at most T^2 / min(w), so J's rounding error stays below
    16 m eps T^2 / min(w), and kappa's below 2/T times that. T is summed
    along ``order``, one of the orders ranked.
    """
    total = sum(order)
    j_tol = 16 * len(order) * sys.float_info.epsilon * total * total / min(order)
    checks = (
        (objectives, kappas, 2.0 / total * j_tol, "sorted by objective"),
        (kappas, objectives, j_tol, "sorted by kappa"),
    )
    for key, other, tol, name in checks:
        ranked = other[np.argsort(-key, kind="stable")]
        if not (ranked[1:] - ranked[:-1] <= tol).all():
            raise ConsistencyError(f"kappa and objective rankings disagree ({name})")
