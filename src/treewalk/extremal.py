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
and raises ConsistencyError on any violation. ``best_path_assignment``
solves the path-ordering optimization for Kemeny's constant via the
equivalent triple-sum objective sum_{j<i<k} w_j w_k / w_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import ConsistencyError, GraphError
from .forests import alpha_forest, kappa_forest
from .graphs import (
    WeightedGraph,
    canonical_form,
    enumerate_free_trees,
    is_path_graph,
    path_graph,
    sig12,
    star_graph,
)

FAMILY_WEIGHT_MAX = 8
PATH_SEARCH_MAX = 10

STAT_ALPHA = "alpha"
STAT_KAPPA = "kappa"

EXTREME_GROUP_RTOL = 1e-10
RANK_TIE_RTOL = 1e-9


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


@dataclass(frozen=True)
class PathSearchResult:
    """Best path ordering for Kemeny's constant plus the full ranking."""

    assignment: tuple[float, ...]
    kappa: float
    objective: float
    evaluations: tuple[tuple[tuple[float, ...], float, float], ...]  # (order, J, kappa)

    def to_json_dict(self) -> dict:
        return {
            "assignment": list(self.assignment),
            "kappa": sig12(self.kappa),
            "objective": sig12(self.objective),
            "evaluations": [
                {"order": list(o), "objective": sig12(j), "kappa": sig12(k)}
                for o, j, k in self.evaluations
            ],
        }


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
    ws = weight_multiset(weights)
    pairs = len(ws) // 2
    classes = [ws[k : k + 2] for k in range(0, len(ws), 2)]
    unique: dict[str, tuple[float, ...]] = {}
    for orders in product(*(dict.fromkeys((c, c[::-1])) for c in classes)):
        # edge c takes a class's first weight, edge n - c its second
        layout = tuple(o[0] for o in orders) + tuple(o[1] for o in reversed(orders[:pairs]))
        unique.setdefault(canonical_form(path_graph(layout)), layout)
    return [unique[c] for c in sorted(unique)]


def star_of(weights: Sequence[float]) -> WeightedGraph:
    """The unique star in the family: center 0, spokes descending."""
    return star_graph(weight_multiset(weights))


def distinct_permutations(items: Sequence[float]) -> Iterator[tuple[float, ...]]:
    """Distinct multiset permutations in lexicographic order.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) on NaN-free items. Equal
    weights count as equal only when equal as floats after parsing, so a
    multiset with r repeats yields len!/r! permutations, not len! of them.
    """
    a = sorted(items)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = reversed(a[j + 1 :])


def tree_family(weights: Sequence[float]) -> list[WeightedGraph]:
    """One representative per isomorphism class of trees with weights W.

    Every tree shape on |W|+1 vertices is crossed with every distinct
    permutation of W on its edges, then deduplicated by canonical form.
    """
    ws = weight_multiset(weights)
    if len(ws) > FAMILY_WEIGHT_MAX:
        raise GraphError(f"family enumeration guarded to {FAMILY_WEIGHT_MAX} weights")
    n = len(ws) + 1
    perms = list(distinct_permutations(ws))
    reps: dict[str, WeightedGraph] = {}
    for shape in enumerate_free_trees(n):
        pairs = [(u, v) for u, v, _ in shape.edges]
        for perm in perms:
            t = WeightedGraph(n, tuple((u, v, w) for (u, v), w in zip(pairs, perm)))
            code = canonical_form(t)
            if code not in reps:
                reps[code] = t
    return [reps[c] for c in sorted(reps)]


def extremal_scan(weights: Sequence[float], stat: str) -> FamilyReport:
    """Exhaustive argmax/argmin over the family, with the theorem checks.

    alpha: the argmax set must be exactly the polarized paths, sharing
    one value; the argmin must be uniquely the star, with margin.
    kappa: every argmax tree must be a path; argmin uniquely the star.
    """
    if stat not in (STAT_ALPHA, STAT_KAPPA):
        raise GraphError(f"unknown statistic {stat!r}")
    ws = weight_multiset(weights)
    family = tree_family(ws)
    stat_fn = alpha_forest if stat == STAT_ALPHA else kappa_forest
    values = [stat_fn(t) for t in family]

    max_value = max(values)
    min_value = min(values)
    max_cut = max_value - EXTREME_GROUP_RTOL * abs(max_value)
    min_cut = min_value + EXTREME_GROUP_RTOL * abs(min_value)
    argmax = [i for i, v in enumerate(values) if v >= max_cut]
    argmin = [i for i, v in enumerate(values) if v <= min_cut]
    runner_up = min((v for v in values if v > min_cut), default=min_value)
    # codes only for the reported trees; tree_family already deduplicated
    argmax_codes = tuple(canonical_form(family[i]) for i in argmax)
    argmin_codes = tuple(canonical_form(family[i]) for i in argmin)

    if argmin_codes != (canonical_form(star_of(ws)),) and len(family) > 1:
        raise ConsistencyError(f"{stat} argmin is not uniquely the star for W={ws}")
    if len(family) > 1 and not runner_up - min_value > EXTREME_GROUP_RTOL * abs(min_value):
        raise ConsistencyError(f"{stat} star minimum lacks a strict margin for W={ws}")

    pol_layouts: tuple[tuple[float, ...], ...] = ()
    pol_value: float | None = None
    if stat == STAT_ALPHA:
        layouts = polarized_paths(ws)
        pol_layouts = tuple(layouts)
        pol_codes = sorted(canonical_form(path_graph(p)) for p in layouts)
        if sorted(argmax_codes) != pol_codes:
            raise ConsistencyError(f"alpha argmax set differs from the polarized paths for W={ws}")
        pol_vals = [alpha_forest(path_graph(p)) for p in layouts]
        spread = max(pol_vals) - min(pol_vals)
        if spread > EXTREME_GROUP_RTOL * abs(max_value):
            raise ConsistencyError(f"polarized paths do not share one alpha for W={ws}")
        pol_value = max_value
    else:
        for i in argmax:
            if not is_path_graph(family[i]):
                raise ConsistencyError(f"kappa argmax contains a non-path for W={ws}")

    return FamilyReport(
        weights=ws,
        stat=stat,
        family_size=len(family),
        max_value=max_value,
        min_value=min_value,
        argmax_codes=argmax_codes,
        argmin_codes=argmin_codes,
        argmax_trees=tuple(family[i] for i in argmax),
        argmin_trees=tuple(family[i] for i in argmin),
        runner_up_min=runner_up,
        polarized_layouts=pol_layouts,
        polarized_value=pol_value,
    )


def path_kappa_objective(weights_in_order: Sequence[float]) -> float:
    """The triple sum sum_{j<i<k} w_j w_k / w_i, factored to O(m).

    Over orderings of a fixed multiset, Kemeny's constant of the path is
    an increasing affine function of this value, so ranking orders by it
    ranks them by kappa.
    """
    total = 0.0
    for w in weights_in_order:
        if not float(w) > 0.0:
            raise GraphError(f"weights must be positive, got {w}")
        total += w
    left = 0.0
    objective = 0.0
    for w in weights_in_order:
        right = total - left - w
        objective += left * right / w
        left += w
    return objective


def best_path_assignment(weights: Sequence[float]) -> PathSearchResult:
    """Maximize Kemeny's constant over distinct path orderings of W.

    Every distinct ordering is evaluated both by the triple-sum
    objective and by the forest-formula kappa; the two rankings must
    agree, which cross-checks both computations.
    """
    ws = weight_multiset(weights)
    if len(ws) > PATH_SEARCH_MAX:
        raise GraphError(f"path search guarded to {PATH_SEARCH_MAX} weights")
    evaluations = []
    for order in distinct_permutations(ws):
        evaluations.append(
            (order, path_kappa_objective(order), kappa_forest(path_graph(order)))
        )
    _check_rankings_agree(evaluations)
    best = max(evaluations, key=lambda e: (e[2], e[0]))
    return PathSearchResult(
        assignment=best[0],
        kappa=best[2],
        objective=best[1],
        evaluations=tuple(evaluations),
    )


def _check_rankings_agree(evaluations: list[tuple[tuple[float, ...], float, float]]) -> None:
    def check(sorted_evals, other, name):
        for (_, *a), (_, *b) in zip(sorted_evals, sorted_evals[1:]):
            hi, lo = a[other], b[other]
            if lo - hi > RANK_TIE_RTOL * max(abs(hi), abs(lo)):
                raise ConsistencyError(f"kappa and objective rankings disagree ({name})")

    check(sorted(evaluations, key=lambda e: -e[1]), 1, "sorted by objective")
    check(sorted(evaluations, key=lambda e: -e[2]), 0, "sorted by kappa")
