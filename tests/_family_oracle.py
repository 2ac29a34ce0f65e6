"""Per-row reference for the extremal family scans.

Every free tree shape on |W|+1 vertices crossed with every distinct
permutation of W, one WeightedGraph per row, deduplicated by
canonical_form, with one scalar forests.stats per representative. The
array scans in treewalk.extremal must give the same families, values
and extremes. Also the scalar tree closed form that forests.stats ran
before forests.tree_stats, which must match it bit for bit, and the
per-order path ranking that best_path_assignment ran before it worked on
columns, over the distinct orders that Knuth's Algorithm L lists one at
a time, and the search-path report as one dict per order, which the CLI
built before it wrote the report from the arrays.
"""

import sys

from treewalk.errors import ConsistencyError
from treewalk.extremal import EXTREME_GROUP_RTOL, STAT_ALPHA, weight_multiset
from treewalk.forests import stats, tree_stats
from treewalk.graphs import WeightedGraph, canonical_form, enumerate_free_trees, path_graph, rooted_order, sig12


def distinct_permutations(items):
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


def family(weights):
    """One representative per class, the first row met, sorted by canonical code."""
    ws = weight_multiset(weights)
    n = len(ws) + 1
    perms = list(distinct_permutations(ws))
    reps = {}
    for shape in enumerate_free_trees(n):
        pairs = [(u, v) for u, v, _ in shape.edges]
        for perm in perms:
            t = WeightedGraph(n, tuple((u, v, w) for (u, v), w in zip(pairs, perm)))
            reps.setdefault(canonical_form(t), t)
    return [reps[c] for c in sorted(reps)]


def scan(trees, stat):
    """The FamilyReport fields an extremal scan derives from a family, before its theorem checks."""
    values = [stats(t)[0 if stat == STAT_ALPHA else 1] for t in trees]
    max_value, min_value = max(values), min(values)
    max_cut = max_value - EXTREME_GROUP_RTOL * abs(max_value)
    min_cut = min_value + EXTREME_GROUP_RTOL * abs(min_value)
    argmax = [t for t, v in zip(trees, values) if v >= max_cut]
    argmin = [t for t, v in zip(trees, values) if v <= min_cut]
    return {
        "family_size": len(trees),
        "max_value": max_value,
        "min_value": min_value,
        "runner_up_min": min((v for v in values if v > min_cut), default=min_value),
        "argmax_codes": tuple(canonical_form(t) for t in argmax),
        "argmin_codes": tuple(canonical_form(t) for t in argmin),
        "argmax_trees": tuple(argmax),
        "argmin_trees": tuple(argmin),
    }


def tree_sums(t):
    """(alpha, kappa) of a tree: one rooted pass with in-place scalar updates."""
    n = t.n
    order, parent = rooted_order(t)
    parent_w = [0.0] * n
    for x in order[1:]:
        parent_w[x] = t.weight(x, parent[x])
    size = [1] * n
    inner = [0.0] * n  # total edge weight inside the subtree
    for x in reversed(order[1:]):
        p = parent[x]
        size[p] += size[x]
        inner[p] += inner[x] + parent_w[x]
    vol = t.vol
    s_sum = v_sum = 0.0
    for x in order[1:]:
        w = parent_w[x]
        side_vol = 2.0 * inner[x] + w
        s_sum += size[x] * (n - size[x]) / w
        v_sum += side_vol * (vol - side_vol) / w
    return (vol / (n * n)) * s_sum, v_sum / vol


def path_evaluations(weights):
    """(order, J, kappa) per distinct order, one order at a time: J by the
    scalar loop with in-place updates, kappa by the closed form on that
    order's floats."""
    ws = weight_multiset(weights)
    shape = path_graph([1.0] * len(ws))
    evaluations = []
    for order in distinct_permutations(ws):
        total = 0.0
        for w in order:
            total += w
        left = objective = 0.0
        for w in order:
            right = total - left - w
            objective += left * right / w
            left += w
        evaluations.append((order, objective, tree_stats(shape, order)[1]))
    return evaluations


def check_rankings_agree(evaluations):
    """The ranking cross-check on (order, J, kappa) tuples, by Python sorts;
    the tolerances are taken from the first order."""
    order = evaluations[0][0]
    total = sum(order)
    j_tol = 16 * len(order) * sys.float_info.epsilon * total * total / min(order)
    tols = (j_tol, 2.0 / total * j_tol)

    def check(sorted_evals, other, name):
        for (_, *a), (_, *b) in zip(sorted_evals, sorted_evals[1:]):
            if b[other] - a[other] > tols[other]:
                raise ConsistencyError(f"kappa and objective rankings disagree ({name})")

    check(sorted(evaluations, key=lambda e: -e[1]), 1, "sorted by objective")
    check(sorted(evaluations, key=lambda e: -e[2]), 0, "sorted by kappa")


def path_payload(result):
    """The ``search-path --json`` payload of a PathSearchResult: one dict per
    (order, J, kappa) evaluation, values at 12 significant digits."""
    return {
        "assignment": list(result.assignment),
        "kappa": sig12(result.kappa),
        "objective": sig12(result.objective),
        "evaluations": [
            {"order": list(o), "objective": sig12(j), "kappa": sig12(k)}
            for o, j, k in result.evaluations
        ],
    }
