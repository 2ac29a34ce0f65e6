"""The conjecture scan and its reports as they were built before the CLI
wrote them from the verdict arrays: one (i, j, verdict, witness) per
ordered pair of trees from the broadcast count matrix, one (code_a,
code_b, verdict, witness) tuple per pair, the payload dict of
``conjecture --json`` written by ``json.dumps(indent=2, sort_keys=True)``,
and the text report's lines. ``report_pairs`` and ``report_alphas`` read
the same tuples off a scan report's arrays.

The alphas are exact: ``_exact_stats.tree_stats`` in Fraction arithmetic,
not the Wiener index the scan uses. Violations are decided on those
Fractions, and each report prints its Fraction correctly rounded.
"""

import json
from fractions import Fraction

import numpy as np

from _exact_stats import tree_stats
from treewalk.graphs import _free_tree_classes, sig12
from treewalk.homorder import (
    DOMINATED,
    DOMINATES,
    EQUAL,
    INCOMPARABLE,
    VERDICTS,
    _hom_matrix,
)


def exact_alpha(t):
    """alpha of a tree as a Fraction; one vertex gives 0, where the closed
    form's kappa would divide 0 by 0."""
    return tree_stats(t)[0] if t.n > 1 else Fraction(0)


def pair_verdicts(counts):
    """(i, j, verdict, witness) for every ordered pair of distinct rows, row by row."""
    a, b = counts[:, None], counts[None]
    differ = a != b
    # an empty corpus separates nothing, and argmax cannot search an empty axis
    at = differ.argmax(axis=2) if counts.shape[1] else np.zeros(differ.shape[:2], dtype=np.intp)
    kind = np.select(
        [~differ.any(axis=2), (a >= b).all(axis=2), (a <= b).all(axis=2)], [0, 1, 2], default=3
    ).tolist()
    at = at.tolist()
    rows = counts.tolist()
    names = (EQUAL, DOMINATES, DOMINATED, INCOMPARABLE)
    for i, row in enumerate(rows):
        for j, other in enumerate(rows):
            if i == j:
                continue
            k = kind[i][j]
            f = at[i][j]
            yield i, j, names[k], None if k == 0 else (f, row[f], other[f])


def report_pairs(report):
    """(code_a, code_b, verdict, witness) per ordered pair of a scan report's
    verdict arrays, row by row; the witness is (graph, hom_a, hom_b), or None
    on an equal-on-corpus pair."""
    codes = report.codes
    cells = zip(*(x.tolist() for x in (report.a, report.b, report.kind, report.graph, report.hom_a, report.hom_b)))
    return tuple(
        (codes[i], codes[j], VERDICTS[k], (g, x, y) if k else None) for i, j, k, g, x, y in cells
    )


def report_alphas(report):
    """(code, alpha) per tree of a scan report, in code order."""
    return tuple(zip(report.codes, report.alpha.tolist()))


def scan(n, corpus):
    """(pairs, alphas, violations) of the scan of the free trees on n vertices, pair by pair."""
    codes, trees = zip(*_free_tree_classes(n))
    exact = [exact_alpha(t) for t in trees]
    alphas = [float(a) for a in exact]
    pairs = []
    violations = []
    for i, j, verdict, witness in pair_verdicts(_hom_matrix(trees, corpus)):
        pairs.append((codes[i], codes[j], verdict, witness))
        if verdict == DOMINATES and exact[j] < exact[i]:
            violations.append((codes[i], codes[j], alphas[i], alphas[j]))
    return tuple(pairs), tuple(zip(codes, alphas)), tuple(violations)


def payload(n, corpus):
    """The ``conjecture --json`` payload, one dict per pair."""
    pairs, alphas, violations = scan(n, corpus)
    return {
        "tree_size": n,
        "corpus_size": len(corpus),
        "alphas": [{"code": c, "alpha": sig12(a)} for c, a in alphas],
        "pairs": [
            {
                "a": a,
                "b": b,
                "verdict": verdict,
                "witness": None
                if witness is None
                else {"graph": witness[0], "hom_a": witness[1], "hom_b": witness[2]},
            }
            for a, b, verdict, witness in pairs
        ],
        "violations": [{"a": a, "b": b, "alpha_a": aa, "alpha_b": ab} for a, b, aa, ab in violations],
    }


def json_report(n, corpus):
    """The ``conjecture --json`` stdout."""
    return json.dumps(payload(n, corpus), indent=2, sort_keys=True) + "\n"


def text_report(n, corpus):
    """The ``conjecture`` text stdout."""
    pairs, alphas, violations = scan(n, corpus)
    dominant = sum(1 for _, _, verdict, _ in pairs if verdict == "dominates")
    lines = [
        f"trees of size {n}: {len(alphas)}; corpus graphs: {len(corpus)}",
        f"ordered pairs: {len(pairs)}; corpus-dominant: {dominant}",
        f"violations: {len(violations)}",
    ]
    for a, b, aa, ab in violations:
        lines.append(f"  violation: alpha {aa:.9g} -> {ab:.9g} (corpus false positive suspected)")
    return "".join(line + "\n" for line in lines)
