"""Independent reference values the benchmark checks every output against.

Nothing here imports treewalk. Trees use the O(n) edge-cut closed forms
summed with ``math.fsum``; general graphs use effective resistances from
one grounded Laplacian solve (alpha = vol * tr(L+) / n, Kemeny =
sum_u d(u) L+[u,u] - d^T L+ d / vol), a different formula from all three
program routes. Frozen values that no formula gives (family sizes, hom
scan verdicts, Monte Carlo bit patterns) live in ``golden.json``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import permutations
from pathlib import Path

RTOL = 1e-7  # the acceptance suite's agreement gate
MC_SIGMAS = 5.0

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# non-isomorphic free trees on 1..10 vertices (OEIS A000055)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


def close(got: float, want: float, rtol: float = RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _rooted(n: int, edges):
    """BFS order from vertex 0 with parent and parent-edge weight."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent, parent_w, order = [-1] * n, [0.0] * n, [0]
    seen = [False] * n
    seen[0] = True
    for x in order:
        for y, w in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y], parent_w[y] = x, w
                order.append(y)
    return adj, parent, parent_w, order


def tree_stats(n: int, edges) -> tuple[float, float]:
    """(alpha, kappa) of a weighted tree from its edge cuts.

    Cutting edge e leaves sides of s and n - s vertices with ambient
    volumes V_e and vol - V_e; then alpha = vol/n^2 * sum s(n-s)/w_e and
    kappa = sum V_e (vol - V_e) / w_e / vol.
    """
    if n == 1:
        return 0.0, 0.0
    _, parent, parent_w, order = _rooted(n, edges)
    size = [1] * n
    inner = [[] for _ in range(n)]  # edge weights inside each subtree
    for x in reversed(order[1:]):
        p = parent[x]
        size[p] += size[x]
        inner[p].extend(inner[x])
        inner[p].append(parent_w[x])
    vol = 2.0 * math.fsum(w for _, _, w in edges)
    a_terms, k_terms = [], []
    for x in order[1:]:
        w = parent_w[x]
        side = 2.0 * math.fsum(inner[x]) + w
        a_terms.append(size[x] * (n - size[x]) / w)
        k_terms.append(side * (vol - side) / w)
    return vol / (n * n) * math.fsum(a_terms), math.fsum(k_terms) / vol


def tree_hitting_times(n: int, edges) -> list[list[float]]:
    """h[u][v] for a weighted tree: h(x, y) = (2 W(T_x) + w) / w per edge, added along paths."""
    adj, parent, parent_w, order = _rooted(n, edges)
    inner = [0.0] * n
    for x in reversed(order[1:]):
        inner[parent[x]] += inner[x] + parent_w[x]
    total = sum(w for _, _, w in edges)
    step = {}  # (x, y) -> hitting time across the edge from x to neighbour y
    for x in order[1:]:
        p, w = parent[x], parent_w[x]
        step[(x, p)] = (2.0 * inner[x] + w) / w
        step[(p, x)] = (2.0 * (total - inner[x] - w) + w) / w
    h = [[0.0] * n for _ in range(n)]
    for v in range(n):  # walk outwards from the target
        stack = [v]
        seen = {v}
        while stack:
            y = stack.pop()
            for x, _ in adj[y]:
                if x not in seen:
                    seen.add(x)
                    h[x][v] = step[(x, y)] + h[y][v]
                    stack.append(x)
    return h


def complete_stats(n: int) -> tuple[float, float]:
    """K_n with equal weights: alpha = kappa = (n - 1)^2 / n."""
    v = (n - 1) ** 2 / n
    return v, v


def graph_stats(n: int, edges) -> tuple[float, float]:
    """(alpha, kappa) of a connected graph from effective resistances."""
    import numpy as np

    lap = np.zeros((n, n))
    for u, v, w in edges:
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    d = np.diag(lap).copy()
    lplus = np.linalg.inv(lap + 1.0 / n) - 1.0 / n
    vol = math.fsum(d)
    alpha = vol * math.fsum(np.diag(lplus)) / n
    kappa = math.fsum(d * np.diag(lplus)) - math.fsum(d * (lplus @ d)) / vol
    return alpha, kappa


def path_extremes(weights, stat: str) -> float:
    """Largest alpha or kappa over path orderings, which is the family maximum."""
    k = 0 if stat == "alpha" else 1
    return max(
        tree_stats(len(order) + 1, [(i, i + 1, w) for i, w in enumerate(order)])[k]
        for order in set(permutations(weights))
    )


def path_objective(order) -> float:
    """sum over j < i < k of w_j w_k / w_i, term by term."""
    m = len(order)
    return math.fsum(
        order[j] * order[k] / order[i]
        for i in range(m)
        for j in range(i)
        for k in range(i + 1, m)
    )


def star_code(weights) -> str:
    """Canonical code the program gives a star: centre root, sorted leaf codes."""
    return "(|" + "".join(sorted(f"({format(w, '.12g')}|)" for w in weights)) + ")"


def pattern(weights) -> str:
    """Multiplicity pattern of a weight multiset, e.g. '2,2,2,1'."""
    return ",".join(str(c) for c in sorted(Counter(weights).values(), reverse=True))


def order_count(weights) -> int:
    out = math.factorial(len(weights))
    for c in Counter(weights).values():
        out //= math.factorial(c)
    return out
