"""(alpha, kappa) in exact rational arithmetic, from the graph's float weights.

Every float is a rational, so ``Fraction(w)`` is the weight itself and the
values below carry no rounding at all. Trees use the edge-cut closed forms;
other graphs invert the reduced Laplacian (the last vertex grounded) by
Gauss-Jordan elimination, practical up to about 14 vertices.
"""

from fractions import Fraction


def _degrees(g):
    d = [Fraction(0)] * g.n
    for u, v, w in g.edges:
        d[u] += Fraction(w)
        d[v] += Fraction(w)
    return d


def tree_stats(g):
    """alpha = vol/n^2 * sum s(n-s)/w and kappa = sum V(vol-V)/w / vol over the
    edges, with s and V the vertex count and volume on one side of the cut."""
    n, d = g.n, _degrees(g)
    vol = sum(d)
    adj = [[] for _ in range(n)]
    for u, v, w in g.edges:
        adj[u].append((v, Fraction(w)))
        adj[v].append((u, Fraction(w)))
    parent, parent_w, order = [-1] * n, [None] * n, [0]
    for x in order:
        for y, w in adj[x]:
            if y != parent[x]:
                parent[y], parent_w[y] = x, w
                order.append(y)
    size, side = [1] * n, list(d)
    a_sum = k_sum = Fraction(0)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
        side[parent[x]] += side[x]
        a_sum += size[x] * (n - size[x]) / parent_w[x]
        k_sum += side[x] * (vol - side[x]) / parent_w[x]
    return vol * a_sum / (n * n), k_sum / vol


def _inverse(m):
    k = len(m)
    rows = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        p = rows[c][c]
        rows[c] = [x / p for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[k:] for row in rows]


def graph_stats(g):
    """From M, the inverse of the Laplacian with the last row and column removed:
    alpha = vol/n^2 * (n tr M - 1'M1) and kappa = sum_u d_u M_uu - d'Md / vol."""
    n, d = g.n, _degrees(g)
    vol = sum(d)
    lap = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
    for u, v, w in g.edges:
        w = Fraction(w)
        for a, b in ((u, v), (v, u)):
            if a < n - 1:
                lap[a][a] += w
                if b < n - 1:
                    lap[a][b] -= w
    m = _inverse(lap)
    trace = sum(m[i][i] for i in range(n - 1))
    total = sum(map(sum, m))
    md = [sum(x * y for x, y in zip(row, d)) for row in m]
    alpha = vol * (n * trace - total) / (n * n)
    kappa = sum(d[i] * m[i][i] for i in range(n - 1)) - sum(x * y for x, y in zip(d, md)) / vol
    return alpha, kappa
