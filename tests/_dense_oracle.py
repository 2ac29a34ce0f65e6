"""Degrees and dense matrices built edge by edge from the edge tuples.

The references for ``WeightedGraph.degrees`` (one ``np.bincount`` over
the edge columns) and for ``walks.adjacency_matrix`` and
``walks.laplacian`` (filled from those columns): the weighted degrees
added in a Python loop over ``edges``, the adjacency matrix from one
``np.fromiter`` over the flattened tuples, and the Laplacian as
``diag(d) - A``, as the package built them before it kept the columns.
"""

from itertools import chain

import numpy as np


def loop_degrees(g):
    d = [0.0] * g.n
    for u, v, w in g.edges:
        d[u] += w
        d[v] += w
    return tuple(d)


def loop_vol(g):
    total = 0.0
    for d in loop_degrees(g):
        total += d
    return total


def fromiter_adjacency(g):
    e = np.fromiter(chain.from_iterable(g.edges), float, count=3 * len(g.edges))
    u, v, w = e[0::3].astype(np.intp), e[1::3].astype(np.intp), e[2::3]
    a = np.zeros((g.n, g.n))
    a[u, v] = w
    a[v, u] = w
    return a


def reference_laplacian(g):
    return np.diag(np.array(loop_degrees(g))) - fromiter_adjacency(g)
