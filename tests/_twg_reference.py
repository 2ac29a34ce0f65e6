"""The TWG reader one line at a time: the reference for ``parse_twg``.

Every line goes through Python's ``str.split``, ``int`` and ``float``,
and the graph through one ``_checked_edge`` call per edge, as the
package read TWG text before its edge lines were read by one
``np.loadtxt`` call and checked as whole arrays. ``parse`` returns
``(n, edges, degrees)``: the edges as the constructor sorts them and
the weighted degrees summed edge by edge in that order.
"""

import math
import operator

from treewalk.errors import GraphError, TwgParseError


def checked_edge(n, u, v, w, seen):
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        raise GraphError(f"vertex indices must be integers, got ({u!r}, {v!r})") from None
    if u == v:
        raise GraphError(f"loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
    w = float(w)
    if not (w > 0.0) or not math.isfinite(w):
        raise GraphError(f"edge ({u}, {v}) weight must be positive and finite, got {w}")
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise GraphError(f"duplicate edge ({key[0]}, {key[1]})")
    seen.add(key)
    return key[0], key[1], w


def build(n, edges):
    """(n, sorted edges, degrees) of a graph, validated edge by edge."""
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    seen = set()
    normalized = tuple(sorted(checked_edge(n, u, v, w, seen) for u, v, w in edges))
    degrees = [0.0] * n
    for u, v, w in normalized:
        degrees[u] += w
        degrees[v] += w
    return n, normalized, tuple(degrees)


def parse(text):
    n = None
    edges = []
    linenos = []

    def error(message, lineno):
        seen = set()
        for at, (u, v, w) in zip(linenos, edges):
            try:
                checked_edge(n, u, v, w, seen)
            except GraphError as exc:
                return TwgParseError(str(exc), at)
        return TwgParseError(message, lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise TwgParseError("expected a single vertex count", lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise TwgParseError(f"invalid vertex count {fields[0]!r}", lineno) from None
            if n < 1:
                raise TwgParseError(f"vertex count must be positive, got {n}", lineno)
            continue
        if len(fields) != 3:
            raise error(f"expected 'u v w', got {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise error(f"invalid vertex index in {line!r}", lineno) from None
        try:
            w = float(fields[2])
        except ValueError:
            raise error(f"invalid weight {fields[2]!r}", lineno) from None
        edges.append((u, v, w))
        linenos.append(lineno)
    if n is None:
        raise TwgParseError("empty input, expected vertex count", 1)
    try:
        return build(n, edges)
    except GraphError as exc:
        raise error(str(exc), linenos[-1]) from None
