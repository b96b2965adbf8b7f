"""Graph-level oracles: Ferrers graphs, the boolean number edge recursion, and
the trivariate edge-elimination polynomial xi.

`MultiGraph` is the one graph type: Ferrers graphs, graph files and every
reduction are edge-multiplicity tuples.  The edge recursion and xi are the
same three-way recursion (delete, contract, extract an edge) through the same
private edge operations, and both are step functions of
`recursion._memo_walk`: the memo, on the exact reduced graph, lives inside
one call, and depth is limited by memory, not by the interpreter.  The one xi
step runs over two coefficient rings: dicts from exponent triples (a, b, c) to
the coefficient of x^a y^b z^c for `xi_polynomial`, and integers at the point
(0, -1, 1) for `beta_via_xi`.

These paths are intentionally expensive and take any graph they are given;
they exist to cross-check the triangle engine on desk-scale inputs, and the
one vertex cap on them is ``checks.oracle_graph``'s.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import partial

from .recursion import _memo_walk
from .shapes import FerrersShape


# ---------------------------------------------------------------------------
# the graph value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiGraph:
    """Graph with edge multiplicities.  Loops appear only as contraction
    artifacts; user-facing constructors reject them."""

    vertex_count: int
    edges: tuple[tuple[tuple[int, int], int], ...]  # sorted ((u, v), multiplicity), u <= v

    @classmethod
    def from_pairs(cls, vertex_count, pairs) -> "MultiGraph":
        if vertex_count < 0:
            raise ValueError(f"vertex count {vertex_count} is negative")
        counter: Counter = Counter()
        for u, v in pairs:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            counter[(min(u, v), max(u, v))] += 1
        return cls(vertex_count, tuple(sorted(counter.items())))

    def has_loops(self) -> bool:
        return any(u == v for (u, v), _ in self.edges)

    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for (u, v), _ in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)


def ferrers_graph(shape: FerrersShape) -> MultiGraph:
    """Bipartite graph of a shape: row vertices 0..r-1, column vertices
    r..r+L1-1, with row i joined once to the first L_{i+1} column vertices."""
    r = shape.row_count
    edges = tuple(
        ((i, r + j), 1) for i, length in enumerate(shape.rows) for j in range(length)
    )
    return MultiGraph(r + shape.rows[0], edges)


def parse_edge_list(text: str) -> MultiGraph:
    """Read the CLI graph format: a "n m" header then m lines "u v" (0-based).
    A repeated line, in either order, is read once; `MultiGraph.from_pairs`
    checks the pairs in file order."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty graph text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    pairs: dict = {}  # unordered pair -> its first line, in file order
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        pairs.setdefault((min(u, v), max(u, v)), (u, v))
    return MultiGraph.from_pairs(n, pairs.values())


# ---------------------------------------------------------------------------
# the edge operations
# ---------------------------------------------------------------------------

def _delete(g: MultiGraph, u: int, v: int, copies: int = 1) -> MultiGraph:
    """g with `copies` copies of the present edge (u, v), u <= v, removed."""
    edges = g.edges
    i = next(i for i, (pair, _) in enumerate(edges) if pair == (u, v))
    left = edges[i][1] - copies
    kept = (((u, v), left),) if left > 0 else ()
    return MultiGraph(g.vertex_count, edges[:i] + kept + edges[i + 1 :])


def _remove_vertex(g: MultiGraph, v: int, into: int | None = None) -> MultiGraph:
    """g without vertex v, or with v merged into vertex `into` (its edges move
    to `into`, edges between the two become loops); higher vertices move down."""
    merged: dict = {}
    for (a, b), m in g.edges:
        if a == v or b == v:
            if into is None:
                continue
            a, b = (into if a == v else a), (into if b == v else b)
            if a > b:
                a, b = b, a
        pair = (a - (a > v), b - (b > v))
        merged[pair] = merged.get(pair, 0) + m
    return MultiGraph(g.vertex_count - 1, tuple(sorted(merged.items())))


def _contract(g: MultiGraph, u: int, v: int, copies: int = 1) -> MultiGraph:
    """Remove copies of the edge (u, v) and merge v into u; contracting a loop
    only deletes it."""
    deleted = _delete(g, min(u, v), max(u, v), copies)
    return deleted if u == v else _remove_vertex(deleted, v, into=u)


def _extract(g: MultiGraph, u: int, v: int) -> MultiGraph:
    """g without both endpoints of the edge (u, v), u <= v, and their edges."""
    g = _remove_vertex(g, v)
    return g if u == v else _remove_vertex(g, u)


# ---------------------------------------------------------------------------
# boolean number by edge recursion
# ---------------------------------------------------------------------------

def _beta(g: MultiGraph):
    n = g.vertex_count
    if n == 0:
        return 1
    degree = [0] * n
    for (a, b), _ in g.edges:
        degree[a] += 1
        degree[b] += 1
    u = min(range(n), key=degree.__getitem__)
    if degree[u] == 0:
        return 0
    # Edges are sorted, so the first one at u joins it to its lowest neighbour.
    # Parallel copies do not change beta: every copy goes at once, and the
    # contraction leaves no loops.
    e, copies = next(item for item in g.edges if u in item[0])
    v = e[1] if e[0] == u else e[0]
    return (
        (yield _delete(g, *e, copies))
        + (yield _contract(g, u, v, copies))
        + (yield _extract(g, *e))
    )


def beta_edge_recursion(g: MultiGraph) -> int:
    """beta(G) by the generic three-way edge recursion.

    Exponential by design, with no cap of its own.  The pivot rule is fixed,
    with no option: the edge from a minimum-degree vertex (lowest index on
    ties) to its lowest neighbour, which drives quickly toward the
    isolated-vertex short circuit.  It shares the edge operations and the
    memoised walk with `xi_polynomial`.
    """
    return _memo_walk(g, _beta, {})


# ---------------------------------------------------------------------------
# xi, the edge-elimination polynomial, over two rings
# ---------------------------------------------------------------------------

_Terms = dict[tuple[int, int, int], int]


def _combine(deleted: _Terms, contracted: _Terms, extracted: _Terms) -> _Terms:
    """deleted + y*contracted + z*extracted as a new dict; shared memo entries stay."""
    out = dict(deleted)
    for (a, b, c), k in contracted.items():
        out[a, b + 1, c] = out.get((a, b + 1, c), 0) + k
    for (a, b, c), k in extracted.items():
        out[a, b, c + 1] = out.get((a, b, c + 1), 0) + k
    return out


def _product(p: _Terms, q: _Terms) -> _Terms:
    """p * q as a new term dict, one term per pair of terms."""
    out: _Terms = {}
    for (a1, b1, c1), k1 in p.items():
        for (a2, b2, c2), k2 in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + k1 * k2
    return out


# An xi ring: (the value of n isolated vertices, the product of component values,
# the pivot's join of its deleted, contracted and extracted values).  Evaluation is
# a ring map, so _POINT runs the same step on integers at (x, y, z) = (0, -1, 1).
_POLYNOMIAL = (lambda n: {(n, 0, 0): 1}, _product, _combine)
_POINT = (lambda n: int(n == 0), operator.mul, lambda d, c, e: d - c + e)


def _components(g: MultiGraph) -> list[MultiGraph]:
    parent = list(range(g.vertex_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (u, v), _ in g.edges:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(find(v), []).append(v)
    if len(groups) == 1:  # connected: the step splits nothing
        return [g]
    comps = []
    for members in sorted(groups.values()):
        index = {v: i for i, v in enumerate(members)}
        sub = tuple(((index[a], index[b]), m) for (a, b), m in g.edges if a in index)
        comps.append(MultiGraph(len(members), sub))
    return comps


def _xi(ring, g: MultiGraph):
    edgeless, product, combine = ring
    if not g.edges:
        return edgeless(g.vertex_count)
    comps = _components(g)
    if len(comps) > 1:
        value = edgeless(0)
        for comp in comps:
            value = product(value, (yield comp))
        return value
    # Loops first, then the most parallel edge; the lowest pair on ties.
    # A loop contracts to its deletion, so its first two terms share a graph.
    (u, v), _ = min(g.edges, key=lambda item: (item[0][0] != item[0][1], -item[1]))
    deleted, contracted = (yield _delete(g, u, v)), (yield _contract(g, u, v))
    return combine(deleted, contracted, (yield _extract(g, u, v)))


def _xi_walk(g: MultiGraph, ring):
    if g.has_loops():
        raise ValueError("input graph must be loop-free")
    return _memo_walk(g, partial(_xi, ring), {})


def xi_polynomial(g: MultiGraph) -> _Terms:
    """The edge-elimination polynomial of a loop-free (multi)graph, as a new
    dict from exponent triples (a, b, c) to the coefficient of x^a y^b z^c.
    Every stored coefficient is positive; absent triples are zero.

    Recursion: xi(G) = xi(G-e) + y*xi(G contracted at e) + z*xi(G-[e]),
    multiplicative over disjoint unions, with x per isolated vertex.  Loops
    arise only from contracting parallel edges; such a loop deletes or
    contracts to the same loop-free reduction (factor 1 + y) and extracts to
    the graph without its vertex, the standard convention for this recursion.
    """
    return _xi_walk(g, _POLYNOMIAL)


def beta_via_xi(g: MultiGraph) -> int:
    """beta(G) = (-1)**|G| * xi(G, 0, -1, 1) for a loop-free (multi)graph: the
    step of `xi_polynomial` runs at that point on integers, building no dict."""
    return (-1) ** g.vertex_count * _xi_walk(g, _POINT)
