"""Shared fixtures: the unlabeled-graph universes, a word-class oracle, a
brute-force coloring count, and readings of an xi term dict."""

from __future__ import annotations

import itertools

import pytest
from networkx.generators.atlas import graph_atlas_g

from ferrersbool import MultiGraph, xi_polynomial


def to_multigraph(nx_graph) -> MultiGraph:
    return MultiGraph.from_pairs(nx_graph.number_of_nodes(), list(nx_graph.edges()))


@pytest.fixture(scope="session")
def atlas_graphs():
    """All graphs on 1..7 vertices, one per isomorphism class."""
    return [
        to_multigraph(g)
        for g in graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 7
    ]


def atlas_up_to(graphs, max_vertices):
    return [g for g in graphs if g.vertex_count <= max_vertices]


def classes_by_sweep(g: MultiGraph, length: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Oracle: bucket every injective word by the breadth-first closure of
    commuting adjacent swaps; map each word to the lex-least of its class."""
    adj = g.adjacency_masks()
    canon: dict[tuple[int, ...], tuple[int, ...]] = {}
    for word in itertools.permutations(range(g.vertex_count), length):
        if word in canon:
            continue
        seen = {word}
        frontier = [word]
        while frontier:
            current = frontier.pop()
            for i in range(length - 1):
                a, b = current[i], current[i + 1]
                if adj[a] >> b & 1:
                    continue
                swapped = current[:i] + (b, a) + current[i + 2 :]
                if swapped not in seen:
                    seen.add(swapped)
                    frontier.append(swapped)
        least = min(seen)
        for member in seen:
            canon[member] = least
    return canon


def xi_at(terms: dict, x: int, y: int, z: int) -> int:
    """Value of an xi term dict at a point."""
    return sum(coef * x**a * y**b * z**c for (a, b, c), coef in terms.items())


def xi_at_y_minus_one(terms: dict) -> dict:
    """An xi term dict with y set to -1, as (x, z) exponent pairs; zero
    coefficients are dropped so equal polynomials compare equal."""
    folded: dict = {}
    for (a, b, c), coef in terms.items():
        folded[(a, c)] = folded.get((a, c), 0) + (-1) ** b * coef
    return {key: coef for key, coef in folded.items() if coef}


def bichromatic_via_xi(g: MultiGraph, x: int, y: int) -> int:
    """The proper/improper coloring count as the substitution xi(G, x, -1, x-y)."""
    return xi_at(xi_polynomial(g), x, -1, x - y)


def bivariate_chromatic_count(g: MultiGraph, x: int, y: int) -> int:
    """Count colorings with y proper and x-y improper colors by brute force.

    A coloring is a map from vertices to x colors; the first y colors are
    proper and may not repeat across an edge.  The cost is x**|G|, so callers
    keep the graphs small.
    """
    if not 0 <= y <= x:
        raise ValueError("need 0 <= y <= x")
    edges = [pair for pair, _ in g.edges]
    count = 0
    for coloring in itertools.product(range(x), repeat=g.vertex_count):
        if all(not (coloring[u] == coloring[v] and coloring[u] < y) for u, v in edges):
            count += 1
    return count
