import itertools
import random

import pytest

from ferrersbool import (
    GraphTooLarge,
    MultiGraph,
    beta_edge_recursion,
    beta_triangle,
    beta_via_xi,
    checks,
    ferrers_graph,
    graphs,
    parse_edge_list,
    parse_shape,
    rectangle,
    xi_polynomial,
)

from .conftest import atlas_up_to, bichromatic_via_xi, bivariate_chromatic_count, xi_at


def complete_graph(n):
    return MultiGraph.from_pairs(n, itertools.combinations(range(n), 2))


def test_ferrers_graph_structure():
    g = ferrers_graph(parse_shape("4,4,2"))
    assert g.vertex_count == 7
    # rows 0..2 join the first 4, 4 and 2 columns 3..6; no other pair is joined
    pairs = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4)]
    assert g.edges == tuple((pair, 1) for pair in pairs)


def test_ferrers_graph_star_and_rectangle():
    star = ferrers_graph(parse_shape("5"))
    assert star.vertex_count == 6
    assert star.edges == tuple(((0, j), 1) for j in range(1, 6))
    krk = ferrers_graph(rectangle(2, 3))
    assert krk.edges == tuple(
        (pair, 1) for pair in [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    )
    isolated = ferrers_graph(parse_shape("2,0"))
    assert isolated.vertex_count == 4
    assert isolated.edges == (((0, 2), 1), ((0, 3), 1))


def test_edge_operations():
    # the private operations behind the edge recursion and xi
    k2 = MultiGraph.from_pairs(2, [(0, 1)])
    assert graphs._extract(k2, 0, 1).vertex_count == 0

    path = MultiGraph.from_pairs(3, [(0, 1), (1, 2)])
    contracted = graphs._contract(path, 0, 1)
    assert contracted.vertex_count == 2 and contracted.edges == (((0, 1), 1),)

    k3 = MultiGraph.from_pairs(3, itertools.combinations(range(3), 2))
    assert graphs._contract(k3, 0, 1).edges == (((0, 1), 2),)

    assert graphs._delete(k2, 0, 1).edges == ()
    multi = MultiGraph.from_pairs(2, [(0, 1), (0, 1)])
    assert graphs._delete(multi, 0, 1).edges == (((0, 1), 1),)


def test_contraction_keeps_loops_from_parallel_pairs():
    double = MultiGraph.from_pairs(2, [(0, 1), (0, 1)])
    looped = graphs._contract(double, 0, 1)
    assert looped.vertex_count == 1 and looped.edges == (((0, 0), 1),)
    # contracting the loop only deletes it
    assert graphs._contract(looped, 0, 0) == MultiGraph(1, ())


def test_beta_edge_recursion_bases():
    assert beta_edge_recursion(MultiGraph.from_pairs(0, [])) == 1
    for n in range(1, 5):
        assert beta_edge_recursion(MultiGraph.from_pairs(n, [])) == 0
    assert beta_edge_recursion(ferrers_graph(parse_shape("2,2"))) == 5
    assert beta_edge_recursion(ferrers_graph(parse_shape("2,0"))) == 0


def test_beta_edge_recursion_cap():
    big = ferrers_graph(parse_shape("12,1"))
    assert big.vertex_count == 14
    with pytest.raises(GraphTooLarge):
        checks.oracle_beta("edge", big)
    assert checks.oracle_beta("edge", big, 14) == beta_triangle(parse_shape("12,1"))


def test_edge_recursion_relabelling_invariance(atlas_graphs):
    # The pivot is a minimum-degree vertex, lowest index on ties, so
    # relabelling moves it; beta must not depend on that choice.
    rng = random.Random(20080815)
    for g in atlas_up_to(atlas_graphs, 6):
        expected = beta_edge_recursion(g)
        for _ in range(3):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            relabelled = MultiGraph.from_pairs(
                g.vertex_count, [(perm[u], perm[v]) for (u, v), _ in g.edges]
            )
            assert beta_edge_recursion(relabelled) == expected


def test_xi_rejects_loops():
    looped = MultiGraph(1, (((0, 0), 1),))
    with pytest.raises(ValueError):
        xi_polynomial(looped)
    with pytest.raises(ValueError):
        beta_via_xi(looped)


def test_beta_via_xi_examples():
    k2 = MultiGraph.from_pairs(2, [(0, 1)])
    assert beta_via_xi(k2) == 1
    assert beta_via_xi(MultiGraph.from_pairs(1, [])) == 0
    assert beta_via_xi(ferrers_graph(parse_shape("3,2,1"))) == 8


def test_beta_is_not_xi_at_0_1_1():
    # smallest counterexample found by searching graphs in atlas order
    k3 = complete_graph(3)
    assert beta_edge_recursion(k3) == 2
    assert xi_at(xi_polynomial(k3), 0, 1, 1) == 4


def test_bivariate_chromatic_examples():
    one_vertex = MultiGraph.from_pairs(1, [])
    for x in range(4):
        for y in range(x + 1):
            assert bivariate_chromatic_count(one_vertex, x, y) == x
    k2 = MultiGraph.from_pairs(2, [(0, 1)])
    assert bivariate_chromatic_count(k2, 2, 2) == 2
    assert bivariate_chromatic_count(k2, 2, 1) == 3
    # closed form x**2 - y for a single edge
    for x in range(4):
        for y in range(x + 1):
            assert bivariate_chromatic_count(k2, x, y) == x * x - y
    with pytest.raises(ValueError):
        bivariate_chromatic_count(k2, 1, 2)


def test_bichromatic_via_xi_examples():
    k2 = MultiGraph.from_pairs(2, [(0, 1)])
    assert bichromatic_via_xi(k2, 2, 2) == 2
    assert bichromatic_via_xi(k2, 0, -1) == 1
    for n in range(1, 4):
        empty = MultiGraph.from_pairs(n, [])
        for x in range(4):
            assert bichromatic_via_xi(empty, x, min(x, 1)) == x**n


def test_beta_via_bichromatic_at_0_minus_1(atlas_graphs):
    for g in atlas_up_to(atlas_graphs, 5):
        lhs = beta_edge_recursion(g)
        assert lhs == (-1) ** g.vertex_count * bichromatic_via_xi(g, 0, -1)


def test_all_methods_agree_on_seven_vertex_atlas(atlas_graphs):
    from ferrersbool import beta_via_rank

    for g in atlas_graphs:
        expected = beta_edge_recursion(g)
        # the polynomial at the point bichromatic_via_xi(g, 0, -1) reads, and
        # the same xi step run on integers at that point
        assert (-1) ** g.vertex_count * xi_at(xi_polynomial(g), 0, -1, 1) == expected
        assert beta_via_xi(g) == expected
        assert beta_via_rank(g) == expected


def test_parse_edge_list():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g.vertex_count == 4 and g.edges == (((0, 1), 1), ((1, 2), 1), ((2, 3), 1))
    # a repeated line, in either order, is read once
    assert parse_edge_list("2 2\n0 1\n1 0\n").edges == (((0, 1), 1),)
    # MultiGraph.from_pairs is the one range check; it names the file's own pair
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) out of range$"):
        parse_edge_list("2 1\n0 2\n")
    with pytest.raises(ValueError, match=r"^edge \(2, 0\) out of range$"):
        parse_edge_list("2 1\n2 0\n")
    with pytest.raises(ValueError):
        parse_edge_list("2 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n1 1\n")


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError):
        parse_edge_list("-1 0")
    with pytest.raises(ValueError):
        MultiGraph.from_pairs(-1, [])
