import itertools
import random

import pytest

from ferrersbool import (
    EdgeNotPresent,
    GraphTooLarge,
    MultiGraph,
    SimpleGraph,
    TrivariatePolynomial,
    beta_edge_recursion,
    beta_triangle,
    beta_via_xi,
    bichromatic_via_xi,
    bivariate_chromatic_count,
    contract_edge,
    delete_edge,
    extract_edge,
    ferrers_graph,
    parse_edge_list,
    parse_shape,
    rectangle,
    simple_contract_edge,
    xi_polynomial,
)

from .conftest import atlas_up_to


def complete_graph(n):
    return SimpleGraph.from_edges(n, itertools.combinations(range(n), 2))


def test_ferrers_graph_structure():
    g = ferrers_graph(parse_shape("4,4,2"))
    assert g.vertex_count == 7
    assert g.degrees() == (4, 4, 2, 3, 3, 2, 2)
    assert g.has_edge(0, 6) and g.has_edge(2, 4) and not g.has_edge(2, 5)
    # the two sides are independent sets
    assert all(not g.has_edge(u, v) for u, v in itertools.combinations(range(3), 2))
    assert all(not g.has_edge(u, v) for u, v in itertools.combinations(range(3, 7), 2))


def test_ferrers_graph_star_and_rectangle():
    star = ferrers_graph(parse_shape("5"))
    assert star.vertex_count == 6 and star.degrees() == (5, 1, 1, 1, 1, 1)
    krk = ferrers_graph(rectangle(2, 3))
    assert sorted(krk.edge_list()) == [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    isolated = ferrers_graph(parse_shape("2,0"))
    assert isolated.degrees() == (2, 0, 1, 1)


def test_edge_operations():
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert extract_edge(k2, (0, 1)).vertex_count == 0

    path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    contracted = contract_edge(path, (0, 1))
    assert contracted.vertex_count == 2 and contracted.edges == (((0, 1), 1),)

    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tri = simple_contract_edge(c4, (0, 1))
    assert tri.vertex_count == 3 and len(tri.edges) == 3

    k3 = complete_graph(3)
    doubled = contract_edge(k3, (0, 1))
    assert doubled.edges == (((0, 1), 2),)
    assert simple_contract_edge(k3, (0, 1)).edges == frozenset({(0, 1)})

    assert delete_edge(k2, (0, 1)).edges == frozenset()
    multi = MultiGraph.from_pairs(2, [(0, 1), (0, 1)])
    assert delete_edge(multi, (0, 1)).edges == (((0, 1), 1),)

    with pytest.raises(EdgeNotPresent):
        delete_edge(SimpleGraph.from_edges(3, [(0, 1)]), (1, 2))
    with pytest.raises(EdgeNotPresent):
        contract_edge(path, (0, 2))
    with pytest.raises(EdgeNotPresent):
        extract_edge(multi, (1, 1))


def test_contraction_keeps_loops_from_parallel_pairs():
    double = MultiGraph.from_pairs(2, [(0, 1), (0, 1)])
    looped = contract_edge(double, (0, 1))
    assert looped.vertex_count == 1 and looped.edges == (((0, 0), 1),)


def test_beta_edge_recursion_bases():
    assert beta_edge_recursion(SimpleGraph.from_edges(0, [])) == 1
    for n in range(1, 5):
        assert beta_edge_recursion(SimpleGraph.from_edges(n, [])) == 0
    assert beta_edge_recursion(ferrers_graph(parse_shape("2,2"))) == 5
    assert beta_edge_recursion(ferrers_graph(parse_shape("2,0"))) == 0


def test_beta_edge_recursion_cap():
    big = ferrers_graph(parse_shape("12,1"))
    assert big.vertex_count == 14
    with pytest.raises(GraphTooLarge):
        beta_edge_recursion(big)
    assert beta_edge_recursion(big, max_vertices=14) == beta_triangle(parse_shape("12,1"))


def test_edge_recursion_relabelling_invariance(atlas_graphs):
    # The pivot is a minimum-degree vertex, lowest index on ties, so
    # relabelling moves it; beta must not depend on that choice.
    rng = random.Random(20080815)
    for g in atlas_up_to(atlas_graphs, 6):
        expected = beta_edge_recursion(g)
        for _ in range(3):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            relabelled = SimpleGraph.from_edges(
                g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges]
            )
            assert beta_edge_recursion(relabelled) == expected


def test_xi_base_cases():
    x = TrivariatePolynomial.monomial(1, 1, 0, 0)
    y = TrivariatePolynomial.monomial(1, 0, 1, 0)
    z = TrivariatePolynomial.monomial(1, 0, 0, 1)
    for n in range(4):
        assert xi_polynomial(SimpleGraph.from_edges(n, [])) == TrivariatePolynomial.monomial(
            1, n, 0, 0
        )
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert xi_polynomial(k2) == x * x + x * y + z


def test_xi_rejects_loops():
    looped = MultiGraph(1, (((0, 0), 1),))
    with pytest.raises(ValueError):
        xi_polynomial(looped)


def test_beta_via_xi_examples():
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert beta_via_xi(k2) == 1
    assert beta_via_xi(SimpleGraph.from_edges(1, [])) == 0
    assert beta_via_xi(ferrers_graph(parse_shape("3,2,1"))) == 8


def test_parallel_edge_lemma_at_y_minus_one():
    samples = [
        SimpleGraph.from_edges(2, [(0, 1)]),
        SimpleGraph.from_edges(3, [(0, 1), (1, 2)]),
        SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        complete_graph(4),
    ]
    for g in samples:
        base = xi_polynomial(g).substitute_y(-1)
        for extra in g.edge_list():
            pairs = list(g.edge_list()) + [extra]
            doubled = MultiGraph.from_pairs(g.vertex_count, pairs)
            assert xi_polynomial(doubled).substitute_y(-1) == base


def test_beta_is_not_xi_at_0_1_1():
    # smallest counterexample found by searching graphs in atlas order
    k3 = complete_graph(3)
    assert beta_edge_recursion(k3) == 2
    assert xi_polynomial(k3).evaluate(0, 1, 1) == 4


def test_bivariate_chromatic_examples():
    one_vertex = SimpleGraph.from_edges(1, [])
    for x in range(4):
        for y in range(x + 1):
            assert bivariate_chromatic_count(one_vertex, x, y) == x
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert bivariate_chromatic_count(k2, 2, 2) == 2
    assert bivariate_chromatic_count(k2, 2, 1) == 3
    # closed form x**2 - y for a single edge
    for x in range(4):
        for y in range(x + 1):
            assert bivariate_chromatic_count(k2, x, y) == x * x - y
    with pytest.raises(ValueError):
        bivariate_chromatic_count(k2, 1, 2)
    with pytest.raises(GraphTooLarge):
        bivariate_chromatic_count(complete_graph(9), 2, 1)


def test_bichromatic_via_xi_examples():
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert bichromatic_via_xi(k2, 2, 2) == 2
    assert bichromatic_via_xi(k2, 0, -1) == 1
    for n in range(1, 4):
        empty = SimpleGraph.from_edges(n, [])
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
        # the point both beta_via_xi and bichromatic_via_xi(g, 0, -1) evaluate
        assert (-1) ** g.vertex_count * xi_polynomial(g).evaluate(0, -1, 1) == expected
        assert beta_via_rank(g) == expected


def test_parse_edge_list():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g.vertex_count == 4 and g.edge_list() == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 2\n")
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
        SimpleGraph(-1, frozenset())
    with pytest.raises(ValueError):
        MultiGraph.from_pairs(-1, [])


def test_trivariate_polynomial_algebra():
    x = TrivariatePolynomial.monomial(1, 1, 0, 0)
    y = TrivariatePolynomial.monomial(1, 0, 1, 0)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.evaluate(3, 2, 0) == 5
    assert (p - p) == TrivariatePolynomial.zero()
    assert repr(x * x + 2 * y) in {"2*y + x^2", "x^2 + 2*y"}
    folded = (x * y + x).substitute_y(-1)
    assert folded == TrivariatePolynomial.zero()
