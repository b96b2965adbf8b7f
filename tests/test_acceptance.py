"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines as
they complete.  All comparisons are exact integer equality; the only
tolerances are the stated wall-clock budgets.
"""

import itertools
import random
import time
from contextlib import contextmanager

from ferrersbool import (
    GraphTooLarge,
    MultiGraph,
    SimpleGraph,
    TrivariatePolynomial,
    beta_complete_bipartite,
    beta_edge_recursion,
    beta_row_recursion,
    beta_staircase_closed,
    beta_triangle,
    beta_via_rank,
    beta_via_xi,
    bichromatic_via_xi,
    bivariate_chromatic_count,
    chat_gf_check,
    enumerate_shapes,
    ferrers_graph,
    genocchi2,
    genocchi_ls_identity,
    instrumented_gamma,
    legendre_stirling,
    legendre_stirling_via_triangle,
    parse_shape,
    random_shape,
    rectangle,
    staircase,
    xi_polynomial,
)
from ferrersbool.triangle import iter_row_values

from .conftest import atlas_up_to
from .reference_tables import STAIRCASE_BETAS, TRIANGLE_MIXED, TRIANGLE_STAIRCASE7

SHAPE_MIXED = parse_shape("7,7,7,6,4,4,2")


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {description}")
        raise
    print(f"[criterion {number:2d}] PASS {description}")


def test_criterion_01_table_fidelity():
    with criterion(1, "reference triangles reproduced exactly in under 1 ms"):
        assert tuple(iter_row_values(SHAPE_MIXED)) == TRIANGLE_MIXED
        assert tuple(iter_row_values(staircase(7, 1))) == TRIANGLE_STAIRCASE7

        def best_of(shape, repeats=5):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                tuple(iter_row_values(shape))
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of(SHAPE_MIXED) < 1e-3
        assert best_of(staircase(7, 1)) < 1e-3


def test_criterion_02_oracle_equivalence():
    with criterion(2, "five methods agree on all shapes with <= 9 cells"):
        t0 = time.perf_counter()
        shapes = list(enumerate_shapes(9, allow_zero_rows=True))
        assert len(shapes) > 150
        for shape in shapes:
            expected = beta_triangle(shape)
            assert beta_row_recursion(shape) == expected, shape
            g = ferrers_graph(shape)
            assert g.vertex_count <= 12
            assert beta_edge_recursion(g, max_vertices=12) == expected, shape
            assert beta_via_rank(g, max_vertices=12) == expected, shape
            assert beta_via_xi(g) == expected, shape
        assert time.perf_counter() - t0 < 300


def test_criterion_03_staircase_genocchi():
    with criterion(3, "staircase betas are the Genocchi numbers (r <= 10)"):
        for r in range(1, 11):
            tri = beta_triangle(staircase(r, 1))
            assert tri == genocchi2(r) == beta_staircase_closed(r)
        for r, expected in enumerate(STAIRCASE_BETAS, start=1):
            assert beta_triangle(staircase(r, 1)) == expected


def test_criterion_04_legendre_stirling():
    with criterion(4, "both Legendre-Stirling routes agree; weighted identity holds"):
        for i in range(1, 11):
            for j in range(1, i + 1):
                assert legendre_stirling(i, j) == legendre_stirling_via_triangle(i, j)
        for r in range(1, 13):
            lhs, rhs = genocchi_ls_identity(r)
            assert lhs == rhs


def test_criterion_05_complete_bipartite():
    with criterion(5, "Stirling formula matches the triangle on rectangles (r,k <= 8)"):
        for r in range(1, 9):
            for k in range(1, 9):
                assert beta_complete_bipartite(r, k) == beta_triangle(rectangle(r, k))
        assert beta_complete_bipartite(2, 2) == 5
        assert beta_via_rank(ferrers_graph(rectangle(2, 2))) == 5


def test_criterion_06_complexity_reproduction():
    with criterion(6, "multiplication count exact on 1000 shapes; n^2/4 + O(n) bound"):
        rng = random.Random(20260809)
        for _ in range(1000):
            shape = random_shape(rng.randint(1, 200), rng)
            _, report = instrumented_gamma(shape)
            rows = shape.rows
            closed_form = 2 * sum(
                (i + 1) * (rows[i - 2] - rows[i - 1] + 1)
                for i in range(2, len(rows) + 1)
            )
            assert report.multiplications == closed_form == report.predicted
            normal = shape if shape.row_count <= shape.rows[0] else shape.transpose()
            _, normal_report = instrumented_gamma(normal)
            n = normal.cell_count
            # provable constant: cost <= n^2/4 + 8n + 2, checked in integers
            assert 4 * normal_report.multiplications <= n * n + 32 * n + 8


def test_criterion_07_performance_gap():
    with criterion(7, "triangle handles 10000 cells in < 5 s; edge recursion is capped"):
        rng = random.Random(42)
        shape = random_shape(10000, rng)
        t0 = time.perf_counter()
        value = beta_triangle(shape)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert value > 0
        g = ferrers_graph(shape)
        assert g.vertex_count > 12
        try:
            beta_edge_recursion(g)
        except GraphTooLarge:
            pass
        else:
            raise AssertionError("edge recursion must refuse a 10000-cell graph")


def test_criterion_08_polynomial_identities(atlas_graphs):
    with criterion(8, "xi identities and the bivariate chromatic connection hold"):
        x = TrivariatePolynomial.monomial(1, 1, 0, 0)
        y = TrivariatePolynomial.monomial(1, 0, 1, 0)
        z = TrivariatePolynomial.monomial(1, 0, 0, 1)
        for n in range(0, 7):
            empty = SimpleGraph.from_edges(n, [])
            assert xi_polynomial(empty) == TrivariatePolynomial.monomial(1, n, 0, 0)
        k2 = SimpleGraph.from_edges(2, [(0, 1)])
        assert xi_polynomial(k2) == x * x + x * y + z

        for g in atlas_up_to(atlas_graphs, 5):
            base = xi_polynomial(g).substitute_y(-1)
            for extra in g.edge_list():
                doubled = MultiGraph.from_pairs(
                    g.vertex_count, list(g.edge_list()) + [extra]
                )
                assert xi_polynomial(doubled).substitute_y(-1) == base

        for g in atlas_up_to(atlas_graphs, 6):
            poly = xi_polynomial(g)
            for xv in range(4):
                for yv in range(xv + 1):
                    assert poly.evaluate(xv, -1, xv - yv) == bivariate_chromatic_count(
                        g, xv, yv
                    )


def test_criterion_09_generating_functions():
    with criterion(9, "staircase column generating functions match to order 10"):
        for j in range(1, 6):
            for d in range(1, 4):
                series_a, series_b = chat_gf_check(j, d, 10)
                assert series_a == series_b
                assert all(isinstance(v, int) for v in series_a + series_b)


def test_criterion_10_triangle_structure():
    with criterion(10, "structural triangle properties on 10000 random shapes"):
        rng = random.Random(1234321)
        for _ in range(10000):
            shape = random_shape(rng.randint(1, 100), rng)
            width = shape.rows[0]
            for i, values in enumerate(iter_row_values(shape), start=1):
                assert sum(values) == 0
                if shape.rows[i - 1] < width:
                    assert values[0] == 0
                for j in range(1, len(values) - 1):
                    if values[j] and values[j + 1]:
                        assert (values[j] > 0) != (values[j + 1] > 0)
