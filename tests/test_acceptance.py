"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines as
they complete.  All comparisons are exact integer equality; the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager

from ferrersbool import (
    GraphTooLarge,
    MultiGraph,
    beta_complete_bipartite,
    beta_triangle,
    beta_via_rank,
    chat_gf_check,
    enumerate_shapes,
    ferrers_graph,
    parse_shape,
    predicted_cost,
    random_shape,
    rectangle,
    staircase,
    xi_polynomial,
)
from ferrersbool import checks
from ferrersbool.triangle import iter_row_values

from .conftest import atlas_up_to, bivariate_chromatic_count, xi_at, xi_at_y_minus_one
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
        shapes = list(enumerate_shapes(9))
        assert len(shapes) > 150
        for shape in shapes:
            # ([], []): no oracle disagrees and none is skipped
            assert checks.method_agreement(shape, beta_triangle(shape), cap=12) == ([], []), shape
        assert time.perf_counter() - t0 < 300


def test_criterion_03_staircase_genocchi():
    with criterion(3, "staircase betas are the Genocchi numbers (r <= 10)"):
        assert checks.staircase_genocchi(10)
        for r, expected in enumerate(STAIRCASE_BETAS, start=1):
            assert beta_triangle(staircase(r, 1)) == expected


def test_criterion_04_legendre_stirling():
    with criterion(4, "both Legendre-Stirling routes agree; weighted identity holds"):
        assert checks.legendre_stirling_triangle(10)
        assert checks.genocchi_ls_identity(12)


def test_criterion_05_complete_bipartite():
    with criterion(5, "Stirling formula matches the triangle on rectangles (r,k <= 8)"):
        assert checks.complete_bipartite(8)
        assert beta_complete_bipartite(2, 2) == 5
        assert beta_via_rank(ferrers_graph(rectangle(2, 2))) == 5


def test_criterion_06_complexity_reproduction():
    with criterion(6, "cost model holds on 1000 shapes; n^2/4 + O(n) bound"):
        rng = random.Random(20260809)
        for _ in range(1000):
            shape = random_shape(rng.randint(1, 200), rng)
            assert checks.cost_model(shape) is None, shape
            normal = shape if shape.row_count <= shape.rows[0] else shape.transpose()
            n = normal.cell_count
            # provable constant: cost <= n^2/4 + 8n + 2, checked in integers
            assert 4 * predicted_cost(normal) <= n * n + 32 * n + 8


def test_criterion_07_performance_gap():
    with criterion(7, "triangle handles 10000 cells in < 5 s; edge recursion is capped"):
        rng = random.Random(42)
        shape = random_shape(10000, rng)
        t0 = time.perf_counter()
        value = beta_triangle(shape)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert value > 0
        # priced as its Ferrers graph's r + L1 vertices, so no graph is built
        assert shape.row_count + shape.rows[0] > 12
        try:
            checks.oracle_beta("edge", shape)
        except GraphTooLarge:
            pass
        else:
            raise AssertionError("edge recursion must refuse a 10000-cell graph")


def test_criterion_08_polynomial_identities(atlas_graphs):
    with criterion(8, "xi identities and the bivariate chromatic connection hold"):
        for n in range(0, 7):
            empty = MultiGraph.from_pairs(n, [])
            assert xi_polynomial(empty) == {(n, 0, 0): 1}
        k2 = MultiGraph.from_pairs(2, [(0, 1)])
        # x^2 + x*y + z
        assert xi_polynomial(k2) == {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1}

        for g in atlas_up_to(atlas_graphs, 5):
            base = xi_at_y_minus_one(xi_polynomial(g))
            pairs = [pair for pair, _ in g.edges]
            for extra in pairs:
                doubled = MultiGraph.from_pairs(g.vertex_count, pairs + [extra])
                assert xi_at_y_minus_one(xi_polynomial(doubled)) == base

        for g in atlas_up_to(atlas_graphs, 6):
            poly = xi_polynomial(g)
            for xv in range(4):
                for yv in range(xv + 1):
                    assert xi_at(poly, xv, -1, xv - yv) == bivariate_chromatic_count(
                        g, xv, yv
                    )


def test_criterion_09_generating_functions():
    with criterion(9, "staircase column generating functions match to order 10"):
        assert checks.staircase_column_gf(5, 3, 10)
        for j in range(1, 6):
            for d in range(1, 4):
                series_a, series_b = chat_gf_check(j, d, 10)
                assert all(isinstance(v, int) for v in series_a + series_b)


def test_criterion_10_triangle_structure():
    with criterion(10, "structural triangle properties on 10000 random shapes"):
        rng = random.Random(1234321)
        for _ in range(10000):
            shape = random_shape(rng.randint(1, 100), rng)
            assert checks.triangle_structure(shape) is None
