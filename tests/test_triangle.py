from hypothesis import given, settings
from hypothesis import strategies as st

from ferrersbool import (
    beta_triangle,
    instrumented_gamma,
    iter_row_values,
    parse_shape,
    predicted_cost,
    staircase,
)
from ferrersbool.triangle import next_values

from .reference_tables import STAIRCASE_BETAS, TRIANGLE_MIXED, TRIANGLE_STAIRCASE7

shapes = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=7).map(
    lambda xs: parse_shape(",".join(str(x) for x in sorted(xs, reverse=True)))
)


def test_next_values_examples():
    assert next_values((-1, 1), 0) == (1, -3, 2)
    assert next_values((-1, 1), 1) == (0, -2, 2)
    assert next_values((0, 4, -16, 12), 1) == (0, -8, 104, -240, 144)


def test_reference_triangles():
    assert tuple(iter_row_values(parse_shape("7,7,7,6,4,4,2"))) == TRIANGLE_MIXED
    assert tuple(iter_row_values(staircase(7, 1))) == TRIANGLE_STAIRCASE7


def test_single_row_triangle():
    for k in (1, 4, 9):
        assert tuple(iter_row_values(parse_shape(str(k)))) == ((-1, 1),)


def test_beta_examples():
    for k in range(1, 8):
        assert beta_triangle(parse_shape(str(k))) == 1
    assert beta_triangle(parse_shape("3,2,1")) == 8
    assert beta_triangle(parse_shape("3,0")) == 0
    assert beta_triangle(parse_shape("0")) == 0


def test_beta_staircases_match_fixture():
    for r, expected in enumerate(STAIRCASE_BETAS, start=1):
        assert beta_triangle(staircase(r, 1)) == expected


def test_predicted_cost_examples():
    assert predicted_cost(parse_shape("5")) == 0
    assert predicted_cost(parse_shape("2,1")) == 12
    assert predicted_cost(parse_shape("2,2,1")) == 22
    # unit staircase of height 100: every difference is 1
    assert predicted_cost(staircase(100, 1)) == 2 * sum(
        (i + 1) * 2 for i in range(2, 101)
    )


def test_instrumented_cost_exact_on_all_small_shapes():
    from ferrersbool import enumerate_shapes

    for shape in enumerate_shapes(30, allow_zero_rows=True):
        _, report = instrumented_gamma(shape)
        assert report.multiplications == report.predicted, shape


def test_four_methods_agree_up_to_ten_cells():
    from ferrersbool import (
        beta_edge_recursion,
        beta_row_recursion,
        beta_via_rank,
        enumerate_shapes,
        ferrers_graph,
    )

    for shape in enumerate_shapes(10, allow_zero_rows=True):
        expected = beta_triangle(shape)
        assert beta_row_recursion(shape) == expected
        g = ferrers_graph(shape)
        assert beta_edge_recursion(g, max_vertices=12) == expected
        assert beta_via_rank(g, max_vertices=12) == expected


def test_instrumented_gamma_examples():
    row, report = instrumented_gamma(parse_shape("2,1"))
    assert row == (0, -2, 2)
    assert report.multiplications == report.predicted == 12
    row, report = instrumented_gamma(parse_shape("5"))
    assert row == (-1, 1)
    assert report.multiplications == report.predicted == 0
    row, report = instrumented_gamma(staircase(7, 1))
    assert row == TRIANGLE_STAIRCASE7[-1]
    assert report.multiplications == report.predicted


@given(shapes)
@settings(max_examples=150)
def test_row_sums_are_zero(shape):
    for values in iter_row_values(shape):
        assert sum(values) == 0


@given(shapes)
@settings(max_examples=150)
def test_leading_entry_vanishes_below_full_rows(shape):
    width = shape.rows[0]
    for i, values in enumerate(iter_row_values(shape), start=1):
        if shape.rows[i - 1] < width:
            assert values[0] == 0


@given(shapes)
@settings(max_examples=150)
def test_sign_alternation_off_leftmost_column(shape):
    for values in iter_row_values(shape):
        for j in range(1, len(values) - 1):
            if values[j] and values[j + 1]:
                assert (values[j] > 0) != (values[j + 1] > 0)


@given(shapes.filter(lambda s: s.row_count > 1))
def test_rows_only_depend_on_differences(shape):
    whole = list(iter_row_values(shape))
    head = list(iter_row_values(shape.drop_last_row()))
    assert whole[:-1] == head
    shifted = list(iter_row_values(shape.shift(2)))
    assert whole == shifted
    if shape.rows[-1] >= 1:
        shifted_down = list(iter_row_values(shape.shift(-1)))
        assert whole == shifted_down


@given(shapes.filter(lambda s: not s.has_zero_row))
def test_beta_transpose_invariance(shape):
    assert beta_triangle(shape.transpose()) == beta_triangle(shape)


@given(shapes.filter(lambda s: s.row_count > 1))
def test_instrumented_count_matches_prediction(shape):
    _, report = instrumented_gamma(shape)
    assert report.multiplications == report.predicted
    # the closed form, written out independently of predicted_cost
    rows = shape.rows
    explicit = 2 * sum(
        (i + 1) * (rows[i - 2] - rows[i - 1] + 1) for i in range(2, len(rows) + 1)
    )
    assert report.predicted == explicit
