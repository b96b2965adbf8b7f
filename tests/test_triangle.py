from hypothesis import given, settings
from hypothesis import strategies as st

from ferrersbool import (
    FerrersShape,
    beta_complete_bipartite,
    beta_triangle,
    checks,
    enumerate_shapes,
    iter_row_values,
    parse_shape,
    predicted_cost,
    rectangle,
    staircase,
    triangle,
)
from ferrersbool.triangle import evaluate, next_values, predicted_transpose_cost

shapes = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=7).map(
    lambda xs: parse_shape(",".join(str(x) for x in sorted(xs, reverse=True)))
)


def test_next_values_examples():
    assert next_values((-1, 1), 0) == (1, -3, 2)
    assert next_values((-1, 1), 1) == (0, -2, 2)
    assert next_values((0, 4, -16, 12), 1) == (0, -8, 104, -240, 144)


def test_single_row_triangle():
    for k in (1, 4, 9):
        assert tuple(iter_row_values(parse_shape(str(k)))) == ((-1, 1),)


def test_beta_examples():
    for k in range(1, 8):
        assert beta_triangle(parse_shape(str(k))) == 1
    assert beta_triangle(parse_shape("3,2,1")) == 8
    assert beta_triangle(parse_shape("3,0")) == 0
    assert beta_triangle(parse_shape("0")) == 0


def test_predicted_cost_examples():
    assert predicted_cost(parse_shape("5")) == 0
    assert predicted_cost(parse_shape("2,1")) == 12
    assert predicted_cost(parse_shape("2,2,1")) == 22
    # unit staircase of height 100: every difference is 1
    assert predicted_cost(staircase(100, 1)) == 2 * sum(
        (i + 1) * 2 for i in range(2, 101)
    )


def test_four_methods_agree_up_to_ten_cells():
    # acceptance criterion 2 runs the same check on every shape of <= 9 cells
    ten_cells = [s for s in enumerate_shapes(10) if s.cell_count == 10]
    assert len(ten_cells) == 84
    for shape in ten_cells:
        assert checks.method_agreement(shape, beta_triangle(shape), cap=12) == ([], []), shape


def test_evaluate_examples():
    assert evaluate(parse_shape("2,1")) == 2
    assert evaluate(parse_shape("5")) == 1
    assert evaluate(staircase(5, 1)) == 608
    assert evaluate(parse_shape("3,0")) == 0


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
    head = list(iter_row_values(FerrersShape(shape.rows[:-1])))
    assert whole[:-1] == head
    shifted = list(iter_row_values(FerrersShape(tuple(x + 2 for x in shape.rows))))
    assert whole == shifted
    if shape.rows[-1] >= 1:
        shifted_down = list(iter_row_values(FerrersShape(tuple(x - 1 for x in shape.rows))))
        assert whole == shifted_down


@given(shapes.filter(lambda s: not s.has_zero_row))
def test_beta_transpose_invariance(shape):
    assert checks.transpose_invariance(shape) is None
    assert beta_triangle(shape) == evaluate(shape)


@given(shapes.filter(lambda s: not s.has_zero_row))
def test_predicted_transpose_cost_matches_transpose(shape):
    assert predicted_transpose_cost(shape) == predicted_cost(shape.transpose())


def _streams(monkeypatch, shape):
    """beta_triangle(shape), and (shape, rows yielded) of each triangle stream."""
    streams = []

    def recording(streamed):
        streams.append([streamed, 0])
        for row in iter_row_values(streamed):
            streams[-1][1] += 1
            yield row

    monkeypatch.setattr(triangle, "iter_row_values", recording)
    return beta_triangle(shape), streams


def test_beta_runs_the_cheaper_orientation(monkeypatch):
    value, streams = _streams(monkeypatch, rectangle(1000, 100))
    assert streams == [[rectangle(100, 1000), 100]]
    assert value == beta_complete_bipartite(100, 1000) == beta_complete_bipartite(1000, 100)
    value, streams = _streams(monkeypatch, rectangle(7, 100000))
    assert streams == [[rectangle(7, 100000), 7]]
    assert value == beta_complete_bipartite(7, 100000)
    # (4,3,1,1) and its transpose (4,2,2,1) cost the same: the given one runs
    tie = parse_shape("4,3,1,1")
    assert predicted_cost(tie) == predicted_cost(tie.transpose()) and tie != tie.transpose()
    assert _streams(monkeypatch, tie)[1] == [[tie, 4]]
    # a zero row answers 0 without a triangle
    assert _streams(monkeypatch, parse_shape("4,4,0")) == (0, [])


@given(shapes.filter(lambda s: s.row_count > 1))
def test_cost_model_matches_explicit_sum(shape):
    assert checks.cost_model(shape) is None
    # the closed form, written out independently of predicted_cost
    rows = shape.rows
    explicit = 2 * sum(
        (i + 1) * (rows[i - 2] - rows[i - 1] + 1) for i in range(2, len(rows) + 1)
    )
    assert predicted_cost(shape) == explicit
