import random

from ferrersbool import (
    FerrersShape,
    beta_row_recursion,
    beta_triangle,
    enumerate_shapes,
    parse_shape,
    predicted_cost,
    random_shape,
    staircase,
)
from ferrersbool.triangle import predicted_transpose_cost


def test_base_cases():
    for k in range(1, 9):
        assert beta_row_recursion(parse_shape(str(k))) == 1
    assert beta_row_recursion(parse_shape("1,1")) == 1
    assert beta_row_recursion(parse_shape("2,2")) == 5
    assert beta_row_recursion(parse_shape("0")) == 0
    assert beta_row_recursion(parse_shape("4,0")) == 0


def test_agrees_with_triangle_up_to_ten_cells():
    for shape in enumerate_shapes(10):
        assert beta_row_recursion(shape) == beta_triangle(shape), shape


def test_agrees_on_staircases():
    for r in range(1, 9):
        assert beta_row_recursion(staircase(r, 1)) == beta_triangle(staircase(r, 1))


def test_zero_iff_zero_row():
    for shape in enumerate_shapes(10):
        value = beta_row_recursion(shape)
        if shape.has_zero_row:
            assert value == 0
        else:
            assert value >= 1


def test_handles_many_rows_iteratively():
    # a transposed single-row shape has as many rows as the row was long
    tall = parse_shape(str(2000)).transpose()
    assert tall.row_count == 2000
    assert beta_row_recursion(tall) == 1


def test_agrees_with_triangle_at_scale():
    # The production path, orientation choice included, against the recursion
    # on shapes of 100-3000 cells, far past the exhaustive sweeps above.
    rng = random.Random(2008)

    def drawn(rows, lo, hi):
        lengths = sorted((rng.randint(lo, hi) for _ in range(rows)), reverse=True)
        return FerrersShape(tuple(lengths))

    def is_tie(s):
        return predicted_cost(s) == predicted_transpose_cost(s) and s != s.transpose()

    # the 23rd draw is a tie; the bound ends the search when no tie can exist
    ties = (drawn(rng.randint(10, 30), 1, 30) for _ in range(1000))
    tie = next(s for s in ties if s.cell_count >= 100 and is_tie(s))
    shapes = [
        *(random_shape(cells, rng) for cells in (100, 800, 3000)),
        drawn(40, 10, 70),  # wide: runs as given
        drawn(25, 30, 120),
        drawn(300, 1, 8),  # tall and narrow: runs transposed
        drawn(120, 2, 25),
        FerrersShape(drawn(30, 5, 60).rows + (1,)),  # one-cell bottom row
        tie,  # equal cost: runs as given
    ]
    transposed = [predicted_transpose_cost(s) < predicted_cost(s) for s in shapes]
    assert sum(transposed) >= 3 and not all(transposed)
    for shape in shapes:
        assert beta_triangle(shape) == beta_row_recursion(shape), shape
