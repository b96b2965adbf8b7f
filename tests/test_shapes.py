import pytest
from hypothesis import given
from hypothesis import strategies as st

from ferrersbool import (
    FerrersShape,
    ShapeError,
    enumerate_shapes,
    parse_shape,
    random_shape,
    rectangle,
    staircase,
)

positive_shapes = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7).map(
    lambda xs: FerrersShape(tuple(sorted(xs, reverse=True)))
)


def test_parse_examples():
    assert parse_shape("7,7,7,6,4,4,2").rows == (7, 7, 7, 6, 4, 4, 2)
    assert parse_shape("3").rows == (3,)


def test_parse_rejects():
    # one error type; the message tells a non-partition from bad text
    with pytest.raises(ShapeError, match="weakly decreasing"):
        parse_shape("2,3")
    with pytest.raises(ShapeError, match="not a nonnegative integer"):
        parse_shape("3,-1")
    with pytest.raises(ShapeError, match="bad row length"):
        parse_shape("3,x")
    with pytest.raises(ShapeError, match="empty shape text"):
        parse_shape("")


def test_constructor_rejects():
    with pytest.raises(ShapeError, match="at least one row"):
        FerrersShape(())
    with pytest.raises(ShapeError, match="weakly decreasing"):
        FerrersShape((1, 2))


def test_transpose_examples():
    assert parse_shape("4,4,2").transpose().rows == (3, 3, 2, 2)
    assert parse_shape("1").transpose().rows == (1,)
    assert parse_shape("5").transpose().rows == (1, 1, 1, 1, 1)
    with pytest.raises(ShapeError, match="rows are all zero"):
        parse_shape("0,0").transpose()


def test_transpose_matches_column_counts():
    # independent route: count cells per column from the raw rows
    for text in ["4,4,2", "7,7,7,6,4,4,2", "3,1,1", "2,2,2,2"]:
        shape = parse_shape(text)
        cols = [sum(1 for x in shape.rows if x > j) for j in range(shape.rows[0])]
        assert list(shape.transpose().rows) == cols


@given(positive_shapes)
def test_transpose_involution(shape):
    assert shape.transpose().transpose() == shape


def test_staircase_and_rectangle():
    assert staircase(3, 1).rows == (3, 2, 1)
    assert staircase(3, 2).rows == (6, 4, 2)
    assert staircase(1, 5).rows == (5,)
    assert rectangle(2, 2).rows == (2, 2)
    assert rectangle(1, 4).rows == (4,)
    assert rectangle(3, 1).rows == (1, 1, 1)
    with pytest.raises(ValueError):
        staircase(0, 1)
    with pytest.raises(ValueError):
        rectangle(1, 0)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=5))
def test_staircase_cell_count(r, d):
    assert staircase(r, d).cell_count == d * r * (r + 1) // 2


def _partition_counts(n_max):
    # independent oracle: coin-style DP for the partition numbers
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            table[total] += table[total - part]
    return table


def test_enumerate_shapes_counts_and_uniqueness():
    n_max = 9
    seen = list(enumerate_shapes(n_max))
    assert len(seen) == len(set(seen))
    counts = _partition_counts(n_max)
    for n in range(1, n_max + 1):
        assert sum(1 for s in seen if s.cell_count == n and not s.has_zero_row) == counts[n]


def test_enumerate_shapes_small_cases():
    got = [s.rows for s in enumerate_shapes(3) if not s.has_zero_row]
    assert sorted(got) == sorted([(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)])
    assert list(enumerate_shapes(0)) == [FerrersShape((0,))]
    with_zeros = [s.rows for s in enumerate_shapes(2)]
    assert (1, 0) in with_zeros and (2, 0) in with_zeros and (0,) in with_zeros
    assert len(with_zeros) == len(set(with_zeros))


def test_random_shape_is_valid_partition():
    import random

    rng = random.Random(7)
    for _ in range(200):
        cells = rng.randint(1, 60)
        shape = random_shape(cells, rng)
        assert shape.cell_count == cells
        assert shape.rows[-1] >= 1
