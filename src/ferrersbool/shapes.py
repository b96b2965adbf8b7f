"""Ferrers shapes: weakly decreasing row-length vectors with an explicit row count.

A shape keeps its number of rows even when some of them are empty, so (3, 0)
and (3,) are different shapes.  Zero rows matter throughout this package: each
empty row puts an isolated vertex into the associated bipartite graph, which
forces its boolean number to zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator


class ShapeError(ValueError):
    """Invalid shape text, row lengths that are not a partition, or a
    transform that needs a nonempty row; the message says which."""


@dataclass(frozen=True)
class FerrersShape:
    """An integer partition with a fixed number of rows; trailing zero rows allowed."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rows, tuple):
            object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) == 0:
            raise ShapeError("a shape needs at least one row")
        for length in self.rows:
            if not isinstance(length, int) or isinstance(length, bool) or length < 0:
                raise ShapeError(f"row length {length!r} is not a nonnegative integer")
        for a, b in zip(self.rows, self.rows[1:]):
            if b > a:
                raise ShapeError(f"rows must be weakly decreasing, got {a} before {b}")

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def cell_count(self) -> int:
        return sum(self.rows)

    @property
    def has_zero_row(self) -> bool:
        return self.rows[-1] == 0

    def differences(self) -> tuple[int, ...]:
        """Successive row differences (rows[i-1] - rows[i]); empty for one row."""
        return tuple(a - b for a, b in zip(self.rows, self.rows[1:]))

    def transpose(self) -> "FerrersShape":
        """Conjugate shape: column lengths become row lengths.

        Zero rows are dropped before conjugating; all-zero shapes have no
        columns and raise ShapeError.  One walk up the runs of equal rows, in
        O(r + L1): with `height` rows left, the columns past those already
        counted and up to the run's length hold `height` cells each.
        """
        if self.rows[0] == 0:
            raise ShapeError("cannot transpose a shape whose rows are all zero")
        cols: list[int] = []
        height = len(self.rows)
        for length, run in groupby(reversed(self.rows)):
            cols.extend([height] * (length - len(cols)))
            height -= len(list(run))
        return FerrersShape(tuple(cols))

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.rows)


def parse_shape(text: str) -> FerrersShape:
    """Parse a comma-separated row list such as "7,7,7,6,4,4,2".

    Raises ShapeError for malformed tokens and for row lists that are
    negative or increasing.
    """
    tokens = [tok.strip() for tok in text.split(",")]
    if tokens == [""]:
        raise ShapeError("empty shape text")
    rows = []
    for tok in tokens:
        try:
            rows.append(int(tok))
        except ValueError as exc:
            raise ShapeError(f"bad row length {tok!r}") from exc
    return FerrersShape(tuple(rows))


def staircase(height: int, steplength: int = 1) -> FerrersShape:
    """The shape (h*d, (h-1)*d, ..., 2d, d)."""
    if height < 1 or steplength < 1:
        raise ValueError("staircase needs height >= 1 and steplength >= 1")
    return FerrersShape(tuple(i * steplength for i in range(height, 0, -1)))


def rectangle(rows: int, cols: int) -> FerrersShape:
    """The shape with `rows` rows of length `cols`; its graph is complete bipartite."""
    if rows < 1 or cols < 1:
        raise ValueError("rectangle needs rows >= 1 and cols >= 1")
    return FerrersShape((cols,) * rows)


def _partitions_of(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def enumerate_shapes(n_max: int) -> Iterator[FerrersShape]:
    """All shapes with at most n_max cells, each exactly once, up to zero rows.

    The single-row zero shape (0,) comes first, then every partition of
    1..n_max, each followed by its variant with one appended zero row; one
    zero-row representative per partition suffices because every zero-row
    shape has boolean number zero.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    yield FerrersShape((0,))
    for n in range(1, n_max + 1):
        for parts in _partitions_of(n, n):
            yield FerrersShape(parts)
            yield FerrersShape(parts + (0,))


def random_shape(cells: int, rng: random.Random) -> FerrersShape:
    """A random partition of exactly `cells` cells with all rows positive.

    The row count is uniform in 1..cells; rows come from a uniformly random
    composition, sorted.  Not uniform over partitions, which is fine for the
    sweeps this feeds.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    r = rng.randint(1, cells)
    cuts = sorted(rng.sample(range(1, cells), r - 1))
    bounds = [0] + cuts + [cells]
    parts = sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True)
    return FerrersShape(tuple(parts))
