"""Reference values the benchmark checks answers against.

Nothing here calls the package: the triangle recurrence is written out again
so that a check can run it on the other orientation of a shape (the
conjugate), or stream the unit staircase once for every height the stream
workload asks about.  Decimal strings are compared with expected integers by
length and by residue, because converting a 10^5-digit integer to a string
costs as much as the call being checked.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

MODULUS = (1 << 127) - 1  # a Mersenne prime
_CHUNK_DIGITS = 36
_CHUNK_SCALE = 10**_CHUNK_DIGITS
_DECIMAL = re.compile(r"-?(0|[1-9][0-9]*)")


def conjugate(rows: Sequence[int]) -> tuple[int, ...]:
    """Column lengths of a weakly decreasing row vector with positive rows."""
    cols = []
    height = len(rows)
    for width in range(1, rows[0] + 1):
        while rows[height - 1] < width:
            height -= 1
        cols.append(height)
    return tuple(cols)


def triangle_rows(rows: Sequence[int]) -> Iterator[list[int]]:
    """Rows c(1, .), c(2, .), ... of the coefficient triangle of a shape."""
    row = [-1, 1]
    yield row
    for i in range(1, len(rows)):
        d = rows[i - 1] - rows[i]
        n = len(row)
        new = [0] * (n + 1)
        for j in range(n + 1):
            left = row[j - 1] if j else 0
            right = row[j] if j < n else 0
            new[j] = j * (j - 1) ** d * left - (j + 1) * j**d * right
        row = new
        yield row


def beta(rows: Sequence[int]) -> int:
    """Boolean number of a shape: sum_j c(r, j) * j**Lr over its last triangle row."""
    *_, last = triangle_rows(rows)
    bottom = rows[-1]
    return sum(c * j**bottom for j, c in enumerate(last))


def predicted_mults(rows: Sequence[int]) -> int:
    """The paper's multiplication count, 2 * sum_{i=2..r} (i+1) * (d_i + 1)."""
    return 2 * sum((i + 1) * (rows[i - 2] - rows[i - 1] + 1) for i in range(2, len(rows) + 1))


def predicted_mults_conjugate(rows: Sequence[int]) -> int:
    """predicted_mults(conjugate(rows)) in O(len(rows)).

    Conjugate row k (k >= 2) drops by the number of rows of length k - 1.
    """
    m = rows[0]
    shrink = sum(length + 2 for length in rows if 0 < length < m)
    return 2 * ((m + 1) * (m + 2) // 2 - 3 + shrink)


def unit_staircase_rows(height: int) -> Iterator[list[int]]:
    """Triangle rows 1..height shared by every unit staircase of that height or more."""
    return triangle_rows(range(height, 0, -1))


def decimal_length(value: int) -> int:
    value = abs(value)
    if value < 10:
        return 1
    k = max(1, int((value.bit_length() - 1) * 0.30102999566398120) - 1)
    while 10**k <= value:
        k += 1
    return k


def decimal_matches(text: str, value: int) -> bool:
    """True when text is the canonical decimal form of value.

    Exact on sign and length; the digits are compared modulo a 127-bit prime.
    """
    if not _DECIMAL.fullmatch(text):
        return False
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    if negative != (value < 0) or len(digits) != decimal_length(value):
        return False
    head = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    acc = int(digits[:head])
    for start in range(head, len(digits), _CHUNK_DIGITS):
        acc = (acc * _CHUNK_SCALE + int(digits[start : start + _CHUNK_DIGITS])) % MODULUS
    return acc % MODULUS == abs(value) % MODULUS


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max), the number of integer partitions."""
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            counts[n] += counts[n - part]
    return counts
