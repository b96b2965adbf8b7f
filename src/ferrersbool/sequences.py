"""Named integer sequences tied to boolean numbers.

The factorial-quotient triangle d(i, j), Genocchi numbers of the second kind,
Stirling numbers of the second kind, the closed double sum for staircase
shapes, and the generating-function cross-check for staircase coefficient
columns.  All rational intermediates use exact fractions; integrality of the
results is itself part of the contract.

The generators ``beta_staircases``, ``rescaled_staircase_rows`` and
``genocchi2_values`` yield every value up to n in one pass; the point
functions read them, and the Fraction closed forms stay independent oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .shapes import staircase
from .triangle import iter_row_values


class NonIntegerResult(ArithmeticError):
    """A quantity that must be an integer came out fractional (a bug)."""


def _require_integer(value: Fraction) -> int:
    if value.denominator != 1:
        raise NonIntegerResult(f"expected an integer, got {value}")
    return int(value)


def legendre_stirling(i: int, j: int) -> int:
    """d(i, j) = sum_{l=1..j} (-1)**(l+j) (2l+1) (l^2+l)**i / ((l+j+1)! (j-l)!)."""
    if not 1 <= j <= i:
        raise ValueError("need 1 <= j <= i")
    total = Fraction(0)
    for ell in range(1, j + 1):
        numerator = (-1) ** (ell + j) * (2 * ell + 1) * (ell * ell + ell) ** i
        denominator = math.factorial(ell + j + 1) * math.factorial(j - ell)
        total += Fraction(numerator, denominator)
    return _require_integer(total)


def rescaled_staircase_rows(n: int, d: int = 1) -> Iterator[tuple[int, ...]]:
    """Rows i = 1..n of the rescaled steplength-d staircase triangle: entry j-1
    of row i is (-1)**(i+j) c(i, j) / (j! ((j-1)!)**d) for j = 1..i.  For d = 1
    these are the Legendre-Stirling numbers d(i, j)."""
    scales = []
    for i, row in enumerate(iter_row_values(staircase(n, d)), start=1):
        scales.append(math.factorial(i) * math.factorial(i - 1) ** d)
        yield tuple(
            _require_integer(Fraction((-1) ** (i + j) * row[j], scales[j - 1]))
            for j in range(1, i + 1)
        )


def legendre_stirling_via_triangle(i: int, j: int) -> int:
    """The same numbers read off row i of the rescaled unit staircase triangle."""
    if not 1 <= j <= i:
        raise ValueError("need 1 <= j <= i")
    for row in rescaled_staircase_rows(i):
        pass
    return row[j - 1]


def genocchi2_values(n: int) -> Iterator[int]:
    """Genocchi numbers of the second kind g(1..n) via the two-variable recursion
    G(r, x) = (x+1)^2 G(r-1, x+1) - x(x+1) G(r-1, x), G(1, x) = 1, at x = 1.
    Level r only needs x = 1..n-r+1, so one pass yields every g(r)."""
    if n < 1:
        raise ValueError("need n >= 1")
    level = {x: 1 for x in range(1, n + 1)}
    yield level[1]
    for step in range(2, n + 1):
        level = {
            x: (x + 1) ** 2 * level[x + 1] - x * (x + 1) * level[x]
            for x in range(1, n - step + 2)
        }
        yield level[1]


def genocchi2(r: int) -> int:
    """The Genocchi number of the second kind g(r): the last of genocchi2_values(r)."""
    for value in genocchi2_values(r):
        pass
    return value


def beta_staircases(n: int, d: int = 1) -> Iterator[int]:
    """beta of staircase(r, d) for r = 1..n in one pass: row r of the triangle
    is the same for every height >= r, and the bottom row has d cells."""
    for row in iter_row_values(staircase(n, d)):
        yield sum(c * j**d for j, c in enumerate(row))


def beta_staircase_closed(r: int) -> int:
    """Closed double sum for the boolean number of the unit staircase."""
    if r < 1:
        raise ValueError("need r >= 1")
    total = Fraction(0)
    for j in range(1, r + 1):
        for ell in range(1, j + 1):
            numerator = (
                (-1) ** (r + ell)
                * (2 * ell + 1)
                * (ell * ell + ell) ** r
                * math.factorial(j) ** 2
            )
            denominator = math.factorial(ell + j + 1) * math.factorial(j - ell)
            total += Fraction(numerator, denominator)
    return _require_integer(total)


def genocchi_ls_identity(r: int) -> tuple[int, int]:
    """Both sides of g(r) = sum_j (-1)**(r+j) (j!)^2 d(r, j), independently."""
    if r < 1:
        raise ValueError("need r >= 1")
    rhs = sum(
        (-1) ** (r + j) * math.factorial(j) ** 2 * legendre_stirling(r, j)
        for j in range(1, r + 1)
    )
    return genocchi2(r), rhs


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind by the standard recurrence."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    prev = [1]  # row for n = 0
    for m in range(1, n + 1):
        cur = [0] * (m + 1)
        for j in range(1, m + 1):
            cur[j] = (prev[j - 1] if j - 1 < len(prev) else 0) + j * (
                prev[j] if j < len(prev) else 0
            )
        prev = cur
    return prev[k]


def beta_complete_bipartite(r: int, k: int) -> int:
    """beta of the complete bipartite graph on r + k vertices:
    sum_{j=1..r} (-1)**(r-j) j! S(r+1, j+1) j**k."""
    if r < 1 or k < 1:
        raise ValueError("need r, k >= 1")
    return sum(
        (-1) ** (r - j) * math.factorial(j) * stirling2(r + 1, j + 1) * j**k
        for j in range(1, r + 1)
    )


def chat_gf_check(j: int, d: int, order: int) -> tuple[list[int], list[int]]:
    """Two routes to the rescaled staircase coefficient column.

    Route a: coefficients of x^1..x^order of x**j / prod_{i=1..j}(1 - i**d (i+1) x),
    expanded with the linear recurrence the denominator induces.  Route b:
    column j of rescaled_staircase_rows(order, d), zero above the diagonal.
    Equality of the two lists is the point.
    """
    if j < 1 or d < 1:
        raise ValueError("need j >= 1 and d >= 1")
    if order < j:
        raise ValueError("need order >= j")
    denom = [1]
    for i in range(1, j + 1):
        rate = i**d * (i + 1)
        denom = [
            (denom[t] if t < len(denom) else 0)
            - rate * (denom[t - 1] if t - 1 >= 0 else 0)
            for t in range(len(denom) + 1)
        ]
    coeffs = [0] * (order + 1)
    for m in range(1, order + 1):
        value = 1 if m == j else 0
        for t in range(1, min(j, m) + 1):
            value -= denom[t] * coeffs[m - t]
        coeffs[m] = value
    series_a = coeffs[1:]

    series_b = [
        row[j - 1] if j <= len(row) else 0 for row in rescaled_staircase_rows(order, d)
    ]
    return series_a, series_b
