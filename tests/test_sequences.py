import pytest

from ferrersbool import (
    beta_complete_bipartite,
    beta_staircase_closed,
    beta_triangle,
    chat_gf_check,
    genocchi2,
    genocchi_ls_identity,
    legendre_stirling,
    legendre_stirling_via_triangle,
    rectangle,
    staircase,
    stirling2,
)
from ferrersbool.sequences import beta_staircases, genocchi2_values, rescaled_staircase_rows

from .reference_tables import STAIRCASE_BETAS


def test_legendre_stirling_examples():
    assert legendre_stirling(1, 1) == 1
    assert legendre_stirling(2, 1) == 2
    assert legendre_stirling(3, 2) == 8
    with pytest.raises(ValueError):
        legendre_stirling(2, 3)


def test_legendre_stirling_via_triangle_examples():
    assert legendre_stirling_via_triangle(2, 2) == 1
    assert legendre_stirling_via_triangle(3, 2) == 8
    assert legendre_stirling_via_triangle(4, 4) == 1


def test_legendre_stirling_routes_agree_and_satisfy_recurrence():
    table = {
        (i, j): legendre_stirling(i, j) for i in range(1, 11) for j in range(1, i + 1)
    }
    for (i, j), value in table.items():
        assert value == legendre_stirling_via_triangle(i, j)
        if i > 1:
            above = table.get((i - 1, j), 0)
            diag = table.get((i - 1, j - 1), 0) if j > 1 else 0
            assert value == diag + j * (j + 1) * above


def test_genocchi2_values():
    assert [genocchi2(r) for r in range(1, 6)] == list(STAIRCASE_BETAS)


def test_genocchi2_values_one_pass():
    assert list(genocchi2_values(len(STAIRCASE_BETAS))) == list(STAIRCASE_BETAS)
    assert list(genocchi2_values(12)) == [beta_staircase_closed(r) for r in range(1, 13)]
    with pytest.raises(ValueError):
        list(genocchi2_values(0))


def test_beta_staircases_one_pass():
    for d in range(1, 4):
        for n in range(1, 13):
            expected = [beta_triangle(staircase(r, d)) for r in range(1, n + 1)]
            assert list(beta_staircases(n, d)) == expected


def test_rescaled_staircase_rows_are_legendre_stirling():
    rows = list(rescaled_staircase_rows(10))
    assert rows == [
        tuple(legendre_stirling(i, j) for j in range(1, i + 1)) for i in range(1, 11)
    ]


def test_beta_staircase_closed_examples():
    assert beta_staircase_closed(1) == 1
    assert beta_staircase_closed(3) == 8
    assert beta_staircase_closed(5) == 608


def test_staircase_three_routes_agree():
    for r in range(1, 11):
        tri = beta_triangle(staircase(r, 1))
        assert tri == genocchi2(r) == beta_staircase_closed(r)


def test_genocchi_ls_identity():
    for r in range(1, 13):
        lhs, rhs = genocchi_ls_identity(r)
        assert lhs == rhs
    assert genocchi_ls_identity(1) == (1, 1)
    assert genocchi_ls_identity(2) == (2, 2)
    assert genocchi_ls_identity(4) == (56, 56)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1 :]
        yield partition + [[first]]


def test_stirling2_against_enumeration():
    for n in range(0, 7):
        counts = {}
        for partition in _set_partitions(list(range(n))):
            counts[len(partition)] = counts.get(len(partition), 0) + 1
        for k in range(0, n + 1):
            expected = counts.get(k, 0) if n > 0 else (1 if k == 0 else 0)
            assert stirling2(n, k) == expected


def test_stirling2_edges():
    assert stirling2(5, 5) == 1
    assert stirling2(6, 1) == 1
    assert stirling2(3, 2) == 3
    with pytest.raises(ValueError):
        stirling2(3, 4)


def test_beta_complete_bipartite_examples():
    for k in range(1, 6):
        assert beta_complete_bipartite(1, k) == 1
    assert beta_complete_bipartite(2, 2) == 5
    assert beta_complete_bipartite(2, 3) == 13


def test_beta_complete_bipartite_matches_triangle_and_symmetry():
    for r in range(1, 7):
        for k in range(1, 7):
            value = beta_complete_bipartite(r, k)
            assert value == beta_triangle(rectangle(r, k))
            assert value == beta_complete_bipartite(k, r)


def test_chat_gf_examples():
    series_a, series_b = chat_gf_check(1, 1, 7)
    assert series_a == series_b == [1, 2, 4, 8, 16, 32, 64]
    series_a, series_b = chat_gf_check(2, 1, 6)
    assert series_a == series_b == [0, 1, 8, 52, 320, 1936]
    series_a, series_b = chat_gf_check(1, 2, 5)
    assert series_a == chat_gf_check(1, 1, 5)[0]


def test_chat_gf_range():
    for j in range(1, 5):
        for d in range(1, 4):
            series_a, series_b = chat_gf_check(j, d, 9)
            assert series_a == series_b
    with pytest.raises(ValueError):
        chat_gf_check(3, 1, 2)
