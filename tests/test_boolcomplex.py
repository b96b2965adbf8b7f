import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrersbool import (
    GraphTooLarge,
    SimpleGraph,
    beta_edge_recursion,
    beta_triangle,
    beta_via_rank,
    canonical_form,
    ferrers_graph,
    parse_shape,
    rank_vector,
    word_classes,
)

from .conftest import atlas_up_to, classes_by_sweep


def test_word_classes_examples():
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert {w.word for w in word_classes(k2, 2)} == {(0, 1), (1, 0)}
    d2 = SimpleGraph.from_edges(2, [])
    assert {w.word for w in word_classes(d2, 2)} == {(0, 1)}
    assert {w.word for w in word_classes(d2, 0)} == {()}
    assert word_classes(k2, 1) == word_classes(d2, 1)


def test_word_class_support():
    d3 = SimpleGraph.from_edges(3, [])
    (cls,) = word_classes(d3, 3)
    assert cls.support == frozenset({0, 1, 2})


def test_rank_vector_examples():
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert rank_vector(k2).counts == (1, 2, 2)
    d2 = SimpleGraph.from_edges(2, [])
    assert rank_vector(d2).counts == (1, 2, 1)
    d1 = SimpleGraph.from_edges(1, [])
    assert rank_vector(d1).counts == (1, 1)


def test_beta_via_rank_examples():
    assert beta_via_rank(SimpleGraph.from_edges(2, [(0, 1)])) == 1
    assert beta_via_rank(SimpleGraph.from_edges(2, [])) == 0
    assert beta_via_rank(ferrers_graph(parse_shape("2,1"))) == 2


def test_cap_enforced():
    big = SimpleGraph.from_edges(9, [])
    with pytest.raises(GraphTooLarge):
        rank_vector(big)
    with pytest.raises(GraphTooLarge):
        word_classes(big, 2)
    assert beta_via_rank(big, max_vertices=9) == 0


def test_counts_are_positive_and_start_correctly(atlas_graphs):
    for g in atlas_up_to(atlas_graphs, 6):
        counts = rank_vector(g).counts
        assert counts[0] == 1
        assert counts[1] == g.vertex_count
        assert all(c >= 1 for c in counts)


def _random_graph(rng: random.Random, n: int) -> SimpleGraph:
    pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    return SimpleGraph.from_edges(n, pairs)


def test_word_classes_match_sweep_oracle():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(1, 5)
        g = _random_graph(rng, n)
        for length in range(0, n + 1):
            oracle = classes_by_sweep(g, length)
            expected = frozenset(oracle.values())
            got = frozenset(w.word for w in word_classes(g, length))
            assert got == expected, (g, length)


def test_rank_vector_matches_sweep_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = _random_graph(rng, n)
        by_sweep = tuple(len(set(classes_by_sweep(g, k).values())) for k in range(n + 1))
        assert rank_vector(g).counts == by_sweep, g


def test_rank_vector_matches_word_listing(atlas_graphs):
    rng = random.Random(8)
    random_graphs = [_random_graph(rng, rng.randint(7, 8)) for _ in range(10)]
    for g in atlas_up_to(atlas_graphs, 6) + random_graphs:
        listed = tuple(len(word_classes(g, k)) for k in range(g.vertex_count + 1))
        assert rank_vector(g).counts == listed, g


def test_canonical_form_matches_sweep_oracle():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 5)
        g = _random_graph(rng, n)
        length = rng.randint(1, n)
        oracle = classes_by_sweep(g, length)
        for word, least in oracle.items():
            assert canonical_form(g, word) == least


def test_canonical_form_rejects_bad_words():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        canonical_form(g, (0, 0))
    with pytest.raises(ValueError):
        canonical_form(g, (0, 5))


@given(st.integers(min_value=0, max_value=2**10 - 1))
@settings(max_examples=60)
def test_rank_oracle_agrees_with_edge_recursion_on_five_vertices(mask):
    pairs = [e for i, e in enumerate(itertools.combinations(range(5), 2)) if mask >> i & 1]
    g = SimpleGraph.from_edges(5, pairs)
    assert beta_via_rank(g) == beta_edge_recursion(g)


def test_rank_oracle_agrees_with_triangle_on_small_shapes():
    from ferrersbool import enumerate_shapes

    for shape in enumerate_shapes(7, allow_zero_rows=True):
        g = ferrers_graph(shape)
        assert beta_via_rank(g, max_vertices=10) == beta_triangle(shape)
