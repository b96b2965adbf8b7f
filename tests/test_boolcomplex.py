import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrersbool import (
    GraphTooLarge,
    MultiGraph,
    beta_edge_recursion,
    beta_via_rank,
    checks,
    ferrers_graph,
    parse_shape,
    rank_vector,
)

from .conftest import atlas_up_to, classes_by_sweep


def test_rank_vector_examples():
    k2 = MultiGraph.from_pairs(2, [(0, 1)])
    assert rank_vector(k2) == (1, 2, 2)
    d2 = MultiGraph.from_pairs(2, [])
    assert rank_vector(d2) == (1, 2, 1)
    d1 = MultiGraph.from_pairs(1, [])
    assert rank_vector(d1) == (1, 1)


def test_beta_via_rank_examples():
    assert beta_via_rank(MultiGraph.from_pairs(2, [(0, 1)])) == 1
    assert beta_via_rank(MultiGraph.from_pairs(2, [])) == 0
    assert beta_via_rank(ferrers_graph(parse_shape("2,1"))) == 2


def test_cap_enforced():
    big = MultiGraph.from_pairs(9, [])
    with pytest.raises(GraphTooLarge):
        checks.oracle_beta("rank", big)
    assert checks.oracle_beta("rank", big, 9) == 0


def test_rank_vector_takes_no_cap():
    # the census counts any graph it is given; the cap is checks.oracle_graph's
    assert rank_vector(MultiGraph.from_pairs(9, [])) == tuple(math.comb(9, k) for k in range(10))


def test_counts_are_positive_and_start_correctly(atlas_graphs):
    for g in atlas_up_to(atlas_graphs, 6):
        counts = rank_vector(g)
        assert counts[0] == 1
        assert counts[1] == g.vertex_count
        assert all(c >= 1 for c in counts)


def _random_graph(rng: random.Random, n: int) -> MultiGraph:
    pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    return MultiGraph.from_pairs(n, pairs)


def _sweep_counts(g: MultiGraph) -> tuple[int, ...]:
    return tuple(
        len(set(classes_by_sweep(g, k).values())) for k in range(g.vertex_count + 1)
    )


def test_rank_vector_matches_sweep_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = _random_graph(rng, n)
        assert rank_vector(g) == _sweep_counts(g), g


def test_rank_vector_matches_sweep_oracle_on_atlas(atlas_graphs):
    rng = random.Random(8)
    random_graphs = [_random_graph(rng, 7) for _ in range(4)]
    for g in atlas_up_to(atlas_graphs, 5) + random_graphs:
        assert rank_vector(g) == _sweep_counts(g), g


def test_rank_vector_closed_forms():
    for n in (7, 8):
        empty = MultiGraph.from_pairs(n, [])
        complete = MultiGraph.from_pairs(n, list(itertools.combinations(range(n), 2)))
        assert rank_vector(empty) == tuple(math.comb(n, k) for k in range(n + 1))
        assert rank_vector(complete) == tuple(math.perm(n, k) for k in range(n + 1))


@given(st.integers(min_value=0, max_value=2**10 - 1))
@settings(max_examples=60)
def test_rank_oracle_agrees_with_edge_recursion_on_five_vertices(mask):
    pairs = [e for i, e in enumerate(itertools.combinations(range(5), 2)) if mask >> i & 1]
    g = MultiGraph.from_pairs(5, pairs)
    assert beta_via_rank(g) == beta_edge_recursion(g)
