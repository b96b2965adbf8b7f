"""Census of the injective-word complex of a graph.

Words use distinct vertices; two words are equivalent when one turns into the
other by repeatedly swapping adjacent letters that are non-adjacent in the
graph.  A class is represented by its lexicographically least member, which
is the least linear extension of the precedence order the word induces on
adjacent-in-the-graph letter pairs.

A word is that least representative exactly when no letter can jump left
over a block of letters it commutes with to land before a larger one.  These
words are the lexicographic normal forms of traces, which a finite automaton
recognises (Anisimov and Knuth, 1979): its state after a canonical prefix is
the pair of bitmasks (letters used, letters blocked), and `_successors` is its
one transition.  `word_classes` walks the transition to list the words;
`rank_vector` counts paths through the states level by level and lists none,
so its cost grows with the number of states, not the number of words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import EXHAUSTIVE_VERTEX_CAP, GraphTooLarge, SimpleGraph


@dataclass(frozen=True)
class WordClass:
    """A commutation class, held by its canonical representative."""

    word: tuple[int, ...]

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.word)


@dataclass(frozen=True)
class RankVector:
    """counts[k] = number of classes of words of length k (counts[0] = 1)."""

    counts: tuple[int, ...]

    def evaluate(self, t: int) -> int:
        return sum(c * t**k for k, c in enumerate(self.counts))


def canonical_form(g: SimpleGraph, word: Sequence[int]) -> tuple[int, ...]:
    """Least equivalent word: greedily emit the smallest letter whose
    graph-adjacent predecessors in the input order are all emitted."""
    letters = tuple(word)
    if len(set(letters)) != len(letters):
        raise ValueError("word letters must be distinct")
    for v in letters:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"letter {v} out of range")
    masks = g.adjacency_masks()
    position = {v: i for i, v in enumerate(letters)}
    remaining = set(letters)
    out = []
    while remaining:
        choice = min(
            v
            for v in remaining
            if not any(
                masks[v] >> w & 1 and position[w] < position[v] for w in remaining if w != v
            )
        )
        out.append(choice)
        remaining.remove(choice)
    return tuple(out)


def _successors(
    masks: tuple[int, ...], used: int, blocked: int
) -> Iterator[tuple[int, int, int]]:
    """The letters that extend a canonical prefix in state (used, blocked),
    in increasing order, each with the state after it.

    blocked holds the unused letters that could commute backwards past a
    larger letter of the prefix.  Appending x blocks every unused v not
    adjacent to x that is smaller than x or was already blocked: v would
    commute past x and then, if v > x, on past whatever blocked it before.
    """
    free = ((1 << len(masks)) - 1) & ~(used | blocked)
    while free:
        bit = free & -free
        free ^= bit
        x = bit.bit_length() - 1
        used_after = used | bit
        yield x, used_after, ~(masks[x] | used_after) & (blocked | (bit - 1))


def _canonical_words(masks: tuple[int, ...], length: int) -> Iterator[tuple[int, ...]]:
    """Every canonical word of the given length."""
    prefix: list[int] = []

    def walk(used: int, blocked: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for x, used_after, blocked_after in _successors(masks, used, blocked):
            prefix.append(x)
            yield from walk(used_after, blocked_after)
            prefix.pop()

    return walk(0, 0)


def _check_cap(g: SimpleGraph, max_vertices: int) -> None:
    if g.vertex_count > max_vertices:
        raise GraphTooLarge(
            f"{g.vertex_count} vertices exceeds the rank-census cap {max_vertices}"
        )


def word_classes(
    g: SimpleGraph, length: int, *, max_vertices: int = EXHAUSTIVE_VERTEX_CAP
) -> frozenset[WordClass]:
    """All classes of injective words of the given length."""
    _check_cap(g, max_vertices)
    if not 0 <= length <= g.vertex_count:
        raise ValueError("length must be between 0 and the vertex count")
    return frozenset(WordClass(w) for w in _canonical_words(g.adjacency_masks(), length))


def rank_vector(g: SimpleGraph, *, max_vertices: int = EXHAUSTIVE_VERTEX_CAP) -> RankVector:
    """Class counts by word length, from the empty word up to full support.

    Counts the canonical words level by level through their automaton
    states, without building a word: each state maps to the number of
    canonical words of the current length that reach it.
    """
    _check_cap(g, max_vertices)
    masks = g.adjacency_masks()
    level = {(0, 0): 1}
    counts = [1]
    for _ in range(g.vertex_count):
        reached: dict[tuple[int, int], int] = {}
        for (used, blocked), ways in level.items():
            for _, used_after, blocked_after in _successors(masks, used, blocked):
                key = (used_after, blocked_after)
                reached[key] = reached.get(key, 0) + ways
        counts.append(sum(reached.values()))
        level = reached
    return RankVector(tuple(counts))


def beta_via_rank(g: SimpleGraph, *, max_vertices: int = EXHAUSTIVE_VERTEX_CAP) -> int:
    """beta(G) = (-1)**|G| * (rank polynomial at -1)."""
    rv = rank_vector(g, max_vertices=max_vertices)
    return (-1) ** g.vertex_count * rv.evaluate(-1)
