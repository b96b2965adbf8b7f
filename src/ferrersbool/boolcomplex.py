"""Census of the injective-word complex of a graph.

Words use distinct vertices; two words are equivalent when one turns into the
other by repeatedly swapping adjacent letters that are non-adjacent in the
graph.  A class is represented by its lexicographically least member.

A word is that least representative exactly when no letter can jump left
over a block of letters it commutes with to land before a larger one.  These
words are the lexicographic normal forms of traces, which a finite automaton
recognises (Anisimov and Knuth, 1979): its state after a canonical prefix is
the pair of bitmasks (letters used, letters blocked), and `_successors` is its
one transition.  `rank_vector` counts paths through the states level by level
and builds no word, so its cost grows with the number of states, not the
number of words.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import MultiGraph


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


def rank_vector(g: MultiGraph) -> tuple[int, ...]:
    """Class counts by word length, from the empty word (1) up to full support.

    Counts the canonical words level by level through their automaton
    states, without building a word: each state maps to the number of
    canonical words of the current length that reach it.  The number of
    states grows exponentially with the vertices; the function has no cap of
    its own, and the CLI's is ``checks.oracle_graph``'s.
    """
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
    return tuple(counts)


def beta_via_rank(g: MultiGraph) -> int:
    """beta(G) = (-1)**|G| * (rank polynomial at -1)."""
    counts = rank_vector(g)
    return (-1) ** g.vertex_count * sum((-1) ** k * c for k, c in enumerate(counts))
