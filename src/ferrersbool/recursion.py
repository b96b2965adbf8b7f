"""Bottom-row recursion for boolean numbers, and the one memoised walk that
runs every recursive oracle.

beta(L) = 1 for a single row, and otherwise

    beta(L) = Lr * beta(head) + sum_{l=1..Lr} C(Lr+1, l+1) * beta(head[-l])

where head drops the bottom row and head[-l] deletes l full-height columns
from it.  Any zero row short-circuits to 0 (the graph has an isolated
vertex).  This recursion, the edge recursion and xi in `graphs` all run on
`_memo_walk`: its memo lives inside one call, and it keeps pending nodes on
a list, so depth is limited by memory, not by the interpreter.
"""

from __future__ import annotations

import math

from .shapes import FerrersShape


def _memo_walk(root, step, memo: dict):
    """Value of root, where the generator `step(node)` yields each child,
    receives the child's value back and returns the node's value.  Every
    finished value is stored in memo; values may be falsy but never None."""
    pending = []  # (node, its running step), deepest last
    node, value = root, memo.get(root)
    while True:
        if value is None:
            pending.append((node, step(node)))
        elif not pending:
            return value
        parent, running = pending[-1]
        try:
            node = running.send(value)
        except StopIteration as done:
            pending.pop()
            value = memo[parent] = done.value
            continue
        value = memo.get(node)


def _row_step(rows: tuple[int, ...]):
    if len(rows) == 1:
        return 1
    head, bottom = rows[:-1], rows[-1]
    total = bottom * (yield head)
    for ell in range(1, bottom + 1):
        sub = tuple(x - ell for x in head)
        if sub[-1]:  # a zero row gives 0: never yielded or stored
            total += math.comb(bottom + 1, ell + 1) * (yield sub)
    return total


def beta_row_recursion(shape: FerrersShape) -> int:
    """beta(shape) by the bottom-row recursion, an oracle independent of the
    triangle.  It runs on the shared walk, memoised within the call, at any
    row count; a shape with a zero row gives 0."""
    if shape.rows[-1] == 0:
        return 0
    return _memo_walk(shape.rows, _row_step, {})
