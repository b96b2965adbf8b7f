"""Command-line interface.

Subcommands
-----------
beta      boolean number of a shape or an edge-list graph, by any method
triangle  dump the coefficient triangle as TSV or JSON
sequence  named sequences (genocchi2, legendre-stirling, beta-staircase)
complex   rank vector of the word complex as JSON
verify    cross-check every method and identity on a small shape universe
bench     multiplication counts and wall times, triangle vs. edge recursion

Exit codes: 0 success, 1 input error, 2 oracle cap exceeded, 3 verification
failure.  The environment variable FB_CAP_VERTICES overrides the oracle
vertex cap like --cap-vertices does.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Iterator

from . import boolcomplex, graphs, recursion, sequences, triangle
from .shapes import (
    FerrersShape,
    ShapeError,
    enumerate_shapes,
    parse_shape,
    random_shape,
    rectangle,
    staircase,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

VERIFY_CELLS_CAP = 12


class InputError(Exception):
    """Invalid command-line input; main reports it on one line with exit 1."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises InputError instead of printing usage."""

    def error(self, message: str):
        raise InputError(message)


@dataclass(frozen=True)
class OracleCaps:
    """Vertex budgets for the exhaustive oracles and the edge recursion."""

    rank_vertices: int = graphs.EXHAUSTIVE_VERTEX_CAP
    edge_vertices: int = graphs.EDGE_RECURSION_VERTEX_CAP


def _caps_from(args: argparse.Namespace) -> OracleCaps:
    value = getattr(args, "cap_vertices", None)
    if value is None:
        env = os.environ.get("FB_CAP_VERTICES")
        if env is not None:
            value = int(env)
    if value is None:
        return OracleCaps()
    if value < 1:
        raise ValueError("--cap-vertices must be >= 1")
    return OracleCaps(rank_vertices=value, edge_vertices=value)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_graph(path: str) -> graphs.SimpleGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return graphs.parse_edge_list(handle.read())


def _beta_for_graph(g: graphs.SimpleGraph, method: str, caps: OracleCaps) -> int:
    if method == "edge":
        return graphs.beta_edge_recursion(g, max_vertices=caps.edge_vertices)
    if method == "rank":
        return boolcomplex.beta_via_rank(g, max_vertices=caps.rank_vertices)
    if method == "xi":
        if g.vertex_count > caps.edge_vertices:
            raise graphs.GraphTooLarge(
                f"{g.vertex_count} vertices exceeds the cap {caps.edge_vertices}"
            )
        return graphs.beta_via_xi(g)
    raise ValueError(f"method {method!r} needs a shape input")


def cmd_beta(args: argparse.Namespace) -> int:
    caps = _caps_from(args)
    if (args.shape is None) == (args.graph is None):
        raise InputError("beta needs exactly one of --shape or --graph")
    if args.shape is not None:
        shape = parse_shape(args.shape)
        method = args.method or "triangle"
        if method == "triangle":
            value = triangle.beta_triangle(shape)
        elif method == "row":
            value = recursion.beta_row_recursion(shape)
        else:
            value = _beta_for_graph(graphs.ferrers_graph(shape), method, caps)
        label = str(shape)
    else:
        g = _load_graph(args.graph)
        method = args.method or "edge"
        if method in ("triangle", "row"):
            raise InputError(f"method {method!r} does not apply to --graph input")
        value = _beta_for_graph(g, method, caps)
        label = args.graph
    if args.format == "json":
        print(_dump_json({"beta": str(value), "input": label, "method": method}))
    else:
        print(value)
    return EXIT_OK


def cmd_triangle(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    rows = triangle.iter_row_values(shape)
    if args.format == "json":
        lead = "["
        for row in rows:
            print(lead + _dump_json([str(c) for c in row]), end="")
            lead = ","
        print("]")
    else:
        for row in rows:
            print("\t".join(str(c) for c in row))
    return EXIT_OK


def _sequence_rows(args: argparse.Namespace) -> Iterator[tuple[int, ...]]:
    if args.which == "genocchi2":
        return enumerate(sequences.genocchi2_values(args.count), start=1)
    if args.which == "beta-staircase":
        steplength = 1 if args.steplength is None else args.steplength
        return enumerate(sequences.beta_staircases(args.count, steplength), start=1)
    # legendre-stirling: one output line per (i, j) cell, row by row
    cells = (
        (i, j, value)
        for i, row in enumerate(sequences.rescaled_staircase_rows(args.count), start=1)
        for j, value in enumerate(row, start=1)
    )
    return ((idx, *cell) for idx, cell in enumerate(cells, start=1))


def cmd_sequence(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise InputError("--count must be >= 1")
    if args.steplength is not None and args.which != "beta-staircase":
        raise InputError("--steplength applies only to beta-staircase")
    for row in _sequence_rows(args):
        if args.format == "bfile":
            print(f"{row[0]} {row[-1]}")
        else:
            print("\t".join(str(x) for x in row))
    return EXIT_OK


def cmd_complex(args: argparse.Namespace) -> int:
    caps = _caps_from(args)
    if (args.shape is None) == (args.graph is None):
        raise InputError("complex needs exactly one of --shape or --graph")
    if args.shape is not None:
        g = graphs.ferrers_graph(parse_shape(args.shape))
    else:
        g = _load_graph(args.graph)
    rv = boolcomplex.rank_vector(g, max_vertices=caps.rank_vertices)
    print(_dump_json([str(c) for c in rv.counts]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_triangle_structure(shape: FerrersShape) -> str | None:
    width = shape.rows[0]
    for i, row in enumerate(triangle.iter_row_values(shape), start=1):
        if sum(row) != 0:
            return f"row {i} of {shape} does not sum to zero"
        if shape.rows[i - 1] < width and row[0] != 0:
            return f"row {i} of {shape} should start with zero"
        for j in range(1, len(row) - 1):
            if row[j] and row[j + 1] and (row[j] > 0) == (row[j + 1] > 0):
                return f"row {i} of {shape} breaks sign alternation at {j}"
    return None


# The sequence identities: (name, detail, check).
SEQUENCE_IDENTITIES = (
    ("staircase-genocchi", "heights 1..8", lambda: all(
        triangle.beta_triangle(staircase(r, 1)) == beta == g == sequences.beta_staircase_closed(r)
        for r, beta, g in zip(range(1, 9), sequences.beta_staircases(8),
                              sequences.genocchi2_values(8), strict=True))),
    ("legendre-stirling-triangle", "i <= 8", lambda: all(
        value == sequences.legendre_stirling(i, j)
        for i, row in enumerate(sequences.rescaled_staircase_rows(8), start=1)
        for j, value in enumerate(row, start=1))),
    ("genocchi-ls-identity", "r <= 10", lambda: all(
        lhs == rhs for lhs, rhs in map(sequences.genocchi_ls_identity, range(1, 11)))),
    ("complete-bipartite", "r, k <= 5", lambda: all(
        sequences.beta_complete_bipartite(r, k) == triangle.beta_triangle(rectangle(r, k))
        for r in range(1, 6) for k in range(1, 6))),
    ("staircase-column-gf", "j <= 3, d <= 2", lambda: all(
        a == b for j in range(1, 4) for d in range(1, 3)
        for a, b in [sequences.chat_gf_check(j, d, 8)])),
)  # fmt: skip


def run_verify(cells: int, caps: OracleCaps) -> list[tuple[str, str, str]]:
    """Cross-check every method and identity; returns (status, name, detail) rows.

    One pass over the shape universe runs every per-shape check.  Each shape's
    triangle value serves the method comparison, the zero-row rule and the
    transpose check; the row-structure walk and the cost census run beside them.
    """
    results: list[tuple[str, str, str]] = []
    universe = sorted(enumerate_shapes(cells, allow_zero_rows=True), key=lambda s: s.rows)

    failures = []
    first_bad: dict[str, str] = {}  # check name -> its first counterexample
    skipped_rank = 0
    skipped_edge = 0
    for shape in universe:
        expected = triangle.beta_triangle(shape)
        if recursion.beta_row_recursion(shape) != expected:
            failures.append(f"row disagrees on {shape}")
        g = graphs.ferrers_graph(shape)
        if g.vertex_count <= caps.edge_vertices:
            if graphs.beta_edge_recursion(g, max_vertices=caps.edge_vertices) != expected:
                failures.append(f"edge disagrees on {shape}")
            if graphs.beta_via_xi(g) != expected:
                failures.append(f"xi disagrees on {shape}")
        else:
            skipped_edge += 1
        if g.vertex_count <= caps.rank_vertices:
            if boolcomplex.beta_via_rank(g, max_vertices=caps.rank_vertices) != expected:
                failures.append(f"rank disagrees on {shape}")
        else:
            skipped_rank += 1
        if (expected == 0) != shape.has_zero_row:
            first_bad.setdefault("beta-zero-iff-zero-row", f"counterexample {shape}")
        if problem := _check_triangle_structure(shape):
            first_bad.setdefault("triangle-structure", problem)
        if not shape.has_zero_row and triangle.beta_triangle(shape.transpose()) != expected:
            first_bad.setdefault("transpose-invariance", f"counterexample {shape}")
        _, report = triangle.instrumented_gamma(shape)
        if report.multiplications != report.predicted:
            first_bad.setdefault("cost-instrumentation", f"counterexample {shape}")

    detail = (
        f"{len(universe)} shapes, {skipped_rank} rank-skipped, {skipped_edge} edge-skipped"
    )
    if failures:
        results.append(("FAIL", "beta-methods-agree", "; ".join(failures[:5])))
    else:
        results.append(("PASS", "beta-methods-agree", detail))
    if skipped_rank or skipped_edge:
        results.append(("SKIP", "beta-methods-capped", detail))
    counted = f"{len(universe)} shapes"
    for name, passed in (
        ("beta-zero-iff-zero-row", counted),
        ("triangle-structure", counted),
        ("transpose-invariance", "positive shapes in universe"),
        ("cost-instrumentation", counted),
    ):
        bad = first_bad.get(name)
        results.append(("FAIL", name, bad) if bad else ("PASS", name, passed))

    for name, detail, holds in SEQUENCE_IDENTITIES:
        results.append(("PASS" if holds() else "FAIL", name, detail))
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    caps = _caps_from(args)
    if args.cells > VERIFY_CELLS_CAP:
        raise graphs.GraphTooLarge(
            f"--cells {args.cells} exceeds the verify cap {VERIFY_CELLS_CAP}"
        )
    if args.cells < 1:
        raise InputError("--cells must be >= 1")
    results = run_verify(args.cells, caps)
    for status, name, detail in results:
        print(f"{status} {name} ({detail})")
    return EXIT_VERIFY if any(status == "FAIL" for status, _, _ in results) else EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_label(shape: FerrersShape) -> str:
    text = str(shape)
    return text if len(text) <= 40 else text[:37] + "..."


def _bench_row(shape: FerrersShape, caps: OracleCaps) -> tuple[list, bool]:
    t0 = time.perf_counter()
    triangle.beta_triangle(shape)
    t_triangle = time.perf_counter() - t0
    _, report = triangle.instrumented_gamma(shape)
    matches = report.multiplications == report.predicted
    g_vertices = shape.row_count + shape.rows[0]
    if g_vertices <= caps.edge_vertices:
        g = graphs.ferrers_graph(shape)
        t0 = time.perf_counter()
        graphs.beta_edge_recursion(g, max_vertices=caps.edge_vertices)
        t_edge = f"{time.perf_counter() - t0:.6f}"
    else:
        t_edge = "INFEASIBLE"
    row = [
        _bench_label(shape),
        shape.cell_count,
        shape.row_count,
        report.predicted,
        report.multiplications,
        "ok" if matches else "MISMATCH",
        f"{t_triangle:.6f}",
        t_edge,
    ]
    return row, matches


def cmd_bench(args: argparse.Namespace) -> int:
    caps = _caps_from(args)
    shapes: list[FerrersShape] = [parse_shape(text) for text in args.shape or []]
    if args.count:
        if not args.cells or args.cells < 1:
            raise InputError("--count needs --cells for random shapes")
        rng = random.Random(args.seed)
        shapes.extend(random_shape(args.cells, rng) for _ in range(args.count))
    if not shapes:
        raise InputError("bench needs --shape and/or --count with --cells")
    print("shape\tcells\trows\torientation\tpredicted\tmultiplications\tcheck\tt_triangle\tt_edge")
    all_match = True
    for shape in shapes:
        orientations = [(shape, "given")]
        if not shape.has_zero_row:
            flipped = shape.transpose()
            if flipped != shape:
                orientations.append((flipped, "transposed"))
        for oriented, tag in orientations:
            row, matches = _bench_row(oriented, caps)
            all_match = all_match and matches
            print("\t".join(str(x) for x in row[:3] + [tag] + row[3:]))
    return EXIT_OK if all_match else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ferrersbool",
        description="Boolean numbers of Ferrers graphs: exact computation, "
        "cross-verification, and cost benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_beta = sub.add_parser("beta", help="compute a boolean number")
    p_beta.add_argument("--shape", help="comma-separated row lengths, e.g. 3,2,1")
    p_beta.add_argument("--graph", help="edge-list file ('n m' header, 'u v' lines)")
    p_beta.add_argument(
        "--method",
        choices=["triangle", "row", "edge", "rank", "xi"],
        help="triangle (default for shapes), row, edge, rank, or xi",
    )
    p_beta.add_argument("--format", choices=["plain", "json"], default="plain")
    p_beta.add_argument("--cap-vertices", type=int)
    p_beta.set_defaults(func=cmd_beta)

    p_tri = sub.add_parser("triangle", help="print the coefficient triangle")
    p_tri.add_argument("--shape", required=True)
    p_tri.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p_tri.set_defaults(func=cmd_triangle)

    p_seq = sub.add_parser("sequence", help="print a named sequence")
    p_seq.add_argument(
        "which", choices=["genocchi2", "legendre-stirling", "beta-staircase"]
    )
    p_seq.add_argument("--count", type=int, default=10)
    p_seq.add_argument("--steplength", type=int, help="beta-staircase only (default 1)")
    p_seq.add_argument("--format", choices=["tsv", "bfile"], default="tsv")
    p_seq.set_defaults(func=cmd_sequence)

    p_cpx = sub.add_parser("complex", help="rank vector of the word complex")
    p_cpx.add_argument("--shape")
    p_cpx.add_argument("--graph")
    p_cpx.add_argument("--cap-vertices", type=int)
    p_cpx.set_defaults(func=cmd_complex)

    p_ver = sub.add_parser("verify", help="run the cross-oracle checks")
    p_ver.add_argument("--cells", type=int, default=8)
    p_ver.add_argument("--cap-vertices", type=int)
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="cost and timing report")
    p_bench.add_argument("--shape", action="append", help="repeatable")
    p_bench.add_argument("--count", type=int, help="number of random shapes")
    p_bench.add_argument("--cells", type=int, help="cells per random shape")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--cap-vertices", type=int)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    # Values of any size print: Python 3.11 caps int-to-str at 4300 digits.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except graphs.GraphTooLarge as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, ShapeError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
