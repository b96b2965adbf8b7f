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
        print("beta needs exactly one of --shape or --graph", file=sys.stderr)
        return EXIT_INPUT
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
            print(f"method {method!r} does not apply to --graph input", file=sys.stderr)
            return EXIT_INPUT
        value = _beta_for_graph(g, method, caps)
        label = args.graph
    if args.format == "json":
        print(_dump_json({"beta": str(value), "input": label, "method": method}))
    else:
        print(value)
    return EXIT_OK


def cmd_triangle(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    tri = triangle.coefficient_triangle(shape)
    if args.format == "json":
        payload = [[str(c) for c in row.values] for row in tri.rows]
        print(_dump_json(payload))
    else:
        for row in tri.rows:
            print("\t".join(str(c) for c in row.values))
    return EXIT_OK


def _sequence_rows(args: argparse.Namespace) -> list[tuple[int, ...]]:
    if args.which == "genocchi2":
        return [(r, sequences.genocchi2(r)) for r in range(1, args.count + 1)]
    if args.which == "beta-staircase":
        return [
            (r, triangle.beta_triangle(staircase(r, args.steplength)))
            for r in range(1, args.count + 1)
        ]
    # legendre-stirling: one output line per (i, j) cell, row by row
    rows = args.rows if args.rows is not None else args.count
    out = []
    idx = 0
    for i in range(1, rows + 1):
        for j in range(1, i + 1):
            idx += 1
            out.append((idx, i, j, sequences.legendre_stirling(i, j)))
    return out


def cmd_sequence(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("--count must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    rows = _sequence_rows(args)
    sep = "\t" if args.format == "tsv" else " "
    for row in rows:
        if args.format == "bfile":
            print(f"{row[0]} {row[-1]}")
        else:
            print(sep.join(str(x) for x in row))
    return EXIT_OK


def cmd_complex(args: argparse.Namespace) -> int:
    caps = _caps_from(args)
    if (args.shape is None) == (args.graph is None):
        print("complex needs exactly one of --shape or --graph", file=sys.stderr)
        return EXIT_INPUT
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


def run_verify(cells: int, caps: OracleCaps) -> list[tuple[str, str, str]]:
    """Cross-check every method and identity; returns (status, name, detail) rows."""
    results: list[tuple[str, str, str]] = []
    universe = sorted(enumerate_shapes(cells, allow_zero_rows=True), key=lambda s: s.rows)

    failures = []
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
    detail = (
        f"{len(universe)} shapes, {skipped_rank} rank-skipped, {skipped_edge} edge-skipped"
    )
    if failures:
        results.append(("FAIL", "beta-methods-agree", "; ".join(failures[:5])))
    else:
        results.append(("PASS", "beta-methods-agree", detail))
    if skipped_rank or skipped_edge:
        results.append(("SKIP", "beta-methods-capped", detail))

    bad = [s for s in universe if (triangle.beta_triangle(s) == 0) != s.has_zero_row]
    results.append(
        ("FAIL", "beta-zero-iff-zero-row", f"counterexample {bad[0]}")
        if bad
        else ("PASS", "beta-zero-iff-zero-row", f"{len(universe)} shapes")
    )

    structure_bad = None
    for shape in universe:
        structure_bad = _check_triangle_structure(shape)
        if structure_bad:
            break
    results.append(
        ("FAIL", "triangle-structure", structure_bad)
        if structure_bad
        else ("PASS", "triangle-structure", f"{len(universe)} shapes")
    )

    transpose_bad = [
        s
        for s in universe
        if not s.has_zero_row
        and triangle.beta_triangle(s.transpose()) != triangle.beta_triangle(s)
    ]
    results.append(
        ("FAIL", "transpose-invariance", f"counterexample {transpose_bad[0]}")
        if transpose_bad
        else ("PASS", "transpose-invariance", "positive shapes in universe")
    )

    cost_bad = []
    for shape in universe:
        _, report = triangle.instrumented_gamma(shape)
        if report.multiplications != report.predicted:
            cost_bad.append(str(shape))
    results.append(
        ("FAIL", "cost-instrumentation", f"counterexample {cost_bad[0]}")
        if cost_bad
        else ("PASS", "cost-instrumentation", f"{len(universe)} shapes")
    )

    ok = all(
        triangle.beta_triangle(staircase(r, 1))
        == sequences.genocchi2(r)
        == sequences.beta_staircase_closed(r)
        for r in range(1, 9)
    )
    results.append(
        ("PASS" if ok else "FAIL", "staircase-genocchi", "heights 1..8")
    )

    ok = all(
        sequences.legendre_stirling(i, j) == sequences.legendre_stirling_via_triangle(i, j)
        for i in range(1, 9)
        for j in range(1, i + 1)
    )
    results.append(("PASS" if ok else "FAIL", "legendre-stirling-triangle", "i <= 8"))

    ok = all(lhs == rhs for lhs, rhs in (sequences.genocchi_ls_identity(r) for r in range(1, 11)))
    results.append(("PASS" if ok else "FAIL", "genocchi-ls-identity", "r <= 10"))

    ok = all(
        sequences.beta_complete_bipartite(r, k) == triangle.beta_triangle(rectangle(r, k))
        for r in range(1, 6)
        for k in range(1, 6)
    )
    results.append(("PASS" if ok else "FAIL", "complete-bipartite", "r, k <= 5"))

    ok = True
    for j in range(1, 4):
        for d in range(1, 3):
            series_a, series_b = sequences.chat_gf_check(j, d, 8)
            if series_a != series_b:
                ok = False
    results.append(("PASS" if ok else "FAIL", "staircase-column-gf", "j <= 3, d <= 2"))

    return results


def cmd_verify(args: argparse.Namespace) -> int:
    caps = _caps_from(args)
    if args.cells > VERIFY_CELLS_CAP:
        print(
            f"--cells {args.cells} exceeds the verify cap {VERIFY_CELLS_CAP}",
            file=sys.stderr,
        )
        return EXIT_CAP
    if args.cells < 1:
        print("--cells must be >= 1", file=sys.stderr)
        return EXIT_INPUT
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
            print("--count needs --cells for random shapes", file=sys.stderr)
            return EXIT_INPUT
        rng = random.Random(args.seed)
        shapes.extend(random_shape(args.cells, rng) for _ in range(args.count))
    if not shapes:
        print("bench needs --shape and/or --count with --cells", file=sys.stderr)
        return EXIT_INPUT
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
    parser = argparse.ArgumentParser(
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
    p_seq.add_argument("--rows", type=int, help="triangle rows for legendre-stirling")
    p_seq.add_argument("--steplength", type=int, default=1)
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
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except graphs.GraphTooLarge as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ShapeError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
