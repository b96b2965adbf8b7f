"""Command-line interface.

Subcommands
-----------
beta      boolean number of a shape or an edge-list graph, by any method
triangle  dump the coefficient triangle as TSV or JSON
sequence  named sequences (genocchi2, legendre-stirling, beta-staircase)
complex   rank vector of the word complex as JSON
verify    cross-check every method and identity on a small shape universe
bench     predicted multiplications and wall times, triangle vs. edge recursion

Exit codes: 0 success, 1 input error, 2 oracle cap exceeded, 3 a failed
verify check, 4 internal error (a fault in the program, reported on one line).
Each graph oracle obeys one vertex cap (``checks.oracle_graph``): 8 for the
rank census, 12 for the edge recursion and xi.  --cap-vertices, or else the
environment variable FB_CAP_VERTICES, sets it for all three.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import random
import sys
import time
from collections import Counter
from typing import Iterator

from . import boolcomplex, checks, graphs, sequences, triangle
from .shapes import FerrersShape, ShapeError, enumerate_shapes, parse_shape, random_shape

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

VERIFY_CELLS_CAP = 12

# _decimal_text calls str() up to the cut and splits larger values down to
# leaves of this size
_DECIMAL_CUT_BITS = 30_000
_DECIMAL_LEAF_BITS = 4096


class InputError(Exception):
    """Invalid command-line input; main reports it on one line with exit 1."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises InputError instead of printing usage."""

    def error(self, message: str):
        raise InputError(message)


def _cap_from(args: argparse.Namespace) -> int | None:
    value, source = getattr(args, "cap_vertices", None), "--cap-vertices"
    if value is None:
        env = os.environ.get("FB_CAP_VERTICES")
        if env is not None:
            source = "FB_CAP_VERTICES"
            try:
                value = int(env)
            except ValueError:
                raise InputError(f"FB_CAP_VERTICES must be an integer, got {env!r}") from None
    if value is not None and value < 1:
        raise InputError(f"{source} must be >= 1")
    return value


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _decimal_text(n: int) -> str:
    """Decimal text of n, the same digits as str(n).

    str() of an int takes time quadratic in its length.  Above the cut, n is
    split as hi * 2**k + lo with k half its bits, down to leaves of at most
    _DECIMAL_LEAF_BITS bits, and the halves are joined as hi * D(2**k) + lo in
    a local decimal context, where libmpdec multiplies large coefficients in
    subquadratic time.  The context is exact and traps Inexact, so a rounding
    raises instead of printing a wrong digit; the thread's context is not used.
    """
    if n.bit_length() <= _DECIMAL_CUT_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal_text(-n)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    ctx.traps[decimal.Inexact] = True
    powers: dict[int, decimal.Decimal] = {}  # k -> D(2**k)

    def power(k: int) -> decimal.Decimal:
        if k not in powers:
            if k <= _DECIMAL_LEAF_BITS:
                powers[k] = decimal.Decimal(1 << k)
            else:
                half = power(k >> 1)
                square = ctx.multiply(half, half)
                powers[k] = ctx.multiply(square, 2) if k & 1 else square
        return powers[k]

    def convert(m: int, bits: int) -> decimal.Decimal:
        # m < 2**bits
        if bits <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(m)
        k = bits >> 1
        hi = m >> k
        return ctx.add(ctx.multiply(convert(hi, bits - k), power(k)), convert(m - (hi << k), k))

    return ctx.to_sci_string(convert(n, n.bit_length()))


def _load_graph(path: str) -> graphs.MultiGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return graphs.parse_edge_list(handle.read())
    except (OSError, ValueError) as exc:  # unreadable file or malformed edge list
        raise InputError(str(exc)) from None


def cmd_beta(args: argparse.Namespace) -> int:
    cap = _cap_from(args)
    if args.shape is not None:
        source = parse_shape(args.shape)
        method = args.method or "triangle"
        label = str(source)
    else:
        source = _load_graph(args.graph)
        method = args.method or "edge"
        if method in ("triangle", "row"):
            raise InputError(f"method {method!r} does not apply to --graph input")
        label = args.graph
    if method == "triangle":
        value = triangle.beta_triangle(source)
    else:
        value = checks.oracle_beta(method, source, cap)
    if args.format == "json":
        print(_dump_json({"beta": _decimal_text(value), "input": label, "method": method}))
    else:
        print(_decimal_text(value))
    return EXIT_OK


def cmd_triangle(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    rows = triangle.iter_row_values(shape)
    if args.format == "json":
        # decimal strings need no JSON escaping, so each row is joined directly
        lead = "["
        for row in rows:
            print(lead + '["' + '","'.join(map(_decimal_text, row)) + '"]', end="")
            lead = ","
        print("]")
    else:
        for row in rows:
            print("\t".join(map(_decimal_text, row)))
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
    if args.steplength is not None and args.steplength < 1:
        raise InputError("--steplength must be >= 1")
    for row in _sequence_rows(args):
        if args.format == "bfile":
            print(_decimal_text(row[0]), _decimal_text(row[-1]))
        else:
            print("\t".join(map(_decimal_text, row)))
    return EXIT_OK


def cmd_complex(args: argparse.Namespace) -> int:
    cap = _cap_from(args)
    source = parse_shape(args.shape) if args.shape is not None else _load_graph(args.graph)
    rv = boolcomplex.rank_vector(checks.oracle_graph("rank", source, cap))
    print(_dump_json([_decimal_text(c) for c in rv]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(cells: int, cap: int | None) -> list[tuple[str, str, str]]:
    """Cross-check every method and identity; returns (status, name, detail) rows.

    One pass over the shape universe runs every per-shape check of
    ``checks``; each shape's triangle value serves the method comparison and
    the zero-row rule.  The sequence identities run after it, at fixed sizes.
    """
    results: list[tuple[str, str, str]] = []
    universe = sorted(enumerate_shapes(cells), key=lambda s: s.rows)

    failures = []
    first_bad: dict[str, str] = {}  # check name -> its first counterexample
    skipped: Counter[str] = Counter()  # oracle -> shapes above its cap
    for shape in universe:
        expected = triangle.beta_triangle(shape)
        wrong, skips = checks.method_agreement(shape, expected, cap)
        failures.extend(f"{method} disagrees on {shape}" for method in wrong)
        skipped.update(skips)
        for name, problem in (
            ("beta-zero-iff-zero-row", checks.zero_iff_zero_row(shape, expected)),
            ("triangle-structure", checks.triangle_structure(shape)),
            ("transpose-invariance", checks.transpose_invariance(shape)),
            ("cost-model", checks.cost_model(shape)),
        ):
            if problem:
                first_bad.setdefault(name, problem)

    detail = (
        f"{len(universe)} shapes, {skipped['rank']} rank-skipped, "
        f"{skipped['edge']} edge-skipped"
    )
    if failures:
        results.append(("FAIL", "beta-methods-agree", "; ".join(failures[:5])))
    else:
        results.append(("PASS", "beta-methods-agree", detail))
    if skipped["rank"] or skipped["edge"]:
        results.append(("SKIP", "beta-methods-capped", detail))
    counted = f"{len(universe)} shapes"
    for name, passed in (
        ("beta-zero-iff-zero-row", counted),
        ("triangle-structure", counted),
        ("transpose-invariance", "positive shapes in universe"),
        ("cost-model", counted),
    ):
        bad = first_bad.get(name)
        results.append(("FAIL", name, bad) if bad else ("PASS", name, passed))

    for name, detail, holds in (
        ("staircase-genocchi", "heights 1..8", checks.staircase_genocchi(8)),
        ("legendre-stirling-triangle", "i <= 8", checks.legendre_stirling_triangle(8)),
        ("genocchi-ls-identity", "r <= 10", checks.genocchi_ls_identity(10)),
        ("complete-bipartite", "r, k <= 5", checks.complete_bipartite(5)),
        ("staircase-column-gf", "j <= 3, d <= 2", checks.staircase_column_gf(3, 2, 8)),
    ):
        results.append(("PASS" if holds else "FAIL", name, detail))
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    cap = _cap_from(args)
    if args.cells > VERIFY_CELLS_CAP:
        raise checks.GraphTooLarge(
            f"--cells {args.cells} exceeds the verify cap {VERIFY_CELLS_CAP}"
        )
    if args.cells < 1:
        raise InputError("--cells must be >= 1")
    results = run_verify(args.cells, cap)
    for status, name, detail in results:
        print(f"{status} {name} ({detail})")
    return EXIT_VERIFY if any(status == "FAIL" for status, _, _ in results) else EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_label(shape: FerrersShape) -> str:
    text = str(shape)
    return text if len(text) <= 40 else text[:37] + "..."


def _bench_row(shape: FerrersShape, tag: str, cap: int | None) -> list:
    # Time one run on this orientation as given, so each row shows the
    # paper's cost model; beta_triangle picks the cheaper.
    t0 = time.perf_counter()
    triangle.evaluate(shape)
    t_triangle = time.perf_counter() - t0
    try:
        g = checks.oracle_graph("edge", shape, cap)
    except checks.GraphTooLarge:
        t_edge = "INFEASIBLE"
    else:
        t0 = time.perf_counter()
        graphs.beta_edge_recursion(g)
        t_edge = f"{time.perf_counter() - t0:.6f}"
    return [
        _bench_label(shape),
        shape.cell_count,
        shape.row_count,
        tag,
        triangle.predicted_cost(shape),
        f"{t_triangle:.6f}",
        t_edge,
    ]


def cmd_bench(args: argparse.Namespace) -> int:
    cap = _cap_from(args)
    shapes: list[FerrersShape] = [parse_shape(text) for text in args.shape or []]
    if args.cells is not None and args.count is None:
        raise InputError("--cells needs --count for random shapes")
    if args.count is not None:
        if args.count < 1:
            raise InputError("--count must be >= 1")
        if args.cells is None:
            raise InputError("--count needs --cells for random shapes")
        if args.cells < 1:
            raise InputError("--cells must be >= 1")
        rng = random.Random(args.seed)
        shapes.extend(random_shape(args.cells, rng) for _ in range(args.count))
    if not shapes:
        raise InputError("bench needs --shape and/or --count with --cells")
    print("shape\tcells\trows\torientation\tpredicted\tt_triangle\tt_edge")
    for shape in shapes:
        orientations = [(shape, "given")]
        if not shape.has_zero_row:
            flipped = shape.transpose()
            if flipped != shape:
                orientations.append((flipped, "transposed"))
        for oriented, tag in orientations:
            print("\t".join(str(x) for x in _bench_row(oriented, tag, cap)))
    return EXIT_OK


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
    source = p_beta.add_mutually_exclusive_group(required=True)
    source.add_argument("--shape", help="comma-separated row lengths, e.g. 3,2,1")
    source.add_argument("--graph", help="edge-list file ('n m' header, 'u v' lines)")
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
    source = p_cpx.add_mutually_exclusive_group(required=True)
    source.add_argument("--shape")
    source.add_argument("--graph")
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
    except checks.GraphTooLarge as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, ShapeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault in the program, not in its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
