"""Span recorder for the traced benchmark run.

``install`` wraps the package's public functions under every name a caller
looks up them by: ``sequences`` imports ``final_row_values`` from
``triangle``, so ``sequences.final_row_values`` is wrapped as well as
``triangle.final_row_values``.  The CLI gets spans for argument parsing
(``build_parser`` and the parser's ``parse_args``), encoding (``str``,
``_dump_json`` and the conversions ``print`` makes) and writing (``print``).
Generators such as ``iter_row_values`` are timed step by step while they are
consumed.  Spans are recorded only inside a ``cli.main`` call.

Every span has a name, a start, an end and a parent, and falls in a bucket: a
layer metric such as ``triangle.rows``.  A bucket's time is the self time of
its spans, which is a span's duration less the part its child spans cover.
The bookkeeping behind the count metrics runs on a paused clock, so it is in
no span.
"""

from __future__ import annotations

import builtins
import inspect
import sys
import time
import types
from collections import Counter

import reference as ref

PACKAGE = "ferrersbool"
MODULES = ("cli", "shapes", "triangle", "sequences", "recursion", "graphs", "boolcomplex")

# Span name -> bucket.  A public function not named here takes the bucket of
# the nearest open span of its own module, else the module's own bucket.
BUCKETS = {
    "cli.main": "cli.self",
    "cli.build_parser": "cli.argparse",
    "cli.parse_args": "cli.argparse",
    "cli.str": "cli.encode",
    "cli._dump_json": "cli.encode",
    "cli.print": "cli.print",
    "shapes.parse_shape": "shapes.parse",
    "shapes.transpose": "shapes.transpose",
    "shapes.FerrersShape.transpose": "shapes.transpose",
    "triangle.final_row_values": "triangle.rows",
    "triangle.iter_row_values": "triangle.rows",
    "triangle.coefficient_triangle": "triangle.rows",
    "triangle.next_values": "triangle.rows",
    "triangle.next_row": "triangle.rows",
    "triangle.beta_triangle": "triangle.power_sum",
    "triangle.instrumented_gamma": "triangle.instrumented",
    "graphs.beta_edge_recursion": "graphs.edge",
    "graphs.delete_edge": "graphs.edge",
    "graphs.contract_edge": "graphs.edge",
    "graphs.simple_contract_edge": "graphs.edge",
    "graphs.extract_edge": "graphs.edge",
    "graphs.xi_polynomial": "graphs.xi",
    "graphs.beta_via_xi": "graphs.xi",
    "graphs.bichromatic_via_xi": "graphs.xi",
    "graphs.bivariate_chromatic_count": "graphs.xi",
    "graphs.ferrers_graph": "graphs.build",
    "graphs.parse_edge_list": "graphs.build",
    "graphs.to_multigraph": "graphs.build",
}
MODULE_BUCKETS = {
    "cli": "cli.self",
    "shapes": "shapes.other",
    "triangle": "triangle.other",
    "sequences": "sequences.self",
    "recursion": "recursion.row",
    "graphs": "graphs.other",
    "boolcomplex": "boolcomplex.rank",
}
TIME_BUCKETS = (
    "cli.self", "cli.argparse", "cli.encode", "cli.print",
    "shapes.parse", "shapes.transpose", "shapes.other",
    "triangle.rows", "triangle.power_sum", "triangle.instrumented", "triangle.other",
    "sequences.self",
    "recursion.row",
    "graphs.edge", "graphs.xi", "graphs.build", "graphs.other",
    "boolcomplex.rank",
)  # fmt: skip
# Buckets whose outermost calls are counted as <bucket>_calls.
CALL_BUCKETS = ("recursion.row", "graphs.edge", "graphs.xi", "graphs.build", "boolcomplex.rank")
COUNTS = (
    "cli.calls",
    "triangle.builds",
    "triangle.rows",
    "triangle.entries",
    "triangle.mults_predicted",
    "triangle.mults_predicted_min",
    "triangle.max_entry_bits",
    "triangle.result_bits",
    "sequences.triangle_builds",
    "sequences.triangle_rows",
) + tuple(f"{bucket}_calls" for bucket in CALL_BUCKETS)
# Counts that hold a largest value rather than a total.
MAX_COUNTS = ("triangle.max_entry_bits",)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, bucket, start, end, parent index]
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self.command: str | None = None  # subcommand of the open cli.main call
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._paused = 0.0

    def _now(self) -> float:
        return time.perf_counter() - self._paused

    def _bucket(self, name: str) -> str:
        if name in BUCKETS:
            return BUCKETS[name]
        module = name.split(".", 1)[0]
        for index in reversed(self._stack):
            if self.spans[index][0].startswith(module + "."):
                return self.spans[index][1]
        return MODULE_BUCKETS[module]

    def outermost(self, bucket: str) -> bool:
        return self._depth[bucket] == 0

    def open(self, name: str) -> bool:
        """Start a span; True when no span of its bucket is open."""
        bucket = self._bucket(name)
        top = self._depth[bucket] == 0
        if top and bucket in CALL_BUCKETS:
            self.counts[bucket + "_calls"] += 1
        self._depth[bucket] += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, bucket, self._now(), None, parent])
        return top

    def close(self) -> None:
        span = self.spans[self._stack.pop()]
        span[3] = self._now()
        self._depth[span[1]] -= 1

    def account(self, observe, *args):
        """Run bookkeeping with the clock stopped."""
        start = time.perf_counter()
        try:
            return observe(self, *args)
        finally:
            self._paused += time.perf_counter() - start

    def in_sequence(self) -> bool:
        return self.command == "sequence" or self._depth["sequences.self"] > 0

    def absorb(self, spans: list[list], counts: dict[str, int]) -> None:
        """Add the spans and counts of calls traced in another process."""
        offset = len(self.spans)
        for name, bucket, start, end, parent in spans:
            self.spans.append([name, bucket, start, end, parent + offset if parent >= 0 else -1])
        for name, value in counts.items():
            self.counts[name] = max(self.counts[name], value) if name in MAX_COUNTS else self.counts[name] + value

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {bucket: 0.0 for bucket in TIME_BUCKETS}
        for index, (_, bucket, start, end, _) in enumerate(self.spans):
            totals[bucket] = totals.get(bucket, 0.0) + (end - start) - child[index]
        return totals


# ---------------------------------------------------------------------------
# count bookkeeping, run through Tracer.account
# ---------------------------------------------------------------------------

def _shape_rows(args, kwargs):
    shape = args[0] if args else kwargs.get("shape")
    return getattr(shape, "rows", None)


def _note_build(tracer: Tracer, rows, row_count: int, entries: int) -> None:
    counts = tracer.counts
    counts["triangle.builds"] += 1
    counts["triangle.rows"] += row_count
    counts["triangle.entries"] += entries
    if rows is not None:
        predicted = ref.predicted_mults(rows)
        counts["triangle.mults_predicted"] += predicted
        if rows[-1] > 0:
            predicted = min(predicted, ref.predicted_mults_conjugate(rows))
        counts["triangle.mults_predicted_min"] += predicted
    if tracer.in_sequence():
        counts["sequences.triangle_builds"] += 1
        counts["sequences.triangle_rows"] += row_count


def _note_bits(tracer: Tracer, values) -> None:
    bits = max((abs(v).bit_length() for v in values), default=0)
    if bits > tracer.counts["triangle.max_entry_bits"]:
        tracer.counts["triangle.max_entry_bits"] = bits


def _observe_final_row(tracer, top, args, kwargs, row) -> None:
    if top:
        rows = _shape_rows(args, kwargs)
        r = len(row) - 1
        _note_build(tracer, rows, r, r * (r + 3) // 2)
    _note_bits(tracer, row)


def _observe_triangle(tracer, top, args, kwargs, tri) -> None:
    all_rows = [row.values for row in tri.rows]
    if top:
        _note_build(tracer, _shape_rows(args, kwargs), len(all_rows), sum(map(len, all_rows)))
    for values in all_rows:
        _note_bits(tracer, values)


def _observe_beta(tracer, top, args, kwargs, value) -> None:
    if top:
        tracer.counts["triangle.result_bits"] += abs(value).bit_length()


class _RowStream:
    """Counts for iter_row_values: the build is noted when the generator is
    made, its rows as they are consumed."""

    @staticmethod
    def start(tracer, top, args, kwargs):
        if not top:
            return None
        _note_build(tracer, _shape_rows(args, kwargs), 0, 0)
        return tracer.in_sequence()

    @staticmethod
    def step(tracer, in_sequence, row) -> None:
        if in_sequence is not None:
            tracer.counts["triangle.rows"] += 1
            tracer.counts["triangle.entries"] += len(row)
            if in_sequence:
                tracer.counts["sequences.triangle_rows"] += 1
        _note_bits(tracer, row)


OBSERVERS = {
    "triangle.final_row_values": _observe_final_row,
    "triangle.coefficient_triangle": _observe_triangle,
    "triangle.beta_triangle": _observe_beta,
    "triangle.iter_row_values": _RowStream,
}


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _traced_call(tracer: Tracer, name: str, fn, observe=None):
    def wrapper(*args, **kwargs):
        if tracer.command is None:
            return fn(*args, **kwargs)
        top = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if observe is not None:
            tracer.account(observe, top, args, kwargs, result)
        return result

    return wrapper


def _traced_generator(tracer: Tracer, name: str, fn, observe=None):
    def steps(gen, state):
        while True:
            tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close()
            if observe is not None:
                tracer.account(observe.step, state, item)
            yield item

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if tracer.command is None:
            return gen
        state = None
        if observe is not None:
            top = tracer.outermost(BUCKETS[name])
            state = tracer.account(observe.start, top, args, kwargs)
        return steps(gen, state)

    return wrapper


def _wrap(tracer: Tracer, name: str, fn):
    make = _traced_generator if inspect.isgeneratorfunction(fn) else _traced_call
    return make(tracer, name, fn, OBSERVERS.get(name))


_MISSING = object()


def install(tracer: Tracer):
    """Wrap the package for tracer; returns a function that undoes it."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
    wrapped = {}
    for owner in [sys.modules[PACKAGE], *modules.values()]:
        for attr, obj in list(vars(owner).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            home, _, short = obj.__module__.rpartition(".")
            if home != PACKAGE or short not in MODULES or short == "cli":
                continue
            if obj not in wrapped:
                wrapped[obj] = _wrap(tracer, f"{short}.{obj.__name__}", obj)
            patch(owner, attr, wrapped[obj])

    shape_cls = modules["shapes"].FerrersShape
    patch(shape_cls, "transpose", _wrap(tracer, "shapes.FerrersShape.transpose", shape_cls.transpose))

    cli = modules["cli"]
    main = cli.main

    def traced_main(argv=None):
        tracer.command = argv[0] if argv else ""
        tracer.counts["cli.calls"] += 1
        tracer.open("cli.main")
        try:
            return main(argv)
        finally:
            tracer.close()
            tracer.command = None

    build_parser = _traced_call(tracer, "cli.build_parser", cli.build_parser)

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = _traced_call(tracer, "cli.parse_args", parser.parse_args)
        return parser

    traced_str = _traced_call(tracer, "cli.str", builtins.str)
    write = _traced_call(tracer, "cli.print", builtins.print)

    def traced_print(*args, **kwargs):
        # print converts its arguments with str before it writes them
        return write(*(traced_str(a) for a in args), **kwargs)

    patch(cli, "main", traced_main)
    patch(cli, "build_parser", traced_build_parser)
    patch(cli, "_dump_json", _traced_call(tracer, "cli._dump_json", cli._dump_json))
    patch(cli, "str", traced_str)
    patch(cli, "print", traced_print)

    def uninstall() -> None:
        for owner, attr, old in reversed(undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    return uninstall
