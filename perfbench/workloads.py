"""The four workloads: seeded inputs, item counts and answer checks.

A workload is a list of blocks, and a block is a short list of CLI calls.
Each call in a block has a fixed nominal size, which the seed moves by at
most a few percent; the seed also picks the contents (the rows of a random
shape, the length of a rectangle's rows) and the order of the calls.  So
runs on different seeds get different inputs but the same mix of work, and
their figures can be compared.  Every check takes a route the checked call
does not: the conjugate orientation through the benchmark's own triangle,
the closed form for complete bipartite graphs, the recurrence in
``genocchi2``, or a reference stream of the unit staircase.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ferrersbool.sequences import beta_complete_bipartite, genocchi2

import hostspeed
import reference as ref


@dataclass(frozen=True)
class Call:
    """One CLI call, the items it completes, and the check its output gets."""

    argv: tuple[str, ...]
    items: int
    check: str
    arg: object


def _jitter(rng: random.Random, nominal: float, spread: float = 0.02) -> int:
    """nominal moved by at most +-spread of itself."""
    return round(nominal * (1 + spread * (2 * rng.random() - 1)))


def _shape_text(rows) -> str:
    return ",".join(map(str, rows))


def _beta_call(rows, check: str, arg, json_format: bool = False) -> Call:
    argv = ("beta", "--shape", _shape_text(rows))
    if json_format:
        argv += ("--format", "json")
    return Call(argv, 1, check, arg)


def _lines(path: Path) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        return []
    return [line.split("\t") for line in text[:-1].split("\n")]


class Workload:
    name = ""
    # Blocks generated: more than a timed run uses on the recorded host, so
    # that it runs no call twice in one process.
    block_count = 0
    trace_blocks = 0  # blocks in one pass of the traced run
    warmup: tuple[tuple[str, ...], ...] = ()
    # Run each call in a fresh interpreter, so that no state a call leaves
    # in the process (a module-level cache, say) serves a later call.
    isolated = False
    # Run just before and just after each timed call (see hostspeed.py).
    probe = hostspeed.Probe("rows", 1)

    def blocks(self, rng: random.Random) -> Iterator[list[Call]]:
        raise NotImplementedError

    def probe_for(self, call: Call) -> hostspeed.Probe:
        """The host speed probe to run next to call."""
        return self.probe

    def prepare(self, calls: list[Call]) -> None:
        """Build whatever reference data the checks share."""

    def check(self, call: Call, path: Path, digest: str) -> str | None:
        """None when the output in path is right, else what is wrong."""
        raise NotImplementedError


class _Beta(Workload):
    def check(self, call: Call, path: Path, digest: str) -> str | None:
        text = path.read_text(encoding="utf-8")
        if not text.endswith("\n") or "\n" in text[:-1]:
            return "expected one output line"
        body = text[:-1]
        if "--format" in call.argv:
            payload = json.loads(body)
            if payload.get("input") != call.argv[2] or payload.get("method") != "triangle":
                return "wrong input or method field in JSON output"
            body = payload.get("beta")
            if not isinstance(body, str):
                return "JSON output has no beta string"
        if call.check == "bipartite":
            expected = beta_complete_bipartite(*call.arg)
        else:
            expected = ref.beta(ref.conjugate(call.arg))
        if not ref.decimal_matches(body, expected):
            rows = call.argv[2].count(",") + 1
            return f"wrong beta for a {rows}-row shape ({call.check} check)"
        return None


class BetaTall(_Beta):
    name = "beta-tall"
    block_count = 80
    trace_blocks = 3
    warmup = (("beta", "--shape", "3,2,1"),)

    def blocks(self, rng: random.Random) -> Iterator[list[Call]]:
        for _ in range(self.block_count):
            block = []
            # seven random shapes, then two rectangles: an odd number of
            # sizes, so that the median call is the middle size and not the
            # gap between two
            for nominal in (169, 213, 256, 300, 344, 388, 431, 500, 800):
                height = _jitter(rng, nominal)
                if nominal < 500:
                    width = _jitter(rng, 30)
                    rows = tuple(sorted(rng.choices(range(1, width + 1), k=height), reverse=True))
                else:
                    rows = (_jitter(rng, 100),) * height
                block.append(_beta_call(rows, "conjugate", rows))
            rng.shuffle(block)
            yield block


class BetaWide(_Beta):
    name = "beta-wide"
    # the calls' time is mostly big-integer powers and decimal writing
    probe = hostspeed.Probe("digits", 1)
    block_count = 300
    trace_blocks = 10
    warmup = (("beta", "--shape", "4,4"), ("beta", "--shape", "4,4", "--format", "json"))

    def blocks(self, rng: random.Random) -> Iterator[list[Call]]:
        for b in range(self.block_count):
            specs = []
            for k in range(7):
                # beta of an r x L rectangle has about L * log2(r) bits, so the
                # nominal size is in bits (31.7e3 to 158e3) and the seed picks r
                bits = _jitter(rng, 31_700 * 5 ** ((k + 0.5) / 7))
                height = rng.randint(3, 9)
                length = round(bits / math.log2(height))
                specs.append(((length,) * height, "bipartite", (height, length)))
            for _ in range(2):
                height = rng.randint(2, 6)
                # narrow, so that the check's conjugate has few rows
                cells = rng.randint(40, 120)
                cuts = sorted(rng.sample(range(1, cells), height - 1))
                parts = (hi - lo for lo, hi in zip([0, *cuts], [*cuts, cells]))
                rows = tuple(sorted(parts, reverse=True))
                specs.append((rows, "conjugate", rows))
            rng.shuffle(specs)
            yield [
                _beta_call(rows, check, arg, json_format=(b * len(specs) + i) % 2 == 1)
                for i, (rows, check, arg) in enumerate(specs)
            ]


class Stream(Workload):
    name = "stream"
    block_count = 80
    trace_blocks = 2
    probe = hostspeed.Probe("rows", 2)  # calls of 20-200 ms
    # a dump's time is mostly writing big integers in decimal
    dump_probe = hostspeed.Probe("digits", 2)
    warmup = (
        ("sequence", "beta-staircase", "--count", "3"),
        ("sequence", "genocchi2", "--count", "3"),
        ("sequence", "legendre-stirling", "--count", "3"),
        ("triangle", "--shape", "3,2,1"),
    )

    def blocks(self, rng: random.Random) -> Iterator[list[Call]]:
        for _ in range(self.block_count):
            betas, genocchi, ls_rows = _jitter(rng, 100), _jitter(rng, 100), _jitter(rng, 35)
            block = [
                Call(
                    ("sequence", "beta-staircase", "--count", str(betas)),
                    betas,
                    "staircase-betas",
                    betas,
                ),
                Call(("sequence", "genocchi2", "--count", str(genocchi)), genocchi, "genocchi", genocchi),
                Call(
                    ("sequence", "legendre-stirling", "--count", str(ls_rows)),
                    ls_rows * (ls_rows + 1) // 2,
                    "legendre-stirling",
                    ls_rows,
                ),
            ]
            for height in (_jitter(rng, 160), _jitter(rng, 250)):
                shape = _shape_text(range(height, 0, -1))
                block.append(Call(("triangle", "--shape", shape), height, "dump", height))
            rng.shuffle(block)
            yield block

    def probe_for(self, call: Call) -> hostspeed.Probe:
        return self.dump_probe if call.check == "dump" else self.probe

    def prepare(self, calls: list[Call]) -> None:
        # One reference stream of the unit staircase serves every call: row i
        # of the triangle is the same for all heights >= i.
        top = max(call.arg for call in calls)
        ls_top = max(call.arg for call in calls if call.check == "legendre-stirling")
        dump_heights = {call.arg for call in calls if call.check == "dump"}
        self._power_sums = [0]
        self._legendre_stirling: dict[tuple[int, int], int | None] = {}
        self._dump_digests: dict[int, str] = {}
        self._first_nonzero_sum = top + 1
        self._genocchi: dict[int, int] = {}
        digest = hashlib.sha256()
        for i, row in enumerate(ref.unit_staircase_rows(top), start=1):
            if sum(row) != 0:
                self._first_nonzero_sum = min(self._first_nonzero_sum, i)
            self._power_sums.append(sum(j * c for j, c in enumerate(row)))
            if i <= ls_top:
                for j in range(1, i + 1):
                    scale = math.factorial(j) * math.factorial(j - 1)
                    value, rest = divmod((-1) ** (i + j) * row[j], scale)
                    self._legendre_stirling[i, j] = None if rest else value
            digest.update(("\t".join(map(str, row)) + "\n").encode())
            if i in dump_heights:
                self._dump_digests[i] = digest.hexdigest()

    def _genocchi2(self, r: int) -> int:
        if r not in self._genocchi:
            self._genocchi[r] = genocchi2(r)
        return self._genocchi[r]

    def check(self, call: Call, path: Path, digest: str) -> str | None:
        n = call.arg
        if call.check == "dump":
            if digest != self._dump_digests[n]:
                return f"triangle dump of height {n} differs from the reference rows"
            if self._first_nonzero_sum <= n:
                return f"row {self._first_nonzero_sum} does not sum to zero"
            if self._power_sums[n] != self._genocchi2(n):
                return f"last row's power sum is not genocchi2({n})"
            return None
        lines = _lines(path)
        if call.check == "legendre-stirling":
            cells = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
            expected = [
                [str(idx), str(i), str(j), str(self._legendre_stirling[i, j])]
                for idx, (i, j) in enumerate(cells, start=1)
            ]
            return None if lines == expected else f"legendre-stirling rows up to {n} are wrong"
        if len(lines) != n or any(
            len(line) != 2 or line[0] != str(r) for r, line in enumerate(lines, start=1)
        ):
            return f"{call.argv[1]} --count {n} printed the wrong lines"
        for r, (_, value) in enumerate(lines, start=1):
            if call.check == "staircase-betas":
                expected = self._genocchi2(r)
            else:
                expected = self._power_sums[r]
            if int(value) != expected:
                return f"{call.argv[1]} value {r} is wrong"
        return None


class Verify(Workload):
    """The only input is the cell count, so every block repeats the same
    calls and the seed only orders them.  The calls are therefore isolated:
    a cache kept between calls in one process would serve every repeat, a
    gain nobody running ``ferrersbool verify`` once would see."""

    name = "verify"
    block_count = 30
    trace_blocks = 1
    warmup = (("verify", "--cells", "3"),)
    isolated = True
    # The call's interpreter runs them; little against a call of half a second.
    probe = hostspeed.Probe("rows", 5)

    def blocks(self, rng: random.Random) -> Iterator[list[Call]]:
        partitions = ref.partition_counts(9)
        for _ in range(self.block_count):
            # the same mix in every block, so that block rates compare; two
            # thirds of the calls are the same, so the median call is one of them
            cells = [9, 9, 8]
            rng.shuffle(cells)
            # the universe holds (0,), every partition, and each with a zero row
            yield [
                Call(("verify", "--cells", str(c)), 1 + 2 * sum(partitions[1 : c + 1]), "verify", c)
                for c in cells
            ]

    def check(self, call: Call, path: Path, digest: str) -> str | None:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or not all(line.startswith(("PASS ", "SKIP ")) for line in lines):
            return f"verify --cells {call.arg} printed a line that is not PASS or SKIP"
        return None


WORKLOADS = {cls.name: cls for cls in (BetaTall, BetaWide, Stream, Verify)}
