"""One workload in one process: set-up, the timed or traced loop, the checks.

perfbench/run.py starts this script with the checkout's ``src`` on
PYTHONPATH and PYTHONINTMAXSTRDIGITS=0, and reads the JSON object it prints
last.  Modes:

  --setup-only  import the package, generate the inputs, warm up, then
                time SETUP_PROBES runs of the rows probe and print
                their total time and the host speed
  --trace 0     closed loop over whole blocks of calls until --seconds of
                call time
  --trace 1     alternate untraced and traced passes over the first blocks

Each call runs ``ferrersbool.cli.main(argv)`` with stdout sent to a file,
and is timed until that output is flushed: in this process, or for a
workload marked ``isolated`` in a fresh interpreter (perfbench/onecall.py),
whose start-up is not timed.  In a timed run, host speed probes run just
before and just after each call in the call's process, and the metrics are
of latencies scaled by them to the recorded host's speed (hostspeed.py).
The output is checked after the clock stops; a call whose output was
checked before is compared by digest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ferrersbool  # noqa: E402
from ferrersbool import cli  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Call, Workload  # noqa: E402

# host speed probes at the end of a --setup-only run
SETUP_PROBES = 10

if not Path(ferrersbool.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"imported ferrersbool from {ferrersbool.__file__}, not from this checkout")


@dataclass
class Outcome:
    latency: float
    out_bytes: int
    error: str | None
    # the host's speed by the probes run next to the call, if any
    speed: float | None = None


def run_call(argv: tuple[str, ...], path: Path, probe: hostspeed.Probe | None = None) -> Outcome:
    """Run one CLI call with its stdout in path; time it until flushed.

    With probe, its runs are timed just before the call and again just
    after, in this process (see hostspeed.py).
    """
    probe_s = probe.times() if probe else []
    saved = sys.stdout
    error = None
    with open(path, "wb") as raw:
        out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        sys.stdout = out
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
            out.flush()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a crashed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        sys.stdout = saved
        out.detach()
    if probe:
        probe_s += probe.times()
    if error is None and code != 0:
        error = f"exit code {code}"
    return Outcome(latency, path.stat().st_size, error, probe.speed(probe_s) if probe else None)


def isolated_call(
    argv: tuple[str, ...], path: Path, probe: hostspeed.Probe | None = None, tracer: spans.Tracer | None = None
) -> Outcome:
    """Run one CLI call in a fresh interpreter, probing and traced there as asked."""
    probe_arg = f"{probe.work}:{probe.count}" if probe else "-"
    command = [sys.executable, str(HERE / "onecall.py"), str(path), probe_arg, "1" if tracer else "0", *argv]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout)
    if tracer is not None:
        tracer.absorb(result["spans"], result["counts"])
    return Outcome(result["latency"], result["out_bytes"], result["error"], result["speed"])


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Checker:
    """Checks each call's output once; repeats must match the first digest."""

    workload: Workload
    digests: dict[Call, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def __call__(self, call: Call, path: Path, outcome: Outcome) -> str:
        """The output's digest; a wrong answer is recorded in outcome.error."""
        digest = file_digest(path)
        if outcome.error is None:
            if call not in self.digests:
                outcome.error = self.workload.check(call, path, digest)
                if outcome.error is None:
                    self.digests[call] = digest
            elif self.digests[call] != digest:
                outcome.error = "output differs from an earlier run of the same call"
        if outcome.error is not None and len(self.errors) < 5:
            self.errors.append(f"{' '.join(call.argv)[:80]}: {outcome.error}")
        return digest


@dataclass
class Pass:
    busy: float = 0.0
    calls: int = 0
    failed: int = 0
    items: int = 0
    out_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    # per call: items credited (0 if it failed) and host speed (or None)
    call_items: list[int] = field(default_factory=list)
    speeds: list[float | None] = field(default_factory=list)
    block_ends: list[int] = field(default_factory=list)  # calls done at each block's end
    cycled: bool = False
    answers: object = field(default_factory=hashlib.sha256)

    def add(self, call: Call, outcome: Outcome, digest: str) -> None:
        self.busy += outcome.latency
        self.calls += 1
        self.out_bytes += outcome.out_bytes
        self.latencies.append(outcome.latency)
        self.speeds.append(outcome.speed)
        self.answers.update(digest.encode())
        if outcome.error is None:
            self.items += call.items
            self.call_items.append(call.items)
        else:
            self.failed += 1
            self.call_items.append(0)

    def block_rates(self, latencies: list[float]) -> list[float]:
        """Items per second of each block, given each call's latency."""
        starts = [0, *self.block_ends[:-1]]
        return [
            sum(self.call_items[a:b]) / sum(latencies[a:b]) for a, b in zip(starts, self.block_ends)
        ]


def run_blocks(
    blocks: list[list[Call]],
    out_path: Path,
    check: Checker,
    runner=run_call,
    seconds: float | None = None,
    probe_for=None,
) -> Pass:
    """Run whole blocks in order: each once, or cycling until seconds of call time.

    With probe_for, the runner runs probe_for(call) next to each call.
    """
    result = Pass()
    index = 0
    while index < len(blocks) if seconds is None else result.busy < seconds:
        for call in blocks[index % len(blocks)]:
            outcome = runner(call.argv, out_path, probe_for(call) if probe_for else None)
            result.add(call, outcome, check(call, out_path, outcome))
        result.block_ends.append(result.calls)
        index += 1
    result.cycled = index > len(blocks)
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 calls beyond it."""
    ordered = sorted(latencies)
    # with 10 calls or fewer no percentile has 10 beyond it: take the slowest
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def timed_run(
    blocks: list[list[Call]], seconds: float, out_path: Path, check: Checker, runner, probe_for
) -> dict:
    run = run_blocks(blocks, out_path, check, runner, seconds, probe_for)
    # Each call's latency at the recorded host's speed: on a host twice as
    # fast the raw latency halves and the speed is 2.
    scaled = [t * speed for t, speed in zip(run.latencies, run.speeds)]
    # ru_maxrss of the children is that of the largest fresh interpreter an
    # isolated workload started
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    tail_s, tail_pct = tail(scaled)
    return {
        "attempted": run.calls,
        "failed": run.failed,
        "metrics": {
            # Every block carries the same mix of work; the median block
            # rate is not moved by a minority of blocks that met a slow
            # phase of a shared host.
            "items_per_s": [statistics.median(run.block_rates(scaled)), "1/s"],
            "call_p50_s": [statistics.median(scaled), "s"],
            "call_tail_s": [tail_s, "s"],
            "peak_rss_mib": [peak_kib / 1024, "MiB"],
        },
        "notes": {
            "calls": run.calls,
            "blocks": len(run.block_ends),
            "call_tail_percentile": round(tail_pct, 2),
            "failed_frac": run.failed / run.calls,
            "cycled_inputs": run.cycled,
            "host_speed_median": round(statistics.median(run.speeds), 4),
            "raw_items_per_s": round(statistics.median(run.block_rates(run.latencies)), 4),
            "raw_call_p50_s": round(statistics.median(run.latencies), 6),
            "raw_call_tail_s": round(tail(run.latencies)[0], 6),
        },
        "answers": run.answers.hexdigest(),
    }


def traced_pass(blocks: list[list[Call]], out_path: Path, check: Checker, isolated: bool) -> tuple[Pass, spans.Tracer]:
    tracer = spans.Tracer()
    if isolated:
        return run_blocks(blocks, out_path, check, functools.partial(isolated_call, tracer=tracer)), tracer
    uninstall = spans.install(tracer)
    try:
        return run_blocks(blocks, out_path, check), tracer
    finally:
        uninstall()


def traced_run(
    blocks: list[list[Call]], seconds: float, out_path: Path, check: Checker, spans_path: Path, isolated: bool
) -> dict:
    plain_s, layer_s, attempted, failed = [], [], 0, 0
    counts = answers = tracer = None
    consistent = True
    while not layer_s or sum(plain_s) + sum(t["trace.pass_s"] for t in layer_s) < seconds:
        plain = run_blocks(blocks, out_path, check, isolated_call if isolated else run_call)
        traced, tracer = traced_pass(blocks, out_path, check, isolated)
        attempted += plain.calls + traced.calls
        failed += plain.failed + traced.failed
        plain_s.append(plain.busy)
        times = {f"{bucket}_s": value for bucket, value in tracer.self_times().items()}
        times["trace.pass_s"] = traced.busy
        layer_s.append(times)
        pass_counts = dict(tracer.counts, **{"cli.out_bytes": traced.out_bytes})
        if counts is None:
            counts, answers = pass_counts, traced.answers.hexdigest()
        consistent = consistent and pass_counts == counts and traced.answers.hexdigest() == answers
    with open(spans_path, "w", encoding="utf-8") as handle:
        for name, bucket, start, end, parent in tracer.spans:
            handle.write(json.dumps({"name": name, "bucket": bucket, "start": start, "end": end, "parent": parent}) + "\n")
    metrics = {
        name: [statistics.median(t[name] for t in layer_s), "s"] for name in layer_s[0]
    }
    units = {"_bits": "bit", "_bytes": "byte"}
    metrics.update({name: [value, units.get(name[name.rfind("_"):], "count")] for name, value in counts.items()})
    plain_median = statistics.median(plain_s)
    metrics["trace.untraced_pass_s"] = [plain_median, "s"]
    metrics["trace.overhead_frac"] = [metrics["trace.pass_s"][0] / plain_median - 1, "ratio"]
    metrics["trace.spans"] = [len(tracer.spans), "count"]
    if not consistent:
        failed += 1
        check.errors.append("traced passes disagree on counts or answers")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": {"passes": len(layer_s), "calls_per_pass": plain.calls, "spans_file": str(spans_path.relative_to(ROOT))},
        "counts": counts,
        "answers": answers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    blocks = list(wl.blocks(random.Random(f"{wl.name}:{args.seed}")))
    out_path = args.work_dir / f"out-{wl.name}-{args.seed}-{args.trace}.txt"
    runner = isolated_call if wl.isolated else run_call
    for warm in wl.warmup:
        runner(warm, out_path)  # a wrong program fails the measured calls, not this
    if args.setup_only:
        out_path.unlink()
        # run.py takes the probes' time out of the set-up time it measures
        probe = hostspeed.Probe("rows", SETUP_PROBES)
        times = probe.times()
        print(json.dumps({"probe_s": sum(times), "speed": probe.speed(times)}))
        return 0

    calls = [call for block in blocks for call in block]
    wl.prepare(calls)
    if not wl.isolated:
        # One more block, not among the measured ones, brings the process to
        # a steady state (heap grown, first-touch page faults paid) before
        # timing.
        warm_block = next(wl.blocks(random.Random(f"{wl.name}:{args.seed}:warm-up")))
        for call in warm_block:
            run_call(call.argv, out_path)
    check = Checker(wl)
    if args.trace:
        spans_path = args.work_dir / f"spans-{wl.name}-{args.seed}.jsonl"
        result = traced_run(blocks[: wl.trace_blocks], args.seconds, out_path, check, spans_path, wl.isolated)
    else:
        result = timed_run(blocks, args.seconds, out_path, check, runner, wl.probe_for)
    out_path.unlink()
    result["errors"] = check.errors
    result["inputs"] = hashlib.sha256(json.dumps([c.argv for c in calls]).encode()).hexdigest()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
