"""ferrersbool benchmark: one seeded workload, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload beta-tall --seed 1 --seconds 20 --trace 0

Workloads: beta-tall, beta-wide, stream, verify (see perfbench/README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

Set-up is timed in fresh processes (interpreter start, imports, input
generation and warm-up), SETUP_REPEATS times, and reported as the median.
Every time metric is scaled to the recorded host's speed by host speed
probes run in the timed process (see hostspeed.py); the raw figures are
printed as notes.
The measured run is one more process, so its peak memory is the workload's.
Every process runs with PYTHONINTMAXSTRDIGITS=0: beta-wide values pass the
4300-digit int-to-str limit of Python 3.11, which users must lift today.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("beta-tall", "beta-wide", "stream", "verify")
SETUP_REPEATS = 11
DEADLINE_S = 170.0


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONINTMAXSTRDIGITS"] = "0"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py; on timeout, kill it and the interpreters it started."""
    command = [sys.executable, str(HERE / "worker.py"), "--work-dir", str(WORK_DIR), *args]
    with subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(command, proc.returncode, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "ferrersbool" / "cli.py").is_file():
        print(f"no ferrersbool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_s, raw_setup_s = [], []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            done = run_worker([*common, "--setup-only"], timeout=60)
            elapsed = time.perf_counter() - t0
            if done.returncode != 0:
                print(f"set-up failed with exit code {done.returncode}", file=sys.stderr)
                return 1
            # the set-up process ends with host speed probes: leave their
            # time out, and scale by their speed
            probes = json.loads(done.stdout.strip().splitlines()[-1])
            raw_setup_s.append(elapsed - probes["probe_s"])
            setup_s.append(raw_setup_s[-1] * probes["speed"])

    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        done = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=remaining
        )
    except subprocess.TimeoutExpired:
        print("the workload did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0 or not done.stdout.strip():
        print(f"the workload failed with exit code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = [statistics.median(setup_s), "s"]
        result["notes"]["raw_setup_s"] = round(statistics.median(raw_setup_s), 6)
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>16.6g} {unit}")
    for name, value in result["notes"].items():
        print(f"# {name}: {value}")
    print(f"# nproc: {len(os.sched_getaffinity(0))}, python: {sys.version.split()[0]}")
    for error in result["errors"]:
        print(f"# FAILED {error}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
