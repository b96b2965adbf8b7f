"""Determinism self-test of the benchmark.

For every workload, runs the traced mode twice with one seed and once with
another, and checks that:

- the two runs with one seed report identical count metrics (the triangle
  counts, sequences.triangle_builds, cli.out_bytes and the call counts) and
  identical answers;
- the other seed generates different inputs (on ``verify``, whose only
  input is the cell count, a different order of the same calls);
- every run checked its answers and found none wrong.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Each run measures SECONDS of calls.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys

from run import WORK_DIR, WORKLOADS, run_worker

SEED, OTHER_SEED = 1, 2
SECONDS = 1


def traced(workload: str, seed: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
    done = run_worker(args, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: the workload failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    WORK_DIR.mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        first, again, different = (traced(workload, seed) for seed in (SEED, SEED, OTHER_SEED))
        checks = {
            "answers checked, none wrong": all(r["failed"] == 0 for r in (first, again, different)),
            "same seed, same counts": first["counts"] == again["counts"],
            "same seed, same answers": first["answers"] == again["answers"],
            "same seed, same inputs": first["inputs"] == again["inputs"],
            "other seed, other inputs": first["inputs"] != different["inputs"],
        }
        for name, passed in checks.items():
            print(f"{'PASS' if passed else 'FAIL'} {workload}: {name}")
        if first["counts"] != again["counts"]:
            for key in sorted(first["counts"]):
                if first["counts"][key] != again["counts"].get(key):
                    print(f"  {key}: {first['counts'][key]} then {again['counts'].get(key)}")
        ok = ok and all(checks.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
