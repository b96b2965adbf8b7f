"""Run one CLI call in a fresh interpreter and print its outcome as JSON.

perfbench/worker.py starts this script for workloads whose calls must not
share a process (see ``Workload.isolated``), with the same environment as
itself:

    python3 perfbench/onecall.py OUTPUT_PATH PROBE TRACE ARGV...

The call's stdout goes to OUTPUT_PATH.  PROBE is WORK:COUNT, a host speed
probe (see hostspeed.py) to run just before the call and again just after
it in this interpreter, or - for none.  With TRACE 1 the call runs traced
and the spans and counts are printed too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import hostspeed
import spans
from worker import run_call


def main() -> int:
    path, probe_arg, trace, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3] == "1", tuple(sys.argv[4:])
    probe = None
    if probe_arg != "-":
        work, count = probe_arg.split(":")
        probe = hostspeed.Probe(work, int(count))
    tracer = spans.Tracer()
    if trace:
        spans.install(tracer)
    outcome = run_call(argv, path, probe)
    result = {
        "latency": outcome.latency,
        "out_bytes": outcome.out_bytes,
        "error": outcome.error,
        "speed": outcome.speed,
    }
    if trace:
        result.update(spans=tracer.spans, counts=tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
