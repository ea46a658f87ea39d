"""One workload in one process: set up, then run rounds for a given time.

Started by run.py with ``--t0``, the monotonic clock reading taken just
before this process was spawned, so that the set-up time reported here runs
from process start to the moment the first operation could begin.  Prints
one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    ready = time.monotonic()
    result = {"setup_s": ready - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install(callers=[workloads])

    rounds, layers = [], []
    attempted = failed = 0
    problems: list[str] = []
    start = time.monotonic()
    r = 0
    while True:
        rng = np.random.default_rng([args.seed, r])
        t = time.perf_counter()
        out = workload.round(rng)
        rounds.append(time.perf_counter() - t)
        if tracer is not None:
            layers.append(tracer.take())
        attempted += out.attempted
        failed += out.failed
        problems += out.problems
        r += 1
        # start another whole round only if it fits in the run at the mean pace so far
        elapsed = time.monotonic() - start
        if elapsed + elapsed / r > args.seconds:
            break

    result.update({
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "problem_count": len(problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
