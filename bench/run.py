"""Benchmark of purespin: one workload, one seed, one run length.

    python3 bench/run.py --workload {verify-all,models,engine} --seed N --seconds S --trace {0,1}

Run from the root of a source tree of the repository.  The workload runs in
its own single-threaded child process (PURESPIN_THREADS removed, BLAS
threads pinned to 1) that imports purespin from ``src/``.  With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics
``wall_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it holds the
per-layer metrics instead, and the per-round figures are also written to
``.bench_out/trace-<workload>-<seed>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layertrace import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify-all", "models", "engine")
SETUP_RUNS = 4      # extra set-up-only processes; setup_s is the median over them and the run
TIME_LIMIT = 170    # seconds for all the child processes of one run together


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PURESPIN_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env: dict, deadline: float, *extra: str) -> dict:
    """Run child.py to completion and return the JSON object it printed last."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: {args.workload} did not finish in {TIME_LIMIT} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: {args.workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def layer_metrics(result: dict) -> dict:
    """Counts of the first round (identical in every round of a seed) and median times."""
    layers = result["layers"]
    metrics = {}
    for name, unit in metric_names():
        if name == "trace.round_s":
            value = statistics.median(result["rounds"])
        elif unit == "count":
            value = layers[0][name]
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "purespin", "__init__.py")):
        print("bench: run from the root of a purespin source tree (no src/purespin here)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    deadline = time.monotonic() + TIME_LIMIT

    setups = [] if args.trace else [spawn(args, env, deadline, "--setup-only")["setup_s"]
                                    for _ in range(SETUP_RUNS)]
    result = spawn(args, env, deadline)
    for problem in result["problems"]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(result)
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out", f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"rounds": result["rounds"], "layers": result["layers"]}, fh)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": result["problem_count"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
