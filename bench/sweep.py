"""Run the benchmark over several seeds, and compare two such sets of runs.

    python3 bench/sweep.py --workload models --seeds 1-10 --out .bench_out/a.json
    python3 bench/sweep.py --compare .bench_out/a.json .bench_out/b.json

A sweep runs bench/run.py once per seed, one after another, with the run
length from BENCHMARK.json, and prints for every end-to-end metric the
median, the quartiles and the spread (distance between the quartiles as a
share of the median), plus the share of failed operations.  A comparison
prints, per metric, the change of the second set's median against the
first's and whether it stays within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def load_spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def sweep(args, spec: dict) -> dict:
    runs = []
    for seed in seeds_from(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    return {"workload": args.workload, "runs": runs}


def report(data: dict, spec: dict) -> dict:
    runs = data["runs"]
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summary([r["metrics"][name]["value"] for r in runs])
        out[name] = s
        flag = "" if name == "setup_s" or s["spread"] < metric["bound"] / 3 else "  WIDE"
        print(f"{data['workload']} {name}: median {s['median']:.4f} {metric['unit']} "
              f"[{s['q1']:.4f}, {s['q3']:.4f}] spread {s['spread']:.3f} "
              f"(bound {metric['bound']}){flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{data['workload']} failed share: {sorted(shares)} "
          f"correct: {all(r['correct'] for r in runs)}")
    return out


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    sa, sb = report(a, spec), report(b, spec)
    worse = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        change = sb[name]["median"] / sa[name]["median"] - 1.0
        if metric["better"] == "higher":
            change = -change
        ok = change <= metric["bound"]
        worse += not ok
        print(f"{name}: second median {change:+.3%} worse than first "
              f"(bound {metric['bound']:.0%}) {'ok' if ok else 'REGRESSION'}")
    share = lambda d: sorted({r["failed"] / r["attempted"] for r in d["runs"]})
    if share(a) != share(b):
        print(f"failed share differs: {share(a)} vs {share(b)}")
        worse += 1
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not args.workload:
        parser.error("--workload or --compare is required")
    data = sweep(args, spec)
    report(data, spec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
