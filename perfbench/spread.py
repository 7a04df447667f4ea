#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the benchmark's steadiness test.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs `run.py` once per seed (first-seed, first-seed + 1, ...) and prints, for
every end-to-end metric, the median and the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound from BENCHMARK.json.  A benchmark is
steady when every spread but `setup_s`'s is below its bound; the target while
tuning is a third of it.  Refuses to compare runs whose host records differ.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    hosts = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, cwd=ROOT, check=True).stdout.strip().splitlines()
        host = json.loads(next(l for l in out if l.startswith("host "))[5:])
        host.pop("commit", None)
        hosts.add(json.dumps(host, sort_keys=True))
        result = json.loads(out[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed: {result['failed']}/{result['attempted']}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              file=sys.stderr)
    if len(hosts) != 1:
        sys.exit("host records differ between runs; the numbers are not comparable")

    print(f"{args.workload}: {args.runs} runs")
    print(f"{'metric':<22} {'median':>14} {'iqr/median':>11} {'bound':>6}  verdict")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = "steady" if spread < bounds[name] / 3 else (
            "within bound" if spread <= bounds[name] else "TOO WIDE")
        if name == "setup_s":
            verdict += " (not bound-checked)"
        print(f"{name:<22} {med:>14.6g} {spread:>11.4f} {bounds[name]:>6}  {verdict}")


if __name__ == "__main__":
    main()
