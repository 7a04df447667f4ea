#!/usr/bin/env python3
"""The repository benchmark: builds the measuring program and runs a workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Workloads are listed in BENCHMARK.json.  `--trace 0` prints every end-to-end
metric, `--trace 1` every per-layer metric; the last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  Before it, a `host` line records the machine and build the numbers
came from (two results are comparable only when these match).  Results and
traced spans are also written under `.bench_out/`.

The program is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`); its dependencies are the
repository's own crates, so the lock file follows them without a network.  The build needs the
repository's crates next to this directory; without them it fails and this
script exits with status 1 before measuring anything.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0xBEA74E5E
WORKLOADS = ["report_quick", "agents_4e6", "dense_store"]
OUT = Path(".bench_out")
# A measurement must end within 180 s (the build before it may take longer);
# keep a margin for start-up and clean-up.
DEADLINE_S = 170


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--quiet", "--offline",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: the measuring program did not build")
    return Path(env["CARGO_TARGET_DIR"]).resolve() / "release" / "perfbench"


def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def last_level_cache():
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = read(f"{index}/level")
        if level and int(level) > best[0]:
            best = (int(level), f"L{level} {read(f'{index}/size')}")
    return best[1]


def source_digest():
    """SHA-256 over the sources the program is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / ".cargo" / "config.toml"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record():
    cpuinfo = read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    config = read(ROOT / ".cargo" / "config.toml") or ""
    flags = re.search(r"rustflags\s*=\s*\[([^\]]*)\]", config)
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else None,
        "last_level_cache": last_level_cache(),
        "rustc": rustc,
        "commit": commit,
        "source_sha256": source_digest(),
        "rustflags": (flags.group(1).replace('"', "").replace(" ", "") if flags else "")
                     + (" " + os.environ["RUSTFLAGS"] if os.environ.get("RUSTFLAGS") else ""),
        "target_cpu_native": bool(flags and "target-cpu=native" in flags.group(1)),
    }


def measure(binary, workload, seed, seconds, trace, extra=(), deadline=DEADLINE_S):
    """Runs the measuring program once; returns its parsed result line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=deadline)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {deadline} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: {workload} printed an unexpected result: {lines[-1]}")
    return result


def save(workload, seed, trace, host, result):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-{seed}-trace{trace}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                "host": host, "result": result}, indent=1) + "\n")


def self_test(binary):
    """Every workload completes at toy size in both modes, emits exactly the
    metrics BENCHMARK.json names with their units, and a corrupted export is
    counted as a failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS, "workload lists differ"
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(binary, workload, DEFAULT_SEED, 1, trace, ["--toy"])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"{workload} trace {trace}: metrics differ "
                                f"(missing {missing}, unexpected {extra}, or units)")
            if not all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()):
                problems.append(f"{workload} trace {trace}: a value is not a finite number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: checks failed: {result}")
            print(f"self-test {workload} trace {trace}: {result['attempted']} checks, "
                  f"{len(got)} metrics", file=sys.stderr)
    corrupted = measure(binary, "dense_store", DEFAULT_SEED, 2, 0, ["--toy", "--corrupt-export"])
    if corrupted["correct"] or corrupted["failed"] < 1:
        problems.append(f"a corrupted export went unnoticed: {corrupted}")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    binary = build()
    if args.self_test:
        ok = self_test(binary)
        print(json.dumps({"self_test": "passed" if ok else "failed"}))
        sys.exit(0 if ok else 1)

    host = host_record()
    print("host " + json.dumps(host, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result = measure(binary, workload, args.seed, args.seconds, args.trace)
        save(workload, args.seed, args.trace, host, result)
        results[workload] = result
        failed_frac = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} failed_frac={failed_frac:g} "
              f"({result['failed']}/{result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"  {workload} {name} = {metric['value']!r} {metric['unit']}")
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
