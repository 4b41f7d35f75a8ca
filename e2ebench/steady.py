"""Steadiness check: run each workload repeatedly, each run in a fresh
process with its own seed, and report every end-to-end metric's median,
quartiles and relative spread against its bound in BENCHMARK.json.

Run from the repository root::

    python3 e2ebench/steady.py --runs 10 --first-seed 1
    python3 e2ebench/steady.py --workloads cluster-rpc --runs 5

The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; a metric is steady when its spread
stays under a third of its bound.  Raw values go to ``--out`` (JSON).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(spec["command"], workload, seed, args.seconds)
            result["seed"] = seed
            runs.append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"wall={result['wall_s']:.1f}s",
                file=sys.stderr,
            )
        raw[workload] = runs
        seeds = [r["seed"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, seeds {seeds}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
        print(f"  wall per run: median {statistics.median(r['wall_s'] for r in runs):.1f}s")
        print(f"  {'metric':<20}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'bound':>7}  steady")
        for name, bound in bounds.items():
            q1, median, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
            verdict = "yes" if spread < bound / 3 else "NO"
            print(f"  {name:<20}{q1:>12.4g}{median:>12.4g}{q3:>12.4g}{spread:>9.3f}{bound:>7.2f}  {verdict}")
    if args.out:
        args.out.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
