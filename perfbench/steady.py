"""Steadiness of the benchmark: run one workload repeatedly, each run with
another seed, and print the median and quartiles of every end-to-end
metric, with the spread (Q3 - Q1) / median that the bounds in
BENCHMARK.json must exceed.

    python3 perfbench/steady.py --workload NAME [--first-seed 1]

It makes RUNS runs of ``run_seconds`` (from BENCHMARK.json) with the seeds
first-seed, first-seed + 1, ...  The runs are sequential and the table is
also written to ``perfbench/out/steady-<workload>-seed<first-seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    samples: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + RUNS):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: wrong answers")
            return 1
        shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            samples.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}"
                                          for n, m in result["metrics"].items()),
              flush=True)

    table = {}
    print(f"\n{args.workload}: {RUNS} runs of {seconds} s")
    print(f"{'metric':14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for name, values in samples.items():
        med, q1, q3, sp = spread(values)
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                       "bound": bounds.get(name), "values": values}
        print(f"{name:14} {med:10.4g} {q1:10.4g} {q3:10.4g} {sp:8.3f} "
              f"{bounds.get(name, float('nan')):6.2f}")
    print("failed/attempted:", sorted(shares))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{args.workload}-seed{args.first_seed}.json")
    with open(path, "w") as f:
        json.dump(table, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
