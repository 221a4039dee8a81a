"""The qal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs closed-loop
(one caller, one thread, the next call only after the previous answer) in
a fresh worker process, so that its memory is its own.  The worker imports
``qal`` from ``src``, builds the seeded inputs, warms up, then runs whole
rounds of the workload's operations until the next round would pass S
seconds (always at least one round).  After the measured rounds every
answer of the first round is checked against a computation made apart
from ``qal`` (see ``checkers.py``), and every later round must return the
same answers.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones:

* ``setup_s``     import, input generation and warm-up; the median over
                  SETUP_SAMPLES fresh processes;
* ``run_s``       time of one round, i.e. until every certified answer of
                  the workload is ready: the mean over the run's rounds;
* ``max_op_s``    the slowest single answer: the largest over operations
                  of the operation's mean time across the rounds;
* ``peak_rss_mb`` peak resident memory of the worker after the rounds;
* ``answer_kbits`` total bit length of every numerator and denominator in
                  the returned certificates.

With ``--trace 1`` the worker spends the first half of the time on untraced
rounds and the second half on traced rounds (see ``tracing.py``; at least
one round each), and the metrics are the per-layer ones of the traced
rounds (medians over rounds) plus ``trace.overhead_s``, the median traced
round time minus the median untraced one.  The spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
# Every worker of a run must end within TIMEOUT_FACTOR * --seconds +
# TIMEOUT_MARGIN_S: the measured rounds, the checks of the answers and the
# set-up samples.
TIMEOUT_FACTOR = 2
TIMEOUT_MARGIN_S = 110

WORKLOADS = ("enclosures", "exact-rational", "hyperbolicity")
QAL_MODULES = ("rationals", "intervals", "sequences", "theta", "hilbert",
               "polynomials", "division")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- worker ------------------------------------------------------------------------

def _setup(workload: str, seed: int):
    """Import qal, build the inputs and warm up; returns (qal, ops, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import importlib
    qal = types.SimpleNamespace(**{name: importlib.import_module(f"qal.{name}")
                                   for name in QAL_MODULES})
    import workloads
    ops = workloads.BUILDERS[workload](qal, seed)
    for call in workloads.warmup_ops(qal, workload):
        call()
    return qal, ops, time.perf_counter() - t0


def _run_round(ops):
    """Run every op once; returns (round seconds, op seconds, answers, failures)."""
    perf = time.perf_counter
    ctx: dict = {}
    times, results, failures = [], [], []
    start = perf()
    for op in ops:
        t = perf()
        try:
            results.append(op.call(ctx))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(None)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        times.append(perf() - t)
    round_s = perf() - start
    answers = [None if r is None else op.answer(r) for op, r in zip(ops, results)]
    return round_s, times, answers, failures


def _bits(obj) -> int:
    """Total bit length of the numerators and denominators inside obj."""
    if isinstance(obj, Fraction):
        return obj.numerator.bit_length() + obj.denominator.bit_length()
    if isinstance(obj, (tuple, list)):
        return sum(_bits(v) for v in obj)
    if isinstance(obj, dict):
        return sum(_bits(v) for v in obj.values())
    return 0


def _measure(args) -> dict:
    import resource
    qal, ops, setup_s = _setup(args.workload, args.seed)
    rounds = []            # round seconds
    op_times: list[list[float]] = []
    failed = 0
    problems: list[str] = []      # answers that failed a check
    failures: list[str] = []      # operations that raised
    first = None
    tracer = None
    layer_rounds = []
    untraced_s = None

    def record(round_s, times, answers, raised):
        nonlocal first, failed
        rounds.append(round_s)
        op_times.append(times)
        failed += len(raised)
        if first is None:
            failures.extend(raised)
            first = answers
        elif answers != first:
            problems.append(f"round {len(rounds)} returned other answers than round 1")

    start = time.perf_counter()
    if args.trace:
        # the first half of the time untraced, the second half traced
        while True:
            record(*_run_round(ops))
            if time.perf_counter() - start + rounds[-1] > args.seconds / 2:
                break
        untraced_s = statistics.median(rounds)
        import tracing
        tracer = tracing.Tracer()
        tracer.install(qal.intervals.default_bits())
    while True:
        before = tracer.snapshot() if tracer else None
        round_s, times, answers, raised = _run_round(ops)
        if tracer:
            layer_rounds.append((round_s, tracer.layer_metrics(before, tracer.snapshot())))
        record(round_s, times, answers, raised)
        if time.perf_counter() - start + round_s > args.seconds:
            break
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_s = []
    for op, answer in zip(ops, first):
        t = time.perf_counter()
        why = None if answer is None else op.check(answer)
        check_s.append(time.perf_counter() - t)
        if why is not None:
            problems.append(f"{op.label}: {why}")

    out = {"setup_s": setup_s, "attempted": len(ops) * len(rounds), "failed": failed,
           "problems": problems, "failures": failures}
    if args.trace:
        metrics = {}
        for key in layer_rounds[0][1]:
            metrics[key] = statistics.median(m[key] for _, m in layer_rounds)
        metrics["trace.overhead_s"] = statistics.median(r for r, _ in layer_rounds) - untraced_s
        out["layers"] = metrics
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(path)
        out["spans"] = os.path.relpath(path, ROOT)
    else:
        # means, not medians or minima: the speed of a shared machine wobbles
        # by 10-30% from call to call, and over four or five rounds the mean
        # of those wobbles repeats best from run to run (see README.md)
        means = [statistics.fmean(t) for t in zip(*op_times)]
        out["run_s"] = sum(means)
        out["max_op_s"] = max(means)
        out["peak_rss_mb"] = peak_rss_mb
        out["answer_kbits"] = sum(_bits(a) for a in first) / 1000.0
    out["rounds"] = len(rounds)
    out["op_s"] = [[op.label, statistics.fmean(t), c]
                   for op, t, c in zip(ops, zip(*op_times), check_s)]
    return out


# -- parent process ---------------------------------------------------------------

def _child(args, role: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("QAL_PRECISION_BITS", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{role} worker passed the time limit of the run and was stopped")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role == "setup":
        print(json.dumps({"setup_s": _setup(args.workload, args.seed)[2]}))
        return 0
    if args.role == "measure":
        print(json.dumps(_measure(args)))
        return 0

    if not os.path.isfile(os.path.join(SRC, "qal", "theta.py")):
        sys.stderr.write(f"no qal sources under {SRC}; run from a source checkout\n")
        return 2
    deadline = time.monotonic() + TIMEOUT_FACTOR * args.seconds + TIMEOUT_MARGIN_S
    result = _child(args, "measure", deadline)
    for failure in result["failures"]:
        sys.stderr.write(f"failed: {failure}\n")
    for problem in result["problems"]:
        sys.stderr.write(f"wrong answer: {problem}\n")
    if args.trace:
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s")
                          else "bit" if name == "intervals.endpoint_bits_max"
                          else "count"}
                   for name, value in result["layers"].items()}
        sys.stderr.write(f"spans written to {result['spans']}\n")
    else:
        setups = [result["setup_s"]] + [_child(args, "setup", deadline)["setup_s"]
                                        for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": result["run_s"], "unit": "s"},
            "max_op_s": {"value": result["max_op_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "answer_kbits": {"value": result["answer_kbits"], "unit": "kbit"},
        }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"ops-{args.workload}-seed{args.seed}.json"), "w") as f:
        json.dump(result["op_s"], f, indent=1)
    sys.stderr.write(f"{args.workload} seed={args.seed}: {result['rounds']} rounds, "
                     f"{result['attempted']} operations\n")
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
