#!/usr/bin/env python3
"""Record the runs that fix run.py's calibration constants, and fit them.

For each workload this runs ``--windows`` windows of ``--seconds``
seconds, each with its own seed, set up as ``run.py --trace 0`` sets up.
It times every round by wall clock and by process CPU time, and runs
the calibration loop (``run.calibrate``) between rounds.  It writes every
round to bench/calibration/rounds.json, then prints, and writes to
bench/calibration/fit.txt, the spread of the windows' median round
times: the distance between their quartiles over their median, as
``statistics.quantiles(values, n=4)`` gives them.  The calibrated rows
divide each round by ``(loop seconds / CAL_REF_S) ** exponent``, the loop
seconds being the mean of the loops around the round.  Run from the
repository root:

    python3 bench/calibration.py --windows 6 --seconds 30
"""

import benchenv  # noqa: F401  (first: pins BLAS threads before numpy loads)

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import run
import workloads
from workloads import Outcome

CAL_DIR = os.path.join(benchenv.BENCH_DIR, "calibration")
EXPONENTS = (0.0, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2)


def record_window(workload, seed, seconds, work_dir):
    """[wall s, CPU s, loop s before, loop s after] of every round of one window."""
    state = workload.setup(seed, workload.prepare(seed, work_dir), run.load_reference())
    rounds = []
    loop = run.calibrate()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        wall, cpu = time.perf_counter(), time.process_time()
        workload.run_round(state, Outcome(), None)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        after = run.calibrate()
        rounds.append([wall, cpu, loop, after])
        loop = after
    return rounds


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def fit(windows):
    """Lines of the table: each timing's spread of window medians, per workload."""
    names = list(workloads.WORKLOADS)
    by_workload = {n: [w["rounds"] for w in windows if w["workload"] == n] for n in names}
    timings = [("wall clock", lambda r: r[0]), ("process CPU time", lambda r: r[1])]
    for e in EXPONENTS:
        timings.append(("wall / slow-down^%.1f" % e,
                        lambda r, e=e: r[0] / (0.5 * (r[2] + r[3]) / run.CAL_REF_S) ** e))
    lines = ["%-24s" % "spread of window medians" + "".join("%14s" % n for n in names)]
    for label, of in timings:
        lines.append("%-24s" % label + "".join(
            "%14.3f" % spread([statistics.median(of(r) for r in rounds)
                               for rounds in by_workload[n]]) for n in names))
    loops = [loop for w in windows for r in w["rounds"] for loop in r[2:]]
    lines.append("calibration loop: min %.4f s, median %.4f s, over %d loops (CAL_REF_S %.4f)"
                 % (min(loops), statistics.median(loops), len(loops), run.CAL_REF_S))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--windows", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    work_dir = os.path.join(benchenv.OUT_DIR, "calibration-%d" % os.getpid())
    windows = []
    try:
        for name, workload in workloads.WORKLOADS.items():
            for seed in range(1, args.windows + 1):
                rounds = record_window(workload, seed, args.seconds,
                                       os.path.join(work_dir, "%s-%d" % (name, seed)))
                windows.append({"workload": name, "seed": seed, "rounds": rounds})
                print("recorded %s seed %d: %d rounds" % (name, seed, len(rounds)), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(CAL_DIR, exist_ok=True)
    with open(os.path.join(CAL_DIR, "rounds.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": benchenv.describe(), "seconds": args.seconds,
                   "round_fields": ["wall_s", "cpu_s", "loop_before_s", "loop_after_s"],
                   "windows": windows}, fh)
        fh.write("\n")
    lines = fit(windows)
    with open(os.path.join(CAL_DIR, "fit.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
