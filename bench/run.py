#!/usr/bin/env python3
"""Benchmark salcap: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload train --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half traced and reports the per-layer metrics and
the tracing overhead.  The report lines name each metric with its unit
and sample count; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when the run completed, even if outputs failed their checks.
See bench/README.md.
"""

import benchenv  # noqa: F401  (first: pins BLAS threads before numpy loads)

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import workloads
from spans import Tracer
from workloads import Outcome, p90

SETUP_REPEATS = 9

# Other tenants of a shared machine slow it by up to 2x, for seconds to
# minutes at a time, and process CPU time slows with wall time, since
# the tenants share the cores' caches and clocks.  A fixed loop of the
# program's kind of work, small numpy ops driven from Python, runs
# between set-ups and between rounds, and the result metrics divide each
# timing by the slow-down the loop predicts: they report the program at
# one reference machine speed, so that runs taken under different load
# agree.  bench/calibration.py records the runs these constants were
# fitted on, in bench/calibration/.
CAL_ITERATIONS = 3000
CAL_REF_S = 0.011  # the loop's time on an unloaded core of the reference machine
CAL_EXPONENT = 0.8  # the program slows by about this power of the loop's slow-down

# (name, unit): reported by every --trace 0 run
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
)

# (name, unit): reported by every --trace 1 run, and not zero on any
# workload.  The report lines also show the layer times and counts that
# only some workloads make non-zero.
PER_LAYER = (
    ("numerics.ops_per_step", "count"),
    ("attention.score_path.fwd_s", "s"),
    ("attention.blend_softmax.fwd_s", "s"),
    ("decoder.lstm_step.fwd_s", "s"),
    ("decoder.output_distribution.fwd_s", "s"),
    ("decoder.embed_word.fwd_s", "s"),
    ("decoder.project_features.fwd_s", "s"),
    ("trace_overhead_pct", "%"),
)

# counts that must repeat exactly in every traced round
EXACT_COUNTS = ("numerics.ops_per_step", "optim.steps", "inference.steps_per_image")


def load_reference():
    """The reference outputs checked at the default seed."""
    reference = {}
    for key in ("train_losses", "captions", "counts"):
        with open(os.path.join(benchenv.REFERENCE_DIR, key + ".json"), encoding="utf-8") as fh:
            reference[key] = json.load(fh)
    return reference


def calibrate():
    """Seconds the calibration loop takes now."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(64, 32)) / 8.0
    x = rng.normal(size=32)
    h = np.zeros(64)
    started = time.perf_counter()
    for _ in range(CAL_ITERATIONS):
        h = np.tanh(w @ x + h)
        x = 0.5 * x + 0.5 * h[:32]
    return time.perf_counter() - started


def slowdown(loop_s):
    """How much slower than at reference speed the program runs, given the loop's time."""
    return (loop_s / CAL_REF_S) ** CAL_EXPONENT


@dataclass
class Round:
    seconds: float  # as measured
    factor: float  # slow-down: the mean of the calibrations around the round
    ops: list  # milliseconds of each operation of the round, as measured


def run_rounds(workload, state, outcome, tracer, seconds):
    """Repeat rounds until ``seconds`` have passed; at least one round.

    Returns the rounds, and each round's traced counts.  The
    calibrations between rounds are not timed.
    """
    rounds, counts = [], []
    factor = slowdown(calibrate())
    deadline = time.perf_counter() + seconds
    while True:
        first = len(state.ops)
        before = Counter(tracer.counts) if tracer is not None else None
        started = time.perf_counter()
        workload.run_round(state, outcome, tracer)
        elapsed = time.perf_counter() - started
        with workloads.region(tracer, "bench.calibrate"):
            after = slowdown(calibrate())
        rounds.append(Round(elapsed, 0.5 * (factor + after), state.ops[first:]))
        factor = after
        if tracer is not None:
            counts.append(round_counts(tracer.counts - before))
        if time.perf_counter() >= deadline:
            return rounds, counts


def round_counts(delta):
    steps = delta["calls.decoder.lstm_step"]
    images = delta["calls.inference.greedy_decode"]
    return {
        "numerics.ops_per_step": delta["ops"] / steps if steps else 0.0,
        "optim.steps": delta["calls.optim.optimizer_step"],
        "inference.steps_per_image": steps / images if images else 0.0,
    }


def check_counts(workload, seed, counts, reference, outcome):
    expected = None
    if seed == workloads.DEFAULT_SEED or not workload.counts_depend_on_seed:
        expected = reference["counts"][workload.name]
    for r, got in enumerate(counts):
        for name in EXACT_COUNTS:
            want = expected[name] if expected is not None else counts[0][name]
            if got[name] != want:
                outcome.fail(("counts", r), "round %d: %s = %r, expected exactly %r"
                             % (r, name, got[name], want))


def per_layer_rows(tracer, traced, counts, extra, overhead_pct):
    """(name, value, unit, sample count, samples) for every per-layer metric.

    Times are seconds per traced round unless the name says per call
    (``_ms``) or the metric belongs to set-up, which is traced once.
    They are scaled to reference machine speed by the median slow-down
    of the traced rounds.
    """
    total, own, bwd, calls = tracer.total_s, tracer.self_s, tracer.bwd_s, tracer.counts
    n_rounds = len(traced)
    at_ref = 1.0 / statistics.median(r.factor for r in traced)
    rounds = "traced rounds"

    def per_round(seconds):
        return at_ref * seconds / n_rounds

    def per_call_ms(name):
        n = calls["calls." + name]
        return (name + "_ms", at_ref * 1e3 * total[name] / n if n else 0.0, "ms", n, "calls")

    def setup(metric, seconds):
        return (metric, at_ref * seconds, "s", 1, "traced set-up")

    rows = [(name, counts[0][name], "count", n_rounds, rounds) for name in EXACT_COUNTS]
    rows.append(("numerics.backward_self_s",
                 per_round(own["numerics.backward"] - sum(bwd.values())), "s", n_rounds, rounds))
    layers = (
        ("attention.score_path", ("attention.score_path",)),
        ("attention.blend_softmax", ("attention.attend",)),
        ("decoder.lstm_step", ("decoder.lstm_step",)),
        ("decoder.output_distribution", ("decoder.output_distribution",)),
        ("decoder.embed_word", ("decoder.embed_word",)),
        ("decoder.project_features", ("decoder.project_features",)),
        # the loss: train_epoch's inline log-pick-sum, or sequence_nll
        ("optim.loss", ("optim.train_epoch", "optim.sequence_nll")),
    )
    for layer, names in layers:
        for suffix, seconds in ((".fwd_s", own), (".bwd_s", bwd)):
            rows.append((layer + suffix, per_round(sum(seconds[n] for n in names)), "s",
                         n_rounds, rounds))
    for metric, names in (
        ("optim.optimizer_step_s", ("optim.optimizer_step",)),
        ("metrics.corpus_build_s", ("metrics.corpus_build",)),
        ("metrics.bleu_s", ("metrics.bleu",)),
        ("metrics.rouge_l_s", ("metrics.rouge_l",)),
        ("metrics.cider_s", ("metrics.cider",)),
        ("metrics.corpus_stats_s", ("metrics.diversity_stats", "metrics.novelty_pct")),
    ):
        rows.append((metric, per_round(sum(total[n] for n in names)), "s", n_rounds, rounds))
    rows += [
        per_call_ms("optim.caption_loss"),
        per_call_ms("inference.greedy_decode"),
        per_call_ms("data_io.load_entry"),
        ("inference.truncated_frac", extra.get("inference.truncated_frac", 0.0), "frac",
         n_rounds, rounds),
        setup("decoder.load_checkpoint_s", total["decoder.load_checkpoint"]),
        setup("data_io.gen_synthetic_s", own["data_io.gen_synthetic"]),
        setup("data_io.load_manifest_s", total["data_io.load_manifest"]),
        setup("vocab.build_vocab_s", total["vocab.build_vocab"]),
        ("trace_overhead_pct", overhead_pct, "%", n_rounds, "traced over untraced round p50"),
    ]
    return rows


def measure(workload, seed, seconds, trace, reference, work_dir):
    """Set up, run and check one workload; returns the report as a dict."""
    inputs = workload.prepare(seed, os.path.join(work_dir, "inputs"))
    setups = []
    factor = slowdown(calibrate())
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = workload.setup(seed, inputs, reference)
        elapsed = time.perf_counter() - started
        after = slowdown(calibrate())
        setups.append((elapsed, 0.5 * (factor + after)))
        factor = after
    outcome = Outcome()
    rounds, _ = run_rounds(workload, state, outcome, None, seconds / 2 if trace else seconds)
    workload.check(state, outcome)
    report = {
        "outcome": outcome,
        "setups": setups,
        "rounds": rounds,
        "state": state,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not trace:
        return report

    tracer = Tracer()
    traced_outcome = Outcome()
    with tracer.installed():
        with tracer.region("setup"):
            inputs = workload.prepare(seed, os.path.join(work_dir, "traced"))
            traced_state = workload.setup(seed, inputs, reference)
        traced, counts = run_rounds(workload, traced_state, traced_outcome, tracer, seconds / 2)
    workload.check(traced_state, traced_outcome)
    check_counts(workload, seed, counts, reference, traced_outcome)
    overhead = 100.0 * (statistics.median(r.seconds / r.factor for r in traced)
                        / statistics.median(r.seconds / r.factor for r in rounds) - 1.0)
    report.update(
        traced_outcome=traced_outcome,
        tracer=tracer,
        counts=counts,
        per_layer=per_layer_rows(tracer, traced, counts,
                                 workload.traced_extras(traced_state), overhead),
    )
    return report


def end_to_end(workload, report):
    """The result metrics at reference machine speed, and the report rows as measured."""
    state = report["state"]
    rounds = report["rounds"]
    round_s_at_ref = [r.seconds / r.factor for r in rounds]
    if workload.latency_per_round:
        latencies, latency_of = [1e3 * s for s in round_s_at_ref], "rounds"
    else:
        latencies = [op / r.factor for r in rounds for op in r.ops]
        latency_of = workload.op_name
    work = workload.work_per_round(state)
    values = {
        "setup_s": statistics.median(s / factor for s, factor in report["setups"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "work_per_s": work / statistics.median(round_s_at_ref),
        "op_ms_p50": statistics.median(latencies),
    }
    samples = {
        "setup_s": (SETUP_REPEATS, "set-ups"),
        "peak_rss_mb": (1, "process"),
        "work_per_s": (len(rounds), "rounds of %d %s" % (work, workload.unit)),
        "op_ms_p50": (len(latencies), latency_of),
    }
    outcome = report["outcome"]
    factors = [factor for _, factor in report["setups"]] + [r.factor for r in rounds]
    named = [
        ("setup_s", statistics.median(s for s, _ in report["setups"]), "s",
         SETUP_REPEATS, "set-ups"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", 1, "process"),
        ("fail_frac", outcome.failed / max(outcome.attempted, 1), "frac",
         outcome.attempted, workload.op_name),
    ] + workload.named(state, [r.seconds for r in rounds]) + [
        ("op_ms_p90", p90(latencies), "ms", len(latencies), latency_of + ", at reference speed"),
        ("machine_slowdown", statistics.median(factors), "x", len(factors), "calibrations"),
    ]
    return values, samples, named


def print_rows(title, rows):
    print(title)
    for name, value, unit, n, what in rows:
        print("  %-36s %16.6g %-6s n=%d %s" % (name, value, unit, n, what))


def run_one(args):
    workload = workloads.WORKLOADS[args.workload]
    reference = load_reference()
    os.makedirs(benchenv.OUT_DIR, exist_ok=True)
    work_dir = os.path.join(benchenv.OUT_DIR, "work-%s-%d" % (args.workload, os.getpid()))
    try:
        report = measure(workload, args.seed, args.seconds, args.trace, reference, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    environment = benchenv.describe()
    print("salcap benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: " + json.dumps(environment, sort_keys=True))
    outcomes = [report["outcome"]] + ([report["traced_outcome"]] if args.trace else [])
    attempted = sum(o.attempted for o in outcomes)
    problems = [reason for o in outcomes for reason in o.failed_ops.values()]
    failed = len(problems)

    values, samples, named = end_to_end(workload, report)
    print_rows("end to end, as measured (untraced rounds):", named)
    print_rows("result metrics, at reference machine speed:",
               [(n, values[n], u) + samples[n] for n, u in END_TO_END])
    result = {"environment": environment, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "end_to_end": {name: value for name, value, *_ in named},
              "problems": problems}
    if args.trace:
        layers = {name: (value, unit) for name, value, unit, *_ in report["per_layer"]}
        print_rows("per layer, at reference machine speed (traced; seconds per round unless"
                   " named per call or set-up):",
                   report["per_layer"])
        metrics = {name: {"value": layers[name][0], "unit": unit} for name, unit in PER_LAYER}
        result["per_layer"] = {name: value for name, (value, _) in layers.items()}
        trace_path = os.path.join(benchenv.OUT_DIR, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        report["tracer"].write(trace_path, {"environment": environment,
                                            "workload": args.workload, "seed": args.seed})
        print("spans: %d written to %s" % (len(report["tracer"].spans), trace_path))
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for reason in problems[:10]:
        print("FAILED: " + reason)
    result_path = os.path.join(benchenv.OUT_DIR, "result-%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        sys.stdout.flush()
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
