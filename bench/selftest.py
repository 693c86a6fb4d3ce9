#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

Runs every workload for one round, untraced and traced, and asserts that
the result line carries every metric BENCHMARK.json names, with its unit,
that the report lines name every end-to-end and per-layer metric with a
unit and a sample count, and that no check fails.  Then it runs against
deliberately wrong references, in this process, and asserts that the
checks catch them.  Takes about 20 seconds.  Run from the repository
root:

    python3 bench/selftest.py
"""

import benchenv  # noqa: F401  (first: pins BLAS threads before numpy loads)

import json
import os
import re
import shutil
import subprocess
import sys

import run
import workloads
from benchenv import BENCH_DIR, OUT_DIR, ROOT

RUN = os.path.join(BENCH_DIR, "run.py")

REPORTED = {
    "train": ["setup_s", "peak_rss_mb", "fail_frac", "train_tok_per_s", "epoch_s_p50"],
    "caption_eval": ["setup_s", "peak_rss_mb", "fail_frac", "caption_ms_p50",
                     "caption_ms_p90", "evaluate_s"],
    "gradcheck": ["setup_s", "peak_rss_mb", "fail_frac"] + [
        "fd_evals_per_s." + v for v in ("soft", "saliency_pooling", "attention_on_saliency",
                                        "shared_weights", "saliency_context")],
}
LAYERS = [
    "numerics.ops_per_step", "numerics.backward_self_s",
    "attention.score_path.fwd_s", "attention.score_path.bwd_s",
    "attention.blend_softmax.fwd_s", "attention.blend_softmax.bwd_s",
    "decoder.lstm_step.fwd_s", "decoder.lstm_step.bwd_s",
    "decoder.output_distribution.fwd_s", "decoder.output_distribution.bwd_s",
    "decoder.embed_word.fwd_s", "decoder.embed_word.bwd_s",
    "decoder.project_features.fwd_s", "decoder.project_features.bwd_s",
    "decoder.load_checkpoint_s", "optim.loss.fwd_s", "optim.loss.bwd_s",
    "optim.optimizer_step_s", "optim.steps", "optim.caption_loss_ms",
    "inference.greedy_decode_ms", "inference.steps_per_image", "inference.truncated_frac",
    "metrics.corpus_build_s", "metrics.bleu_s", "metrics.rouge_l_s", "metrics.cider_s",
    "metrics.corpus_stats_s", "data_io.gen_synthetic_s", "data_io.load_manifest_s",
    "vocab.build_vocab_s", "data_io.load_entry_ms", "trace_overhead_pct",
]
REPORT_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)")


def run_command(workload, trace):
    command = [sys.executable, RUN, "--workload", workload, "--seconds", "0",
               "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, check=False, timeout=170)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (command, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    reported = {}
    for line in lines[:-1]:
        m = REPORT_LINE.match(line)
        if m:
            reported[m.group(1)] = m.group(3)
    return json.loads(lines[-1]), reported, proc.stdout


def check_result(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert isinstance(result["failed"], int), result
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (got, want)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload, names in REPORTED.items():
        result, reported, out = run_command(workload, 0)
        check_result(result, bench["end_to_end"])
        assert result["correct"] and result["failed"] == 0, out
        missing = [n for n in names if n not in reported]
        assert not missing, "%s: report lacks %s" % (workload, missing)

        result, reported, out = run_command(workload, 1)
        check_result(result, bench["per_layer"])
        assert result["correct"] and result["failed"] == 0, out
        missing = [n for n in LAYERS if n not in reported]
        assert not missing, "%s: traced report lacks %s" % (workload, missing)
        print("ok  %s: %d end-to-end and %d per-layer metrics reported"
              % (workload, len(names), len(LAYERS)))

    wrong = run.load_reference()
    wrong["train_losses"][0] *= 1 + 1e-6
    first = min(wrong["captions"])
    wrong["captions"][first] += " cat"
    wrong["counts"]["gradcheck"]["numerics.ops_per_step"] += 1
    for workload, trace in (("train", 0), ("caption_eval", 0), ("gradcheck", 1)):
        work_dir = os.path.join(OUT_DIR, "selftest-%s-%d" % (workload, os.getpid()))
        try:
            report = run.measure(workloads.WORKLOADS[workload], workloads.DEFAULT_SEED, 0, trace,
                                 wrong, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        outcomes = [report["outcome"]] + ([report["traced_outcome"]] if trace else [])
        failed = sum(o.failed for o in outcomes)
        attempted = sum(o.attempted for o in outcomes)
        assert failed > 0, "%s: a wrong reference went unnoticed" % workload
        print("ok  %s: a wrong reference gives fail_frac %d/%d" % (workload, failed, attempted))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
