#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks its runs against.

At the default seed this records the per-epoch losses of one train trial,
the caption of every image of the caption_eval split, and each
workload's exact per-round counts from a traced round.  Run from the
repository root, after bench/make_checkpoint.py if the checkpoint changed:

    python3 bench/make_reference.py

which rewrites the files in bench/reference/.
"""

import benchenv  # noqa: F401  (first: pins BLAS threads before numpy loads)

import json
import os
import shutil
import sys

import run
import workloads
from spans import Tracer
from workloads import DEFAULT_SEED, Outcome


def write(name, obj):
    path = os.path.join(benchenv.REFERENCE_DIR, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)


def traced_counts(workload, work_dir):
    tracer = Tracer()
    with tracer.installed():
        state = workload.setup(DEFAULT_SEED, workload.prepare(DEFAULT_SEED, work_dir), None)
        _, counts = run.run_rounds(workload, state, Outcome(), tracer, 0)
    return counts[0]


def main():
    work = os.path.join(benchenv.OUT_DIR, "make-reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(benchenv.REFERENCE_DIR, exist_ok=True)
    try:
        train = workloads.WORKLOADS["train"]
        inputs = train.prepare(DEFAULT_SEED, os.path.join(work, "train"))
        state = train.setup(DEFAULT_SEED, inputs, None)
        for _ in range(workloads.TRIAL_EPOCHS):
            train.run_round(state, Outcome(), None)
        write("train_losses", [rec.mean_loss for rec in state.epochs])

        caption = workloads.WORKLOADS["caption_eval"]
        inputs = caption.prepare(DEFAULT_SEED, os.path.join(work, "caption_eval"))
        state = caption.setup(DEFAULT_SEED, inputs, None)
        caption.run_round(state, Outcome(), None)
        write("captions", {e.id: c for e, c in zip(state.entries, state.passes[0].captions)})

        write("counts", {
            name: traced_counts(workload, os.path.join(work, "counts-" + name))
            for name, workload in workloads.WORKLOADS.items()
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
