#!/usr/bin/env python3
"""Train the checkpoint that the caption_eval workload decodes with.

The recipe is acceptance criterion 4 run to completion: the 32-image
synthetic set at seed 42, saliency_context at desk sizes, batch 4,
Nadam, 300 epochs.  A fully trained model ends its captions with EOS,
so decoding does the work a real caption run does instead of running
every image to the step cap.  Takes about four minutes on one core.
Run from the repository root:

    python3 bench/make_checkpoint.py

which rewrites bench/checkpoint/.  Rerun bench/make_reference.py after.
"""

import json
import os
import shutil
import sys

import benchenv
import workloads

from salcap import decoder, optim

CHECKPOINT_EPOCHS = 300


def main():
    work = os.path.join(benchenv.OUT_DIR, "make-checkpoint")
    shutil.rmtree(work, ignore_errors=True)
    manifest_path = workloads.train_data(workloads.DEFAULT_SEED, work)
    recipe = workloads.train_recipe(workloads.DEFAULT_SEED, manifest_path)
    params = decoder.init_params(recipe.model_config, rng_seed=workloads.DEFAULT_SEED)
    opt_state = optim.OptimizerState()
    for epoch in range(CHECKPOINT_EPOCHS):
        stats = optim.train_epoch(recipe.examples, params, opt_state, recipe.train_config, epoch)
        if epoch % 50 == 49:
            print("epoch %d loss %.6f" % (epoch + 1, stats.mean_loss), flush=True)
    shutil.rmtree(benchenv.CHECKPOINT_DIR, ignore_errors=True)
    decoder.save_checkpoint(params, benchenv.CHECKPOINT_DIR, recipe.vocabulary)
    captions = sorted(c for e in recipe.manifest.entries for c in e.captions)
    with open(os.path.join(benchenv.CHECKPOINT_DIR, workloads.TRAIN_CAPTIONS), "w",
              encoding="utf-8") as fh:
        json.dump(captions, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    print("wrote %s (final loss %.6f)" % (benchenv.CHECKPOINT_DIR, stats.mean_loss))
    return 0


if __name__ == "__main__":
    sys.exit(main())
