#!/usr/bin/env python3
"""Print one SHA-256 per family of salcap's numeric outputs.

A change that claims to keep every output's bits shows it by running
this script before and after the change, on the same machine, and
comparing the lines.  Run from anywhere:

    python3 tests/output_digest.py

Families, one line each as ``<family> <sha256>``:

- ``gradients``: the loss and every parameter gradient of each variant,
  on the grad-check sizes and inputs of ``optim.grad_check`` (seed 0);
- ``training``: three epoch losses of the acceptance criterion-4 recipe
  (32 synthetic images, saliency_context at desk sizes, B=4, Nadam),
  then the trained parameters;
- ``captions``: greedy captions of ten training images by that model;
- ``alphas``: the ``trace_attention`` alphas of the same ten images.
"""

import hashlib
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from salcap import data_io, decoder, inference, optim  # noqa: E402
from salcap import numerics as nm  # noqa: E402
from salcap.attention import SaliencyGrid  # noqa: E402
from salcap.vocab import BOS_ID, EOS_ID, build_vocab  # noqa: E402

VARIANTS = ("soft", "saliency_pooling", "attention_on_saliency", "shared_weights",
            "saliency_context")
GRAD_CHECK_SIZES = dict(vocab_size=12, hidden_size=16, embed_size=8, feature_size=8,
                        raw_feature_size=10, grid_rows=2, grid_cols=3)
DESK = dict(hidden_size=64, embed_size=32, feature_size=32)
SEED = 42
EPOCHS = 3
IMAGES = 10


def _update(digest, array):
    digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())


def gradients_digest():
    """The loss and gradients that ``optim.grad_check`` checks, at seed 0."""
    digest = hashlib.sha256()
    for variant in VARIANTS:
        config = decoder.ModelConfig(variant=variant, **GRAD_CHECK_SIZES)
        params = decoder.init_params(config, rng_seed=0)
        rng = np.random.default_rng(np.random.SeedSequence([0, 1]))
        raw = rng.normal(0.0, 1.0, (config.num_locations, config.raw_feature_size))
        sal = SaliencyGrid(rng.uniform(0.0, 1.0, config.num_locations))
        words = [int(w) for w in rng.integers(4, config.vocab_size, 4)]
        for slot in params.store.slots():
            slot.value.data += rng.normal(0.0, 0.25, slot.value.data.shape)
        loss = optim.caption_loss(params, raw, sal, [BOS_ID] + words + [EOS_ID])
        nm.backward(loss)
        _update(digest, loss.item())
        for slot in params.store.slots():
            _update(digest, slot.grad)
    return digest.hexdigest()


def trained_model(out_dir):
    """(manifest, params, epoch losses) after three criterion-4 epochs."""
    manifest = data_io.gen_synthetic(data_io.default_synthetic_spec(n_images=32, seed=SEED),
                                     out_dir)
    vocabulary = build_vocab([c for e in manifest.entries for c in e.captions], min_count=5)
    train_cfg = optim.TrainConfig(epochs=EPOCHS, seed=SEED, batch_size=4)
    model_cfg = decoder.ModelConfig(
        variant="saliency_context", vocab_size=len(vocabulary),
        raw_feature_size=manifest.feature_dim, grid_rows=manifest.grid_rows,
        grid_cols=manifest.grid_cols, **DESK,
    )
    params = decoder.init_params(model_cfg, rng_seed=SEED)
    examples = optim.build_examples(manifest, vocabulary, "train", train_cfg)
    state = optim.OptimizerState()
    losses = [optim.train_epoch(examples, params, state, train_cfg, epoch).mean_loss
              for epoch in range(EPOCHS)]
    return manifest, params, losses


def main():
    lines = [("gradients", gradients_digest())]
    training, captions, alphas = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as out_dir:
        manifest, params, losses = trained_model(out_dir)
        _update(training, losses)
        for slot in params.store.slots():
            _update(training, slot.value.data)
        for entry in manifest.split_entries("train")[:IMAGES]:
            raw, sal = data_io.load_entry(manifest, entry)
            result = inference.greedy_decode(raw, sal, params)
            captions.update(repr((entry.id, result.ids, result.truncated)).encode())
            for step in inference.trace_attention(raw, sal, params)[1]:
                _update(alphas, step.alpha)
    lines += [("training", training.hexdigest()), ("captions", captions.hexdigest()),
              ("alphas", alphas.hexdigest())]
    for family, hexdigest in lines:
        print(family, hexdigest)


if __name__ == "__main__":
    main()
