#!/usr/bin/env python3
"""Print one SHA-256 per family of salcap's numeric outputs.

A change that claims to keep every output's bits shows it by running
this script before and after the change, on the same machine, and
comparing the lines.  Run from anywhere:

    python3 tests/output_digest.py

Families, one line each as ``<family> <sha256>``:

- ``gradients``: the loss and every parameter gradient of each variant
  on ``optim.grad_check_case`` at ``optim.GRAD_CHECK_SIZES`` and seed 0,
  the case that ``optim.grad_check`` checks;
- ``training``: three epoch losses of the acceptance criterion-4 recipe
  (32 synthetic images, saliency_context at desk sizes, B=4, Nadam),
  which ``optim.TrainConfig.setup`` builds at its defaults with batch
  size 4, then the trained parameters;
- ``captions``: greedy captions of ten training images by that model;
- ``alphas``: the ``trace_attention`` alphas of the same ten images;
- ``checkpoint``: the name, dims and bytes of every parameter of
  ``bench/checkpoint`` as ``decoder.load_checkpoint`` returns them;
- ``metrics``: ``metrics.evaluate_corpus``'s report on the acceptance
  criterion-6 fixture corpus and on a seeded random corpus.
"""

import hashlib
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from salcap import data_io, decoder, inference, metrics, optim  # noqa: E402
from salcap import numerics as nm  # noqa: E402

VARIANTS = ("soft", "saliency_pooling", "attention_on_saliency", "shared_weights",
            "saliency_context")
SEED = 42
EPOCHS = 3
IMAGES = 10


def _update(digest, array):
    digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())


def gradients_digest():
    """The loss and gradients of ``optim.grad_check_case`` at seed 0."""
    digest = hashlib.sha256()
    for variant in VARIANTS:
        config = decoder.ModelConfig(variant=variant, **optim.GRAD_CHECK_SIZES)
        params, raw, sal, token_ids = optim.grad_check_case(config, 0)
        loss = optim.caption_loss(params, raw, sal, token_ids)
        nm.backward(loss)
        _update(digest, loss.item())
        for slot in params.store.slots():
            _update(digest, slot.grad)
    return digest.hexdigest()


def trained_model(out_dir):
    """(manifest, params, epoch losses) after three criterion-4 epochs."""
    manifest = data_io.gen_synthetic(data_io.default_synthetic_spec(n_images=32, seed=SEED),
                                     out_dir)
    run = optim.TrainConfig(epochs=EPOCHS, seed=SEED, batch_size=4)
    _, params, examples = run.setup(manifest)
    state = optim.OptimizerState()
    losses = [optim.train_epoch(examples, params, state, run, epoch).mean_loss
              for epoch in range(EPOCHS)]
    return manifest, params, losses


def checkpoint_digest():
    """The name, dims and bytes of each parameter of the committed checkpoint, as loaded."""
    digest = hashlib.sha256()
    params, _ = decoder.load_checkpoint(os.path.join(ROOT, "bench", "checkpoint"))
    for slot in params.store.slots():
        digest.update(repr((slot.name, slot.value.dims)).encode())
        _update(digest, slot.value.data)
    return digest.hexdigest()


def random_corpus(seed, n_images=60, words="abcdefg"):
    """Captions over a seven-word vocabulary, 0-12 tokens, 1-4 references each."""
    rng = np.random.default_rng(seed)

    def sentence():
        return [words[i] for i in rng.integers(0, len(words), rng.integers(0, 13))]

    return metrics.CaptionCorpus([
        metrics.CorpusEntry(str(i), sentence(), [sentence() for _ in range(rng.integers(1, 5))])
        for i in range(n_images)
    ])


def metrics_digest():
    """The reports of ``evaluate_corpus`` on the criterion-6 fixture and a random corpus."""
    digest = hashlib.sha256()
    rows = data_io.read_jsonl(os.path.join(ROOT, "tests", "fixtures", "metric_corpus.jsonl"),
                              {"image_id": str, "candidate": str, "references": list})
    fixture = metrics.CaptionCorpus.from_pairs(
        [(r["image_id"], r["candidate"], r["references"]) for r in rows])
    for corpus in (fixture, random_corpus(SEED)):
        digest.update(repr(metrics.evaluate_corpus(corpus)).encode())
    return digest.hexdigest()


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
              ("alphas", alphas.hexdigest()), ("checkpoint", checkpoint_digest()),
              ("metrics", metrics_digest())]
    for family, hexdigest in lines:
        print(family, hexdigest)


if __name__ == "__main__":
    main()
