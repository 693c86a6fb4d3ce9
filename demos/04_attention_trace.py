"""Watching the two attention paths compete while a caption is generated.

After a short overfitting run, the salient path's mean score should sit
above the contextual path's while the salient object is being named,
then the balance shifts as the caption reaches the scene description.
"""

import tempfile

import numpy as np

from salcap import data_io, decoder, inference, optim
from salcap.vocab import build_vocab

with tempfile.TemporaryDirectory(prefix="salcap_trace_") as work:
    spec = data_io.default_synthetic_spec(n_images=8, seed=13)
    manifest = data_io.gen_synthetic(spec, work)
    vocabulary = build_vocab([c for e in manifest.entries for c in e.captions], min_count=1)

    train_cfg = optim.TrainConfig(epochs=120, seed=13, batch_size=4)
    model_cfg = decoder.ModelConfig(
        variant="saliency_context",
        vocab_size=len(vocabulary),
        hidden_size=48, embed_size=24, feature_size=24,
        raw_feature_size=manifest.feature_dim,
        grid_rows=manifest.grid_rows, grid_cols=manifest.grid_cols,
    )
    params = decoder.init_params(model_cfg, rng_seed=13)
    examples = optim.build_examples(manifest, vocabulary, "train", train_cfg)
    state = optim.OptimizerState()
    for epoch in range(train_cfg.epochs):
        optim.train_epoch(examples, params, state, train_cfg, epoch)

    for entry in manifest.entries[:3]:
        raw, sal = data_io.load_entry(manifest, entry)
        result, trace = inference.trace_attention(raw, sal, params, max_len=20)
        print("\n%s -> %r" % (entry.id, vocabulary.decode(result.ids)))
        print("  %-4s %-10s %12s %12s  lead" % ("t", "word", "mean e_sal", "mean e_ctx"))
        for step in trace:
            lead = "salient" if step.mean_e_sal > step.mean_e_ctx else "context"
            word = vocabulary.word(step.token_id)
            print("  %-4d %-10s %12.4f %12.4f  %s"
                  % (step.t, word, step.mean_e_sal, step.mean_e_ctx, lead))
        peak = int(np.argmax(trace[0].alpha))
        print("  first-step attention peaks at grid cell %d of %d" % (peak, len(trace[0].alpha)))
