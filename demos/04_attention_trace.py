"""Watching the two attention paths compete while a caption is generated.

After a short overfitting run, the salient path's mean score should sit
above the contextual path's while the salient object is being named,
then the balance shifts as the caption reaches the scene description.
"""

import tempfile

import numpy as np

from salcap import data_io, inference, optim

with tempfile.TemporaryDirectory(prefix="salcap_trace_") as work:
    spec = data_io.default_synthetic_spec(n_images=8, seed=13)
    manifest = data_io.gen_synthetic(spec, work)
    run = optim.TrainConfig(epochs=120, seed=13, batch_size=4, hidden_size=48, embed_size=24,
                            feature_size=24, min_count=1)
    vocabulary, params, examples = run.setup(manifest)
    state = optim.OptimizerState()
    for epoch in range(run.epochs):
        optim.train_epoch(examples, params, state, run, epoch)

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
