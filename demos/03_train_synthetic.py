"""End-to-end: synthesize a dataset, train briefly, decode, and score.

A scaled-down version of the overfitting study (fewer images, fewer
epochs) that still shows the loss falling and captions converging on
the references; expect about a minute of compute.
"""

import tempfile

from salcap import data_io, inference, metrics, optim

with tempfile.TemporaryDirectory(prefix="salcap_demo_") as work:
    spec = data_io.default_synthetic_spec(n_images=12, seed=7)
    manifest = data_io.gen_synthetic(spec, work)
    print("dataset: %d images under %s" % (len(manifest.entries), work))

    run = optim.TrainConfig(epochs=150, seed=7, batch_size=4, hidden_size=48, embed_size=24,
                            feature_size=24, min_count=1)
    vocabulary, params, examples = run.setup(manifest)
    print("vocabulary: %d entries" % len(vocabulary))

    state = optim.OptimizerState()

    for epoch in range(run.epochs):
        stats = optim.train_epoch(examples, params, state, run, epoch)
        if epoch % 25 == 0 or epoch == run.epochs - 1:
            print("epoch %3d  loss/token %.4f  (%.0f tokens/s)"
                  % (epoch, stats.mean_loss, stats.tokens_per_sec))

    print("\ngreedy captions vs the base reference:")
    pairs = []
    for entry in manifest.entries[:6]:
        raw, sal = data_io.load_entry(manifest, entry)
        result = inference.greedy_decode(raw, sal, params, max_len=20)
        decoded = vocabulary.decode(result.ids)
        pairs.append((entry.id, decoded, entry.captions))
        print("  %-8s %-46r ref: %r" % (entry.id, decoded, entry.captions[0]))

    for entry in manifest.entries[6:]:
        raw, sal = data_io.load_entry(manifest, entry)
        result = inference.greedy_decode(raw, sal, params, max_len=20)
        pairs.append((entry.id, vocabulary.decode(result.ids), entry.captions))

    corpus = metrics.CaptionCorpus.from_pairs(pairs)
    report = metrics.evaluate_corpus(corpus)
    print("\nscores after this short run:")
    for key in ("bleu_1", "bleu_4", "rouge_l", "cider"):
        print("  %-8s %.4f" % (key, report[key]))
