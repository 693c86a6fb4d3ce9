"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

The overfit scenario (criteria 4 and 5) trains a desk-scale model for
300 epochs on the 32-image synthetic set and takes a few minutes; all
other criteria finish in seconds.
"""

import json
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from salcap import data_io, decoder, inference, metrics, optim, salstats
from salcap.attention import SaliencyGrid
from salcap.numerics import Tensor
from salcap.optim import GRAD_CHECK_SIZES
from salcap.vocab import BOS_ID, EOS_ID

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def report(criterion, ok, detail=""):
    line = "ACCEPTANCE %s %s" % (criterion, "PASS" if ok else "FAIL")
    if detail:
        line += ": " + detail
    print("\n" + line, flush=True)
    assert ok, line


def test_criterion_1_gradient_fidelity():
    worst = {}
    times = {}
    for variant in ("soft", "saliency_pooling", "attention_on_saliency",
                    "shared_weights", "saliency_context"):
        config = decoder.ModelConfig(variant=variant, **GRAD_CHECK_SIZES)
        started = time.perf_counter()
        result = optim.grad_check(config, tolerance=1e-4, seed=0)
        times[variant] = time.perf_counter() - started
        worst[variant] = result.max_rel_err
    ok = all(err < 1e-4 for err in worst.values()) and all(t < 60 for t in times.values())
    report(
        1, ok,
        "grad-check all variants; worst rel err %.2e; slowest %.1fs"
        % (max(worst.values()), max(times.values())),
    )


def _paired_models(seed, tie_paths=False):
    """saliency_context params plus a soft model sharing every non-attention
    weight and using the salient path as its single path."""
    full_cfg = decoder.ModelConfig(variant="saliency_context", **GRAD_CHECK_SIZES)
    full = decoder.init_params(full_cfg, rng_seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for slot in full.store.slots():
        slot.value.data += rng.normal(0.0, 0.2, slot.value.data.shape)
    if tie_paths:
        for name in ("w_ae", "w_he", "v_e"):
            getattr(full.attention.ctx, name).data[...] = getattr(full.attention.sal, name).data

    soft_cfg = decoder.ModelConfig(variant="soft", **GRAD_CHECK_SIZES)
    soft = decoder.init_params(soft_cfg, rng_seed=seed)
    for slot in soft.store.slots():
        if slot.name in full.store:
            slot.value.data[...] = full.store[slot.name].value.data
    for name in ("w_ae", "w_he", "v_e"):
        getattr(soft.attention.single, name).data[...] = getattr(full.attention.sal, name).data
    return full, soft


def _ctx_as_soft(full, seed):
    soft_cfg = decoder.ModelConfig(variant="soft", **GRAD_CHECK_SIZES)
    soft = decoder.init_params(soft_cfg, rng_seed=seed)
    for slot in soft.store.slots():
        if slot.name in full.store:
            slot.value.data[...] = full.store[slot.name].value.data
    for name in ("w_ae", "w_he", "v_e"):
        getattr(soft.attention.single, name).data[...] = getattr(full.attention.ctx, name).data
    return soft


def _forward_outputs(params, raw, sal, token_ids):
    """Per-step (e, alpha, v_hat) plus the sequence loss."""
    probs, targets, attended = optim.forward_caption(params, raw, sal, token_ids)
    outputs = [(out.e.data, out.alpha.data, out.v_hat.data) for out in attended]
    return outputs, optim.sequence_nll(probs, targets).item()


def test_criterion_2_reduction_equivalences():
    rng = np.random.default_rng(7)
    cfg = decoder.ModelConfig(variant="saliency_context", **GRAD_CHECK_SIZES)
    raw = rng.normal(size=(cfg.num_locations, cfg.raw_feature_size))
    token_ids = [BOS_ID, 4, 7, 9, 5, EOS_ID]
    deviations = []

    def compare(full, soft, sal):
        full_out, full_loss = _forward_outputs(full, raw, sal, token_ids)
        soft_out, soft_loss = _forward_outputs(soft, raw, sal, token_ids)
        worst = abs(full_loss - soft_loss)
        for (e1, a1, v1), (e2, a2, v2) in zip(full_out, soft_out):
            worst = max(worst, np.max(np.abs(e1 - e2)), np.max(np.abs(a1 - a2)),
                        np.max(np.abs(v1 - v2)))
        return worst

    full, soft_sal = _paired_models(seed=1)
    deviations.append(compare(full, soft_sal, SaliencyGrid(np.ones(cfg.num_locations))))
    soft_ctx = _ctx_as_soft(full, seed=1)
    deviations.append(compare(full, soft_ctx, SaliencyGrid(np.zeros(cfg.num_locations))))

    tied, soft_tied = _paired_models(seed=2, tie_paths=True)
    for _ in range(100):
        sal = SaliencyGrid(rng.uniform(size=cfg.num_locations))
        deviations.append(compare(tied, soft_tied, sal))

    worst = max(deviations)
    report(2, worst < 1e-12, "degenerate saliency/tied-path equivalences; worst dev %.2e" % worst)


def test_criterion_3_saliency_pooling_time_invariance():
    cfg = decoder.ModelConfig(variant="saliency_pooling", **GRAD_CHECK_SIZES)
    params = decoder.init_params(cfg, rng_seed=3)
    rng = np.random.default_rng(3)
    for slot in params.store.slots():
        slot.value.data += rng.normal(0.0, 0.2, slot.value.data.shape)
    raw = rng.normal(size=(cfg.num_locations, cfg.raw_feature_size))
    sal = SaliencyGrid(rng.uniform(size=cfg.num_locations))

    grid = decoder.project_features(Tensor(raw), params)
    state = decoder.LstmState.initial(cfg.hidden_size)
    previous_word = BOS_ID
    v_hats = []
    for _ in range(20):
        out, state, probs = decoder.step(params, grid, sal, state, previous_word)
        v_hats.append(out.v_hat.data.copy())
        previous_word = int(np.argmax(probs.data))
    identical = all(np.array_equal(v, v_hats[0]) for v in v_hats[1:])
    report(3, identical, "v_hat bit-identical across 20 decode steps")


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("overfit")
    started = time.perf_counter()
    run = optim.TrainConfig(seed=42, epochs=300, batch_size=4)
    spec = data_io.default_synthetic_spec(n_images=32, seed=run.seed)
    manifest = data_io.gen_synthetic(spec, str(out_dir / "data"))
    vocabulary, params, examples = run.setup(manifest)
    state = optim.OptimizerState()
    final = None
    for epoch in range(run.epochs):
        final = optim.train_epoch(examples, params, state, run, epoch)
    elapsed = time.perf_counter() - started
    return {
        "manifest": manifest,
        "vocabulary": vocabulary,
        "params": params,
        "final_loss": final.mean_loss,
        "elapsed": elapsed,
    }


def test_criterion_4_overfit_run(overfit_run):
    manifest = overfit_run["manifest"]
    vocabulary = overfit_run["vocabulary"]
    params = overfit_run["params"]
    pairs = []
    for entry in manifest.split_entries("train"):
        raw, sal = data_io.load_entry(manifest, entry)
        result = inference.greedy_decode(raw, sal, params, max_len=20)
        pairs.append((entry.id, vocabulary.decode(result.ids), entry.captions))
    b4 = metrics.bleu(metrics.CaptionCorpus.from_pairs(pairs))[3]
    loss = overfit_run["final_loss"]
    elapsed = overfit_run["elapsed"]
    ok = b4 >= 0.95 and loss < 0.1 and elapsed < 600
    report(
        4, ok,
        "overfit: B@4=%.4f (>=0.95), NLL/token=%.4f (<0.1), %.0fs (<600s)" % (b4, loss, elapsed),
    )


def test_criterion_5_trace_sanity(overfit_run):
    manifest = overfit_run["manifest"]
    params = overfit_run["params"]
    dominant = 0
    entries = manifest.split_entries("train")
    for entry in entries:
        raw, sal = data_io.load_entry(manifest, entry)
        _, trace = inference.trace_attention(raw, sal, params, max_len=20)
        half = max(1, (len(trace) + 1) // 2)
        mean_sal = np.mean([s.mean_e_sal for s in trace[:half]])
        mean_ctx = np.mean([s.mean_e_ctx for s in trace[:half]])
        if mean_sal > mean_ctx:
            dominant += 1
    fraction = dominant / len(entries)
    report(
        5, fraction >= 0.70,
        "salient path dominates first half for %d/%d images (%.0f%% >= 70%%)"
        % (dominant, len(entries), 100 * fraction),
    )


def test_criterion_6_metric_oracle():
    with open(os.path.join(FIXTURES, "metrics_oracle.json")) as fh:
        oracle = json.load(fh)
    rows = data_io.read_jsonl(os.path.join(FIXTURES, "metric_corpus.jsonl"),
                              {"image_id": str, "candidate": str, "references": list})
    corpus = metrics.CaptionCorpus.from_pairs(
        [(r["image_id"], r["candidate"], r["references"]) for r in rows]
    )
    computed = metrics.evaluate_corpus(corpus)

    candidates = {r["image_id"]: r["candidate"] for r in rows}
    with open(os.path.join(FIXTURES, "metric_corpus_alt.jsonl")) as fh:
        alt = {json.loads(l)["image_id"]: json.loads(l)["candidate"] for l in fh if l.strip()}
    with open(os.path.join(FIXTURES, "train_pool.json")) as fh:
        pool = json.load(fh)
    computed.update(metrics.diversity_stats(list(candidates.values())))
    computed["novelty_pct"] = metrics.novelty_pct(list(candidates.values()), pool)
    computed["difference_pct"] = metrics.difference_pct(candidates, alt)

    worst = max(abs(computed[k] - v) for k, v in oracle["corpus"].items())

    clip = metrics.bleu(metrics.CaptionCorpus.from_pairs([("i", "a a a", ["a b"])]))[0]
    rouge_case = metrics.rouge_l(metrics.CaptionCorpus.from_pairs([("i", "a b c", ["a c"])]))
    cider_case = metrics.cider(
        metrics.CaptionCorpus.from_pairs([("a", "x y", ["x y"]), ("b", "p q", ["p q"])])
    )
    worst = max(
        worst,
        abs(clip - oracle["bleu_clip_case"]),
        abs(rouge_case - oracle["rouge_case"]),
        abs(cider_case - oracle["cider_two_image_case"]),
    )
    report(
        6, worst < 1e-6,
        "all metrics match frozen oracle (worst dev %.2e); clip B@1=%.6f rouge=%.6f cider=%.3f"
        % (worst, clip, rouge_case, cider_case),
    )


def test_criterion_7_salstats_correctness():
    # 4x4 fixtures with hand-counted hits and sizes
    seg1 = np.zeros((4, 4), dtype=int)
    seg1[:2, :2] = 1          # class 1: 4 pixels, top-left
    seg1[2:, 2:] = 2          # class 2: 4 pixels, bottom-right
    sal1 = np.zeros((4, 4), dtype=np.uint8)
    sal1[:2, :2] = 255        # mask covers exactly class 1

    seg2 = np.zeros((4, 4), dtype=int)
    seg2[0, :] = 1            # class 1: top row
    sal2 = np.zeros((4, 4), dtype=np.uint8)  # nothing salient

    pairs = [
        (salstats.SegmentationMap(seg1), salstats.SaliencyMap(sal1)),
        (salstats.SegmentationMap(seg2), salstats.SaliencyMap(sal2)),
    ]
    rates = {c.label: c for c in salstats.class_hit_rates(pairs, threshold=128, min_occurrences=1)}
    counts_ok = (
        rates[1].occurrences == 2 and rates[1].hits == 1 and rates[1].rate == 50.0
        and rates[2].occurrences == 1 and rates[2].hits == 0
        and rates[0].occurrences == 2 and rates[0].hits == 0
    )

    half = np.zeros((4, 4), dtype=int)
    half[:2, :] = 1
    graded = np.zeros((4, 4), dtype=np.uint8)
    graded[0, :] = 255        # class 1 half bright, half dark
    points = {
        p.label: p
        for p in salstats.size_saliency_distribution(
            [(salstats.SegmentationMap(half), salstats.SaliencyMap(graded))]
        )
    }
    sizes_ok = points[1].normalized_size == 0.5 and points[1].mean_saliency == 0.5

    rng = np.random.default_rng(11)
    sweep_pairs = [
        (
            salstats.SegmentationMap(rng.integers(0, 3, (4, 4))),
            salstats.SaliencyMap(rng.integers(0, 256, (4, 4))),
        )
        for _ in range(5)
    ]
    monotone = True
    previous = None
    for threshold in range(0, 256, 5):
        current = {c.label: c.rate for c in salstats.class_hit_rates(sweep_pairs, threshold, 1)}
        if previous is not None:
            monotone &= all(current[k] <= previous[k] + 1e-12 for k in current)
        previous = current

    ok = counts_ok and sizes_ok and monotone
    report(7, ok, "hand-counted 4x4 hit rates and size/saliency tuples; monotone over 0..255 sweep")


def test_criterion_8_format_round_trips(tmp_path):
    rng = np.random.default_rng(12)
    tensor_ok = True
    for dims in [(4,), (3, 5), (2, 3, 2)]:
        t = Tensor(rng.normal(size=dims))
        path = tmp_path / ("t_%d.tnsr" % len(dims))
        data_io.write_tensor(t, path)
        tensor_ok &= np.array_equal(data_io.read_tensor(path), t.data)

    source = rng.integers(0, 256, (15, 20)).astype(np.uint8)
    grid = data_io.prepare_saliency(source / 255.0, 5, 5)
    mean_dev = abs(grid.s.mean() * 255 - source.astype(float).mean())

    spec = data_io.SyntheticSpec(
        n_images=6, grid_rows=3, grid_cols=3, feature_dim=5,
        salient_words=["cat", "dog"], context_words=["field", "lake"], seed=5,
    )
    data_io.gen_synthetic(spec, str(tmp_path / "a"))
    data_io.gen_synthetic(spec, str(tmp_path / "b"))
    trees_identical = True
    for dirpath, _, files in os.walk(tmp_path / "a"):
        for name in files:
            rel = os.path.relpath(os.path.join(dirpath, name), tmp_path / "a")
            with open(os.path.join(tmp_path / "a", rel), "rb") as fa:
                with open(os.path.join(tmp_path / "b", rel), "rb") as fb:
                    trees_identical &= fa.read() == fb.read()

    ok = tensor_ok and mean_dev < 1e-9 and trees_identical
    report(
        8, ok,
        "tensor round trip bit-identical; saliency mean dev %.1e; same-seed trees byte-identical"
        % mean_dev,
    )
