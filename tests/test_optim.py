import gc
import importlib
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

import per_step_backward
from salcap import data_io
from salcap import decoder as dec
from salcap import numerics as nm
from salcap import optim
from salcap.attention import VARIANTS, SaliencyGrid
from salcap.numerics import ParamStore, Tensor
from salcap.vocab import BOS_ID, EOS_ID, PAD_ID, UNK_ID, build_vocab

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def tiny_config(variant="saliency_context", **overrides):
    base = dict(
        variant=variant, vocab_size=8, hidden_size=6, embed_size=4,
        feature_size=4, raw_feature_size=5, grid_rows=2, grid_cols=2,
    )
    base.update(overrides)
    return dec.ModelConfig(**base)


def uniform_probs(v, steps):
    return [Tensor(np.full(v, 1.0 / v)) for _ in range(steps)]


class TestSequenceNll:
    def test_uniform_gives_log_vocab(self):
        loss = optim.sequence_nll(uniform_probs(10, 4), [4, 5, 6, 2])
        npt.assert_allclose(loss.item(), math.log(10), atol=1e-12)

    def test_perfect_predictor_zero(self):
        probs = [Tensor(np.eye(5)[i]) for i in (3, 1)]
        loss = optim.sequence_nll(probs, [3, 1])
        assert loss.item() == 0.0

    def test_two_step_hand_case(self):
        p1 = Tensor([0.5, 0.5])
        p2 = Tensor([0.75, 0.25])
        loss = optim.sequence_nll([p1, p2], [1, 1])
        npt.assert_allclose(loss.item(), 1.5 * math.log(2), atol=1e-12)
        assert abs(loss.item() - 1.03972) < 1e-5

    def test_pad_targets_skipped(self):
        probs = uniform_probs(6, 3)
        base = optim.sequence_nll(probs[:2], [4, 5])
        padded = optim.sequence_nll(probs, [4, 5, PAD_ID])
        assert base.item() == padded.item()

    def test_all_pad_rejected(self):
        with pytest.raises(ValueError, match="non-pad"):
            optim.sequence_nll(uniform_probs(4, 2), [PAD_ID, PAD_ID])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            optim.sequence_nll(uniform_probs(4, 2), [1, 2, 3])

    def test_loss_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = int(rng.integers(2, 9))
            p = rng.uniform(0.05, 1.0, v)
            p /= p.sum()
            loss = optim.sequence_nll([Tensor(p)], [int(rng.integers(1, v))])
            assert loss.item() >= 0.0


def packed(pairs):
    """The arena a store of these ``(name, array)`` pairs lays out: the
    layout of the optimizer's moments for a store of the same names."""
    return ParamStore(pairs).values


class TestOptimizerStep:
    def _store(self, value, grad):
        store = ParamStore([("w", np.asarray(value, dtype=float))])
        store["w"].grad[...] = grad
        return store

    def test_zero_grads_warn_and_skip(self):
        store = self._store([1.0, 2.0], 0.0)
        slot = store["w"]
        state = optim.OptimizerState()
        with pytest.warns(UserWarning, match="all-zero"):
            optim.optimizer_step(store, state, optim.TrainConfig())
        npt.assert_array_equal(slot.value.data, [1.0, 2.0])
        npt.assert_array_equal(slot.grad, [0.0, 0.0])
        assert state.t == 0

    def test_adam_first_step(self):
        store = self._store([0.0], 1.0)
        slot = store["w"]
        config = optim.TrainConfig(optimizer="adam", learning_rate=0.001)
        optim.optimizer_step(store, optim.OptimizerState(), config)
        npt.assert_allclose(slot.value.data, [-0.001 / (1.0 + 1e-8)], atol=1e-15)
        assert abs(slot.value.data[0] + 9.9999999e-4) < 1e-11

    def test_grads_zeroed_after_step(self):
        store = self._store([0.0], 1.0)
        slot = store["w"]
        optim.optimizer_step(store, optim.OptimizerState(), optim.TrainConfig())
        npt.assert_array_equal(slot.grad, [0.0])

    @pytest.mark.parametrize("rule", ["adam", "nadam"])
    def test_matches_formula_transcript(self, rule):
        with open(os.path.join(FIXTURES, "nadam_transcript.json")) as fh:
            fixture = json.load(fh)
        store = ParamStore([("w", np.array([fixture["theta0"]]))])
        slot = store["w"]
        config = optim.TrainConfig(optimizer=rule, learning_rate=fixture["learning_rate"])
        state = optim.OptimizerState()
        for row in fixture[rule]:
            slot.grad[...] = row["g"]
            optim.optimizer_step(store, state, config)
            npt.assert_allclose(slot.value.data, [row["theta"]], atol=1e-15)

    def test_grad_clipping(self):
        store = self._store(np.zeros(4), 10.0)  # norm 20
        slot = store["w"]
        config = optim.TrainConfig(optimizer="adam", grad_clip_norm=1.0)
        state = optim.OptimizerState()
        optim.optimizer_step(store, state, config)
        # clipped g = 0.5 per element; first adam step direction g/|g| scaled
        expected = -config.learning_rate * 0.5 / (np.sqrt(0.5 ** 2) + 1e-8)
        npt.assert_allclose(slot.value.data, np.full(4, expected), rtol=1e-9)

    def test_gradient_under_clip_norm_unchanged(self):
        """A gradient whose norm is under ``grad_clip_norm`` steps as if unclipped."""
        grad = np.array([3.0, -4.0])  # norm 5
        sides = []
        for clip in (0.0, 6.25):
            store = self._store([1.0, 2.0], grad)
            state = optim.OptimizerState()
            optim.optimizer_step(store, state, optim.TrainConfig(grad_clip_norm=clip))
            sides.append((store["w"].value.data, state.m, state.v))
        for unclipped, clipped in zip(*sides):
            npt.assert_array_equal(clipped, unclipped)
        npt.assert_array_equal(sides[0][1], packed([("w", (1.0 - optim.ADAM_BETA1) * grad)]))

    def test_non_finite_update_names_slot_and_step(self):
        store = ParamStore([("w", np.array([1.0, 2.0])), ("b", np.array([0.5]))])
        slots = store.slots()
        state = optim.OptimizerState()
        slots[0].grad[...] = 1.0
        slots[1].grad[...] = 1.0
        optim.optimizer_step(store, state, optim.TrainConfig())
        slots[0].grad[...] = 1.0
        slots[1].grad[...] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite value in 'b' after optimizer step 2$"):
            optim.optimizer_step(store, state, optim.TrainConfig())

    def test_value_written_through_a_slot_is_the_value_stepped(self):
        """A write through ``slot.value.data`` lands in the arena the step moves."""
        store = ParamStore([("a", np.zeros(3)), ("w", np.zeros(2))])
        slot = store["w"]
        slot.value.data[...] = [1.0, -2.0]
        slot.grad[...] = 1.0
        config = optim.TrainConfig(optimizer="adam", learning_rate=0.001)
        optim.optimizer_step(store, optim.OptimizerState(), config)
        step = 0.001 / (1.0 + 1e-8)
        npt.assert_array_equal(slot.value.data, [1.0 - step, -2.0 - step])
        npt.assert_array_equal(store["a"].value.data, np.zeros(3))

    @pytest.mark.parametrize("rule", ["adam", "nadam"])
    @pytest.mark.parametrize("clip", [0.0, 0.5])
    def test_in_place_update_matches_formula_copy(self, rule, clip):
        """Three steps on random slots give the same bits as the formula written out."""
        rng = np.random.default_rng(8)
        shapes = [(3, 4), (5,), (2, 2, 3)]
        values = [rng.normal(size=shape) for shape in shapes]
        store = ParamStore([("w%d" % i, v) for i, v in enumerate(values)])
        slots = store.slots()
        ref = [{"theta": v.copy(), "m": np.zeros(v.shape), "v": np.zeros(v.shape)} for v in values]
        config = optim.TrainConfig(optimizer=rule, learning_rate=0.01, grad_clip_norm=clip)
        state = optim.OptimizerState()
        for t in range(1, 4):
            grads = [rng.normal(size=shape) for shape in shapes]
            for slot, grad in zip(slots, grads):
                slot.grad[...] = grad
            optim.optimizer_step(store, state, config)
            reference_optimizer_step(ref, grads, t, config)
            for slot, r in zip(slots, ref):
                npt.assert_array_equal(slot.value.data, r["theta"])
                npt.assert_array_equal(slot.grad, np.zeros(slot.grad.shape))
            for moment in ("m", "v"):
                npt.assert_array_equal(getattr(state, moment),
                                       packed([(s.name, r[moment]) for s, r in zip(slots, ref)]))


def reference_optimizer_step(ref, grads, t, config):
    """The Adam/Nadam update written with temporaries, one expression per formula line."""
    clip_scale = 1.0
    if config.grad_clip_norm > 0:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        clip_scale = min(1.0, config.grad_clip_norm / total)
    bc1 = 1.0 - optim.ADAM_BETA1 ** t
    bc2 = 1.0 - optim.ADAM_BETA2 ** t
    b1, b2, eps = optim.ADAM_BETA1, optim.ADAM_BETA2, optim.ADAM_EPS
    for r, grad in zip(ref, grads):
        g = grad * clip_scale
        r["m"] = r["m"] * b1 + (1.0 - b1) * g
        r["v"] = r["v"] * b2 + (1.0 - b2) * (g * g)
        m_hat = r["m"] / bc1
        v_hat = r["v"] / bc2
        if config.optimizer == "nadam":
            step_dir = (b1 * m_hat + (1.0 - b1) * g / bc1) / (np.sqrt(v_hat) + eps)
        else:
            step_dir = m_hat / (np.sqrt(v_hat) + eps)
        r["theta"] = r["theta"] - config.learning_rate * step_dir


def synthetic_examples(config, n=6, seed=0, lengths=(3, 4, 5)):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        raw = rng.normal(size=(config.num_locations, config.raw_feature_size))
        sal = SaliencyGrid(rng.uniform(size=config.num_locations))
        words = [int(w) for w in rng.integers(4, config.vocab_size, lengths[i % len(lengths)])]
        examples.append(optim.Example("img%d" % i, raw, sal, [BOS_ID] + words + [EOS_ID]))
    return examples


class TestTrainEpoch:
    def test_zero_lr_keeps_parameters(self):
        config = tiny_config()
        params = dec.init_params(config, rng_seed=1)
        before = {s.name: s.value.data.copy() for s in params.store.slots()}
        examples = synthetic_examples(config)
        stats = optim.train_epoch(
            examples, params, optim.OptimizerState(), optim.TrainConfig(learning_rate=0.0), 0
        )
        assert stats.mean_loss > 0
        for slot in params.store.slots():
            npt.assert_array_equal(slot.value.data, before[slot.name])

    def test_same_seed_same_trajectory(self):
        config = tiny_config()
        losses = []
        for _ in range(2):
            params = dec.init_params(config, rng_seed=2)
            examples = synthetic_examples(config)
            state = optim.OptimizerState()
            tc = optim.TrainConfig(seed=5, batch_size=2)
            losses.append([
                optim.train_epoch(examples, params, state, tc, e).mean_loss for e in range(3)
            ])
        assert losses[0] == losses[1]

    def test_stale_gradients_zeroed_on_entry(self):
        config = tiny_config()
        runs = []
        for stale in (0.0, 1.0):
            params = dec.init_params(config, rng_seed=2)
            state = optim.OptimizerState()
            tc = optim.TrainConfig(seed=5, batch_size=2)
            losses = []
            for epoch in range(3):
                for slot in params.store.slots():
                    slot.grad[...] = stale
                losses.append(
                    optim.train_epoch(synthetic_examples(config), params, state, tc, epoch).mean_loss
                )
            runs.append((losses, [s.value.data.copy() for s in params.store.slots()]))
        assert runs[0][0] == runs[1][0]
        for zeroed, stale in zip(runs[0][1], runs[1][1]):
            npt.assert_array_equal(zeroed, stale)

    def test_batch_permutation_invariance(self):
        config = tiny_config()
        examples = synthetic_examples(config, n=5, lengths=(4,))
        results = []
        for order in (list(range(5)), [3, 1, 4, 0, 2]):
            params = dec.init_params(config, rng_seed=3)
            stats = optim.train_epoch(
                [examples[i] for i in order], params, optim.OptimizerState(),
                optim.TrainConfig(learning_rate=0.0, batch_size=8), 0,
            )
            results.append(stats.mean_loss)
        assert abs(results[0] - results[1]) < 1e-12

    def test_mean_loss_is_token_weighted_caption_loss(self):
        # training scores the same loss that grad-check differentiates
        config = tiny_config()
        params = dec.init_params(config, rng_seed=7)
        examples = synthetic_examples(config)
        stats = optim.train_epoch(
            examples, params, optim.OptimizerState(),
            optim.TrainConfig(learning_rate=0.0, batch_size=len(examples)), 0,
        )
        tokens = [len(ex.token_ids) - 1 for ex in examples]
        weighted = sum(
            n * optim.caption_loss(params, ex.raw, ex.sal, ex.token_ids).item()
            for n, ex in zip(tokens, examples)
        )
        assert stats.num_tokens == sum(tokens)
        assert abs(stats.mean_loss - weighted / sum(tokens)) < 1e-12

    def test_loss_decreases_on_tiny_overfit(self):
        config = tiny_config()
        params = dec.init_params(config, rng_seed=4)
        examples = synthetic_examples(config, n=2, lengths=(3,))
        state = optim.OptimizerState()
        tc = optim.TrainConfig(batch_size=2, learning_rate=0.01)
        first = optim.train_epoch(examples, params, state, tc, 0).mean_loss
        for epoch in range(1, 150):
            last = optim.train_epoch(examples, params, state, tc, epoch).mean_loss
        assert last < first * 0.5

    def test_previous_batch_tape_freed(self, monkeypatch):
        # batch_size=1: every forward_caption call starts a batch
        config = tiny_config()
        params = dec.init_params(config, rng_seed=1)
        forward, live = optim.forward_caption, []

        def counting_forward(*args):
            live.append(sum(1 for obj in gc.get_objects()
                            if isinstance(obj, Tensor) and obj._parents))
            return forward(*args)

        monkeypatch.setattr(optim, "forward_caption", counting_forward)
        gc.collect()
        optim.train_epoch(synthetic_examples(config), params, optim.OptimizerState(),
                          optim.TrainConfig(batch_size=1), 0)
        assert live == [0] * 6

    def test_batch_order_seeded_per_epoch(self):
        # lengths 3, 4, 5, 3, 4, 5 bucket into three pairs; each epoch
        # shuffles them with its own SeedSequence([seed, epoch])
        examples = synthetic_examples(tiny_config())
        tc = optim.TrainConfig(seed=5, batch_size=2)
        orders = []
        for epoch in range(2):
            expected = [[0, 3], [1, 4], [2, 5]]
            np.random.default_rng(np.random.SeedSequence([5, epoch])).shuffle(expected)
            orders.append(optim._batches(examples, tc, epoch))
            assert orders[-1] == expected
        assert orders[0] != orders[1]

    def test_num_truncated_counts_examples(self):
        config = tiny_config()
        params = dec.init_params(config, rng_seed=3)
        vocabulary = build_vocab(["a b c d"], min_count=1)
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(config.num_locations, config.raw_feature_size))
        sal = SaliencyGrid(rng.uniform(size=config.num_locations))
        examples = [optim.make_example("img%d" % i, raw, sal, caption, vocabulary, 3)
                    for i, caption in enumerate(["a b", "a b c d", "d c b a", "c d a"])]
        stats = optim.train_epoch(examples, params, optim.OptimizerState(),
                                  optim.TrainConfig(batch_size=2), 0)
        assert stats.num_truncated == 2

    def test_tokens_per_sec_is_tokens_over_epoch_seconds(self, monkeypatch):
        """The epoch's clock reads 10.0 at its start and 12.5 at its end."""
        config = tiny_config()
        params = dec.init_params(config, rng_seed=3)
        ticks = iter([10.0, 12.5])
        monkeypatch.setattr(optim.time, "perf_counter", lambda: next(ticks))
        stats = optim.train_epoch(synthetic_examples(config), params, optim.OptimizerState(),
                                  optim.TrainConfig(batch_size=2), 0)
        monkeypatch.undo()
        assert stats.num_tokens == 30  # 3 + 4 + 5 words, plus EOS, twice
        assert stats.tokens_per_sec == stats.num_tokens / 2.5

    def test_empty_dataset_rejected(self):
        params = dec.init_params(tiny_config(), rng_seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            optim.train_epoch([], params, optim.OptimizerState(), optim.TrainConfig(), 0)


class TestBatchEquivalence:
    def test_one_batch_matches_per_step_accumulation(self, tmp_path, monkeypatch):
        """One criterion-4 batch: the loss bits of the per-step accumulation
        (``per_step_backward``), and its gradients within 1e-12."""
        manifest = data_io.gen_synthetic(
            data_io.default_synthetic_spec(n_images=32, seed=42), str(tmp_path / "data"))
        run = optim.TrainConfig(seed=42, batch_size=4)
        _, params, examples = run.setup(manifest)
        batch = [examples[i] for i in optim._batches(examples, run, 0)[0]]
        grads = {}
        monkeypatch.setattr(optim, "optimizer_step", lambda store, *_: grads.update(
            (slot.name, slot.grad.copy()) for slot in store.slots()))

        def train(params):
            stats = optim.train_epoch(batch, params, optim.OptimizerState(), run, 0)
            return stats.mean_loss, dict(grads)

        loss, got = train(params)
        per_step_backward.patch(monkeypatch)
        ref_loss, ref = train(run.setup(manifest)[1])
        assert loss == ref_loss
        assert got.keys() == ref.keys()
        for name in ref:
            err = np.max(np.abs(got[name] - ref[name]))
            assert err <= 1e-12 * np.max(np.abs(ref[name])), (name, err)


class TestTrainConfigSetup:
    @pytest.mark.parametrize("seed", [42, 7])
    def test_matches_the_benchmark_copy(self, seed, tmp_path):
        """``bench/workloads.py``'s ``train_recipe`` builds the criterion-4 run itself;
        the two agree bit for bit."""
        if BENCH not in sys.path:
            sys.path.insert(0, BENCH)
        workloads = importlib.import_module("workloads")
        manifest_path = workloads.train_data(seed, str(tmp_path))
        bench = workloads.train_recipe(seed, manifest_path)
        run = optim.TrainConfig(seed=seed, batch_size=4, epochs=5)

        def bits(array):
            return array.dtype, array.shape, array.tobytes()

        def summary(vocabulary, params, examples):
            return (vocabulary.words, vocabulary.min_count, asdict(params.config),
                    [(s.name, bits(s.value.data)) for s in params.store.slots()],
                    [(e.image_id, bits(e.raw), bits(e.sal.s), e.token_ids, e.truncated)
                     for e in examples])

        assert summary(*run.setup(data_io.load_manifest(manifest_path))) == summary(
            bench.vocabulary, dec.init_params(bench.model_config, seed), bench.examples)

    def test_vocabulary_from_the_train_split_only(self, tmp_path):
        """A word that the test split alone holds ``min_count`` times is left out."""
        data_io.gen_synthetic(data_io.SyntheticSpec(
            n_images=6, grid_rows=2, grid_cols=2, feature_dim=5,
            salient_words=["cat", "dog"], context_words=["field", "lake"],
            seed=11, split_counts={"train": 4, "test": 2},
        ), str(tmp_path / "data"))
        path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["entries"]:
            if entry["split"] == "test":  # two images, so "zebra" twice
                entry["captions"].append("a zebra")
        path.write_text(json.dumps(manifest))
        manifest = data_io.load_manifest(str(path))
        assert "zebra" in build_vocab([c for e in manifest.entries for c in e.captions], 2).words
        run = optim.TrainConfig(min_count=2, hidden_size=8, embed_size=6, feature_size=6)
        vocabulary, params, _ = run.setup(manifest)
        assert "zebra" not in vocabulary.words
        assert params.config.vocab_size == len(vocabulary)


class TestExamples:
    def test_truncation_flagged(self):
        vocabulary = build_vocab(["a b c d e"], min_count=1)
        ex = optim.make_example("i", np.zeros((1, 1)), SaliencyGrid(np.array([0.5])),
                                "a b c d e", vocabulary, max_caption_len=3)
        assert ex.truncated
        assert len(ex.token_ids) == 5  # BOS + 3 words + EOS
        assert ex.token_ids[-1] == EOS_ID

    def test_truncation_boundary(self):
        """max_caption_len words are kept whole; one more is cut."""
        vocabulary = build_vocab(["a b c d"], min_count=1)
        for caption, truncated in (("a b c", False), ("a b c d", True)):
            ex = optim.make_example("i", np.zeros((1, 1)), SaliencyGrid(np.array([0.5])),
                                    caption, vocabulary, max_caption_len=3)
            assert ex.truncated == truncated, caption
            assert len(ex.token_ids) == 5

    def test_no_truncation_within_limit(self):
        vocabulary = build_vocab(["a b"], min_count=1)
        ex = optim.make_example("i", np.zeros((1, 1)), SaliencyGrid(np.array([0.5])),
                                "a b", vocabulary, max_caption_len=10)
        assert not ex.truncated

    @pytest.mark.parametrize("reserved", ["<pad>", "<bos>", "<eos>"])
    def test_reserved_word_scored_as_unk(self, reserved):
        """A caption word spelling a reserved token neither ends nor splits the rollout."""
        config = tiny_config()
        params = dec.init_params(config, rng_seed=2)
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(config.num_locations, config.raw_feature_size))
        sal = SaliencyGrid(rng.uniform(size=config.num_locations))
        vocabulary = build_vocab(["a cat sat"], min_count=1)
        ex = optim.make_example("i", raw, sal, "a %s cat sat" % reserved, vocabulary, 20)
        probs, targets, _ = optim.forward_caption(params, raw, sal, ex.token_ids)
        a, cat, sat = (vocabulary.word_id(w) for w in ("a", "cat", "sat"))
        assert targets == [a, UNK_ID, cat, sat, EOS_ID]
        assert len(probs) == 5


class TestPadInvariance:
    def test_appending_pads_leaves_loss_unchanged(self):
        config = tiny_config()
        params = dec.init_params(config, rng_seed=5)
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(config.num_locations, config.raw_feature_size))
        sal = SaliencyGrid(rng.uniform(size=config.num_locations))
        ids = [BOS_ID, 4, 5, EOS_ID]
        base = optim.caption_loss(params, raw, sal, ids).item()
        padded = optim.caption_loss(params, raw, sal, ids + [PAD_ID] * 3).item()
        assert abs(base - padded) < 1e-12


class TestGradCheck:
    def test_vacuous_empty_slots(self):
        report = optim.finite_difference_check(lambda: 0.0, [], tolerance=1e-4, analytic={})
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_hand_worked_relative_error(self):
        """Loss sum(w^2) / 2 has gradient w; given 3 w, each entry's error is
        |3 w - w| / |3 w| = 2/3."""
        slot = ParamStore([("w", np.array([1.0, -2.0, 0.5]))])["w"]
        w = slot.value.data

        def loss_fn():
            return 0.5 * float(np.sum(w * w))

        report = optim.finite_difference_check(loss_fn, [slot], tolerance=1e-4,
                                               analytic={"w": 3.0 * w})
        assert abs(report.max_rel_err - 2.0 / 3.0) < 1e-9
        assert [e.name for e in report.entries] == ["w"]
        assert not report.passed

    @pytest.mark.parametrize("seed", [0, 25, 144])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_case_matches_the_benchmark_copy(self, variant, seed):
        """``bench/workloads.py`` draws the same case itself; the two agree bit for bit."""
        if BENCH not in sys.path:
            sys.path.insert(0, BENCH)
        bench = importlib.import_module("workloads").GradCheck._case(variant, seed)
        config = dec.ModelConfig(variant=variant, **optim.GRAD_CHECK_SIZES)
        params, raw, sal, token_ids = optim.grad_check_case(config, seed)

        def bits(array):
            return array.dtype, array.shape, array.tobytes()

        assert ([(s.name, bits(s.value.data)) for s in params.store.slots()]
                == [(s.name, bits(s.value.data)) for s in bench.params.store.slots()])
        assert bits(raw) == bits(bench.raw)
        assert bits(sal.s) == bits(bench.sal.s)
        assert token_ids == bench.token_ids

    @pytest.mark.parametrize("variant", ["soft", "saliency_context"])
    def test_tiny_model_passes(self, variant):
        report = optim.grad_check(tiny_config(variant=variant), tolerance=1e-4, seed=0)
        assert report.passed, "max_rel_err %g" % report.max_rel_err
        assert report.entries
