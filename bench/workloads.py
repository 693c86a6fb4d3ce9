"""The benchmark's workloads: train, caption_eval and gradcheck.

Each workload is a closed loop in one process and one thread: it writes
its inputs from the seed, sets up from them, then repeats a round until
the time is spent, and starts an operation only when the previous one
has finished.  The
program receives only the generated inputs.  Outputs are recorded
during the rounds and checked after them, outside the timed region.

A round is one epoch (train), one pass over the caption split plus one
evaluation (caption_eval), or one pass over the sampled scalars of all
five attention variants (gradcheck).  Every round of a run does the
same work, so per-round counts repeat exactly.  ``state.ops`` collects
the milliseconds of each operation a round times on its own.
"""

import contextlib
import json
import math
import os
import statistics
import time
import traceback
import types
from dataclasses import dataclass, field

import numpy as np

import benchenv
import make_metrics_oracle as oracle
import spans
from salcap import data_io, decoder, inference, metrics, optim, vocab
from salcap import numerics as nm
from salcap.attention import VARIANTS, SaliencyGrid
from salcap.vocab import BOS_ID, EOS_ID

DEFAULT_SEED = 42
TRAIN_CAPTIONS = "train_captions.json"

# acceptance criterion 4: the desk-scale overfit recipe
TRAIN_IMAGES = 32
DESK = dict(hidden_size=64, embed_size=32, feature_size=32)
MIN_COUNT = 5
BATCH_SIZE = 4
# Each trial starts from the initial parameters, so every trial repeats
# the reference trajectory and every epoch of a run does the same work.
TRIAL_EPOCHS = 5
# Per-epoch losses may differ from the reference by reordered float64
# sums.  Training does not amplify such rounding: a 1e-14 relative change
# to every initial parameter moves the five epoch losses by under 1e-15.
LOSS_RTOL = 1e-8

CAPTION_IMAGES = 120  # p90 of one pass has 12 samples above it
MAX_LEN = 20
METRIC_ATOL = 1e-9

# acceptance criterion 1: the gradient-check model sizes and tolerance
GRAD_CHECK_SIZES = dict(
    vocab_size=12, hidden_size=16, embed_size=8, feature_size=8,
    raw_feature_size=10, grid_rows=2, grid_cols=3,
)
GRAD_TOLERANCE = 1e-4
FD_STEP = 1e-4  # optim.finite_difference_check's default step
SCALARS_PER_SLOT = 2


def _error(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


@dataclass
class Outcome:
    """Operations attempted, those that failed, and why."""

    attempted: int = 0
    failed_ops: dict = field(default_factory=dict)  # op id -> first reason

    def fail(self, op, reason):
        self.failed_ops.setdefault(op, reason)

    @property
    def failed(self):
        return len(self.failed_ops)


def region(tracer, name):
    return tracer.region(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass
class TrainRecipe:
    manifest: object
    vocabulary: object
    examples: list
    train_config: object
    model_config: object


def train_data(seed, data_dir):
    """Write the criterion-4 synthetic set for one seed; returns its manifest path."""
    data_io.gen_synthetic(data_io.default_synthetic_spec(n_images=TRAIN_IMAGES, seed=seed),
                          data_dir)
    return os.path.join(data_dir, "manifest.json")


def train_recipe(seed, manifest_path):
    """The criterion-4 data, vocabulary, examples and configs for one seed."""
    manifest = data_io.load_manifest(manifest_path)
    vocabulary = vocab.build_vocab([c for e in manifest.entries for c in e.captions], MIN_COUNT)
    train_config = optim.TrainConfig(epochs=TRIAL_EPOCHS, seed=seed, batch_size=BATCH_SIZE)
    model_config = decoder.ModelConfig(
        variant="saliency_context",
        vocab_size=len(vocabulary),
        raw_feature_size=manifest.feature_dim,
        grid_rows=manifest.grid_rows,
        grid_cols=manifest.grid_cols,
        **DESK,
    )
    examples = optim.build_examples(manifest, vocabulary, "train", train_config)
    return TrainRecipe(manifest, vocabulary, examples, train_config, model_config)


class Train:
    name = "train"
    unit = "tokens"
    op_name = "batches"
    counts_depend_on_seed = False  # every seed gives 66 examples and 600 target tokens

    # one epoch is one latency sample: an epoch's batches come in two
    # caption lengths, so the median batch sits on the edge between them
    latency_per_round = True

    def prepare(self, seed, work_dir):
        return train_data(seed, work_dir)

    def setup(self, seed, manifest_path, reference):
        state = types.SimpleNamespace(
            seed=seed, reference=reference, recipe=train_recipe(seed, manifest_path),
            params=None, opt_state=None, epochs=[],
            ops=[],  # stays empty: latency is per epoch
        )
        n = len(state.recipe.examples)
        state.batches_per_epoch = (n + BATCH_SIZE - 1) // BATCH_SIZE
        return state

    def run_round(self, state, outcome, tracer):
        recipe = state.recipe
        epoch = len(state.epochs) % TRIAL_EPOCHS
        if epoch == 0:
            state.params = decoder.init_params(recipe.model_config, rng_seed=state.seed)
            state.opt_state = optim.OptimizerState()
        losses = []
        batches = [0]

        def probe_step(step):
            def optimizer_step(*args, **kwargs):
                result = step(*args, **kwargs)
                batches[0] += 1
                if tracer is not None:
                    tracer.next_group()
                return result

            return optimizer_step

        def probe_backward(backward):
            def record_loss(loss, *args, **kwargs):
                losses.append(loss.item())
                return backward(loss, *args, **kwargs)

            return record_loss

        round_index = len(state.epochs)
        outcome.attempted += state.batches_per_epoch
        stats = None
        with spans.patched(optim, "optimizer_step", probe_step), \
                spans.patched(nm, "backward", probe_backward):
            try:
                stats = optim.train_epoch(
                    recipe.examples, state.params, state.opt_state, recipe.train_config, epoch
                )
            except Exception as exc:  # a failing batch must not end the run
                for b in range(batches[0], state.batches_per_epoch):
                    outcome.fail((round_index, b), "train_epoch raised: " + _error(exc))
        state.epochs.append(types.SimpleNamespace(
            epoch=epoch, losses=losses,
            mean_loss=stats.mean_loss if stats else float("nan"),
            tokens=stats.num_tokens if stats else 0,
        ))

    def check(self, state, outcome):
        reference = state.reference["train_losses"] if state.seed == DEFAULT_SEED else None
        first_trial = {}
        for r, rec in enumerate(state.epochs):
            for b, loss in enumerate(rec.losses):
                if not math.isfinite(loss):
                    outcome.fail((r, b), "batch loss %r is not finite" % loss)
            if len(rec.losses) != state.batches_per_epoch:
                continue  # the failed batches are already counted
            expected = first_trial.setdefault(rec.epoch, rec.mean_loss)
            why = None
            if not math.isfinite(rec.mean_loss):
                why = "epoch loss %r is not finite" % rec.mean_loss
            elif not math.isclose(rec.mean_loss, expected, rel_tol=LOSS_RTOL, abs_tol=0.0):
                why = "epoch %d loss %.17g differs from the run's first trial %.17g" % (
                    rec.epoch, rec.mean_loss, expected)
            elif reference is not None and not math.isclose(
                    rec.mean_loss, reference[rec.epoch], rel_tol=LOSS_RTOL, abs_tol=0.0):
                why = "epoch %d loss %.17g differs from the reference %.17g" % (
                    rec.epoch, rec.mean_loss, reference[rec.epoch])
            if why:
                for b in range(state.batches_per_epoch):
                    outcome.fail((r, b), why)

    def work_per_round(self, state):
        return max(rec.tokens for rec in state.epochs)

    def named(self, state, round_s):
        n = len(round_s)
        p50 = statistics.median(round_s)
        return [
            ("train_tok_per_s", self.work_per_round(state) / p50, "1/s", n, "epochs"),
            ("epoch_s_p50", p50, "s", n, "epochs"),
        ]

    def traced_extras(self, state):
        return {}


# ---------------------------------------------------------------------------
# caption_eval
# ---------------------------------------------------------------------------

def caption_split(seed, config, out_dir):
    """Write a test split of new images from the checkpoint's training data.

    Returns the manifest path.
    Images are built as data_io.gen_synthetic builds them, except that the
    word signatures come from the checkpoint's data seed and only the
    images from ``seed``.  gen_synthetic draws both from one seed, and a
    model cannot read images whose signatures it has never seen, so its
    captions, and the decoding work, would change with the seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    rows, cols, dim = config["grid_rows"], config["grid_cols"], config["raw_feature_size"]
    salient, context = data_io.DEFAULT_SALIENT_WORDS, data_io.DEFAULT_CONTEXT_WORDS
    os.makedirs(os.path.join(out_dir, "features"))
    os.makedirs(os.path.join(out_dir, "saliency"))
    entries = []
    for i in range(CAPTION_IMAGES):
        si, ci, corner = (int(x) for x in rng.integers(0, (len(salient), len(context), 4)))
        sal_block = data_io._corner_block(rows, cols, corner)
        features = rng.normal(0.0, 1.0, (rows * cols, dim))
        features[sal_block] += data_io._word_signature(DEFAULT_SEED, 0, si, dim)
        features[data_io._corner_block(rows, cols, 3 - corner)] += data_io._word_signature(
            DEFAULT_SEED, 1, ci, dim)
        saliency = np.full(rows * cols, data_io.BACKGROUND_INTENSITY, dtype=np.uint8)
        saliency[sal_block] = data_io.SALIENT_INTENSITY
        image_id = "test_%03d" % i
        fpath = os.path.join("features", image_id + ".tnsr")
        spath = os.path.join("saliency", image_id + ".pgm")
        data_io.write_tensor(nm.Tensor(features), os.path.join(out_dir, fpath))
        data_io.write_pgm(saliency.reshape(rows, cols), os.path.join(out_dir, spath))
        entries.append({
            "id": image_id, "features": fpath, "saliency": spath, "split": "test",
            "captions": data_io.synthetic_captions(salient[si], context[ci], i),
        })
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"grid": {"rows": rows, "cols": cols}, "feature_dim": dim,
                   "entries": entries}, fh)
    return path


class CaptionEval:
    name = "caption_eval"
    unit = "images"
    op_name = "images"
    counts_depend_on_seed = True  # caption lengths depend on the images

    latency_per_round = False

    def prepare(self, seed, work_dir):
        # the checkpoint's config only: loading it is set-up's work
        with open(os.path.join(benchenv.CHECKPOINT_DIR, "config.json"), encoding="utf-8") as fh:
            return caption_split(seed, json.load(fh), work_dir)

    def setup(self, seed, manifest_path, reference):
        params, vocabulary = decoder.load_checkpoint(benchenv.CHECKPOINT_DIR)
        manifest = data_io.load_manifest(manifest_path)
        with open(os.path.join(benchenv.CHECKPOINT_DIR, TRAIN_CAPTIONS), encoding="utf-8") as fh:
            train_captions = json.load(fh)
        return types.SimpleNamespace(
            seed=seed, reference=reference, params=params, vocabulary=vocabulary,
            manifest=manifest, entries=manifest.split_entries("test"),
            train_captions=train_captions, passes=[], ops=[], evaluate_s=[],
        )

    def run_round(self, state, outcome, tracer):
        r = len(state.passes)
        captions = []
        truncated = 0
        outcome.attempted += len(state.entries) + 1
        for i, entry in enumerate(state.entries):
            if tracer is not None:
                tracer.next_group()
            t0 = time.perf_counter()
            try:
                raw, sal = data_io.load_entry(state.manifest, entry)
                result = inference.greedy_decode(raw, sal, state.params, max_len=MAX_LEN)
            except Exception as exc:  # a failing image must not end the run
                outcome.fail((r, i), "caption raised: " + _error(exc))
                captions.append(None)
                continue
            state.ops.append(1e3 * (time.perf_counter() - t0))
            captions.append(state.vocabulary.decode(result.ids))
            truncated += result.truncated
        if tracer is not None:
            tracer.next_group()
        t0 = time.perf_counter()
        report = None
        try:
            with region(tracer, "metrics.corpus_build"):
                corpus = metrics.CaptionCorpus.from_pairs([
                    (e.id, c, e.captions)
                    for e, c in zip(state.entries, captions) if c is not None
                ])
            report = metrics.evaluate_corpus(corpus)
            generated = [c for c in captions if c is not None]
            report.update(metrics.diversity_stats(generated))
            report["novelty_pct"] = metrics.novelty_pct(generated, state.train_captions)
        except Exception as exc:  # a failing evaluation must not end the run
            outcome.fail((r, "evaluate"), "evaluate raised: " + _error(exc))
        state.evaluate_s.append(time.perf_counter() - t0)
        state.passes.append(types.SimpleNamespace(
            captions=captions, report=report, truncated=truncated))

    def check(self, state, outcome):
        expected = None
        if state.seed == DEFAULT_SEED:
            expected = [state.reference["captions"][e.id] for e in state.entries]
        first = state.passes[0].captions
        oracle_reports = {}
        for r, p in enumerate(state.passes):
            for i, caption in enumerate(p.captions):
                if caption is None:
                    continue
                if caption != first[i]:
                    outcome.fail((r, i), "caption %r differs from the first pass %r"
                                 % (caption, first[i]))
                elif expected is not None and caption != expected[i]:
                    outcome.fail((r, i), "caption %r differs from the reference %r"
                                 % (caption, expected[i]))
            if p.report is None:
                continue
            key = tuple(p.captions)
            if key not in oracle_reports:
                oracle_reports[key] = self._oracle(state, p.captions)
            for name, want in oracle_reports[key].items():
                got = p.report.get(name)
                if got is None or abs(got - want) > METRIC_ATOL:
                    outcome.fail((r, "evaluate"), "%s = %r, oracle says %r" % (name, got, want))

    @staticmethod
    def _oracle(state, captions):
        """The metric values from the independent functions of make_metrics_oracle."""
        kept = [(e, c) for e, c in zip(state.entries, captions) if c is not None]
        pairs = [(oracle.toks(c), [oracle.toks(ref) for ref in e.captions]) for e, c in kept]
        generated = [c for _, c in kept]
        b1, b2, b3, b4 = oracle.oracle_bleu(pairs)
        seen = {" ".join(oracle.toks(c)) for c in state.train_captions}
        novel = sum(1 for c in generated if " ".join(oracle.toks(c)) not in seen)
        return {
            "bleu_1": b1, "bleu_2": b2, "bleu_3": b3, "bleu_4": b4,
            "rouge_l": oracle.oracle_rouge(pairs),
            "cider": oracle.oracle_cider(pairs),
            "novelty_pct": 100.0 * novel / len(generated),
            **oracle.oracle_diversity(generated),
        }

    def work_per_round(self, state):
        return len(state.entries)

    def named(self, state, round_s):
        ops = state.ops
        evaluate = state.evaluate_s
        return [
            ("caption_ms_p50", statistics.median(ops), "ms", len(ops), "images"),
            ("caption_ms_p90", p90(ops), "ms", len(ops), "images"),
            ("evaluate_s", statistics.median(evaluate), "s", len(evaluate), "evaluate calls"),
        ]

    def traced_extras(self, state):
        last = state.passes[-1]
        return {"inference.truncated_frac": last.truncated / len(last.captions)}


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

class GradCheck:
    name = "gradcheck"
    unit = "fd evals"
    op_name = "checked scalars"
    counts_depend_on_seed = False  # every seed checks 4-word captions and the same sample sizes

    latency_per_round = False

    def prepare(self, seed, work_dir):
        return None  # the models and inputs are made in memory

    def setup(self, seed, inputs, reference):
        cases = [self._case(variant, seed) for variant in VARIANTS]
        return types.SimpleNamespace(
            seed=seed, reference=reference, cases=cases, rounds=0, ops=[], errors=[],
            variant_s={v: [] for v in VARIANTS},
        )

    @staticmethod
    def _case(variant, seed):
        """optim.grad_check's model and inputs, plus a seed-chosen scalar sample."""
        config = decoder.ModelConfig(variant=variant, **GRAD_CHECK_SIZES)
        params = decoder.init_params(config, rng_seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        raw = rng.normal(0.0, 1.0, (config.num_locations, config.raw_feature_size))
        sal = SaliencyGrid(rng.uniform(0.0, 1.0, config.num_locations))
        words = [int(w) for w in rng.integers(4, config.vocab_size, 4)]
        token_ids = [BOS_ID] + words + [EOS_ID]
        for slot in params.store.slots():
            slot.value.data += rng.normal(0.0, 0.25, slot.value.data.shape)
        loss = optim.caption_loss(params, raw, sal, token_ids).item()
        # A central difference carries a rounding error of about eps*|loss|/h,
        # so where both gradients are below this size the relative error
        # measures the noise, not the analytic gradient; check() skips such
        # scalars.  A dropped gradient whose difference is above it fails.
        floor = 10 * np.finfo(np.float64).eps * abs(loss) / (FD_STEP * GRAD_TOLERANCE)
        # Nor does a central difference hold across a kink: a projection
        # scalar whose step of 2h can flip the sign of a ReLU input
        # (decoder.project_features is relu(raw proj.W^T + proj.b)) is not
        # sampled.  This depends only on the inputs, not on the gradients.
        relu_in = np.abs(raw @ params.proj_w.data.T + params.proj_b.data)  # L x D
        smooth = {
            "proj.b": relu_in.min(axis=0) > 2 * FD_STEP,
            "proj.W": (relu_in[:, :, None] > 2 * FD_STEP * np.abs(raw)[:, None, :]).all(axis=0),
        }
        pick = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        sample = []
        for slot in params.store.slots():
            eligible = np.arange(slot.value.data.size)
            if slot.name in smooth:
                eligible = np.flatnonzero(smooth[slot.name].reshape(-1))
            for k in sorted(pick.choice(eligible, SCALARS_PER_SLOT, replace=False)):
                sample.append((slot, int(k)))
        return types.SimpleNamespace(
            variant=variant, params=params, raw=raw, sal=sal, token_ids=token_ids, sample=sample,
            floor=floor,
        )

    def run_round(self, state, outcome, tracer):
        r = state.rounds
        state.rounds += 1
        for case in state.cases:
            started = time.perf_counter()
            self._check_case(case, r, state, outcome, tracer)
            state.variant_s[case.variant].append(time.perf_counter() - started)

    def _check_case(self, case, r, state, outcome, tracer):
        params = case.params

        values = []  # the loss evaluations of the scalar being checked

        def loss_fn():
            if tracer is not None:
                tracer.next_group()
            values.append(optim.caption_loss(params, case.raw, case.sal, case.token_ids).item())
            return values[-1]

        outcome.attempted += len(case.sample)
        try:
            if tracer is not None:
                tracer.next_group()
            params.store.zero_grads()
            nm.backward(optim.caption_loss(params, case.raw, case.sal, case.token_ids))
            analytic = {slot.name: slot.grad.reshape(-1).copy() for slot in params.store.slots()}
            params.store.zero_grads()
        except Exception as exc:  # a failing variant must not end the run
            for j in range(len(case.sample)):
                outcome.fail((r, case.variant, j), "analytic gradient raised: " + _error(exc))
            return
        for j, (slot, k) in enumerate(case.sample):
            flat = slot.value.data.reshape(-1)
            name = "%s[%d]" % (slot.name, k)
            one = types.SimpleNamespace(name=name, value=types.SimpleNamespace(data=flat[k:k + 1]))
            values.clear()
            t0 = time.perf_counter()
            try:
                report = optim.finite_difference_check(
                    loss_fn, [one], GRAD_TOLERANCE, h=FD_STEP,
                    analytic={name: analytic[slot.name][k:k + 1]},
                )
            except Exception as exc:  # a failing scalar must not end the run
                outcome.fail((r, case.variant, j), "check of %s raised: %s" % (name, _error(exc)))
                continue
            state.ops.append(1e3 * (time.perf_counter() - t0))
            numeric = (values[0] - values[1]) / (2 * FD_STEP)
            state.errors.append(((r, case.variant, j), name, report.max_rel_err,
                                 max(abs(analytic[slot.name][k]), abs(numeric)) < case.floor))

    def check(self, state, outcome):
        state.ill_conditioned = 0
        for op, name, err, ill_conditioned in state.errors:
            if ill_conditioned:
                state.ill_conditioned += 1
            elif not err < GRAD_TOLERANCE:
                outcome.fail(op, "%s %s: relative error %.3e >= %.0e"
                             % (op[1], name, err, GRAD_TOLERANCE))

    def work_per_round(self, state):
        return sum(2 * len(case.sample) for case in state.cases)

    def named(self, state, round_s):
        rows = []
        for case in state.cases:
            evals = 2 * len(case.sample)
            times = state.variant_s[case.variant]
            rows.append(("fd_evals_per_s." + case.variant, evals / statistics.median(times),
                         "1/s", evals * len(times), "fd evals"))
        rows.append(("fd_ill_conditioned", state.ill_conditioned, "count", len(state.errors),
                     "checked scalars, both gradients under the rounding floor"))
        return rows

    def traced_extras(self, state):
        return {}


WORKLOADS = {w.name: w for w in (Train(), CaptionEval(), GradCheck())}


def p90(values):
    """The 90th percentile by linear interpolation between order statistics."""
    return float(np.percentile(values, 90))
