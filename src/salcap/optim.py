"""Training objective, Adam/Nadam optimizer, epoch loop, gradient checking.

The objective is the mean negative log-likelihood of the target words
under teacher forcing: at step t the ground-truth word y_{t-1} is fed as
input and the model is scored on y_t.  PAD targets are masked out and
the sum is normalized by the number of scored tokens.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import data_io
from . import decoder as dec
from . import numerics as nm
from .attention import SaliencyGrid
from .vocab import BOS_ID, EOS_ID, PAD_ID

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# acceptance criterion 1: model sizes small enough to perturb every scalar
GRAD_CHECK_SIZES = dict(vocab_size=12, hidden_size=16, embed_size=8, feature_size=8,
                        raw_feature_size=10, grid_rows=2, grid_cols=3)


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 8  # the published setting is 64; 8 suits desk-scale runs
    epochs: int = 1
    seed: int = 0
    optimizer: str = "nadam"
    grad_clip_norm: float = 0.0  # 0 disables clipping
    max_caption_len: int = 20
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        for name, least in (("learning_rate", 0), ("batch_size", 1), ("epochs", 0),
                            ("seed", 0), ("grad_clip_norm", 0), ("max_caption_len", 1),
                            ("checkpoint_every", 0)):
            data_io.at_least(name, getattr(self, name), least)
        if self.optimizer not in ("nadam", "adam"):
            raise ValueError("optimizer must be 'nadam' or 'adam', got %r" % self.optimizer)


class OptimizerState:
    """The first and second moments, one arena-sized array each from the
    first step on, and the step counter."""

    def __init__(self):
        self.m = None
        self.v = None
        self.t = 0


def sequence_nll(step_probs, targets):
    """Scalar mean NLL over non-pad targets; a recorded graph node.

    ``step_probs[t]`` is the vocabulary distribution scoring target
    ``targets[t]``.  PAD targets are skipped and do not count toward the
    normalizer.
    """
    if len(step_probs) != len(targets):
        raise ValueError(
            "got %d distributions for %d targets" % (len(step_probs), len(targets))
        )
    total = None
    count = 0
    for probs, target in zip(step_probs, targets):
        if target == PAD_ID:
            continue
        term = nm.log(nm.pick(probs, target))
        total = term if total is None else nm.add(total, term)
        count += 1
    if count == 0:
        raise ValueError("sequence_nll needs at least one non-pad target")
    return nm.hadamard(total, nm.Tensor(-1.0 / count))


def forward_caption(params, raw, sal, token_ids):
    """Teacher-forced rollout; returns per-step distributions, targets and
    attention outputs.

    ``token_ids`` is BOS + words + EOS (+ optional right PADs, which end
    the rollout).  Attention at step t uses the state from step t-1.
    """
    a = dec.project_features(nm.Tensor(raw), params)
    state = dec.LstmState.initial(params.config.hidden_size)
    probs, targets, attended = [], [], []
    for t in range(1, len(token_ids)):
        target = token_ids[t]
        if target == PAD_ID:
            break
        out, state, step_probs = dec.step(params, a, sal, state, token_ids[t - 1])
        probs.append(step_probs)
        targets.append(target)
        attended.append(out)
    return probs, targets, attended


def caption_loss(params, raw, sal, token_ids):
    probs, targets, _ = forward_caption(params, raw, sal, token_ids)
    return sequence_nll(probs, targets)


def optimizer_step(store, opt_state, config):
    """One Adam or Nadam update of a ParamStore; every gradient is zero after.

    The update runs once over the whole arena, in place, in one scratch
    buffer and the gradient arena.  It applies the operations of the
    textbook formula in the same order, so its bits equal the formula's
    applied to each parameter alone.  The updated values are tested for
    NaN/Inf, since the tape's checked mode does not test a parameter again
    once it is built (see ``numerics``).
    """
    g = store.grads
    if not np.any(g):
        warnings.warn("optimizer step with all-zero gradients: skipping")
        return

    if config.grad_clip_norm > 0:  # per-slot sums, in slot order, as the formula adds them
        total = np.sqrt(sum(float(np.sum(slot.grad * slot.grad)) for slot in store.slots()))
        clip_scale = min(1.0, config.grad_clip_norm / total)
        g *= clip_scale

    if opt_state.m is None:
        opt_state.m, opt_state.v = np.zeros(g.size), np.zeros(g.size)
    m, v = opt_state.m, opt_state.v
    opt_state.t += 1
    t = opt_state.t
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    tmp = np.empty(g.size)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
    v *= ADAM_BETA2
    np.multiply(g, g, out=tmp)
    v += np.multiply(1.0 - ADAM_BETA2, tmp, out=tmp)
    np.divide(m, bc1, out=tmp)  # m_hat
    if config.optimizer == "nadam":  # b1 m_hat + (1 - b1) g / bc1
        tmp *= ADAM_BETA1
        g *= 1.0 - ADAM_BETA1
        g /= bc1
        tmp += g
    np.divide(v, bc2, out=g)  # v_hat; g is not read again
    np.sqrt(g, out=g)
    g += ADAM_EPS
    tmp /= g
    tmp *= config.learning_rate
    store.values -= tmp
    if not np.isfinite(store.values).all():
        bad = next(s for s in store.slots() if not np.isfinite(s.value.data).all())
        raise ValueError("non-finite value in %r after optimizer step %d" % (bad.name, t))
    store.zero_grads()


# ---------------------------------------------------------------------------
# dataset preparation and the epoch loop
# ---------------------------------------------------------------------------

@dataclass
class Example:
    image_id: str
    raw: np.ndarray
    sal: SaliencyGrid
    token_ids: list
    truncated: bool = False


def make_example(image_id, raw, sal, caption, vocabulary, max_caption_len):
    ids = vocabulary.encode(caption)
    words = ids[1:-1]
    truncated = len(words) > max_caption_len
    if truncated:
        words = words[:max_caption_len]
    return Example(image_id, raw, sal, [BOS_ID] + words + [EOS_ID], truncated)


def build_examples(manifest, vocabulary, split, config):
    """One training example per (image, caption) pair of the split."""
    examples = []
    for entry in manifest.split_entries(split):
        raw, sal = data_io.load_entry(manifest, entry)
        for caption in entry.captions:
            examples.append(
                make_example(entry.id, raw, sal, caption, vocabulary, config.max_caption_len)
            )
    return examples


def _batches(examples, config, epoch_index):
    """Length-bucketed batches in a seed-determined order."""
    order = sorted(range(len(examples)), key=lambda i: (len(examples[i].token_ids), i))
    chunks = [order[i:i + config.batch_size] for i in range(0, len(order), config.batch_size)]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch_index]))
    rng.shuffle(chunks)
    return chunks


@dataclass
class EpochStats:
    mean_loss: float
    tokens_per_sec: float
    num_tokens: int
    num_truncated: int


def _train_batch(batch, params, opt_state, config):
    """(mean loss, token count) of one batch's forward, backward and step; its tape dies on return."""
    probs, targets = [], []
    for ex in batch:
        ex_probs, ex_targets, _ = forward_caption(params, ex.raw, ex.sal, ex.token_ids)
        probs += ex_probs
        targets += ex_targets
    loss = sequence_nll(probs, targets)
    nm.backward(loss)
    optimizer_step(params.store, opt_state, config)
    return loss.item(), len(targets)


@nm.collector_paused
def train_epoch(examples, params, opt_state, config, epoch_index=0):
    """One pass over the examples: forward, backward, optimizer step per batch."""
    if not examples:
        raise ValueError("train_epoch needs a non-empty dataset")
    started = time.perf_counter()
    epoch_nll = 0.0
    epoch_tokens = 0
    params.store.zero_grads()  # once: each optimizer_step leaves them at zero
    for batch in _batches(examples, config, epoch_index):
        loss, tokens = _train_batch([examples[i] for i in batch], params, opt_state, config)
        epoch_nll += loss * tokens
        epoch_tokens += tokens
    elapsed = max(time.perf_counter() - started, 1e-9)
    return EpochStats(
        mean_loss=epoch_nll / epoch_tokens,
        tokens_per_sec=epoch_tokens / elapsed,
        num_tokens=epoch_tokens,
        num_truncated=sum(1 for e in examples if e.truncated),
    )


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    max_rel_err: float
    tolerance: float
    entries: list = field(default_factory=list)

    @property
    def passed(self):
        return self.max_rel_err < self.tolerance


@nm.collector_paused
def finite_difference_check(loss_fn, slots, tolerance, analytic, h=1e-4):
    """Compare analytic slot gradients against central finite differences.

    ``loss_fn`` recomputes the scalar loss from current slot values.
    ``analytic`` maps slot name to its gradient array.  An empty slot
    list passes vacuously.
    """
    report = GradCheckReport(max_rel_err=0.0, tolerance=tolerance)
    for slot in slots:
        worst = 0.0
        flat = slot.value.data.reshape(-1)
        gflat = np.asarray(analytic[slot.name]).reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + h
            f_plus = loss_fn()
            flat[k] = saved - h
            f_minus = loss_fn()
            flat[k] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(gflat[k]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[k] - numeric) / denom)
        report.entries.append(GradCheckEntry(slot.name, worst))
        report.max_rel_err = max(report.max_rel_err, worst)
    return report


def grad_check_case(model_config, seed):
    """Criterion 1's kicked model and captioned image: ``(params, raw, sal, token_ids)``.

    The parameters are initialized from ``seed``; the features, saliency,
    4-word caption and kick are drawn in that order from ``[seed, 1]``.
    """
    params = dec.init_params(model_config, rng_seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    raw = rng.normal(0.0, 1.0, (model_config.num_locations, model_config.raw_feature_size))
    sal = SaliencyGrid(rng.uniform(0.0, 1.0, model_config.num_locations))
    words = [int(w) for w in rng.integers(4, model_config.vocab_size, 4)]
    # At the N(0, 0.01^2) init many gradients sit below the relative-error
    # floor, where central-difference rounding noise (~eps*|loss|/h)
    # dominates; a moderate random kick keeps the check well conditioned.
    for slot in params.store.slots():
        slot.value.data += rng.normal(0.0, 0.25, slot.value.data.shape)
    return params, raw, sal, [BOS_ID] + words + [EOS_ID]


def grad_check(model_config, tolerance=1e-4, seed=0):
    """Finite-difference check of every scalar parameter of ``grad_check_case``."""
    data_io.at_least("seed", seed, 0)
    data_io.at_least("tolerance", tolerance, 0)
    params, raw, sal, token_ids = grad_check_case(model_config, seed)

    def loss_fn():
        return caption_loss(params, raw, sal, token_ids).item()

    nm.backward(caption_loss(params, raw, sal, token_ids))  # fresh slots start at zero
    analytic = {slot.name: slot.grad.copy() for slot in params.store.slots()}
    return finite_difference_check(loss_fn, params.store.slots(), tolerance, analytic=analytic)
