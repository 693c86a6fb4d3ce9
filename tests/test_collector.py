"""The cyclic garbage collector is paused while a tape is built and dropped.

``numerics.collector_paused`` rests on the tape holding no reference
cycles: reference counting alone must free every tensor an entry point
records.  These tests check that premise on each paused entry point, and
that the collector comes back however the entry point exits.
"""

import gc

import numpy as np
import pytest

from salcap import decoder as dec
from salcap import inference, optim
from salcap import numerics as nm
from salcap.attention import SaliencyGrid
from salcap.vocab import BOS_ID, EOS_ID


def tiny_config():
    return dec.ModelConfig(
        variant="saliency_context", vocab_size=9, hidden_size=6, embed_size=4,
        feature_size=4, raw_feature_size=5, grid_rows=2, grid_cols=2,
    )


def tiny_inputs(config, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(config.num_locations, config.raw_feature_size))
    return raw, SaliencyGrid(rng.uniform(size=config.num_locations))


def tiny_examples(config, n=4):
    examples = []
    for i in range(n):
        raw, sal = tiny_inputs(config, seed=i)
        examples.append(optim.Example("img%d" % i, raw, sal, [BOS_ID, 4 + i, 5, EOS_ID]))
    return examples


def run_train_epoch():
    config = tiny_config()
    optim.train_epoch(
        tiny_examples(config), dec.init_params(config, rng_seed=0),
        optim.OptimizerState(), optim.TrainConfig(batch_size=2), 0,
    )


def run_finite_difference_check():
    config = tiny_config()
    params = dec.init_params(config, rng_seed=0)
    raw, sal = tiny_inputs(config)
    ids = [BOS_ID, 4, 5, EOS_ID]
    slot = params.store["proj.b"]
    optim.finite_difference_check(
        lambda: optim.caption_loss(params, raw, sal, ids).item(), [slot],
        tolerance=1e-4, analytic={slot.name: np.zeros(slot.grad.shape)},
    )


def run_greedy_decode():
    config = tiny_config()
    raw, sal = tiny_inputs(config)
    inference.greedy_decode(raw, sal, dec.init_params(config, rng_seed=0), max_len=5)


def run_trace_attention():
    config = tiny_config()
    raw, sal = tiny_inputs(config)
    inference.trace_attention(raw, sal, dec.init_params(config, rng_seed=0), max_len=5)


ENTRY_POINTS = {
    "train_epoch": run_train_epoch,
    "finite_difference_check": run_finite_difference_check,
    "greedy_decode": run_greedy_decode,
    "trace_attention": run_trace_attention,
}


@pytest.fixture
def collector_on():
    """Every test starts and ends with the collector enabled and no debug flags."""
    assert gc.isenabled()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    gc.enable()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_tape_leaves_no_cyclic_garbage(name, collector_on):
    # A closure that referred to its own output would make a cycle, which
    # only the collector frees: inside a paused call such tapes would pile up.
    gc.collect()
    gc.disable()
    ENTRY_POINTS[name]()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = [obj for obj in gc.garbage if isinstance(obj, nm.Tensor)]
    assert not leaked, "%d tensors in cyclic garbage after %s" % (len(leaked), name)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_collector_off_at_every_decoder_step(name, collector_on, monkeypatch):
    seen = []
    step = dec.step

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        return step(*args, **kwargs)

    monkeypatch.setattr(dec, "step", watched)
    ENTRY_POINTS[name]()
    assert seen and not any(seen)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_collector_enabled_after_return(name, collector_on):
    ENTRY_POINTS[name]()
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_collector_left_disabled_by_caller(name, collector_on):
    gc.disable()
    ENTRY_POINTS[name]()
    assert not gc.isenabled()


def test_collector_enabled_after_decode_raises(collector_on):
    config = tiny_config()
    raw, sal = tiny_inputs(config)
    with pytest.raises(ValueError, match="max_len"):
        inference.greedy_decode(raw, sal, dec.init_params(config, rng_seed=0), max_len=0)
    assert gc.isenabled()


def test_collector_enabled_after_non_finite_batch(collector_on):
    config = tiny_config()
    examples = tiny_examples(config)
    examples[1].raw = np.full_like(examples[1].raw, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        optim.train_epoch(
            examples, dec.init_params(config, rng_seed=0),
            optim.OptimizerState(), optim.TrainConfig(batch_size=2), 0,
        )
    assert gc.isenabled()


def test_collector_enabled_after_nested_grad_check(collector_on):
    # grad_check is not paused itself; it calls the paused finite_difference_check
    assert optim.grad_check(tiny_config(), tolerance=1e-4, seed=0).entries
    assert gc.isenabled()


def test_nested_pause_restores_only_at_the_outer_exit(collector_on):
    seen = []

    @nm.collector_paused
    def inner():
        seen.append(gc.isenabled())

    @nm.collector_paused
    def outer():
        inner()
        seen.append(gc.isenabled())
        return "done"

    assert outer() == "done"
    assert seen == [False, False]
    assert gc.isenabled()
