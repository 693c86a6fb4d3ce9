"""Greedy caption generation and the per-timestep attention-path trace.

Decoding starts from BOS and feeds back the argmax word of each step
until EOS or the step cap.  For the two-path variants the trace records,
per emitted word, the spatial means of the salient and contextual path
scores together with the combined attention distribution.
"""

from dataclasses import dataclass

import numpy as np

from . import data_io
from . import decoder as dec
from . import numerics as nm
from .attention import TWO_PATH_VARIANTS
from .vocab import BOS_ID, EOS_ID, PAD_ID


class UnsupportedVariantError(ValueError):
    """The requested operation needs a two-path attention variant."""


@dataclass
class DecodeResult:
    ids: list  # caption body: no BOS/EOS/PAD
    truncated: bool


@dataclass
class TraceStep:
    t: int
    token_id: int
    mean_e_sal: float
    mean_e_ctx: float
    alpha: np.ndarray


def _greedy_steps(params, raw, sal, max_len):
    """Yield (emitted id, attention output) per step, through EOS or max_len steps."""
    data_io.at_least("max_len", max_len, 1)
    grid = dec.project_features(nm.Tensor(raw), params)
    state = dec.LstmState.initial(params.config.hidden_size)
    emitted = BOS_ID
    for _ in range(max_len):
        out, state, probs = dec.step(params, grid, sal, state, emitted)
        emitted = int(np.argmax(probs.data))  # ties resolve to the lowest id
        yield emitted, out
        if emitted == EOS_ID:
            return


def _decode_result(emitted):
    """Caption body of the emitted ids; truncated unless the last one is EOS."""
    body = [i for i in emitted if i not in (BOS_ID, EOS_ID, PAD_ID)]
    return DecodeResult(ids=body, truncated=emitted[-1] != EOS_ID)


@nm.collector_paused
def greedy_decode(raw, sal, params, max_len=20):
    """Most-probable-word decoding; returns the caption body and a cap flag."""
    return _decode_result([emitted for emitted, _ in _greedy_steps(params, raw, sal, max_len)])


@nm.collector_paused
def trace_attention(raw, sal, params, max_len=20):
    """Greedy decode plus one TraceStep per emitted word (two-path variants)."""
    if params.config.variant not in TWO_PATH_VARIANTS:
        raise UnsupportedVariantError(
            "attention tracing needs a two-path variant, not %r" % params.config.variant
        )
    steps = list(_greedy_steps(params, raw, sal, max_len))
    trace = [
        TraceStep(
            t=t,
            token_id=emitted,
            mean_e_sal=float(out.e_sal.data.mean()),
            mean_e_ctx=float(out.e_ctx.data.mean()),
            alpha=out.alpha.data.copy(),
        )
        for t, (emitted, out) in enumerate(steps, start=1)
    ]
    return _decode_result([emitted for emitted, _ in steps]), trace


def write_trace_csv(trace, vocabulary, path):
    data_io.write_csv(["t", "word", "mean_e_sal", "mean_e_ctx"], [
        [[s.t, vocabulary.word(s.token_id), "%.12g" % s.mean_e_sal, "%.12g" % s.mean_e_ctx]
         for s in trace]
    ], path)


def write_trace_alphas(trace, path):
    """Dump the per-step attention distributions as one T x L tensor file."""
    if not trace:
        raise ValueError("cannot export an empty trace")
    data_io.write_tensor(nm.Tensor(np.stack([step.alpha for step in trace])), path)
