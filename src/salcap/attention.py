"""Attention over a spatial feature grid, conditioned on a saliency grid.

Five formulations share one entry point, ``attend``:

- ``soft``                  one scoring path over all locations
- ``saliency_pooling``      no attention; features pooled by saliency weight
- ``attention_on_saliency`` single-path scores multiplied by saliency
- ``shared_weights``        two paths sharing projection matrices, own v_e
- ``saliency_context``      two fully independent paths blended by saliency

A scoring path computes e_i = v_e . tanh(W_ae a_i + W_he h_prev) per
location; softmax over locations gives the mixing weights for the
context vector v_hat = sum_i alpha_i a_i.
"""

import numpy as np

from . import numerics as nm
from .numerics import ShapeError, Tensor

VARIANTS = (
    "soft",
    "saliency_pooling",
    "attention_on_saliency",
    "shared_weights",
    "saliency_context",
)

TWO_PATH_VARIANTS = ("shared_weights", "saliency_context")


class FeatureGrid:
    """L spatial locations, each a D-dimensional feature vector (L x D)."""

    def __init__(self, a):
        if a.data.ndim != 2 or a.data.shape[0] < 1 or a.data.shape[1] < 1:
            raise ShapeError("feature grid must be L x D, got dims %r" % (a.dims,))
        self.a = a

    @property
    def num_locations(self):
        return self.a.data.shape[0]


class SaliencyGrid:
    """Per-location saliency s_i in [0,1]; context weights are z_i = 1 - s_i."""

    def __init__(self, s):
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 1 or s.size < 1:
            raise ShapeError("saliency grid must be a vector, got shape %r" % (list(s.shape),))
        outside = ~((s >= 0.0) & (s <= 1.0))  # True for NaN too
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                "saliency values must lie in [0,1], got %r at index %d" % (float(s[i]), i)
            )
        self.s, self.z = s, 1.0 - s
        self.s_leaf, self.z_leaf = Tensor(s), Tensor(self.z)  # the tape's constants, made once

    def __len__(self):
        return self.s.size


class AttentionPathParams:
    """One scoring path: W_ae (D_att x D), W_he (D_att x H), v_e (D_att)."""

    def __init__(self, w_ae, w_he, v_e):
        self.w_ae, self.w_he, self.v_e = w_ae, w_he, v_e
        d_att = self.v_e.data.shape[0]
        if self.w_ae.data.ndim != 2 or self.w_he.data.ndim != 2 or self.v_e.data.ndim != 1:
            raise ShapeError("attention path parameters have wrong ranks")
        if self.w_ae.data.shape[0] != d_att or self.w_he.data.shape[0] != d_att:
            raise ShapeError(
                "attention path dims disagree: W_ae %r, W_he %r, v_e %r"
                % (self.w_ae.dims, self.w_he.dims, self.v_e.dims)
            )


class AttentionParams:
    """Per-variant parameter bundle.

    ``single`` is set for soft / attention_on_saliency; ``sal`` and
    ``ctx`` for the two-path variants.  For shared_weights, sal and ctx
    reference the same W_ae / W_he tensors and differ only in v_e.
    """

    def __init__(self, variant, single=None, sal=None, ctx=None):
        if variant not in VARIANTS:
            raise ValueError("unknown attention variant %r" % (variant,))
        self.variant = variant
        self.single = single
        self.sal = sal
        self.ctx = ctx


class AttentionOutput:
    """Scores, per-path scores (two-path variants), mixing weights, context vector."""

    def __init__(self, e, alpha, v_hat, e_sal=None, e_ctx=None):
        self.e = e
        self.alpha = alpha
        self.v_hat = v_hat
        self.e_sal = e_sal
        self.e_ctx = e_ctx


def score_path(grid, h_prev, path):
    """Pre-softmax scores e_i = v_e . tanh(W_ae a_i + W_he h_prev), all locations."""
    if h_prev.data.ndim != 1 or h_prev.data.shape[0] != path.w_he.data.shape[1]:
        raise ShapeError(
            "hidden state dims %r do not match W_he %r" % (h_prev.dims, path.w_he.dims)
        )
    # (L x D) @ (D x D_att) + broadcast (D_att) row -> tanh -> @ v_e
    projected = nm.matmul(grid.a, nm.transpose(path.w_ae))
    shifted = nm.add(projected, nm.matmul(path.w_he, h_prev))
    return nm.matmul(nm.tanh(shifted), path.v_e)


def combine_saliency_context(e_sal, e_ctx, sal):
    """Blend path scores location-wise: e_i = s_i e_sal_i + (1 - s_i) e_ctx_i."""
    if e_sal.data.shape != e_ctx.data.shape or e_sal.data.shape != sal.s.shape:
        raise ShapeError(
            "combine: lengths disagree (e_sal %r, e_ctx %r, s %r)"
            % (e_sal.dims, e_ctx.dims, list(sal.s.shape))
        )
    return nm.add(nm.hadamard(e_sal, sal.s_leaf), nm.hadamard(e_ctx, sal.z_leaf))


def attend(grid, sal, h_prev, params):
    """One attention pass of the variant ``params`` was built for.

    Returns the scores, the mixing weights and the context vector.
    """
    variant = params.variant
    if len(sal) != grid.num_locations:
        raise ShapeError(
            "saliency length %d does not match grid L=%d" % (len(sal), grid.num_locations)
        )

    if variant == "saliency_pooling":
        # no attention: v_hat = sum_i s_i a_i, independent of the decoder state
        v_hat = nm.matmul(nm.transpose(grid.a), sal.s_leaf)
        return AttentionOutput(e=None, alpha=None, v_hat=v_hat)

    if variant == "soft":
        e = score_path(grid, h_prev, params.single)
        e_sal = e_ctx = None
    elif variant == "attention_on_saliency":
        e = nm.hadamard(score_path(grid, h_prev, params.single), sal.s_leaf)
        e_sal = e_ctx = None
    else:  # shared_weights, saliency_context
        e_sal = score_path(grid, h_prev, params.sal)
        e_ctx = score_path(grid, h_prev, params.ctx)
        e = combine_saliency_context(e_sal, e_ctx, sal)

    alpha = nm.softmax_vec(e)
    v_hat = nm.matmul(nm.transpose(grid.a), alpha)
    return AttentionOutput(e=e, alpha=alpha, v_hat=v_hat, e_sal=e_sal, e_ctx=e_ctx)
