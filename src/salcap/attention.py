"""Attention over the L x D feature tensor a, conditioned on a saliency grid.

Five formulations share one entry point, ``attend``, and one formula.  A
scoring path computes e_i = v_e . tanh(W_ae a_i + W_he h_prev) per
location; the scores are the sum over the variant's paths of each path's
scores, weighted location-wise by 1, s_i or z_i = 1 - s_i:

    e = s * e_sal + (1 - s) * e_ctx   (shared_weights, saliency_context)
    e = s * e_single                  (attention_on_saliency)
    e = e_single                      (soft)

Softmax over locations gives the mixing weights for the context vector
v_hat = sum_i alpha_i a_i.  A variant with no path (saliency_pooling)
pools instead: v_hat = sum_i s_i a_i.  ``PATHS`` alone says which paths
each variant has, which weights they share and how saliency weights
them; the decoder's parameters follow from it.
"""

import numpy as np

from . import numerics as nm
from .numerics import ShapeError, Tensor

# each variant's scoring paths: AttentionParams field -> (prefix of the path's
# W_ae and W_he, prefix of its v_e, the SaliencyGrid leaf that weights its
# scores or None for weight 1); paths naming one weight prefix share those two
# matrices, which the decoder stores once, before the first v_e
PATHS = {
    "soft": {"single": ("att.single", "att.single", None)},
    "saliency_pooling": {},
    "attention_on_saliency": {"single": ("att.single", "att.single", "s_leaf")},
    "shared_weights": {"sal": ("att.shared", "att.sal", "s_leaf"),
                       "ctx": ("att.shared", "att.ctx", "z_leaf")},
    "saliency_context": {"sal": ("att.sal", "att.sal", "s_leaf"),
                         "ctx": ("att.ctx", "att.ctx", "z_leaf")},
}
VARIANTS = tuple(PATHS)
TWO_PATH_VARIANTS = tuple(v for v, paths in PATHS.items() if len(paths) == 2)


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


class AttentionParams:
    """Per-variant parameter bundle: the paths PATHS[variant] names, each in its field.

    ``variant`` is one of VARIANTS; ``ModelConfig`` validates it.
    """

    def __init__(self, variant, single=None, sal=None, ctx=None):
        self.variant = variant
        self.single = single
        self.sal = sal
        self.ctx = ctx


class AttentionOutput:
    """Scores, mixing weights, context vector; the sal and ctx paths' scores, or None."""

    def __init__(self, e, alpha, v_hat, e_sal=None, e_ctx=None):
        self.e = e
        self.alpha = alpha
        self.v_hat = v_hat
        self.e_sal = e_sal
        self.e_ctx = e_ctx


def score_path(a, h_prev, path):
    """Pre-softmax scores e_i = v_e . tanh(W_ae a_i + W_he h_prev), all L rows of a."""
    # (L x D) @ (D x D_att) + broadcast (D_att) row -> tanh -> @ v_e
    projected = nm.matmul(a, nm.transpose(path.w_ae))
    shifted = nm.add(projected, nm.matmul(path.w_he, h_prev))
    return nm.matmul(nm.tanh(shifted), path.v_e)


def attend(a, sal, h_prev, params):
    """One pass over the L x D features ``a`` of the attention variant ``params`` was built for.

    Returns the scores, the mixing weights and the context vector.
    """
    if len(sal) != a.data.shape[0]:
        raise ShapeError(
            "saliency length %d does not match grid L=%d" % (len(sal), a.data.shape[0])
        )
    paths = PATHS[params.variant]
    if not paths:  # no attention: v_hat = sum_i s_i a_i, independent of the decoder state
        return AttentionOutput(e=None, alpha=None, v_hat=nm.matmul(nm.transpose(a), sal.s_leaf))

    # every path's scores, then each weighted and summed, in PATHS order: the order fixes the bits
    scores = {field: score_path(a, h_prev, getattr(params, field)) for field in paths}
    e = None
    for field, (_, _, weight) in paths.items():
        term = scores[field] if weight is None else nm.hadamard(scores[field], getattr(sal, weight))
        e = term if e is None else nm.add(e, term)
    alpha = nm.softmax_vec(e)
    v_hat = nm.matmul(nm.transpose(a), alpha)
    return AttentionOutput(e=e, alpha=alpha, v_hat=v_hat,
                           e_sal=scores.get("sal"), e_ctx=scores.get("ctx"))
