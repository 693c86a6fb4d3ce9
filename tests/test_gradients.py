"""Finite-difference sweeps over the composite forward operations.

Each builder draws a random tiny configuration; 200 draws per operation
are checked against central differences (h = 1e-4) with the relative
error taken against max(|analytic|, |numeric|, 1e-8).
"""

import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from salcap import decoder as dec
from salcap import numerics as nm
from salcap import optim
from salcap.attention import (
    AttentionParams,
    AttentionPathParams,
    SaliencyGrid,
    attend,
    score_path,
)
from salcap.numerics import ParamStore, Tensor

H = 1e-4
CONFIGS = 200


def fd(loss_fn, x):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + H
        fp = loss_fn()
        flat[i] = saved - H
        fm = loss_fn()
        flat[i] = saved
        gf[i] = (fp - fm) / (2 * H)
    return g


def well_conditioned(leaves):
    """Central differences at h=1e-4 carry ~1e-10 of truncation noise, so
    gradient elements that are nonzero yet tinier than that budget allows
    cannot be resolved; such draws are redrawn.  Exact zeros are fine (both
    sides agree on zero)."""
    for leaf in leaves:
        magnitude = np.abs(leaf.grad)
        if np.any((magnitude > 0) & (magnitude < 3e-6)):
            return False
    return True


def param(x):
    """A leaf that gets a gradient: the one parameter of a new store."""
    return ParamStore([("p", x)])["p"].value


def check(leaves, loss_fn, tol=1e-4):
    for leaf in leaves:
        analytic = leaf.grad.copy()
        numeric = fd(lambda: loss_fn().item(), leaf.data)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst = np.max(np.abs(analytic - numeric) / denom)
        assert worst < tol, "max rel err %g" % worst


def leaf_path(rng, d, h, d_att):
    return AttentionPathParams(
        param(rng.normal(size=(d_att, d))),
        param(rng.normal(size=(d_att, h))),
        param(rng.normal(size=d_att)),
    )


def path_leaves(p):
    return [p.w_ae, p.w_he, p.v_e]


def build_score_path(rng):
    a = param(rng.normal(size=(3, 2)))
    h_prev = param(rng.normal(size=2))
    path = leaf_path(rng, 2, 2, 2)
    weights = rng.normal(size=3)
    loss = lambda: nm.tsum(nm.hadamard(score_path(a, h_prev, path), Tensor(weights)))
    return [a, h_prev] + path_leaves(path), loss


def build_attend(variant):
    def build(rng):
        a = param(rng.normal(size=(3, 2)))
        sal = SaliencyGrid(rng.uniform(size=3))
        h_prev = param(rng.normal(size=2))
        if variant in ("soft", "attention_on_saliency"):
            path = leaf_path(rng, 2, 2, 2)
            params = AttentionParams(variant, single=path)
            leaves = path_leaves(path)
        elif variant == "saliency_context":
            sal_p, ctx_p = leaf_path(rng, 2, 2, 2), leaf_path(rng, 2, 2, 2)
            params = AttentionParams(variant, sal=sal_p, ctx=ctx_p)
            leaves = path_leaves(sal_p) + path_leaves(ctx_p)
        elif variant == "shared_weights":
            w_ae = param(rng.normal(size=(2, 2)))
            w_he = param(rng.normal(size=(2, 2)))
            sal_p = AttentionPathParams(w_ae, w_he, param(rng.normal(size=2)))
            ctx_p = AttentionPathParams(w_ae, w_he, param(rng.normal(size=2)))
            params = AttentionParams(variant, sal=sal_p, ctx=ctx_p)
            leaves = [w_ae, w_he, sal_p.v_e, ctx_p.v_e]
        else:  # saliency_pooling
            params = AttentionParams(variant)
            leaves = []
        weights = rng.normal(size=2)
        loss = lambda: nm.tsum(
            nm.hadamard(attend(a, sal, h_prev, params).v_hat, Tensor(weights))
        )
        return [a, h_prev] + leaves if variant != "saliency_pooling" else [a], loss

    return build


def build_project_features(rng):
    # keep preactivations clear of the relu kink, where central
    # differences straddle the nondifferentiable point
    while True:
        params = SimpleNamespace(
            proj_w=param(rng.normal(size=(2, 3))), proj_b=param(rng.normal(size=2))
        )
        raw = param(rng.normal(size=(3, 3)))
        preact = raw.data @ params.proj_w.data.T + params.proj_b.data
        if np.min(np.abs(preact)) > 2e-4:
            break
    weights = rng.normal(size=(3, 2))
    loss = lambda: nm.tsum(
        nm.hadamard(dec.project_features(raw, params), Tensor(weights))
    )
    return [params.proj_w, params.proj_b, raw], loss


def build_lstm_step(rng):
    h = 2
    gates = {}
    leaves = []
    for kind in ("w_v", "w_w", "w_h"):
        gates[kind] = {}
        for g in "ifog":
            t = param(rng.normal(size=(h, 2)) if kind != "w_h" else rng.normal(size=(h, h)))
            gates[kind][g] = t
            leaves.append(t)
    gates["b"] = {}
    for g in "ifog":
        t = param(rng.normal(size=h))
        gates["b"][g] = t
        leaves.append(t)
    p = dec.LstmParams(gates["w_v"], gates["w_w"], gates["w_h"], gates["b"])
    v_hat = param(rng.normal(size=2))
    w = param(rng.normal(size=2))
    h0 = param(rng.normal(size=h))
    c0 = param(rng.normal(size=h))
    weights = rng.normal(size=h)

    def loss():
        out = dec.lstm_step(v_hat, w, dec.LstmState(h0, c0), p)
        return nm.tsum(nm.hadamard(out.h, Tensor(weights)))

    return leaves + [v_hat, w, h0, c0], loss


def build_output_distribution(rng):
    params = SimpleNamespace(w_p=param(rng.normal(size=(4, 2))))
    h = param(rng.normal(size=2))
    weights = rng.normal(size=4)
    loss = lambda: nm.tsum(
        nm.hadamard(dec.output_distribution(h, params), Tensor(weights))
    )
    return [params.w_p, h], loss


def build_sequence_nll(rng):
    logits = [param(rng.normal(size=4)) for _ in range(3)]
    targets = [int(t) for t in rng.integers(1, 4, size=3)]
    loss = lambda: optim.sequence_nll([nm.softmax_vec(l) for l in logits], targets)
    return logits, loss


CASES = [
    ("score_path", build_score_path),
    ("attend_soft", build_attend("soft")),
    ("attend_saliency_pooling", build_attend("saliency_pooling")),
    ("attend_on_saliency", build_attend("attention_on_saliency")),
    ("attend_shared_weights", build_attend("shared_weights")),
    ("attend_saliency_context", build_attend("saliency_context")),
    ("project_features", build_project_features),
    ("lstm_step", build_lstm_step),
    ("output_distribution", build_output_distribution),
    ("sequence_nll", build_sequence_nll),
]


@pytest.mark.parametrize("name,builder", CASES, ids=[c[0] for c in CASES])
def test_composite_gradients(name, builder):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    accepted = 0
    attempts = 0
    while accepted < CONFIGS:
        attempts += 1
        assert attempts < 20 * CONFIGS, "conditioning screen rejects too often"
        leaves, loss_fn = builder(rng)
        nm.backward(loss_fn())
        if not well_conditioned(leaves):
            continue
        check(leaves, loss_fn)
        accepted += 1
