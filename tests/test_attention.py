import numpy as np
import numpy.testing as npt
import pytest

from salcap import decoder as dec
from salcap import numerics as nm
from salcap import optim
from salcap.attention import (
    VARIANTS,
    AttentionParams,
    AttentionPathParams,
    SaliencyGrid,
    attend,
    combine_saliency_context,
    score_path,
)
from salcap.numerics import ShapeError, Tensor
from salcap.vocab import BOS_ID, EOS_ID


def leaf_path(w_ae, w_he, v_e):
    """A scoring path whose three parameters are new leaves."""
    return AttentionPathParams(Tensor(w_ae), Tensor(w_he), Tensor(v_e))


def random_path(rng, d, h, d_att):
    return leaf_path(rng.normal(size=(d_att, d)), rng.normal(size=(d_att, h)), rng.normal(size=d_att))


class TestSaliencyGrid:
    def test_z_complement(self):
        s = SaliencyGrid(np.array([0.0, 0.25, 1.0]))
        npt.assert_array_equal(s.z, [1.0, 0.75, 0.0])

    def test_z_computed_once(self):
        sal = SaliencyGrid(np.random.default_rng(5).uniform(size=7))
        assert sal.z.tobytes() == (1.0 - sal.s).tobytes()
        assert sal.z is sal.z

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            SaliencyGrid(np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            SaliencyGrid(np.array([0.5, 1.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_named(self, bad):
        with pytest.raises(ValueError, match=r"\[0,1\], got -?(nan|inf) at index 1"):
            SaliencyGrid(np.array([0.5, bad]))


class TestScorePath:
    def test_all_zero_params(self):
        a = Tensor(np.ones((4, 3)))
        path = leaf_path(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros(3))
        e = score_path(a, Tensor(np.ones(2)), path)
        npt.assert_array_equal(e.data, np.zeros(4))

    def test_zero_projection_nulls(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 3)))
        path = leaf_path(rng.normal(size=(5, 3)), rng.normal(size=(5, 2)), np.zeros(5))
        e = score_path(a, Tensor(rng.normal(size=2)), path)
        npt.assert_array_equal(e.data, np.zeros(4))

    def test_scalar_hand_case(self):
        # D = D_att = H = 1, W_ae = 1, W_he = 0, v_e = 1, a = 0.5
        a = Tensor([[0.5]])
        path = leaf_path([[1.0]], [[0.0]], [1.0])
        e = score_path(a, Tensor(np.zeros(1)), path)
        npt.assert_allclose(e.data, [np.tanh(0.5)], atol=1e-12)
        assert abs(e.data[0] - 0.46212) < 1e-5

    def test_hidden_dim_mismatch(self):
        a = Tensor(np.ones((4, 3)))
        path = leaf_path(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ShapeError, match=r"matmul: incompatible operands \[3, 2\] x \[5\]"):
            score_path(a, Tensor(np.ones(5)), path)

    def test_v_e_shorter_than_w_ae_rows(self):
        a = Tensor(np.ones((4, 3)))
        path = leaf_path(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ShapeError, match=r"matmul: incompatible operands \[4, 3\] x \[2\]"):
            score_path(a, Tensor(np.ones(2)), path)


class TestCombine:
    def test_selector(self):
        e = combine_saliency_context(
            Tensor([2.0, 5.0]), Tensor([7.0, 3.0]), SaliencyGrid(np.array([1.0, 0.0]))
        )
        npt.assert_array_equal(e.data, [2.0, 3.0])

    def test_midpoint(self):
        e = combine_saliency_context(
            Tensor([2.0, 4.0]), Tensor([6.0, 0.0]), SaliencyGrid(np.full(2, 0.5))
        )
        npt.assert_array_equal(e.data, [4.0, 2.0])

    def test_convex_fixed_point(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=6)
        for _ in range(10):
            s = SaliencyGrid(rng.uniform(size=6))
            e = combine_saliency_context(Tensor(scores), Tensor(scores.copy()), s)
            npt.assert_allclose(e.data, scores, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match=r"hadamard: mismatched dims \[2\] vs \[1\]"):
            combine_saliency_context(Tensor([1.0]), Tensor([1.0, 2.0]), SaliencyGrid(np.array([0.5])))


class TestContextVector:
    """v_hat = sum_i alpha_i a_i, as ``attend`` computes it."""

    def test_one_hot(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        sal = SaliencyGrid(np.array([0.0, 1.0, 0.0]))
        v = attend(a, sal, None, AttentionParams("saliency_pooling")).v_hat
        npt.assert_array_equal(v.data, [3.0, 4.0])

    def test_even_mix(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        path = leaf_path(np.ones((2, 2)), np.ones((2, 3)), np.zeros(2))  # uniform alpha
        out = attend(a, SaliencyGrid(np.array([0.3, 0.9])), Tensor(np.ones(3)),
                     AttentionParams("soft", single=path))
        npt.assert_array_equal(out.v_hat.data, [0.5, 0.5])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 3))
        sal = SaliencyGrid(rng.uniform(size=5))
        h_prev = Tensor(rng.normal(size=4))
        for params in (
            AttentionParams("soft", single=random_path(rng, 3, 4, 2)),
            AttentionParams("attention_on_saliency", single=random_path(rng, 3, 4, 2)),
            make_two_path(rng, 3, 4, 2),
        ):
            out = attend(Tensor(a), sal, h_prev, params)
            expected = np.zeros(3)
            for i in range(5):
                expected += out.alpha.data[i] * a[i]
            npt.assert_allclose(out.v_hat.data, expected, atol=1e-12)


def make_two_path(rng, d, h, d_att, tied=False):
    sal = random_path(rng, d, h, d_att)
    if tied:
        ctx = leaf_path(sal.w_ae.data.copy(), sal.w_he.data.copy(), sal.v_e.data.copy())
    else:
        ctx = random_path(rng, d, h, d_att)
    return AttentionParams("saliency_context", sal=sal, ctx=ctx)


class TestAttendVariants:
    D, H, D_ATT, L = 3, 4, 5, 6

    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.a = Tensor(self.rng.normal(size=(self.L, self.D)))
        self.h_prev = Tensor(self.rng.normal(size=self.H))

    def _soft_params(self, path):
        clone = leaf_path(path.w_ae.data.copy(), path.w_he.data.copy(), path.v_e.data.copy())
        return AttentionParams("soft", single=clone)

    def test_saliency_one_reduces_to_sal_path(self):
        params = make_two_path(self.rng, self.D, self.H, self.D_ATT)
        ones = SaliencyGrid(np.ones(self.L))
        full = attend(self.a, ones, self.h_prev, params)
        soft = attend(self.a, ones, self.h_prev, self._soft_params(params.sal))
        npt.assert_allclose(full.e.data, soft.e.data, atol=1e-12)
        npt.assert_allclose(full.alpha.data, soft.alpha.data, atol=1e-12)
        npt.assert_allclose(full.v_hat.data, soft.v_hat.data, atol=1e-12)

    def test_saliency_zero_reduces_to_ctx_path(self):
        params = make_two_path(self.rng, self.D, self.H, self.D_ATT)
        zeros = SaliencyGrid(np.zeros(self.L))
        full = attend(self.a, zeros, self.h_prev, params)
        soft = attend(self.a, zeros, self.h_prev, self._soft_params(params.ctx))
        npt.assert_allclose(full.e.data, soft.e.data, atol=1e-12)
        npt.assert_allclose(full.v_hat.data, soft.v_hat.data, atol=1e-12)

    def test_tied_paths_reduce_to_soft_for_any_saliency(self):
        params = make_two_path(self.rng, self.D, self.H, self.D_ATT, tied=True)
        soft_params = self._soft_params(params.sal)
        for _ in range(100):
            s = SaliencyGrid(self.rng.uniform(size=self.L))
            full = attend(self.a, s, self.h_prev, params)
            soft = attend(self.a, s, self.h_prev, soft_params)
            npt.assert_allclose(full.e.data, soft.e.data, atol=1e-12)
            npt.assert_allclose(full.v_hat.data, soft.v_hat.data, atol=1e-12)

    def test_shared_weights_with_equal_ve_matches_soft(self):
        w_ae = Tensor(self.rng.normal(size=(self.D_ATT, self.D)))
        w_he = Tensor(self.rng.normal(size=(self.D_ATT, self.H)))
        v_e = self.rng.normal(size=self.D_ATT)
        params = AttentionParams(
            "shared_weights",
            sal=AttentionPathParams(w_ae, w_he, Tensor(v_e.copy())),
            ctx=AttentionPathParams(w_ae, w_he, Tensor(v_e.copy())),
        )
        soft = AttentionParams(
            "soft",
            single=leaf_path(w_ae.data.copy(), w_he.data.copy(), v_e.copy()),
        )
        for _ in range(10):
            s = SaliencyGrid(self.rng.uniform(size=self.L))
            full = attend(self.a, s, self.h_prev, params)
            plain = attend(self.a, s, self.h_prev, soft)
            npt.assert_allclose(full.e.data, plain.e.data, atol=1e-12)

    def test_saliency_pooling_weighted_sum(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        params = AttentionParams("saliency_pooling")
        out = attend(a, SaliencyGrid(np.ones(2)), Tensor(np.zeros(4)), params)
        npt.assert_array_equal(out.v_hat.data, [1.0, 1.0])
        assert out.alpha is None and out.e is None

    def test_saliency_pooling_time_invariant(self):
        params = AttentionParams("saliency_pooling")
        s = SaliencyGrid(self.rng.uniform(size=self.L))
        outputs = [
            attend(self.a, s, Tensor(self.rng.normal(size=self.H)), params)
            for _ in range(20)
        ]
        for out in outputs[1:]:
            npt.assert_array_equal(out.v_hat.data, outputs[0].v_hat.data)

    def test_attention_on_saliency_zero_gives_uniform(self):
        path = random_path(self.rng, self.D, self.H, self.D_ATT)
        params = AttentionParams("attention_on_saliency", single=path)
        out = attend(self.a, SaliencyGrid(np.zeros(self.L)), self.h_prev, params)
        npt.assert_array_equal(out.e.data, np.zeros(self.L))
        npt.assert_allclose(out.alpha.data, np.full(self.L, 1 / self.L), atol=1e-15)

    @pytest.mark.parametrize("variant", ["soft", "attention_on_saliency", "shared_weights", "saliency_context"])
    def test_vhat_in_convex_hull(self, variant):
        if variant in ("soft", "attention_on_saliency"):
            params = AttentionParams(variant, single=random_path(self.rng, self.D, self.H, self.D_ATT))
        elif variant == "saliency_context":
            params = make_two_path(self.rng, self.D, self.H, self.D_ATT)
        else:
            w_ae = Tensor(self.rng.normal(size=(self.D_ATT, self.D)))
            w_he = Tensor(self.rng.normal(size=(self.D_ATT, self.H)))
            params = AttentionParams(
                variant,
                sal=AttentionPathParams(w_ae, w_he, Tensor(self.rng.normal(size=self.D_ATT))),
                ctx=AttentionPathParams(w_ae, w_he, Tensor(self.rng.normal(size=self.D_ATT))),
            )
        for _ in range(20):
            s = SaliencyGrid(self.rng.uniform(size=self.L))
            out = attend(self.a, s, Tensor(self.rng.normal(size=self.H)), params)
            lo = self.a.data.min(axis=0) - 1e-12
            hi = self.a.data.max(axis=0) + 1e-12
            assert np.all(out.v_hat.data >= lo) and np.all(out.v_hat.data <= hi)

    def test_saliency_length_mismatch(self):
        params = AttentionParams("soft", single=random_path(self.rng, self.D, self.H, self.D_ATT))
        with pytest.raises(ShapeError):
            attend(self.a, SaliencyGrid(np.ones(self.L + 1)), self.h_prev, params)


@pytest.mark.parametrize("variant", VARIANTS)
def test_only_parameters_hold_gradients(variant):
    """After ``backward`` of a caption loss every parameter holds a gradient
    and no other tensor on the tape does: not the constant leaves (the raw
    features, h0 and c0, the saliency weights s and 1 - s, the loss
    normaliser), and not the recorded tensors, which give theirs up."""
    config = dec.ModelConfig(
        variant=variant, vocab_size=9, hidden_size=6, embed_size=4,
        feature_size=4, raw_feature_size=5, grid_rows=2, grid_cols=2,
    )
    params = dec.init_params(config, rng_seed=0)
    param_leaves = {slot.value for slot in params.store.slots()}
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(config.num_locations, config.raw_feature_size))
    sal = SaliencyGrid(rng.uniform(size=config.num_locations))
    for words in ([4], [4, 5, 6, 7, 8, 4]):
        loss = optim.caption_loss(params, raw, sal, [BOS_ID] + words + [EOS_ID])
        nm.backward(loss)
        seen, stack = {loss}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        constants = [t for t in seen if not t._parents and t not in param_leaves]
        assert [config.num_locations, config.raw_feature_size] in [t.dims for t in constants]
        assert all(t.grad is None for t in constants)
        assert all(t.grad is None for t in seen if t._parents)
        assert all(slot.grad is not None for slot in params.store.slots())
        assert any(np.any(slot.grad) for slot in params.store.slots())
