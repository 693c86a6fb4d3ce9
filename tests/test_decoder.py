import numpy as np
import numpy.testing as npt
import pytest

from salcap import decoder as dec
from salcap import numerics as nm
from salcap.numerics import ShapeError, Tensor
from salcap.vocab import build_vocab


def tiny_config(variant="saliency_context", **overrides):
    base = dict(
        variant=variant,
        vocab_size=12,
        hidden_size=16,
        embed_size=8,
        feature_size=8,
        raw_feature_size=10,
        grid_rows=2,
        grid_cols=3,
    )
    base.update(overrides)
    return dec.ModelConfig(**base)


class TestProjectFeatures:
    def _params(self, proj_w, proj_b, config=None):
        params = dec.init_params(config or tiny_config(), rng_seed=0)
        params.proj_w.data[...] = proj_w
        params.proj_b.data[...] = proj_b
        return params

    def test_identity_projection(self):
        config = tiny_config(feature_size=4, raw_feature_size=4)
        params = self._params(np.eye(4), np.zeros(4), config)
        raw = np.abs(np.random.default_rng(0).normal(size=(6, 4)))
        grid = dec.project_features(Tensor(raw), params)
        npt.assert_allclose(grid.a.data, raw, atol=1e-15)

    def test_relu_saturation(self):
        config = tiny_config(feature_size=4, raw_feature_size=4)
        params = self._params(np.eye(4), np.full(4, -1e6), config)
        raw = np.random.default_rng(1).normal(size=(6, 4))
        grid = dec.project_features(Tensor(raw), params)
        npt.assert_array_equal(grid.a.data, np.zeros((6, 4)))

    def test_matches_per_location_loop(self):
        rng = np.random.default_rng(2)
        config = tiny_config()
        params = dec.init_params(config, rng_seed=3)
        raw = rng.normal(size=(config.num_locations, config.raw_feature_size))
        grid = dec.project_features(Tensor(raw), params)
        for i in range(config.num_locations):
            expected = np.maximum(0.0, params.proj_w.data @ raw[i] + params.proj_b.data)
            npt.assert_allclose(grid.a.data[i], expected, atol=1e-12)

    def test_dim_mismatch(self):
        params = dec.init_params(tiny_config(), rng_seed=0)
        with pytest.raises(ShapeError):
            dec.project_features(Tensor(np.zeros((6, 99))), params)


class TestLstmStep:
    def _zeroed(self, config=None):
        params = dec.init_params(config or tiny_config(), rng_seed=0)
        for slot in params.store.slots():
            slot.value.data[...] = 0.0
        return params

    def test_all_zero(self):
        config = tiny_config()
        params = self._zeroed(config)
        state = dec.LstmState.initial(config.hidden_size)
        out = dec.lstm_step(
            Tensor(np.zeros(config.feature_size)),
            Tensor(np.zeros(config.embed_size)),
            state,
            params.lstm,
        )
        npt.assert_array_equal(out.c.data, np.zeros(config.hidden_size))
        npt.assert_array_equal(out.h.data, np.zeros(config.hidden_size))

    def test_scalar_hand_case(self):
        # all weights 0, b_g = atanh(0.5), zero state: c = 0.5*0.5 = 0.25
        config = tiny_config(hidden_size=1, embed_size=1, feature_size=1, raw_feature_size=1,
                             grid_rows=1, grid_cols=1)
        params = self._zeroed(config)
        params.lstm.b["g"].data[...] = np.arctanh(0.5)
        out = dec.lstm_step(Tensor([0.0]), Tensor([0.0]), dec.LstmState.initial(1), params.lstm)
        npt.assert_allclose(out.c.data, [0.25], atol=1e-12)
        npt.assert_allclose(out.h.data, [0.5 * np.tanh(0.25)], atol=1e-12)
        assert abs(out.h.data[0] - 0.12245) < 1e-5

    def test_gate_saturation_preserves_memory(self):
        config = tiny_config()
        params = self._zeroed(config)
        params.lstm.b["f"].data[...] = 20.0
        params.lstm.b["i"].data[...] = -20.0
        c_prev = np.random.default_rng(4).normal(size=config.hidden_size)
        state = dec.LstmState(Tensor(np.zeros(config.hidden_size)), Tensor(c_prev))
        out = dec.lstm_step(
            Tensor(np.zeros(config.feature_size)), Tensor(np.zeros(config.embed_size)),
            state, params.lstm,
        )
        npt.assert_allclose(out.c.data, c_prev, atol=1e-6)

    def test_gate_ranges(self):
        rng = np.random.default_rng(5)
        config = tiny_config()
        params = dec.init_params(config, rng_seed=6)
        for slot in params.store.slots():
            slot.value.data += rng.normal(0, 0.5, slot.value.data.shape)
        state = dec.LstmState(
            Tensor(rng.normal(size=config.hidden_size)), Tensor(rng.normal(size=config.hidden_size))
        )
        out = dec.lstm_step(
            Tensor(rng.normal(size=config.feature_size)),
            Tensor(rng.normal(size=config.embed_size)), state, params.lstm,
        )
        assert np.all(np.abs(out.h.data) < 1.0)


class TestOutputDistribution:
    def test_zero_weights_uniform(self):
        config = tiny_config()
        params = dec.init_params(config, rng_seed=0)
        params.w_p.data[...] = 0.0
        p = dec.output_distribution(Tensor(np.ones(config.hidden_size)), params)
        npt.assert_allclose(p.data, np.full(config.vocab_size, 1 / config.vocab_size), atol=1e-15)

    def test_log_logits(self):
        config = tiny_config(vocab_size=3, hidden_size=1)
        params = dec.init_params(config, rng_seed=0)
        params.w_p.data[...] = np.log([[1.0], [2.0], [3.0]])
        p = dec.output_distribution(Tensor([1.0]), params)
        npt.assert_allclose(p.data, [1 / 6, 1 / 3, 1 / 2], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        config = tiny_config()
        params = dec.init_params(config, rng_seed=8)
        for _ in range(20):
            p = dec.output_distribution(Tensor(rng.normal(size=config.hidden_size) * 5), params)
            assert abs(p.data.sum() - 1.0) < 1e-9


class TestInitParams:
    def test_recurrent_matrices_orthogonal(self):
        params = dec.init_params(tiny_config(), rng_seed=0)
        for gate in "ifog":
            w = params.lstm.w_h[gate].data
            npt.assert_allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-9)

    def test_attention_state_matrices_semi_orthogonal(self):
        params = dec.init_params(tiny_config(), rng_seed=0)
        w = params.attention.sal.w_he.data  # D_att x H with D_att < H
        npt.assert_allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-9)

    def test_deterministic(self):
        a = dec.init_params(tiny_config(), rng_seed=42)
        b = dec.init_params(tiny_config(), rng_seed=42)
        for sa, sb in zip(a.store.slots(), b.store.slots()):
            assert sa.name == sb.name
            npt.assert_array_equal(sa.value.data, sb.value.data)

    def test_different_seeds_differ(self):
        a = dec.init_params(tiny_config(), rng_seed=1)
        b = dec.init_params(tiny_config(), rng_seed=2)
        assert not np.array_equal(a.emb.data, b.emb.data)

    def test_input_matrix_variance(self):
        config = tiny_config(hidden_size=128, feature_size=100)
        params = dec.init_params(config, rng_seed=9)
        var = params.lstm.w_v["i"].data.var()  # 128*100 samples
        assert abs(var - 1e-4) < 0.2 * 1e-4

    def test_zeros_where_specified(self):
        params = dec.init_params(tiny_config(), rng_seed=0)
        npt.assert_array_equal(params.proj_b.data, 0.0)
        for gate in "ifog":
            npt.assert_array_equal(params.lstm.b[gate].data, 0.0)
        npt.assert_array_equal(params.attention.sal.v_e.data, 0.0)
        npt.assert_array_equal(params.attention.ctx.v_e.data, 0.0)

    def test_glorot_bounds(self):
        config = tiny_config()
        params = dec.init_params(config, rng_seed=0)
        limit = np.sqrt(6.0 / (config.feature_size + config.raw_feature_size))
        assert np.all(np.abs(params.proj_w.data) <= limit)

    def test_shared_weights_share_tensors(self):
        params = dec.init_params(tiny_config(variant="shared_weights"), rng_seed=0)
        assert params.attention.sal.w_ae is params.attention.ctx.w_ae
        assert params.attention.sal.w_he is params.attention.ctx.w_he
        assert params.attention.sal.v_e is not params.attention.ctx.v_e

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(hidden_size=0)
        with pytest.raises(ValueError):
            tiny_config(vocab_size=-1)

    @pytest.mark.parametrize("variant,count", [
        ("soft", 2888 - 2 * (8 * 8 + 8 * 16 + 8) + (8 * 8 + 8 * 16 + 8)),
        ("saliency_pooling", 2888 - 2 * (8 * 8 + 8 * 16 + 8)),
        ("saliency_context", 2888),
    ])
    def test_scalar_counts(self, variant, count):
        params = dec.init_params(tiny_config(variant=variant), rng_seed=0)
        assert params.store.num_scalars() == count


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        params = dec.init_params(config, rng_seed=11)
        vocabulary = build_vocab(["a b c", "a b", "a"], min_count=1)
        dec.save_checkpoint(params, tmp_path / "ckpt", vocabulary)
        loaded, loaded_vocab = dec.load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == config
        assert loaded_vocab.words == vocabulary.words
        for sa, sb in zip(params.store.slots(), loaded.store.slots()):
            npt.assert_array_equal(sa.value.data, sb.value.data)

    def test_missing_tensor_detected(self, tmp_path):
        params = dec.init_params(tiny_config(), rng_seed=0)
        dec.save_checkpoint(params, tmp_path / "ckpt")
        index_path = tmp_path / "ckpt" / "params.json"
        import json
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps(index[:-1]))
        with pytest.raises(ValueError, match="missing parameters"):
            dec.load_checkpoint(tmp_path / "ckpt")

    def test_unknown_parameter_named(self, tmp_path):
        params = dec.init_params(tiny_config(), rng_seed=0)
        dec.save_checkpoint(params, tmp_path / "ckpt")
        index_path = tmp_path / "ckpt" / "params.json"
        import json
        index = json.loads(index_path.read_text())
        index[0]["name"] = "proj.Wx"
        index_path.write_text(json.dumps(index))
        with pytest.raises(ValueError, match=r"ckpt: unknown parameter 'proj\.Wx'"):
            dec.load_checkpoint(tmp_path / "ckpt")
