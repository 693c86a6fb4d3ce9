import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from salcap import data_io
from salcap import decoder as dec
from salcap.attention import VARIANTS, SaliencyGrid
from salcap.data_io import FormatError
from salcap.numerics import ShapeError, Tensor
from salcap.optim import GRAD_CHECK_SIZES
from salcap.vocab import build_vocab

BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "checkpoint"


def tiny_config(variant="saliency_context", **overrides):
    return dec.ModelConfig(**dict(GRAD_CHECK_SIZES, variant=variant, **overrides))


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
        a = dec.project_features(Tensor(raw), params)
        npt.assert_allclose(a.data, raw, atol=1e-15)

    def test_relu_saturation(self):
        config = tiny_config(feature_size=4, raw_feature_size=4)
        params = self._params(np.eye(4), np.full(4, -1e6), config)
        raw = np.random.default_rng(1).normal(size=(6, 4))
        a = dec.project_features(Tensor(raw), params)
        npt.assert_array_equal(a.data, np.zeros((6, 4)))

    def test_matches_per_location_loop(self):
        rng = np.random.default_rng(2)
        config = tiny_config()
        params = dec.init_params(config, rng_seed=3)
        raw = rng.normal(size=(config.num_locations, config.raw_feature_size))
        a = dec.project_features(Tensor(raw), params)
        for i in range(config.num_locations):
            expected = np.maximum(0.0, params.proj_w.data @ raw[i] + params.proj_b.data)
            npt.assert_allclose(a.data[i], expected, atol=1e-12)

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


class TestCheckedStep:
    def test_step_names_first_non_finite_op(self):
        config = tiny_config()
        params = dec.init_params(config, rng_seed=0)
        params.lstm.w_h["i"].data[0, 0] = 1e308
        rng = np.random.default_rng(12)
        a = dec.project_features(
            Tensor(rng.normal(size=(config.num_locations, config.raw_feature_size))), params
        )
        sal = SaliencyGrid(rng.uniform(0.0, 1.0, config.num_locations))
        # h entries of 2 take W_h.i h past the float64 range
        state = dec.LstmState(Tensor(np.full(config.hidden_size, 2.0)),
                              Tensor(np.zeros(config.hidden_size)))
        expected = r"non-finite value from matmul, output dims \[16\]"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=expected) as info:
                dec.step(params, a, sal, state, 4)
        assert "step" in [entry.name for entry in info.traceback]

    @pytest.mark.parametrize("planted", ["w_ae", "emb"])
    def test_nan_planted_in_a_parameter_is_reported(self, planted):
        """A parameter reaches the tape through ops that are not queued for
        the check (``transpose``, ``pick``); the queued product after them
        still reports a NaN written into its values after it was built."""
        config = tiny_config()
        params = dec.init_params(config, rng_seed=0)
        rng = np.random.default_rng(13)
        a = dec.project_features(
            Tensor(rng.normal(size=(config.num_locations, config.raw_feature_size))), params
        )
        sal = SaliencyGrid(rng.uniform(0.0, 1.0, config.num_locations))
        state = dec.LstmState.initial(config.hidden_size)
        if planted == "w_ae":
            params.attention.sal.w_ae.data[2, 1] = np.nan
        else:
            params.emb.data[4, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite value from matmul"):
            dec.step(params, a, sal, state, 4)


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

    def test_parameter_layout_pinned(self):
        """Store order fixes the initial draws and the checkpoint file names."""
        common = ["proj.W", "proj.b", "emb", "out.W_p"] + [
            "lstm.%s.%s" % (kind, gate) for gate in "ifog" for kind in ("W_v", "W_w", "W_h", "b")]
        single = ["att.single.W_ae", "att.single.W_he", "att.single.v_e"]
        assert VARIANTS == ("soft", "saliency_pooling", "attention_on_saliency",
                            "shared_weights", "saliency_context")
        for variant, attention in [
            ("soft", single),
            ("saliency_pooling", []),
            ("attention_on_saliency", single),
            ("shared_weights", ["att.shared.W_ae", "att.shared.W_he", "att.sal.v_e",
                                "att.ctx.v_e"]),
            ("saliency_context", ["att.sal.W_ae", "att.sal.W_he", "att.sal.v_e",
                                  "att.ctx.W_ae", "att.ctx.W_he", "att.ctx.v_e"]),
        ]:
            names = [name for name, _, _ in dec._param_specs(tiny_config(variant=variant))]
            assert names == common + attention, variant

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
        assert sum(slot.value.data.size for slot in params.store.slots()) == count


class TestCheckpoint:
    def _saved(self, tmp_path, config=None, rng_seed=0):
        params = dec.init_params(config or tiny_config(), rng_seed=rng_seed)
        dec.save_checkpoint(params, tmp_path / "ckpt", build_vocab(["a b c d e f g h"], min_count=1))
        return tmp_path / "ckpt"

    def _edit_config(self, ckpt, **values):
        config = json.loads((ckpt / "config.json").read_text())
        config.update(values)
        (ckpt / "config.json").write_text(json.dumps(config))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip(self, tmp_path, variant):
        config = tiny_config(variant=variant)
        params = dec.init_params(config, rng_seed=11)
        vocabulary = build_vocab(["a b c d e f g h", "a b c", "a"], min_count=1)
        dec.save_checkpoint(params, tmp_path / "ckpt", vocabulary)
        loaded, loaded_vocab = dec.load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == config
        assert loaded_vocab.words == vocabulary.words
        saved = [(s.name, s.value.dims, s.value.data.tobytes()) for s in params.store.slots()]
        assert [(s.name, s.value.dims, s.value.data.tobytes())
                for s in loaded.store.slots()] == saved

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loaded_parameters_view_the_arenas(self, tmp_path, variant):
        """Loaded values and gradients are views of the store's arenas, and
        saving them again writes the same bytes."""
        ckpt = self._saved(tmp_path, tiny_config(variant=variant))
        loaded, vocabulary = dec.load_checkpoint(ckpt)
        store = loaded.store
        for slot in store.slots():
            assert np.shares_memory(slot.value.data, store.values), slot.name
            assert np.shares_memory(slot.grad, store.grads), slot.name
        assert loaded.emb is store["emb"].value
        assert loaded.lstm.w_h["g"] is store["lstm.W_h.g"].value
        dec.save_checkpoint(loaded, tmp_path / "again", vocabulary)
        assert sorted(os.listdir(tmp_path / "again")) == sorted(os.listdir(ckpt))
        for name in os.listdir(ckpt):
            assert (tmp_path / "again" / name).read_bytes() == (ckpt / name).read_bytes(), name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch, variant):
        ckpt = self._saved(tmp_path, tiny_config(variant=variant))

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew an initial value")

        for initializer in ("_gaussian", "_orthogonal", "_glorot_uniform"):
            monkeypatch.setattr(dec, initializer, no_draw)
        loaded, _ = dec.load_checkpoint(ckpt)
        assert loaded.config.variant == variant

    def test_load_builds_one_tensor_per_parameter(self, monkeypatch):
        """Each stored array is wrapped once, by its slot; the file reader returns a plain array."""
        built = []
        init = Tensor.__init__

        def counted(tensor, *args, **kwargs):
            built.append(tensor)
            init(tensor, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        loaded, _ = dec.load_checkpoint(BENCH_CHECKPOINT)
        monkeypatch.undo()
        files = [f for f in os.listdir(BENCH_CHECKPOINT) if f.endswith(".tnsr")]
        assert len(built) == len(loaded.store.slots()) == len(files) == 26

    def test_shared_weights_load_shares_tensors(self, tmp_path):
        loaded, _ = dec.load_checkpoint(self._saved(tmp_path, tiny_config(variant="shared_weights")))
        attention = loaded.attention
        assert attention.sal.w_ae is attention.ctx.w_ae
        assert attention.sal.w_he is attention.ctx.w_he
        for shared in (attention.sal.w_ae, attention.sal.w_he):
            assert sum(slot.value is shared for slot in loaded.store.slots()) == 1

    @pytest.mark.parametrize("literal,value", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"),
    ])
    def test_non_finite_config_value_named(self, tmp_path, literal, value):
        ckpt = self._saved(tmp_path)
        path = ckpt / "config.json"
        path.write_text(path.read_text().replace('"hidden_size": 16', '"hidden_size": ' + literal))
        message = "%s: hidden_size must be a finite number, got %s" % (path, value)
        with pytest.raises(FormatError, match=re.escape(message)):
            dec.load_checkpoint(ckpt)

    def test_missing_tensor_detected(self, tmp_path):
        ckpt = self._saved(tmp_path)
        (ckpt / "emb.tnsr").unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(ckpt / "emb.tnsr"))):
            dec.load_checkpoint(ckpt)

    def test_missing_vocabulary_named(self, tmp_path):
        ckpt = self._saved(tmp_path)
        (ckpt / "vocab.json").unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(ckpt / "vocab.json"))):
            dec.load_checkpoint(ckpt)

    @pytest.mark.parametrize("words", [7, 9])
    def test_vocabulary_size_must_match_the_model(self, tmp_path, words):
        ckpt = self._saved(tmp_path)
        build_vocab([" ".join("w%d" % i for i in range(words))], min_count=1).save(ckpt / "vocab.json")
        message = "%s: %d ids, but the model's vocab_size is 12; the two must be equal" % (
            ckpt / "vocab.json", words + 4)
        with pytest.raises(FormatError, match=re.escape(message)):
            dec.load_checkpoint(ckpt)

    def test_non_finite_value_named(self, tmp_path):
        ckpt = self._saved(tmp_path)
        path = ckpt / "proj_b.tnsr"
        blob = bytearray(path.read_bytes())
        blob[19:27] = np.array([np.inf]).tobytes()  # an 11-byte rank-1 header, then element 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"proj_b\.tnsr: non-finite value at byte 19"):
            dec.load_checkpoint(ckpt)

    def test_unknown_parameter_named(self, tmp_path):
        ckpt = self._saved(tmp_path)
        shutil.copy(ckpt / "proj_W.tnsr", ckpt / "proj_Wx.tnsr")
        message = "%s: saliency_context model has no parameter" % (ckpt / "proj_Wx.tnsr")
        with pytest.raises(FormatError, match=re.escape(message)):
            dec.load_checkpoint(ckpt)

    def test_two_path_checkpoint_read_as_pooling(self, tmp_path):
        ckpt = self._saved(tmp_path)
        self._edit_config(ckpt, variant="saliency_pooling")
        message = "%s: saliency_pooling model has no parameter" % (ckpt / "att_ctx_W_ae.tnsr")
        with pytest.raises(FormatError, match=re.escape(message)):
            dec.load_checkpoint(ckpt)

    def test_dims_mismatch_named(self, tmp_path):
        ckpt = self._saved(tmp_path)
        shutil.copy(ckpt / "proj_W.tnsr", ckpt / "emb.tnsr")
        message = "%s: dims [8, 10], but 'emb' has dims [12, 8] in this model" % (ckpt / "emb.tnsr")
        with pytest.raises(FormatError, match=re.escape(message)):
            dec.load_checkpoint(ckpt)

    @pytest.mark.parametrize("field,value,message", [
        ("hidden_size", 0, "hidden_size must be >= 1, got 0"),
        ("grid_cols", -3, "grid_cols must be >= 1, got -3"),
        ("attention_size", -1, "attention_size must be >= 0, got -1"),
    ])
    def test_config_size_named(self, tmp_path, field, value, message):
        ckpt = self._saved(tmp_path)
        self._edit_config(ckpt, **{field: value})
        with pytest.raises(FormatError, match=re.escape("%s: %s" % (ckpt / "config.json", message))):
            dec.load_checkpoint(ckpt)

    def test_unknown_variant_named(self, tmp_path):
        """ModelConfig is the one place a variant is checked."""
        ckpt = self._saved(tmp_path)
        self._edit_config(ckpt, variant="hard")
        message = "%s: unknown attention variant 'hard'" % (ckpt / "config.json")
        with pytest.raises(FormatError, match=re.escape(message)):
            dec.load_checkpoint(ckpt)

    def test_save_replaces_checkpoint(self, tmp_path):
        self._saved(tmp_path, tiny_config(variant="saliency_context"))
        ckpt = self._saved(tmp_path, tiny_config(variant="soft"), rng_seed=4)
        loaded, _ = dec.load_checkpoint(ckpt)
        expected = dec.init_params(tiny_config(variant="soft"), rng_seed=4)
        for sa, sb in zip(expected.store.slots(), loaded.store.slots()):
            npt.assert_array_equal(sa.value.data, sb.value.data)
        assert os.listdir(tmp_path) == ["ckpt"]

    def test_failed_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        ckpt = self._saved(tmp_path, rng_seed=1)
        write_tensor = data_io.write_tensor
        calls = []

        def fail_fifth(tensor, path):
            calls.append(path)
            if len(calls) == 5:
                raise OSError("disk full")
            write_tensor(tensor, path)

        monkeypatch.setattr(data_io, "write_tensor", fail_fifth)
        with pytest.raises(OSError, match="disk full"):
            self._saved(tmp_path, rng_seed=2)
        monkeypatch.undo()
        loaded, _ = dec.load_checkpoint(ckpt)
        expected = dec.init_params(tiny_config(), rng_seed=1)
        for sa, sb in zip(expected.store.slots(), loaded.store.slots()):
            npt.assert_array_equal(sa.value.data, sb.value.data)
        assert os.listdir(tmp_path) == ["ckpt"]

    def test_committed_checkpoint_is_a_format_fixture(self, tmp_path):
        """bench/checkpoint, saved with a params.json index, loads and re-saves byte for byte."""
        assert (BENCH_CHECKPOINT / "params.json").exists()
        params, vocabulary = dec.load_checkpoint(BENCH_CHECKPOINT)
        dec.save_checkpoint(params, tmp_path / "ckpt", vocabulary)
        written = sorted(os.listdir(tmp_path / "ckpt"))
        assert len(written) == len(params.store.slots()) + 2
        assert "params.json" not in written
        for name in written:
            assert (tmp_path / "ckpt" / name).read_bytes() == (BENCH_CHECKPOINT / name).read_bytes()
