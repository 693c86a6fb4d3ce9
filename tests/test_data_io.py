import filecmp
import json
import os
import re
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import numpy.testing as npt
import pytest

from salcap import data_io
from salcap.data_io import (
    FormatError,
    SyntheticSpec,
    gen_synthetic,
    load_manifest,
    prepare_saliency,
    read_tensor,
    write_pgm,
    write_segm,
    write_tensor,
)
from salcap.numerics import Tensor
from salcap.optim import TrainConfig

# each JSON literal that reads as a non-finite float, and that float's repr
NON_FINITE = [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")]


def read_pgm_samples(path):
    return data_io.read_map(path, (data_io.PGM_MAGIC,))[0]


class TestTensorFile:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        for dims in [(3,), (2, 5), (2, 3, 4)]:
            t = Tensor(rng.normal(size=dims))
            path = tmp_path / ("t%d.tnsr" % len(dims))
            write_tensor(t, path)
            loaded = read_tensor(path)
            assert loaded.shape == dims
            npt.assert_array_equal(loaded, t.data)

    def test_float32_widens(self, tmp_path):
        t = Tensor([1.5, 2.25, -3.125])
        path = tmp_path / "t.tnsr"
        header = b"TNSR" + struct.pack("<BBBI", 1, 0, 1, 3)  # version 1, float32, dims [3]
        path.write_bytes(header + np.asarray(t.data, dtype="<f4").tobytes())
        loaded = read_tensor(path)
        assert loaded.dtype == np.float64
        npt.assert_array_equal(loaded, t.data)  # values exactly representable

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.tnsr"
        write_tensor(Tensor(np.zeros(4)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="24 bytes, expected 32"):
            read_tensor(path)

    def test_dims_payload_mismatch(self, tmp_path):
        # header says [2,3] but only 5 elements follow
        path = tmp_path / "t.tnsr"
        header = b"TNSR" + struct.pack("<BBB", 1, 1, 2) + struct.pack("<2I", 2, 3)
        path.write_bytes(header + np.zeros(5).tobytes())
        with pytest.raises(FormatError, match="expected 48"):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.tnsr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad magic at byte 0"):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "t.tnsr"
        path.write_bytes(b"TNSR" + struct.pack("<BBB", 9, 1, 1) + struct.pack("<I", 1) + np.zeros(1).tobytes())
        with pytest.raises(FormatError, match="version 9"):
            read_tensor(path)


class TestPgm:
    def test_eight_bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 256, (5, 7)).astype(np.uint8)
        path = tmp_path / "m.pgm"
        write_pgm(values, path)
        npt.assert_array_equal(read_pgm_samples(path), values)

    def test_sixteen_bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 1000, (4, 3)).astype(np.uint16)
        path = tmp_path / "m.pgm"
        write_pgm(values, path, maxval=65535)
        npt.assert_array_equal(read_pgm_samples(path), values)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n# more\n255\n" + payload)
        values = read_pgm_samples(path)
        assert values.shape == (2, 3)
        npt.assert_array_equal(values.reshape(-1), list(range(6)))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n3 2\n255\n\x00\x00")
        with pytest.raises(FormatError, match="expected 6"):
            read_pgm_samples(path)


class TestSegm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 400, (6, 4))
        path = tmp_path / "m.segm"
        write_segm(labels, path)
        npt.assert_array_equal(data_io.read_map(path, (data_io.SEGM_MAGIC,))[0], labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.segm"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(FormatError, match="bad magic"):
            data_io.read_map(path, (data_io.SEGM_MAGIC,))[0]


class TestPrepareSaliency:
    def test_constant_map(self):
        grid = prepare_saliency(np.full((10, 10), 128, dtype=np.uint8) / 255.0, 2, 2)
        npt.assert_allclose(grid.s, np.full(4, 128 / 255), atol=1e-12)
        assert abs(grid.s[0] - 0.50196) < 1e-5

    def test_two_by_two_block_average(self):
        source = np.array([[0, 255], [255, 255]], dtype=np.uint8)
        grid = prepare_saliency(source / 255.0, 1, 1)
        npt.assert_allclose(grid.s, [191.25 / 255], atol=1e-12)
        assert abs(grid.s[0] - 0.75) < 1e-12

    def test_all_zero(self):
        grid = prepare_saliency(np.zeros((6, 6), dtype=np.uint8) / 255.0, 3, 3)
        npt.assert_array_equal(grid.s, np.zeros(9))
        npt.assert_array_equal(grid.z, np.ones(9))

    def test_mean_preserved_integer_aligned(self):
        rng = np.random.default_rng(4)
        source = rng.integers(0, 256, (12, 18)).astype(np.uint8)
        grid = prepare_saliency(source / 255.0, 3, 6)
        assert abs(grid.s.mean() * 255 - source.astype(float).mean()) < 1e-9

    def test_partial_cells_weighted(self):
        # 3 source rows onto 2 target rows: middle row splits half/half
        source = np.array([[0.0], [0.6], [1.0]])
        grid = prepare_saliency(source, 2, 1)
        npt.assert_allclose(grid.s, [(0.0 + 0.3) / 1.5, (0.3 + 1.0) / 1.5], atol=1e-12)

    def test_float_input_not_rescaled(self):
        grid = prepare_saliency(np.full((4, 4), 0.25), 2, 2)
        npt.assert_allclose(grid.s, np.full(4, 0.25), atol=1e-15)

    def test_source_smaller_than_grid(self):
        with pytest.raises(ValueError, match="smaller"):
            prepare_saliency(np.zeros((2, 2)), 3, 3)

    def test_shared_weights_reject_writes(self):
        weights = data_io._axis_overlap_weights(3, 2)
        assert data_io._axis_overlap_weights(3, 2) is weights
        npt.assert_array_equal(weights, [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 2.0


def small_spec(**overrides):
    base = dict(
        n_images=8, grid_rows=3, grid_cols=4, feature_dim=6,
        salient_words=["cat", "dog"], context_words=["field", "lake"],
        seed=7, split_counts={"train": 6, "val": 1, "test": 1},
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def tree_digest(root):
    digest = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, root)] = fh.read()
    return digest


class TestGenSynthetic:
    def test_same_seed_byte_identical(self, tmp_path):
        gen_synthetic(small_spec(), tmp_path / "a")
        gen_synthetic(small_spec(), tmp_path / "b")
        da, db = tree_digest(tmp_path / "a"), tree_digest(tmp_path / "b")
        assert da.keys() == db.keys()
        for key in da:
            assert da[key] == db[key], key

    def test_different_seed_differs(self, tmp_path):
        gen_synthetic(small_spec(), tmp_path / "a")
        gen_synthetic(small_spec(seed=8), tmp_path / "c")
        da, dc = tree_digest(tmp_path / "a"), tree_digest(tmp_path / "c")
        assert any(da[k] != dc[k] for k in da if k.endswith(".tnsr"))

    def test_entry_counts_and_splits(self, tmp_path):
        manifest = gen_synthetic(small_spec(), tmp_path / "d")
        assert len(manifest.entries) == 8
        assert len(manifest.split_entries("train")) == 6
        assert len(manifest.split_entries("val")) == 1
        assert len(manifest.split_entries("test")) == 1

    def test_captions_parse_against_templates(self, tmp_path):
        spec = small_spec()
        manifest = gen_synthetic(spec, tmp_path / "e")
        instances = {template.format(sal=sal, ctx=ctx) for template in data_io.CAPTION_TEMPLATES
                     for sal in spec.salient_words for ctx in spec.context_words}
        for entry in manifest.entries:
            assert 2 <= len(entry.captions) <= 3
            assert set(entry.captions) <= instances

    def test_saliency_bands(self, tmp_path):
        manifest = gen_synthetic(small_spec(), tmp_path / "f")
        for entry in manifest.entries:
            values = read_pgm_samples(manifest.resolve(entry.saliency))
            assert set(np.unique(values)) <= {data_io.BACKGROUND_INTENSITY, data_io.SALIENT_INTENSITY}

    def test_loadable_entries(self, tmp_path):
        manifest = gen_synthetic(small_spec(), tmp_path / "g")
        raw, sal = data_io.load_entry(manifest, manifest.entries[0])
        assert raw.shape == (12, 6)
        assert len(sal) == 12
        assert np.all(sal.s >= 0) and np.all(sal.s <= 1)

    def test_invalid_spec(self):
        for overrides, message in [
            (dict(salient_words=[]), "non-empty word template lists"),
            (dict(split_counts={"train": 5}), "split counts must sum to n_images"),
            (dict(n_images=0), "n_images must be >= 1, got 0"),
            (dict(grid_rows=0), "grid_rows must be >= 1, got 0"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
            (dict(split_counts={"train": 7.5, "test": 0.5}),
             "split_counts['train'] must be a non-negative integer, got 7.5"),
            (dict(split_counts={"train": -1, "test": 9}),
             "split_counts['train'] must be a non-negative integer, got -1"),
            (dict(split_counts={"train": 7, "test": True}),
             "split_counts['test'] must be a non-negative integer, got True"),
            (dict(split_counts={"train": "8"}),
             "split_counts['train'] must be a non-negative integer, got '8'"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                small_spec(**overrides)


class TestManifestValidation:
    def test_duplicate_ids_rejected(self, tmp_path):
        manifest = gen_synthetic(small_spec(), tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        obj = json.loads(path.read_text())
        obj["entries"][1]["id"] = obj["entries"][0]["id"]
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="duplicate entry id"):
            load_manifest(path)

    def test_feature_dims_validated(self, tmp_path):
        manifest = gen_synthetic(small_spec(), tmp_path / "m2")
        path = tmp_path / "m2" / "manifest.json"
        obj = json.loads(path.read_text())
        obj["feature_dim"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="expected \\[12, 99\\]"):
            load_manifest(path)

    def test_unknown_split_rejected(self, tmp_path):
        gen_synthetic(small_spec(), tmp_path / "m3")
        path = tmp_path / "m3" / "manifest.json"
        obj = json.loads(path.read_text())
        obj["entries"][0]["split"] = "holdout"
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="unknown split"):
            load_manifest(path)

    def test_missing_saliency_rejected(self, tmp_path):
        manifest = gen_synthetic(small_spec(), tmp_path / "m4")
        os.remove(manifest.resolve(manifest.entries[0].saliency))
        with pytest.raises(FormatError, match="saliency file"):
            load_manifest(tmp_path / "m4" / "manifest.json")

    @pytest.mark.parametrize("kind", ["features", "saliency"])
    @pytest.mark.parametrize("replace", ["directory", "missing"])
    def test_entry_file_must_be_a_regular_file(self, tmp_path, kind, replace):
        manifest = gen_synthetic(small_spec(), tmp_path / "m5")
        relpath = getattr(manifest.entries[1], kind)
        os.remove(manifest.resolve(relpath))
        if replace == "directory":
            os.mkdir(manifest.resolve(relpath))
        path = tmp_path / "m5" / "manifest.json"
        message = "%s: %s file %r missing or not a regular file" % (path, kind, relpath)
        with pytest.raises(FormatError, match=re.escape(message)):
            load_manifest(path)

    def test_spec_json_round_trip(self):
        spec = small_spec()
        again = SyntheticSpec(**json.loads(json.dumps(asdict(spec))))
        assert again == spec


class TestManifestInputs:
    def test_feature_header_checked_at_load(self, tmp_path):
        manifest = gen_synthetic(small_spec(), tmp_path / "v")
        fpath = Path(manifest.resolve(manifest.entries[0].features))
        blob = bytearray(fpath.read_bytes())
        blob[4:6] = struct.pack("<BB", 9, 7)  # version 9, dtype code 7
        fpath.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"img_000\.tnsr: unsupported version 9 at byte 4"):
            load_manifest(tmp_path / "v" / "manifest.json")

    def test_truncated_features_rejected_at_load(self, tmp_path):
        manifest = gen_synthetic(small_spec(), tmp_path / "t")
        fpath = Path(manifest.resolve(manifest.entries[0].features))
        fpath.write_bytes(fpath.read_bytes()[:-8])
        with pytest.raises(FormatError, match=r"img_000\.tnsr: payload at byte 15 .* expected 576"):
            load_manifest(tmp_path / "t" / "manifest.json")

    def test_captions_must_be_a_list_of_strings(self, tmp_path):
        gen_synthetic(small_spec(), tmp_path / "c")
        path = tmp_path / "c" / "manifest.json"
        obj = json.loads(path.read_text())
        obj["entries"][2]["captions"] = "a cat in a lake"
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="entry 2: captions must be a non-empty list of strings"):
            load_manifest(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["grid"].update(rows=2.9), "grid: rows must be an integer, got 2.9"),
        (lambda m: m["grid"].update(rows="2"), "grid: rows must be an integer, got '2'"),
        (lambda m: m["grid"].update(rows=True), "grid: rows must be an integer, got True"),
        (lambda m: m.update(feature_dim=3.7), "feature_dim must be an integer, got 3.7"),
        (lambda m: m.update(entries=5), "entries must be a list, got 5"),
        (lambda m: m["entries"][1].update(note="x"), "entry 1: unknown field 'note'"),
        (lambda m: m["grid"].update(cols=0), "grid: cols must be >= 1, got 0"),
        (lambda m: m.update(feature_dim=float("nan")), "feature_dim must be a finite number, got nan"),
        (lambda m: m["entries"][2]["captions"].append(float("-inf")),
         "entries[2]: captions[2] must be a finite number, got -inf"),
    ], ids=["rows_float", "rows_string", "rows_bool", "feature_dim_float", "entries_int",
            "entry_unknown_field", "cols_zero", "feature_dim_nan", "caption_minus_infinity"])
    def test_field_kinds_checked(self, tmp_path, edit, message):
        gen_synthetic(small_spec(), tmp_path / "k")
        path = tmp_path / "k" / "manifest.json"
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=re.escape("manifest.json: " + message)):
            load_manifest(path)

    @pytest.mark.parametrize("literal,value", NON_FINITE)
    def test_non_finite_literal_named(self, tmp_path, literal, value):
        gen_synthetic(small_spec(), tmp_path / "n")
        path = tmp_path / "n" / "manifest.json"
        obj = json.loads(path.read_text())
        obj["entries"][3]["captions"][1] = "PLACEHOLDER"
        path.write_text(json.dumps(obj).replace('"PLACEHOLDER"', literal))
        message = "manifest.json: entries[3]: captions[1] must be a finite number, got " + value
        with pytest.raises(FormatError, match=re.escape(message)):
            load_manifest(path)

    def test_malformed_json_names_line_and_column(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"grid": {"rows": 2,\n  "cols" 2}}\n')
        with pytest.raises(FormatError, match=r"manifest\.json: malformed JSON at line 2 column 10"):
            load_manifest(path)


class TestLoadEntrySaliency:
    """A PGM saliency map is scaled by its own maxval; a tensor map is taken as is."""

    def _entry(self, tmp_path, write_map):
        manifest = gen_synthetic(small_spec(), tmp_path / "d")
        entry = manifest.entries[0]
        write_map(manifest.resolve(entry.saliency))
        return data_io.load_entry(manifest, entry)[1]

    def test_eight_bit_maxval_100_all_white(self, tmp_path):
        sal = self._entry(tmp_path, lambda p: write_pgm(np.full((3, 4), 100), p, maxval=100))
        assert np.all(sal.s == 1.0)

    def test_sixteen_bit(self, tmp_path):
        values = np.random.default_rng(5).integers(0, 65536, (3, 4)).astype(np.uint16)
        sal = self._entry(tmp_path, lambda p: write_pgm(values, p, maxval=65535))
        npt.assert_array_equal(sal.s, values.reshape(-1) / 65535)

    def test_tensor_map(self, tmp_path):
        values = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        sal = self._entry(tmp_path, lambda p: write_tensor(Tensor(values), p))
        npt.assert_array_equal(sal.s, values.reshape(-1))

    def test_segmentation_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="bad magic at byte 0"):
            self._entry(tmp_path, lambda p: write_segm(np.zeros((3, 4), dtype=int), p))

    @pytest.mark.parametrize("write_map,message", [
        (lambda p: write_pgm(np.zeros((2, 2)), p), "saliency source [2, 2] is smaller than the 3x4 grid"),
        (lambda p: write_tensor(Tensor(np.full((3, 4), 2.0)), p), "saliency values must lie in [0,1]"),
        (lambda p: write_tensor(Tensor(np.zeros(12)), p), "saliency source must be 2-D, got shape [12]"),
    ], ids=["too_small", "out_of_range", "one_dimensional"])
    def test_bad_map_named(self, tmp_path, write_map, message):
        path = tmp_path / "d" / "saliency" / "img_000.pgm"
        with pytest.raises(FormatError, match=re.escape("%s: %s" % (path, message))):
            self._entry(tmp_path, write_map)


class TestReadMap:
    def test_kind_from_magic(self, tmp_path):
        labels = np.arange(6).reshape(2, 3)
        write_segm(labels, tmp_path / "a.pgm")  # the suffix does not decide
        write_pgm(labels, tmp_path / "b.segm", maxval=5)
        values, maxval = data_io.read_map(tmp_path / "a.pgm", (data_io.SEGM_MAGIC, data_io.PGM_MAGIC))
        npt.assert_array_equal(values, labels)
        assert maxval is None
        values, maxval = data_io.read_map(tmp_path / "b.segm", (data_io.SEGM_MAGIC, data_io.PGM_MAGIC))
        npt.assert_array_equal(values, labels)
        assert maxval == 5

    def test_pgm_header_not_numeric(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n3 x\n255\n" + bytes(6))
        with pytest.raises(FormatError, match="PGM header at byte 2"):
            read_pgm_samples(path)


class TestJsonFiles:
    def test_write_json_layout(self, tmp_path):
        path = tmp_path / "o.json"
        data_io.write_json({"b": [1], "a": 2}, path)
        assert path.read_text() == '{\n  "a": 2,\n  "b": [\n    1\n  ]\n}\n'
        assert data_io.read_json(path, {}) == {"a": 2, "b": [1]}

    def test_read_dataclass_names_file_and_key(self, tmp_path):
        path = tmp_path / "spec.json"
        obj = asdict(small_spec())
        obj["colour"] = "red"
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=r"spec\.json: unknown field 'colour'"):
            data_io.read_dataclass(SyntheticSpec, path)

    def test_optional_dataclass_field(self, tmp_path):
        """An ``Optional`` field may be absent or null; present, it must be of its kind."""

        @dataclass(frozen=True)
        class Run:
            name: str
            note: Optional[str] = None

        path = tmp_path / "run.json"
        for obj, expected in (({"name": "a"}, Run("a")), ({"name": "a", "note": None}, Run("a")),
                              ({"name": "a", "note": "b"}, Run("a", "b"))):
            path.write_text(json.dumps(obj))
            assert data_io.read_dataclass(Run, path) == expected
        path.write_text(json.dumps({"name": "a", "note": 3}))
        with pytest.raises(FormatError, match=re.escape("%s: note must be a string, got 3" % path)):
            data_io.read_dataclass(Run, path)
        path.write_text(json.dumps({"note": "b"}))
        with pytest.raises(FormatError, match=re.escape("%s: missing field 'name'" % path)):
            data_io.read_dataclass(Run, path)

    @pytest.mark.parametrize("literal,value", NON_FINITE)
    def test_jsonl_non_finite_literal_named(self, tmp_path, literal, value):
        path = tmp_path / "c.jsonl"
        path.write_text('{"image_id": "a", "score": 0.5}\n\n'
                        '{"image_id": "b", "score": [1.5, %s]}\n' % literal)
        message = "%s:3: score[1] must be a finite number, got %s" % (path, value)
        with pytest.raises(FormatError, match=re.escape(message)):
            data_io.read_jsonl(path, {"image_id": str})

    def test_finite_floats_read_unchanged(self, tmp_path):
        floats = [0.001, -0.0, 2.5e-300, 1.7976931348623157e308, -3e-5]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 0.001, "grad_clip_norm": 1.7976931348623157e308}))
        config = data_io.read_dataclass(TrainConfig, path)
        assert (config.learning_rate, config.grad_clip_norm) == (0.001, 1.7976931348623157e308)
        path.write_text(json.dumps({"floats": floats}))
        assert list(map(repr, data_io.read_json(path, {})["floats"])) == list(map(repr, floats))
        lines = tmp_path / "f.jsonl"
        lines.write_text("".join(json.dumps({"x": x}) + "\n" for x in floats))
        read = [r["x"] for r in data_io.read_jsonl(lines, {"x": float})]
        assert list(map(repr, read)) == list(map(repr, floats))
