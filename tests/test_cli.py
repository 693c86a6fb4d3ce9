import csv
import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from salcap import data_io, decoder
from salcap.cli import main


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small synthetic dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli_data")
    spec = dict(
        n_images=6, grid_rows=2, grid_cols=2, feature_dim=5,
        salient_words=["cat", "dog"], context_words=["field", "lake"],
        seed=11, split_counts={"train": 4, "test": 2},
    )
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = root / "data"
    assert main(["gen-synth", "--spec", str(spec_path), "--out", str(out_dir)]) == 0
    return root, out_dir


@pytest.fixture(scope="module")
def run_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_cfg") / "config.json"
    path.write_text(json.dumps({
        "hidden_size": 8, "embed_size": 6, "feature_size": 6,
        "min_count": 1, "epochs": 2, "seed": 3, "batch_size": 2,
        "max_caption_len": 16,
    }))
    return path


class TestGenSynth:
    def test_manifest_written(self, dataset):
        _, out_dir = dataset
        manifest = data_io.load_manifest(out_dir / "manifest.json")
        assert len(manifest.entries) == 6


class TestTrain:
    def test_zero_epochs_checkpoint_equals_init(self, dataset, run_config, tmp_path):
        _, out_dir = dataset
        ckpt = tmp_path / "run0"
        code = main([
            "train", "--manifest", str(out_dir / "manifest.json"),
            "--config", str(run_config), "--variant", "saliency_context",
            "--out", str(ckpt), "--epochs", "0",
        ])
        assert code == 0
        params, vocabulary = decoder.load_checkpoint(ckpt / "final")
        fresh = decoder.init_params(params.config, rng_seed=3)
        for a, b in zip(params.store.slots(), fresh.store.slots()):
            npt.assert_array_equal(a.value.data, b.value.data)
        assert vocabulary is not None
        assert (ckpt / "train_log.csv").read_text().splitlines()[0] == "epoch,mean_loss,tokens_per_sec"

    def test_train_and_caption_and_trace(self, dataset, run_config, tmp_path):
        _, out_dir = dataset
        ckpt = tmp_path / "run1"
        manifest = str(out_dir / "manifest.json")
        assert main([
            "train", "--manifest", manifest, "--config", str(run_config),
            "--variant", "saliency_context", "--out", str(ckpt),
        ]) == 0
        log_lines = (ckpt / "train_log.csv").read_text().strip().splitlines()
        assert len(log_lines) == 3  # header + 2 epochs

        captions_path = tmp_path / "caps.jsonl"
        assert main([
            "caption", "--ckpt", str(ckpt / "final"), "--manifest", manifest,
            "--split", "test", "--out", str(captions_path),
        ]) == 0
        lines = [json.loads(l) for l in captions_path.read_text().splitlines()]
        assert len(lines) == 2
        assert {"image_id", "caption", "truncated"} <= set(lines[0])

        traces_dir = tmp_path / "traces"
        assert main([
            "trace", "--ckpt", str(ckpt / "final"), "--manifest", manifest,
            "--split", "test", "--out", str(traces_dir), "--alphas",
        ]) == 0
        csvs = sorted(p for p in os.listdir(traces_dir) if p.endswith(".csv"))
        assert len(csvs) == 2
        tensors = [p for p in os.listdir(traces_dir) if p.endswith(".tnsr")]
        assert len(tensors) == 2

    def test_trace_rejects_single_path_checkpoint(self, dataset, run_config, tmp_path):
        _, out_dir = dataset
        ckpt = tmp_path / "run_soft"
        manifest = str(out_dir / "manifest.json")
        assert main([
            "train", "--manifest", manifest, "--config", str(run_config),
            "--variant", "soft", "--out", str(ckpt), "--epochs", "0",
        ]) == 0
        assert main([
            "trace", "--ckpt", str(ckpt / "final"), "--manifest", manifest,
            "--split", "test", "--out", str(tmp_path / "t"),
        ]) == 1


class TestEvaluate:
    def test_self_evaluation_is_perfect(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        sentences = {"a": "a cat in a field", "b": "a dog in a lake"}
        cands.write_text("".join(
            json.dumps({"image_id": i, "caption": s}) + "\n" for i, s in sentences.items()
        ))
        refs.write_text("".join(
            json.dumps({"image_id": i, "references": [s]}) + "\n" for i, s in sentences.items()
        ))
        report_path = tmp_path / "report.json"
        assert main([
            "evaluate", "--candidates", str(cands), "--references", str(refs),
            "--out", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["bleu_4"] == 1.0
        assert report["rouge_l"] == 1.0

    def test_compare_and_novelty(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        other = tmp_path / "o.jsonl"
        train = tmp_path / "t.jsonl"
        cands.write_text(
            json.dumps({"image_id": "a", "caption": "x y"}) + "\n"
            + json.dumps({"image_id": "b", "caption": "p q"}) + "\n"
        )
        refs.write_text(
            json.dumps({"image_id": "a", "references": ["x y"]}) + "\n"
            + json.dumps({"image_id": "b", "references": ["p q"]}) + "\n"
        )
        other.write_text(
            json.dumps({"image_id": "a", "caption": "x y"}) + "\n"
            + json.dumps({"image_id": "b", "caption": "q p"}) + "\n"
        )
        train.write_text(json.dumps({"image_id": "z", "captions": ["x y"]}) + "\n")
        report_path = tmp_path / "report.json"
        assert main([
            "evaluate", "--candidates", str(cands), "--references", str(refs),
            "--out", str(report_path), "--compare", str(other),
            "--train-captions", str(train),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["difference_pct"] == 50.0
        assert report["novelty_pct"] == 50.0

    def test_mismatched_ids_fail_validation(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        cands.write_text(json.dumps({"image_id": "a", "caption": "x"}) + "\n")
        refs.write_text(json.dumps({"image_id": "b", "references": ["x"]}) + "\n")
        assert main([
            "evaluate", "--candidates", str(cands), "--references", str(refs),
            "--out", str(tmp_path / "rep.json"),
        ]) == 1


class TestEvaluateInputErrors:
    """A bad JSONL line exits 1 with a message naming path:line."""

    def _evaluate(self, tmp_path, capsys, candidates, train_captions=None, references=None):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        cands.write_text(candidates)
        refs.write_text(references or "".join(
            json.dumps({"image_id": i, "references": [c]}) + "\n"
            for i, c in (("a", "a cat"), ("b", "a dog"))
        ))
        argv = [
            "evaluate", "--candidates", str(cands), "--references", str(refs),
            "--out", str(tmp_path / "rep.json"),
        ]
        if train_captions is not None:
            train = tmp_path / "t.jsonl"
            train.write_text(train_captions)
            argv += ["--train-captions", str(train)]
        code = main(argv)
        return code, capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        good = json.dumps({"image_id": "a", "caption": "a cat"}) + "\n"
        code, err = self._evaluate(tmp_path, capsys, good + '{"image_id": "b" "caption": "x"}\n')
        assert code == 1
        assert "c.jsonl:2: malformed JSON at column 18" in err

    def test_missing_field(self, tmp_path, capsys):
        code, err = self._evaluate(tmp_path, capsys, json.dumps({"image_id": "a"}) + "\n")
        assert code == 1
        assert "c.jsonl:1: missing field 'caption'" in err

    def test_line_not_an_object(self, tmp_path, capsys):
        cands = "".join(
            json.dumps({"image_id": i, "caption": c}) + "\n"
            for i, c in (("a", "a cat"), ("b", "a dog"))
        )
        code, err = self._evaluate(tmp_path, capsys, cands, train_captions='["a cat"]\n')
        assert code == 1
        assert "t.jsonl:1: expected a JSON object, got list" in err

    def test_image_id_not_a_string(self, tmp_path, capsys):
        code, err = self._evaluate(tmp_path, capsys, '{"image_id": ["a"], "caption": "x"}\n')
        assert code == 1
        assert "c.jsonl:1: image_id must be a string" in err

    def test_duplicate_image_id(self, tmp_path, capsys):
        cands = "".join(
            json.dumps({"image_id": "a", "caption": c}) + "\n" for c in ("a cat", "a dog")
        )
        code, err = self._evaluate(tmp_path, capsys, cands)
        assert code == 1
        assert "c.jsonl:2: duplicate image_id 'a' (first on line 1)" in err

    def test_caption_not_a_string(self, tmp_path, capsys):
        code, err = self._evaluate(tmp_path, capsys, '{"image_id": "a", "caption": 5}\n')
        assert code == 1
        assert "c.jsonl:1: caption must be a string, got 5" in err

    def test_references_not_a_list(self, tmp_path, capsys):
        cands = json.dumps({"image_id": "a", "caption": "a cat"}) + "\n"
        refs = json.dumps({"image_id": "a", "references": "a cat"}) + "\n"
        code, err = self._evaluate(tmp_path, capsys, cands, references=refs)
        assert code == 1
        assert "r.jsonl:1: references must be a non-empty list of strings" in err


class TestAnalyzeSaliency:
    def test_end_to_end(self, tmp_path):
        seg = np.zeros((4, 4), dtype=int)
        seg[:2, :2] = 1
        data_io.write_segm(seg, tmp_path / "img0.segm")
        sal = np.zeros((4, 4), dtype=np.uint8)
        sal[:2, :2] = 255
        data_io.write_pgm(sal, tmp_path / "img0.pgm")
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"0": "bg", "1": "cat"}))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({
            "label_table": "labels.json",
            "pairs": [{"segmentation": "img0.segm", "saliency": "img0.pgm"}],
        }))
        out = tmp_path / "stats"
        assert main([
            "analyze-saliency", "--pairs", str(pairs), "--min-occ", "1",
            "--out", str(out), "--per-pixel",
        ]) == 0
        for name in ("least_salient.csv", "most_salient.csv", "size_saliency.csv", "pixel_saliency.csv"):
            assert (out / name).exists()
        most = (out / "most_salient.csv").read_text().splitlines()
        assert any(line.startswith("cat,1,1,100") for line in most)

    def test_sixteen_bit_pgm_segmentation(self, tmp_path):
        seg = np.zeros((4, 4), dtype=np.uint16)
        seg[0, 0] = 300
        data_io.write_pgm(seg, tmp_path / "img0.pgm", maxval=65535)
        data_io.write_pgm(np.full((4, 4), 255, dtype=np.uint8), tmp_path / "sal0.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({
            "label_table": {"0": "bg", "300": "tower"},
            "pairs": [{"segmentation": "img0.pgm", "saliency": "sal0.pgm"}],
        }))
        out = tmp_path / "stats"
        assert main(["analyze-saliency", "--pairs", str(pairs), "--min-occ", "1", "--out", str(out)]) == 0
        assert "tower" in (out / "most_salient.csv").read_text()


class TestPerPixelExport:
    def test_one_row_per_pixel_at_intensity_over_255(self, tmp_path):
        seg = np.array([[0, 1, 1], [2, 2, 1]])
        sal = np.array([[0, 7, 255], [128, 64, 3]], dtype=np.uint8)
        data_io.write_segm(seg, tmp_path / "img0.segm")
        data_io.write_pgm(sal, tmp_path / "img0.pgm")
        data_io.write_segm(seg[::-1], tmp_path / "img1.segm")
        data_io.write_pgm(sal, tmp_path / "img1.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({
            "label_table": {"0": "bg", "1": "cat", "2": "sky"},
            "pairs": [{"segmentation": "img%d.segm" % i, "saliency": "img%d.pgm" % i}
                      for i in range(2)],
        }))
        out = tmp_path / "stats"
        assert main([
            "analyze-saliency", "--pairs", str(pairs), "--min-occ", "1",
            "--out", str(out), "--per-pixel",
        ]) == 0
        with open(out / "pixel_saliency.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "image", "saliency"]
        expected = []
        for image, labels in enumerate((seg, seg[::-1])):
            for label, name in ((0, "bg"), (1, "cat"), (2, "sky")):
                expected += [[name, str(image), "%.9f" % (v / 255)] for v in sal[labels == label]]
        assert rows[1:] == expected
        assert len(rows) - 1 == 2 * seg.size


class TestMalformedInputs:
    """A malformed JSON input exits 1 naming the file, line and column."""

    def _run(self, capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().err

    def test_manifest(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"grid": {"rows": 2,}}')
        code, err = self._run(capsys, ["train", "--manifest", str(bad), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "%s: malformed JSON at line 1 column 21" % bad in err

    def test_gen_synth_spec(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text('{\n"n_images": 4\n"seed": 1}')
        code, err = self._run(capsys, ["gen-synth", "--spec", str(bad), "--out", str(tmp_path / "d")])
        assert code == 1
        assert "%s: malformed JSON at line 3 column 1" % bad in err

    def test_gen_synth_spec_unknown_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_images": 2, "grid_rows": 2, "grid_cols": 2, "feature_dim": 3,
            "salient_words": ["cat"], "context_words": ["lake"], "seed": 1, "colour": "red",
        }))
        code, err = self._run(capsys, ["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        assert code == 1
        assert str(spec) in err and "'colour'" in err

    def test_pairs_file(self, tmp_path, capsys):
        bad = tmp_path / "pairs.json"
        bad.write_text('{"pairs": [}')
        code, err = self._run(capsys, ["analyze-saliency", "--pairs", str(bad), "--out", str(tmp_path / "s")])
        assert code == 1
        assert "%s: malformed JSON at line 1 column 12" % bad in err

    def test_checkpoint_config(self, dataset, tmp_path, capsys):
        _, out_dir = dataset
        ckpt = tmp_path / "ckpt"
        params = decoder.init_params(decoder.ModelConfig(
            variant="soft", vocab_size=6, hidden_size=4, embed_size=3, feature_size=3,
            raw_feature_size=5, grid_rows=2, grid_cols=2,
        ), rng_seed=0)
        decoder.save_checkpoint(params, ckpt)
        (ckpt / "config.json").write_text('{"variant": "soft",\n\n  "vocab_size": 6,,}')
        code, err = self._run(capsys, [
            "caption", "--ckpt", str(ckpt), "--manifest", str(out_dir / "manifest.json"),
            "--out", str(tmp_path / "c.jsonl"),
        ])
        assert code == 1
        assert "%s: malformed JSON at line 3 column 19" % (ckpt / "config.json") in err


class TestGradCheckCommand:
    def test_fastest_variant_passes(self, capsys):
        assert main(["grad-check", "--variant", "saliency_pooling"]) == 0
        out = capsys.readouterr().out
        assert "grad-check PASS" in out


class TestPeriodicCheckpoints:
    def test_checkpoint_every_epoch(self, dataset, tmp_path):
        _, out_dir = dataset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "hidden_size": 8, "embed_size": 6, "feature_size": 6,
            "min_count": 1, "epochs": 2, "seed": 1, "batch_size": 4,
            "checkpoint_every": 1,
        }))
        ckpt = tmp_path / "run"
        assert main([
            "train", "--manifest", str(out_dir / "manifest.json"),
            "--config", str(cfg), "--variant", "soft", "--out", str(ckpt),
        ]) == 0
        assert (ckpt / "epoch_0001" / "params.json").exists()
        assert (ckpt / "epoch_0002" / "params.json").exists()
        assert (ckpt / "final" / "params.json").exists()


class TestHelp:
    def test_top_level_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("gen-synth", "train", "caption", "trace", "evaluate",
                     "analyze-saliency", "grad-check"):
            assert name in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--manifest", "--config", "--variant", "--out", "--epochs",
                     "--seed", "--batch-size", "--learning-rate", "--optimizer"):
            assert flag in out


class TestErrorPaths:
    def test_unknown_flag_is_validation_failure(self, capsys):
        assert main(["caption", "--nonsense"]) == 1

    def test_missing_manifest(self, tmp_path):
        assert main([
            "caption", "--ckpt", str(tmp_path), "--manifest", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "c.jsonl"),
        ]) == 1

    def test_unknown_config_key(self, dataset, tmp_path):
        _, out_dir = dataset
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hidden_sise": 8}))
        assert main([
            "train", "--manifest", str(out_dir / "manifest.json"),
            "--config", str(bad), "--out", str(tmp_path / "run"),
        ]) == 1

    def test_env_seed_override(self, dataset, run_config, tmp_path, monkeypatch):
        _, out_dir = dataset
        monkeypatch.setenv("SALCAP_SEED", "99")
        ckpt = tmp_path / "env_run"
        assert main([
            "train", "--manifest", str(out_dir / "manifest.json"),
            "--config", str(run_config), "--variant", "soft",
            "--out", str(ckpt), "--epochs", "0",
        ]) == 0
        params, _ = decoder.load_checkpoint(ckpt / "final")
        expected = decoder.init_params(params.config, rng_seed=99)
        npt.assert_array_equal(params.emb.data, expected.emb.data)
