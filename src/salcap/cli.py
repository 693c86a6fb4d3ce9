"""Command-line surface: dataset generation, training, decoding, evaluation.

Exit codes: 0 success, 1 input/validation failure (including a failed
gradient check), 2 unexpected runtime failure.  The environment variable
SALCAP_SEED overrides the configured seed.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from . import data_io, decoder, inference, metrics, optim, salstats
from .attention import VARIANTS
from .data_io import FormatError, SyntheticSpec
from .numerics import ShapeError
from .vocab import build_vocab

DESK_HIDDEN = 64
DESK_EMBED = 32
DESK_FEATURE = 32
DESK_MIN_COUNT = 5


@dataclass
class RunConfig:
    """Training configuration plus model sizes; file values, then flag overrides."""

    train: optim.TrainConfig
    hidden_size: int = DESK_HIDDEN
    embed_size: int = DESK_EMBED
    feature_size: int = DESK_FEATURE
    attention_size: int = 0
    min_count: int = DESK_MIN_COUNT
    variant: str = "saliency_context"

    @classmethod
    def load(cls, path=None, overrides=None):
        values = data_io.read_json(path) if path else {}
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        values.update(overrides)
        if "SALCAP_SEED" in os.environ:
            values["seed"] = int(os.environ["SALCAP_SEED"])
        train_keys = {f.name for f in fields(optim.TrainConfig)}
        model_keys = {f.name for f in fields(cls)} - {"train"}
        unknown = set(values) - train_keys - model_keys
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        train = optim.TrainConfig(**{k: v for k, v in values.items() if k in train_keys})
        return cls(train=train, **{k: v for k, v in values.items() if k in model_keys})


def _model_config(run, manifest, vocab_size):
    return decoder.ModelConfig(
        variant=run.variant,
        vocab_size=vocab_size,
        hidden_size=run.hidden_size,
        embed_size=run.embed_size,
        feature_size=run.feature_size,
        raw_feature_size=manifest.feature_dim,
        grid_rows=manifest.grid_rows,
        grid_cols=manifest.grid_cols,
        attention_size=run.attention_size,
    )


def cmd_gen_synth(args):
    manifest = data_io.gen_synthetic(data_io.read_dataclass(SyntheticSpec, args.spec), args.out)
    print("wrote %d entries to %s" % (len(manifest.entries), args.out))
    return 0


def cmd_train(args):
    overrides = {
        "epochs": args.epochs,
        "seed": args.seed,
        "batch_size": args.batch_size,
        "learning_rate": args.learning_rate,
        "optimizer": args.optimizer,
    }
    if args.variant:
        overrides["variant"] = args.variant
    run = RunConfig.load(args.config, overrides)
    manifest = data_io.load_manifest(args.manifest)
    train_entries = manifest.split_entries("train")
    if not train_entries:
        raise ValueError("manifest has no train split entries")
    vocabulary = build_vocab(
        [c for e in train_entries for c in e.captions], run.min_count
    )
    config = _model_config(run, manifest, len(vocabulary))
    params = decoder.init_params(config, rng_seed=run.train.seed)
    examples = optim.build_examples(manifest, vocabulary, "train", run.train)
    opt_state = optim.OptimizerState()

    def log_rows():
        """Trains one epoch per row, so the log is written as training goes on."""
        for epoch in range(run.train.epochs):
            stats = optim.train_epoch(examples, params, opt_state, run.train, epoch)
            yield [[epoch, "%.9f" % stats.mean_loss, "%.1f" % stats.tokens_per_sec]]
            every = run.train.checkpoint_every
            if every and (epoch + 1) % every == 0:
                decoder.save_checkpoint(
                    params, os.path.join(args.out, "epoch_%04d" % (epoch + 1)), vocabulary
                )

    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train_log.csv")
    data_io.write_csv(["epoch", "mean_loss", "tokens_per_sec"], log_rows(), log_path)
    decoder.save_checkpoint(params, os.path.join(args.out, "final"), vocabulary)
    print("trained %d epochs; checkpoint at %s" % (run.train.epochs, os.path.join(args.out, "final")))
    return 0


def _load_model(ckpt_dir):
    params, vocabulary = decoder.load_checkpoint(ckpt_dir)
    if vocabulary is None:
        raise ValueError("checkpoint %s has no vocab.json" % ckpt_dir)
    return params, vocabulary


def cmd_caption(args):
    params, vocabulary = _load_model(args.ckpt)
    manifest = data_io.load_manifest(args.manifest)
    entries = manifest.split_entries(args.split)
    if not entries:
        raise ValueError("manifest has no %r split entries" % args.split)

    def records():
        for entry in entries:
            raw, sal = data_io.load_entry(manifest, entry)
            result = inference.greedy_decode(raw, sal, params, max_len=args.max_len)
            yield {
                "image_id": entry.id,
                "caption": vocabulary.decode(result.ids),
                "truncated": result.truncated,
            }

    data_io.write_jsonl(records(), args.out)
    print("captioned %d images into %s" % (len(entries), args.out))
    return 0


def cmd_trace(args):
    params, vocabulary = _load_model(args.ckpt)
    manifest = data_io.load_manifest(args.manifest)
    entries = manifest.split_entries(args.split)
    if not entries:
        raise ValueError("manifest has no %r split entries" % args.split)
    os.makedirs(args.out, exist_ok=True)
    for entry in entries:
        raw, sal = data_io.load_entry(manifest, entry)
        _, trace = inference.trace_attention(raw, sal, params, max_len=args.max_len)
        inference.write_trace_csv(trace, vocabulary, os.path.join(args.out, entry.id + ".csv"))
        if args.alphas:
            inference.write_trace_alphas(trace, os.path.join(args.out, entry.id + "_alpha.tnsr"))
    print("traced %d images into %s" % (len(entries), args.out))
    return 0


def _read_by_id(path, field, kind):
    """JSONL of {"image_id", field} -> dict image_id -> value of field (a str or list)."""
    records = data_io.read_jsonl(path, {"image_id": str, field: kind}, key="image_id")
    return {r["image_id"]: r[field] for r in records}


def _read_caption_pool(path):
    """Flatten any JSONL carrying caption/captions/references fields."""
    pool = []
    for obj in data_io.read_jsonl(path, {}):
        if "caption" in obj:
            pool.append(obj["caption"])
        for key in ("captions", "references"):
            pool.extend(obj.get(key, []))
    return pool


def cmd_evaluate(args):
    candidates = _read_by_id(args.candidates, "caption", str)
    references = _read_by_id(args.references, "references", list)
    missing = set(candidates) - set(references)
    if missing:
        raise ValueError("candidates without references: %s" % ", ".join(sorted(missing)))
    corpus = metrics.CaptionCorpus.from_pairs(
        [(i, candidates[i], references[i]) for i in sorted(candidates)]
    )
    report = metrics.evaluate_corpus(corpus, cider_multiplier=args.cider_multiplier)
    report.update(metrics.diversity_stats(list(candidates.values())))
    if args.train_captions:
        report["novelty_pct"] = metrics.novelty_pct(
            list(candidates.values()), _read_caption_pool(args.train_captions)
        )
    if args.compare:
        report["difference_pct"] = metrics.difference_pct(
            candidates, _read_by_id(args.compare, "caption", str)
        )
    data_io.write_json(report, args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_analyze_saliency(args):
    spec = data_io.read_json(args.pairs)
    base = os.path.dirname(os.path.abspath(args.pairs))
    table = spec.get("label_table", {})
    if isinstance(table, str):
        table = data_io.read_json(os.path.join(base, table))
    names = {int(k): v for k, v in table.items()}
    pairs = []
    for item in spec["pairs"]:
        labels, _ = data_io.read_map(
            os.path.join(base, item["segmentation"]), (data_io.SEGM_MAGIC, data_io.PGM_MAGIC)
        )
        seg = salstats.SegmentationMap(labels, names)
        sal = salstats.SaliencyMap(data_io.read_pgm(os.path.join(base, item["saliency"])))
        pairs.append((seg, sal))
    if not pairs:
        raise ValueError("%s lists no pairs" % args.pairs)

    os.makedirs(args.out, exist_ok=True)
    least = salstats.class_hit_rates(pairs, args.threshold_low, args.min_occ, args.min_overlap)
    most = salstats.class_hit_rates(pairs, args.threshold_high, args.min_occ, args.min_overlap)
    salstats.write_hit_rates_csv(least, os.path.join(args.out, "least_salient.csv"))
    salstats.write_hit_rates_csv(most, os.path.join(args.out, "most_salient.csv"))
    points = salstats.size_saliency_distribution(pairs)
    salstats.write_size_saliency_csv(points, os.path.join(args.out, "size_saliency.csv"))
    if args.per_pixel:
        data_io.write_csv(["class", "image", "saliency"], (
            [[name, image, "%.9f" % v] for v in values]
            for _, name, image, values in salstats.pixel_saliency_values(pairs)
        ), os.path.join(args.out, "pixel_saliency.csv"))
    print("analyzed %d pairs into %s" % (len(pairs), args.out))
    return 0


def cmd_grad_check(args):
    seed = int(os.environ.get("SALCAP_SEED", args.seed))
    config = decoder.ModelConfig(
        variant=args.variant,
        vocab_size=12,
        hidden_size=16,
        embed_size=8,
        feature_size=8,
        raw_feature_size=10,
        grid_rows=2,
        grid_cols=3,
    )
    report = optim.grad_check(config, tolerance=args.tolerance, seed=seed)
    for entry in sorted(report.entries, key=lambda e: -e.max_rel_err):
        print("%-24s max_rel_err %.3e" % (entry.name, entry.max_rel_err))
    print(
        "grad-check %s: variant=%s max_rel_err=%.3e tolerance=%.1e"
        % ("PASS" if report.passed else "FAIL", args.variant, report.max_rel_err, report.tolerance)
    )
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="salcap",
        description="Saliency- and context-conditioned attention captioning pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a synthetic dataset")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("train", help="train a captioner")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="run config JSON; flags override file values")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--out", required=True, help="checkpoint/log directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--optimizer", choices=["nadam", "adam"])
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("caption", help="greedy-decode captions for a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", required=True, help="output captions JSONL")
    p.add_argument("--max-len", type=int, default=20, dest="max_len")
    p.set_defaults(fn=cmd_caption)

    p = sub.add_parser("trace", help="per-image attention-path trace CSVs")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-len", type=int, default=20, dest="max_len")
    p.add_argument("--alphas", action="store_true", help="also dump attention tensors")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("evaluate", help="score candidate captions against references")
    p.add_argument("--candidates", required=True, help="JSONL of image_id/caption")
    p.add_argument("--references", required=True, help="JSONL of image_id/references")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--compare", help="second candidates JSONL for difference_pct")
    p.add_argument("--train-captions", dest="train_captions", help="training captions JSONL for novelty_pct")
    p.add_argument("--cider-multiplier", type=float, default=1.0, dest="cider_multiplier")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("analyze-saliency", help="saliency-vs-segmentation statistics")
    p.add_argument("--pairs", required=True, help="pairs JSON (label_table + map paths)")
    p.add_argument("--threshold-low", type=int, default=10, dest="threshold_low")
    p.add_argument("--threshold-high", type=int, default=245, dest="threshold_high")
    p.add_argument("--min-occ", type=int, default=500, dest="min_occ")
    p.add_argument("--min-overlap", type=float, default=0.0, dest="min_overlap")
    p.add_argument("--per-pixel", action="store_true", dest="per_pixel")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_analyze_saliency)

    p = sub.add_parser("grad-check", help="finite-difference check of one variant")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_grad_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; bad flags are validation failures
        if exc.code not in (0, None):
            return 1
        raise
    try:
        return args.fn(args)
    except (ValueError, ShapeError, FormatError, FileNotFoundError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print("unexpected failure: %r" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
