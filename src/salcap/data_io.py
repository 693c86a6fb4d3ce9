"""File formats, dataset manifests, saliency preparation, synthetic data.

Formats (all multi-byte integers little-endian unless noted):

- tensor files: magic ``TNSR``, version u8=1, dtype u8 (0 = float32 LE,
  1 = float64 LE), rank u8, rank x u32 dims, then the row-major payload
- PGM (P5): 8-bit maps, or 16-bit with big-endian samples as in netpbm
- raw segmentation grids: magic ``SEGM``, u32 width, u32 height, then
  width*height u16 labels, row-major
- dataset manifest: JSON with a grid size, a feature dimension and one
  entry per image (paths relative to the manifest file)
"""

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Tensor


class FormatError(ValueError):
    """A file does not conform to its declared format."""


TENSOR_MAGIC = b"TNSR"
TENSOR_VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_tensor(t, path, dtype_code=1):
    t = nm.as_tensor(t)
    if dtype_code not in _DTYPES:
        raise ValueError("unknown tensor dtype code %d" % dtype_code)
    dims = t.data.shape
    header = TENSOR_MAGIC + struct.pack("<BBB", TENSOR_VERSION, dtype_code, len(dims))
    header += struct.pack("<%dI" % len(dims), *dims)
    payload = np.ascontiguousarray(t.data, dtype=_DTYPES[dtype_code]).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_tensor(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TENSOR_MAGIC:
        raise FormatError("%s: bad magic at byte 0 (got %r)" % (path, blob[:4]))
    if len(blob) < 7:
        raise FormatError("%s: truncated header at byte %d" % (path, len(blob)))
    version, dtype_code, rank = struct.unpack_from("<BBB", blob, 4)
    if version != TENSOR_VERSION:
        raise FormatError("%s: unsupported version %d at byte 4" % (path, version))
    if dtype_code not in _DTYPES:
        raise FormatError("%s: unknown dtype code %d at byte 5" % (path, dtype_code))
    offset = 7
    if len(blob) < offset + 4 * rank:
        raise FormatError("%s: truncated dims at byte %d" % (path, len(blob)))
    dims = struct.unpack_from("<%dI" % rank, blob, offset)
    offset += 4 * rank
    if any(d == 0 for d in dims):
        raise FormatError("%s: zero extent in dims %r at byte 7" % (path, list(dims)))
    dtype = _DTYPES[dtype_code]
    expected = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
    actual = len(blob) - offset
    if actual != expected:
        raise FormatError(
            "%s: payload at byte %d holds %d bytes, expected %d" % (path, offset, actual, expected)
        )
    data = np.frombuffer(blob, dtype=dtype, count=int(np.prod(dims, dtype=np.int64)), offset=offset)
    return Tensor(data.astype(np.float64).reshape(dims))


def read_tensor_dims(path):
    """Dims from the header only, without loading the payload."""
    with open(path, "rb") as fh:
        head = fh.read(7)
        if head[:4] != TENSOR_MAGIC or len(head) < 7:
            raise FormatError("%s: bad or truncated header" % path)
        rank = head[6]
        raw = fh.read(4 * rank)
        if len(raw) < 4 * rank:
            raise FormatError("%s: truncated dims" % path)
        return list(struct.unpack("<%dI" % rank, raw))


# ---------------------------------------------------------------------------
# PGM (P5) and raw segmentation grids
# ---------------------------------------------------------------------------

def write_pgm(values, path, maxval=255):
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("PGM needs a 2-D map, got shape %r" % (list(values.shape),))
    if values.min() < 0 or values.max() > maxval:
        raise ValueError("PGM values out of range 0..%d" % maxval)
    header = b"P5\n%d %d\n%d\n" % (values.shape[1], values.shape[0], maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype=dtype).tobytes())


def read_pgm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise FormatError("%s: not a binary PGM (magic %r)" % (path, blob[:2]))

    # header tokens: width, height, maxval; '#' comments run to end of line
    tokens, pos = [], 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise FormatError("%s: truncated PGM header" % path)
        ch = blob[pos:pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos:pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = (int(t) for t in tokens)
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise FormatError("%s: bad PGM dimensions %dx%d maxval %d" % (path, width, height, maxval))
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = width * height * dtype.itemsize
    if len(blob) - pos != expected:
        raise FormatError(
            "%s: PGM payload at byte %d holds %d bytes, expected %d"
            % (path, pos, len(blob) - pos, expected)
        )
    data = np.frombuffer(blob, dtype=dtype, count=width * height, offset=pos)
    return data.reshape(height, width).astype(np.uint16 if maxval > 255 else np.uint8)


SEGM_MAGIC = b"SEGM"


def write_segm(labels, path):
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("segmentation grid must be 2-D")
    if labels.min() < 0 or labels.max() > 0xFFFF:
        raise ValueError("labels must fit in u16")
    height, width = labels.shape
    with open(path, "wb") as fh:
        fh.write(SEGM_MAGIC + struct.pack("<II", width, height))
        fh.write(np.ascontiguousarray(labels, dtype="<u2").tobytes())


def read_segm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SEGM_MAGIC:
        raise FormatError("%s: bad magic at byte 0 (got %r)" % (path, blob[:4]))
    if len(blob) < 12:
        raise FormatError("%s: truncated header at byte %d" % (path, len(blob)))
    width, height = struct.unpack_from("<II", blob, 4)
    expected = width * height * 2
    if len(blob) - 12 != expected:
        raise FormatError(
            "%s: payload at byte 12 holds %d bytes, expected %d" % (path, len(blob) - 12, expected)
        )
    data = np.frombuffer(blob, dtype="<u2", count=width * height, offset=12)
    return data.reshape(height, width).astype(np.int64)


# ---------------------------------------------------------------------------
# saliency grid preparation
# ---------------------------------------------------------------------------

def _axis_overlap_weights(src, dst):
    """Weight of each source pixel interval inside each target cell interval."""
    weights = np.zeros((dst, src))
    cell = src / dst
    for r in range(dst):
        lo, hi = r * cell, (r + 1) * cell
        for i in range(int(np.floor(lo)), min(int(np.ceil(hi)), src)):
            weights[r, i] = min(hi, i + 1) - max(lo, i)
    return weights


def prepare_saliency(source, rows, cols):
    """Area-average a saliency map down to a rows x cols grid, flattened row-major.

    8-bit inputs (integer arrays, e.g. from PGM) are divided by 255;
    float inputs are taken as already normalized to [0,1].
    """
    from .attention import SaliencyGrid

    if hasattr(source, "intensity"):  # salstats.SaliencyMap
        source = source.intensity
    if isinstance(source, Tensor):
        source = source.data
    source = np.asarray(source)
    if source.ndim != 2:
        raise ValueError("saliency source must be 2-D, got shape %r" % (list(source.shape),))
    eight_bit = np.issubdtype(source.dtype, np.integer)
    source = source.astype(np.float64)
    if source.shape[0] < rows or source.shape[1] < cols:
        raise ValueError(
            "saliency source %r is smaller than the %dx%d grid"
            % (list(source.shape), rows, cols)
        )
    w_rows = _axis_overlap_weights(source.shape[0], rows)
    w_cols = _axis_overlap_weights(source.shape[1], cols)
    cell_area = (source.shape[0] / rows) * (source.shape[1] / cols)
    means = (w_rows @ source @ w_cols.T) / cell_area
    if eight_bit:
        means = means / 255.0
    return SaliencyGrid(means.reshape(-1))


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

VALID_SPLITS = ("train", "val", "test")


@dataclass
class ManifestEntry:
    id: str
    features: str
    saliency: str
    captions: list
    split: str


@dataclass
class DatasetManifest:
    grid_rows: int
    grid_cols: int
    feature_dim: int
    entries: list
    base_dir: str = "."

    @property
    def num_locations(self):
        return self.grid_rows * self.grid_cols

    def split_entries(self, split):
        return [e for e in self.entries if e.split == split]

    def resolve(self, relpath):
        return os.path.join(self.base_dir, relpath)


def load_manifest(path):
    """Load and validate a manifest, rejecting on the first violation."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    try:
        grid = obj["grid"]
        manifest = DatasetManifest(
            grid_rows=int(grid["rows"]),
            grid_cols=int(grid["cols"]),
            feature_dim=int(obj["feature_dim"]),
            entries=[ManifestEntry(**e) for e in obj["entries"]],
            base_dir=base,
        )
    except (KeyError, TypeError) as exc:
        raise FormatError("%s: malformed manifest (%s)" % (path, exc)) from exc
    if manifest.grid_rows < 1 or manifest.grid_cols < 1 or manifest.feature_dim < 1:
        raise FormatError("%s: non-positive grid or feature dimension" % path)
    seen = set()
    for entry in manifest.entries:
        if entry.id in seen:
            raise FormatError("%s: duplicate entry id %r" % (path, entry.id))
        seen.add(entry.id)
        if entry.split not in VALID_SPLITS:
            raise FormatError("%s: entry %r has unknown split %r" % (path, entry.id, entry.split))
        if not entry.captions:
            raise FormatError("%s: entry %r has no captions" % (path, entry.id))
        fpath = manifest.resolve(entry.features)
        dims = read_tensor_dims(fpath)
        if len(dims) != 2 or dims[0] != manifest.num_locations or dims[1] != manifest.feature_dim:
            raise FormatError(
                "%s: features %r have dims %r, expected [%d, %d]"
                % (path, entry.features, dims, manifest.num_locations, manifest.feature_dim)
            )
        if not os.path.exists(manifest.resolve(entry.saliency)):
            raise FormatError("%s: saliency file %r missing" % (path, entry.saliency))
    return manifest


def read_jsonl(path, fields=(), key=None):
    """The JSON objects of a JSON-lines file, one per non-blank line.

    Every line must be an object holding each name in ``fields``.  With
    ``key``, that field must be a string no other line repeats.  The
    first line that breaks a rule raises FormatError naming path:line.
    """
    records = []
    first_seen = {}
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = "%s:%d" % (path, number)
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(
                    "%s: malformed JSON at column %d (%s)" % (where, exc.colno, exc.msg)
                ) from exc
            if not isinstance(obj, dict):
                raise FormatError("%s: expected a JSON object, got %s" % (where, type(obj).__name__))
            missing = [name for name in fields if name not in obj]
            if missing:
                raise FormatError("%s: missing field %s" % (where, ", ".join(map(repr, missing))))
            if key is not None:
                value = obj[key]
                if not isinstance(value, str):
                    raise FormatError("%s: %s must be a string, got %r" % (where, key, value))
                if value in first_seen:
                    raise FormatError(
                        "%s: duplicate %s %r (first on line %d)"
                        % (where, key, value, first_seen[value])
                    )
                first_seen[value] = number
            records.append(obj)
    return records


def load_entry(manifest, entry):
    """(raw feature array [L x D_raw], SaliencyGrid) for one manifest entry."""
    raw = read_tensor(manifest.resolve(entry.features)).data
    spath = manifest.resolve(entry.saliency)
    if spath.endswith(".pgm"):
        smap = read_pgm(spath)
    else:
        smap = read_tensor(spath).data
    grid = prepare_saliency(smap, manifest.grid_rows, manifest.grid_cols)
    return raw, grid


# ---------------------------------------------------------------------------
# synthetic dataset generation
# ---------------------------------------------------------------------------

# The base template is short; the variants are deliberately long so the
# unavoidable one-bit choice between a picture's captions is spread over
# many teacher-forced tokens, keeping the per-token loss floor low.  The
# salient word always appears in the first half of a caption and the
# context word in the second half.
CAPTION_TEMPLATES = (
    "a {sal} in a {ctx}",
    "the {sal} sits there and looks around in the big {ctx}",
    "a photo of a {sal} standing there near a small {ctx}",
)

SALIENT_INTENSITY = 230
BACKGROUND_INTENSITY = 20
SIGNATURE_SCALE = 2.5


@dataclass
class SyntheticSpec:
    n_images: int
    grid_rows: int
    grid_cols: int
    feature_dim: int
    salient_words: list
    context_words: list
    seed: int
    split_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_images < 1 or self.grid_rows < 1 or self.grid_cols < 1 or self.feature_dim < 1:
            raise ValueError("synthetic spec sizes must be positive")
        if not self.salient_words or not self.context_words:
            raise ValueError("synthetic spec needs non-empty word template lists")
        if not self.split_counts:
            self.split_counts = {"train": self.n_images}
        if sum(self.split_counts.values()) != self.n_images:
            raise ValueError("split counts must sum to n_images")
        for split in self.split_counts:
            if split not in VALID_SPLITS:
                raise ValueError("unknown split %r" % split)

    def to_json(self):
        return {
            "n_images": self.n_images,
            "grid_rows": self.grid_rows,
            "grid_cols": self.grid_cols,
            "feature_dim": self.feature_dim,
            "salient_words": self.salient_words,
            "context_words": self.context_words,
            "seed": self.seed,
            "split_counts": self.split_counts,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(**obj)


def _word_signature(seed, group, index, dim):
    rng = np.random.default_rng(np.random.SeedSequence([seed, group, index]))
    return rng.normal(0.0, 1.0, dim) * SIGNATURE_SCALE


def _corner_block(rows, cols, corner):
    """Cell index set of a quadrant-sized block anchored at one of 4 corners."""
    br, bc = max(1, (rows + 1) // 2), max(1, (cols + 1) // 2)
    r0 = 0 if corner in (0, 1) else rows - br
    c0 = 0 if corner in (0, 2) else cols - bc
    idx = []
    for r in range(r0, r0 + br):
        for c in range(c0, c0 + bc):
            idx.append(r * cols + c)
    return idx


def synthetic_captions(salient_word, context_word, image_index):
    """Template captions for one image: the base template plus 1-2 variants.

    Every extra caption costs ln(k) nats per caption at the teacher-forced
    optimum, so the second variant is handed out sparingly.
    """
    captions = [CAPTION_TEMPLATES[0].format(sal=salient_word, ctx=context_word)]
    variant = CAPTION_TEMPLATES[1] if image_index % 2 == 0 else CAPTION_TEMPLATES[2]
    captions.append(variant.format(sal=salient_word, ctx=context_word))
    if image_index % 16 == 0:
        other = CAPTION_TEMPLATES[2] if image_index % 2 == 0 else CAPTION_TEMPLATES[1]
        captions.append(other.format(sal=salient_word, ctx=context_word))
    return captions


def caption_matches_templates(caption, spec):
    """True iff the caption instantiates one template with spec word lists."""
    for template in CAPTION_TEMPLATES:
        for sal in spec.salient_words:
            for ctx in spec.context_words:
                if caption == template.format(sal=sal, ctx=ctx):
                    return True
    return False


def gen_synthetic(spec, out_dir):
    """Write a deterministic synthetic dataset tree and return its manifest.

    Each image pairs one salient word with one context word.  The word
    signatures are planted on two disjoint corner blocks of the feature
    grid; the saliency map is high exactly on the salient block, so the
    salient word is recoverable only through high-saliency locations.
    """
    rng = np.random.default_rng(spec.seed)
    rows, cols, dim = spec.grid_rows, spec.grid_cols, spec.feature_dim
    n_sal, n_ctx = len(spec.salient_words), len(spec.context_words)

    # balanced word pairing, then a seed-determined order
    pair_indices = [(k % n_sal, (k + k // n_sal) % n_ctx) for k in range(spec.n_images)]
    rng.shuffle(pair_indices)

    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "saliency"), exist_ok=True)

    split_order = []
    for split in VALID_SPLITS:
        split_order.extend([split] * spec.split_counts.get(split, 0))

    entries = []
    for i, (si, ci) in enumerate(pair_indices):
        sal_word, ctx_word = spec.salient_words[si], spec.context_words[ci]
        corner = int(rng.integers(0, 4))
        sal_block = _corner_block(rows, cols, corner)
        ctx_block = _corner_block(rows, cols, 3 - corner)  # diagonally opposite

        features = rng.normal(0.0, 1.0, (rows * cols, dim))
        features[sal_block] += _word_signature(spec.seed, 0, si, dim)
        features[ctx_block] += _word_signature(spec.seed, 1, ci, dim)

        saliency = np.full((rows, cols), BACKGROUND_INTENSITY, dtype=np.uint8)
        for cell in sal_block:
            saliency[cell // cols, cell % cols] = SALIENT_INTENSITY

        image_id = "img_%03d" % i
        fpath = os.path.join("features", image_id + ".tnsr")
        spath = os.path.join("saliency", image_id + ".pgm")
        write_tensor(Tensor(features), os.path.join(out_dir, fpath))
        write_pgm(saliency, os.path.join(out_dir, spath))
        entries.append(
            {
                "id": image_id,
                "features": fpath,
                "saliency": spath,
                "captions": synthetic_captions(sal_word, ctx_word, i),
                "split": split_order[i],
            }
        )

    manifest_obj = {
        "grid": {"rows": rows, "cols": cols},
        "feature_dim": dim,
        "entries": entries,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest_obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return load_manifest(manifest_path)


DEFAULT_SALIENT_WORDS = ["cat", "dog", "bird", "car", "boat", "horse"]
DEFAULT_CONTEXT_WORDS = ["field", "beach", "room", "street", "forest", "lake"]


def default_synthetic_spec(n_images=32, seed=42, grid_rows=5, grid_cols=5, feature_dim=48):
    return SyntheticSpec(
        n_images=n_images,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        feature_dim=feature_dim,
        salient_words=list(DEFAULT_SALIENT_WORDS),
        context_words=list(DEFAULT_CONTEXT_WORDS),
        seed=seed,
    )
