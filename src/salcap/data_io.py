"""Every file salcap reads or writes, and the synthetic dataset generator.

No other module opens a file.  A file that breaks its format raises
FormatError naming the file and the byte offset, or line and column.
Formats (all multi-byte integers little-endian unless noted):

- tensor files: magic ``TNSR``, version u8=1, dtype u8 (0 = float32 LE,
  1 = float64 LE), rank u8, rank x u32 dims, then the row-major payload
- PGM (P5): 8-bit maps, or 16-bit with big-endian samples as in netpbm;
  a saliency map is scaled to [0,1] by its own maxval
- raw segmentation grids: magic ``SEGM``, u32 width, u32 height, then
  width*height u16 labels, row-major
- JSON (indent 2, sorted keys, trailing newline), JSON lines and CSV
- dataset manifest: JSON with a grid size, a feature dimension and one
  entry per image (paths relative to the manifest file)
"""

import csv
import dataclasses
import json
import math
import os
import re
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics as nm
from .attention import SaliencyGrid
from .numerics import Tensor


class FormatError(ValueError):
    """A file does not conform to its declared format."""


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _check_payload(path, offset, actual, expected):
    if actual != expected:
        raise FormatError("%s: payload at byte %d holds %d bytes, expected %d"
                          % (path, offset, actual, expected))


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


def _tensor_header(head, size, path):
    """(dims, dtype, payload offset) of a file of ``size`` bytes starting with ``head``."""
    if head[:4] != TENSOR_MAGIC:
        raise FormatError("%s: bad magic at byte 0 (got %r)" % (path, head[:4]))
    if len(head) < 7:
        raise FormatError("%s: truncated header at byte %d" % (path, len(head)))
    version, dtype_code, rank = struct.unpack_from("<BBB", head, 4)
    if version != TENSOR_VERSION:
        raise FormatError("%s: unsupported version %d at byte 4" % (path, version))
    if dtype_code not in _DTYPES:
        raise FormatError("%s: unknown dtype code %d at byte 5" % (path, dtype_code))
    offset = 7 + 4 * rank
    if len(head) < offset:
        raise FormatError("%s: truncated dims at byte %d" % (path, len(head)))
    dims = struct.unpack_from("<%dI" % rank, head, 7)
    if any(d == 0 for d in dims):
        raise FormatError("%s: zero extent in dims %r at byte 7" % (path, list(dims)))
    dtype = _DTYPES[dtype_code]
    _check_payload(path, offset, size - offset, math.prod(dims) * dtype.itemsize)
    return dims, dtype, offset


def _parse_tensor(blob, path):
    dims, dtype, offset = _tensor_header(blob, len(blob), path)
    return np.frombuffer(blob, dtype=dtype, offset=offset).astype(np.float64).reshape(dims)


def read_tensor(path):
    return Tensor(_parse_tensor(_read_bytes(path), path))


def read_tensor_dims(path):
    """Dims from the header only, without loading the payload."""
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(7 + 4 * 255)  # the longest header
        size = fh.seek(0, os.SEEK_END)
    return list(_tensor_header(head, size, path)[0])


# ---------------------------------------------------------------------------
# PGM (P5) and raw segmentation grids
# ---------------------------------------------------------------------------

PGM_MAGIC = b"P5"


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


# width, height and maxval, each after whitespace or '#' comments, then one whitespace byte
_PGM_HEADER = re.compile(PGM_MAGIC + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def _parse_pgm(blob, path):
    """(samples, maxval); samples are uint8, or uint16 when maxval > 255."""
    if blob[:2] != PGM_MAGIC:
        raise FormatError("%s: not a binary PGM (magic %r)" % (path, blob[:2]))
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise FormatError("%s: PGM header at byte 2 is not width, height and maxval" % path)
    width, height, maxval = (int(t) for t in header.groups())
    pos = header.end()
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise FormatError("%s: bad PGM dimensions %dx%d maxval %d" % (path, width, height, maxval))
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    _check_payload(path, pos, len(blob) - pos, width * height * dtype.itemsize)
    data = np.frombuffer(blob, dtype=dtype, offset=pos)
    return data.reshape(height, width).astype(np.uint16 if maxval > 255 else np.uint8), maxval


def read_pgm(path):
    return _parse_pgm(_read_bytes(path), path)[0]


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


def _parse_segm(blob, path):
    if blob[:4] != SEGM_MAGIC:
        raise FormatError("%s: bad magic at byte 0 (got %r)" % (path, blob[:4]))
    if len(blob) < 12:
        raise FormatError("%s: truncated header at byte %d" % (path, len(blob)))
    width, height = struct.unpack_from("<II", blob, 4)
    _check_payload(path, 12, len(blob) - 12, width * height * 2)
    return np.frombuffer(blob, dtype="<u2", offset=12).reshape(height, width).astype(np.int64)


def read_segm(path):
    return _parse_segm(_read_bytes(path), path)


def read_map(path, kinds):
    """(values, maxval) of a map file in one of the formats whose magics ``kinds`` lists.

    maxval is a PGM's own; it is None for tensor values and SEGM labels.
    """
    blob = _read_bytes(path)
    if not any(blob.startswith(magic) for magic in kinds):
        raise FormatError("%s: bad magic at byte 0 (got %r, expected %s)"
                          % (path, blob[:4], " or ".join(repr(m) for m in kinds)))
    if blob.startswith(PGM_MAGIC):
        return _parse_pgm(blob, path)
    return (_parse_tensor if blob.startswith(TENSOR_MAGIC) else _parse_segm)(blob, path), None


# ---------------------------------------------------------------------------
# JSON, JSON lines and CSV
# ---------------------------------------------------------------------------

def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("%s: malformed JSON at line %d column %d (%s)"
                              % (path, exc.lineno, exc.colno, exc.msg)) from exc


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dataclass(cls, path):
    """cls(**obj) for the JSON object in a file; a key or value cls rejects names the file."""
    obj = read_json(path)
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise FormatError("%s: %s" % (path, exc)) from exc


def _check_fields(where, obj, types):
    """Each field of ``types`` is in obj: ``str`` a string, ``list`` a non-empty string list."""
    missing = [name for name in types if name not in obj]
    if missing:
        raise FormatError("%s: missing field %s" % (where, ", ".join(map(repr, missing))))
    for name, kind in types.items():
        value = obj[name]
        if kind is str and not isinstance(value, str):
            raise FormatError("%s: %s must be a string, got %r" % (where, name, value))
        if kind is list and not (
            isinstance(value, list) and value and all(isinstance(v, str) for v in value)
        ):
            raise FormatError(
                "%s: %s must be a non-empty list of strings, got %r" % (where, name, value)
            )


def read_jsonl(path, fields, key=None):
    """The JSON objects of a JSON-lines file, one per non-blank line.

    Every line must be an object holding each field of ``fields``, a dict
    of name -> ``str`` or ``list`` (see _check_fields).  With ``key``, a
    ``str`` field, no two lines may share its value.  The first line that
    breaks a rule raises FormatError naming path:line.
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
            _check_fields(where, obj, fields)
            if key is not None:
                if obj[key] in first_seen:
                    raise FormatError(
                        "%s: duplicate %s %r (first on line %d)"
                        % (where, key, obj[key], first_seen[obj[key]])
                    )
                first_seen[obj[key]] = number
            records.append(obj)
    return records


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_csv(header, row_groups, path):
    """Header, then row groups, each flushed once written: a log written as it runs stays whole."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rows in row_groups:
            writer.writerows(rows)
            fh.flush()


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

    Float inputs are taken as already normalized to [0,1]; integer arrays
    are 8-bit intensities and are divided by 255 first.
    """
    source = np.asarray(source)
    if source.ndim != 2:
        raise ValueError("saliency source must be 2-D, got shape %r" % (list(source.shape),))
    if np.issubdtype(source.dtype, np.integer):
        source = source / 255.0
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
    obj = read_json(path)
    base = os.path.dirname(os.path.abspath(path))
    # each entry field is a string, except captions: a non-empty list of strings
    entry_fields = {f.name: f.type for f in dataclasses.fields(ManifestEntry)}
    try:
        grid = obj["grid"]
        for index, e in enumerate(obj["entries"]):
            _check_fields("%s: entry %d" % (path, index), e, entry_fields)
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


def load_entry(manifest, entry):
    """(raw feature array [L x D_raw], SaliencyGrid); a PGM map is divided by its maxval."""
    raw = read_tensor(manifest.resolve(entry.features)).data
    values, maxval = read_map(manifest.resolve(entry.saliency), (PGM_MAGIC, TENSOR_MAGIC))
    if maxval is not None:
        values = values / maxval
    return raw, prepare_saliency(values, manifest.grid_rows, manifest.grid_cols)


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
        return asdict(self)

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
    write_json(manifest_obj, manifest_path)
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
