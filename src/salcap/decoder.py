"""The generative captioner: feature projection, embeddings, LSTM, output layer.

Per timestep (``step``) the decoder attends over the feature grid using
the state h_{t-1}, embeds the previous word, runs one LSTM step on
(v_hat, w, h_{t-1}) and maps h_t through W_p to a softmax over the
vocabulary.
"""

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import attention, data_io
from . import numerics as nm
from .attention import AttentionParams, AttentionPathParams, FeatureGrid, VARIANTS
from .numerics import ParamStore, ShapeError
from .vocab import Vocabulary

GATES = "ifog"


@dataclass
class ModelConfig:
    variant: str
    vocab_size: int
    hidden_size: int
    embed_size: int
    feature_size: int
    raw_feature_size: int
    grid_rows: int
    grid_cols: int
    attention_size: int = 0  # 0 means: use feature_size

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError("unknown attention variant %r" % (self.variant,))
        sizes = (
            self.vocab_size,
            self.hidden_size,
            self.embed_size,
            self.feature_size,
            self.raw_feature_size,
            self.grid_rows,
            self.grid_cols,
        )
        if any(int(s) <= 0 for s in sizes):
            raise ValueError("model sizes must be positive: %r" % (sizes,))
        if self.attention_size == 0:
            self.attention_size = self.feature_size
        if self.attention_size < 0:
            raise ValueError("attention_size must be positive")

    @property
    def num_locations(self):
        return self.grid_rows * self.grid_cols


class LstmState:
    """Hidden state h and memory cell c, zeros at sequence start."""

    def __init__(self, h, c):
        self.h = h
        self.c = c

    @classmethod
    def initial(cls, hidden_size):
        return cls(nm.constant(np.zeros(hidden_size)), nm.constant(np.zeros(hidden_size)))


class LstmParams:
    """Per-gate weight matrices W_v (H x D), W_w (H x E), W_h (H x H) and bias."""

    def __init__(self, w_v, w_w, w_h, b):
        self.w_v = w_v
        self.w_w = w_w
        self.w_h = w_h
        self.b = b


class DecoderParams:
    """All learned tensors, registered in a ParamStore under stable names."""

    def __init__(self, config, store, proj_w, proj_b, emb, w_p, lstm, attention):
        self.config = config
        self.store = store
        self.proj_w = proj_w
        self.proj_b = proj_b
        self.emb = emb
        self.w_p = w_p
        self.lstm = lstm
        self.attention = attention


def _orthogonal(rng, rows, cols):
    """Semi-orthogonal matrix from the QR of a Gaussian draw, sign-corrected."""
    g = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q)


def _glorot_uniform(rng, rows, cols):
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _gaussian(rng, rows, cols):
    return rng.normal(0.0, 0.01, size=(rows, cols))


def init_params(config, rng_seed):
    """Deterministic parameter initialization.

    Input-side matrices are N(0, 0.01^2); matrices applied to the
    recurrent state are (semi-)orthogonal; v_e vectors and all biases
    start at zero; the feature projection is Glorot-uniform.
    """
    rng = np.random.default_rng(rng_seed)
    store = ParamStore()
    h, e, d, d_att = (
        config.hidden_size,
        config.embed_size,
        config.feature_size,
        config.attention_size,
    )

    proj_w = store.add("proj.W", _glorot_uniform(rng, d, config.raw_feature_size))
    proj_b = store.add("proj.b", np.zeros(d))
    emb = store.add("emb", _gaussian(rng, config.vocab_size, e))
    w_p = store.add("out.W_p", _gaussian(rng, config.vocab_size, h))

    w_v, w_w, w_h, b = {}, {}, {}, {}
    for gate in GATES:
        w_v[gate] = store.add("lstm.W_v.%s" % gate, _gaussian(rng, h, d))
        w_w[gate] = store.add("lstm.W_w.%s" % gate, _gaussian(rng, h, e))
        w_h[gate] = store.add("lstm.W_h.%s" % gate, _orthogonal(rng, h, h))
        b[gate] = store.add("lstm.b.%s" % gate, np.zeros(h))
    lstm = LstmParams(w_v, w_w, w_h, b)

    def new_path(prefix, w_ae=None, w_he=None):
        if w_ae is None:
            w_ae = store.add("%s.W_ae" % prefix, _gaussian(rng, d_att, d))
            w_he = store.add("%s.W_he" % prefix, _orthogonal(rng, d_att, h))
        v_e = store.add("%s.v_e" % prefix, np.zeros(d_att))
        return AttentionPathParams(w_ae, w_he, v_e)

    variant = config.variant
    if variant in ("soft", "attention_on_saliency"):
        attention = AttentionParams(variant, single=new_path("att.single"))
    elif variant == "saliency_context":
        attention = AttentionParams(variant, sal=new_path("att.sal"), ctx=new_path("att.ctx"))
    elif variant == "shared_weights":
        shared_ae = store.add("att.shared.W_ae", _gaussian(rng, d_att, d))
        shared_he = store.add("att.shared.W_he", _orthogonal(rng, d_att, h))
        sal = new_path("att.sal", w_ae=shared_ae, w_he=shared_he)
        ctx = new_path("att.ctx", w_ae=shared_ae, w_he=shared_he)
        attention = AttentionParams(variant, sal=sal, ctx=ctx)
    else:  # saliency_pooling
        attention = AttentionParams(variant)

    return DecoderParams(config, store, proj_w, proj_b, emb, w_p, lstm, attention)


def project_features(raw, params):
    """Per-location a_i = relu(proj_W raw_i + proj_b); the 1x1-conv reduction."""
    raw = nm.as_tensor(raw)
    if raw.data.ndim != 2 or raw.data.shape[1] != params.proj_w.data.shape[1]:
        raise ShapeError(
            "raw features %r do not match projection %r" % (raw.dims, params.proj_w.dims)
        )
    projected = nm.add_rowvec(nm.matmul(raw, nm.transpose(params.proj_w)), params.proj_b)
    return FeatureGrid(nm.relu(projected))


def embed_word(token_id, params):
    return nm.row(params.emb, token_id)


def lstm_step(v_hat, w, state, p):
    """One LSTM step on (visual input v_hat, word embedding w, previous state)."""

    def preact(gate):
        s = nm.add(nm.matmul(p.w_v[gate], v_hat), nm.matmul(p.w_w[gate], w))
        return nm.add(nm.add(s, nm.matmul(p.w_h[gate], state.h)), p.b[gate])

    i = nm.sigmoid(preact("i"))
    f = nm.sigmoid(preact("f"))
    o = nm.sigmoid(preact("o"))
    g = nm.tanh(preact("g"))
    c = nm.add(nm.hadamard(f, state.c), nm.hadamard(i, g))
    h = nm.hadamard(o, nm.tanh(c))
    return LstmState(h, c)


def output_distribution(h, params):
    """Softmax over vocabulary logits W_p h."""
    return nm.softmax_vec(nm.matmul(params.w_p, h))


def step(params, grid, sal, state, prev_id):
    """One timestep from state h_{t-1} and the previous word id.

    Returns the attention output, the new LSTM state and the word
    distribution.  Training, decoding and tracing all run this step.
    """
    out = attention.attend(params.config.variant, grid, sal, state.h, params.attention)
    state = lstm_step(out.v_hat, embed_word(prev_id, params), state, params.lstm)
    return out, state, output_distribution(state.h, params)


# ---------------------------------------------------------------------------
# checkpoint format: directory with params.json + one tensor file per slot
# ---------------------------------------------------------------------------

def save_checkpoint(params, directory, vocabulary=None):
    os.makedirs(directory, exist_ok=True)
    index = []
    for slot in params.store.slots():
        fname = slot.name.replace(".", "_") + ".tnsr"
        data_io.write_tensor(nm.as_tensor(slot.value.data), os.path.join(directory, fname))
        index.append({"name": slot.name, "dims": slot.value.dims, "file": fname})
    data_io.write_json(index, os.path.join(directory, "params.json"))
    data_io.write_json(asdict(params.config), os.path.join(directory, "config.json"))
    if vocabulary is not None:
        vocabulary.save(os.path.join(directory, "vocab.json"))


def load_checkpoint(directory):
    """Rebuild DecoderParams (and the vocabulary, if stored) from a checkpoint."""
    config = data_io.read_dataclass(ModelConfig, os.path.join(directory, "config.json"))
    params = init_params(config, rng_seed=0)
    seen = set()
    for entry in data_io.read_json(os.path.join(directory, "params.json")):
        if entry["name"] not in params.store:
            raise ValueError("checkpoint %s: unknown parameter %r" % (directory, entry["name"]))
        slot = params.store[entry["name"]]
        tensor = data_io.read_tensor(os.path.join(directory, entry["file"]))
        if tensor.dims != slot.value.dims:
            raise ValueError(
                "checkpoint dims %r for %r do not match model dims %r"
                % (tensor.dims, entry["name"], slot.value.dims)
            )
        slot.value.data[...] = tensor.data
        seen.add(entry["name"])
    missing = set(params.store.names()) - seen
    if missing:
        raise ValueError("checkpoint is missing parameters: %s" % ", ".join(sorted(missing)))
    vocab_path = os.path.join(directory, "vocab.json")
    vocabulary = Vocabulary.load(vocab_path) if os.path.exists(vocab_path) else None
    return params, vocabulary
