"""The generative captioner: feature projection, embeddings, LSTM, output layer.

Per timestep (``step``) the decoder attends over the L x D features using
the state h_{t-1}, embeds the previous word, runs one LSTM step on
(v_hat, w, h_{t-1}) and maps h_t through W_p to a softmax over the
vocabulary.
"""

import os
import shutil
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import attention, data_io
from . import numerics as nm
from .attention import PATHS, VARIANTS, AttentionParams, AttentionPathParams
from .data_io import FormatError
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
        for name, least in (("vocab_size", 1), ("hidden_size", 1), ("embed_size", 1),
                            ("feature_size", 1), ("raw_feature_size", 1), ("grid_rows", 1),
                            ("grid_cols", 1), ("attention_size", 0)):
            data_io.at_least(name, getattr(self, name), least)
        if self.attention_size == 0:
            self.attention_size = self.feature_size

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
        return cls(nm.Tensor(np.zeros(hidden_size)), nm.Tensor(np.zeros(hidden_size)))


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


def _zeros(rng, *dims):
    return np.zeros(dims)


def _param_specs(config):
    """(name, init, dims) of every parameter, in store order."""
    h, e, d = config.hidden_size, config.embed_size, config.feature_size
    d_att = config.attention_size
    specs = [("proj.W", _glorot_uniform, (d, config.raw_feature_size)),
             ("proj.b", _zeros, (d,)),
             ("emb", _gaussian, (config.vocab_size, e)),
             ("out.W_p", _gaussian, (config.vocab_size, h))]
    for gate in GATES:
        specs += [("lstm.W_v.%s" % gate, _gaussian, (h, d)),
                  ("lstm.W_w.%s" % gate, _gaussian, (h, e)),
                  ("lstm.W_h.%s" % gate, _orthogonal, (h, h)),
                  ("lstm.b.%s" % gate, _zeros, (h,))]
    stored = set()
    for weights, v_e, _ in PATHS[config.variant].values():
        if weights not in stored:  # a shared pair once, before the first v_e
            stored.add(weights)
            specs += [("%s.W_ae" % weights, _gaussian, (d_att, d)),
                      ("%s.W_he" % weights, _orthogonal, (d_att, h))]
        specs.append(("%s.v_e" % v_e, _zeros, (d_att,)))
    return specs


def _build_params(config, value):
    """DecoderParams, each parameter named once and holding ``value(name, init, *dims)``.

    ``value`` is called in store order, so ``init_params`` draws every
    value from its one rng stream in that order; the store is built once.
    """
    store = ParamStore([(name, value(name, init, *dims))
                        for name, init, dims in _param_specs(config)])

    def leaf(name):
        return store[name].value

    lstm = LstmParams(*({gate: leaf("lstm.%s.%s" % (kind, gate)) for gate in GATES}
                        for kind in ("W_v", "W_w", "W_h", "b")))

    attention = AttentionParams(config.variant, **{
        field: AttentionPathParams(leaf(weights + ".W_ae"), leaf(weights + ".W_he"),
                                   leaf(v_e + ".v_e"))
        for field, (weights, v_e, _) in PATHS[config.variant].items()})
    return DecoderParams(config, store, leaf("proj.W"), leaf("proj.b"), leaf("emb"),
                         leaf("out.W_p"), lstm, attention)


def init_params(config, rng_seed):
    """Deterministic parameter initialization.

    Input-side matrices are N(0, 0.01^2); matrices applied to the
    recurrent state are (semi-)orthogonal; v_e vectors and all biases
    start at zero; the feature projection is Glorot-uniform.
    """
    rng = np.random.default_rng(rng_seed)
    return _build_params(config, lambda name, init, *dims: init(rng, *dims))


def project_features(raw, params):
    """The L x D features that attention takes: a_i = relu(proj_W raw_i + proj_b), a 1x1 conv."""
    if raw.data.ndim != 2 or raw.data.shape[1] != params.proj_w.data.shape[1]:
        raise ShapeError(
            "raw features %r do not match projection %r" % (raw.dims, params.proj_w.dims)
        )
    projected = nm.add(nm.matmul(raw, nm.transpose(params.proj_w)), params.proj_b)
    return nm.relu(projected)


def embed_word(token_id, params):
    return nm.pick(params.emb, token_id)


def lstm_step(v_hat, w, state, p):
    """One LSTM step on (visual input v_hat, word embedding w, previous state)."""
    gates = []
    for gate in GATES:  # each gate whole before the next: the recording order fixes the bits
        s = nm.add(nm.matmul(p.w_v[gate], v_hat), nm.matmul(p.w_w[gate], w))
        s = nm.add(nm.add(s, nm.matmul(p.w_h[gate], state.h)), p.b[gate])
        gates.append(nm.tanh(s) if gate == "g" else nm.sigmoid(s))
    i, f, o, g = gates
    c = nm.add(nm.hadamard(f, state.c), nm.hadamard(i, g))
    h = nm.hadamard(o, nm.tanh(c))
    return LstmState(h, c)


def output_distribution(h, params):
    """Softmax over vocabulary logits W_p h."""
    return nm.softmax_vec(nm.matmul(params.w_p, h))


def step(params, a, sal, state, prev_id):
    """One timestep over the L x D features ``a`` from state h_{t-1} and the previous word id.

    Returns the attention output, the new LSTM state and the word
    distribution.  Training, decoding and tracing all run this step.
    Every value recorded so far is tested before it returns
    (``numerics.check_recorded``).
    """
    out = attention.attend(a, sal, state.h, params.attention)
    state = lstm_step(out.v_hat, embed_word(prev_id, params), state, params.lstm)
    probs = output_distribution(state.h, params)
    nm.check_recorded()
    return out, state, probs


# ---------------------------------------------------------------------------
# checkpoint format: config.json, vocab.json and one tensor file per
# parameter; _build_params(config, ...) alone says which parameters, of what dims
# ---------------------------------------------------------------------------

def _tensor_file(name):
    return name.replace(".", "_") + ".tnsr"


def save_checkpoint(params, directory, vocabulary):
    """Write a checkpoint into a staging directory beside ``directory``, then rename it there.

    A checkpoint already at ``directory`` is replaced only once the new one is whole.
    """
    directory = os.path.abspath(directory)
    work = tempfile.mkdtemp(dir=os.path.dirname(directory),
                            prefix=".%s." % os.path.basename(directory))
    try:
        # a subdirectory, unlike mkdtemp's own, gets the usual permissions
        staged = os.path.join(work, "new")
        os.mkdir(staged)
        for slot in params.store.slots():
            data_io.write_tensor(slot.value, os.path.join(staged, _tensor_file(slot.name)))
        data_io.write_json(asdict(params.config), os.path.join(staged, "config.json"))
        vocabulary.save(os.path.join(staged, "vocab.json"))
        if os.path.isdir(directory):
            os.rename(directory, os.path.join(work, "old"))
        os.rename(staged, directory)
    finally:
        shutil.rmtree(work)


def load_checkpoint(directory):
    """DecoderParams, each parameter read straight from its file, and the vocabulary."""
    config = data_io.read_dataclass(ModelConfig, os.path.join(directory, "config.json"))

    def stored(name, init, *dims):
        path = os.path.join(directory, _tensor_file(name))
        values = data_io.read_tensor(path)
        if values.shape != dims:
            raise FormatError("%s: dims %r, but %r has dims %r in this model"
                              % (path, list(values.shape), name, list(dims)))
        return values

    params = _build_params(config, stored)
    read = {_tensor_file(slot.name) for slot in params.store.slots()}
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".tnsr") and fname not in read:
            raise FormatError("%s: %s model has no parameter stored in this file"
                              % (os.path.join(directory, fname), config.variant))
    path = os.path.join(directory, "vocab.json")
    vocabulary = Vocabulary.load(path)
    if len(vocabulary) != config.vocab_size:
        raise FormatError("%s: %d ids, but the model's vocab_size is %d; the two must be equal"
                          % (path, len(vocabulary), config.vocab_size))
    return params, vocabulary
