"""Property tests: file-format round trips, caption-metric invariants, settings
bounds and the tape ops that need no NaN/Inf check.

Examples are derandomized and no example database is kept, so a run is
reproducible and writes nothing into the source tree.
"""

import dataclasses
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import make_metrics_oracle as oracle
from salcap import data_io, decoder, metrics, optim
from salcap import numerics as nm
from salcap.numerics import Tensor
from salcap.vocab import BOS_ID, EOS_ID, RESERVED_TOKENS, UNK_ID, build_vocab

SETTINGS = settings(database=None, deadline=None, derandomize=True)


# hypothesis caches the constants it finds in the source, at collection time;
# keep that cache in the system's temporary directory, not in the source tree
configuration.set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "salcap-hypothesis"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@st.composite
def pgm_maps(draw, least_maxval, most_maxval):
    """(values, maxval): a 2-D map of samples in 0..maxval, maxval drawn from the range."""
    maxval = draw(st.integers(least_maxval, most_maxval))
    values = draw(hnp.arrays(np.uint16, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                             elements=st.integers(0, maxval)))
    return values, maxval


@SETTINGS
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_tensor_round_trip(workdir, values):
    path = workdir / "t.tnsr"
    data_io.write_tensor(Tensor(values), path)
    assert np.array_equal(data_io.read_tensor(path), values)
    assert data_io.read_tensor_dims(path) == list(values.shape)


@SETTINGS
@given(st.one_of(pgm_maps(1, 255), pgm_maps(256, 65535)))
def test_pgm_round_trip(workdir, drawn):
    values, maxval = drawn
    path = workdir / "m.pgm"
    data_io.write_pgm(values, path, maxval=maxval)
    read, read_maxval = data_io.read_map(path, (data_io.PGM_MAGIC,))
    assert np.array_equal(read, values)
    assert read_maxval == maxval


@SETTINGS
@given(hnp.arrays(np.uint16, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)))
def test_segm_round_trip(workdir, labels):
    path = workdir / "m.segm"
    data_io.write_segm(labels, path)
    read, maxval = data_io.read_map(path, (data_io.SEGM_MAGIC,))
    assert np.array_equal(read, labels)
    assert maxval is None


# any finite double, with the extremes and logits near +-1000 drawn often
finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max]),
    st.floats(999.0, 1001.0),
    st.floats(-1001.0, -999.0),
)


@SETTINGS
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                  elements=finite_values))
def test_unqueued_ops_give_finite_output_for_finite_input(values):
    """The six ops that ``numerics`` does not queue for its check need none."""
    x = Tensor(values)
    with np.errstate(over="ignore"):  # exp overflows in sigmoid, the max shift in softmax_vec
        outs = [nm.transpose(x), nm.pick(x, 0), nm.relu(x), nm.sigmoid(x), nm.tanh(x),
                nm.softmax_vec(Tensor(values.reshape(-1)))]
    for out in outs:
        assert np.isfinite(out.data).all()


def captions(min_words):
    """Captions over a five-word vocabulary, so candidates and references share n-grams."""
    return st.lists(st.sampled_from("abcde"), min_size=min_words, max_size=8).map(" ".join)


@SETTINGS
@given(st.lists(st.tuples(captions(0), st.lists(captions(1), min_size=1, max_size=3)),
                min_size=1, max_size=4))
def test_scores_lie_in_unit_interval(entries):
    corpus = metrics.CaptionCorpus.from_pairs(
        [(str(i), candidate, references) for i, (candidate, references) in enumerate(entries)]
    )
    for score in metrics.bleu(corpus) + [metrics.rouge_l(corpus)]:
        assert 0.0 <= score <= 1.0


@SETTINGS
@given(st.lists(captions(4), min_size=1, max_size=4))
def test_candidate_equal_to_reference_scores_one(sentences):
    corpus = metrics.CaptionCorpus.from_pairs(
        [(str(i), sentence, [sentence]) for i, sentence in enumerate(sentences)]
    )
    assert metrics.bleu(corpus)[3] == 1.0
    assert metrics.rouge_l(corpus) == 1.0


def plain_lcs(a, b):
    """The textbook O(len(a) len(b)) dynamic-programming LCS length."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1],
                                                                     table[i + 1][j])
    return table[-1][-1]


def token_lists(max_size):
    return st.lists(st.sampled_from("abcde"), max_size=max_size)


# 2-6 entries of 0-10 tokens with 1-4 references each; empty candidates and
# empty references allowed, and repeated n-grams likely
corpora = st.lists(st.tuples(token_lists(10), st.lists(token_lists(10), min_size=1, max_size=4)),
                   min_size=2, max_size=6)


def corpus_from(entries):
    return metrics.CaptionCorpus([metrics.CorpusEntry(str(i), candidate, references)
                                  for i, (candidate, references) in enumerate(entries)])


@SETTINGS
@given(corpora)
def test_evaluate_corpus_equals_the_standalone_metrics(entries):
    corpus = corpus_from(entries)
    report = metrics.evaluate_corpus(corpus, cider_multiplier=10.0)
    assert [report["bleu_%d" % k] for k in range(1, 5)] == metrics.bleu(corpus)
    assert report["rouge_l"] == metrics.rouge_l(corpus)
    assert report["cider"] == metrics.cider(corpus, multiplier=10.0)


@SETTINGS
@given(corpora)
def test_evaluate_corpus_matches_the_independent_oracle(entries):
    report = metrics.evaluate_corpus(corpus_from(entries))
    want = dict(zip(("bleu_1", "bleu_2", "bleu_3", "bleu_4"), oracle.oracle_bleu(entries)),
                rouge_l=oracle.oracle_rouge(entries), cider=oracle.oracle_cider(entries))
    assert report.keys() == want.keys()
    for name, value in want.items():
        assert abs(report[name] - value) <= 1e-12, name


@SETTINGS
@given(token_lists(24), token_lists(24))
def test_lcs_length_equals_the_dp_table(a, b):
    assert metrics._lcs_length(a, b) == plain_lcs(a, b)
    assert metrics._lcs_length(b, a) == plain_lcs(a, b)


@SETTINGS
@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(RESERVED_TOKENS + ("<PAD>", "<Eos>.", "a", "b", "(c)")),
             max_size=8).map(" ".join),
))
def test_encode_brackets_words_with_boundaries(text):
    """Only the first and the last id are boundaries, whatever words the text holds."""
    ids = build_vocab(["a b c"], min_count=1).encode(text)
    assert ids[0] == BOS_ID and ids[-1] == EOS_ID
    assert all(i >= UNK_ID for i in ids[1:-1])


# valid arguments for each settings dataclass; TrainConfig takes its defaults
VALID_SETTINGS = {
    optim.TrainConfig: {},
    decoder.ModelConfig: dict(variant="soft", vocab_size=6, hidden_size=4, embed_size=3,
                              feature_size=3, raw_feature_size=5, grid_rows=2, grid_cols=2),
    data_io.SyntheticSpec: dataclasses.asdict(data_io.default_synthetic_spec()),
}


@SETTINGS
@given(st.sampled_from(list(VALID_SETTINGS)), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_setting_is_named(cls, value):
    for f in dataclasses.fields(cls):
        if f.type in (int, float):
            message = "%s must be a finite number, got %r" % (f.name, value)
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                cls(**dict(VALID_SETTINGS[cls], **{f.name: value}))
