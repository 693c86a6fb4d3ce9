import json
import re

import pytest

from salcap.data_io import FormatError
from salcap.vocab import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    Vocabulary,
    build_vocab,
    tokenize,
)


def test_reserved_ids():
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize('The cat, sat; (on) the "mat"!?') == ["the", "cat", "sat", "on", "the", "mat"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("...") == []


class TestBuild:
    def test_min_count_two(self):
        v = build_vocab(["a b", "a c"], min_count=2)
        assert v.words == ["a"]
        assert len(v) == 5

    def test_min_count_one(self):
        v = build_vocab(["a b", "a c"], min_count=1)
        assert set(v.words) == {"a", "b", "c"}
        assert v.words[0] == "a"  # highest frequency first

    def test_tie_break_lexicographic(self):
        v = build_vocab(["b c", "c b"], min_count=2)
        assert v.word_id("b") < v.word_id("c")

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab([], min_count=1)

    def test_bad_min_count(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], min_count=0)

    def test_size_monotone_in_min_count(self):
        corpus = ["a b c d", "a b c", "a b", "a"]
        sizes = [len(build_vocab(corpus, k)) for k in range(1, 6)]
        assert sizes == sorted(sizes, reverse=True)

    def test_reserved_strings_never_collide(self):
        v = build_vocab(["<unk> <unk> <pad> <pad>"], min_count=1)
        assert "<unk>" not in v.words
        assert v.word(UNK_ID) == "<unk>"


class TestEncodeDecode:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["a b", "a b", "a c c"], min_count=1)

    def test_encode_basic(self, vocab):
        ids = vocab.encode("a b")
        assert ids == [BOS_ID, vocab.word_id("a"), vocab.word_id("b"), EOS_ID]

    def test_encode_oov(self, vocab):
        assert vocab.encode("a z") == [BOS_ID, vocab.word_id("a"), UNK_ID, EOS_ID]

    def test_encode_reserved_words_as_unk(self, vocab):
        a, b = vocab.word_id("a"), vocab.word_id("b")
        ids = vocab.encode("a <pad> <BOS> <eos>. <unk> b")
        assert ids == [BOS_ID, a, UNK_ID, UNK_ID, UNK_ID, UNK_ID, b, EOS_ID]

    def test_encode_empty(self, vocab):
        assert vocab.encode("") == [BOS_ID, EOS_ID]

    def test_encode_lowercases(self, vocab):
        assert vocab.encode("A B.") == vocab.encode("a b")

    def test_decode_drops_specials(self, vocab):
        assert vocab.decode([BOS_ID, vocab.word_id("a"), EOS_ID]) == "a"
        assert vocab.decode([BOS_ID, EOS_ID]) == ""
        assert vocab.decode([PAD_ID, BOS_ID, vocab.word_id("a"), EOS_ID, PAD_ID]) == "a"

    def test_decode_renders_unk(self, vocab):
        assert vocab.decode([BOS_ID, UNK_ID, EOS_ID]) == "<unk>"

    def test_decode_unknown_id(self, vocab):
        with pytest.raises(ValueError, match="unknown token id"):
            vocab.decode([len(vocab) + 7])

    @pytest.mark.parametrize("sentence", ["a b", "c c a", "b", ""])
    def test_round_trip(self, vocab, sentence):
        assert vocab.decode(vocab.encode(sentence)) == sentence


def test_json_round_trip(tmp_path):
    v = build_vocab(["a b c", "a b", "a"], min_count=1)
    path = tmp_path / "vocab.json"
    v.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.words == v.words
    assert loaded.min_count == v.min_count
    assert loaded.encode("a b z") == v.encode("a b z")


def test_load_names_missing_field(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"min_count": 1}))
    with pytest.raises(FormatError, match=r"vocab\.json: missing field 'words'"):
        Vocabulary.load(path)


@pytest.mark.parametrize("obj,message", [
    ({"words": ["a", "a"], "min_count": 1}, "duplicate word 'a' in vocabulary"),
    ({"words": ["<pad>"], "min_count": 1}, "duplicate word '<pad>' in vocabulary"),
    ({"words": ["a"], "min_count": 0}, "min_count must be >= 1, got 0"),
], ids=["duplicate_word", "reserved_word", "min_count_zero"])
def test_load_names_file_and_rule(tmp_path, obj, message):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=re.escape("%s: %s" % (path, message))):
        Vocabulary.load(path)
