"""Vocabulary construction and token encoding/decoding.

Ids 0..3 are reserved: PAD (batch alignment, masked out of the loss),
BOS/EOS sentence boundaries, and UNK for out-of-vocabulary words.
Corpus words get ids from 4 upward in descending frequency order, ties
broken lexicographically.
"""

from collections import Counter

from . import data_io

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

RESERVED_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

_PUNCTUATION = '.,;:!?"()'
_STRIP_TABLE = str.maketrans("", "", _PUNCTUATION)


def tokenize(text):
    """Lowercase, drop the punctuation characters .,;:!?"() and split on whitespace."""
    return text.lower().translate(_STRIP_TABLE).split()


class Vocabulary:
    """Immutable word<->id bijection with four reserved ids."""

    def __init__(self, words, min_count):
        data_io.at_least("min_count", min_count, 1)
        self.min_count = int(min_count)
        self._id_to_word = list(RESERVED_TOKENS) + list(words)
        self._word_to_id = {w: i for i, w in enumerate(self._id_to_word)}
        if len(self._word_to_id) != len(self._id_to_word):
            word = next(w for i, w in enumerate(self._id_to_word) if self._word_to_id[w] != i)
            raise ValueError("duplicate word %r in vocabulary" % word)

    def __len__(self):
        return len(self._id_to_word)

    def __contains__(self, word):
        return word in self._word_to_id

    @property
    def words(self):
        """Non-reserved words, in id order."""
        return self._id_to_word[len(RESERVED_TOKENS):]

    def word_id(self, word):
        return self._word_to_id.get(word, UNK_ID)

    def word(self, token_id):
        if not 0 <= token_id < len(self._id_to_word):
            raise ValueError("unknown token id %d" % token_id)
        return self._id_to_word[token_id]

    def encode(self, sentence):
        """BOS + the ids of the words of a raw string (UNK for out-of-vocabulary) + EOS."""
        return [BOS_ID] + [self.word_id(t) for t in tokenize(sentence)] + [EOS_ID]

    def decode(self, ids):
        """Drop PAD/BOS/EOS, render remaining ids as a space-joined sentence."""
        words = []
        for i in ids:
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            words.append(self.word(i))
        return " ".join(words)

    def save(self, path):
        data_io.write_json({"min_count": self.min_count, "words": self.words}, path)

    @classmethod
    def load(cls, path):
        obj = data_io.read_json(path, {"words": [str], "min_count": int})
        try:
            return cls(obj["words"], obj["min_count"])
        except ValueError as exc:
            raise data_io.FormatError("%s: %s" % (path, exc)) from exc


def build_vocab(captions, min_count):
    """Vocabulary of words occurring >= min_count times in a list of raw caption strings."""
    if not captions:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for caption in captions:
        counts.update(tokenize(caption))
    for reserved in RESERVED_TOKENS:
        counts.pop(reserved, None)
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary(kept, min_count)
