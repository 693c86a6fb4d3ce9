"""Caption quality metrics and generated-corpus statistics.

BLEU is corpus-level clipped n-gram precision with the closest-reference
brevity penalty; ROUGE_L is the LCS F-measure averaged over entries;
CIDEr is the TF-IDF weighted n-gram cosine consensus, averaged over
n-gram orders and entries (unscaled, in [0,1], with an optional report
multiplier for comparability with published tables).
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import data_io
from .vocab import tokenize

ROUGE_BETA = 1.2


@dataclass
class CorpusEntry:
    image_id: str
    candidate: list  # tokens
    references: list  # list of token lists


class CaptionCorpus:
    """Per-image candidate caption plus at least one reference."""

    def __init__(self, entries):
        if not entries:
            raise ValueError("caption corpus is empty")
        seen = set()
        for entry in entries:
            if entry.image_id in seen:
                raise ValueError("duplicate image_id %r" % entry.image_id)
            seen.add(entry.image_id)
            if not entry.references:
                raise ValueError("entry %r has no references" % entry.image_id)
        self.entries = list(entries)

    def __len__(self):
        return len(self.entries)

    @classmethod
    def from_pairs(cls, pairs):
        """pairs: iterable of (image_id, candidate string, [reference strings])."""
        return cls(
            [
                CorpusEntry(image_id, tokenize(cand), [tokenize(r) for r in refs])
                for image_id, cand, refs in pairs
            ]
        )

    @classmethod
    def from_jsonl(cls, path):
        """One JSON object per line: {"image_id", "candidate", "references"}."""
        records = data_io.read_jsonl(
            path, {"image_id": str, "candidate": str, "references": list}, key="image_id"
        )
        return cls.from_pairs([(r["image_id"], r["candidate"], r["references"]) for r in records])


def ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_len(cand_len, references):
    # ties go to the shorter reference
    return min((abs(len(r) - cand_len), len(r)) for r in references)[1]


def bleu(corpus, n_max=4):
    """Corpus-level BLEU scores B@1..B@n_max."""
    clipped = [0] * n_max
    total = [0] * n_max
    cand_len = 0
    ref_len = 0
    for entry in corpus.entries:
        cand_len += len(entry.candidate)
        ref_len += _closest_ref_len(len(entry.candidate), entry.references)
        for n in range(1, n_max + 1):
            counts = ngram_counts(entry.candidate, n)
            max_ref = Counter()
            for ref in entry.references:
                for gram, c in ngram_counts(ref, n).items():
                    max_ref[gram] = max(max_ref[gram], c)
            clipped[n - 1] += sum(min(c, max_ref[g]) for g, c in counts.items())
            total[n - 1] += max(0, len(entry.candidate) - n + 1)

    bp = min(1.0, math.exp(1.0 - ref_len / cand_len)) if cand_len > 0 else 0.0
    precisions = [clipped[n] / total[n] if total[n] > 0 else 0.0 for n in range(n_max)]
    scores = []
    for k in range(1, n_max + 1):
        if any(precisions[n] == 0.0 for n in range(k)):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(precisions[n]) for n in range(k)) / k))
    return scores


def _lcs_length(a, b):
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(corpus):
    """Mean LCS F-measure; per entry the best precision and recall over refs."""
    total = 0.0
    for entry in corpus.entries:
        best_p = 0.0
        best_r = 0.0
        for ref in entry.references:
            lcs = _lcs_length(entry.candidate, ref)
            if entry.candidate:
                best_p = max(best_p, lcs / len(entry.candidate))
            if ref:
                best_r = max(best_r, lcs / len(ref))
        if best_p > 0 and best_r > 0:
            beta2 = ROUGE_BETA ** 2
            total += (1 + beta2) * best_p * best_r / (best_r + beta2 * best_p)
    return total / len(corpus.entries)


def cider(corpus, n_max=4, multiplier=1.0):
    """TF-IDF n-gram cosine consensus, mean over orders 1..n_max and entries.

    IDF documents are the per-image reference sets; a single-entry
    corpus has no usable IDF signal and is rejected.
    """
    if len(corpus.entries) < 2:
        raise ValueError("cider needs at least 2 corpus entries (degenerate IDF)")
    m = len(corpus.entries)
    df = defaultdict(int)
    for entry in corpus.entries:
        grams = set()
        for ref in entry.references:
            for n in range(1, n_max + 1):
                grams.update(ngram_counts(ref, n))
        for gram in grams:
            df[gram] += 1

    def tfidf_vector(tokens, n):
        return {
            gram: count * math.log(m / max(df[gram], 1))
            for gram, count in ngram_counts(tokens, n).items()
        }

    def cosine(u, v):
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        dot = sum(x * v[g] for g, x in u.items() if g in v)
        return dot / (nu * nv)

    score = 0.0
    for n in range(1, n_max + 1):
        order_total = 0.0
        for entry in corpus.entries:
            cand_vec = tfidf_vector(entry.candidate, n)
            sims = [cosine(cand_vec, tfidf_vector(ref, n)) for ref in entry.references]
            order_total += sum(sims) / len(sims)
        score += order_total / m
    return (score / n_max) * multiplier


def evaluate_corpus(corpus, n_max=4, cider_multiplier=1.0):
    """All caption-quality metrics as a flat dict."""
    report = {}
    for k, score in enumerate(bleu(corpus, n_max), start=1):
        report["bleu_%d" % k] = score
    report["rouge_l"] = rouge_l(corpus)
    report["cider"] = cider(corpus, n_max, cider_multiplier)
    return report


# ---------------------------------------------------------------------------
# generated-corpus statistics
# ---------------------------------------------------------------------------

def diversity_stats(captions):
    """Div-1, Div-2 and vocabulary size over a set of tokenized captions."""
    if not captions:
        raise ValueError("diversity_stats needs a non-empty caption set")
    token_lists = [tokenize(c) if isinstance(c, str) else list(c) for c in captions]
    total_words = sum(len(t) for t in token_lists)
    if total_words == 0:
        raise ValueError("diversity_stats needs at least one word")
    unigrams = set()
    bigrams = set()
    for tokens in token_lists:
        unigrams.update(tokens)
        bigrams.update(zip(tokens, tokens[1:]))
    return {
        "div1": len(unigrams) / total_words,
        "div2": len(bigrams) / total_words,
        "vocab_size": len(unigrams),
    }


def _canonical(caption):
    tokens = tokenize(caption) if isinstance(caption, str) else caption
    return " ".join(tokens)


def novelty_pct(generated, training):
    """Percentage of generated sentences absent from the training captions."""
    if not generated:
        raise ValueError("novelty_pct needs a non-empty generated set")
    seen = {_canonical(c) for c in training}
    novel = sum(1 for c in generated if _canonical(c) not in seen)
    return 100.0 * novel / len(generated)


def difference_pct(generated_a, generated_b):
    """Percentage of images captioned differently by two models.

    Both arguments map image_id to a caption (string or token list).
    """
    if set(generated_a) != set(generated_b):
        raise ValueError("difference_pct needs identical image_id sets")
    if not generated_a:
        raise ValueError("difference_pct needs a non-empty id set")
    differing = sum(
        1 for i in generated_a if _canonical(generated_a[i]) != _canonical(generated_b[i])
    )
    return 100.0 * differing / len(generated_a)
