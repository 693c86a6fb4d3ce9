"""Caption quality metrics and generated-corpus statistics.

BLEU is corpus-level clipped n-gram precision with the closest-reference
brevity penalty; ROUGE_L is the LCS F-measure averaged over entries;
CIDEr (Vedantam et al. 2015, arXiv 1411.5726) is the TF-IDF weighted
n-gram cosine consensus, averaged over n-gram orders and entries
(unscaled, in [0,1], with an optional report multiplier for
comparability with published tables).  BLEU and CIDEr both use the
n-gram orders 1..4 (``N_MAX``).

A ``CaptionCorpus`` counts each candidate and each reference once per
order when it is built (``corpus.orders``), and BLEU and CIDEr read
those counts: BLEU clips each candidate n-gram at its largest reference
count, and CIDEr takes each order's document frequencies, reference
vectors and norms, and candidate vector and norm, once each.
``evaluate_corpus`` is ``bleu``, ``rouge_l`` and ``cider`` side by side.
ROUGE_L's LCS length is the bit-parallel algorithm of Allison and Dix
(1986), as Hyyro (2004) gives it: a few big-integer operations per token
of the longer sentence instead of a DP table.  Every sum keeps the order
of the plain formula, so the values are the same bits as a direct
transcription.
"""

import math
from collections import Counter
from dataclasses import dataclass

from . import data_io
from .vocab import tokenize

ROUGE_BETA = 1.2
N_MAX = 4  # BLEU and CIDEr use the n-gram orders 1..N_MAX


@dataclass
class CorpusEntry:
    image_id: str
    candidate: list  # tokens
    references: list  # list of token lists


def ngram_counts(tokens, n):
    return Counter(zip(*(tokens[i:] for i in range(n))))


class CaptionCorpus:
    """Per-image candidate caption plus at least one reference.

    ``orders[n - 1]`` holds, for n-gram order n and each entry, the pair
    ``(candidate counts, [reference counts])``.
    """

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
        self.orders = [[(ngram_counts(entry.candidate, n),
                         [ngram_counts(ref, n) for ref in entry.references])
                        for entry in self.entries]
                       for n in range(1, N_MAX + 1)]

    @classmethod
    def from_pairs(cls, pairs):
        """pairs: iterable of (image_id, candidate string, [reference strings])."""
        return cls(
            [
                CorpusEntry(image_id, tokenize(cand), [tokenize(r) for r in refs])
                for image_id, cand, refs in pairs
            ]
        )


def _closest_ref_len(cand_len, references):
    # ties go to the shorter reference
    return min((abs(len(r) - cand_len), len(r)) for r in references)[1]


def _clipped_matches(order):
    """BLEU's (clipped matches, candidate n-grams) of one order.

    A candidate n-gram is clipped at its largest count in any one reference.
    """
    clipped = 0
    total = 0
    for cand, refs in order:
        clipped += sum(min(c, max([ref.get(g, 0) for ref in refs])) for g, c in cand.items())
        total += sum(cand.values())
    return clipped, total


def bleu(corpus):
    """Corpus-level BLEU scores B@1..B@4 from the corpus's n-gram counts."""
    cand_len = 0
    ref_len = 0
    for entry in corpus.entries:
        cand_len += len(entry.candidate)
        ref_len += _closest_ref_len(len(entry.candidate), entry.references)
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len)) if cand_len > 0 else 0.0
    precisions = [clipped / total if total > 0 else 0.0
                  for clipped, total in map(_clipped_matches, corpus.orders)]
    scores = []
    for k in range(1, N_MAX + 1):
        if any(precisions[n] == 0.0 for n in range(k)):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(precisions[n]) for n in range(k)) / k))
    return scores


def _lcs_length(a, b):
    """Length of a longest common subsequence, bit-parallel.

    Allison and Dix (1986) in Hyyro's (2004) form.  After a prefix of a
    is read, bit j of ``v`` is clear where that prefix's LCS with b[:j + 1]
    is one longer than with b[:j], so the LCS length is the number of
    clear bits among the len(b) that ``full`` keeps.
    """
    if len(a) < len(b):
        a, b = b, a
    masks = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        if x in masks:
            u = v & masks[x]
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


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


def _cider_order(order, m):
    """One order's CIDEr: each entry's mean TF-IDF cosine to its references, over m entries.

    Document frequencies count the entries whose references hold an
    n-gram; n-grams of different orders never share a key, so one
    order's df equals the df over all orders.
    """
    df = Counter()
    for _, refs in order:
        df.update(set().union(*refs))
    idf = {gram: math.log(m / d) for gram, d in df.items()}
    unseen = math.log(m)  # a candidate n-gram that no reference holds

    def tfidf(counts):
        vec = {gram: count * idf.get(gram, unseen) for gram, count in counts.items()}
        return vec, math.sqrt(sum(x * x for x in vec.values()))

    order_total = 0.0
    for cand, refs in order:
        u, nu = tfidf(cand)
        sims = []
        for ref in refs:
            v, nv = tfidf(ref)
            if nu == 0.0 or nv == 0.0:
                sims.append(0.0)
            else:
                sims.append(sum(x * v[g] for g, x in u.items() if g in v) / (nu * nv))
        order_total += sum(sims) / len(sims)
    return order_total / m


def cider(corpus, multiplier=1.0):
    """TF-IDF n-gram cosine consensus, mean over orders 1..4 and entries.

    IDF documents are the per-image reference sets; a single-entry
    corpus has no usable IDF signal and is rejected.  The order scores
    are summed left to right, then divided by 4 and scaled.
    """
    data_io.at_least("multiplier", multiplier, 0)
    m = len(corpus.entries)
    if m < 2:
        raise ValueError("cider needs at least 2 corpus entries (degenerate IDF)")
    score = 0.0
    for order in corpus.orders:
        score += _cider_order(order, m)
    return (score / N_MAX) * multiplier


def evaluate_corpus(corpus, cider_multiplier=1.0):
    """BLEU@1..4, ROUGE_L and CIDEr of the corpus as one flat dict."""
    report = {"bleu_%d" % k: score for k, score in enumerate(bleu(corpus), start=1)}
    report["rouge_l"] = rouge_l(corpus)
    report["cider"] = cider(corpus, cider_multiplier)
    return report


# ---------------------------------------------------------------------------
# generated-corpus statistics
# ---------------------------------------------------------------------------

def diversity_stats(captions):
    """Div-1, Div-2 and vocabulary size over a set of raw caption strings."""
    if not captions:
        raise ValueError("diversity_stats needs a non-empty caption set")
    token_lists = [tokenize(c) for c in captions]
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
    return " ".join(tokenize(caption))


def novelty_pct(generated, training):
    """Percentage of generated sentences absent from the training captions."""
    if not generated:
        raise ValueError("novelty_pct needs a non-empty generated set")
    seen = {_canonical(c) for c in training}
    novel = sum(1 for c in generated if _canonical(c) not in seen)
    return 100.0 * novel / len(generated)


def difference_pct(generated_a, generated_b):
    """Percentage of images captioned differently by two models.

    Both arguments map image_id to a raw caption string.
    """
    if set(generated_a) != set(generated_b):
        raise ValueError("difference_pct needs identical image_id sets")
    if not generated_a:
        raise ValueError("difference_pct needs a non-empty id set")
    differing = sum(
        1 for i in generated_a if _canonical(generated_a[i]) != _canonical(generated_b[i])
    )
    return 100.0 * differing / len(generated_a)
