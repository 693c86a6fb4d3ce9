"""Caption quality metrics and generated-corpus statistics.

BLEU is corpus-level clipped n-gram precision with the closest-reference
brevity penalty; ROUGE_L is the LCS F-measure averaged over entries;
CIDEr (Vedantam et al. 2015, arXiv 1411.5726) is the TF-IDF weighted
n-gram cosine consensus, averaged over n-gram orders and entries
(unscaled, in [0,1], with an optional report multiplier for
comparability with published tables).

BLEU and CIDEr work one n-gram order at a time from the same per-entry
counts (``_order_counts``): ``evaluate_corpus`` counts each candidate
and each reference once per order, BLEU clips each candidate n-gram at
its largest reference count, and CIDEr takes that order's document
frequencies, reference vectors and norms, and candidate vector and norm,
once each.  ROUGE_L's LCS length is the bit-parallel algorithm of
Allison and Dix (1986), as Hyyro (2004) gives it: a few big-integer
operations per token of the longer sentence instead of a DP table.
Every sum keeps the order of the plain formula, so the values are the
same bits as a direct transcription.
"""

import math
from collections import Counter
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

    @classmethod
    def from_pairs(cls, pairs):
        """pairs: iterable of (image_id, candidate string, [reference strings])."""
        return cls(
            [
                CorpusEntry(image_id, tokenize(cand), [tokenize(r) for r in refs])
                for image_id, cand, refs in pairs
            ]
        )


def ngram_counts(tokens, n):
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _order_counts(corpus, n_max):
    """Per n-gram order 1..n_max, each entry's candidate and reference counts.

    Yields one list of ``(candidate counts, [reference counts])`` per
    order, so each sentence is counted once per order and only one
    order's tables are alive at a time.
    """
    for n in range(1, n_max + 1):
        yield [(ngram_counts(entry.candidate, n),
                [ngram_counts(ref, n) for ref in entry.references])
               for entry in corpus.entries]


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


def _bleu_scores(corpus, matches):
    """B@1..B@len(matches) from each order's clipped and total counts."""
    cand_len = 0
    ref_len = 0
    for entry in corpus.entries:
        cand_len += len(entry.candidate)
        ref_len += _closest_ref_len(len(entry.candidate), entry.references)
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len)) if cand_len > 0 else 0.0
    precisions = [clipped / total if total > 0 else 0.0 for clipped, total in matches]
    scores = []
    for k in range(1, len(matches) + 1):
        if any(precisions[n] == 0.0 for n in range(k)):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(precisions[n]) for n in range(k)) / k))
    return scores


def bleu(corpus, n_max=4):
    """Corpus-level BLEU scores B@1..B@n_max."""
    return _bleu_scores(corpus, [_clipped_matches(order) for order in _order_counts(corpus, n_max)])


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


def _cider_documents(corpus, multiplier):
    """The IDF document count m, once the corpus and multiplier are checked."""
    data_io.at_least("multiplier", multiplier, 0)
    if len(corpus.entries) < 2:
        raise ValueError("cider needs at least 2 corpus entries (degenerate IDF)")
    return len(corpus.entries)


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


def _cider_mean(order_scores, n_max, multiplier):
    """The scaled mean over orders, summed in order as one running total."""
    score = 0.0
    for order_score in order_scores:
        score += order_score
    return (score / n_max) * multiplier


def cider(corpus, n_max=4, multiplier=1.0):
    """TF-IDF n-gram cosine consensus, mean over orders 1..n_max and entries.

    IDF documents are the per-image reference sets; a single-entry
    corpus has no usable IDF signal and is rejected.
    """
    m = _cider_documents(corpus, multiplier)
    return _cider_mean([_cider_order(order, m) for order in _order_counts(corpus, n_max)],
                       n_max, multiplier)


def evaluate_corpus(corpus, n_max=4, cider_multiplier=1.0):
    """All caption-quality metrics as a flat dict.

    BLEU and CIDEr share one count of each sentence per n-gram order.
    """
    m = _cider_documents(corpus, cider_multiplier)
    matches = []
    order_scores = []
    for order in _order_counts(corpus, n_max):
        matches.append(_clipped_matches(order))
        order_scores.append(_cider_order(order, m))
    report = {"bleu_%d" % k: score
              for k, score in enumerate(_bleu_scores(corpus, matches), start=1)}
    report["rouge_l"] = rouge_l(corpus)
    report["cider"] = _cider_mean(order_scores, n_max, cider_multiplier)
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
