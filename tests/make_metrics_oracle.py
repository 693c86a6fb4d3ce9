#!/usr/bin/env python3
"""Freeze expected metric values for the fixture corpus.

Deliberately independent of the salcap package: n-grams are enumerated
with explicit index loops, BLEU precisions are exact Fractions, the LCS
is a memoized recursion, and CIDEr vectors are plain dicts.  Run from
the repository root:

    python3 tests/make_metrics_oracle.py

which rewrites tests/fixtures/metrics_oracle.json.
"""

import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

PUNCT = '.,;:!?"()'


def toks(text):
    out = text.lower()
    for ch in PUNCT:
        out = out.replace(ch, "")
    return out.split()


def grams(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i + j] for j in range(n))
        counts[g] = counts.get(g, 0) + 1
    return counts


def oracle_bleu(entries, n_max=4):
    clipped = [0] * n_max
    total = [0] * n_max
    c_len = 0
    r_len = 0
    for cand, refs in entries:
        c_len += len(cand)
        best = None
        for ref in refs:
            key = (abs(len(ref) - len(cand)), len(ref))
            if best is None or key < best:
                best = key
        r_len += best[1]
        for n in range(1, n_max + 1):
            cand_counts = grams(cand, n)
            for g, c in cand_counts.items():
                allowed = max((grams(r, n).get(g, 0) for r in refs), default=0)
                clipped[n - 1] += min(c, allowed)
            total[n - 1] += max(0, len(cand) - n + 1)
    bp = min(1.0, math.exp(1.0 - r_len / c_len)) if c_len else 0.0
    precisions = [Fraction(clipped[i], total[i]) if total[i] else Fraction(0) for i in range(n_max)]
    scores = []
    for k in range(1, n_max + 1):
        if any(precisions[i] == 0 for i in range(k)):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(float(p)) for p in precisions[:k]) / k))
    return scores


def oracle_rouge(entries, beta=1.2):
    def lcs(a, b):
        @lru_cache(maxsize=None)
        def rec(i, j):
            if i == 0 or j == 0:
                return 0
            if a[i - 1] == b[j - 1]:
                return rec(i - 1, j - 1) + 1
            return max(rec(i - 1, j), rec(i, j - 1))

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10000)
        try:
            return rec(len(a), len(b))
        finally:
            sys.setrecursionlimit(limit)
            rec.cache_clear()

    total = 0.0
    for cand, refs in entries:
        p_best = 0.0
        r_best = 0.0
        for ref in refs:
            common = lcs(tuple(cand), tuple(ref))
            if cand:
                p_best = max(p_best, common / len(cand))
            if ref:
                r_best = max(r_best, common / len(ref))
        if p_best > 0 and r_best > 0:
            total += (1 + beta * beta) * p_best * r_best / (r_best + beta * beta * p_best)
    return total / len(entries)


def oracle_cider(entries, n_max=4):
    m = len(entries)
    assert m >= 2, "degenerate IDF"
    df = {}
    for _, refs in entries:
        seen = set()
        for ref in refs:
            for n in range(1, n_max + 1):
                seen.update(grams(ref, n))
        for g in seen:
            df[g] = df.get(g, 0) + 1

    def vec(tokens, n):
        return {
            g: c * math.log(m / max(df.get(g, 0), 1))
            for g, c in grams(tokens, n).items()
        }

    def cosine(u, v):
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0 or nv == 0:
            return 0.0
        return sum(x * v.get(g, 0.0) for g, x in u.items()) / (nu * nv)

    score = 0.0
    for n in range(1, n_max + 1):
        for cand, refs in entries:
            cv = vec(cand, n)
            score += sum(cosine(cv, vec(r, n)) for r in refs) / len(refs) / m
    return score / n_max


def oracle_diversity(captions):
    tokens = [toks(c) for c in captions]
    words = sum(len(t) for t in tokens)
    uni = set()
    bi = set()
    for t in tokens:
        uni.update(t)
        for i in range(len(t) - 1):
            bi.add((t[i], t[i + 1]))
    return {"div1": len(uni) / words, "div2": len(bi) / words, "vocab_size": len(uni)}


def load_corpus(path):
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                entries.append((obj["image_id"], toks(obj["candidate"]),
                                [toks(r) for r in obj["references"]]))
    return entries


def main():
    corpus = load_corpus(os.path.join(FIXTURES, "metric_corpus.jsonl"))
    pairs = [(cand, refs) for _, cand, refs in corpus]

    with open(os.path.join(FIXTURES, "metric_corpus.jsonl"), "r", encoding="utf-8") as fh:
        raw_candidates = {
            json.loads(line)["image_id"]: json.loads(line)["candidate"]
            for line in fh if line.strip()
        }
    with open(os.path.join(FIXTURES, "metric_corpus_alt.jsonl"), "r", encoding="utf-8") as fh:
        alt_candidates = {
            json.loads(line)["image_id"]: json.loads(line)["candidate"]
            for line in fh if line.strip()
        }
    with open(os.path.join(FIXTURES, "train_pool.json"), "r", encoding="utf-8") as fh:
        train_pool = json.load(fh)

    seen = {" ".join(toks(c)) for c in train_pool}
    novel = sum(1 for c in raw_candidates.values() if " ".join(toks(c)) not in seen)
    differing = sum(
        1 for i in raw_candidates
        if " ".join(toks(raw_candidates[i])) != " ".join(toks(alt_candidates[i]))
    )

    b1, b2, b3, b4 = oracle_bleu(pairs)
    oracle = {
        "corpus": {
            "bleu_1": b1,
            "bleu_2": b2,
            "bleu_3": b3,
            "bleu_4": b4,
            "rouge_l": oracle_rouge(pairs),
            "cider": oracle_cider(pairs),
            "novelty_pct": 100.0 * novel / len(raw_candidates),
            "difference_pct": 100.0 * differing / len(raw_candidates),
            **oracle_diversity(raw_candidates.values()),
        },
        # worked single-case examples, from the same oracle code path
        "bleu_clip_case": oracle_bleu([(toks("a a a"), [toks("a b")])])[0],
        "rouge_case": oracle_rouge([(toks("a b c"), [toks("a c")])]),
        "cider_two_image_case": oracle_cider(
            [(toks("x y"), [toks("x y")]), (toks("p q"), [toks("p q")])]
        ),
    }
    out_path = os.path.join(FIXTURES, "metrics_oracle.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % out_path)
    for key, value in sorted(oracle["corpus"].items()):
        print("  %-14s %s" % (key, value))
    print("  clip B@1=%r rouge=%r cider2=%r" % (
        oracle["bleu_clip_case"], oracle["rouge_case"], oracle["cider_two_image_case"]))


if __name__ == "__main__":
    main()
