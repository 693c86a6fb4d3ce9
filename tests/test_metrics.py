import json
import math
import os

import numpy.testing as npt
import pytest

from salcap import data_io, metrics
from salcap.metrics import CaptionCorpus

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


@pytest.fixture(scope="module")
def oracle():
    with open(os.path.join(FIXTURES, "metrics_oracle.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fixture_corpus():
    records = data_io.read_jsonl(os.path.join(FIXTURES, "metric_corpus.jsonl"),
                                 {"image_id": str, "candidate": str, "references": list})
    return CaptionCorpus.from_pairs([(r["image_id"], r["candidate"], r["references"])
                                     for r in records])


def corpus_of(*triples):
    return CaptionCorpus.from_pairs(list(triples))


class TestBleu:
    def test_exact_match_everywhere(self):
        corpus = corpus_of(
            ("a", "a cat on a mat", ["a cat on a mat"]),
            ("b", "dogs run fast today", ["dogs run fast today"]),
        )
        npt.assert_allclose(metrics.bleu(corpus), [1.0] * 4, atol=1e-12)

    def test_clipping_hand_case(self, oracle):
        corpus = corpus_of(("i", "a a a", ["a b"]))
        scores = metrics.bleu(corpus)
        npt.assert_allclose(scores[0], 1 / 3, atol=1e-12)
        npt.assert_allclose(scores[0], oracle["bleu_clip_case"], atol=1e-12)
        assert scores[1] == 0.0  # no bigram match

    def test_empty_candidate_scores_zero(self):
        corpus = corpus_of(("i", "", ["a b"]))
        assert metrics.bleu(corpus) == [0.0] * 4

    def test_brevity_penalty_applies(self):
        # candidate shorter than its closest reference
        corpus = corpus_of(("i", "a b", ["a b c d"]))
        b1 = metrics.bleu(corpus)[0]
        npt.assert_allclose(b1, math.exp(1 - 4 / 2) * 1.0, atol=1e-12)

    def test_tie_takes_shorter_reference(self):
        # references of 3 and 5 tokens are both 1 from the 4-token candidate;
        # the shorter sets the brevity penalty, exp(min(0, 1 - 3/4)) = 1,
        # where the longer would give exp(1 - 5/4) = 0.7788; p1 = 4/4 either way
        for refs in (["a b c", "a b c d e"], ["a b c d e", "a b c"]):
            b1 = metrics.bleu(corpus_of(("i", "a b c d", refs)))[0]
            npt.assert_allclose(b1, 1.0, atol=1e-12)

    def test_fixture_corpus(self, oracle, fixture_corpus):
        scores = metrics.bleu(fixture_corpus)
        for k in range(4):
            npt.assert_allclose(scores[k], oracle["corpus"]["bleu_%d" % (k + 1)], atol=1e-6)

    def test_permutation_invariance(self, fixture_corpus):
        reordered = CaptionCorpus(list(reversed(fixture_corpus.entries)))
        npt.assert_allclose(metrics.bleu(fixture_corpus), metrics.bleu(reordered), atol=1e-12)


class TestRougeL:
    def test_exact_match(self):
        corpus = corpus_of(("i", "a b c", ["a b c"]))
        npt.assert_allclose(metrics.rouge_l(corpus), 1.0, atol=1e-12)

    def test_hand_case(self, oracle):
        corpus = corpus_of(("i", "a b c", ["a c"]))
        score = metrics.rouge_l(corpus)
        # P = 2/3, R = 1, F = (1 + 1.44) P R / (R + 1.44 P)
        expected = 2.44 * (2 / 3) / (1 + 1.44 * (2 / 3))
        npt.assert_allclose(score, expected, atol=1e-12)
        npt.assert_allclose(score, oracle["rouge_case"], atol=1e-12)

    def test_disjoint_vocabulary(self):
        corpus = corpus_of(("i", "x y z", ["a b c"]))
        assert metrics.rouge_l(corpus) == 0.0

    def test_fixture_corpus(self, oracle, fixture_corpus):
        npt.assert_allclose(metrics.rouge_l(fixture_corpus), oracle["corpus"]["rouge_l"], atol=1e-6)


class TestCider:
    def test_two_image_hand_case(self, oracle):
        corpus = corpus_of(("a", "x y", ["x y"]), ("b", "p q", ["p q"]))
        score = metrics.cider(corpus)
        npt.assert_allclose(score, 0.5, atol=1e-12)
        npt.assert_allclose(score, oracle["cider_two_image_case"], atol=1e-12)

    def test_no_shared_ngrams(self):
        corpus = corpus_of(("a", "x y", ["a b"]), ("b", "p q", ["c d"]))
        assert metrics.cider(corpus) == 0.0

    def test_duplication_scale_invariance(self):
        base = corpus_of(("a", "x y", ["x y"]), ("b", "p q", ["p q w"]))
        doubled = corpus_of(("a", "x y x y", ["x y x y"]), ("b", "p q p q", ["p q w p q w"]))
        # doubling every count rescales both vectors; cosine similarity of
        # the shared unigram/bigram structure is unchanged
        u1 = metrics.cider(base, n_max=1)
        u2 = metrics.cider(doubled, n_max=1)
        npt.assert_allclose(u1, u2, atol=1e-12)

    def test_single_entry_rejected(self):
        corpus = corpus_of(("a", "x y", ["x y"]))
        with pytest.raises(ValueError, match="degenerate IDF"):
            metrics.cider(corpus)

    def test_multiplier(self, fixture_corpus):
        base = metrics.cider(fixture_corpus)
        scaled = metrics.cider(fixture_corpus, multiplier=10.0)
        npt.assert_allclose(scaled, 10.0 * base, atol=1e-12)

    def test_fixture_corpus(self, oracle, fixture_corpus):
        npt.assert_allclose(metrics.cider(fixture_corpus), oracle["corpus"]["cider"], atol=1e-6)


class TestScoresInRange:
    def test_all_metrics_in_unit_interval(self, fixture_corpus):
        report = metrics.evaluate_corpus(fixture_corpus)
        for key, value in report.items():
            assert 0.0 <= value <= 1.0, key


class TestDiversity:
    def test_spec_examples(self):
        stats = metrics.diversity_stats(["a b", "a c"])
        assert stats["div1"] == 3 / 4
        assert stats["div2"] == 2 / 4
        assert stats["vocab_size"] == 3

    def test_single_one_word_caption(self):
        stats = metrics.diversity_stats(["hello"])
        assert stats["div1"] == 1.0
        assert stats["div2"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.diversity_stats([])

    def test_fixture_values(self, oracle):
        raw = []
        with open(os.path.join(FIXTURES, "metric_corpus.jsonl")) as fh:
            for line in fh:
                if line.strip():
                    raw.append(json.loads(line)["candidate"])
        stats = metrics.diversity_stats(raw)
        npt.assert_allclose(stats["div1"], oracle["corpus"]["div1"], atol=1e-6)
        npt.assert_allclose(stats["div2"], oracle["corpus"]["div2"], atol=1e-6)
        assert stats["vocab_size"] == oracle["corpus"]["vocab_size"]


class TestNovelty:
    def test_all_seen(self):
        assert metrics.novelty_pct(["a b", "c d"], ["a b", "c d", "e f"]) == 0.0

    def test_none_seen(self):
        assert metrics.novelty_pct(["x y"], ["a b"]) == 100.0

    def test_three_of_four(self):
        value = metrics.novelty_pct(["a b", "c d", "e f", "g h"], ["a b"])
        assert value == 75.0

    def test_empty_generated_rejected(self):
        with pytest.raises(ValueError):
            metrics.novelty_pct([], ["a"])

    def test_fixture_value(self, oracle):
        candidates, pool = [], []
        with open(os.path.join(FIXTURES, "metric_corpus.jsonl")) as fh:
            for line in fh:
                if line.strip():
                    candidates.append(json.loads(line)["candidate"])
        with open(os.path.join(FIXTURES, "train_pool.json")) as fh:
            pool = json.load(fh)
        assert metrics.novelty_pct(candidates, pool) == oracle["corpus"]["novelty_pct"]


class TestDifference:
    def test_identical(self):
        a = {"i": "a b", "j": "c d"}
        assert metrics.difference_pct(a, dict(a)) == 0.0

    def test_fully_different(self):
        assert metrics.difference_pct({"i": "a"}, {"i": "b"}) == 100.0

    def test_one_of_four(self):
        a = {k: "same words" for k in "wxyz"}
        b = dict(a, z="other words")
        assert metrics.difference_pct(a, b) == 25.0

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical image_id"):
            metrics.difference_pct({"i": "a"}, {"j": "a"})

    def test_fixture_value(self, oracle):
        with open(os.path.join(FIXTURES, "metric_corpus.jsonl")) as fh:
            a = {json.loads(l)["image_id"]: json.loads(l)["candidate"] for l in fh if l.strip()}
        with open(os.path.join(FIXTURES, "metric_corpus_alt.jsonl")) as fh:
            b = {json.loads(l)["image_id"]: json.loads(l)["candidate"] for l in fh if l.strip()}
        assert metrics.difference_pct(a, b) == oracle["corpus"]["difference_pct"]


class TestCorpusValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            corpus_of(("i", "a", ["a"]), ("i", "b", ["b"]))

    def test_missing_references_rejected(self):
        with pytest.raises(ValueError, match="references"):
            corpus_of(("i", "a", []))
