import numpy as np
import numpy.testing as npt
import pytest

from salcap import salstats
from salcap.salstats import SaliencyMap, SegmentationMap


def seg(labels, names=None):
    return SegmentationMap(np.asarray(labels), names or {})


def sal(values):
    return SaliencyMap(np.asarray(values))


def hits_by_label(pairs, threshold):
    return {c.label: c.hits for c in salstats.class_hit_rates(pairs, threshold, 1)}


class TestThreshold:
    """A pixel is salient when its intensity lies strictly above the threshold."""

    def test_high_map_low_threshold(self):
        pairs = [(seg(np.arange(9).reshape(3, 3)), sal(np.full((3, 3), 255)))]
        assert hits_by_label(pairs, 250) == {label: 1 for label in range(9)}

    def test_strict_inequality_at_zero(self):
        pairs = [(seg([[0, 1], [2, 3]]), sal(np.zeros((2, 2))))]
        assert hits_by_label(pairs, 0) == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_mixed_map_threshold_zero(self):
        # one pixel per class: only the pixels at intensity 1 lie above 0
        pairs = [(seg([[0, 1], [2, 3]]), sal([[0, 1], [1, 0]]))]
        assert hits_by_label(pairs, 0) == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_strict_inequality_at_top(self):
        pairs = [(seg([[0, 1]]), sal([[255, 255]]))]
        assert hits_by_label(pairs, 254) == {0: 1, 1: 1}
        assert hits_by_label(pairs, 255) == {0: 0, 1: 0}

    @pytest.mark.parametrize("threshold", [-1, 256, float("nan")])
    def test_threshold_outside_intensity_range(self, threshold):
        with pytest.raises(ValueError, match="threshold must lie in 0..255"):
            salstats.class_hit_rates([(seg([[0]]), sal([[9]]))], threshold, 1)

    def test_overlap_fraction_above_one(self):
        with pytest.raises(ValueError, match="min_overlap_frac must be <= 1, got 1.5"):
            salstats.class_hit_rates([(seg([[0]]), sal([[9]]))], 0, 1, min_overlap_frac=1.5)


class TestClassHitRates:
    def test_full_mask_hits_everything(self):
        pairs = [(seg([[0, 1], [1, 2]]), sal(np.full((2, 2), 255)))]
        rates = salstats.class_hit_rates(pairs, threshold=10, min_occurrences=1)
        assert [c.rate for c in rates] == [100.0, 100.0, 100.0]

    def test_two_of_three_hand_count(self):
        # class 1 occurs in 3 images; the mask covers it in the first two only
        maps = [
            (seg([[1, 0], [0, 0]]), sal([[255, 0], [0, 0]])),
            (seg([[0, 1], [0, 0]]), sal([[0, 200], [0, 0]])),
            (seg([[0, 0], [1, 0]]), sal([[255, 255], [0, 0]])),
        ]
        rates = salstats.class_hit_rates(maps, threshold=100, min_occurrences=3)
        by_label = {c.label: c for c in rates}
        assert by_label[1].occurrences == 3 and by_label[1].hits == 2
        assert abs(by_label[1].rate - 66.67) < 0.01
        assert by_label[0].hits == 1  # mask touches class 0 only in image 3

    def test_rare_class_excluded(self):
        pairs = [(seg([[1, 2], [1, 1]]), sal(np.full((2, 2), 255)))]
        rates = salstats.class_hit_rates(pairs, threshold=0, min_occurrences=2)
        assert rates == []

    def test_min_overlap_fraction(self):
        # class 1 covers 4 pixels; mask overlaps exactly 1 of them (25%)
        pairs = [(seg([[1, 1], [1, 1]]), sal([[255, 0], [0, 0]]))]
        hit = salstats.class_hit_rates(pairs, 10, 1, min_overlap_frac=0.25)
        missed = salstats.class_hit_rates(pairs, 10, 1, min_overlap_frac=0.5)
        assert hit[0].hits == 1
        assert missed[0].hits == 0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            salstats.class_hit_rates([(seg([[0]]), sal(np.zeros((2, 2))))], 0, 1)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        pairs = [
            (seg(rng.integers(0, 4, (8, 8))), sal(rng.integers(0, 256, (8, 8))))
            for _ in range(6)
        ]
        previous = None
        for threshold in range(0, 256, 15):
            rates = {c.label: c.rate for c in salstats.class_hit_rates(pairs, threshold, 1)}
            if previous is not None:
                for label, rate in rates.items():
                    assert rate <= previous[label] + 1e-12
            previous = rates

    def test_merge_additivity(self):
        rng = np.random.default_rng(1)
        make = lambda: [
            (seg(rng.integers(0, 3, (5, 5))), sal(rng.integers(0, 256, (5, 5))))
            for _ in range(4)
        ]
        part_a, part_b = make(), make()
        merged = salstats.class_hit_rates(part_a + part_b, 128, 1)
        split_a = {c.label: c for c in salstats.class_hit_rates(part_a, 128, 1)}
        split_b = {c.label: c for c in salstats.class_hit_rates(part_b, 128, 1)}
        for c in merged:
            occ = split_a.get(c.label)
            occ_b = split_b.get(c.label)
            total_occ = (occ.occurrences if occ else 0) + (occ_b.occurrences if occ_b else 0)
            total_hits = (occ.hits if occ else 0) + (occ_b.hits if occ_b else 0)
            assert c.occurrences == total_occ
            assert c.hits == total_hits


class TestSizeSaliency:
    def test_whole_image_class(self):
        points = salstats.size_saliency_distribution(
            [(seg(np.ones((4, 4), dtype=int)), sal(np.full((4, 4), 255)))]
        )
        assert len(points) == 1
        assert points[0].normalized_size == 1.0
        assert points[0].mean_saliency == 1.0

    def test_single_pixel_in_ten_by_ten(self):
        labels = np.zeros((10, 10), dtype=int)
        labels[3, 7] = 1
        points = salstats.size_saliency_distribution([(seg(labels), sal(np.zeros((10, 10))))])
        by_label = {p.label: p for p in points}
        assert by_label[1].normalized_size == 0.01

    def test_half_and_half_intensity(self):
        # 4x4 fixture: class 1 covers 8 pixels, half intensity 0 half 255
        labels = np.zeros((4, 4), dtype=int)
        labels[:2, :] = 1
        intensity = np.zeros((4, 4), dtype=int)
        intensity[0, :] = 255
        points = salstats.size_saliency_distribution([(seg(labels), sal(intensity))])
        by_label = {p.label: p for p in points}
        assert by_label[1].mean_saliency == 0.5
        assert by_label[1].normalized_size == 0.5

    def test_ranges(self):
        rng = np.random.default_rng(2)
        pairs = [(seg(rng.integers(0, 5, (6, 6))), sal(rng.integers(0, 256, (6, 6))))]
        for p in salstats.size_saliency_distribution(pairs):
            assert 0.0 <= p.normalized_size <= 1.0
            assert 0.0 <= p.mean_saliency <= 1.0


class TestAgainstPixelCount:
    """The three per-class tables equal a count over every pixel, written out here."""

    @staticmethod
    def brute_force(pairs, threshold, min_overlap_frac):
        occurrences, hits, points, pixels = {}, {}, [], []
        for index, (s, m) in enumerate(pairs):
            rows, cols = s.labels.shape
            for label in sorted({int(v) for v in s.labels.flat}):
                cells = [(r, c) for r in range(rows) for c in range(cols)
                         if s.labels[r, c] == label]
                bright = sum(1 for r, c in cells if m.intensity[r, c] > threshold)
                occurrences[label] = occurrences.get(label, 0) + 1
                hit = bright >= 1 and bright / len(cells) >= min_overlap_frac
                hits[label] = hits.get(label, 0) + int(hit)
                values = [m.intensity[r, c] / 255.0 for r, c in cells]
                name = s.names.get(label, str(label))
                points.append((label, name, index, len(cells) / (rows * cols),
                               sum(values) / len(values)))
                pixels.append((label, name, index, values))
        counts = [(label, occurrences[label], hits[label]) for label in sorted(occurrences)]
        return counts, points, pixels

    @pytest.mark.parametrize("threshold,min_overlap_frac", [
        (0, 0.0), (100, 0.0), (100, 0.3), (200, 0.1), (254, 0.0), (255, 0.0), (60, 1.0),
    ])
    def test_random_pairs(self, threshold, min_overlap_frac):
        rng = np.random.default_rng(threshold)
        pairs = [
            (seg(rng.integers(0, 5, (5, 6)), {1: "cat", 3: "sky"}),
             sal(rng.integers(0, 256, (5, 6))))
            for _ in range(6)
        ]
        counts, points, pixels = self.brute_force(pairs, threshold, min_overlap_frac)
        rates = salstats.class_hit_rates(pairs, threshold, 1, min_overlap_frac)
        assert [(c.label, c.occurrences, c.hits) for c in rates] == counts
        assert [c.name for c in rates] == [pairs[0][0].name(label) for label, _, _ in counts]
        got = salstats.size_saliency_distribution(pairs)
        assert [(p.label, p.name, p.image_index, p.normalized_size) for p in got] == [
            point[:4] for point in points
        ]
        npt.assert_allclose([p.mean_saliency for p in got], [p[4] for p in points], rtol=1e-12)
        got = salstats.pixel_saliency_values(pairs)
        assert [row[:3] for row in got] == [row[:3] for row in pixels]
        for (_, _, _, values), (_, _, _, expected) in zip(got, pixels):
            npt.assert_array_equal(values, expected)


class TestValidation:
    def test_segmentation_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            seg([[-1, 0]])

    def test_saliency_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sal([[300]])


class TestCsvExport:
    def test_hit_rates_csv(self, tmp_path):
        pairs = [(seg([[0, 1], [1, 1]], {0: "bg", 1: "cat"}), sal(np.full((2, 2), 255)))]
        rates = salstats.class_hit_rates(pairs, 10, 1)
        path = tmp_path / "rates.csv"
        salstats.write_hit_rates_csv(rates, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class,occurrences,hits,rate"
        assert lines[1].startswith("bg,1,1,")

    def test_size_saliency_csv(self, tmp_path):
        pairs = [(seg([[0]]), sal([[128]]))]
        points = salstats.size_saliency_distribution(pairs)
        path = tmp_path / "size.csv"
        salstats.write_size_saliency_csv(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class,image,size,saliency"
