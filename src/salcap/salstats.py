"""Which semantic classes does saliency hit, and how does size relate to it.

Works on pairs of human-annotated segmentation maps and predicted
saliency maps of equal size.  Saliency maps are binarized by strict
thresholding; a class counts as hit in an image when its pixels overlap
the binary mask (by at least ``min_overlap_frac`` of the class area,
default: any single pixel).
"""

from dataclasses import dataclass, field

import numpy as np

from . import data_io


@dataclass
class SegmentationMap:
    labels: np.ndarray  # H x W non-negative class labels
    names: dict = field(default_factory=dict)  # label -> class name

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2 or self.labels.size == 0:
            raise ValueError("segmentation map must be a non-empty 2-D grid")
        if self.labels.min() < 0:
            raise ValueError("segmentation labels must be non-negative")

    def name(self, label):
        return self.names.get(int(label), str(int(label)))


@dataclass
class SaliencyMap:
    intensity: np.ndarray  # H x W, 0..255

    def __post_init__(self):
        self.intensity = np.asarray(self.intensity)
        if self.intensity.ndim != 2 or self.intensity.size == 0:
            raise ValueError("saliency map must be a non-empty 2-D grid")
        if self.intensity.min() < 0 or self.intensity.max() > 255:
            raise ValueError("saliency intensities must lie in 0..255")


def binarize(saliency, threshold):
    """Binary mask: 1 where intensity is strictly above the threshold."""
    return (saliency.intensity > threshold).astype(np.uint8)


def _check_pair(seg, sal):
    if seg.labels.shape != sal.intensity.shape:
        raise ValueError(
            "segmentation %r and saliency %r shapes differ"
            % (list(seg.labels.shape), list(sal.intensity.shape))
        )


@dataclass
class ClassHitRate:
    label: int
    name: str
    occurrences: int
    hits: int

    @property
    def rate(self):
        return 100.0 * self.hits / self.occurrences


def class_hit_counts(pairs, threshold, min_overlap_frac=0.0):
    """Per-class (occurrences, hits) over all image pairs, without filtering."""
    data_io.at_least("min_overlap_frac", min_overlap_frac, 0)
    occurrences = {}
    hits = {}
    names = {}
    for seg, sal in pairs:
        _check_pair(seg, sal)
        mask = binarize(sal, threshold).astype(bool)
        for label in np.unique(seg.labels):
            label = int(label)
            names.setdefault(label, seg.name(label))
            occurrences[label] = occurrences.get(label, 0) + 1
            class_mask = seg.labels == label
            overlap = int(np.count_nonzero(class_mask & mask))
            frac = overlap / int(np.count_nonzero(class_mask))
            if overlap >= 1 and frac >= min_overlap_frac:
                hits[label] = hits.get(label, 0) + 1
    return [
        ClassHitRate(label, names[label], occurrences[label], hits.get(label, 0))
        for label in sorted(occurrences)
    ]


def class_hit_rates(pairs, threshold, min_occurrences, min_overlap_frac=0.0):
    """Hit percentage per class, excluding classes below min_occurrences."""
    return [
        c for c in class_hit_counts(pairs, threshold, min_overlap_frac)
        if c.occurrences >= min_occurrences
    ]


@dataclass
class SizeSaliencyPoint:
    label: int
    name: str
    image_index: int
    normalized_size: float
    mean_saliency: float


def size_saliency_distribution(pairs):
    """Per class instance per image: normalized pixel area and mean saliency."""
    points = []
    for index, (seg, sal) in enumerate(pairs):
        _check_pair(seg, sal)
        area = seg.labels.size
        intensity = sal.intensity.astype(np.float64)
        for label in np.unique(seg.labels):
            label = int(label)
            class_mask = seg.labels == label
            pixels = int(np.count_nonzero(class_mask))
            points.append(
                SizeSaliencyPoint(
                    label=label,
                    name=seg.name(label),
                    image_index=index,
                    normalized_size=pixels / area,
                    mean_saliency=float(intensity[class_mask].mean()) / 255.0,
                )
            )
    return points


def pixel_saliency_values(pairs):
    """Per class per image: every pixel's saliency in [0,1] (flag-gated export)."""
    rows = []
    for index, (seg, sal) in enumerate(pairs):
        _check_pair(seg, sal)
        intensity = sal.intensity.astype(np.float64) / 255.0
        for label in np.unique(seg.labels):
            label = int(label)
            values = intensity[seg.labels == label]
            rows.append((label, seg.name(label), index, values.copy()))
    return rows


def write_hit_rates_csv(rates, path):
    data_io.write_csv(["class", "occurrences", "hits", "rate"], [
        [[c.name, c.occurrences, c.hits, "%.6f" % c.rate] for c in rates]
    ], path)


def write_size_saliency_csv(points, path):
    data_io.write_csv(["class", "image", "size", "saliency"], [
        [[p.name, p.image_index, "%.9f" % p.normalized_size, "%.9f" % p.mean_saliency]
         for p in points]
    ], path)
