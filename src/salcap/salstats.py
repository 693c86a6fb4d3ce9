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


def _class_pixels(pairs):
    """Per image, per class in label order: (image index, label, name, size, intensities).

    ``size`` is the class's share of the image's pixels and ``intensities``
    holds the saliency of each of its pixels.
    """
    for index, (seg, sal) in enumerate(pairs):
        if seg.labels.shape != sal.intensity.shape:
            raise ValueError(
                "segmentation %r and saliency %r shapes differ"
                % (list(seg.labels.shape), list(sal.intensity.shape))
            )
        for label in np.unique(seg.labels):
            values = sal.intensity[seg.labels == label]
            yield index, int(label), seg.name(label), values.size / seg.labels.size, values


@dataclass
class ClassHitRate:
    label: int
    name: str
    occurrences: int
    hits: int

    @property
    def rate(self):
        return 100.0 * self.hits / self.occurrences


def class_hit_rates(pairs, threshold, min_occurrences, min_overlap_frac=0.0):
    """Hit percentage per class, excluding classes below min_occurrences.

    The threshold is an intensity, 0..255: a pixel is salient when strictly above it.
    """
    data_io.at_least("min_overlap_frac", min_overlap_frac, 0)
    if min_overlap_frac > 1:
        raise ValueError("min_overlap_frac must be <= 1, got %r" % min_overlap_frac)
    if not 0 <= threshold <= 255:
        raise ValueError("threshold must lie in 0..255, got %r" % threshold)
    rates = {}
    for _, label, name, _, values in _class_pixels(pairs):
        rate = rates.setdefault(label, ClassHitRate(label, name, 0, 0))
        rate.occurrences += 1
        overlap = int(np.count_nonzero(values > threshold))
        if overlap >= 1 and overlap / values.size >= min_overlap_frac:
            rate.hits += 1
    return [rates[label] for label in sorted(rates) if rates[label].occurrences >= min_occurrences]


@dataclass
class SizeSaliencyPoint:
    label: int
    name: str
    image_index: int
    normalized_size: float
    mean_saliency: float


def size_saliency_distribution(pairs):
    """Per class instance per image: normalized pixel area and mean saliency."""
    return [
        SizeSaliencyPoint(label, name, index, size,
                          float(values.astype(np.float64).mean()) / 255.0)
        for index, label, name, size, values in _class_pixels(pairs)
    ]


def pixel_saliency_values(pairs):
    """Per class per image: every pixel's saliency in [0,1] (flag-gated export)."""
    return [
        (label, name, index, values.astype(np.float64) / 255.0)
        for index, label, name, _, values in _class_pixels(pairs)
    ]


def write_hit_rates_csv(rates, path):
    data_io.write_csv(["class", "occurrences", "hits", "rate"], [
        [[c.name, c.occurrences, c.hits, "%.6f" % c.rate] for c in rates]
    ], path)


def write_size_saliency_csv(points, path):
    data_io.write_csv(["class", "image", "size", "saliency"], [
        [[p.name, p.image_index, "%.9f" % p.normalized_size, "%.9f" % p.mean_saliency]
         for p in points]
    ], path)
