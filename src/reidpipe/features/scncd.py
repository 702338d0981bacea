"""Salient color name descriptor: soft palette assignment fused with histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import ConfigError
from .colorspace import convert
from .histograms import quantize

SCNCD_SPACES = ("rgb", "nrgb", "l1l2l3", "hsv")
SCNCD_HIST_BINS = 32
SCNCD_KNN = 3


def _min_pairwise_distance(points: np.ndarray) -> float:
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    d2[np.diag_indices_from(d2)] = np.inf
    return float(np.sqrt(d2.min()))


@dataclass(frozen=True)
class ColorNamePalette:
    """Representative RGB colors with a soft-assignment kernel bandwidth."""

    names: np.ndarray
    kernel_bandwidth: float
    knn: int = SCNCD_KNN

    @property
    def count(self) -> int:
        return self.names.shape[0]

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError("palette needs at least 2 colors")
        if _min_pairwise_distance(self.names) == 0.0:
            raise ConfigError("palette colors must be distinct")
        if self.kernel_bandwidth <= 0:
            raise ConfigError("kernel bandwidth must be positive")


def default_palette() -> ColorNamePalette:
    """16 representative colors at the centers of a 2x2x4 RGB partition.

    Bandwidth is half the minimum inter-name distance.
    """
    rs = np.array([0.25, 0.75])
    gs = np.array([0.25, 0.75])
    bs = np.array([0.125, 0.375, 0.625, 0.875])
    names = np.array([(r, g, b) for r in rs for g in gs for b in bs])
    return ColorNamePalette(names=names, kernel_bandwidth=_min_pairwise_distance(names) / 2.0)


def color_name_distribution(
    pixels_in_space: np.ndarray,
    palette_in_space: np.ndarray,
    weights: np.ndarray,
    sigma: float,
    knn: int,
) -> np.ndarray:
    """Raw per-name accumulated mass (sums to the total pixel weight)."""
    return kernels.scncd_accumulate(
        np.ascontiguousarray(pixels_in_space, dtype=np.float64),
        np.ascontiguousarray(palette_in_space, dtype=np.float64),
        np.ascontiguousarray(weights, dtype=np.float64),
        float(sigma),
        int(knn),
    )


def _l1_normalize(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    return v / total if total > 0 else v


@dataclass(frozen=True)
class ColorNameAssignment:
    """Per-pixel SCNCD terms of a pixel set, one entry per color space.

    ``nn[s]`` and ``kw[s]`` hold each pixel's ``knn`` nearest palette names
    and soft weights in space ``s``, ``bins[s]`` its quantized channels.
    Pixels keep the row-major order of the image they came from, so a run of
    image rows is a contiguous pixel range.
    """

    nn: tuple[np.ndarray, ...]
    kw: tuple[np.ndarray, ...]
    bins: tuple[np.ndarray, ...]
    n_pixels: int
    n_names: int
    hist_bins: int


def assign_color_names(
    pixels: np.ndarray,
    palette: ColorNamePalette | None = None,
    hist_bins: int = SCNCD_HIST_BINS,
    spaces: tuple[str, ...] = SCNCD_SPACES,
) -> ColorNameAssignment:
    """Soft-assign and bin every pixel once per space.

    The spaces convert elementwise, so the terms of a sub-range of pixels
    equal those computed from that sub-range alone.
    """
    palette = palette or default_palette()
    rgb = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
    nn, kw, bins = [], [], []
    for space in spaces:
        px = convert(rgb, space)
        space_nn, space_kw = kernels.scncd_assign(
            np.ascontiguousarray(px),
            np.ascontiguousarray(convert(palette.names, space), dtype=np.float64),
            float(palette.kernel_bandwidth),
            int(palette.knn),
        )
        nn.append(space_nn)
        kw.append(space_kw)
        bins.append(quantize(px, hist_bins))
    return ColorNameAssignment(
        tuple(nn), tuple(kw), tuple(bins), rgb.shape[0], palette.count, hist_bins
    )


def scncd_regions(
    assignment: ColorNameAssignment,
    bounds: list[tuple[int, int]],
    weights: np.ndarray | None = None,
) -> list[np.ndarray]:
    """The SCNCD descriptor of each pixel range ``[start, stop)`` in ``bounds``.

    For each space the range's soft name distribution is concatenated with
    per-channel ``hist_bins`` histograms; each space block is L1-normalized
    before the final concatenation. ``weights`` (foreground mask, one per
    pixel) scale both parts; an all-zero weighting yields the zero vector.
    Every sum runs over the range's pixels in order.
    """
    w = (
        np.ones(assignment.n_pixels, dtype=np.float64)
        if weights is None
        else np.asarray(weights, dtype=np.float64).reshape(-1)
    )
    mass = [kw * w[:, None] for kw in assignment.kw]
    out = []
    for a, b in bounds:
        blocks = []
        for nn, m, q in zip(assignment.nn, mass, assignment.bins):
            names = np.zeros(assignment.n_names, dtype=np.float64)
            np.add.at(names, nn[a:b].ravel(), m[a:b].ravel())
            hists = [
                np.bincount(q[a:b, c], weights=w[a:b], minlength=assignment.hist_bins)
                for c in range(3)
            ]
            blocks.append(_l1_normalize(np.concatenate([names, *hists])))
        out.append(np.concatenate(blocks))
    return out


def scncd_descriptor(
    pixels: np.ndarray,
    palette: ColorNamePalette | None = None,
    weights: np.ndarray | None = None,
    hist_bins: int = SCNCD_HIST_BINS,
    spaces: tuple[str, ...] = SCNCD_SPACES,
) -> np.ndarray:
    """Color-name distributions fused with channel histograms across spaces:
    :func:`scncd_regions` of one region covering every pixel."""
    assignment = assign_color_names(pixels, palette, hist_bins, spaces)
    return scncd_regions(assignment, [(0, assignment.n_pixels)], weights)[0]
