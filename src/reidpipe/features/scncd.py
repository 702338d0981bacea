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


def scncd_descriptor(
    pixels: np.ndarray,
    palette: ColorNamePalette | None = None,
    weights: np.ndarray | None = None,
    hist_bins: int = SCNCD_HIST_BINS,
    spaces: tuple[str, ...] = SCNCD_SPACES,
) -> np.ndarray:
    """Color-name distributions fused with channel histograms across spaces.

    For each space the region's soft name distribution is concatenated with
    per-channel ``hist_bins`` histograms; each space block is L1-normalized
    before the final concatenation. ``weights`` (foreground mask) scale both
    parts; an all-zero weighting yields the zero vector.
    """
    palette = palette or default_palette()
    rgb = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
    w = (
        np.ones(rgb.shape[0], dtype=np.float64)
        if weights is None
        else np.asarray(weights, dtype=np.float64).reshape(-1)
    )
    blocks: list[np.ndarray] = []
    for space in spaces:
        px = convert(rgb, space)
        pal = convert(palette.names, space)
        names = color_name_distribution(px, pal, w, palette.kernel_bandwidth, palette.knn)
        q = quantize(px, hist_bins)
        hists = [
            np.bincount(q[:, c], weights=w, minlength=hist_bins) for c in range(3)
        ]
        blocks.append(_l1_normalize(np.concatenate([names] + hists)))
    return np.concatenate(blocks)

