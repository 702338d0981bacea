"""Salient color name descriptor: soft palette assignment fused with histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from .colorspace import convert
from .histograms import quantize

SCNCD_SPACES = ("rgb", "nrgb", "l1l2l3", "hsv")
SCNCD_HIST_BINS = 32
SCNCD_KNN = 3
# the 16 color names: the centers of a 2x2x4 partition of the RGB cube
SCNCD_NAMES = np.array(
    [(r, g, b) for r in (0.25, 0.75) for g in (0.25, 0.75) for b in (0.125, 0.375, 0.625, 0.875)]
)
SCNCD_NAMES.flags.writeable = False
SCNCD_BANDWIDTH = 0.125  # half the smallest distance between two names, 0.25


def _l1_normalize(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    return v / total if total > 0 else v


@dataclass(frozen=True)
class ColorNameAssignment:
    """Per-pixel SCNCD terms of a pixel set, one entry per color space.

    ``nn[s]`` and ``kw[s]`` hold each pixel's ``SCNCD_KNN`` nearest names
    and soft weights in space ``s``, ``bins[s]`` its quantized channels.
    Pixels keep the row-major order of the image they came from, so a run of
    image rows is a contiguous pixel range.
    """

    nn: tuple[np.ndarray, ...]
    kw: tuple[np.ndarray, ...]
    bins: tuple[np.ndarray, ...]
    n_pixels: int


def assign_color_names(pixels: np.ndarray) -> ColorNameAssignment:
    """Soft-assign and bin every pixel once per space.

    The spaces convert elementwise, so the terms of a sub-range of pixels
    equal those computed from that sub-range alone.
    """
    rgb = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
    nn, kw, bins = [], [], []
    for space in SCNCD_SPACES:
        px = convert(rgb, space)
        space_nn, space_kw = kernels.scncd_assign(
            np.ascontiguousarray(px),
            np.ascontiguousarray(convert(SCNCD_NAMES, space)),
            SCNCD_BANDWIDTH,
            SCNCD_KNN,
        )
        nn.append(space_nn)
        kw.append(space_kw)
        bins.append(quantize(px, SCNCD_HIST_BINS))
    return ColorNameAssignment(tuple(nn), tuple(kw), tuple(bins), rgb.shape[0])


def scncd_regions(
    assignment: ColorNameAssignment,
    bounds: list[tuple[int, int]],
    weights: np.ndarray | None = None,
) -> list[np.ndarray]:
    """The SCNCD descriptor of each pixel range ``[start, stop)`` in ``bounds``.

    For each space the range's soft name distribution is concatenated with
    per-channel ``SCNCD_HIST_BINS``-bin histograms; each space block is L1-normalized
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
            names = np.zeros(len(SCNCD_NAMES), dtype=np.float64)
            np.add.at(names, nn[a:b].ravel(), m[a:b].ravel())
            hists = [
                np.bincount(q[a:b, c], weights=w[a:b], minlength=SCNCD_HIST_BINS)
                for c in range(3)
            ]
            blocks.append(_l1_normalize(np.concatenate([names, *hists])))
        out.append(np.concatenate(blocks))
    return out


def scncd_descriptor(pixels: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Color-name distributions fused with channel histograms across spaces:
    :func:`scncd_regions` of one region covering every pixel."""
    assignment = assign_color_names(pixels)
    return scncd_regions(assignment, [(0, assignment.n_pixels)], weights)[0]
