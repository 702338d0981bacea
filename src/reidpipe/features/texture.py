"""Texture descriptors: per-patch HOG and SILTP histograms."""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import ContractError

HOG_BINS = 9
# SILTP compares each pixel with its 4 cross neighbors at radius 1: 3**4 codes
SILTP_TAU = 0.3
SILTP_BINS = 81


def hog_orientation_grid(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel unsigned orientation bin and gradient magnitude.

    Gradients run along the last two axes, so a stack of patches gets each
    patch's own gradients.
    """
    gy, gx = np.gradient(gray, axis=(-2, -1))
    mag = np.hypot(gx, gy)
    ang = np.arctan2(gy, gx) % np.pi
    idx = np.clip((ang / np.pi * HOG_BINS).astype(np.int64), 0, HOG_BINS - 1)
    return idx, mag


def patch_hog_histograms(gray: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Per-patch HOG histograms of equally sized patches, all in one pass.

    Gradients are taken patch-locally: at patch borders they use the patch's
    own one-sided differences, so each row equals the histogram of the
    cropped patch alone. Each patch's pixels are summed in row-major order.
    """
    n = rects.shape[0]
    if n == 0:
        return np.zeros((0, HOG_BINS), dtype=np.float64)
    w, h = rects[0, 2], rects[0, 3]
    if np.any(rects[:, 2] != w) or np.any(rects[:, 3] != h):
        raise ContractError("patch_hog_histograms needs equally sized patches")
    gray = np.asarray(gray, dtype=np.float64)
    index, _ = kernels.patch_gather_plan(rects, gray.shape)
    idx, mag = hog_orientation_grid(gray.take(index).reshape(n, h, w))
    # the (n, h, w) stack as one (n * h, w) grid with one rectangle per patch
    tiles = np.column_stack(
        [np.zeros(n, dtype=np.int64), h * np.arange(n), np.full(n, w), np.full(n, h)]
    )
    return kernels.patch_histograms(idx.reshape(n * h, w), mag.reshape(n * h, w), tiles, HOG_BINS)


def patch_siltp_histograms(gray: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Per-patch SILTP histograms from one image-wide code grid.

    Interior codes of a patch only reference pixels inside the patch, so
    cropping the image-wide code grid is identical to per-patch computation.
    """
    codes = kernels.siltp_codes(np.asarray(gray, dtype=np.float64), SILTP_TAU)
    ones = np.ones(codes.shape, dtype=np.float64)
    inner = np.column_stack(
        [rects[:, 0], rects[:, 1], np.maximum(rects[:, 2] - 2, 0), np.maximum(rects[:, 3] - 2, 0)]
    ).astype(np.int64)
    return kernels.patch_histograms(codes, ones, inner, SILTP_BINS)
