"""Weighted color histograms over patches and regions."""

from __future__ import annotations

import numpy as np

from .. import kernels

JOINT_BINS = 8  # per axis: a joint histogram has 8**3 bins
CHANNEL_BINS = 16


def quantize(channels: np.ndarray, bins: int) -> np.ndarray:
    """Uniformly bin channel values in [0, 1]; 1.0 lands in the top bin."""
    idx = (channels * bins).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def joint_bin_grid(space_img: np.ndarray) -> np.ndarray:
    """Combined 3-channel bin index grid for a converted (H, W, 3) image."""
    q = quantize(space_img, JOINT_BINS)
    return (q[..., 0] * JOINT_BINS + q[..., 1]) * JOINT_BINS + q[..., 2]


def _weights_grid(shape: tuple[int, int], weights: np.ndarray | None) -> np.ndarray:
    if weights is None:
        return np.ones(shape, dtype=np.float64)
    return np.asarray(weights, dtype=np.float64)


def patch_joint_histograms(
    space_img: np.ndarray, rects: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per-patch joint histograms for all rects of an image at once."""
    grid = joint_bin_grid(space_img)
    w = _weights_grid(grid.shape, weights)
    return kernels.patch_histograms(grid, w, rects, JOINT_BINS**3)


def patch_channel_histograms(
    space_img: np.ndarray, rects: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per-patch concatenated channel histograms for all rects at once."""
    w = _weights_grid(space_img.shape[:2], weights)
    parts = [
        kernels.patch_histograms(quantize(space_img[..., c], CHANNEL_BINS), w, rects, CHANNEL_BINS)
        for c in range(3)
    ]
    return np.concatenate(parts, axis=1)
