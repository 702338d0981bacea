"""Hot numeric kernels of the cue extractors, vectorized with numpy.

``features.cues.extract_cues`` runs each kernel once per image and shared
intermediate, never once per cue or region: ``siltp_codes`` on the gray
image, ``scncd_assign`` on every pixel once per SCNCD color space, and
``patch_histograms`` once per patch histogram family (HOG, SILTP, each color
histogram), all 165 patches in one offset ``bincount``. ``scncd_accumulate``
is assignment followed by accumulation over one pixel set.

The ``images`` workload of ``perfbench/run.py --trace 1`` times each kernel
on fixed shapes (``kernels.fixed.*_us``); ``tests/test_kernels.py`` checks
them against plain-Python loop oracles.
"""

from __future__ import annotations

import numpy as np

# perfbench/layers.py reads this flag; there is no compiled kernel path.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Patch histogram accumulation
# ---------------------------------------------------------------------------

def patch_histograms(
    bin_idx: np.ndarray,
    weights: np.ndarray,
    rects: np.ndarray,
    n_bins: int,
) -> np.ndarray:
    """Accumulate one weighted histogram per rectangle.

    ``bin_idx`` is an HxW integer grid of per-pixel bin indices (all in
    ``[0, n_bins)``), ``weights`` the matching per-pixel weights and ``rects``
    an (N, 4) array of ``x0, y0, w, h`` rectangles. Returns (N, n_bins).
    Each rectangle's pixels are summed in row-major order; rectangles of one
    size are gathered into a stack and binned by one offset ``bincount``.
    """
    out = np.zeros((rects.shape[0], n_bins), dtype=np.float64)
    sizes = rects[:, 2:]
    for w, h in np.unique(sizes, axis=0):
        sel = np.flatnonzero((sizes[:, 0] == w) & (sizes[:, 1] == h))
        rows = rects[sel, 1, None, None] + np.arange(h)[:, None]
        cols = rects[sel, 0, None, None] + np.arange(w)
        offset = n_bins * np.arange(sel.size)[:, None, None]
        out[sel] = np.bincount(
            (bin_idx[rows, cols] + offset).ravel(),
            weights=weights[rows, cols].ravel(),
            minlength=sel.size * n_bins,
        ).reshape(sel.size, n_bins)
    return out


# ---------------------------------------------------------------------------
# Scale-invariant local ternary pattern codes
# ---------------------------------------------------------------------------

def siltp_codes(gray: np.ndarray, tau: float) -> np.ndarray:
    """Ternary codes for the interior of a grayscale image.

    Each interior pixel compares its 4 cross neighbors (E, S, W, N order)
    against ``(1 +/- tau) * center``; above -> 1, below -> 2, else 0, packed
    base-3. Returns an (H-2, W-2) integer grid of codes in ``[0, 81)``.
    """
    c = gray[1:-1, 1:-1]
    hi = (1.0 + tau) * c
    lo = (1.0 - tau) * c
    code = np.zeros(c.shape, dtype=np.int64)
    scale = 1
    neighbors = (gray[1:-1, 2:], gray[2:, 1:-1], gray[1:-1, :-2], gray[:-2, 1:-1])
    for nb in neighbors:
        code += np.where(nb > hi, 1, np.where(nb < lo, 2, 0)) * scale
        scale *= 3
    return code


# ---------------------------------------------------------------------------
# Soft color-name accumulation
# ---------------------------------------------------------------------------

def scncd_assign(
    pixels: np.ndarray,
    palette: np.ndarray,
    sigma: float,
    knn: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Soft-assign each pixel to its ``knn`` nearest palette colors.

    The weights are Gaussian, ``exp(-d^2 / sigma^2)``, normalized to sum to 1
    per pixel (shifted by the nearest distance for numerical stability; the
    normalization is unchanged). Distance ties select the smaller palette
    index. Returns the (N, knn) palette indices and their weights.
    """
    # squared distances summed channel by channel, left to right
    d2 = (pixels[:, None, 0] - palette[None, :, 0]) ** 2
    for c in range(1, pixels.shape[1]):
        d2 = d2 + (pixels[:, None, c] - palette[None, :, c]) ** 2
    nn = np.argsort(d2, axis=1, kind="stable")[:, :knn]
    nd2 = np.take_along_axis(d2, nn, axis=1)
    kw = np.exp(-(nd2 - nd2[:, :1]) / (sigma * sigma))
    kw /= kw.sum(axis=1, keepdims=True)
    return nn, kw


def scncd_accumulate(
    pixels: np.ndarray,
    palette: np.ndarray,
    weights: np.ndarray,
    sigma: float,
    knn: int,
) -> np.ndarray:
    """Per-name mass of a pixel set: :func:`scncd_assign`, then each pixel's
    assignment weights scaled by ``weights`` and summed in pixel order."""
    nn, kw = scncd_assign(pixels, palette, sigma, knn)
    out = np.zeros(palette.shape[0], dtype=np.float64)
    np.add.at(out, nn.ravel(), (kw * weights[:, None]).ravel())
    return out
