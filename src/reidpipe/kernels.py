"""Hot numeric kernels of the cue extractors, vectorized with numpy.

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
    """
    out = np.zeros((rects.shape[0], n_bins), dtype=np.float64)
    for k in range(rects.shape[0]):
        x0, y0, w, h = rects[k]
        idx = bin_idx[y0 : y0 + h, x0 : x0 + w].ravel()
        wts = weights[y0 : y0 + h, x0 : x0 + w].ravel()
        out[k] = np.bincount(idx, weights=wts, minlength=n_bins)
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

def scncd_accumulate(
    pixels: np.ndarray,
    palette: np.ndarray,
    weights: np.ndarray,
    sigma: float,
    knn: int,
) -> np.ndarray:
    """Accumulate soft color-name assignments over a pixel set.

    Each pixel is softly assigned to its ``knn`` nearest palette colors with
    Gaussian weights ``exp(-d^2 / sigma^2)`` normalized to sum to 1 (shifted
    by the nearest distance for numerical stability; the normalization is
    unchanged). Distance ties select the smaller palette index. Returns the
    per-name accumulated mass, weighted by ``weights``.
    """
    n_names = palette.shape[0]
    if pixels.shape[0] == 0:
        return np.zeros(n_names, dtype=np.float64)
    d2 = ((pixels[:, None, :] - palette[None, :, :]) ** 2).sum(axis=2)
    nn = np.argsort(d2, axis=1, kind="stable")[:, :knn]
    nd2 = np.take_along_axis(d2, nn, axis=1)
    kw = np.exp(-(nd2 - nd2[:, :1]) / (sigma * sigma))
    kw /= kw.sum(axis=1, keepdims=True)
    out = np.zeros(n_names, dtype=np.float64)
    np.add.at(out, nn.ravel(), (kw * weights[:, None]).ravel())
    return out
