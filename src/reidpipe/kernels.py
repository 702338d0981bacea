"""Hot numeric kernels, compiled with numba when available.

Every kernel exists in two equivalent implementations: a pure-numpy version
(always importable as ``<name>_numpy``) and a loop version compiled with
``numba.njit``. The public name points at the compiled version unless numba
is unavailable or the ``REIDPIPE_NO_NUMBA`` environment variable is set to
``1``/``true``/``yes`` at import time; ``USE_NUMBA`` records the choice.

The ``images`` workload of ``perfbench/run.py --trace 1`` times the selected
path on fixed shapes (``kernels.fixed.*_us``) and checks the compiled path
against the numpy one.
"""

from __future__ import annotations

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("REIDPIPE_NO_NUMBA", "").strip().lower() in {"1", "true", "yes"}


USE_NUMBA = False
if not _numba_disabled():
    try:
        from numba import njit

        USE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USE_NUMBA = False


# ---------------------------------------------------------------------------
# Patch histogram accumulation
# ---------------------------------------------------------------------------

def patch_histograms_numpy(
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


def _patch_histograms_impl(bin_idx, weights, rects, n_bins):
    out = np.zeros((rects.shape[0], n_bins), dtype=np.float64)
    for k in range(rects.shape[0]):
        x0 = rects[k, 0]
        y0 = rects[k, 1]
        w = rects[k, 2]
        h = rects[k, 3]
        for y in range(y0, y0 + h):
            for x in range(x0, x0 + w):
                out[k, bin_idx[y, x]] += weights[y, x]
    return out


# ---------------------------------------------------------------------------
# Scale-invariant local ternary pattern codes
# ---------------------------------------------------------------------------

def siltp_codes_numpy(gray: np.ndarray, tau: float) -> np.ndarray:
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


def _siltp_codes_impl(gray, tau):
    hh = gray.shape[0] - 2
    ww = gray.shape[1] - 2
    code = np.zeros((hh, ww), dtype=np.int64)
    for y in range(hh):
        for x in range(ww):
            center = gray[y + 1, x + 1]
            hi = (1.0 + tau) * center
            lo = (1.0 - tau) * center
            acc = 0
            scale = 1
            # E, S, W, N -- must match the vectorized neighbor order
            for dy, dx in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                v = gray[y + 1 + dy, x + 1 + dx]
                if v > hi:
                    acc += scale
                elif v < lo:
                    acc += 2 * scale
                scale *= 3
            code[y, x] = acc
    return code


# ---------------------------------------------------------------------------
# Soft color-name accumulation
# ---------------------------------------------------------------------------

def scncd_accumulate_numpy(
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


def _scncd_accumulate_impl(pixels, palette, weights, sigma, knn):
    n_pix = pixels.shape[0]
    n_names = palette.shape[0]
    n_ch = pixels.shape[1]
    out = np.zeros(n_names, dtype=np.float64)
    d2 = np.empty(n_names, dtype=np.float64)
    chosen = np.empty(knn, dtype=np.int64)
    kw = np.empty(knn, dtype=np.float64)
    used = np.empty(n_names, dtype=np.bool_)
    for p in range(n_pix):
        wp = weights[p]
        if wp == 0.0:
            continue
        for j in range(n_names):
            acc = 0.0
            for c in range(n_ch):
                diff = pixels[p, c] - palette[j, c]
                acc += diff * diff
            d2[j] = acc
        used[:] = False
        for k in range(knn):
            best = 0
            bestv = np.inf
            for j in range(n_names):
                if not used[j] and d2[j] < bestv:
                    bestv = d2[j]
                    best = j
            used[best] = True
            chosen[k] = best
            kw[k] = bestv
        dmin = kw[0]
        total = 0.0
        for k in range(knn):
            v = np.exp(-(kw[k] - dmin) / (sigma * sigma))
            kw[k] = v
            total += v
        for k in range(knn):
            out[chosen[k]] += wp * kw[k] / total
    return out


if USE_NUMBA:
    patch_histograms = njit(cache=True)(_patch_histograms_impl)
    siltp_codes = njit(cache=True)(_siltp_codes_impl)
    scncd_accumulate = njit(cache=True)(_scncd_accumulate_impl)
else:
    patch_histograms = patch_histograms_numpy
    siltp_codes = siltp_codes_numpy
    scncd_accumulate = scncd_accumulate_numpy
