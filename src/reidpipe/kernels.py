"""Hot numeric kernels of the cue extractors, vectorized with numpy.

``features.cues.extract_cues`` runs each kernel once per image and shared
intermediate, never once per cue or region: ``siltp_codes`` on the gray
image, ``scncd_assign`` on every pixel once per SCNCD color space, and
``patch_histograms`` once per patch histogram family (HOG, SILTP, each color
histogram), all 165 patches in one offset ``bincount``. ``scncd_accumulate``
is assignment followed by accumulation over one pixel set.

Each call does only the work that depends on its image. The flat pixel index
of every rectangle and the rectangle id of every gathered pixel depend on the
rectangles and the grid shape alone; :func:`patch_gather_plan` builds them
once per rectangle set and grid shape and keeps the last few. ``scncd_assign``
selects the ``knn`` nearest names by successive minimum passes over its
(names, pixels) distances instead of sorting all of them.

The ``images`` workload of ``perfbench/run.py --trace 1`` times each kernel
on fixed shapes (``kernels.fixed.*_us``); ``tests/test_kernels.py`` checks
them against plain-Python loop oracles.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContractError

# perfbench/layers.py reads this flag; there is no compiled kernel path.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Patch histogram accumulation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _cached_plan(
    rects_key: bytes, grid_shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    rects = np.frombuffer(rects_key, dtype=np.int64).reshape(-1, 4)
    x0, y0, w, h = rects.T
    height, width = grid_shape
    if np.any((w < 0) | (h < 0) | (x0 < 0) | (y0 < 0) | (x0 + w > width) | (y0 + h > height)):
        raise ContractError(f"patch rectangles must lie inside the {height}x{width} grid")
    sizes = w * h
    patch_id = np.repeat(np.arange(rects.shape[0]), sizes)
    # each pixel's row-major position inside its rectangle, then in the grid
    pos = np.arange(patch_id.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rect_w = np.maximum(w, 1)[patch_id]
    index = (y0[patch_id] + pos // rect_w) * width + x0[patch_id] + pos % rect_w
    index.flags.writeable = False
    patch_id.flags.writeable = False
    return index, patch_id


def patch_gather_plan(
    rects: np.ndarray, grid_shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The flat gather index of ``rects`` (an (N, 4) array of ``x0, y0, w,
    h``) over a grid of ``grid_shape`` (H, W), and the rectangle id of each
    gathered pixel.

    Rectangles follow one another, each one's pixels in row-major order.
    Plans are kept for the last few rectangle sets and grid shapes, so a
    caller with a fixed geometry builds its plan once per process; the
    returned arrays are read-only. A rectangle that is not inside the grid
    raises ``ContractError``.
    """
    key = np.ascontiguousarray(rects, dtype=np.int64).reshape(-1, 4).tobytes()
    return _cached_plan(key, (int(grid_shape[0]), int(grid_shape[1])))


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
    Every rectangle's pixels are gathered by its :func:`patch_gather_plan`,
    offset by ``n_bins`` times the rectangle id and binned by one
    ``bincount``, so each rectangle's pixels are summed in row-major order.
    """
    if np.shape(weights) != np.shape(bin_idx):
        raise ContractError(
            f"weights of shape {np.shape(weights)} do not match the bin grid's {np.shape(bin_idx)}"
        )
    index, patch_id = patch_gather_plan(rects, np.shape(bin_idx))
    n = rects.shape[0]
    return np.bincount(
        np.take(bin_idx, index) + n_bins * patch_id,
        weights=np.take(weights, index),
        minlength=n * n_bins,
    ).reshape(n, n_bins)


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
    # squared distances as (names, pixels), summed channel by channel, left
    # to right, so each reduction over the names runs along whole rows
    d2 = (palette[:, None, 0] - pixels[None, :, 0]) ** 2
    for c in range(1, pixels.shape[1]):
        d2 = d2 + (palette[:, None, c] - pixels[None, :, c]) ** 2
    # the knn nearest in order: the first name at each pixel's minimum, so a
    # tie goes to the smaller palette index, as a stable sort would
    k = min(knn, palette.shape[0])
    columns = np.arange(d2.shape[1])
    nn = np.empty((d2.shape[1], k), dtype=np.intp)
    nd2 = np.empty((d2.shape[1], k), dtype=np.float64)
    for i in range(k):
        nd2[:, i] = nearest = d2.min(axis=0)
        nn[:, i] = (d2 == nearest).argmax(axis=0)
        d2[nn[:, i], columns] = np.inf
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
