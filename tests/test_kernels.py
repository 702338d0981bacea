"""The numpy kernels against plain-Python loop oracles, pixel by pixel."""

import itertools

import numpy as np
import pytest

from reidpipe import kernels
from reidpipe.errors import ContractError
from reidpipe.features import convert, patch_grid
from reidpipe.features.scncd import SCNCD_BANDWIDTH, SCNCD_KNN, SCNCD_NAMES, SCNCD_SPACES

rng = np.random.default_rng(20240901)


def patch_histograms_loop(bin_idx, weights, rects, n_bins):
    out = np.zeros((rects.shape[0], n_bins), dtype=np.float64)
    for k in range(rects.shape[0]):
        x0, y0, w, h = rects[k]
        for y in range(y0, y0 + h):
            for x in range(x0, x0 + w):
                out[k, bin_idx[y, x]] += weights[y, x]
    return out


def siltp_codes_loop(gray, tau):
    hh, ww = gray.shape[0] - 2, gray.shape[1] - 2
    code = np.zeros((hh, ww), dtype=np.int64)
    for y in range(hh):
        for x in range(ww):
            center = gray[y + 1, x + 1]
            hi = (1.0 + tau) * center
            lo = (1.0 - tau) * center
            acc = 0
            scale = 1
            # E, S, W, N -- the kernel's neighbor order
            for dy, dx in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                v = gray[y + 1 + dy, x + 1 + dx]
                if v > hi:
                    acc += scale
                elif v < lo:
                    acc += 2 * scale
                scale *= 3
            code[y, x] = acc
    return code


def scncd_assign_loop(pixels, palette, sigma, knn):
    nn = np.zeros((pixels.shape[0], knn), dtype=np.intp)
    kw = np.zeros((pixels.shape[0], knn), dtype=np.float64)
    for p in range(pixels.shape[0]):
        d2 = [float(((pixels[p] - color) ** 2).sum()) for color in palette]
        # nearest first; a distance tie keeps the smaller palette index
        chosen = sorted(range(len(d2)), key=lambda j: (d2[j], j))[:knn]
        weights = [np.exp(-(d2[j] - d2[chosen[0]]) / (sigma * sigma)) for j in chosen]
        total = sum(weights)
        nn[p] = chosen
        kw[p] = [v / total for v in weights]
    return nn, kw


def scncd_accumulate_loop(pixels, palette, weights, sigma, knn):
    out = np.zeros(palette.shape[0], dtype=np.float64)
    for p in range(pixels.shape[0]):
        if weights[p] == 0.0:
            continue
        d2 = [float(((pixels[p] - color) ** 2).sum()) for color in palette]
        # nearest first; a distance tie keeps the smaller palette index
        chosen = sorted(range(len(d2)), key=lambda j: (d2[j], j))[:knn]
        kw = [np.exp(-(d2[j] - d2[chosen[0]]) / (sigma * sigma)) for j in chosen]
        total = sum(kw)
        for j, v in zip(chosen, kw):
            out[j] += weights[p] * v / total
    return out


def random_rects(h, w, n):
    rects = []
    for _ in range(n):
        rw = int(rng.integers(1, w))
        rh = int(rng.integers(1, h))
        x0 = int(rng.integers(0, w - rw + 1))
        y0 = int(rng.integers(0, h - rh + 1))
        rects.append((x0, y0, rw, rh))
    return np.array(rects, dtype=np.int64)


def test_patch_histograms_matches_loop():
    h, w, bins = 40, 30, 17
    idx = rng.integers(0, bins, size=(h, w))
    weights = rng.random((h, w))
    rects = random_rects(h, w, 25)
    got = kernels.patch_histograms(idx, weights, rects, bins)
    want = patch_histograms_loop(idx, weights, rects, bins)
    # both sum each rectangle's pixels in row-major order
    np.testing.assert_array_equal(got, want)


def test_patch_histograms_mixed_sizes_interleaved():
    h, w, bins = 24, 20, 5
    idx = rng.integers(0, bins, size=(h, w))
    weights = rng.random((h, w))
    # three sizes in alternation, a repeated rectangle and two empty ones
    rects = np.array(
        [
            (0, 0, 4, 6), (3, 2, 7, 1), (16, 18, 4, 6), (0, 0, 20, 24),
            (3, 2, 7, 1), (5, 5, 0, 3), (9, 9, 4, 6), (2, 7, 2, 0), (1, 1, 7, 1),
        ],
        dtype=np.int64,
    )
    got = kernels.patch_histograms(idx, weights, rects, bins)
    np.testing.assert_array_equal(got, patch_histograms_loop(idx, weights, rects, bins))
    np.testing.assert_array_equal(got[[5, 7]], 0.0)


def test_patch_histograms_same_rects_on_two_grid_widths():
    rects = random_rects(20, 24, 12)
    for w in (24, 31, 24, 40):
        idx = rng.integers(0, 6, size=(20, w))
        weights = rng.random((20, w))
        got = kernels.patch_histograms(idx, weights, rects, 6)
        np.testing.assert_array_equal(got, patch_histograms_loop(idx, weights, rects, 6))


def test_patch_histograms_hog_tile_and_siltp_inner_families():
    rects = patch_grid().rects
    n, w, h = rects.shape[0], 8, 16
    # HOG: the stack of patches as one (n * h, w) grid, one tile per patch
    tiles = np.column_stack(
        [np.zeros(n, dtype=np.int64), h * np.arange(n), np.full(n, w), np.full(n, h)]
    )
    idx = rng.integers(0, 9, size=(n * h, w))
    mag = rng.random((n * h, w))
    got = kernels.patch_histograms(idx, mag, tiles, 9)
    np.testing.assert_array_equal(got, patch_histograms_loop(idx, mag, tiles, 9))
    # SILTP: each patch's interior on the (H - 2, W - 2) code grid
    inner = np.column_stack([rects[:, :2], rects[:, 2:] - 2])
    codes = rng.integers(0, 81, size=(126, 46))
    ones = np.ones(codes.shape)
    got = kernels.patch_histograms(codes, ones, inner, 81)
    np.testing.assert_array_equal(got, patch_histograms_loop(codes, ones, inner, 81))
    np.testing.assert_array_equal(got.sum(axis=1), 6 * 14)


def test_patch_histograms_empty_rects():
    idx = np.zeros((4, 4), dtype=np.int64)
    weights = np.ones((4, 4))
    rects = np.zeros((0, 4), dtype=np.int64)
    assert kernels.patch_histograms(idx, weights, rects, 3).shape == (0, 3)


def test_patch_histograms_weights_shape_mismatch_is_contract_error():
    idx = np.zeros((6, 5), dtype=np.int64)
    rects = np.array([[0, 0, 2, 2]], dtype=np.int64)
    for weights in (np.ones((5, 6)), np.ones(30), np.ones((6, 4))):
        with pytest.raises(ContractError, match="do not match"):
            kernels.patch_histograms(idx, weights, rects, 3)


@pytest.mark.parametrize("rect", [(4, 0, 2, 2), (0, 5, 1, 2), (-1, 0, 2, 2), (0, 0, -1, 2)])
def test_patch_histograms_rect_outside_grid_is_contract_error(rect):
    idx = np.zeros((6, 5), dtype=np.int64)
    rects = np.array([(0, 0, 5, 6), rect], dtype=np.int64)
    with pytest.raises(ContractError, match="inside the 6x5 grid"):
        kernels.patch_histograms(idx, np.ones((6, 5)), rects, 3)


def test_patch_gather_plan_is_read_only_and_row_major():
    index, patch_id = kernels.patch_gather_plan(np.array([[1, 2, 3, 2], [0, 0, 1, 1]]), (5, 7))
    np.testing.assert_array_equal(index, [15, 16, 17, 22, 23, 24, 0])
    np.testing.assert_array_equal(patch_id, [0, 0, 0, 0, 0, 0, 1])
    assert not index.flags.writeable and not patch_id.flags.writeable


def test_siltp_codes_matches_loop():
    gray = rng.random((33, 21))
    got = kernels.siltp_codes(gray, 0.3)
    want = siltp_codes_loop(gray, 0.3)
    assert got.shape == (31, 19)
    np.testing.assert_array_equal(got, want)


def test_scncd_accumulate_matches_loop():
    pixels = rng.random((500, 3))
    palette = rng.random((16, 3))
    weights = rng.random(500)
    got = kernels.scncd_accumulate(pixels, palette, weights, 0.125, 3)
    want = scncd_accumulate_loop(pixels, palette, weights, 0.125, 3)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_scncd_accumulate_zero_weights_skip_matches():
    pixels = rng.random((100, 3))
    palette = rng.random((8, 3))
    weights = rng.random(100)
    weights[::3] = 0.0
    got = kernels.scncd_accumulate(pixels, palette, weights, 0.2, 3)
    want = scncd_accumulate_loop(pixels, palette, weights, 0.2, 3)
    np.testing.assert_allclose(got, want, atol=1e-10)


def tie_pixels():
    """RGB points on the names' 1/8 lattice, many equidistant from two or
    four names, and 8-bit pixels, a third of them with r == g (the names
    that swap r and g are then exactly equally far)."""
    lattice = np.array(list(itertools.product(np.arange(9) / 8, repeat=3)))
    eight_bit = rng.integers(0, 256, size=(1500, 3))
    eight_bit[:500, 1] = eight_bit[:500, 0]
    return {"lattice": lattice, "8-bit": eight_bit / 255.0}


@pytest.mark.parametrize("space", SCNCD_SPACES)
@pytest.mark.parametrize("kind", ["lattice", "8-bit"])
def test_scncd_assign_exact_ties_match_loop(space, kind):
    pixels = np.ascontiguousarray(convert(tie_pixels()[kind], space))
    palette = np.ascontiguousarray(convert(SCNCD_NAMES, space))
    nn, kw = kernels.scncd_assign(pixels, palette, SCNCD_BANDWIDTH, SCNCD_KNN)
    want_nn, want_kw = scncd_assign_loop(pixels, palette, SCNCD_BANDWIDTH, SCNCD_KNN)
    np.testing.assert_array_equal(nn, want_nn)
    np.testing.assert_array_equal(kw, want_kw)
    # the inputs do tie: among the kept names, and at the knn-th name
    d2 = ((pixels[:, None, :] - palette[None, :, :]) ** 2).sum(axis=2)
    nearest = np.sort(d2, axis=1)[:, : SCNCD_KNN + 1]
    assert np.any(nearest[:, :-1] == nearest[:, 1:])
    assert np.any(nearest[:, -2] == nearest[:, -1])

