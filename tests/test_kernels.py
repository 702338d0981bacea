"""The numpy kernels against plain-Python loop oracles, pixel by pixel."""

import numpy as np

from reidpipe import kernels

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
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_patch_histograms_empty_rects():
    idx = np.zeros((4, 4), dtype=np.int64)
    weights = np.ones((4, 4))
    rects = np.zeros((0, 4), dtype=np.int64)
    assert kernels.patch_histograms(idx, weights, rects, 3).shape == (0, 3)


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
