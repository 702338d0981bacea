import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidpipe import datamodel, kernels
from reidpipe.datamodel import ForegroundMask, SparseBlock
from reidpipe.errors import ConfigError, DataError, NumericError
from reidpipe.features import (
    PcaModel,
    CUE_IDS,
    assemble_cue,
    convert,
    extract_cues,
    fit_pca,
    apply_pca,
    patch_grid,
    patch_stripe_indices,
    stripe_bounds,
    to_gray,
    to_l1l2l3,
    to_normalized_rgb,
)
from reidpipe.features import pca
from reidpipe.features.histograms import patch_channel_histograms, patch_joint_histograms
from reidpipe.features.scncd import (
    SCNCD_BANDWIDTH,
    SCNCD_KNN,
    SCNCD_NAMES,
    SCNCD_SPACES,
    assign_color_names,
    scncd_regions,
)
from reidpipe.features.texture import patch_hog_histograms

from oracles import siltp_descriptor

rng = np.random.default_rng(7)


def random_patch(h=16, w=8):
    return rng.random((h, w, 3))


# The descriptors of one whole patch or region: each the batched function on
# the one rectangle, or pixel range, that covers its input.

def whole(image):
    return np.array([[0, 0, image.shape[1], image.shape[0]]])


def joint_color_histogram(pixels, space, weights=None):
    return patch_joint_histograms(convert(pixels, space), whole(pixels), weights)[0]


def channel_histogram(pixels, space, weights=None):
    return patch_channel_histograms(convert(pixels, space), whole(pixels), weights)[0]


def hog_descriptor(gray):
    return patch_hog_histograms(gray, whole(gray))[0]


def scncd_descriptor(pixels, weights=None):
    spaces = {space: convert(pixels, space) for space in SCNCD_SPACES}
    return scncd_regions(assign_color_names(spaces), [(0, pixels[..., 0].size)], weights)[0]


# ---------------------------------------------------------------------------
# Patch grid
# ---------------------------------------------------------------------------

def enumerate_positions(extent, patch, stride):
    """Independent oracle: walk positions, clamp the last one."""
    xs = []
    x = 0
    while x + patch <= extent:
        xs.append(x)
        x += stride
    if xs[-1] + patch < extent:
        xs.append(extent - patch)
    return xs


def test_patch_grid_standard_count():
    grid = patch_grid(48, 128, 8, 16, 4, 8)
    cols = enumerate_positions(48, 8, 4)
    rows = enumerate_positions(128, 16, 8)
    assert len(cols) == 11 and len(rows) == 15
    assert len(grid) == 165
    # patches tile left-to-right, top-to-bottom
    assert grid.rects[0].tolist() == [0, 0, 8, 16]
    assert grid.rects[1].tolist() == [4, 0, 8, 16]
    assert grid.rects[11].tolist() == [0, 8, 8, 16]


def test_patch_grid_inside_image():
    grid = patch_grid(50, 130, 8, 16, 4, 8)
    x0, y0, w, h = grid.rects.T
    assert np.all(x0 >= 0) and np.all(y0 >= 0)
    assert np.all(x0 + w <= 50) and np.all(y0 + h <= 130)
    # clamped last column/row present
    assert (50 - 8) in x0 and (130 - 16) in y0


def test_patch_grid_single_patch():
    grid = patch_grid(8, 16, 8, 16, 4, 8)
    assert len(grid) == 1


def test_patch_grid_zero_stride():
    with pytest.raises(ConfigError):
        patch_grid(48, 128, 8, 16, 0, 8)


def test_patch_grid_patch_too_large():
    with pytest.raises(ConfigError):
        patch_grid(4, 128, 8, 16, 4, 8)


def test_stripe_indices_cover_all_stripes():
    grid = patch_grid()
    idx = patch_stripe_indices(grid)
    assert set(idx.tolist()) == {0, 1, 2, 3}
    assert len(idx) == len(grid)


def test_stripe_bounds_partition():
    bounds = stripe_bounds(128, 4)
    assert bounds == [(0, 32), (32, 64), (64, 96), (96, 128)]


# ---------------------------------------------------------------------------
# Color histograms
# ---------------------------------------------------------------------------

def test_joint_histogram_single_color_one_hot():
    patch = np.full((16, 8, 3), 0.4)
    hist = joint_color_histogram(patch, "hsv")
    assert hist.sum() == pytest.approx(16 * 8)
    assert (hist > 0).sum() == 1


def test_joint_histogram_zero_mask():
    hist = joint_color_histogram(random_patch(), "lab", weights=np.zeros((16, 8)))
    np.testing.assert_array_equal(hist, 0.0)


def test_joint_histogram_two_colors_half_mass():
    patch = np.zeros((4, 4, 3))
    patch[:2] = 0.9
    hist = joint_color_histogram(patch, "hsv")
    nonzero = np.sort(hist[hist > 0])
    np.testing.assert_allclose(nonzero, [8.0, 8.0])


def test_channel_histogram_uniform_patch_three_bins():
    patch = np.full((16, 8, 3), 0.3)
    hist = channel_histogram(patch, "lab")
    assert hist.shape == (48,)
    assert (hist > 0).sum() == 3


def test_channel_histogram_block_mass_conserved():
    patch = random_patch()
    weights = rng.random((16, 8))
    hist = channel_histogram(patch, "hsv", weights=weights)
    for c in range(3):
        assert hist[c * 16 : (c + 1) * 16].sum() == pytest.approx(weights.sum())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_histogram_permutation_invariant(seed):
    r = np.random.default_rng(seed)
    pixels = r.random((6, 5, 3))
    perm = r.permutation(30)
    shuffled = pixels.reshape(30, 3)[perm].reshape(6, 5, 3)
    np.testing.assert_allclose(
        joint_color_histogram(pixels, "hsv"),
        joint_color_histogram(shuffled, "hsv"),
        atol=1e-12,
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_channel_and_scncd_permutation_invariant(seed):
    r = np.random.default_rng(seed)
    pixels = r.random((6, 5, 3))
    perm = r.permutation(30)
    shuffled = pixels.reshape(30, 3)[perm].reshape(6, 5, 3)
    np.testing.assert_allclose(
        channel_histogram(pixels, "lab"), channel_histogram(shuffled, "lab"), atol=1e-12
    )
    np.testing.assert_allclose(
        scncd_descriptor(pixels), scncd_descriptor(shuffled), atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mask_monotonicity(seed):
    r = np.random.default_rng(seed)
    pixels = r.random((6, 5, 3))
    weights = r.random((6, 5))
    base = joint_color_histogram(pixels, "lab", weights=weights)
    bumped = weights.copy()
    iy, ix = r.integers(0, 6), r.integers(0, 5)
    bumped[iy, ix] += 0.5
    after = joint_color_histogram(pixels, "lab", weights=bumped)
    assert np.all(after >= base - 1e-12)


# ---------------------------------------------------------------------------
# Color spaces
# ---------------------------------------------------------------------------

def test_l1l2l3_gray_maps_to_uniform():
    gray = np.full((2, 2, 3), 0.5)
    np.testing.assert_allclose(to_l1l2l3(gray), 1.0 / 3.0)
    black = np.zeros((2, 2, 3))
    np.testing.assert_allclose(to_l1l2l3(black), 1.0 / 3.0)


def test_normalized_rgb_black_uniform():
    black = np.zeros((2, 2, 3))
    np.testing.assert_allclose(to_normalized_rgb(black), 1.0 / 3.0)
    px = np.array([[[0.2, 0.3, 0.5]]])
    np.testing.assert_allclose(to_normalized_rgb(px).sum(axis=-1), 1.0)


def test_convert_unknown_space():
    with pytest.raises(ConfigError):
        convert(np.zeros((1, 1, 3)), "xyz")


def test_all_spaces_in_unit_range():
    img = rng.random((10, 10, 3))
    for space in ("rgb", "nrgb", "l1l2l3", "hsv", "lab"):
        out = convert(img, space)
        assert out.min() >= 0.0 and out.max() <= 1.0, space


# ---------------------------------------------------------------------------
# HOG
# ---------------------------------------------------------------------------

def brute_force_hog(gray, bins=9):
    """Independent oracle: explicit per-pixel gradients and binning."""
    gray = np.asarray(gray, dtype=np.float64)
    h, w = gray.shape
    hist = np.zeros(bins)
    for y in range(h):
        for x in range(w):
            if 0 < y < h - 1:
                gy = (gray[y + 1, x] - gray[y - 1, x]) / 2.0
            elif y == 0:
                gy = gray[1, x] - gray[0, x]
            else:
                gy = gray[y, x] - gray[y - 1, x]
            if 0 < x < w - 1:
                gx = (gray[y, x + 1] - gray[y, x - 1]) / 2.0
            elif x == 0:
                gx = gray[y, 1] - gray[y, 0]
            else:
                gx = gray[y, x] - gray[y, x - 1]
            mag = np.hypot(gx, gy)
            ang = np.arctan2(gy, gx) % np.pi
            b = min(int(ang / np.pi * bins), bins - 1)
            hist[b] += mag
    return hist


def test_hog_constant_patch_zero():
    np.testing.assert_array_equal(hog_descriptor(np.full((16, 8), 0.7)), 0.0)


def test_hog_vertical_step_edge():
    patch = np.zeros((16, 8))
    patch[:, 4:] = 1.0
    hist = hog_descriptor(patch)
    assert hist[0] > 0
    assert hist[1:].sum() == pytest.approx(0.0)


def test_hog_matches_brute_force():
    gray = rng.random((16, 8))
    np.testing.assert_allclose(hog_descriptor(gray), brute_force_hog(gray), atol=1e-10)


def test_hog_rotation_permutes_dominant_bin():
    patch = np.zeros((12, 12))
    patch[:, 6:] = 1.0
    rotated = np.rot90(patch)
    hist = brute_force_hog(patch)
    hist_rot = brute_force_hog(rotated)
    assert int(np.argmax(hist)) == 0
    assert int(np.argmax(hist_rot)) == 9 // 2
    np.testing.assert_allclose(hog_descriptor(patch), hist, atol=1e-10)
    np.testing.assert_allclose(hog_descriptor(rotated), hist_rot, atol=1e-10)


@pytest.mark.parametrize("size", [(48, 128), (50, 130)])
def test_patch_hog_histograms_equal_hog_of_each_cropped_patch(size):
    gray = rng.random(size[::-1])
    grid = patch_grid(*size)
    stacked = patch_hog_histograms(gray, grid.rects)
    want = [hog_descriptor(gray[y0 : y0 + h, x0 : x0 + w]) for x0, y0, w, h in grid.rects]
    assert np.array_equal(stacked, want)


# ---------------------------------------------------------------------------
# SILTP
# ---------------------------------------------------------------------------

def test_siltp_constant_patch_one_hot():
    hist = siltp_descriptor(np.full((16, 8), 0.5))
    assert hist[0] == (16 - 2) * (8 - 2)
    assert hist.sum() == hist[0]


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
def test_siltp_scale_invariance(alpha):
    patch = rng.integers(1, 200, size=(16, 8)).astype(np.float64)
    np.testing.assert_array_equal(
        siltp_descriptor(patch), siltp_descriptor(alpha * patch)
    )


def test_siltp_mass_is_interior_count():
    patch = rng.random((16, 8))
    assert siltp_descriptor(patch).sum() == (16 - 2) * (8 - 2)


# ---------------------------------------------------------------------------
# SCNCD
# ---------------------------------------------------------------------------

def test_palette_has_16_distinct_names():
    assert SCNCD_NAMES.shape == (16, 3)
    d2 = ((SCNCD_NAMES[:, None, :] - SCNCD_NAMES[None, :, :]) ** 2).sum(axis=2)
    d2[np.diag_indices_from(d2)] = np.inf
    # the bandwidth is half the minimum inter-name distance
    assert SCNCD_BANDWIDTH == pytest.approx(np.sqrt(d2.min()) / 2.0)
    assert SCNCD_BANDWIDTH == pytest.approx(0.125)


@pytest.mark.parametrize("name_idx", [0, 5, 15])
def test_color_name_exact_palette_color_dominates(name_idx):
    pixel = SCNCD_NAMES[name_idx][None, :]
    dist = kernels.scncd_accumulate(pixel, SCNCD_NAMES, np.ones(1), SCNCD_BANDWIDTH, SCNCD_KNN)
    # independent expectation: Gaussian kernel over the 3 closest distances
    d2 = sorted(float(((pixel[0] - name) ** 2).sum()) for name in SCNCD_NAMES)
    kernel = [np.exp(-d / SCNCD_BANDWIDTH**2) for d in d2[:3]]
    expected_max = kernel[0] / sum(kernel)
    assert d2[0] == 0.0
    assert dist[name_idx] == pytest.approx(expected_max, abs=1e-12)
    assert dist[name_idx] == dist.max()
    assert dist[name_idx] > 0.95
    assert dist.sum() == pytest.approx(1.0)


def test_color_name_mass_equals_weighted_pixels():
    pixels = rng.random((50, 3))
    weights = rng.random(50)
    dist = kernels.scncd_accumulate(pixels, SCNCD_NAMES, weights, SCNCD_BANDWIDTH, SCNCD_KNN)
    assert dist.sum() == pytest.approx(weights.sum())


def test_scncd_zero_mask_zero_vector():
    region = random_patch(8, 6)
    desc = scncd_descriptor(region, weights=np.zeros((8, 6)))
    np.testing.assert_array_equal(desc, 0.0)


def test_scncd_dimension_and_normalization():
    region = random_patch(8, 6)
    desc = scncd_descriptor(region)
    assert desc.shape == (4 * (16 + 3 * 32),)
    # each of the 4 space blocks is L1-normalized
    block = 16 + 96
    for s in range(4):
        assert desc[s * block : (s + 1) * block].sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Cue assembly
# ---------------------------------------------------------------------------

def full_image():
    return rng.random((128, 48, 3))


def test_assemble_cue_deterministic():
    img = full_image()
    a = assemble_cue(img, "C1")
    b = assemble_cue(img, "C1")
    np.testing.assert_array_equal(a.global_, b.global_)
    for va, vb in zip(a.local, b.local):
        np.testing.assert_array_equal(va, vb)


def test_assemble_cue_four_local_stripes():
    desc = assemble_cue(full_image(), "C1")
    assert len(desc.local) == 4


@pytest.mark.parametrize("cue", ["C1", "C2", "C3", "C4", "C5", "C6"])
def test_assemble_cue_unit_norms(cue):
    desc = assemble_cue(full_image(), cue)
    assert np.linalg.norm(desc.global_) == pytest.approx(1.0, abs=1e-9)
    for vec in desc.local:
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_assemble_cue_wrong_size():
    with pytest.raises(ConfigError):
        assemble_cue(rng.random((64, 48, 3)), "C1")


def test_c5_zero_mask_kills_color_keeps_texture():
    img = full_image()
    zero_mask = ForegroundMask(weights=np.zeros((128, 48)))
    masked = assemble_cue(img, "C5", mask=zero_mask)
    unmasked = assemble_cue(img, "C5")
    # global layout: [color block, texture block]; color dims from scncd
    color_dim = 4 * 4 * (16 + 96)
    np.testing.assert_array_equal(masked.global_[:color_dim], 0.0)
    got_texture = masked.global_[color_dim:]
    want_texture = unmasked.global_[color_dim:]
    # texture sub-vector is unaffected up to the final whole-vector rescaling
    cos = got_texture @ want_texture / (
        np.linalg.norm(got_texture) * np.linalg.norm(want_texture)
    )
    assert cos == pytest.approx(1.0, abs=1e-12)


# cue -> (color space, color histogram, texture descriptor)
CUE_RECIPES = {
    "C1": ("hsv", joint_color_histogram, hog_descriptor),
    "C2": ("hsv", channel_histogram, siltp_descriptor),
    "C3": ("lab", joint_color_histogram, siltp_descriptor),
    "C4": ("lab", channel_histogram, hog_descriptor),
    "C5": (None, scncd_descriptor, hog_descriptor),
    "C6": (None, scncd_descriptor, siltp_descriptor),
}


def per_cue_reference(image, cue, mask=None, n_stripes=4, mask_blend=0.0):
    """One cue computed on its own: texture and color histograms patch by
    patch from each cropped patch, SCNCD region by region from each cropped
    stripe and sub-stripe."""

    def unit(v):  # the pairwise sum of squares, as extract_cues takes it
        norm = np.sqrt(np.add.reduce(v * v))
        return v / norm if norm > 0 else v

    def unit_rows(rows):
        norms = np.linalg.norm(np.array(rows), axis=1, keepdims=True)
        return np.array(rows) / np.where(norms > 0, norms, 1.0)

    space, color_fn, texture_fn = CUE_RECIPES[cue]
    grid = patch_grid()
    stripes = patch_stripe_indices(grid, n_stripes)
    weights = None if mask is None else (1.0 - mask_blend) * mask.weights + mask_blend
    gray = to_gray(image)
    crops = [(slice(y0, y0 + h), slice(x0, x0 + w)) for x0, y0, w, h in grid.rects]
    texture = unit_rows([texture_fn(gray[crop]) for crop in crops])
    if space is not None:
        color = unit_rows([
            color_fn(image[crop], space, weights=None if weights is None else weights[crop])
            for crop in crops
        ])
        per_patch = np.hstack([color, texture])
        local = [unit(per_patch[stripes == r].ravel()) for r in range(n_stripes)]
        return local, unit(per_patch.ravel())

    def scncd(y0, y1):
        return scncd_descriptor(image[y0:y1], weights=None if weights is None else weights[y0:y1])

    def fuse(color, tex):
        return unit(np.concatenate([unit(color), unit(tex)]))

    bounds = stripe_bounds(128, n_stripes)
    local = [
        fuse(
            np.concatenate(
                [scncd(y0 + s0, y0 + s1) for s0, s1 in stripe_bounds(y1 - y0, n_stripes)]
            ),
            texture[stripes == r].ravel(),
        )
        for r, (y0, y1) in enumerate(bounds)
    ]
    return local, fuse(np.concatenate([scncd(y0, y1) for y0, y1 in bounds]), texture.ravel())


@pytest.mark.parametrize(
    "with_mask, masked_cues, mask_blend, n_stripes",
    [
        (False, (), 0.0, 4),
        (True, ("C5", "C6"), 0.0, 4),
        (True, ("C1", "C4", "C5"), 0.25, 4),
        (True, ("C2", "C3", "C6"), 0.0, 3),
    ],
)
def test_extract_cues_equals_each_cue_on_its_own(with_mask, masked_cues, mask_blend, n_stripes):
    image = full_image()
    mask = ForegroundMask(weights=rng.random((128, 48))) if with_mask else None
    descs = extract_cues(
        image, CUE_IDS, mask, masked_cues=masked_cues, n_stripes=n_stripes, mask_blend=mask_blend
    )
    assert list(descs) == list(CUE_IDS)
    for cue in CUE_IDS:
        cue_mask = mask if cue in masked_cues else None
        single = assemble_cue(image, cue, cue_mask, n_stripes=n_stripes, mask_blend=mask_blend)
        want_local, want_global = per_cue_reference(image, cue, cue_mask, n_stripes, mask_blend)
        for desc in (descs[cue], single):
            assert desc.cue_id == cue and len(desc.local) == n_stripes
            assert np.array_equal(desc.global_, want_global), cue
            for got, want in zip(desc.local, want_local):
                assert np.array_equal(got, want), cue


def test_extract_cues_runs_each_kernel_once_per_shared_intermediate(monkeypatch):
    names = ("patch_histograms", "siltp_codes", "scncd_assign", "scncd_accumulate")
    calls = dict.fromkeys(names, 0)
    for name in calls:
        original = getattr(kernels, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(kernels, name, counted)
    mask = ForegroundMask(weights=rng.random((128, 48)))
    # C5 masked and C6 unmasked: two weightings, one assignment per space
    extract_cues(full_image(), CUE_IDS, mask, masked_cues=("C5",))
    assert calls == {
        "patch_histograms": 10,  # HOG, SILTP, 2 joint and 2x3 channel histograms
        "siltp_codes": 1,
        "scncd_assign": len(SCNCD_SPACES),
        "scncd_accumulate": 0,
    }


def test_extract_cues_rejects_unknown_cue():
    with pytest.raises(ConfigError):
        extract_cues(full_image(), ("C1", "C9"))


@pytest.mark.parametrize("n_stripes", [0, -1])
def test_extract_cues_rejects_fewer_than_one_stripe(n_stripes):
    with pytest.raises(ConfigError, match=f"n_stripes must be at least 1, got {n_stripes}"):
        extract_cues(full_image(), ("C1", "C5"), n_stripes=n_stripes)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_pca_exact_planar_subspace():
    basis = rng.standard_normal((2, 10))
    coords = rng.standard_normal((40, 2))
    data = coords @ basis + 3.0
    model = fit_pca(data, d_out=2)
    projected = (data - model.mean) @ model.basis
    reconstructed = projected @ model.basis.T + model.mean
    np.testing.assert_allclose(reconstructed, data, atol=1e-8)


def test_pca_mean_vector_projects_to_zero():
    data = rng.standard_normal((30, 6))
    model = fit_pca(data, d_out=3)
    np.testing.assert_allclose(apply_pca(model, model.mean[None]), 0.0, atol=1e-12)


def test_pca_orthonormal_basis():
    data = rng.standard_normal((50, 20))
    model = fit_pca(data, d_out=12)
    gram = model.basis.T @ model.basis
    assert np.max(np.abs(gram - np.eye(12))) <= 1e-6


def test_pca_retained_variance_matches_eigh_oracle():
    data = rng.standard_normal((50, 20))
    d_out = 7
    model = fit_pca(data, d_out=d_out)
    projected = (data - model.mean) @ model.basis
    retained = projected.var(axis=0, ddof=1).sum()
    cov = np.cov(data, rowvar=False, ddof=1)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert retained == pytest.approx(eigvals[:d_out].sum(), rel=1e-10)


def test_pca_clamps_with_warning():
    data = rng.standard_normal((5, 20))
    with pytest.warns(UserWarning):
        model = fit_pca(data, d_out=10)
    assert model.d_out == 5


def test_pca_output_unit_norm():
    data = rng.standard_normal((30, 8))
    model = fit_pca(data, d_out=4)
    out = apply_pca(model, data)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


def test_pca_deterministic_signs():
    data = rng.standard_normal((25, 9))
    m1 = fit_pca(data, d_out=4)
    m2 = fit_pca(data.copy(), d_out=4)
    np.testing.assert_array_equal(m1.basis, m2.basis)
    lead = np.argmax(np.abs(m1.basis), axis=0)
    assert np.all(m1.basis[lead, np.arange(4)] > 0)


def svd_pca_oracle(x: np.ndarray, k: int) -> PcaModel:
    """The thin-SVD fit: sign-fixed top-k right singular vectors of the
    centred rows."""
    mean = x.mean(axis=0)
    _, _, vt = np.linalg.svd(x - mean, full_matrices=False)
    basis = vt[:k].T.copy()
    lead = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[lead, np.arange(k)])
    signs[signs == 0] = 1.0
    return PcaModel(mean=mean, basis=basis * signs)


def _forbid(monkeypatch, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"np.linalg.{name} called")

    monkeypatch.setattr(np.linalg, name, fail)


def _count_calls(monkeypatch, name) -> list:
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def decaying_rows(gen, n: int, d: int, decay: float = 0.92, unseen: int = 0) -> np.ndarray:
    """n rows of d columns whose centred rows have the singular values
    ``decay**i`` (i < n - 1), like the spectra of descriptor blocks, then
    ``unseen`` more rows drawn from the same components. Each component is set
    apart from the next, so its direction is defined well below 1e-12 (i.i.d.
    Gaussian rows have nearly equal variances, and even two SVD algorithms
    differ on them by 2e-12)."""
    directions, _ = np.linalg.qr(gen.standard_normal((d, n - 1)))
    # orthonormal columns orthogonal to the ones vector: centred already
    coords, _ = np.linalg.qr(np.column_stack([np.ones(n), gen.standard_normal((n, n - 1))]))
    latent = np.vstack([coords[:, 1:], gen.standard_normal((unseen, n - 1)) / np.sqrt(n)])
    return (latent * decay ** np.arange(n - 1)) @ directions.T + 2.0


@pytest.mark.parametrize("n,d", [(20, 5000), (40, 3000)])
@pytest.mark.parametrize("k", [1, 16, -1])
def test_pca_wide_gram_path_matches_svd_oracle(monkeypatch, n, d, k):
    k = n - 1 if k == -1 else k
    gen = np.random.default_rng(n * d + k)
    rows = decaying_rows(gen, n, d, unseen=7)
    data, unseen = rows[:n], rows[n:]
    oracle = svd_pca_oracle(data, k)
    _forbid(monkeypatch, "svd")  # the Gram path alone
    model = fit_pca(data, d_out=k)
    assert model.basis.shape == (d, k)
    np.testing.assert_array_equal(model.mean, oracle.mean)
    assert np.max(np.abs(model.basis - oracle.basis)) <= 1e-12
    for batch in (data, unseen, data[:1]):
        assert np.max(np.abs(apply_pca(model, batch) - apply_pca(oracle, batch))) <= 1e-12
    lead = np.argmax(np.abs(model.basis), axis=0)
    assert np.all(model.basis[lead, np.arange(k)] > 0)
    assert np.max(np.abs(model.basis.T @ model.basis - np.eye(k))) <= 1e-12


@pytest.mark.parametrize("n,d,k", [(50, 20, 7), (30, 30, 12), (600, 128, 120), (9, 9, 9)])
def test_pca_tall_blocks_are_bit_identical_to_svd(monkeypatch, n, d, k):
    data = np.random.default_rng(n + d).standard_normal((n, d))
    oracle = svd_pca_oracle(data, k)
    _forbid(monkeypatch, "eigh")
    model = fit_pca(data, d_out=k)
    np.testing.assert_array_equal(model.mean, oracle.mean)
    np.testing.assert_array_equal(model.basis, oracle.basis)


def test_pca_wide_clamped_to_rows_takes_svd_and_warns(monkeypatch):
    data = np.random.default_rng(3).standard_normal((20, 5000))
    oracle = svd_pca_oracle(data, 20)
    _forbid(monkeypatch, "eigh")
    with pytest.warns(UserWarning, match="clamped from 25 to 20"):
        model = fit_pca(data, d_out=25)
    np.testing.assert_array_equal(model.basis, oracle.basis)
    assert fit_pca(data, d_out=0).basis.shape == (5000, 0)


def test_pca_wide_rank_deficient_rows_take_svd(monkeypatch):
    # ten distinct rows twice: the centred rank is 9, so the 16th eigenvalue
    # of the Gram is rounding noise and the fit falls back to the SVD
    base = np.random.default_rng(4).standard_normal((10, 3000))
    data = np.vstack([base, base])
    oracle = svd_pca_oracle(data, 16)
    calls = _count_calls(monkeypatch, "eigh")
    model = fit_pca(data, d_out=16)
    np.testing.assert_array_equal(model.basis, oracle.basis)
    assert calls == ["eigh"]


@pytest.mark.parametrize("decay", [0.7, 0.85])
def test_pca_wide_ill_conditioned_rows_take_svd(monkeypatch, decay):
    # the 39th variance is decay**76 (2e-12 or 4e-6) of the first: the Gram
    # would lose accuracy there, so the fit falls back to the SVD
    data = decaying_rows(np.random.default_rng(9), 40, 3000, decay=decay)
    oracle = svd_pca_oracle(data, 39)
    calls = _count_calls(monkeypatch, "eigh")
    model = fit_pca(data, d_out=39)
    np.testing.assert_array_equal(model.basis, oracle.basis)
    assert calls == ["eigh"]


def test_pca_wide_rank_within_centred_rank_keeps_gram(monkeypatch):
    base = np.random.default_rng(5).standard_normal((10, 3000))
    data = np.vstack([base, base])
    oracle = svd_pca_oracle(data, 5)
    _forbid(monkeypatch, "svd")
    model = fit_pca(data, d_out=5)
    assert np.max(np.abs(apply_pca(model, data) - apply_pca(oracle, data))) <= 1e-12


@pytest.mark.parametrize("shape,routine", [((20, 500), "eigh"), ((40, 10), "svd")])
def test_pca_lapack_failure_is_numeric_error(monkeypatch, shape, routine):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    data = np.random.default_rng(6).standard_normal(shape)
    with pytest.raises(NumericError, match="did not converge"):
        fit_pca(data, d_out=4)


@pytest.mark.parametrize("shape", [(20, 500), (40, 10)])
def test_pca_never_writes_the_callers_array(shape):
    data = np.random.default_rng(8).standard_normal(shape)
    data.setflags(write=False)  # any write into it raises
    model = fit_pca(data, d_out=4)
    assert not np.shares_memory(model.basis, data)


def whole_copy_gram_fit(x: np.ndarray, k: int, rows=None) -> PcaModel:
    """The Gram fit from one float64 copy of the rows ``x[rows]``: one Gram
    product and one basis product over every column, signs by
    ``argmax(|basis|)``."""
    xc = (x if rows is None else x[rows]).astype(np.float64)
    mean = xc.mean(axis=0)
    xc -= mean
    eigvals, eigvecs = np.linalg.eigh(xc @ xc.T)
    basis = xc.T @ eigvecs[:, ::-1][:, :k] / np.sqrt(eigvals[::-1][:k])
    return PcaModel(mean=mean, basis=basis * argmax_signs(basis))


def test_pca_wide_fit_makes_no_float64_copy_of_its_rows(monkeypatch):
    import tracemalloc

    n, d, k = 40, 200_000, 8
    x = decaying_rows(np.random.default_rng(13), n, d).astype(np.float32)
    oracle = whole_copy_gram_fit(x, k)
    _forbid(monkeypatch, "svd")
    # the mean and one chunk; the (d, k) basis is 12.8 MB, a float64 copy of
    # the rows 64 MB
    bound = 8 * d + pca._CHUNK_BYTES + (1 << 20)
    tracemalloc.start()
    try:
        model = fit_pca(x, d_out=k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"
    np.testing.assert_array_equal(model.mean, oracle.mean)
    assert np.max(np.abs(model.basis - oracle.basis)) <= 1e-12
    lead = np.argmax(np.abs(oracle.basis), axis=0)
    np.testing.assert_array_equal(np.sign(model.basis[lead, np.arange(k)]), np.ones(k))


def unchunked_apply(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """apply_pca as one product over all columns, every row in float64 at once."""
    proj = (np.asarray(x, dtype=np.float64) - model.mean) @ model.basis
    norms = np.linalg.norm(proj, axis=1, keepdims=True)
    return proj / np.where(norms > 0, norms, 1.0)


def chunk_sum_apply(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """apply_pca's arithmetic written out: the products of the centred
    ``_CHUNK_BYTES`` column chunks, summed left to right, then unit rows."""
    n, d = x.shape
    width = pca._CHUNK_BYTES // (8 * n)
    proj = np.zeros((n, model.d_out))
    for lo in range(0, d, width):
        chunk = x[:, lo : lo + width].astype(np.float64) - model.mean[lo : lo + width]
        proj += chunk @ model.basis[lo : lo + width]
    norms = np.sqrt(np.add.reduce(proj * proj, axis=-1, keepdims=True))
    return proj / np.where(norms > 0, norms, 1.0)


@pytest.mark.parametrize("chunks", [1, 3, 3.5])  # one, several, a short last one
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_apply_pca_sums_column_chunks(chunks, dtype):
    n = 24
    d = int(chunks * (pca._CHUNK_BYTES // (8 * n)))
    gen = np.random.default_rng(d)
    model = fit_pca(gen.standard_normal((40, d)), d_out=16)
    x = gen.standard_normal((n, d)).astype(dtype)
    out = apply_pca(model, x)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, chunk_sum_apply(model, x))
    np.testing.assert_allclose(out, unchunked_apply(model, x), rtol=0, atol=1e-12)


def chunk_sum_gram_fit(x: np.ndarray, k: int, apply_rows: int | None = None) -> PcaModel:
    """The Gram fit's arithmetic written out on the gathered fit rows ``x``:
    numpy's mean, the Grams of the centred ``_CHUNK_BYTES`` column chunks
    summed left to right, each chunk's basis rows by one product, divided by
    √λ, signs by ``argmax(|basis|)``. With ``apply_rows``, the basis rows are
    built over the column chunks apply_pca reads for that many rows."""
    n, d = x.shape
    width = pca._CHUNK_BYTES // (8 * n)
    mean = x.mean(axis=0, dtype=np.float64)
    chunks = [x[:, lo : lo + width] - mean[lo : lo + width] for lo in range(0, d, width)]
    gram = np.zeros((n, n))
    for chunk in chunks:
        gram += chunk @ chunk.T
    eigvals, eigvecs = np.linalg.eigh(gram)
    u = np.ascontiguousarray(eigvecs[:, ::-1][:, :k])
    if apply_rows is not None:
        width = pca._CHUNK_BYTES // (8 * apply_rows)
        chunks = [x[:, lo : lo + width] - mean[lo : lo + width] for lo in range(0, d, width)]
    basis = np.vstack([chunk.T @ u for chunk in chunks]) / np.sqrt(eigvals[::-1][:k])
    return PcaModel(mean=mean, basis=basis * argmax_signs(basis))


@pytest.mark.parametrize(
    "n,d,rows",
    [
        # apply chunks of 3,276 columns end in a one-column chunk (the fit
        # rows' chunk of 6,553 does not), as on a 40-image block 3,277 wide:
        # apply builds that basis row in a one-column chunk too
        (40, 3277, np.arange(0, 40, 2)),
        # the fit rows' chunks end in a one-column chunk, the apply chunks not
        (40, 6554, np.arange(1, 40, 2)),
        # unsorted rows, several chunks of both
        (60, 9000, np.random.default_rng(0).permutation(60)[:25]),
    ],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pca_fit_through_rows_is_bit_identical_to_gathered_rows(monkeypatch, n, d, rows, dtype):
    gen = np.random.default_rng(d)
    x = decaying_rows(gen, len(rows), d, unseen=n - len(rows))[gen.permutation(n)].astype(dtype)
    oracle = chunk_sum_gram_fit(x[rows], 8)
    _forbid(monkeypatch, "svd")
    model = fit_pca(x, 8, rows=rows)
    assert model.x is x and model.rows is rows  # references, not copies
    np.testing.assert_array_equal(model.mean, oracle.mean)
    np.testing.assert_array_equal(model.basis, oracle.basis)
    # apply builds each basis chunk at its own chunk width, not the fit rows'
    for applied in (x, x[3:4]):
        at_width = chunk_sum_gram_fit(x[rows], 8, apply_rows=len(applied))
        np.testing.assert_array_equal(apply_pca(model, applied), chunk_sum_apply(at_width, applied))
    assert np.max(np.abs(model.basis - whole_copy_gram_fit(x, 8, rows).basis)) <= 1e-12


def test_pca_svd_fit_through_rows_is_bit_identical_to_gathered_rows(monkeypatch):
    x = np.random.default_rng(14).standard_normal((90, 30)).astype(np.float32)
    rows = np.arange(0, 90, 2)
    oracle = fit_pca(x[rows], d_out=12)
    _forbid(monkeypatch, "eigh")
    model = fit_pca(x, 12, rows=rows)
    np.testing.assert_array_equal(model.mean, oracle.mean)
    np.testing.assert_array_equal(model.basis, oracle.basis)
    np.testing.assert_array_equal(apply_pca(model, x), apply_pca(oracle, x))


@pytest.mark.parametrize("first", [1.0, -1.0])
def test_gram_model_sign_ties_agree_between_apply_and_basis(first):
    # two fit rows r and -r: the mean is 0 and, with u = I and √λ = 1, the
    # basis columns are r and -r exactly. r holds +0.5 and -0.5 in different
    # apply chunks, so each column ties, and its first entry decides
    width = pca._CHUNK_BYTES // (8 * 40)
    d = 2 * width + 5
    r = np.random.default_rng(15).uniform(-0.25, 0.25, d)
    r[5], r[width + 7] = 0.5 * first, -0.5 * first
    x = np.vstack([r, -r, np.random.default_rng(16).standard_normal((38, d))])
    rows = np.array([0, 1])
    model = PcaModel(np.zeros(d), x=x, rows=rows, u=np.eye(2), root=np.ones(2))
    expected = np.column_stack([r, -r]) * [first, -first]
    np.testing.assert_array_equal(model.basis, expected)
    np.testing.assert_array_equal(model.basis, expected * argmax_signs(expected))
    np.testing.assert_array_equal(apply_pca(model, x), chunk_sum_apply(PcaModel(np.zeros(d), expected), x))


def test_apply_pca_empty_and_single_rows():
    model = fit_pca(rng.standard_normal((12, 30)), d_out=4)
    assert apply_pca(model, np.zeros((0, 30), np.float32)).shape == (0, 4)
    row = rng.standard_normal((1, 30)).astype(np.float32)
    np.testing.assert_array_equal(apply_pca(model, row), apply_pca(model, row.astype(np.float64)))


def test_apply_pca_takes_only_matrices():
    model = fit_pca(np.random.default_rng(0).standard_normal((12, 30)), d_out=4)
    with pytest.raises(DataError, match="2-D matrix"):
        apply_pca(model, model.mean)


def argmax_signs(basis: np.ndarray) -> np.ndarray:
    """The sign of each column's first largest-magnitude entry, +1 for zero."""
    lead = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[lead, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return signs


@pytest.mark.parametrize(
    "columns",
    [
        [[0.5, -0.5, 0.1]],  # +v before -v
        [[-0.5, 0.2, 0.5]],  # -v before +v
        [[0.0, 0.0, 0.0]],  # all zero
        [[-0.1, -0.3, -0.2]],  # all negative
        [[0.3, -0.3, 0.3, -0.3], [-0.3, 0.3, -0.3, 0.3], [0.0, 0.0, 0.0, 0.0], [0.1, 0.0, -0.9, 0.9]],
        [[-0.0, 0.0, -0.0]],  # signed zeros
    ],
)
def test_pca_sign_rule_matches_argmax_of_magnitudes(columns):
    basis = np.array(columns, dtype=np.float64).T.copy()
    expected = basis * argmax_signs(basis)
    pca._fix_signs(basis)
    np.testing.assert_array_equal(basis, expected)
    np.testing.assert_array_equal(np.signbit(basis), np.signbit(expected))


def test_pca_sign_rule_random_and_empty_bases():
    gen = np.random.default_rng(11)
    for shape in [(50, 7), (1, 5), (3000, 16), (8, 0), (0, 3)]:
        basis = np.round(gen.standard_normal(shape), 1)  # many ties
        expected = basis * argmax_signs(basis) if 0 not in shape else basis.copy()
        pca._fix_signs(basis)
        np.testing.assert_array_equal(basis, expected)
    model = fit_pca(gen.standard_normal((20, 300)), d_out=0)
    assert model.basis.shape == (300, 0)


@pytest.mark.parametrize("shape", [(20, 500), (40, 10)])
def test_pca_fits_a_read_only_float32_block_as_its_float64_values(shape):
    data = np.random.default_rng(12).standard_normal(shape).astype(np.float32)
    before = data.copy()
    data.setflags(write=False)
    model = fit_pca(data, d_out=4)
    np.testing.assert_array_equal(data, before)
    oracle = fit_pca(data.astype(np.float64), d_out=4)
    assert model.mean.dtype == model.basis.dtype == np.float64
    np.testing.assert_array_equal(model.mean, oracle.mean)
    np.testing.assert_array_equal(model.basis, oracle.basis)


def test_pca_rejects_a_block_without_columns():
    with pytest.raises(DataError, match="non-empty"):
        fit_pca(np.zeros((5, 0)), d_out=2)


# ---------------------------------------------------------------------------
# PCA of compressed blocks: the same bits as of their dense twins
# ---------------------------------------------------------------------------

def sparse_twins(gen, n: int, d: int, zeros: float) -> tuple[np.ndarray, SparseBlock]:
    """A float32 (n, d) block with about the share ``zeros`` of +0.0
    entries, an all-zero column and row and a few -0.0 entries, and its
    compressed twin."""
    x = gen.standard_normal((n, d)).astype(np.float32)
    x[gen.random((n, d)) < zeros] = 0.0
    x[:, d // 3] = 0.0
    x[n // 2] = 0.0
    x[gen.integers(0, n, 6), gen.integers(0, d, 6)] = -0.0
    return x, SparseBlock.from_dense(x)


def assert_same_pca(model, twin, block, x) -> None:
    """The same bytes, signed zeros too, of the mean, basis and features."""
    pairs = [
        (model.mean, twin.mean),
        (model.basis, twin.basis),
        (apply_pca(model, block), apply_pca(twin, x)),
        (apply_pca(model, x[1:2]), apply_pca(twin, x[1:2])),
    ]
    for got, expected in pairs:
        np.testing.assert_array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()


FIT_ROWS = {
    "all": None,
    "sorted": np.arange(0, 30, 2),
    "unsorted": np.random.default_rng(0).permutation(30)[:12],
    "repeated": np.array([3, 7, 3, 12, 0, 7, 20, 3, 25, 1, 9, 14, 29]),
}


@pytest.mark.parametrize("sliced", [False, True])  # each row's entries gathered as one slice
@pytest.mark.parametrize("fit", [False, True])
@pytest.mark.parametrize("rows", list(FIT_ROWS))
def test_centred_chunks_of_a_compressed_block_are_its_dense_twins(monkeypatch, sliced, fit, rows):
    monkeypatch.setattr(datamodel, "_SLICED_ROW_ENTRIES", 0 if sliced else 10**9)
    gen = np.random.default_rng(7)
    x, _ = sparse_twins(gen, 30, 97, 0.6)
    # wide exponents, so float64 sums of the rows round and their order shows
    x *= np.exp2(gen.integers(-40, 40, x.shape)).astype(np.float32)
    # signed zeros over means of +0.0 and -0.0
    x[:, 5:7] = 0.0
    x[[1, 4, 28], 5:7] = -0.0
    mean = gen.standard_normal(97)
    mean[5], mean[6] = 0.0, -0.0
    block = SparseBlock.from_dense(x)
    dense_mean, mean = mean.copy(), mean.copy()
    # chunks of 16 columns: the last one is one column wide
    got = [(c, ch.tobytes()) for c, ch in pca._centred_chunks(block, FIT_ROWS[rows], mean, 16, fit=fit)]
    expected = [(c, ch.tobytes()) for c, ch in pca._centred_chunks(x, FIT_ROWS[rows], dense_mean, 16, fit=fit)]
    assert got == expected and len(got) == 7
    assert mean.tobytes() == dense_mean.tobytes()


@pytest.mark.parametrize("sliced", [False, True])  # each row's entries gathered as one slice
@pytest.mark.parametrize("zeros", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("rows", list(FIT_ROWS))
def test_gram_pca_of_a_compressed_block_is_bit_identical_to_its_dense_twin(
    monkeypatch, sliced, zeros, rows
):
    # apply chunks of 16 columns and, for 12 fit rows, Gram chunks of 40:
    # 481 columns end both in a one-column chunk
    monkeypatch.setattr(pca, "_CHUNK_BYTES", 8 * 30 * 16)
    monkeypatch.setattr(datamodel, "_SLICED_ROW_ENTRIES", 0 if sliced else 10**9)
    x, block = sparse_twins(np.random.default_rng(int(zeros * 100)), 30, 481, zeros)
    for array in (block.starts, block.columns, block.values):
        array.flags.writeable = False  # PCA writes no part of the block
    fit_rows = FIT_ROWS[rows]
    _forbid(monkeypatch, "svd")  # the Gram path alone
    model = fit_pca(block, 6, rows=fit_rows)
    assert model.x is block and model.rows is fit_rows
    assert_same_pca(model, fit_pca(x, 6, rows=fit_rows), block, x)


@pytest.mark.parametrize("zeros", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("case", ["narrow", "rank-deficient", "all-zero"])
def test_svd_pca_of_a_compressed_block_is_bit_identical_to_its_dense_twin(zeros, case):
    gen = np.random.default_rng(int(zeros * 100))
    if case == "narrow":
        x, block = sparse_twins(gen, 40, 9, zeros)
        rows = np.array([1, 5, 3, 5, 9, 11, 39, 20, 21, 30, 2, 0, 17, 16, 8])
    elif case == "rank-deficient":
        # ten distinct rows twice: a centred rank of 9 is short of 16, so the
        # wide block falls back to the SVD
        base, _ = sparse_twins(gen, 10, 300, zeros)
        x = np.vstack([base, base])
        block, rows = SparseBlock.from_dense(x), None
    else:
        x = np.zeros((12, 50), np.float32)
        block, rows = datamodel.held_block(x), np.arange(0, 12, 3)
        assert isinstance(block, SparseBlock) and block.values.size == 0
    model = fit_pca(block, 16 if case == "rank-deficient" else 4, rows=rows)
    assert model._basis is not None  # the SVD path keeps its basis
    assert_same_pca(model, fit_pca(x, model.d_out, rows=rows), block, x)
