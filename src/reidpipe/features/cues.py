"""Visual cue assembly: per-stripe local and whole-image global descriptors.

Cues C1-C4 fuse per-patch color histograms with per-patch texture blocks
(HSV1/HOG, HSV2/SILTP, LAB1/SILTP, LAB2/HOG). C5 and C6 fuse region-level
color-name descriptors with the same texture blocks (SCNCD/HOG, SCNCD/SILTP);
their global part concatenates the stripe descriptors and each local part
concatenates a second stripe subdivision.

:func:`extract_cues` builds every requested cue of one image from shared
intermediates; :func:`assemble_cue` is its single-cue entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..datamodel import ForegroundMask
from ..errors import ConfigError
from .colorspace import convert, to_gray
from .grid import IMAGE_H, IMAGE_W, N_STRIPES, patch_grid, patch_stripe_indices, stripe_bounds
from .histograms import patch_channel_histograms, patch_joint_histograms
from .scncd import SCNCD_SPACES, assign_color_names, scncd_regions
from .texture import patch_hog_histograms, patch_siltp_histograms

CUE_IDS = ("C1", "C2", "C3", "C4", "C5", "C6")

# cue -> (color space, color histogram kind, texture kind)
_RECIPES = {
    "C1": ("hsv", "joint", "hog"),
    "C2": ("hsv", "channel", "siltp"),
    "C3": ("lab", "joint", "siltp"),
    "C4": ("lab", "channel", "hog"),
    "C5": (None, "scncd", "hog"),
    "C6": (None, "scncd", "siltp"),
}

_GRID = patch_grid(IMAGE_W, IMAGE_H)
_GRID.rects.flags.writeable = False
_TEXTURES = {"hog": patch_hog_histograms, "siltp": patch_siltp_histograms}
_COLOR_HISTOGRAMS = {"joint": patch_joint_histograms, "channel": patch_channel_histograms}


@dataclass(frozen=True)
class CueDescriptor:
    """Assembled descriptors of one visual cue for one image."""

    cue_id: str
    local: tuple[np.ndarray, ...]
    global_: np.ndarray


@lru_cache(maxsize=4)
def _stripe_layout(n_stripes: int) -> tuple[tuple[np.ndarray, ...], tuple[tuple[int, int], ...]]:
    """The patch indices of each stripe, and the SCNCD regions as pixel
    ranges: the stripes, then each stripe's sub-stripes."""
    stripes = patch_stripe_indices(_GRID, n_stripes)
    members = tuple(np.flatnonzero(stripes == r) for r in range(n_stripes))
    for m in members:
        m.flags.writeable = False
    bounds = stripe_bounds(IMAGE_H, n_stripes)
    subs = [
        (y0 + s0, y0 + s1) for y0, y1 in bounds for s0, s1 in stripe_bounds(y1 - y0, n_stripes)
    ]
    regions = tuple((y0 * IMAGE_W, y1 * IMAGE_W) for y0, y1 in bounds + subs)
    return members, regions


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit L2 norm along its last axis; a zero vector stays
    zero. The norm is numpy's pairwise sum, not a BLAS dot, so its bits do
    not depend on the BLAS thread count."""
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    return v / np.where(norms > 0, norms, 1.0)


def _color_weights(mask: ForegroundMask | None, mask_blend: float) -> np.ndarray | None:
    if mask is None:
        return None
    return (1.0 - mask_blend) * mask.weights + mask_blend


def _fuse(color: np.ndarray, texture: np.ndarray) -> np.ndarray:
    return l2_normalize(np.concatenate([l2_normalize(color), l2_normalize(texture)]))


def extract_cues(
    image: np.ndarray,
    cue_ids: tuple[str, ...],
    mask: ForegroundMask | None = None,
    *,
    masked_cues: tuple[str, ...] = (),
    n_stripes: int = N_STRIPES,
    mask_blend: float = 0.0,
) -> dict[str, CueDescriptor]:
    """Compute the local (per-stripe) and global descriptors of every cue in
    ``cue_ids`` for one image.

    The image must be (128, 48, 3) RGB in [0, 1]. The gray image, each
    texture grid, each color space and the per-pixel SCNCD assignment are
    computed once and shared by the cues that use them; HSV serves both the
    color histograms and SCNCD. The patch grid, the stripes and the SCNCD
    regions depend on ``n_stripes`` alone and are built once per process. A
    foreground mask weights the color histograms of the cues in
    ``masked_cues`` only; ``mask_blend`` mixes the unmasked histogram back
    in. Texture blocks ignore the mask.
    """
    unknown = [cue for cue in cue_ids if cue not in _RECIPES]
    if unknown:
        raise ConfigError(f"unknown cue {unknown[0]!r}")
    if n_stripes < 1:
        raise ConfigError(f"n_stripes must be at least 1, got {n_stripes}")
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (IMAGE_H, IMAGE_W, 3):
        raise ConfigError(f"expected a {IMAGE_H}x{IMAGE_W}x3 image, got {image.shape}")

    recipes = {cue: _RECIPES[cue] for cue in cue_ids}
    members, regions = _stripe_layout(n_stripes)
    gray = to_gray(image)
    textures = {
        kind: l2_normalize(_TEXTURES[kind](gray, _GRID.rects))
        for kind in {texture for _, _, texture in recipes.values()}
    }
    # every color space once, HSV shared by the histograms and SCNCD
    needed = {space for space, _, _ in recipes.values() if space is not None}
    if any(kind == "scncd" for _, kind, _ in recipes.values()):
        needed.update(SCNCD_SPACES)
    spaces = {space: convert(image, space) for space in needed}
    assignment = None
    scncd_parts: dict[bool, list[np.ndarray]] = {}  # keyed by "is masked"

    mask_weights = _color_weights(mask, mask_blend)
    out: dict[str, CueDescriptor] = {}
    for cue, (space, color_kind, texture_kind) in recipes.items():
        weights = mask_weights if cue in masked_cues else None
        texture = textures[texture_kind]
        if color_kind != "scncd":
            color = l2_normalize(_COLOR_HISTOGRAMS[color_kind](spaces[space], _GRID.rects, weights))
            per_patch = np.hstack([color, texture])
            out[cue] = CueDescriptor(
                cue,
                tuple(l2_normalize(per_patch[m].ravel()) for m in members),
                l2_normalize(per_patch.ravel()),
            )
            continue

        # SCNCD cues: color at region level, texture per patch as above.
        if assignment is None:
            assignment = assign_color_names(spaces)
        masked = weights is not None
        if masked not in scncd_parts:
            scncd_parts[masked] = scncd_regions(assignment, regions, weights)
        parts = scncd_parts[masked]
        local = tuple(
            _fuse(
                np.concatenate(parts[n_stripes * (r + 1) : n_stripes * (r + 2)]),
                texture[m].ravel(),
            )
            for r, m in enumerate(members)
        )
        out[cue] = CueDescriptor(
            cue, local, _fuse(np.concatenate(parts[:n_stripes]), texture.ravel())
        )
    return out


def assemble_cue(
    image: np.ndarray,
    cue_id: str,
    mask: ForegroundMask | None = None,
    *,
    n_stripes: int = N_STRIPES,
    mask_blend: float = 0.0,
) -> CueDescriptor:
    """One cue of :func:`extract_cues`, with the mask (if any) applied to it."""
    return extract_cues(
        image,
        (cue_id,),
        mask,
        masked_cues=(cue_id,),
        n_stripes=n_stripes,
        mask_blend=mask_blend,
    )[cue_id]
