"""Hand-crafted visual cues, normalization and PCA."""

from .colorspace import convert, to_gray, to_hsv, to_l1l2l3, to_lab, to_normalized_rgb
from .cues import CUE_IDS, CueDescriptor, assemble_cue, extract_cues, l2_normalize
from .grid import (
    IMAGE_H,
    IMAGE_W,
    N_STRIPES,
    PatchGrid,
    patch_grid,
    patch_stripe_indices,
    stripe_bounds,
)
from .histograms import channel_histogram, joint_color_histogram
from .pca import PCA_DIM, PcaModel, apply_pca, fit_pca
from .scncd import ColorNamePalette, color_name_distribution, default_palette, scncd_descriptor
from .texture import hog_descriptor, siltp_descriptor

__all__ = [
    "CUE_IDS",
    "IMAGE_H",
    "IMAGE_W",
    "N_STRIPES",
    "PCA_DIM",
    "ColorNamePalette",
    "CueDescriptor",
    "PatchGrid",
    "PcaModel",
    "apply_pca",
    "assemble_cue",
    "channel_histogram",
    "color_name_distribution",
    "convert",
    "default_palette",
    "extract_cues",
    "fit_pca",
    "hog_descriptor",
    "joint_color_histogram",
    "l2_normalize",
    "patch_grid",
    "patch_stripe_indices",
    "scncd_descriptor",
    "siltp_descriptor",
    "stripe_bounds",
    "to_gray",
    "to_hsv",
    "to_l1l2l3",
    "to_lab",
    "to_normalized_rgb",
]
