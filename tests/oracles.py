"""Independent one-item forms of the batched pipeline paths.

The tests check the shipped code against these: a pair scored block by
block, a SILTP histogram from one patch's own codes, a pair accuracy
read off the shipped score matrix, and a raw block's dense values.
"""

import numpy as np

from reidpipe import kernels
from reidpipe.datamodel import SparseBlock
from reidpipe.errors import ConfigError, DimError
from reidpipe.features.texture import SILTP_BINS, SILTP_TAU
from reidpipe.simlearn import (
    GLOBAL_SCOPE,
    BlockKey,
    FeatureBank,
    SimilarityModel,
    _PairData,
    score_gallery,
)


def _check_dims(x_a: np.ndarray, x_b: np.ndarray, w: np.ndarray) -> None:
    d = x_a.shape[-1]
    if x_b.shape[-1] != d or w.shape != (d, d):
        raise DimError(
            f"dimension mismatch: x_a {x_a.shape}, x_b {x_b.shape}, W {w.shape}"
        )


def score_mahalanobis(x_a: np.ndarray, x_b: np.ndarray, w_m: np.ndarray) -> float:
    """(x_a - x_b)^T W_M (x_a - x_b)."""
    _check_dims(x_a, x_b, w_m)
    diff = x_a - x_b
    return float(diff @ w_m @ diff)


def score_bilinear(x_a: np.ndarray, x_b: np.ndarray, w_b: np.ndarray) -> float:
    """x_a^T W_B x_b + x_b^T W_B x_a."""
    _check_dims(x_a, x_b, w_b)
    return float(x_a @ w_b @ x_b + x_b @ w_b @ x_a)


def score_pair(
    model: SimilarityModel,
    feats_a: dict[BlockKey, np.ndarray],
    feats_b: dict[BlockKey, np.ndarray],
) -> float:
    """Local block sum plus gamma times the global block sum."""
    local = 0.0
    global_ = 0.0
    for key in model.block_keys():
        w_m, w_b = model.blocks[key]
        try:
            x_a, x_b = feats_a[key], feats_b[key]
        except KeyError:
            raise ConfigError(f"missing descriptor for block {key}") from None
        term = score_mahalanobis(x_a, x_b, w_m) + score_bilinear(x_a, x_b, w_b)
        if key[1] == GLOBAL_SCOPE:
            global_ += term
        else:
            local += term
    return local + model.gamma * global_


def siltp_descriptor(pixels: np.ndarray) -> np.ndarray:
    """Histogram of scale-invariant ternary codes over the patch interior."""
    gray = np.asarray(pixels, dtype=np.float64)
    if gray.shape[0] < 3 or gray.shape[1] < 3:
        return np.zeros(SILTP_BINS, dtype=np.float64)
    codes = kernels.siltp_codes(gray, SILTP_TAU)
    return np.bincount(codes.ravel(), minlength=SILTP_BINS).astype(np.float64)


def pair_accuracy(
    model: SimilarityModel,
    bank_a: FeatureBank,
    bank_b: FeatureBank,
    pairs: np.ndarray,
) -> float:
    """Fraction of pairs whose score side of the bias matches the label.

    The scores are the pairs' entries of :func:`score_gallery`'s matrix;
    malformed pairs raise DataError as training's do."""
    data = _PairData(bank_a, bank_b, pairs, model.block_keys())
    z = score_gallery(model, bank_a, bank_b)[data.p, data.q] - model.bias
    return float(np.mean(np.where(z > 0, 1.0, -1.0) == data.y))


def dense_block(block) -> np.ndarray:
    """The values of a raw block in either layout, as a dense array."""
    return block.dense() if isinstance(block, SparseBlock) else block
