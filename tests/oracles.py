"""Independent one-item forms of the batched pipeline paths.

The tests check the shipped code against these: a pair scored block by
block, a SILTP histogram from one patch's own codes, a pair accuracy
read off the shipped score matrix, a raw block's dense values, and the
per-probe loops that found true-match ranks for the CMC curve, counted
post-ranking outcomes and counted best-n's top-1 hits.
"""

import numpy as np

from reidpipe import kernels
from reidpipe.datamodel import SparseBlock
from reidpipe.errors import ConfigError, DataError, DimError
from reidpipe.evaluation import CmcCurve
from reidpipe.features.texture import SILTP_BINS, SILTP_TAU
from reidpipe.rankagg import N_MAX, BestNSelection, aggregate
from reidpipe.simlearn import (
    GLOBAL_SCOPE,
    BlockKey,
    FeatureBank,
    RankingList,
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


def true_match_rank(ranking: RankingList, truth: dict[int, int]) -> int:
    """1-based rank of the probe's true gallery match."""
    if ranking.probe_index not in truth:
        raise DataError(f"probe {ranking.probe_index} has no truth entry")
    target = truth[ranking.probe_index]
    positions = np.nonzero(np.asarray(ranking.order) == target)[0]
    if positions.size != 1:
        raise DataError(
            f"probe {ranking.probe_index}: true match {target} not uniquely in gallery"
        )
    return int(positions[0]) + 1


def cmc_curve(rankings: list[RankingList], truth: dict[int, int]) -> CmcCurve:
    """Fraction of probes whose true match appears within each rank."""
    if not rankings:
        raise DataError("no rankings to evaluate")
    m = np.asarray(rankings[0].order).shape[0]
    counts = np.zeros(m)
    for ranking in rankings:
        counts[true_match_rank(ranking, truth) - 1] += 1
    return CmcCurve(rates=np.cumsum(counts) / len(rankings))


def postrank_stats(before, after, content_sets, truth) -> dict[str, float]:
    """Categorize per-probe rank movement caused by post-ranking, probe by
    probe with one counter per outcome; the percentages by name."""
    if not (len(before) == len(after) == len(content_sets)):
        raise DataError("before/after/content lists must align")
    in_content = 0
    improved = 0
    unchanged = 0
    worsened = 0
    to_top1 = 0
    rerankable = 0
    for b, a, content in zip(before, after, content_sets):
        if b.probe_index != a.probe_index or b.probe_index != content.probe_index:
            raise DataError("before/after/content probes are misaligned")
        rank_b = true_match_rank(b, truth)
        rank_a = true_match_rank(a, truth)
        if truth[b.probe_index] in content.members:
            in_content += 1
        if content.m < 2:
            continue
        rerankable += 1
        if rank_a < rank_b:
            improved += 1
            if rank_a == 1:
                to_top1 += 1
        elif rank_a == rank_b:
            unchanged += 1
        else:
            worsened += 1
    n = len(before)

    def pct(num: int, den: int) -> float:
        return 100.0 * num / den if den else 0.0

    return {
        "in_content": pct(in_content, n),
        "improved": pct(improved, rerankable),
        "improved_to_top1": pct(to_top1, improved),
        "unchanged": pct(unchanged, rerankable) if rerankable else 100.0,
        "worsened": pct(worsened, rerankable),
    }


def best_n_select(
    validation_top1: dict[str, float],
    validation_rankings: dict[str, list[RankingList]],
    truth: dict[int, int],
    n_max: int = N_MAX,
) -> BestNSelection:
    """Best-n from given validation top-1 rates, each aggregated prefix
    scored by counting the probes whose first entry is the true match."""
    reps = [rep for rep, rate in validation_top1.items() if np.isfinite(rate)]
    if len(reps) < 2:
        raise ConfigError(f"best-n needs at least 2 representations, got {len(reps)}")
    ordered = sorted(reps, key=lambda rep: -validation_top1[rep])
    top1_per_n: dict[int, float] = {}
    for n in range(2, min(n_max, len(ordered)) + 1):
        combined = aggregate([validation_rankings[rep] for rep in ordered[:n]])
        hits = sum(int(c.order[0] == truth[c.probe_index]) for c in combined)
        top1_per_n[n] = hits / len(combined) if combined else 0.0
    chosen_n = max(top1_per_n, key=lambda n: (top1_per_n[n], -n))
    return BestNSelection(
        ordered_reps=tuple(ordered), chosen_n=chosen_n, top1_per_n=top1_per_n
    )
