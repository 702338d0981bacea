"""Similarity learning on the polynomial feature map.

A similarity model holds one symmetric Mahalanobis weight matrix and one
symmetric bilinear weight matrix per (cue, region) block plus per-cue global
blocks. The pair score is the sum of local block scores plus gamma times the
global block sum. Galleries and training pairs are scored by one core,
:func:`_score_terms`.

The core holds a representation's blocks per width group as stacked
arrays: each camera bank concatenated over the group's blocks, and W_M and
W_B as (k, d, d) stacks. A group's cross terms are one matrix product, and
every other per-block step is one batched product over the group, so
neither a scoring call nor a training iteration loops over blocks in
Python.

Training minimizes a logistic pair loss with Frobenius regularization by
full-batch gradient descent with backtracking line search. The score is
linear in the weights, so the problem is convex and a trial step ``W - tG``
scores as ``s(W) - t*s(G)``: each iteration scores the gradient direction
once, prices every line-search trial in O(n_pairs) and computes gradients
only at the accepted point.

From W = 0, every gradient step leaves the weights a combination of the
training pairs' feature maps, W = S Psi^T alpha, so the trainer runs one
loop over the n pair coefficients alpha and forms the weights once, at the
end. The one product an iteration needs, K v with K = Psi S^2 Psi^T, is
computed at the size of the data: from the (n, n) pair Gram when there are
no more pairs than rows (n^2 <= N_a N_b, as for post-ranking's one row per
pair), and otherwise from the shared image banks, as the weights of v
scored by the core.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import BinaryReader
from .errors import ConfigError, DataError, DimError, FormatError, NumericError

GAMMA_DEFAULT = 1.1
GLOBAL_SCOPE = "G"

# Per-representation cue roles: G = global only, L = local only, GL = both.
TABLE1: dict[str, dict[str, str]] = {
    "F0": {"C1": "GL", "C2": "GL", "C3": "GL", "C4": "GL"},
    "F1": {"C1": "GL", "C2": "GL", "C3": "GL", "C4": "GL", "C7": "G"},
    "F2": {"C1": "GL", "C2": "GL", "C3": "GL", "C4": "GL", "C8": "G"},
    "F3": {"C1": "GL", "C2": "GL", "C3": "GL", "C4": "GL", "C7": "G", "C8": "G"},
    "F4": {"C5": "GL", "C6": "GL", "C7": "G"},
    "F5": {"C5": "GL", "C6": "GL", "C8": "G"},
    "F6": {"C5": "GL", "C6": "GL", "C7": "G", "C8": "G"},
    "F7": {"C1": "L", "C2": "L", "C3": "L", "C4": "L", "C7": "G"},
    "F8": {"C1": "L", "C2": "L", "C3": "L", "C4": "L", "C8": "G"},
    "F9": {"C1": "L", "C2": "L", "C3": "L", "C4": "L", "C7": "G", "C8": "G"},
    "F10": {"C5": "L", "C6": "L", "C7": "G"},
    "F11": {"C5": "L", "C6": "L", "C8": "G"},
    "F12": {"C5": "L", "C6": "L", "C7": "G", "C8": "G"},
}

SCOPES = ("G", "L", "GL")


def role_scopes(role: str, n_regions: int) -> list[str]:
    """The block scopes of a cue in ``role`` (one of ``SCOPES``): its
    regions "r0".."r{n_regions-1}" if local, then "G" if global."""
    local = [f"r{r}" for r in range(n_regions)] if "L" in role else []
    return local + ([GLOBAL_SCOPE] if "G" in role else [])


# A feature bank maps (cue, scope) -> (n_images, d) matrix, where scope is
# "G" or "r0".."r{R-1}". Banks are the resolved per-image descriptors.
BlockKey = tuple[str, str]
FeatureBank = dict[BlockKey, np.ndarray]
# Weight blocks: (cue, scope) -> (W_M, W_B), or a gradient of the same shape.
Blocks = dict[BlockKey, tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Representation:
    """A named assignment of cues to global/local roles."""

    rep_id: str
    cue_scopes: dict[str, str]
    n_regions: int = 4

    def __post_init__(self):
        for cue, scope in self.cue_scopes.items():
            if scope not in SCOPES:
                raise ConfigError(f"{self.rep_id}: cue {cue} has invalid scope {scope!r}")

    @classmethod
    def from_table(cls, rep_id: str, n_regions: int = 4) -> "Representation":
        if rep_id not in TABLE1:
            raise ConfigError(f"unknown representation {rep_id!r}")
        return cls(rep_id=rep_id, cue_scopes=dict(TABLE1[rep_id]), n_regions=n_regions)

    def block_keys(self) -> list[BlockKey]:
        return [
            (cue, scope)
            for cue in sorted(self.cue_scopes)
            for scope in role_scopes(self.cue_scopes[cue], self.n_regions)
        ]


@dataclass
class SimilarityModel:
    """Learned weight blocks; immutable once training returns it."""

    rep_id: str
    gamma: float
    bias: float
    blocks: dict[BlockKey, tuple[np.ndarray, np.ndarray]]
    # How training ended; not persisted. See train_model.
    iterations: int = 0
    stop_reason: str = ""

    def block_keys(self) -> list[BlockKey]:
        return sorted(self.blocks)


@dataclass(frozen=True)
class RankingList:
    """Gallery order for one probe, best match first; ``scores`` is per
    gallery index.

    A ranked or post-ranked list's scores are similarities, its order by
    non-increasing score; an aggregate's are Stuart statistics, its order by
    non-decreasing statistic. Ties go to the lower gallery index first.
    """

    probe_index: int
    order: np.ndarray
    scores: np.ndarray


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

# Weights of one width group: (W_M, W_B), each a (k, d, d) stack in the
# group's key order. A model's weights are one such pair per group.
Stacks = list[tuple[np.ndarray, np.ndarray]]


def _transposed(stack: np.ndarray) -> np.ndarray:
    return stack.transpose(0, 2, 1)


def _stacked(cat: np.ndarray, k: int) -> np.ndarray:
    """The (k, N, d) stack view of k blocks concatenated as (N, k d)."""
    return cat.reshape(cat.shape[0], k, cat.shape[1] // k).transpose(1, 0, 2)


def _concatenated(mats: list[np.ndarray]) -> np.ndarray:
    """The (N, k d) concatenation of k (N, d) blocks; a single block is used
    as it is, so a one-block bank (post-ranking's) is not copied."""
    return np.ascontiguousarray(mats[0]) if len(mats) == 1 else np.concatenate(mats, axis=1)


class _Group:
    """The blocks of one width, in sorted key order, and which are global.

    Each camera bank is held concatenated, as ``a_cat`` (N_a, k d) and
    ``b_cat`` (N_b, k d), and seen as the stacks ``a`` (k, N_a, d) and ``b``
    (k, N_b, d) through views.
    """

    def __init__(self, keys: list[BlockKey], bank_a: FeatureBank, bank_b: FeatureBank):
        self.keys = keys
        self.is_global = np.array([key[1] == GLOBAL_SCOPE for key in keys])[:, None, None]
        self.a_cat = _concatenated([bank_a[key] for key in keys])
        self.b_cat = _concatenated([bank_b[key] for key in keys])
        self.a, self.b = _stacked(self.a_cat, len(keys)), _stacked(self.b_cat, len(keys))

    def scale(self, gamma: float) -> np.ndarray:
        """Each block's weight in the pair score, shaped to scale a stack."""
        return np.where(self.is_global, gamma, 1.0)


class _BlockBanks:
    """Two camera banks of the blocks ``keys``, grouped by block width.

    A missing block is a ConfigError; blocks whose banks disagree on their
    width, or on the row count within one bank, are a DimError, and so are
    weights whose shape is not their block's (d, d), in :meth:`stack`.
    """

    def __init__(self, keys: list[BlockKey], bank_a: FeatureBank, bank_b: FeatureBank):
        by_width: dict[int, list[BlockKey]] = {}
        for key in sorted(keys):
            try:
                mat_a, mat_b = bank_a[key], bank_b[key]
            except KeyError:
                raise ConfigError(f"missing descriptor for block {key}") from None
            d = mat_a.shape[1]
            if mat_b.shape[1] != d:
                raise DimError(f"block {key}: probes d={d}, gallery d={mat_b.shape[1]}")
            by_width.setdefault(d, []).append(key)
        rows_a = {bank_a[key].shape[0] for key in keys}
        rows_b = {bank_b[key].shape[0] for key in keys}
        if len(rows_a) > 1 or len(rows_b) > 1:
            raise DimError("blocks of one camera bank disagree on their row count")
        self.shape = (rows_a.pop(), rows_b.pop())
        self.groups = [_Group(group_keys, bank_a, bank_b) for group_keys in by_width.values()]

    def stack(self, blocks: Blocks) -> Stacks:
        """``blocks`` as one (W_M, W_B) stack pair per group."""
        stacks = []
        for group in self.groups:
            d = group.a.shape[2]
            for key in group.keys:
                for w in blocks[key]:
                    if w.shape != (d, d):
                        raise DimError(f"block {key}: features d={d}, W {w.shape}")
            stacks.append(tuple(np.stack([blocks[key][i] for key in group.keys]) for i in (0, 1)))
        return stacks

    def unstack(self, stacks: Stacks) -> Blocks:
        """The weight blocks of ``stacks``, keyed again."""
        return {
            key: (w_m[i], w_b[i])
            for group, (w_m, w_b) in zip(self.groups, stacks)
            for i, key in enumerate(group.keys)
        }


def _score_terms(
    banks: _BlockBanks, weights: Stacks, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one scoring core of galleries and training pairs: the score of
    bank A row i against bank B row j is ``cross[i, j] + row[i] + col[j]``.

    Per block, ``(a-b)^T M (a-b) + a^T W_B b + b^T W_B a = a^T M a + b^T M b
    + a^T K b`` with ``K = (W_B - M) + (W_B - M)^T``, and each block is
    scaled by s (gamma on global blocks). So a width group's cross terms are
    one product of the concatenated A against the stacked ``(s K) B^T``, and
    the ``a^T M a`` and ``b^T M b`` terms of all its blocks are two vectors.
    """
    cross = row = col = None
    for group, (w_m, w_b) in zip(banks.groups, weights):
        s = group.scale(gamma)
        k = w_b - w_m
        k = k + _transposed(k)
        k *= s
        s_m = s * w_m
        terms = (
            group.a_cat @ (k @ _transposed(group.b)).reshape(group.a_cat.shape[1], -1),
            np.einsum("kij,kij->i", group.a @ s_m, group.a),
            np.einsum("kij,kij->i", group.b @ s_m, group.b),
        )
        if cross is None:
            cross, row, col = terms
        else:
            cross += terms[0]
            row += terms[1]
            col += terms[2]
    return cross, row, col


def score_gallery(
    model: SimilarityModel,
    probes: FeatureBank,
    gallery: FeatureBank,
) -> np.ndarray:
    """The (P, G) matrix of pair scores of every probe row against every
    gallery row, built by :func:`_score_terms`. A pair's score is the sum
    over local blocks of ``(a-b)^T W_M (a-b) + a^T W_B b + b^T W_B a``,
    plus gamma times that sum over global blocks.
    """
    if not model.blocks:
        raise ConfigError("model has no weight blocks")
    banks = _BlockBanks(list(model.blocks), probes, gallery)
    scores, row, col = _score_terms(banks, banks.stack(model.blocks), model.gamma)
    scores += row[:, None]
    scores += col[None, :]
    return scores


def rank_gallery(
    model: SimilarityModel,
    probes: FeatureBank,
    gallery: FeatureBank,
) -> list[RankingList]:
    """Every probe row's gallery order by descending similarity.

    Ranking ``p`` is probe row ``p``; ties keep the lower gallery index first.
    """
    n = next(iter(gallery.values())).shape[0] if gallery else 0
    if n == 0:
        raise DataError("gallery is empty")
    scores = score_gallery(model, probes, gallery)
    orders = np.argsort(-scores, axis=1, kind="stable")
    return [
        RankingList(probe_index=p, order=orders[p], scores=scores[p])
        for p in range(len(scores))
    ]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# Training stops once the loss changes by at most REL_TOL relative to the
# previous one; a line-search trial must lower it by ARMIJO * t * |grad|^2.
REL_TOL = 1e-6
ARMIJO = 1e-4
NEG_RATIO = 10  # negative pairs sampled per positive


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1e-3
    max_iters: int = 500


def sample_pairs(
    labels_a: np.ndarray,
    labels_b: np.ndarray,
    seed: int | np.random.Generator,
    neg_ratio: int = NEG_RATIO,
) -> np.ndarray:
    """All positive cross-camera pairs plus ``neg_ratio`` negatives per positive.

    Returns an (n_pairs, 3) int array of (index_a, index_b, label) with
    label +1/-1, deterministic for a fixed seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    same = labels_a[:, None] == labels_b[None, :]
    pos = np.argwhere(same)
    neg = np.argwhere(~same)
    if len(pos) == 0:
        raise DataError("no positive pairs available")
    n_neg = min(neg_ratio * len(pos), len(neg))
    if n_neg == 0:
        raise DataError("no negative pairs available")
    chosen = neg[rng.choice(len(neg), size=n_neg, replace=False)]
    pairs = np.vstack(
        [
            np.column_stack([pos, np.ones(len(pos), dtype=np.int64)]),
            np.column_stack([chosen, -np.ones(len(chosen), dtype=np.int64)]),
        ]
    )
    return pairs


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp
    overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


class _PairData(_BlockBanks):
    """Training pairs over shared image banks: the blocks' camera banks
    grouped by width, the pair indices and the labels."""

    def __init__(self, bank_a: FeatureBank, bank_b: FeatureBank,
                 pairs: np.ndarray, keys: list[BlockKey]):
        pairs = np.asarray(pairs)
        if (
            pairs.ndim != 2
            or pairs.shape[1] != 3
            or not np.issubdtype(pairs.dtype, np.integer)
            or not np.isin(pairs[:, 2], (-1, 1)).all()
        ):
            raise DataError(
                f"pairs must be an (n, 3) integer array with labels +1/-1, "
                f"got {pairs.dtype} {pairs.shape}"
            )
        if not keys:
            raise ConfigError("representation has no weight blocks")
        super().__init__(keys, bank_a, bank_b)
        self.p = pairs[:, 0].astype(np.int64)
        self.q = pairs[:, 1].astype(np.int64)
        if not (
            ((self.p >= 0) & (self.p < self.shape[0])).all()
            and ((self.q >= 0) & (self.q < self.shape[1])).all()
        ):
            raise DataError(
                f"pair indices must lie in [0, {self.shape[0]}) x [0, {self.shape[1]})"
            )
        self.flat = self.p * self.shape[1] + self.q
        self.y = pairs[:, 2].astype(np.float64)


def _pair_scores(data: _PairData, weights: Stacks, gamma: float) -> np.ndarray:
    """Score of every pair: its entry of the image-level score matrix, with
    the row and column terms added to the pairs' entries only. Linear in
    ``weights``, so it also scores a step direction."""
    cross, row, col = _score_terms(data, weights, gamma)
    return cross.ravel()[data.flat] + row[data.p] + col[data.q]


def _coef_weights(data: _PairData, coef: np.ndarray, gamma: float) -> Stacks:
    """The weights ``S Psi^T coef`` of the pair coefficients ``coef``, where
    row i of Psi is pair i's feature map and S scales global blocks by
    gamma: the loss gradient less its penalty when ``coef`` holds the
    per-pair loss slopes.

    The coefficients go into the (N_a, N_b) matrix C, a pair listed twice
    counting twice. With X = A^T C B, the bilinear weights are X + X^T and
    the Mahalanobis ones A^T diag(C 1) A + B^T diag(C^T 1) B - X - X^T. Both
    are symmetric by construction. Per width group, A^T C for all blocks is
    one product with the concatenated A, and the rest are batched over the
    blocks.
    """
    n_a, n_b = data.shape
    c = np.bincount(data.flat, weights=coef, minlength=n_a * n_b).reshape(n_a, n_b)
    row = np.bincount(data.p, weights=coef, minlength=n_a)
    col = np.bincount(data.q, weights=coef, minlength=n_b)
    weights: Stacks = []
    for group in data.groups:
        a, b = group.a, group.b
        x = (group.a_cat.T @ c).reshape(a.shape[0], a.shape[2], n_b) @ b
        w_b = x + _transposed(x)
        m = (_transposed(a) * row) @ a + (_transposed(b) * col) @ b
        w_m = m + _transposed(m)
        w_m *= 0.5
        w_m -= w_b
        s = group.scale(gamma)
        w_m *= s
        w_b *= s
        weights.append((w_m, w_b))
    return weights


def _loss(margins: np.ndarray, sq_norm: float, lam: float) -> float:
    return float(np.logaddexp(0.0, margins).sum()) + lam * sq_norm


def loss_and_gradient(
    data: _PairData,
    blocks: Blocks,
    bias: float,
    gamma: float,
    lam: float,
) -> tuple[float, Blocks, float]:
    """Logistic pair loss with Frobenius penalty, plus analytic gradients,
    from the image-level products that :func:`_kernel` uses."""
    weights = data.stack(blocks)
    margins = -data.y * (_pair_scores(data, weights, gamma) - bias)
    coef = -data.y * _sigmoid(margins)
    loss = _loss(margins, sum(float(np.vdot(w, w)) for stack in weights for w in stack), lam)
    grads = _coef_weights(data, coef, gamma)
    for (w_m, w_b), (g_m, g_b) in zip(weights, grads):
        g_m += 2.0 * lam * w_m
        g_b += 2.0 * lam * w_b
    return loss, data.unstack(grads), float(-coef.sum())


def _kernel(data: _PairData, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    """``v -> K v`` with K = Psi S^2 Psi^T: the pair scores of the weights
    ``S Psi^T v``, computed at the size of the data.

    With no more pairs than rows (n^2 <= N_a N_b, as for post-ranking's one
    row per pair) it is one product with the (n, n) pair Gram, built once.
    When the pairs index shared image banks, it forms the weights
    (:func:`_coef_weights`) and scores them with the core behind
    :func:`score_gallery` (:func:`_pair_scores`).
    """
    if len(data.y) ** 2 <= data.shape[0] * data.shape[1]:
        gram = _pair_gram(data, gamma)
        return lambda v: gram @ v
    return lambda v: _pair_scores(data, _coef_weights(data, v, gamma), gamma)


_GRAM_ROWS = 64  # rows of the pair Gram filled per product


def _pair_gram(data: _PairData, gamma: float) -> np.ndarray:
    """K[i, j] = sum over blocks of s^2 [(d_i.d_j)^2 + 2 (a_i.a_j)(b_i.b_j)
    + 2 (a_i.b_j)(b_i.a_j)] with d = a - b and s = gamma on global blocks.

    K is filled in place, ``_GRAM_ROWS`` rows at a time, so no (n, n)
    temporary is made.
    """
    n = len(data.y)
    gram = np.zeros((n, n))
    for group in data.groups:
        for bank_a, bank_b, s in zip(group.a, group.b, group.scale(gamma).ravel()):
            a, b = bank_a[data.p], bank_b[data.q]
            diff = a - b
            s2 = s**2
            for lo in range(0, n, _GRAM_ROWS):
                rows, out = slice(lo, lo + _GRAM_ROWS), gram[lo : lo + _GRAM_ROWS]
                tmp = a[rows] @ b.T
                tmp *= b[rows] @ a.T
                tmp *= 2.0 * s2
                out += tmp
                np.matmul(a[rows], a.T, out=tmp)
                tmp *= b[rows] @ b.T
                tmp *= 2.0 * s2
                out += tmp
                np.matmul(diff[rows], diff.T, out=tmp)
                tmp *= tmp
                tmp *= s2
                out += tmp
    return gram


def train_model(
    bank_a: FeatureBank,
    bank_b: FeatureBank,
    pairs: np.ndarray,
    rep: Representation,
    gamma: float = GAMMA_DEFAULT,
    config: TrainConfig = TrainConfig(),
) -> SimilarityModel:
    """Fit weight blocks by full-batch gradient descent with line search.

    ``pairs`` rows are (index_a, index_b, +1/-1), with indices in range;
    both classes must be present. Weights start at zero (the loss is convex
    in them), so every gradient step leaves them a combination of the
    pairs' feature maps, W = S Psi^T alpha (the representer theorem; Psi and
    S as in :func:`_coef_weights`). The loop holds the pair coefficients
    alpha and their pair scores z_w = K alpha, with K = Psi S^2 Psi^T: each
    iteration forms beta = c + 2 lam alpha from the pair loss slopes c (the
    gradient is G = S Psi^T beta) and computes K beta once. ||W||^2, <W, G>
    and ||G||^2 are then alpha.z_w, beta.z_w and beta.K beta, so every
    line-search trial is priced in O(n_pairs). :func:`_kernel` chooses by
    size how K v is computed. The weights are formed once, at the end, and
    are symmetric by construction.

    The model records the accepted steps in ``iterations`` and why training
    stopped in ``stop_reason``: ``converged``, ``max_iters``, ``line_search``
    (no trial step met the Armijo test) or ``zero_gradient``.
    """
    data = _PairData(bank_a, bank_b, pairs, rep.block_keys())
    if not ((data.y > 0).any() and (data.y < 0).any()):
        raise DataError("training pairs must contain both classes")
    lam = config.lam
    kernel = _kernel(data, gamma)
    alpha = np.zeros(len(data.y))
    z_w = np.zeros(len(data.y))
    bias = 0.0
    z = z_w - bias
    margins = -data.y * z
    loss = _loss(margins, 0.0, lam)
    if not np.isfinite(loss):
        raise NumericError("initial loss is not finite")
    step = 1.0
    iterations = 0
    stop = "max_iters"
    while iterations < config.max_iters:
        coef = -data.y * _sigmoid(margins)
        grad_bias = float(-coef.sum())
        beta = coef + 2.0 * lam * alpha
        dz_w = kernel(beta)
        w_sq, w_dot_g, g_sq = float(alpha @ z_w), float(beta @ z_w), float(beta @ dz_w)
        grad_sq = grad_bias**2 + g_sq
        if grad_sq == 0.0:
            stop = "zero_gradient"
            break
        # z(W - tG, bias - t*grad_bias) = z - t*dz
        dz = dz_w - grad_bias
        t = step
        for _ in range(60):
            trial_margins = -data.y * (z - t * dz)
            trial_loss = _loss(trial_margins, w_sq - 2.0 * t * w_dot_g + t * t * g_sq, lam)
            if np.isfinite(trial_loss) and trial_loss <= loss - ARMIJO * t * grad_sq:
                break
            t *= 0.5
        else:
            stop = "line_search"
            break
        alpha, z_w = alpha - t * beta, z_w - t * dz_w
        bias -= t * grad_bias
        z, margins = z - t * dz, trial_margins
        prev_loss, loss = loss, trial_loss
        iterations += 1
        step = t * 2.0
        if abs(prev_loss - loss) <= REL_TOL * max(1.0, abs(prev_loss)):
            stop = "converged"
            break
    # Drop a pair Gram before the weights are formed: their (N_a, N_b)
    # coefficient matrix is as large in pair space.
    del kernel
    return SimilarityModel(
        rep_id=rep.rep_id, gamma=gamma, bias=bias,
        blocks=data.unstack(_coef_weights(data, alpha, gamma)),
        iterations=iterations, stop_reason=stop,
    )


# ---------------------------------------------------------------------------
# Persistence (SIMW format)
# ---------------------------------------------------------------------------

SIMW_MAGIC = b"SIMW"
SIMW_VERSION = 1
_GLOBAL_TAG = 0xFFFFFFFF


def save_model(model: SimilarityModel, path: str | Path) -> None:
    """Write magic, version, gamma, bias, then per-block tag/d/W_M/W_B (f32 LE)."""
    with open(path, "wb") as fh:
        fh.write(SIMW_MAGIC)
        fh.write(struct.pack("<Iff", SIMW_VERSION, model.gamma, model.bias))
        fh.write(struct.pack("<I", len(model.blocks)))
        for cue, scope in model.block_keys():
            w_m, w_b = model.blocks[(cue, scope)]
            region = _GLOBAL_TAG if scope == GLOBAL_SCOPE else int(scope[1:])
            cue_bytes = cue.encode("utf-8")
            fh.write(struct.pack("<II", region, len(cue_bytes)))
            fh.write(cue_bytes)
            fh.write(struct.pack("<I", w_m.shape[0]))
            fh.write(np.ascontiguousarray(w_m, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(w_b, dtype="<f4").tobytes())


def load_model(path: str | Path, rep_id: str = "") -> SimilarityModel:
    """Read a SIMW file. A malformed file raises FormatError, non-finite
    gamma, bias or weights DataError."""
    reader = BinaryReader(path, SIMW_MAGIC)
    (version,) = reader.unpack("<I")
    if version != SIMW_VERSION:
        raise FormatError(f"{reader.path}: unsupported SIMW version {version}")
    gamma, bias = reader.floats(2)
    (count,) = reader.unpack("<I")
    blocks: dict[BlockKey, tuple[np.ndarray, np.ndarray]] = {}
    for _ in range(count):
        region, cue_len = reader.unpack("<II")
        try:
            cue = bytes(reader.take(cue_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{reader.path}: cue name is not UTF-8") from None
        (d,) = reader.unpack("<I")
        w_m = reader.floats(d, d)
        w_b = reader.floats(d, d)
        scope = GLOBAL_SCOPE if region == _GLOBAL_TAG else f"r{region}"
        if (cue, scope) in blocks:
            raise FormatError(f"{reader.path}: duplicate block {(cue, scope)}")
        blocks[(cue, scope)] = (w_m.astype(np.float64), w_b.astype(np.float64))
    reader.finish()
    return SimilarityModel(
        rep_id=rep_id or reader.path.stem, gamma=float(gamma), bias=float(bias), blocks=blocks
    )
