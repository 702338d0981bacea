"""Similarity learning on the polynomial feature map.

A similarity model holds one symmetric Mahalanobis weight matrix and one
symmetric bilinear weight matrix per (cue, region) block plus per-cue global
blocks. The pair score is the sum of local block scores plus gamma times the
global block sum. Galleries and training pairs are scored by one core,
:func:`_score_terms`.

The core holds a representation's k blocks as one stack: each camera bank
as one (N, k D) array, D the widest block's width, with each narrower block
padded by zero columns to D, and W_M and W_B as (k, D, D) stacks. The cross
terms are one matrix product and every other per-block step is one batched
product, so neither a scoring call nor a training iteration loops over
blocks in Python. A padded column is zero in every row, so it adds exact
zeros to every score, gradient and weight. No workload pads: PCA gives
every block one width, and only a raw block narrower than
``min(pca_dim, fit rows)`` (PCA's clamp warning), or a hand-built model,
mixes widths.

Training minimizes a logistic pair loss with Frobenius regularization, a
convex problem, by limited-memory BFGS (Liu & Nocedal 1989) with Armijo
backtracking. The score is linear in the weights, so a trial step
``W + tD`` scores as ``s(W) + t*s(D)``: each iteration scores its direction
once, prices every line-search trial in O(n_pairs) and computes gradients
only at the accepted point.

From W = 0, every L-BFGS step leaves the weights a combination of the
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
from collections import deque
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

# A model's weights: (W_M, W_B), each a (k, D, D) stack in the banks' key
# order, block i's (d_i, d_i) weights at the top left of slot i and zeros in
# the rest of it.
Stack = tuple[np.ndarray, np.ndarray]


def _transposed(stack: np.ndarray) -> np.ndarray:
    return stack.transpose(0, 2, 1)


def _stacked(cat: np.ndarray, k: int) -> np.ndarray:
    """The (k, N, D) stack view of k blocks held as (N, k D)."""
    return cat.reshape(cat.shape[0], k, cat.shape[1] // k).transpose(1, 0, 2)


def _padded(mats: list[np.ndarray]) -> np.ndarray:
    """The (N, k D) array of k (N, d_i) blocks, D the widest d_i, block i in
    columns [i D, i D + d_i) and zeros in the rest of its slot; a single
    block is used as it is, so a one-block bank (post-ranking's) is not
    copied."""
    if len(mats) == 1:
        return np.ascontiguousarray(mats[0])
    d = max(mat.shape[1] for mat in mats)
    out = np.zeros((mats[0].shape[0], len(mats) * d), dtype=np.result_type(*mats))
    for i, mat in enumerate(mats):
        out[:, i * d : i * d + mat.shape[1]] = mat
    return out


class _BlockBanks:
    """Two camera banks of the blocks ``keys``, in sorted key order, and
    which blocks are global.

    Each camera bank is held zero-padded (:func:`_padded`), as ``a_cat``
    (N_a, k D) and ``b_cat`` (N_b, k D), and seen as the stacks ``a``
    (k, N_a, D) and ``b`` (k, N_b, D) through views; ``widths`` holds each
    block's own width d_i.

    A missing block is a ConfigError; blocks whose banks disagree on their
    width, or on the row count within one bank, are a DimError, and so are
    weights whose shape is not their block's (d_i, d_i), in :meth:`stack`.
    """

    def __init__(self, keys: list[BlockKey], bank_a: FeatureBank, bank_b: FeatureBank):
        self.keys = sorted(keys)
        self.widths = []
        for key in self.keys:
            try:
                mat_a, mat_b = bank_a[key], bank_b[key]
            except KeyError:
                raise ConfigError(f"missing descriptor for block {key}") from None
            d = mat_a.shape[1]
            if mat_b.shape[1] != d:
                raise DimError(f"block {key}: probes d={d}, gallery d={mat_b.shape[1]}")
            self.widths.append(d)
        rows_a = {bank_a[key].shape[0] for key in keys}
        rows_b = {bank_b[key].shape[0] for key in keys}
        if len(rows_a) > 1 or len(rows_b) > 1:
            raise DimError("blocks of one camera bank disagree on their row count")
        self.shape = (rows_a.pop(), rows_b.pop())
        self.is_global = np.array([key[1] == GLOBAL_SCOPE for key in self.keys])[:, None, None]
        self.a_cat = _padded([bank_a[key] for key in self.keys])
        self.b_cat = _padded([bank_b[key] for key in self.keys])
        self.a, self.b = _stacked(self.a_cat, len(self.keys)), _stacked(self.b_cat, len(self.keys))

    def scale(self, gamma: float) -> np.ndarray:
        """Each block's weight in the pair score, shaped to scale a stack."""
        return np.where(self.is_global, gamma, 1.0)

    def stack(self, blocks: Blocks) -> Stack:
        """``blocks`` as one (W_M, W_B) stack pair (see :data:`Stack`)."""
        k, _, d = self.a.shape
        pairs = [blocks[key] for key in self.keys]
        stack = np.zeros((2, k, d, d), dtype=np.result_type(*(w for pair in pairs for w in pair)))
        for i, (key, d_i, pair) in enumerate(zip(self.keys, self.widths, pairs)):
            for j, w in enumerate(pair):
                if w.shape != (d_i, d_i):
                    raise DimError(f"block {key}: features d={d_i}, W {w.shape}")
                stack[j, i, :d_i, :d_i] = w
        return stack[0], stack[1]

    def unstack(self, stack: Stack) -> Blocks:
        """The weight blocks of ``stack``, keyed again, each at its width."""
        w_m, w_b = stack
        return {
            key: (w_m[i, :d, :d], w_b[i, :d, :d])
            for i, (key, d) in enumerate(zip(self.keys, self.widths))
        }


def _score_terms(
    banks: _BlockBanks, weights: Stack, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one scoring core of galleries and training pairs: the score of
    bank A row i against bank B row j is ``cross[i, j] + row[i] + col[j]``.

    Per block, ``(a-b)^T M (a-b) + a^T W_B b + b^T W_B a = a^T M a + b^T M b
    + a^T K b`` with ``K = (W_B - M) + (W_B - M)^T``, and each block is
    scaled by s (gamma on global blocks). So the cross terms are one product
    of the padded A against the stacked ``(s K) B^T``, and the ``a^T M a``
    and ``b^T M b`` terms of all blocks are two vectors.
    """
    w_m, w_b = weights
    s = banks.scale(gamma)
    k = w_b - w_m
    k = k + _transposed(k)
    k *= s
    s_m = s * w_m
    return (
        banks.a_cat @ (k @ _transposed(banks.b)).reshape(banks.a_cat.shape[1], -1),
        np.einsum("kij,kij->i", banks.a @ s_m, banks.a),
        np.einsum("kij,kij->i", banks.b @ s_m, banks.b),
    )


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
# previous one; a line-search trial must lower it by ARMIJO * t * -<G, D>
# along the direction D. REL_TOL is the largest power of ten at which the
# ingested316 reports of input seeds 1 and 2 are the same at one and two
# BLAS threads (ROADMAP item 2); on a flatter loss a converged model still
# moves with rounding. L-BFGS keeps the last MEMORY steps and gradient changes.
REL_TOL = 1e-9
ARMIJO = 1e-4
MEMORY = 10
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
    """Training pairs over shared image banks: the blocks' camera banks as
    one zero-padded stack (exact, and unpadded in every workload; see
    :class:`_BlockBanks`), the pair indices and the labels."""

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


def _pair_scores(data: _PairData, weights: Stack, gamma: float) -> np.ndarray:
    """Score of every pair: its entry of the image-level score matrix, with
    the row and column terms added to the pairs' entries only. Linear in
    ``weights``, so it also scores a step direction."""
    cross, row, col = _score_terms(data, weights, gamma)
    return cross.ravel()[data.flat] + row[data.p] + col[data.q]


def _coef_weights(data: _PairData, coef: np.ndarray, gamma: float) -> Stack:
    """The weights ``S Psi^T coef`` of the pair coefficients ``coef``, where
    row i of Psi is pair i's feature map and S scales global blocks by
    gamma: the loss gradient less its penalty when ``coef`` holds the
    per-pair loss slopes.

    The coefficients go into the (N_a, N_b) matrix C, a pair listed twice
    counting twice. With X = A^T C B, the bilinear weights are X + X^T and
    the Mahalanobis ones A^T diag(C 1) A + B^T diag(C^T 1) B - X - X^T. Both
    are symmetric by construction. A^T C for all blocks is one product with
    the padded A, and the rest are batched over the blocks; a padded column
    of A or B gives a zero row and column of each weight, so every block's
    slot outside its width stays zero.
    """
    n_a, n_b = data.shape
    c = np.bincount(data.flat, weights=coef, minlength=n_a * n_b).reshape(n_a, n_b)
    row = np.bincount(data.p, weights=coef, minlength=n_a)
    col = np.bincount(data.q, weights=coef, minlength=n_b)
    a, b = data.a, data.b
    x = (data.a_cat.T @ c).reshape(a.shape[0], a.shape[2], n_b) @ b
    w_b = x + _transposed(x)
    m = (_transposed(a) * row) @ a + (_transposed(b) * col) @ b
    w_m = m + _transposed(m)
    w_m *= 0.5
    w_m -= w_b
    s = data.scale(gamma)
    w_m *= s
    w_b *= s
    return w_m, w_b


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
    w_m, w_b = weights = data.stack(blocks)
    margins = -data.y * (_pair_scores(data, weights, gamma) - bias)
    coef = -data.y * _sigmoid(margins)
    loss = _loss(margins, sum(float(np.vdot(w, w)) for w in weights), lam)
    g_m, g_b = _coef_weights(data, coef, gamma)
    g_m += 2.0 * lam * w_m
    g_b += 2.0 * lam * w_b
    return loss, data.unstack((g_m, g_b)), float(-coef.sum())


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

    Each block is read at its own width, so padding adds no work here. K is
    filled in place, ``_GRAM_ROWS`` rows at a time, so no (n, n) temporary
    is made.
    """
    n = len(data.y)
    gram = np.zeros((n, n))
    for bank_a, bank_b, d, s in zip(data.a, data.b, data.widths, data.scale(gamma).ravel()):
        a, b = bank_a[data.p, :d], bank_b[data.q, :d]
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


def _inner(u: np.ndarray, v: np.ndarray) -> float:
    """<u, v> of two (W, bias) points, each held as two rows: its pair
    coefficients and bias, and its image, K on the coefficients and the bias
    as it is. So <W_u, W_v> + bias_u bias_v is one dot product."""
    return float(u[0] @ v[1])


def _lbfgs_direction(g: np.ndarray, memory: deque) -> np.ndarray:
    """The L-BFGS direction -H g by the two-loop recursion, held like g as
    in :func:`_inner`. Each memory slot holds a step s and a gradient change
    y, held so too, and 1/<s, y>; the direction is a combination of g and
    the slots, so its image needs no K product. With an empty memory the
    direction is -g."""
    q = g.copy()
    coefs = []
    for s, y, rho in reversed(memory):
        coefs.append(rho * _inner(s, q))
        q -= coefs[-1] * y
    if memory:
        _, y, rho = memory[-1]
        q *= 1.0 / (rho * _inner(y, y))  # <s, y> / <y, y>
    for (s, y, rho), a in zip(memory, reversed(coefs)):
        q += (a - rho * _inner(y, q)) * s
    return -q


def train_model(
    bank_a: FeatureBank,
    bank_b: FeatureBank,
    pairs: np.ndarray,
    rep: Representation,
    gamma: float = GAMMA_DEFAULT,
    config: TrainConfig = TrainConfig(),
) -> SimilarityModel:
    """Fit weight blocks by L-BFGS with Armijo backtracking.

    ``pairs`` rows are (index_a, index_b, +1/-1), with indices in range;
    both classes must be present. Weights start at zero (the loss is convex
    in them), and every L-BFGS step combines past steps and gradients, so
    the weights stay W = S Psi^T alpha over the pairs' feature maps (the
    representer theorem; Psi and S as in :func:`_coef_weights`). The loop
    holds alpha and the bias beside their image (see :func:`_inner`): K alpha,
    with K = Psi S^2 Psi^T, is the pair scores less the bias. Each iteration
    forms beta = c + 2 lam alpha from the pair loss slopes c (the gradient is
    G = S Psi^T beta) and computes K beta once; :func:`_lbfgs_direction`
    builds the direction D and its image from the memory alone. ||W + tD||^2
    is quadratic and the scores linear in t, so every line-search trial,
    from t = 1 down by at most 60 halvings, is priced in O(n_pairs). A step
    whose <s, y> is not positive is not kept, and a direction that does not
    descend clears the memory and falls back to -G, so the first step is a
    gradient step. :func:`_kernel` chooses by size how K v is computed. The
    weights are formed once, at the end, and are symmetric by construction.

    The model records the accepted steps in ``iterations`` and why training
    stopped in ``stop_reason``: ``converged``, ``max_iters``, ``line_search``
    (no trial step met the Armijo test) or ``zero_gradient``.
    """
    data = _PairData(bank_a, bank_b, pairs, rep.block_keys())
    if not ((data.y > 0).any() and (data.y < 0).any()):
        raise DataError("training pairs must contain both classes")
    lam = config.lam
    kernel = _kernel(data, gamma)
    n = len(data.y)
    x = np.zeros((2, n + 1))  # (alpha, bias) and (K alpha, bias); see _inner
    z = np.zeros(n)  # pair scores less the bias
    margins = -data.y * z
    loss = _loss(margins, 0.0, lam)
    if not np.isfinite(loss):
        raise NumericError("initial loss is not finite")
    memory: deque = deque(maxlen=MEMORY)
    last = None  # the last step and the gradient it started from
    iterations = 0
    stop = "max_iters"
    while iterations < config.max_iters:
        coef = -data.y * _sigmoid(margins)
        g = np.empty((2, n + 1))
        g[0, :n] = coef + 2.0 * lam * x[0, :n]
        g[1, :n] = kernel(g[0, :n])
        g[:, n] = -coef.sum()
        if last is not None:
            s, y = last[0], g - last[1]
            s_dot_y = _inner(s, y)
            if s_dot_y > 0.0:
                memory.append((s, y, 1.0 / s_dot_y))
        grad_sq = _inner(g, g)
        if grad_sq == 0.0:
            stop = "zero_gradient"
            break
        d = _lbfgs_direction(g, memory)
        slope = _inner(g, d)
        if not slope < 0.0:
            memory.clear()
            d, slope = -g, -grad_sq
        # z(x + t d) = z + t dz
        dz = d[1, :n] - d[1, n]
        w_sq = float(x[0, :n] @ x[1, :n])
        w_dot_d = float(d[0, :n] @ x[1, :n])
        d_sq = float(d[0, :n] @ d[1, :n])
        t = 1.0
        for _ in range(60):
            trial_margins = -data.y * (z + t * dz)
            trial_loss = _loss(trial_margins, w_sq + 2.0 * t * w_dot_d + t * t * d_sq, lam)
            if np.isfinite(trial_loss) and trial_loss <= loss + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            stop = "line_search"
            break
        d *= t
        x += d
        last = (d, g)
        z, margins = z + t * dz, trial_margins
        prev_loss, loss = loss, trial_loss
        iterations += 1
        if abs(prev_loss - loss) <= REL_TOL * max(1.0, abs(prev_loss)):
            stop = "converged"
            break
    # Drop a pair Gram before the weights are formed: their (N_a, N_b)
    # coefficient matrix is as large in pair space.
    del kernel
    return SimilarityModel(
        rep_id=rep.rep_id, gamma=gamma, bias=float(x[0, n]),
        blocks=data.unstack(_coef_weights(data, x[0, :n], gamma)),
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
