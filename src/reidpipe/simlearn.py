"""Similarity learning on the polynomial feature map.

A similarity model holds one symmetric Mahalanobis weight matrix and one
symmetric bilinear weight matrix per (cue, region) block plus per-cue global
blocks. The pair score is the sum of local block scores plus gamma times the
global block sum. Galleries and training pairs are scored by one core,
:func:`_score_matrix`.

Training minimizes a logistic pair loss with Frobenius regularization by
full-batch gradient descent with backtracking line search. The score is
linear in the weights, so the problem is convex and a trial step ``W - tG``
scores as ``s(W) - t*s(G)``: each iteration scores the gradient direction
once, prices every line-search trial in O(n_pairs) and computes block
gradients only at the accepted point. The gradients are symmetric by
construction, so the weights stay symmetric without a projection.

An iteration applies two linear maps, weights to pair scores and pair loss
slopes to the gradient, at the size of the data rather than of a stack of
per-pair rows. When the pairs index shared image banks (n^2 > N_a N_b), a
pair's score is an entry of the image-level score matrix and the gradient
is built from the (N_a, N_b) slope matrix. When there are no more pairs
than rows (n^2 <= N_a N_b, as for post-ranking's one row per pair), the
weights stay ``W = Psi^T alpha`` over the pairs' feature maps ``Psi``, and
both maps are products with the (n, n) pair Gram ``Psi Psi^T``.
"""

from __future__ import annotations

import struct
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
        keys: list[BlockKey] = []
        for cue in sorted(self.cue_scopes):
            scope = self.cue_scopes[cue]
            if scope in ("L", "GL"):
                keys.extend((cue, f"r{r}") for r in range(self.n_regions))
            if scope in ("G", "GL"):
                keys.append((cue, GLOBAL_SCOPE))
        return keys


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
    """Gallery order for one probe, best match first.

    ``scores`` holds the similarity per gallery index; ``order`` is sorted by
    non-increasing score with ties broken by ascending gallery index.
    """

    probe_index: int
    order: np.ndarray
    scores: np.ndarray

    @property
    def dissimilarities(self) -> np.ndarray:
        return -self.scores


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

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


def _score_matrix(
    blocks: Blocks, gamma: float, bank_a: FeatureBank, bank_b: FeatureBank
) -> np.ndarray:
    """The (N_a, N_b) score matrix of every ``bank_a`` row against every
    ``bank_b`` row: the one scoring core of galleries and training pairs.

    Per block, ``(a-b)^T M (a-b) + a^T W_B b + b^T W_B a = a^T M a + b^T M b
    + a^T (W_B + W_B^T - M - M^T) b``, so each block costs one row x row
    product; global blocks are scaled by gamma.
    """
    scores: np.ndarray | None = None
    for key in sorted(blocks):
        w_m, w_b = blocks[key]
        try:
            mat_a, mat_b = bank_a[key], bank_b[key]
        except KeyError:
            raise ConfigError(f"missing descriptor for block {key}") from None
        d = mat_a.shape[1]
        if mat_b.shape[1] != d or w_m.shape != (d, d):
            raise DimError(
                f"block {key}: probes d={d}, gallery d={mat_b.shape[1]}, W {w_m.shape}"
            )
        contrib = (mat_a @ (w_b + w_b.T - w_m - w_m.T)) @ mat_b.T
        contrib += np.einsum("ij,ij->i", mat_a @ w_m, mat_a)[:, None]
        contrib += np.einsum("ij,ij->i", mat_b @ w_m, mat_b)[None, :]
        if key[1] == GLOBAL_SCOPE:
            contrib *= gamma
        if scores is None:
            scores = contrib
        else:
            scores += contrib
    if scores is None:
        raise ConfigError("model has no weight blocks")
    return scores


def score_gallery(
    model: SimilarityModel,
    probes: FeatureBank,
    gallery: FeatureBank,
) -> np.ndarray:
    """:func:`score_pair` of every probe row against every gallery row.

    Returns the (P, G) score matrix (see :func:`_score_matrix`).
    """
    return _score_matrix(model.blocks, model.gamma, probes, gallery)


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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _PairData:
    """Training pairs over shared image banks: each block's (N_a, d) and
    (N_b, d) camera matrices, the pair indices and the labels."""

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
        self.keys = keys
        self.a: dict[BlockKey, np.ndarray] = {}
        self.b: dict[BlockKey, np.ndarray] = {}
        for key in keys:
            try:
                self.a[key], self.b[key] = bank_a[key], bank_b[key]
            except KeyError:
                raise ConfigError(f"missing descriptor for block {key}") from None
            if self.a[key].shape[1] != self.b[key].shape[1]:
                raise DimError(f"block {key}: camera banks disagree on dimension")
        rows_a = {mat.shape[0] for mat in self.a.values()}
        rows_b = {mat.shape[0] for mat in self.b.values()}
        if len(rows_a) != 1 or len(rows_b) != 1:
            raise DimError("blocks of one camera bank disagree on their row count")
        self.shape = (rows_a.pop(), rows_b.pop())
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


def _scale(key: BlockKey, gamma: float) -> float:
    """A block's weight in the pair score: gamma on global blocks."""
    return gamma if key[1] == GLOBAL_SCOPE else 1.0


def _pair_scores(data: _PairData, blocks: Blocks, gamma: float) -> np.ndarray:
    """Score of every pair: its entry of the image-level score matrix.
    Linear in ``blocks``, so it also scores a step direction."""
    return _score_matrix(blocks, gamma, data.a, data.b).ravel()[data.flat]


def _gradient(
    data: _PairData, blocks: Blocks, coef: np.ndarray, gamma: float, lam: float
) -> Blocks:
    """Block gradients of the penalized loss, given the per-pair loss slopes
    ``coef``.

    The slopes go into the (N_a, N_b) matrix C, a pair listed twice counting
    twice. With X = A^T C B, the bilinear gradient is X + X^T and the
    Mahalanobis one is A^T diag(C 1) A + B^T diag(C^T 1) B - X - X^T. Both
    are symmetric by construction, so symmetric weights stay symmetric under
    gradient steps.
    """
    c = np.bincount(data.flat, weights=coef, minlength=data.shape[0] * data.shape[1])
    c = c.reshape(data.shape)
    row, col = c.sum(axis=1), c.sum(axis=0)
    grads: Blocks = {}
    for key in data.keys:
        w_m, w_b = blocks[key]
        a, b = data.a[key], data.b[key]
        x = (a.T @ c) @ b
        g_b = x + x.T
        m = (a.T * row) @ a + (b.T * col) @ b
        s = _scale(key, gamma)
        grads[key] = (s * (0.5 * (m + m.T) - g_b) + 2.0 * lam * w_m, s * g_b + 2.0 * lam * w_b)
    return grads


def _inner(x: Blocks, y: Blocks) -> float:
    """Frobenius inner product summed over blocks."""
    return sum(float(np.vdot(x[k][0], y[k][0]) + np.vdot(x[k][1], y[k][1])) for k in x)


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
    on the image-level maps of :func:`train_model`."""
    margins = -data.y * (_pair_scores(data, blocks, gamma) - bias)
    coef = -data.y * _sigmoid(margins)
    loss = _loss(margins, _inner(blocks, blocks), lam)
    return loss, _gradient(data, blocks, coef, gamma, lam), float(-coef.sum())


class _ImageMaps:
    """Weights held as blocks: pair scores from the scoring core, gradients
    from the slope matrix."""

    def __init__(self, data: _PairData, gamma: float, lam: float):
        self.data, self.gamma, self.lam = data, gamma, lam
        self.weights: Blocks = {
            key: (np.zeros((mat.shape[1],) * 2), np.zeros((mat.shape[1],) * 2))
            for key, mat in data.a.items()
        }

    def scores(self) -> np.ndarray:
        return _pair_scores(self.data, self.weights, self.gamma)

    def direction(self, coef: np.ndarray) -> tuple[np.ndarray, float, float, float]:
        """Pair scores of the gradient G, and ||W||^2, <W, G>, ||G||^2."""
        w = self.weights
        g = self.grads = _gradient(self.data, w, coef, self.gamma, self.lam)
        return _pair_scores(self.data, g, self.gamma), _inner(w, w), _inner(w, g), _inner(g, g)

    def step(self, t: float) -> None:
        self.weights = {
            key: (w_m - t * self.grads[key][0], w_b - t * self.grads[key][1])
            for key, (w_m, w_b) in self.weights.items()
        }

    def blocks(self) -> Blocks:
        return self.weights


class _PairSpaceMaps:
    """Weights held as W = Psi^T alpha, where row i of Psi is pair i's
    feature map with global blocks scaled by gamma. Every map is one product
    with the (n, n) pair Gram K = Psi Psi^T."""

    def __init__(self, data: _PairData, gamma: float, lam: float):
        self.data, self.gamma, self.lam = data, gamma, lam
        self.gram = _pair_gram(data, gamma)
        self.alpha = np.zeros(len(data.y))
        self.k_alpha = self.gram @ self.alpha

    def scores(self) -> np.ndarray:
        return self.k_alpha

    def direction(self, coef: np.ndarray) -> tuple[np.ndarray, float, float, float]:
        """G = Psi^T beta with beta = coef + 2 lam alpha, so its pair scores
        are K beta and every inner product is a dot of known vectors."""
        self.beta = coef + 2.0 * self.lam * self.alpha
        self.k_beta = self.gram @ self.beta
        return (
            self.k_beta,
            float(self.alpha @ self.k_alpha),
            float(self.beta @ self.k_alpha),
            float(self.beta @ self.k_beta),
        )

    def step(self, t: float) -> None:
        self.alpha = self.alpha - t * self.beta
        self.k_alpha = self.k_alpha - t * self.k_beta

    def blocks(self) -> Blocks:
        blocks: Blocks = {}
        for key in self.data.keys:
            a, b = self.data.a[key][self.data.p], self.data.b[key][self.data.q]
            diff = a - b
            m = (diff.T * self.alpha) @ diff
            x = (a.T * self.alpha) @ b
            s = _scale(key, self.gamma)
            blocks[key] = (s * 0.5 * (m + m.T), s * (x + x.T))
        return blocks


_GRAM_ROWS = 64  # rows of the pair Gram filled per product


def _pair_gram(data: _PairData, gamma: float) -> np.ndarray:
    """K[i, j] = sum over blocks of s^2 [(d_i.d_j)^2 + 2 (a_i.a_j)(b_i.b_j)
    + 2 (a_i.b_j)(b_i.a_j)] with d = a - b and s = gamma on global blocks.

    K is filled in place, ``_GRAM_ROWS`` rows at a time, so no (n, n)
    temporary is made.
    """
    n = len(data.y)
    gram = np.zeros((n, n))
    for key in data.keys:
        a, b = data.a[key][data.p], data.b[key][data.q]
        diff = a - b
        s2 = _scale(key, gamma) ** 2
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
    in them) and stay symmetric because every gradient is. Line-search
    trials are priced by linearity in O(n_pairs) (see the module docstring).

    Each iteration applies two linear maps: weights to pair scores, and pair
    slopes to the gradient. With n pairs over N_a x N_b images, they run at
    the size of the data:

    - image level (n^2 > N_a N_b, e.g. :func:`sample_pairs`): pair scores are
      entries of the score matrix from the core behind :func:`score_gallery`,
      and gradients come from the (N_a, N_b) slope matrix (:func:`_gradient`);
    - pair space (n^2 <= N_a N_b, e.g. one row per pair): every step is
      ``W <- (1 - 2 lam t) W - t Psi^T c`` from W = 0, so W = Psi^T alpha
      exactly. Each iteration is one product with the (n, n) pair Gram, and
      the blocks are formed once, at the end.

    The model records the accepted steps in ``iterations`` and why training
    stopped in ``stop_reason``: ``converged``, ``max_iters``, ``line_search``
    (no trial step met the Armijo test) or ``zero_gradient``.
    """
    data = _PairData(bank_a, bank_b, pairs, rep.block_keys())
    if not ((data.y > 0).any() and (data.y < 0).any()):
        raise DataError("training pairs must contain both classes")
    lam = config.lam
    pair_space = len(data.y) ** 2 <= data.shape[0] * data.shape[1]
    maps = (_PairSpaceMaps if pair_space else _ImageMaps)(data, gamma, lam)
    bias = 0.0
    z = maps.scores() - bias
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
        dz_w, w_sq, w_dot_g, g_sq = maps.direction(coef)
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
        maps.step(t)
        bias -= t * grad_bias
        z, margins = z - t * dz, trial_margins
        prev_loss, loss = loss, trial_loss
        iterations += 1
        step = t * 2.0
        if abs(prev_loss - loss) <= REL_TOL * max(1.0, abs(prev_loss)):
            stop = "converged"
            break
    return SimilarityModel(
        rep_id=rep.rep_id, gamma=gamma, bias=bias, blocks=maps.blocks(),
        iterations=iterations, stop_reason=stop,
    )


def pair_accuracy(
    model: SimilarityModel,
    bank_a: FeatureBank,
    bank_b: FeatureBank,
    pairs: np.ndarray,
) -> float:
    """Fraction of pairs whose score side of the bias matches the label."""
    data = _PairData(bank_a, bank_b, pairs, model.block_keys())
    z = _pair_scores(data, model.blocks, model.gamma) - model.bias
    return float(np.mean(np.where(z > 0, 1.0, -1.0) == data.y))


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
            cue = reader.take(cue_len).decode("utf-8")
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
