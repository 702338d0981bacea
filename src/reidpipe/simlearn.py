"""Similarity learning on the polynomial feature map.

A similarity model holds one symmetric Mahalanobis weight matrix and one
symmetric bilinear weight matrix per (cue, region) block plus per-cue global
blocks. The pair score is the sum of local block scores plus gamma times the
global block sum. Training minimizes a logistic pair loss with Frobenius
regularization by full-batch gradient descent with backtracking line search.
The score is linear in the weights, so the problem is convex and a trial
step ``W - tG`` scores as ``s(W) - t*s(G)``: each iteration scores the
gradient direction once, prices every line-search trial in O(n_pairs) and
computes block gradients only at the accepted point. The gradients are
symmetric by construction, so the weights stay symmetric without a
projection.
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


def score_gallery(
    model: SimilarityModel,
    probes: FeatureBank,
    gallery: FeatureBank,
) -> np.ndarray:
    """:func:`score_pair` of every probe row against every gallery row.

    Returns the (P, G) score matrix. Per block, ``(a-b)^T M (a-b) + a^T W_B b
    + b^T W_B a = a^T M a + b^T M b + a^T (W_B + W_B^T - M - M^T) b``, so each
    block costs one probe x gallery product; global blocks are scaled by
    gamma.
    """
    scores: np.ndarray | None = None
    for key in model.block_keys():
        w_m, w_b = model.blocks[key]
        try:
            mat_a, mat_b = probes[key], gallery[key]
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
            contrib *= model.gamma
        scores = contrib if scores is None else scores + contrib
    if scores is None:
        raise ConfigError("model has no weight blocks")
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

@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1e-3
    max_iters: int = 500
    rel_tol: float = 1e-6
    armijo: float = 1e-4


def sample_pairs(
    labels_a: np.ndarray,
    labels_b: np.ndarray,
    seed: int | np.random.Generator,
    neg_ratio: int = 10,
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
    """Per-block pair feature stacks reused across iterations."""

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
        idx_a = pairs[:, 0]
        idx_b = pairs[:, 1]
        self.y = pairs[:, 2].astype(np.float64)
        self.keys = keys
        self.a: dict[BlockKey, np.ndarray] = {}
        self.b: dict[BlockKey, np.ndarray] = {}
        self.diff: dict[BlockKey, np.ndarray] = {}
        for key in keys:
            try:
                mat_a, mat_b = bank_a[key], bank_b[key]
            except KeyError:
                raise ConfigError(f"missing descriptor for block {key}") from None
            if mat_a.shape[1] != mat_b.shape[1]:
                raise DimError(f"block {key}: camera banks disagree on dimension")
            self.a[key] = mat_a[idx_a]
            self.b[key] = mat_b[idx_b]
            self.diff[key] = self.a[key] - self.b[key]


def _pair_scores(data: _PairData, blocks: Blocks, gamma: float) -> np.ndarray:
    """Score of every pair. Linear in ``blocks``, so it also scores a step
    direction; the bilinear term is one product with ``W_B + W_B^T``."""
    s = np.zeros(len(data.y))
    for key in data.keys:
        w_m, w_b = blocks[key]
        a, b, diff = data.a[key], data.b[key], data.diff[key]
        term = np.einsum("ij,ij->i", diff @ w_m, diff)
        term += np.einsum("ij,ij->i", a @ (w_b + w_b.T), b)
        s += gamma * term if key[1] == GLOBAL_SCOPE else term
    return s


def _gradient(
    data: _PairData, blocks: Blocks, coef: np.ndarray, gamma: float, lam: float
) -> Blocks:
    """Block gradients of the penalized loss, given the per-pair loss slopes
    ``coef``. Both are symmetric by construction, so symmetric weights stay
    symmetric under gradient steps."""
    grads: Blocks = {}
    for key in data.keys:
        w_m, w_b = blocks[key]
        c = (gamma * coef if key[1] == GLOBAL_SCOPE else coef)[:, None]
        diff = data.diff[key]
        m = (diff * c).T @ diff
        x = (data.a[key] * c).T @ data.b[key]
        grads[key] = (0.5 * (m + m.T) + 2.0 * lam * w_m, x + x.T + 2.0 * lam * w_b)
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
    """Logistic pair loss with Frobenius penalty, plus analytic gradients."""
    margins = -data.y * (_pair_scores(data, blocks, gamma) - bias)
    coef = -data.y * _sigmoid(margins)
    loss = _loss(margins, _inner(blocks, blocks), lam)
    return loss, _gradient(data, blocks, coef, gamma, lam), float(-coef.sum())


def train_model(
    bank_a: FeatureBank,
    bank_b: FeatureBank,
    pairs: np.ndarray,
    rep: Representation,
    gamma: float = GAMMA_DEFAULT,
    config: TrainConfig = TrainConfig(),
) -> SimilarityModel:
    """Fit weight blocks by full-batch gradient descent with line search.

    ``pairs`` rows are (index_a, index_b, +1/-1); both classes must be
    present. Weights start at zero (the loss is convex in them) and stay
    symmetric because every gradient is. Line-search trials are priced by
    linearity in O(n_pairs) (see the module docstring). The model records
    the accepted steps in ``iterations`` and why training stopped in
    ``stop_reason``: ``converged``, ``max_iters``, ``line_search`` (no trial
    step met the Armijo test) or ``zero_gradient``.
    """
    keys = rep.block_keys()
    data = _PairData(bank_a, bank_b, pairs, keys)
    if not ((data.y > 0).any() and (data.y < 0).any()):
        raise DataError("training pairs must contain both classes")
    lam = config.lam
    blocks = {
        key: (
            np.zeros((data.a[key].shape[1],) * 2),
            np.zeros((data.a[key].shape[1],) * 2),
        )
        for key in keys
    }
    bias = 0.0
    z = _pair_scores(data, blocks, gamma) - bias
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
        grads = _gradient(data, blocks, coef, gamma, lam)
        w_sq, w_dot_g, g_sq = _inner(blocks, blocks), _inner(blocks, grads), _inner(grads, grads)
        grad_sq = grad_bias**2 + g_sq
        if grad_sq == 0.0:
            stop = "zero_gradient"
            break
        # z(W - tG, bias - t*grad_bias) = z - t*dz
        dz = _pair_scores(data, grads, gamma) - grad_bias
        t = step
        for _ in range(60):
            trial_margins = -data.y * (z - t * dz)
            trial_loss = _loss(trial_margins, w_sq - 2.0 * t * w_dot_g + t * t * g_sq, lam)
            if np.isfinite(trial_loss) and trial_loss <= loss - config.armijo * t * grad_sq:
                break
            t *= 0.5
        else:
            stop = "line_search"
            break
        blocks = {
            key: (w_m - t * grads[key][0], w_b - t * grads[key][1])
            for key, (w_m, w_b) in blocks.items()
        }
        bias -= t * grad_bias
        z, margins = z - t * dz, trial_margins
        prev_loss, loss = loss, trial_loss
        iterations += 1
        step = t * 2.0
        if abs(prev_loss - loss) <= config.rel_tol * max(1.0, abs(prev_loss)):
            stop = "converged"
            break
    return SimilarityModel(
        rep_id=rep.rep_id, gamma=gamma, bias=bias, blocks=blocks,
        iterations=iterations, stop_reason=stop,
    )


def pair_accuracy(
    model: SimilarityModel,
    bank_a: FeatureBank,
    bank_b: FeatureBank,
    pairs: np.ndarray,
) -> float:
    """Fraction of pairs whose score side of the bias matches the label."""
    pairs = np.asarray(pairs)
    data = _PairData(bank_a, bank_b, pairs, model.block_keys())
    z = _pair_scores(data, model.blocks, model.gamma) - model.bias
    pred = np.where(z > 0, 1, -1)
    return float(np.mean(pred == pairs[:, 2]))


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
