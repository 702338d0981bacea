"""Discriminant context information analysis (DCIA) post-ranking.

For each probe, the top of its ranking (content set) is selected by a
dynamic knee threshold, gallery images that co-occur in the neighbor
windows of the probe and of several correlated matches form the context
set, the shared-appearance principal subspace of probe+content+context is
removed, and a freshly trained model re-orders the content prefix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .simlearn import (
    RankingList,
    Representation,
    SimilarityModel,
    TrainConfig,
    score_gallery,
    train_model,
)

K_COMMON = 13
ENERGY = 0.35
WINDOW = 25

_DCIA_KEY = ("dcia", "G")


@dataclass(frozen=True)
class ContentSet:
    """The correlated matches: top-m prefix of a ranking under a dynamic threshold."""

    probe_index: int
    members: tuple[int, ...]
    threshold: float

    @property
    def m(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ContextSet:
    """Common neighbors of the probe window and the correlated-match windows."""

    probe_index: int
    per_match: dict[int, tuple[int, ...]]
    merged: tuple[int, ...]


@dataclass(frozen=True)
class DiscriminantBlock:
    """Eq.-style removal of the common-appearance subspace.

    ``d_p`` stacks the zero-mean probe/content/context vectors as columns,
    ``basis`` spans the leading principal subspace reaching the requested
    energy share, and ``d_p_star = d_p - basis basis^T d_p``.
    """

    d_p: np.ndarray
    basis: np.ndarray
    d_p_star: np.ndarray

    @property
    def probe_star(self) -> np.ndarray:
        return self.d_p_star[:, 0]

    def member_star(self, position: int) -> np.ndarray:
        return self.d_p_star[:, 1 + position]


def knee_point(sorted_dissimilarities: np.ndarray, window: int = WINDOW) -> tuple[int, float]:
    """Largest below-chord deviation of the dissimilarity-vs-rank curve.

    Returns (m, Th) with 1-based m. The chord joins the first and last point
    of the top-``window`` curve; the knee is the point farthest below it,
    ties to the smallest index. Degenerate curves (linear, or bending the
    other way) fall back to m=1, as do curves shorter than 3 points.
    """
    d = np.asarray(sorted_dissimilarities, dtype=np.float64)
    if d.size == 0:
        raise DataError("knee_point needs a non-empty curve")
    if np.any(np.diff(d) < 0):
        raise ContractError("dissimilarities must be ascending")
    t = min(window, d.size)
    if t < 3:
        return 1, float(d[0])
    win = d[:t]
    x = np.arange(t, dtype=np.float64)
    chord = win[0] + (win[-1] - win[0]) * x / (t - 1)
    below = chord - win
    best = int(np.argmax(below))
    # curves that are linear (or bend the other way) have no below-chord knee
    tol = 1e-12 * max(1.0, float(np.max(np.abs(win))))
    if below[best] <= tol:
        return 1, float(win[0])
    return best + 1, float(win[best])


def content_set(initial_ranking: RankingList, window: int = WINDOW) -> ContentSet:
    """Knee-limited top prefix of the ranking (the re-rankable candidates)."""
    d = initial_ranking.dissimilarities[initial_ranking.order]
    m, th = knee_point(d, window)
    members = tuple(int(g) for g in initial_ranking.order[:m])
    return ContentSet(probe_index=initial_ranking.probe_index, members=members, threshold=th)


def _member_window(g: int, gallery_scores: np.ndarray, window: int) -> tuple[int, ...]:
    """Knee-limited top set of gallery image ``g`` ranked against the rest,
    read from row ``g`` of the gallery x gallery score matrix."""
    scores = gallery_scores[g]
    order = np.argsort(-scores, kind="stable")
    order = order[order != g]
    if order.size == 0:
        return ()
    m_g, _ = knee_point(-scores[order], window)
    return tuple(int(i) for i in order[:m_g])


class NeighborWindows(dict):
    """Neighbor windows under one gallery x gallery score matrix:
    ``windows[g]`` is :func:`_member_window` of ``g``, computed on first use.
    A window depends only on ``g`` and the matrix, so one instance serves
    every probe ranked against that gallery."""

    def __init__(self, gallery_scores: np.ndarray, window: int = WINDOW):
        super().__init__()
        self.gallery_scores, self.window = gallery_scores, window

    def __missing__(self, g: int) -> tuple[int, ...]:
        found = self[g] = _member_window(g, self.gallery_scores, self.window)
        return found


def context_set(
    initial_ranking: RankingList,
    content: ContentSet,
    windows: dict[int, tuple[int, ...]],
    k: int = K_COMMON,
) -> ContextSet:
    """Common-neighbor context of each correlated match.

    A candidate from a match's window survives only if it also occurs in the
    probe's window or another match's window. Candidates are ordered by
    descending co-occurrence count; a flat count histogram (and any tie) is
    broken by higher candidate-to-probe similarity, then by index. At most
    ``k`` candidates are kept per match; the merged union excludes content
    members. ``windows`` maps each content member to its neighbor window.
    """
    probe_window = set(content.members)
    counts: Counter[int] = Counter()
    for g in content.members:
        counts.update(windows[g])
    counts.update(probe_window)

    per_match: dict[int, tuple[int, ...]] = {}
    for g in content.members:
        candidates = [c for c in windows[g] if counts[c] >= 2]
        candidates.sort(
            key=lambda c: (-counts[c], -initial_ranking.scores[c], c)
        )
        per_match[g] = tuple(candidates[:k])
    merged = sorted(set().union(*per_match.values()) - probe_window) if per_match else []
    return ContextSet(
        probe_index=content.probe_index,
        per_match=per_match,
        merged=tuple(int(c) for c in merged),
    )


def discriminant_removal(vectors: np.ndarray, energy: float = ENERGY) -> DiscriminantBlock:
    """Remove the leading principal subspace holding ``energy`` of the variance.

    ``vectors`` stacks probe, content and context feature vectors as rows
    (l x d, l >= 2). The returned block holds the column-stacked zero-mean
    matrix, the selected orthonormal basis and the projected residual.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError(f"need at least 2 vectors, got shape {x.shape}")
    centered = x - x.mean(axis=0)
    d_p = centered.T
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    sv2 = s**2
    total = float(sv2.sum())
    if total <= 0.0:
        basis = np.zeros((x.shape[1], 0))
        return DiscriminantBlock(d_p=d_p, basis=basis, d_p_star=d_p.copy())
    cum = np.cumsum(sv2)
    k = int(np.searchsorted(cum, energy * total - 1e-12) + 1)
    rank = int(np.sum(s > s[0] * 1e-12))
    k = min(k, rank)
    basis = vt[:k].T.copy()
    d_p_star = d_p - basis @ (basis.T @ d_p)
    return DiscriminantBlock(d_p=d_p, basis=basis, d_p_star=d_p_star)


@dataclass(frozen=True)
class DciaResult:
    """Everything DCIA derives from one initial ranking."""

    ranking: RankingList
    content: ContentSet
    context: ContextSet
    block: DiscriminantBlock


def apply_dcia(
    initial_ranking: RankingList,
    probe_vector: np.ndarray,
    gallery_vectors: np.ndarray,
    windows: NeighborWindows,
    *,
    energy: float = ENERGY,
    k: int = K_COMMON,
) -> DciaResult:
    """Content/context extraction plus discriminant removal for one probe.

    ``probe_vector`` and ``gallery_vectors`` are the concatenated feature
    vectors DCIA operates on; ``windows`` gives the content members' neighbor
    windows from the model's gallery x gallery score matrix, and its
    ``window`` also bounds the content set's knee.
    """
    content = content_set(initial_ranking, windows.window)
    context = context_set(initial_ranking, content, windows, k)
    stack = np.vstack(
        [probe_vector]
        + [gallery_vectors[g] for g in content.members]
        + [gallery_vectors[c] for c in context.merged]
    )
    block = discriminant_removal(stack, energy)
    return DciaResult(ranking=initial_ranking, content=content, context=context, block=block)


def train_postrank_model(
    dcia_results: list[DciaResult],
    probe_labels: np.ndarray,
    gallery_labels: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> SimilarityModel:
    """Train the re-ranking model on discriminant probe/member pairs.

    Only probes with at least two content members contribute. The model
    treats the flattened discriminant representation as a single global cue.
    """
    vec_a: list[np.ndarray] = []
    vec_b: list[np.ndarray] = []
    labels: list[int] = []
    for result in dcia_results:
        if result.content.m < 2:
            continue
        p = result.ranking.probe_index
        for pos, g in enumerate(result.content.members):
            vec_a.append(result.block.probe_star)
            vec_b.append(result.block.member_star(pos))
            labels.append(1 if probe_labels[p] == gallery_labels[g] else -1)
    if not labels:
        raise DataError("no trainable probes: every content set has fewer than 2 members")
    n = len(labels)
    pairs = np.column_stack([np.arange(n), np.arange(n), np.asarray(labels)])
    bank_a = {_DCIA_KEY: np.vstack(vec_a)}
    bank_b = {_DCIA_KEY: np.vstack(vec_b)}
    rep = Representation(rep_id="postrank", cue_scopes={_DCIA_KEY[0]: "G"}, n_regions=0)
    return train_model(bank_a, bank_b, pairs, rep, gamma=1.0, config=config)


def postrank(
    initial_ranking: RankingList,
    content: ContentSet,
    block: DiscriminantBlock,
    postrank_model: SimilarityModel,
) -> RankingList:
    """Re-order only the content prefix by the post-rank model's distances.

    Positions after m keep their initial order. The prefix re-uses the
    initial score multiset positionally so the ranking stays sorted by
    non-increasing score; prefix distance ties break by gallery index.
    """
    m = content.m
    if m <= 1:
        return initial_ranking
    members = np.asarray(content.members, dtype=np.int64)
    member_bank = {_DCIA_KEY: block.d_p_star[:, 1 : 1 + m].T}
    probe_bank = {_DCIA_KEY: block.probe_star[None, :]}
    new_scores = score_gallery(postrank_model, probe_bank, member_bank)[0]
    prefix_perm = np.lexsort((members, -new_scores))
    new_order = np.concatenate([members[prefix_perm], initial_ranking.order[m:]])
    scores = initial_ranking.scores.copy()
    scores[members[prefix_perm]] = initial_ranking.scores[initial_ranking.order[:m]]
    return RankingList(
        probe_index=initial_ranking.probe_index, order=new_order, scores=scores
    )
