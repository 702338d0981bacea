"""Order-statistics ranking aggregation and best-n list selection.

The aggregation statistic is the joint probability that ``n`` independent
uniform order statistics all fall below the observed normalized ranks;
smaller means the lists agree on placing the item early. An aggregate is a
:class:`RankingList` scored by that statistic. Best-n orders the
representations by the CMC top-1 rates of their validation lists and
scores each aggregated prefix the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .evaluation import cmc_curve
from .simlearn import RankingList

N_MAX = 12  # best-n tries list counts 2..N_MAX


def _stuart(profiles: np.ndarray) -> np.ndarray:
    """The recursion of :func:`stuart_statistic` for every row of ``profiles``.

    Each row runs the same IEEE operations in the same order as a scalar
    loop, ``acc += ((+-1 * C(k, i)) * r^i) * W_(k-i)`` for i = 1..k, so a
    row's result does not depend on the rows batched with it.
    """
    n = profiles.shape[1]
    w = [1.0]
    for k in range(1, n + 1):
        acc, rp = 0.0, 1.0
        for i in range(1, k + 1):
            rp *= profiles[:, n - k]
            acc += (-1.0) ** (i - 1) * comb(k, i) * rp * w[k - i]
        w.append(acc)
    return np.clip(w[n], 0.0, 1.0)


def stuart_statistic(r: np.ndarray) -> float:
    """P(U_(1) <= r_(1), ..., U_(n) <= r_(n)) for the n = ``r.size`` sorted
    normalized ranks.

    Computed by the recursion W_0 = 1,
    W_k = sum_{i=1..k} (-1)^(i-1) C(k, i) r_(n-k+1)^i W_(k-i),
    returning W_n clamped to [0, 1]. This is n! times the classical
    factorial-normalized recursion; the binomial form keeps the all-ones
    profile exactly 1 in floating point.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.size == 0:
        raise ContractError("rank profile is empty")
    if np.any(np.diff(r) < 0):
        raise ContractError("ranks must be sorted ascending")
    if np.any(r <= 0) or np.any(r > 1):
        raise ContractError("ranks must lie in (0, 1]")
    return float(_stuart(r.reshape(1, -1))[0])


def aggregate(lists: list[list[RankingList]]) -> list[RankingList]:
    """Combine n >= 2 full rankings of the same gallery into one order per probe.

    ``lists[j][p]`` is list ``j``'s ranking of probe ``p``. The result holds
    one ranking per probe, in probe order: its scores are the per-item
    statistic (smaller = better), its order by ascending statistic with ties
    broken by ascending index.
    """
    if len(lists) < 2:
        raise DataError(f"aggregation needs at least 2 lists, got {len(lists)}")
    counts = [len(rankings) for rankings in lists]
    if len(set(counts)) != 1:
        raise DataError(f"ranking lists cover different numbers of probes: {counts}")
    if not lists[0]:
        return []
    m = len(lists[0][0].order)
    orders = [np.asarray(ranking.order) for rankings in lists for ranking in rankings]
    if any(order.shape != (m,) for order in orders) or np.any(np.sort(orders) != np.arange(m)):
        raise DataError("ranking lists must be full permutations of one gallery")
    # the inverse permutations: each item's 0-based position in each list
    positions = np.argsort(np.reshape(orders, (len(lists), counts[0], m)))
    profiles = (positions.transpose(1, 2, 0) + 1) / m
    profiles.sort(axis=-1)
    stats = _stuart(profiles.reshape(-1, len(lists))).reshape(counts[0], m)
    order = np.argsort(stats, axis=-1, kind="stable")
    return [
        RankingList(probe_index=ranking.probe_index, order=order[p], scores=stats[p])
        for p, ranking in enumerate(lists[0])
    ]


@dataclass(frozen=True)
class BestNSelection:
    """Validation-driven ordering of representations and the chosen list count."""

    ordered_reps: tuple[str, ...]
    chosen_n: int
    top1_per_n: dict[int, float]


def best_n_select(
    validation_rankings: dict[str, list[RankingList]],
    truth: dict[int, int],
    n_max: int = N_MAX,
) -> BestNSelection:
    """Order representations by validation top-1 and pick the best prefix size.

    For each n in 2..n_max the best-n validation lists are aggregated and
    scored by top-1 rate; the smallest n attaining the maximum wins. Rate
    ties in the ordering keep the insertion order of ``validation_rankings``.
    """
    if len(validation_rankings) < 2:
        raise ConfigError(
            f"best-n needs at least 2 representations, got {len(validation_rankings)}"
        )
    top1 = {rep: cmc_curve(lists, truth).top_k(1) for rep, lists in validation_rankings.items()}
    ordered = sorted(top1, key=lambda rep: -top1[rep])
    top1_per_n = {
        n: cmc_curve(aggregate([validation_rankings[rep] for rep in ordered[:n]]), truth).top_k(1)
        for n in range(2, min(n_max, len(ordered)) + 1)
    }
    chosen_n = max(top1_per_n, key=lambda n: (top1_per_n[n], -n))
    return BestNSelection(
        ordered_reps=tuple(ordered), chosen_n=chosen_n, top1_per_n=top1_per_n
    )
