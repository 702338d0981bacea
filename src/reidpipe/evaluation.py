"""CMC curves, post-ranking statistics and ranking CSV persistence."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import csv_reader
from .errors import DataError
from .postrank import ContentSet
from .rankagg import AggregationResult
from .simlearn import RankingList

Ranking = RankingList | AggregationResult


@dataclass(frozen=True)
class CmcCurve:
    """Cumulative match rate per rank; non-decreasing, ends at 1 for full truth."""

    rates: np.ndarray

    def top_k(self, k: int) -> float:
        return float(self.rates[k - 1])


def true_match_rank(ranking: Ranking, truth: dict[int, int]) -> int:
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


def cmc_curve(rankings: list[Ranking], truth: dict[int, int]) -> CmcCurve:
    """Fraction of probes whose true match appears within each rank."""
    if not rankings:
        raise DataError("no rankings to evaluate")
    m = np.asarray(rankings[0].order).shape[0]
    counts = np.zeros(m)
    for ranking in rankings:
        counts[true_match_rank(ranking, truth) - 1] += 1
    return CmcCurve(rates=np.cumsum(counts) / len(rankings))


def mean_cmc(curves: list[CmcCurve]) -> CmcCurve:
    return CmcCurve(rates=np.mean([c.rates for c in curves], axis=0))


@dataclass(frozen=True)
class PostrankStats:
    """Post-ranking outcome percentages, optionally with across-run deviations.

    ``pct_improved + pct_unchanged + pct_worsened = 100`` over re-rankable
    probes (content of at least 2); ``pct_improved_to_top1`` is relative to
    the improved ones; ``pct_in_content`` is over all probes.
    """

    pct_in_content: float
    pct_improved: float
    pct_improved_to_top1: float
    pct_unchanged: float
    pct_worsened: float
    std_in_content: float = 0.0
    std_improved: float = 0.0
    std_improved_to_top1: float = 0.0
    std_unchanged: float = 0.0
    std_worsened: float = 0.0


def postrank_stats(
    before: list[Ranking],
    after: list[Ranking],
    content_sets: list[ContentSet],
    truth: dict[int, int],
) -> PostrankStats:
    """Categorize per-probe rank movement caused by post-ranking."""
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

    return PostrankStats(
        pct_in_content=pct(in_content, n),
        pct_improved=pct(improved, rerankable),
        pct_improved_to_top1=pct(to_top1, improved),
        pct_unchanged=pct(unchanged, rerankable) if rerankable else 100.0,
        pct_worsened=pct(worsened, rerankable),
    )


_STAT_FIELDS = (
    ("pct_in_content", "std_in_content"),
    ("pct_improved", "std_improved"),
    ("pct_improved_to_top1", "std_improved_to_top1"),
    ("pct_unchanged", "std_unchanged"),
    ("pct_worsened", "std_worsened"),
)


def summarize_postrank_stats(runs: list[PostrankStats]) -> PostrankStats:
    """Mean and standard deviation of each percentage across runs."""
    if not runs:
        raise DataError("no runs to summarize")
    values = {}
    for mean_field, std_field in _STAT_FIELDS:
        samples = np.array([getattr(run, mean_field) for run in runs])
        values[mean_field] = float(samples.mean())
        values[std_field] = float(samples.std())
    return PostrankStats(**values)


# ---------------------------------------------------------------------------
# Ranking CSV files: probe_id, rank, gallery_id, score
# ---------------------------------------------------------------------------

RANKING_HEADER = ("probe_id", "rank", "gallery_id", "score")


def _field(convert, text: str, what: str, path, reader):
    """``convert(text)``; a bad value raises DataError naming file and line."""
    try:
        return convert(text)
    except (KeyError, ValueError):
        raise DataError(f"{path}: line {reader.line_num}: bad {what} {text!r}") from None


def _row(row: list[str], width: int, path, reader) -> list[str]:
    if len(row) != width:
        raise DataError(f"{path}: line {reader.line_num}: malformed row {row!r}")
    return row


def save_rankings_csv(
    rankings: list[Ranking],
    path: str | Path,
    probe_ids: list[str],
    gallery_ids: list[str],
) -> None:
    """Write rankings (best first) under their probe and gallery ids."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RANKING_HEADER)
        for ranking in rankings:
            probe = probe_ids[ranking.probe_index]
            for rank, g in enumerate(ranking.order, start=1):
                writer.writerow([probe, rank, gallery_ids[g], format(ranking.scores[g], ".10g")])


CONTENT_HEADER = ("probe_id", "gallery_id", "threshold")
TRUTH_HEADER = ("probe_id", "gallery_id")


def save_content_csv(
    contents: list[ContentSet],
    path: str | Path,
    probe_ids: list[str],
    gallery_ids: list[str],
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONTENT_HEADER)
        for content in contents:
            probe = probe_ids[content.probe_index]
            for g in content.members:
                writer.writerow([probe, gallery_ids[g], format(content.threshold, ".10g")])


def load_content_csv(
    path: str | Path,
    probe_index: dict[str, int],
    gallery_index: dict[str, int],
) -> list[ContentSet]:
    members: dict[str, list[int]] = {}
    thresholds: dict[str, float] = {}
    reader = csv_reader(path)
    header = next(reader, None)
    if header is None or tuple(header) != CONTENT_HEADER:
        raise DataError(f"{path}: expected header {','.join(CONTENT_HEADER)}")
    for row in reader:
        probe, gallery, threshold = _row(row, 3, path, reader)
        g = _field(gallery_index.__getitem__, gallery, "gallery id", path, reader)
        members.setdefault(probe, []).append(g)
        thresholds[probe] = _field(float, threshold, "threshold", path, reader)
    out = []
    for probe, p in sorted(probe_index.items(), key=lambda kv: kv[1]):
        out.append(
            ContentSet(
                probe_index=p,
                members=tuple(members.get(probe, ())),
                threshold=thresholds.get(probe, 0.0),
            )
        )
    return out


def save_truth_csv(
    truth: dict[int, int],
    path: str | Path,
    probe_ids: list[str],
    gallery_ids: list[str],
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for p in sorted(truth):
            writer.writerow([probe_ids[p], gallery_ids[truth[p]]])


def load_truth_csv(
    path: str | Path,
    probe_index: dict[str, int],
    gallery_index: dict[str, int],
) -> dict[int, int]:
    truth: dict[int, int] = {}
    reader = csv_reader(path)
    header = next(reader, None)
    if header is None or tuple(header) != TRUTH_HEADER:
        raise DataError(f"{path}: expected header {','.join(TRUTH_HEADER)}")
    for row in reader:
        probe, gallery = _row(row, 2, path, reader)
        if probe in probe_index:
            truth[probe_index[probe]] = _field(
                gallery_index.__getitem__, gallery, "gallery id", path, reader
            )
    return truth


def load_rankings_csv(path: str | Path) -> tuple[list[RankingList], list[str], list[str]]:
    """Read a ranking CSV back; gallery indices follow sorted gallery ids."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    probe_order: list[str] = []
    reader = csv_reader(path)
    header = next(reader, None)
    if header is None or tuple(header) != RANKING_HEADER:
        raise DataError(f"{path}: expected header {','.join(RANKING_HEADER)}")
    for row in reader:
        probe, rank, gallery, score = _row(row, 4, path, reader)
        if probe not in rows:
            rows[probe] = []
            probe_order.append(probe)
        rows[probe].append((
            _field(int, rank, "rank", path, reader),
            gallery,
            _field(float, score, "score", path, reader),
        ))
    gallery_ids = sorted({g for entries in rows.values() for _, g, _ in entries})
    gallery_index = {g: i for i, g in enumerate(gallery_ids)}
    rankings: list[RankingList] = []
    for p, probe in enumerate(probe_order):
        entries = sorted(rows[probe])
        ranks = [rank for rank, _, _ in entries]
        galleries = {g for _, g, _ in entries}
        if ranks != list(range(1, len(gallery_ids) + 1)) or len(galleries) != len(ranks):
            raise DataError(f"{path}: probe {probe} is not a full permutation")
        order = np.array([gallery_index[g] for _, g, _ in entries], dtype=np.int64)
        scores = np.empty(len(gallery_ids))
        for _, g, score in entries:
            scores[gallery_index[g]] = score
        rankings.append(RankingList(probe_index=p, order=order, scores=scores))
    return rankings, probe_order, gallery_ids
