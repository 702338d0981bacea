"""CMC curves, post-ranking statistics and ranking CSV persistence.

Every measure here derives from one pass over a list of rankings, the
true-match rank of each probe: the CMC curve counts the ranks, and the
post-ranking statistics compare the ranks before and after post-ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import NoReturn

import numpy as np

from .datamodel import csv_reader, escape_csv, write_csv
from .errors import DataError
from .postrank import ContentSet
from .simlearn import RankingList


@dataclass(frozen=True)
class CmcCurve:
    """Cumulative match rate per rank; non-decreasing, ends at 1 for full truth."""

    rates: np.ndarray

    def top_k(self, k: int) -> float:
        return float(self.rates[k - 1])


def true_match_ranks(rankings: list[RankingList], truth: dict[int, int]) -> np.ndarray:
    """The 1-based rank of each ranking's true gallery match, in list order.

    The rankings order one gallery. The first of them whose probe has no
    truth entry, or whose order holds its true match other than once, is a
    DataError."""
    if not rankings:
        return np.zeros(0, dtype=np.int64)
    targets = np.array([truth.get(r.probe_index, -1) for r in rankings], dtype=np.int64)
    hits = np.stack([r.order for r in rankings]) == targets[:, None]
    missing = np.array([r.probe_index not in truth for r in rankings])
    faulty = missing | (np.count_nonzero(hits, axis=1) != 1)
    if faulty.any():
        first = int(np.argmax(faulty))
        p = rankings[first].probe_index
        if missing[first]:
            raise DataError(f"probe {p} has no truth entry")
        raise DataError(f"probe {p}: true match {truth[p]} not uniquely in gallery")
    return np.argmax(hits, axis=1) + 1


def cmc_curve(rankings: list[RankingList], truth: dict[int, int]) -> CmcCurve:
    """Fraction of probes whose true match appears within each rank."""
    if not rankings:
        raise DataError("no rankings to evaluate")
    counts = np.bincount(true_match_ranks(rankings, truth) - 1, minlength=len(rankings[0].order))
    return CmcCurve(rates=np.cumsum(counts) / len(rankings))


def mean_cmc(curves: list[CmcCurve]) -> CmcCurve:
    return CmcCurve(rates=np.mean([c.rates for c in curves], axis=0))


def postrank_stats(
    before: list[RankingList],
    after: list[RankingList],
    content_sets: list[ContentSet],
    truth: dict[int, int],
) -> dict[str, float]:
    """Each post-ranking outcome's percentage, by name in report order.

    ``improved + unchanged + worsened = 100`` over re-rankable probes
    (content of at least 2); ``improved_to_top1`` is relative to the
    improved ones; ``in_content`` is over all probes.
    """
    if not (len(before) == len(after) == len(content_sets)):
        raise DataError("before/after/content lists must align")
    probes = [b.probe_index for b in before]
    if not probes == [a.probe_index for a in after] == [c.probe_index for c in content_sets]:
        raise DataError("before/after/content probes are misaligned")
    rank_b, rank_a = true_match_ranks(before, truth), true_match_ranks(after, truth)
    in_content = np.array([truth[p] in c.members for p, c in zip(probes, content_sets)], bool)
    rerankable = np.array([c.m >= 2 for c in content_sets], dtype=bool)
    improved = rerankable & (rank_a < rank_b)

    def pct(hits: np.ndarray, among: np.ndarray) -> float:
        """The percentage of the probes in ``among`` that are in ``hits``."""
        num, den = int(np.count_nonzero(hits & among)), int(np.count_nonzero(among))
        return 100.0 * num / den if den else 0.0

    return {
        "in_content": pct(in_content, np.ones_like(in_content)),
        "improved": pct(improved, rerankable),
        "improved_to_top1": pct(rank_a == 1, improved),
        "unchanged": pct(rank_a == rank_b, rerankable) if rerankable.any() else 100.0,
        "worsened": pct(rank_a > rank_b, rerankable),
    }


def summarize_postrank_stats(runs: list[dict[str, float]]) -> dict[str, tuple[float, float]]:
    """Each statistic's (mean, standard deviation) across runs, in report order."""
    if not runs:
        raise DataError("no runs to summarize")
    summary = {}
    for name in runs[0]:
        samples = np.array([run[name] for run in runs])
        summary[name] = (float(samples.mean()), float(samples.std()))
    return summary


# ---------------------------------------------------------------------------
# Ranking CSV files: probe_id, rank, gallery_id, score
# ---------------------------------------------------------------------------

RANKING_HEADER = ("probe_id", "rank", "gallery_id", "score")

# load_rankings_csv tokenizes and converts this many rows at a time. It stays
# below the garbage collector's first threshold (700 allocations): a block's
# row lists then rarely outlive a young collection, which would send them to
# the older generations and their full scans. 4096 read about a quarter slower.
ROW_BLOCK = 512


def save_rankings_csv(
    rankings: list[RankingList],
    path: str | Path,
    probe_ids: list[str],
    gallery_ids: list[str],
) -> None:
    """Write rankings (best first) under their probe and gallery ids."""
    probes, galleries = escape_csv(probe_ids), escape_csv(gallery_ids)

    def chunks():
        for ranking in rankings:
            probe, scores = probes[ranking.probe_index], ranking.scores.tolist()
            yield "".join([
                f"{probe},{rank},{galleries[g]},{scores[g]:.10g}\r\n"
                for rank, g in enumerate(ranking.order.tolist(), start=1)
            ])

    write_csv(path, RANKING_HEADER, chunks())


CONTENT_HEADER = ("probe_id", "gallery_id", "threshold")
TRUTH_HEADER = ("probe_id", "gallery_id")


def save_content_csv(
    contents: list[ContentSet],
    path: str | Path,
    probe_ids: list[str],
    gallery_ids: list[str],
) -> None:
    probes, galleries = escape_csv(probe_ids), escape_csv(gallery_ids)
    write_csv(path, CONTENT_HEADER, (
        f"{probes[content.probe_index]},{galleries[g]},{content.threshold:.10g}\r\n"
        for content in contents
        for g in content.members
    ))


def load_content_csv(
    path: str | Path,
    probe_index: dict[str, int],
    gallery_index: dict[str, int],
) -> list[ContentSet]:
    """Content sets by probe index, one row per member. A member listed
    twice, or a probe listed with two thresholds, raises DataError naming
    the file and line."""
    members: dict[str, dict[int, None]] = {}  # insertion-ordered sets
    thresholds: dict[str, float] = {}
    reader = csv_reader(path, CONTENT_HEADER)
    for row in reader:
        probe, gallery, threshold = reader.row(row, 3)
        g = reader.field(gallery_index.__getitem__, gallery, "gallery id")
        t = reader.field(float, threshold, "threshold")
        if g in members.setdefault(probe, {}):
            raise DataError(f"{path}: line {reader.line_num}: probe {probe} lists {gallery} twice")
        if not np.array_equal(thresholds.setdefault(probe, t), t, equal_nan=True):
            raise DataError(f"{path}: line {reader.line_num}: probe {probe} has two thresholds")
        members[probe][g] = None
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
    probes, galleries = escape_csv(probe_ids), escape_csv(gallery_ids)
    rows = (f"{probes[p]},{galleries[truth[p]]}\r\n" for p in sorted(truth))
    write_csv(path, TRUTH_HEADER, rows)


def load_truth_csv(
    path: str | Path,
    probe_index: dict[str, int],
    gallery_index: dict[str, int],
) -> dict[int, int]:
    truth: dict[int, int] = {}
    reader = csv_reader(path, TRUTH_HEADER)
    for row in reader:
        probe, gallery = reader.row(row, 2)
        if probe in probe_index:
            if probe_index[probe] in truth:
                raise DataError(f"{path}: line {reader.line_num}: probe {probe} listed twice")
            g = reader.field(gallery_index.__getitem__, gallery, "gallery id")
            truth[probe_index[probe]] = g
    return truth


def _raise_first_fault(path, start: int) -> NoReturn:
    """Re-read the data rows from row ``start`` (0-based) one by one and raise
    at the first malformed row, bad rank or bad score, naming its line."""
    reader = csv_reader(path, RANKING_HEADER)
    for row in islice(reader, start, None):
        _, rank, _, score = reader.row(row, 4)
        reader.field(int, rank, "rank")
        reader.field(float, score, "score")
    raise AssertionError(f"{path}: no faulty row from row {start}")


def _codes(ids: tuple[str, ...], codes: dict[str, int]) -> np.ndarray:
    """The code of each id; ids not yet in ``codes`` get the next codes in turn."""
    try:
        return np.fromiter(map(codes.__getitem__, ids), np.int64, len(ids))
    except KeyError:
        for value in dict.fromkeys(ids):
            codes.setdefault(value, len(codes))
        return np.fromiter(map(codes.__getitem__, ids), np.int64, len(ids))


def load_rankings_csv(path: str | Path) -> tuple[list[RankingList], list[str], list[str]]:
    """Read a ranking CSV back; gallery indices follow sorted gallery ids.

    Rows are converted in blocks of ``ROW_BLOCK``. A probe's rows may come
    in any order and between other probes' rows; probes are numbered in
    order of first appearance. The first faulty row in the file is reported
    by its line; then the first probe, in probe order, whose ranks are not
    1..G over G distinct gallery ids.
    """
    reader = csv_reader(path, RANKING_HEADER)
    probe_codes: dict[str, int] = {}
    gallery_codes: dict[str, int] = {}
    columns: list[tuple[np.ndarray, ...]] = []
    start = 0
    for block in reader.blocks(ROW_BLOCK):
        if set(map(len, block)) != {4}:
            _raise_first_fault(path, start)
        probes, rank_texts, galleries, score_texts = zip(*block)
        try:
            ranks = list(map(int, rank_texts))
            scores = np.fromiter(map(float, score_texts), np.float64, len(block))
        except ValueError:
            _raise_first_fault(path, start)
        try:
            ranks = np.array(ranks, dtype=np.int64)
        except OverflowError:
            # no rank beyond int64 is in 1..G, nor is 0
            ranks = np.array([r if abs(r) < 2**63 else 0 for r in ranks], dtype=np.int64)
        columns.append(
            (_codes(probes, probe_codes), ranks, _codes(galleries, gallery_codes), scores)
        )
        start += len(block)
    probe_order = list(probe_codes)
    gallery_ids = sorted(gallery_codes)
    if not columns:
        return [], probe_order, gallery_ids
    probe, rank, gallery, score = (np.concatenate(c) for c in zip(*columns))
    n_probes, n_gallery = len(probe_order), len(gallery_ids)
    gallery_index = {g: i for i, g in enumerate(gallery_ids)}
    code_to_index = np.fromiter(map(gallery_index.__getitem__, gallery_codes), np.int64, n_gallery)
    gallery = code_to_index[gallery]

    # each probe's ranks, sorted, must run 1..G ...
    counts = np.bincount(probe, minlength=n_probes)
    by_rank = np.lexsort((rank, probe))
    probe_sorted = probe[by_rank]
    position = np.arange(probe.size) - np.repeat(np.cumsum(counts) - counts, counts)
    bad = counts != n_gallery
    bad[probe_sorted[rank[by_rank] != position + 1]] = True
    # ... and its gallery ids, sorted, must be all G
    full = ~bad
    order = gallery[by_rank][full[probe_sorted]].reshape(-1, n_gallery)
    bad[full] = np.any(np.sort(order, axis=1) != np.arange(n_gallery), axis=1)
    if bad.any():
        probe_id = probe_order[int(np.argmax(bad))]
        raise DataError(f"{path}: probe {probe_id} is not a full permutation")
    scores = np.empty((n_probes, n_gallery))
    scores[probe, gallery] = score
    rankings = [
        RankingList(probe_index=p, order=order[p], scores=scores[p]) for p in range(n_probes)
    ]
    return rankings, probe_order, gallery_ids
