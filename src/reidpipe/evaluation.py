"""CMC curves, post-ranking statistics and ranking CSV persistence."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import NoReturn

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

# load_rankings_csv tokenizes and converts this many rows at a time. It stays
# below the garbage collector's first threshold (700 allocations): a block's
# row lists then rarely outlive a young collection, which would send them to
# the older generations and their full scans. 4096 read about a quarter slower.
ROW_BLOCK = 512


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


def _escaped(ids: list[str]) -> list[str]:
    """Each id as ``csv.writer`` writes it inside a row, quoted where needed."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for value in ids:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        out.append(buf.getvalue()[:-3])  # less the empty field's "," and the "\r\n"
    return out


def _write_csv(path: str | Path, header: tuple[str, ...], chunks) -> None:
    """Write ``header``, then each chunk of escaped, "\\r\\n"-terminated rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(chunks)


def save_rankings_csv(
    rankings: list[Ranking],
    path: str | Path,
    probe_ids: list[str],
    gallery_ids: list[str],
) -> None:
    """Write rankings (best first) under their probe and gallery ids."""
    probes, galleries = _escaped(probe_ids), _escaped(gallery_ids)

    def chunks():
        for ranking in rankings:
            probe, scores = probes[ranking.probe_index], ranking.scores.tolist()
            yield "".join([
                f"{probe},{rank},{galleries[g]},{scores[g]:.10g}\r\n"
                for rank, g in enumerate(ranking.order.tolist(), start=1)
            ])

    _write_csv(path, RANKING_HEADER, chunks())


CONTENT_HEADER = ("probe_id", "gallery_id", "threshold")
TRUTH_HEADER = ("probe_id", "gallery_id")


def save_content_csv(
    contents: list[ContentSet],
    path: str | Path,
    probe_ids: list[str],
    gallery_ids: list[str],
) -> None:
    probes, galleries = _escaped(probe_ids), _escaped(gallery_ids)
    _write_csv(path, CONTENT_HEADER, (
        f"{probes[content.probe_index]},{galleries[g]},{content.threshold:.10g}\r\n"
        for content in contents
        for g in content.members
    ))


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
    probes, galleries = _escaped(probe_ids), _escaped(gallery_ids)
    rows = (f"{probes[p]},{galleries[truth[p]]}\r\n" for p in sorted(truth))
    _write_csv(path, TRUTH_HEADER, rows)


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


def _raise_first_fault(path, start: int) -> NoReturn:
    """Re-read the data rows from row ``start`` (0-based) one by one and raise
    at the first malformed row, bad rank or bad score, naming its line."""
    reader = csv_reader(path)
    for row in islice(reader, start + 1, None):  # + 1: the header
        _, rank, _, score = _row(row, 4, path, reader)
        _field(int, rank, "rank", path, reader)
        _field(float, score, "score", path, reader)
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
    reader = csv_reader(path)
    header = next(reader, None)
    if header is None or tuple(header) != RANKING_HEADER:
        raise DataError(f"{path}: expected header {','.join(RANKING_HEADER)}")
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
