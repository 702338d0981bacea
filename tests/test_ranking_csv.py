"""The row-block ranking CSV writer and reader against per-cell loop oracles.

The oracles write one ``csv`` row per cell and convert one row at a time:
the writers must give the same bytes, and the reader the same ids, orders
and bitwise scores, or the same error class with the same message.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reidpipe import evaluation
from reidpipe.datamodel import csv_reader
from reidpipe.errors import DataError, FormatError
from reidpipe.evaluation import (
    CONTENT_HEADER,
    RANKING_HEADER,
    ROW_BLOCK,
    TRUTH_HEADER,
    load_rankings_csv,
    save_content_csv,
    save_rankings_csv,
    save_truth_csv,
)
from reidpipe.postrank import ContentSet
from reidpipe.simlearn import RankingList

# ---------------------------------------------------------------------------
# Loop oracles: one csv call per row, one format call per cell
# ---------------------------------------------------------------------------


def _field_loop(convert, text, what, path, reader):
    try:
        return convert(text)
    except (KeyError, ValueError):
        raise DataError(f"{path}: line {reader.line_num}: bad {what} {text!r}") from None


def _row_loop(row, width, path, reader):
    if len(row) != width:
        raise DataError(f"{path}: line {reader.line_num}: malformed row {row!r}")
    return row


def save_rankings_csv_loop(rankings, path, probe_ids, gallery_ids):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RANKING_HEADER)
        for ranking in rankings:
            probe = probe_ids[ranking.probe_index]
            for rank, g in enumerate(ranking.order, start=1):
                writer.writerow([probe, rank, gallery_ids[g], format(ranking.scores[g], ".10g")])


def save_content_csv_loop(contents, path, probe_ids, gallery_ids):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONTENT_HEADER)
        for content in contents:
            probe = probe_ids[content.probe_index]
            for g in content.members:
                writer.writerow([probe, gallery_ids[g], format(content.threshold, ".10g")])


def save_truth_csv_loop(truth, path, probe_ids, gallery_ids):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for p in sorted(truth):
            writer.writerow([probe_ids[p], gallery_ids[truth[p]]])


def load_rankings_csv_loop(path):
    rows = {}
    probe_order = []
    reader = csv_reader(path)
    header = next(reader, None)
    if header is None or tuple(header) != RANKING_HEADER:
        raise DataError(f"{path}: expected header {','.join(RANKING_HEADER)}")
    for row in reader:
        probe, rank, gallery, score = _row_loop(row, 4, path, reader)
        if probe not in rows:
            rows[probe] = []
            probe_order.append(probe)
        rows[probe].append((
            _field_loop(int, rank, "rank", path, reader),
            gallery,
            _field_loop(float, score, "score", path, reader),
        ))
    gallery_ids = sorted({g for entries in rows.values() for _, g, _ in entries})
    gallery_index = {g: i for i, g in enumerate(gallery_ids)}
    rankings = []
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


def outcome(load, path):
    """What ``load(path)`` gives, comparable with ``==``: arrays as dtype and
    bytes, an exception as its class and message."""
    try:
        rankings, probes, galleries = load(path)
    except Exception as exc:  # noqa: BLE001 -- the class itself is compared
        return type(exc), str(exc)
    return probes, galleries, [
        (r.probe_index, r.order.dtype, r.order.tobytes(), r.scores.dtype, r.scores.tobytes())
        for r in rankings
    ]


def assert_reads_like_oracle(path, block=ROW_BLOCK):
    with mock.patch.object(evaluation, "ROW_BLOCK", block):
        got = outcome(load_rankings_csv, path)
    assert got == outcome(load_rankings_csv_loop, path)
    return got


# ---------------------------------------------------------------------------
# Writers: the same bytes as the oracles
# ---------------------------------------------------------------------------

TRICKY_IDS = [",", '"', "a\"b", "\r", "\n", "a\r\nb", " lead", "", "é中", "x y", "'"]
ids = st.one_of(
    st.sampled_from(TRICKY_IDS),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
SPECIAL_SCORES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                  float("inf"), float("nan"), 1 / 3, 123456789.123456789]
score_values = st.one_of(st.sampled_from(SPECIAL_SCORES), st.floats())


@st.composite
def ranking_sets(draw):
    """(rankings, probe_ids, gallery_ids) as ``rank`` and ``aggregate`` write them."""
    n_gallery = draw(st.integers(1, 6))
    probe_ids = draw(st.lists(ids, min_size=1, max_size=4))
    gallery_ids = draw(st.lists(ids, min_size=n_gallery, max_size=n_gallery))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    values = score_values if dtype is np.float64 else st.floats(width=32)
    rankings = []
    for p in draw(st.permutations(range(len(probe_ids)))):
        scores = np.array(draw(st.lists(values, min_size=n_gallery, max_size=n_gallery)), dtype)
        order = np.array(draw(st.permutations(range(n_gallery))), dtype=np.int64)
        rankings.append(RankingList(probe_index=p, order=order, scores=scores))
    return rankings, probe_ids, gallery_ids


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=ranking_sets())
def test_rankings_writer_bytes_equal_oracle(tmp_path_factory, case):
    rankings, probe_ids, gallery_ids = case
    root = tmp_path_factory.mktemp("write")
    save_rankings_csv(rankings, root / "new.csv", probe_ids, gallery_ids)
    save_rankings_csv_loop(rankings, root / "loop.csv", probe_ids, gallery_ids)
    assert (root / "new.csv").read_bytes() == (root / "loop.csv").read_bytes()


def test_rankings_writer_special_scores_equal_oracle(tmp_path):
    scores = np.array(SPECIAL_SCORES)
    scores32 = np.array([-0.0, 1e-45, 3.4e38, 1 / 3, np.inf, np.nan, 0, 1, 2, 3], np.float32)
    order = np.arange(scores.size)
    rankings = [RankingList(0, order, scores), RankingList(1, order[::-1], scores32)]
    probe_ids, gallery_ids = ["p,0", 'p"1'], [f"g{i}" for i in range(scores.size)]
    save_rankings_csv(rankings, tmp_path / "new.csv", probe_ids, gallery_ids)
    save_rankings_csv_loop(rankings, tmp_path / "loop.csv", probe_ids, gallery_ids)
    lines = (tmp_path / "new.csv").read_bytes().split(b"\r\n")
    assert b"\r\n".join(lines) == (tmp_path / "loop.csv").read_bytes()
    assert lines[1:4] == [b'"p,0",1,g0,-0', b'"p,0",2,g1,0', b'"p,0",3,g2,4.940656458e-324']
    assert lines[5] == b'"p,0",5,g4,1e+308'
    assert lines[-3:] == [b'"p""1",9,g1,1.401298464e-45', b'"p""1",10,g0,-0', b""]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    probe_ids=st.lists(ids, min_size=1, max_size=4),
    gallery_ids=st.lists(ids, min_size=1, max_size=4),
    data=st.data(),
)
def test_content_and_truth_writers_bytes_equal_oracle(
    tmp_path_factory, probe_ids, gallery_ids, data
):
    members = st.lists(st.integers(0, len(gallery_ids) - 1), max_size=3).map(tuple)
    contents = [
        ContentSet(p, data.draw(members), data.draw(score_values)) for p in range(len(probe_ids))
    ]
    truth = {
        p: data.draw(st.integers(0, len(gallery_ids) - 1))
        for p in data.draw(st.permutations(range(len(probe_ids))))
    }
    root = tmp_path_factory.mktemp("write")
    for save, save_loop, value in (
        (save_content_csv, save_content_csv_loop, contents),
        (save_truth_csv, save_truth_csv_loop, truth),
    ):
        save(value, root / "new.csv", probe_ids, gallery_ids)
        save_loop(value, root / "loop.csv", probe_ids, gallery_ids)
        assert (root / "new.csv").read_bytes() == (root / "loop.csv").read_bytes()


# ---------------------------------------------------------------------------
# Reader: the oracle's result or the oracle's error
# ---------------------------------------------------------------------------

BAD_RANKS = ["x", "", "1.0", "0", "-1", " 2 ", "+1", "1_0", "99999999999999999999999",
             "-99999999999999999999999", "٣"]
BAD_SCORES = ["abc", "", "nan", "-inf", "1e999", " 0.5 ", "1_0.5", "0x1p-3"]


def _csv_text(rows, terminator):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=terminator).writerows(rows)
    return buf.getvalue()


@st.composite
def ranking_files(draw):
    """A ranking CSV's text: valid rows in any order, then zero to two faults."""
    n_probes, n_gallery = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    probe_ids = draw(st.lists(ids, min_size=n_probes, max_size=n_probes, unique=True))
    gallery_ids = draw(st.lists(ids, min_size=n_gallery, max_size=n_gallery, unique=True))
    rows = []
    for probe in probe_ids:
        for rank, g in enumerate(draw(st.permutations(gallery_ids)), start=1):
            rows.append([probe, str(rank), g, format(draw(score_values), ".10g")])
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        fault = draw(st.sampled_from(
            ["rank", "score", "short", "long", "empty", "drop", "repeat", "gallery"]
        ))
        if len(row) != 4 and fault in ("rank", "score", "gallery"):
            continue  # the row already lost its fields to an earlier fault
        if fault == "rank":
            row[1] = draw(st.sampled_from(BAD_RANKS))
        elif fault == "score":
            row[3] = draw(st.sampled_from(BAD_SCORES))
        elif fault == "short":
            row = row[: draw(st.integers(1, 3))]
        elif fault == "long":
            row.append(draw(ids))
        elif fault == "empty":
            row = []
        elif fault == "drop":
            del rows[i]
            continue
        elif fault == "repeat":
            rows.insert(i, row)
            continue
        else:
            row[2] = draw(st.sampled_from(gallery_ids + [""]))
        rows[i] = row
    return _csv_text([list(RANKING_HEADER), *rows], draw(st.sampled_from(["\r\n", "\n"])))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=ranking_files(), block=st.sampled_from([1, 2, 3, 7, ROW_BLOCK]))
def test_rankings_reader_equals_oracle(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("read") / "r.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_oracle(path, block)


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


HEADER = "probe_id,rank,gallery_id,score\n"


def test_reader_header_only_file(tmp_path):
    assert assert_reads_like_oracle(_write(tmp_path / "r.csv", HEADER)) == ([], [], [])


def test_reader_lf_only_interleaved_probes(tmp_path):
    text = HEADER + "q,2,b,0.5\np,1,b,2\nq,1,a,1\np,2,a,-0\n"
    probes, galleries, rankings = assert_reads_like_oracle(_write(tmp_path / "r.csv", text))
    assert probes == ["q", "p"] and galleries == ["a", "b"]
    loaded, _, _ = load_rankings_csv(tmp_path / "r.csv")
    assert [r.order.tolist() for r in loaded] == [[0, 1], [1, 0]]
    assert [r.scores.tolist() for r in loaded] == [[1.0, 0.5], [-0.0, 2.0]]


def _many_rows(n_probes, n_gallery):
    return [
        [f"p{p}", str(rank), f"g{(p + rank) % n_gallery:03d}", format(p - rank / 7, ".10g")]
        for p in range(n_probes)
        for rank in range(1, n_gallery + 1)
    ]


def test_reader_more_rows_than_one_block(tmp_path):
    rows = _many_rows(70, 70)
    assert len(rows) > ROW_BLOCK
    path = _write(tmp_path / "r.csv", _csv_text([list(RANKING_HEADER), *rows], "\r\n"))
    probes, galleries, rankings = assert_reads_like_oracle(path)
    assert len(probes) == 70 and len(galleries) == 70
    # a fault past the first block is named by its physical line
    rows[ROW_BLOCK + 10][3] = "bad"
    path = _write(tmp_path / "r.csv", _csv_text([list(RANKING_HEADER), *rows], "\r\n"))
    with pytest.raises(DataError, match=f"line {ROW_BLOCK + 12}: bad score 'bad'"):
        load_rankings_csv(path)
    assert_reads_like_oracle(path)


def test_reader_rank_beyond_int64_is_a_permutation_fault(tmp_path):
    text = HEADER + "p,1,a,0\np,2,b,0\nq,99999999999999999999999,a,0\nq,2,b,0\n"
    path = _write(tmp_path / "r.csv", text)
    with pytest.raises(DataError, match="r.csv: probe q is not a full permutation"):
        load_rankings_csv(path)
    assert_reads_like_oracle(path)


def test_reader_bad_rank_before_short_row(tmp_path):
    path = _write(tmp_path / "r.csv", HEADER + "p,1,a,0\np,x,b,0\np,3\n")
    with pytest.raises(DataError, match="line 3: bad rank 'x'"):
        load_rankings_csv(path)
    assert_reads_like_oracle(path)


def test_reader_counts_lines_inside_quoted_ids(tmp_path):
    path = _write(tmp_path / "r.csv", HEADER + '"p\n1",1,"a\r\nb",0\n"p\n1",2,c,oops\n')
    with pytest.raises(DataError, match=r"line 6: bad score 'oops'"):
        load_rankings_csv(path)
    assert_reads_like_oracle(path)


def test_reader_first_bad_probe_in_probe_order(tmp_path):
    # q (second probe) repeats a gallery id; r (third) has a gap in its ranks
    text = HEADER + "p,1,a,0\nr,1,a,0\nq,1,a,0\nq,2,a,0\np,2,b,0\nr,3,b,0\n"
    path = _write(tmp_path / "r.csv", text)
    with pytest.raises(DataError, match="probe r is not a full permutation"):
        load_rankings_csv(path)
    assert_reads_like_oracle(path)


@pytest.mark.parametrize("block", [1, ROW_BLOCK])
def test_reader_reports_a_faulty_row_before_a_tokenizer_error(tmp_path, block):
    # the csv module rejects a field over its size limit only when it gets there
    too_long = "b" * (csv.field_size_limit() + 1)
    path = _write(tmp_path / "r.csv", HEADER + f"p,x,a,0\np,2,{too_long},0\n")
    with pytest.raises(DataError, match="line 2: bad rank 'x'"):
        load_rankings_csv(path)
    assert_reads_like_oracle(path, block)
    path = _write(tmp_path / "r.csv", HEADER + f"p,1,a,0\np,2,{too_long},0\n")
    with pytest.raises(FormatError, match="line 3: field larger than field limit"):
        load_rankings_csv(path)
    assert_reads_like_oracle(path, block)
