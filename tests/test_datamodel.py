import csv
import signal
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import dense_block, load_pnm
from reidpipe import datamodel
from reidpipe.datamodel import (
    BlockRows,
    ImageRecord,
    SparseBlock,
    column_chunks,
    csv_reader,
    held_block,
    load_feature_matrix,
    load_identities,
    load_image,
    load_mask,
    make_split,
    save_feature_matrix,
    save_identities,
    save_pgm,
    save_ppm,
)
from reidpipe.errors import DataError, FormatError
from reidpipe.simlearn import load_model


# ---------------------------------------------------------------------------
# FEAT files
# ---------------------------------------------------------------------------

def test_feat_round_trip_known_values(tmp_path):
    path = tmp_path / "m.feat"
    values = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32)
    save_feature_matrix(values, path)
    loaded = load_feature_matrix(path)
    assert loaded.shape == (2, 3) and loaded.dtype == np.float32
    np.testing.assert_array_equal(loaded, values)


def test_feat_zero_rows_valid(tmp_path):
    path = tmp_path / "empty.feat"
    save_feature_matrix(np.zeros((0, 5), dtype=np.float32), path)
    loaded = load_feature_matrix(path)
    assert loaded.shape == (0, 5)


def test_feat_truncated_payload(tmp_path):
    path = tmp_path / "bad.feat"
    save_feature_matrix(np.ones((2, 3), dtype=np.float32), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(FormatError):
        load_feature_matrix(path)


def test_feat_bad_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FormatError):
        load_feature_matrix(path)


def test_feat_truncated_header(tmp_path):
    path = tmp_path / "short.feat"
    path.write_bytes(b"FEAT\x01\x00")
    with pytest.raises(FormatError):
        load_feature_matrix(path)


def test_feat_nan_payload(tmp_path):
    path = tmp_path / "nan.feat"
    save_feature_matrix(np.ones((1, 2), dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    raw[16:20] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_feature_matrix(path)


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        dtype=np.float32,
        shape=st.tuples(st.integers(0, 7), st.integers(1, 9)),
        elements=st.floats(-65504.0, 65504.0, width=32),
    )
)
def test_feat_round_trip_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("feat") / "x.feat"
    save_feature_matrix(values, path)
    loaded = load_feature_matrix(path)
    np.testing.assert_array_equal(loaded, values)


def traced_peak(call):
    """``call()``'s result and the peak bytes tracemalloc saw while it ran."""
    import tracemalloc

    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_feat_load_holds_one_copy_beside_the_file_bytes(tmp_path):
    path = tmp_path / "wide.feat"
    values = np.random.default_rng(0).standard_normal((40, 100_000)).astype(np.float32)
    save_feature_matrix(values, path)
    loaded, peak = traced_peak(lambda: load_feature_matrix(path))
    np.testing.assert_array_equal(loaded, values)
    assert loaded.flags.writeable
    # the file's bytes and the array; a third copy of the 16 MB payload is more
    assert peak <= 2 * values.nbytes + (1 << 20), f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# Identities CSV
# ---------------------------------------------------------------------------

def test_identities_basic(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("img1,7,A\nimg2,7,B\n")
    records = load_identities(path)
    assert [r.image_id for r in records] == ["img1", "img2"]
    assert {r.person_id for r in records} == {7}
    assert [r.camera for r in records] == ["A", "B"]


def test_identities_header_skipped(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("image_id,person_id,camera\nimg1,7,A\n")
    assert len(load_identities(path)) == 1


def test_identities_unknown_camera(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("img1,7,C\n")
    with pytest.raises(FormatError):
        load_identities(path)


def test_identities_errors_name_the_physical_line(tmp_path):
    # the quoted id spans lines 2-3, so the bad person_id is on line 4
    path = tmp_path / "ids.csv"
    path.write_text('image_id,person_id,camera\n"a\nb",1,A\nimg2,x,B\n')
    with pytest.raises(FormatError, match=r"ids.csv: line 4: bad person_id 'x'"):
        load_identities(path)


def test_identities_over_long_field_is_format_error(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(f"image_id,person_id,camera\nimg1,1,A\n{'i' * 140_000},2,B\n")
    with pytest.raises(FormatError, match=r"ids.csv: line 3: field larger than field limit"):
        load_identities(path)


def test_csv_reader_makes_no_wide_copy_of_the_text(tmp_path):
    path = tmp_path / "rows.csv"
    rows = (b"probe%d,%d,gallery%d,0.%09d\r\n" % (i, i % 600, i, i) for i in range(60_000))
    path.write_bytes(b"".join(rows))
    size = path.stat().st_size

    def count_rows():
        return sum(len(block) for block in csv_reader(path).blocks(1000))

    rows, peak = traced_peak(count_rows)
    assert rows == 60_000
    # the bytes and one decode of them; the text at 4 bytes per character is more
    assert peak <= 2 * size + (1 << 20), f"peak {peak / 2**20:.1f} MB, file {size / 2**20:.1f} MB"


@pytest.mark.parametrize(
    "load", [load_feature_matrix, load_identities, load_image, load_mask, load_model]
)
def test_unreadable_input_is_data_error(tmp_path, load):
    with pytest.raises(DataError, match=r"nope: cannot read: No such file or directory"):
        load(tmp_path / "nope")
    with pytest.raises(DataError, match=r"cannot read: Is a directory"):
        load(tmp_path)


def test_identities_header_only_on_the_first_row(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("\nimage_id,person_id,camera\n")
    with pytest.raises(FormatError, match=r"ids.csv: line 2: bad person_id 'person_id'"):
        load_identities(path)


def test_identities_duplicate_image(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("img1,7,A\nimg1,8,B\n")
    with pytest.raises(DataError):
        load_identities(path)


def test_identities_empty_file(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("")
    assert load_identities(path) == []


def test_identities_round_trip(tmp_path):
    records = [
        ImageRecord("a1", 1, "A"),
        ImageRecord("b1", 1, "B"),
        ImageRecord("a2", 2, "A"),
    ]
    path = tmp_path / "ids.csv"
    save_identities(records, path)
    assert load_identities(path) == records


def test_identities_writer_bytes_equal_csv_writer(tmp_path):
    ids = [",", '"', 'a"b', "\r", "\n", "a\r\nb", " lead", "trail ", "x y", "\u00e9\u4e2d", ""]
    records = [ImageRecord(image_id, i, "AB"[i % 2]) for i, image_id in enumerate(ids)]
    save_identities(records, tmp_path / "ids.csv")
    with open(tmp_path / "oracle.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("image_id", "person_id", "camera"))
        writer.writerows((rec.image_id, rec.person_id, rec.camera) for rec in records)
    assert (tmp_path / "ids.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_image_record_bad_camera():
    with pytest.raises(FormatError):
        ImageRecord("x", 1, "Q")


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def _records(n_ids, cameras=("A", "B")):
    records = []
    for pid in range(n_ids):
        for cam in cameras:
            records.append(ImageRecord(f"{cam.lower()}{pid}", pid, cam))
    return records


def test_split_sizes_viper_like():
    split = make_split(_records(632), seed=3)
    assert len(split.train_ids) == 316 and len(split.test_ids) == 316


def test_split_sizes_odd_cuhk_like():
    split = make_split(_records(971), seed=3)
    assert len(split.train_ids) == 485 and len(split.test_ids) == 486


def test_split_deterministic():
    records = _records(40)
    assert make_split(records, 11) == make_split(records, 11)


def test_split_differs_across_seeds():
    records = _records(24)
    splits = {tuple(sorted(make_split(records, s).train_ids)) for s in range(10)}
    assert len(splits) > 1


def test_split_partitions_identities_many_seeds():
    records = _records(21)
    all_ids = set(range(21))
    for seed in range(1000):
        split = make_split(records, seed)
        assert split.train_ids | split.test_ids == all_ids
        assert not (split.train_ids & split.test_ids)


def test_split_requires_two_identities():
    with pytest.raises(DataError):
        make_split(_records(1), seed=0)


def test_split_multishot_view_sampling():
    records = []
    for pid in range(6):
        for k in range(3):
            records.append(ImageRecord(f"a{pid}_{k}", pid, "A"))
            records.append(ImageRecord(f"b{pid}_{k}", pid, "B"))
    split = make_split(records, seed=5)
    assert set(split.view_a) == set(range(6))
    assert all(records[split.view_a[pid]].image_id.startswith(f"a{pid}_") for pid in range(6))
    assert make_split(records, seed=5).view_a == split.view_a


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------

def test_mask_all_white(tmp_path):
    path = tmp_path / "m.pgm"
    save_pgm(np.full((128, 48), 255, dtype=np.uint8), path)
    mask = load_mask(path)
    assert mask.weights.shape == (128, 48)
    np.testing.assert_array_equal(mask.weights, 1.0)


def test_mask_all_black(tmp_path):
    path = tmp_path / "m.pgm"
    save_pgm(np.zeros((128, 48), dtype=np.uint8), path)
    np.testing.assert_array_equal(load_mask(path).weights, 0.0)


def test_mask_checkerboard_mean_half(tmp_path):
    board = np.indices((128, 48)).sum(axis=0) % 2 * 255
    path = tmp_path / "m.pgm"
    save_pgm(board.astype(np.uint8), path)
    assert load_mask(path).weights.mean() == 0.5


def test_mask_resized(tmp_path):
    path = tmp_path / "m.pgm"
    save_pgm(np.full((64, 24), 255, dtype=np.uint8), path)
    mask = load_mask(path)
    assert mask.weights.shape == (128, 48)
    np.testing.assert_array_equal(mask.weights, 1.0)


def test_mask_rejects_ppm(tmp_path):
    path = tmp_path / "m.pgm"
    save_ppm(np.zeros((4, 4, 3), dtype=np.uint8), path)
    with pytest.raises(FormatError):
        load_mask(path)


def test_ppm_round_trip_with_comment(tmp_path):
    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "img.ppm"
    save_ppm(img, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:2] + b"\n# a comment\n" + raw[2:])
    loaded = load_image(path)
    np.testing.assert_allclose(loaded, img / 255.0)


def test_pgm_truncated(tmp_path):
    path = tmp_path / "m.pgm"
    save_pgm(np.zeros((8, 8), dtype=np.uint8), path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError):
        load_mask(path)


@pytest.mark.parametrize("header", [b"P5\n0 0\n255\n", b"P5\n0 4\n255\n", b"P5\n4 0\n255\n"])
def test_pgm_zero_size_is_format_error(tmp_path, header):
    path = tmp_path / "m.pgm"
    path.write_bytes(header)
    with pytest.raises(FormatError):
        load_mask(path)


def test_ppm_zero_size_is_format_error(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n0 128\n255\n")
    with pytest.raises(FormatError):
        load_image(path)


PNM_GAPS = [b" ", b"\t", b"\r", b"\n", b"\r\n", b"\x0b", b"\x0c"]


@st.composite
def pnm_files(draw):
    """``(magic, channels, raw)``: a binary PGM or PPM file whose header
    mixes whitespace, ``#`` comments and digit runs, in one case of four
    with up to two of its parts replaced by junk bytes or dropped, and
    whose payload is often long enough."""
    magic, channels = draw(st.sampled_from([(b"P5", 1), (b"P6", 3)]))
    whitespace = st.sampled_from(PNM_GAPS)
    line_end = st.sampled_from([b"\n", b"\r", b"\r\n", b""])
    comment = st.builds(b"#%s%s".__mod__, st.tuples(st.binary(max_size=4), line_end))
    gap = st.lists(whitespace | comment, min_size=1, max_size=3).map(b"".join)
    number = st.sampled_from([b"1", b"2", b"3", b"4", b"02", b"0", b"256"])
    maxval = st.sampled_from([b"255", b"255", b"0255", b"254", b"2"])
    parts = [magic, *(draw(s) for s in (gap, number, gap, number, gap, maxval, whitespace))]
    if draw(st.sampled_from([False, False, False, True])):
        for at in draw(st.lists(st.integers(1, len(parts) - 1), min_size=1, max_size=2)):
            parts[at] = draw(st.binary(max_size=2))
    size = draw(st.sampled_from([64, 64, 64, 0]) | st.integers(0, 64))
    return magic, channels, b"".join(parts) + bytes(range(size))


def _pnm_outcome(load, path, magic, channels):
    try:
        pixels = load(path, magic, channels)
    except FormatError:
        return FormatError
    return pixels.shape, pixels.tobytes()


@settings(max_examples=500, deadline=None)
@given(case=pnm_files())
@example(case=(b"P6", 3, b"P62 1 255\n" + bytes(6)))
@example(case=(b"P5", 1, b"P5#c\r2#\n1\t255 ab"))
def test_pnm_header_reads_like_the_old_tokenizer(tmp_path_factory, case):
    magic, channels, raw = case
    path = tmp_path_factory.mktemp("pnm") / "f.pnm"
    path.write_bytes(raw)
    got = _pnm_outcome(datamodel._load_pnm, path, magic, channels)
    if raw[2:3].isdigit():  # no whitespace after the magic: the old reader took it
        assert got is FormatError
    else:
        assert got == _pnm_outcome(load_pnm, path, magic, channels)


@pytest.mark.parametrize("filler", [b"#", b" "])
def test_pnm_long_header_is_rejected_in_linear_time(tmp_path, filler):
    # a pattern that could split a run of "#" into comments in many ways
    # would take exponential time: the alarm ends such a match
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5" + filler * 100_000)

    def timeout(signum, frame):
        raise TimeoutError("header still being parsed after 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        with pytest.raises(FormatError, match="m.pgm: bad header"):
            load_mask(path)
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0


def test_feat_trailing_bytes(tmp_path):
    path = tmp_path / "long.feat"
    save_feature_matrix(np.ones((2, 3), dtype=np.float32), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(FormatError):
        load_feature_matrix(path)


def test_feat_huge_header_dimensions(tmp_path):
    path = tmp_path / "huge.feat"
    path.write_bytes(b"FEAT" + struct.pack("<III", 1, 0xFFFFFFFF, 0xFFFFFFFF) + b"\x00" * 8)
    with pytest.raises(FormatError, match="truncated"):
        load_feature_matrix(path)


def wide_sparse_block(gen, n: int, d: int, share: float) -> SparseBlock:
    """A compressed (n, d) block with about ``share`` of its entries kept,
    collected row by row: no (n, d) array is made."""
    rows = BlockRows(d)
    for _ in range(n):
        row = np.zeros(d, np.float32)
        kept = gen.random(d) < share
        row[kept] = gen.standard_normal(np.count_nonzero(kept))
        rows.add(row)
    return rows.compressed()


@pytest.mark.parametrize("layout", [np.float32, np.float64, SparseBlock])
def test_feat_write_holds_one_slab_and_no_payload_copy(tmp_path, layout):
    # rows as wide as a VIPeR C3 global block, 6% of their entries kept: a
    # dense copy of the 25 MB payload, or a bytes copy of it, is more
    block = wide_sparse_block(np.random.default_rng(21), 64, 97_845, 0.06)
    values = block if layout is SparseBlock else block.dense().astype(layout)
    path, reference = tmp_path / "w.feat", tmp_path / "reference.feat"
    _, peak = traced_peak(lambda: save_feature_matrix(values, path))
    bound = datamodel._SLAB_BYTES + (1 << 20)
    assert peak <= bound, f"peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"
    save_feature_matrix(block.dense(), reference)
    assert path.read_bytes() == reference.read_bytes()
    assert reference.stat().st_size == 16 + 4 * 64 * 97_845


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feat_write_refuses_non_finite_values_before_opening_the_file(tmp_path, compressed, bad):
    values = np.zeros((600, 700), np.float32)  # several slabs
    values[::7, ::5] = 1.0
    values[590, 3] = bad  # in the last slab
    block = SparseBlock.from_dense(values) if compressed else values
    path = tmp_path / "bad.feat"
    path.write_bytes(b"kept")
    with pytest.raises(DataError, match="non-finite"):
        save_feature_matrix(block, path)
    assert path.read_bytes() == b"kept"


# ---------------------------------------------------------------------------
# Raw descriptor blocks: dense or compressed, whichever takes fewer bytes
# ---------------------------------------------------------------------------

def collected(values: np.ndarray):
    rows = BlockRows(values.shape[1])
    for row in values:
        rows.add(row.astype(np.float64))  # descriptors arrive as float64
    return rows.block()


# 4 rows of 10 columns: dense, 160 bytes; compressed, 8 bytes per kept entry
# and 8 per row start (5 of them). 14 entries take 152 bytes, 15 take 160,
# and a tie stays dense.
@pytest.mark.parametrize("kept,compressed", [(0, True), (14, True), (15, False), (40, False)])
def test_block_layout_is_the_one_of_fewer_bytes(kept, compressed):
    values = np.zeros((4, 10), np.float32)
    values.flat[np.random.default_rng(kept).permutation(40)[:kept]] = np.arange(1, kept + 1)
    values[values == 1] = -0.0  # a kept entry, though it compares equal to 0
    for block in (held_block(values.copy()), collected(values)):
        assert isinstance(block, SparseBlock) is compressed
        assert block.shape == (4, 10) and len(block) == 4 and block.ndim == 2
        assert block.dtype == np.float32
        assert dense_block(block).tobytes() == values.tobytes()
        if compressed:
            assert block.nbytes == 8 * kept + 40 < values.nbytes


def test_collected_and_converted_blocks_hold_the_same_arrays():
    gen = np.random.default_rng(1)
    values = gen.standard_normal((30, 200)).astype(np.float32)
    values[gen.random(values.shape) < 0.8] = 0.0
    values[:, 7] = 0.0
    values[4] = 0.0
    values[gen.integers(0, 30, 9), gen.integers(0, 200, 9)] = -0.0
    converted, built = SparseBlock.from_dense(values), collected(values)
    assert isinstance(built, SparseBlock)
    for name in ("starts", "columns", "values"):
        np.testing.assert_array_equal(getattr(built, name), getattr(converted, name))
        assert getattr(built, name).dtype == getattr(converted, name).dtype
    assert converted.columns.dtype == np.int32 and converted.values.dtype == np.float32
    np.testing.assert_array_equal(np.diff(converted.starts)[4], 0)
    # -0.0 entries are kept, so the dense form has the same bytes
    assert np.count_nonzero(np.signbit(converted.values)) == np.count_nonzero(np.signbit(values))
    assert converted.dense().tobytes() == values.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_block_rows_hold_the_kept_entries_once(seed):
    # 300 float64 rows with all-zero rows, fully dense rows, -0.0 entries and
    # random sparsity: the buffers grow many times
    import tracemalloc

    gen = np.random.default_rng(seed)
    n, width = 300, 500
    rows = gen.standard_normal((n, width))
    rows[gen.random(rows.shape) > 0.6 * gen.random((n, 1))] = 0.0
    rows[::17] = 0.0
    rows[5::23] = gen.standard_normal((len(range(5, n, 23)), width))
    rows[gen.integers(0, n, 60), gen.integers(0, width, 60)] = -0.0
    # the reference, from the nonzero bits of the float32 values
    values = rows.astype(np.float32)
    kept_rows, kept_columns = np.nonzero(values.view(np.int32))
    starts = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(kept_rows, minlength=n), out=starts[1:])
    nnz = len(kept_rows)

    collector = BlockRows(width)
    tracemalloc.start()
    try:
        for row in rows:
            collector.add(row)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = collector.block()

    assert isinstance(block, SparseBlock)
    assert block.starts.tobytes() == starts.tobytes()
    assert block.columns.tobytes() == kept_columns.astype(np.int32).tobytes()
    assert block.values.tobytes() == values[kept_rows, kept_columns].tobytes()
    assert len(block.columns) == len(block.values) == nnz
    assert block.columns.flags.owndata and block.values.flags.owndata  # trimmed, not views
    assert block.nbytes == 8 * nnz + 8 * (n + 1) < 4 * n * width
    # the growing buffers and the counts take at most the growth rate over
    # the held bytes, and one row's conversion besides
    assert peak <= block.nbytes * datamodel._GROWTH + rows[0].nbytes
    assert collector.compressed().shape == (0, width)  # the collector started over


@pytest.mark.parametrize(
    "get_hook, set_hook", [(sys.getprofile, sys.setprofile), (sys.gettrace, sys.settrace)],
    ids=["profile", "trace"],
)
def test_block_rows_collect_the_same_bytes_under_a_profile_or_trace_hook(get_hook, set_hook):
    # cProfile and coverage tools install such hooks; the buffers still grow
    # and are trimmed in place
    gen = np.random.default_rng(5)
    values = gen.standard_normal((40, 3000)).astype(np.float32)
    values[gen.random(values.shape) < 0.5] = 0.0

    def collect():
        rows = BlockRows(values.shape[1])
        for row in values:
            rows.add(row)
        block = rows.compressed()
        return [getattr(block, name).tobytes() for name in ("starts", "columns", "values")]

    want = collect()
    previous = get_hook()
    set_hook(lambda frame, event, arg: None)
    try:
        got = collect()
    finally:
        set_hook(previous)
    assert got == want


@pytest.mark.parametrize("sliced", [False, True])  # each row's entries gathered as one slice
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("rows", [None, [5, 0, 5, 29, 3, 5], [-1, 2]])
@pytest.mark.parametrize("width", [1, 7, 64, 200, 500])
def test_column_chunks_of_either_layout_are_the_picked_rows(monkeypatch, sliced, dense, rows, width):
    monkeypatch.setattr(datamodel, "_SLICED_ROW_ENTRIES", 0 if sliced else 10**9)
    gen = np.random.default_rng(width)
    values = gen.standard_normal((30, 200)).astype(np.float32)
    values[gen.random(values.shape) < 0.7] = 0.0
    values[gen.integers(0, 30, 9), gen.integers(0, 200, 9)] = -0.0
    block = values if dense else SparseBlock.from_dense(values)
    picked = values if rows is None else values[rows]
    edges, first = [], None
    for columns, chunk in column_chunks(block, rows, width):
        first = chunk if first is None else first
        assert np.shares_memory(chunk, first)  # one reused buffer
        assert chunk.dtype == np.float64
        assert chunk.tobytes() == picked[:, columns].astype(np.float64).tobytes()
        edges.append((columns.start, columns.stop))
    assert edges == [(lo, min(lo + width, 200)) for lo in range(0, 200, width)]
