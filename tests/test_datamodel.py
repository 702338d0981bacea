import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reidpipe.datamodel import (
    FeatureMatrix,
    ImageRecord,
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
    save_feature_matrix(FeatureMatrix(values=values, descriptor_name="m"), path)
    loaded = load_feature_matrix(path)
    assert loaded.rows == 2 and loaded.cols == 3
    np.testing.assert_array_equal(loaded.values, values)


def test_feat_zero_rows_valid(tmp_path):
    path = tmp_path / "empty.feat"
    save_feature_matrix(np.zeros((0, 5), dtype=np.float32), path)
    loaded = load_feature_matrix(path)
    assert loaded.rows == 0 and loaded.cols == 5


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
    np.testing.assert_array_equal(loaded.values, values)


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
    with pytest.raises(FormatError, match=r"ids.csv:4: bad person_id 'x'"):
        load_identities(path)


def test_identities_over_long_field_is_format_error(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(f"image_id,person_id,camera\nimg1,1,A\n{'i' * 140_000},2,B\n")
    with pytest.raises(FormatError, match=r"ids.csv: line 3: field larger than field limit"):
        load_identities(path)


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
    with pytest.raises(FormatError, match=r"ids.csv:2: bad person_id 'person_id'"):
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
    assert all(split.view_a[pid].startswith("a") for pid in range(6))
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
