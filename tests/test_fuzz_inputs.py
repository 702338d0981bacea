"""Property tests for the input boundary: FEAT, SIMW, PGM and PPM files and
the identities, ranking, content and truth CSVs.

A valid file is cut at any length or has bytes overwritten; reading it
either succeeds or raises a ``ReidError`` subclass, never anything else.
A fuzzed SIMW model given to ``reidpipe rank`` ends with exit code 3 when
the loader rejects it; fuzzed CSVs given to ``reidpipe aggregate`` and
``reidpipe stats`` end with exit code 0 or 3.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_synthetic_dataset
from reidpipe.cli import main
from reidpipe.datamodel import (
    ImageRecord,
    load_feature_matrix,
    load_identities,
    load_image,
    load_mask,
    save_feature_matrix,
    save_identities,
    save_pgm,
    save_ppm,
)
from reidpipe.errors import DataError, FormatError, ReidError
from reidpipe.evaluation import (
    load_content_csv,
    load_rankings_csv,
    load_truth_csv,
    save_content_csv,
    save_rankings_csv,
    save_truth_csv,
)
from reidpipe.postrank import ContentSet
from reidpipe.simlearn import (
    RankingList,
    Representation,
    SimilarityModel,
    load_model,
    save_model,
)


def _valid_files(root: Path) -> dict[str, tuple[bytes, object]]:
    """One small valid file per format, with its loader."""
    rng = np.random.default_rng(7)
    save_feature_matrix(rng.standard_normal((3, 4)).astype(np.float32), root / "x.feat")
    rep = Representation("toy", {"C1": "GL"}, n_regions=1)
    blocks = {key: (rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
              for key in rep.block_keys()}
    save_model(SimilarityModel("toy", 1.1, 0.25, blocks), root / "x.simw")
    save_pgm(rng.integers(0, 256, size=(5, 6), dtype=np.uint8), root / "x.pgm")
    save_ppm(rng.integers(0, 256, size=(4, 3, 3), dtype=np.uint8), root / "x.ppm")
    loaders = {"feat": load_feature_matrix, "simw": load_model, "pgm": load_mask, "ppm": load_image}
    return {ext: ((root / f"x.{ext}").read_bytes(), load) for ext, load in loaders.items()}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return _valid_files(tmp_path_factory.mktemp("valid"))


@st.composite
def fuzzed(draw, raw: bytes) -> bytes:
    """``raw`` cut short, or with one to four bytes overwritten."""
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


def _loads(load, path: Path) -> bool:
    """True when ``load`` accepts the file; any non-ReidError propagates."""
    try:
        load(path)
    except ReidError:
        return False
    return True


@pytest.mark.parametrize("ext", ["feat", "simw", "pgm", "ppm"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_file_raises_only_reid_errors(tmp_path_factory, valid_files, ext, data):
    raw, load = valid_files[ext]
    path = tmp_path_factory.mktemp("fuzz") / f"f.{ext}"
    path.write_bytes(data.draw(fuzzed(raw)))
    _loads(load, path)


# SIMW: tests/test_simlearn.py::test_simw_every_truncation_is_data_error
@pytest.mark.parametrize("ext", ["feat", "pgm", "ppm"])
def test_every_truncation_is_rejected(tmp_path, valid_files, ext):
    raw, load = valid_files[ext]
    path = tmp_path / f"f.{ext}"
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        assert not _loads(load, path), n


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = build_synthetic_dataset(root / "d", seeds=(0,), n_ids=8, pca_dim=3)
    model_path = root / "r1.simw"
    assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model_path)]) == 0
    return config_path, model_path.read_bytes()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_rank_fuzzed_model_is_exit_3(tmp_path_factory, trained_model, data):
    config_path, raw = trained_model
    work = tmp_path_factory.mktemp("rank")
    model_path = work / "r1.simw"
    model_path.write_bytes(data.draw(fuzzed(raw)))
    rejected = not _loads(load_model, model_path)
    code = main([
        "rank", "-c", str(config_path), "--rep", "R1",
        "--model", str(model_path), "--out", str(work / "r1.csv"),
    ])
    # an accepted file may still carry blocks that do not fit R1 (exit 3)
    assert code in ((3,) if rejected else (0, 3))


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------

PROBES = ["a0", "a1", "a2"]
GALLERY = ["b0", "b1", "b2"]


def _valid_csvs(root: Path) -> dict[str, tuple[bytes, object]]:
    """One small valid file per CSV reader, with a loader taking its path."""
    rng = np.random.default_rng(11)
    save_identities(
        [ImageRecord(f"{cam.lower()}{pid}", pid, cam) for pid in range(3) for cam in "AB"],
        root / "identities.csv",
    )
    rankings = [RankingList(p, rng.permutation(3), rng.random(3)) for p in range(3)]
    save_rankings_csv(rankings, root / "rankings.csv", PROBES, GALLERY)
    contents = [ContentSet(r.probe_index, tuple(r.order[:2]), 0.5) for r in rankings]
    save_content_csv(contents, root / "content.csv", PROBES, GALLERY)
    save_truth_csv({p: p for p in range(3)}, root / "truth.csv", PROBES, GALLERY)
    probe_index = {p: i for i, p in enumerate(PROBES)}
    gallery_index = {g: i for i, g in enumerate(GALLERY)}
    loaders = {
        "identities": load_identities,
        "rankings": load_rankings_csv,
        "content": lambda path: load_content_csv(path, probe_index, gallery_index),
        "truth": lambda path: load_truth_csv(path, probe_index, gallery_index),
    }
    return {name: ((root / f"{name}.csv").read_bytes(), load) for name, load in loaders.items()}


@pytest.fixture(scope="module")
def valid_csvs(tmp_path_factory):
    return _valid_csvs(tmp_path_factory.mktemp("valid_csv"))


@pytest.mark.parametrize("name", ["identities", "rankings", "content", "truth"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_csv_raises_only_reid_errors(tmp_path_factory, valid_csvs, name, data):
    raw, load = valid_csvs[name]
    path = tmp_path_factory.mktemp("fuzz_csv") / f"{name}.csv"
    path.write_bytes(data.draw(fuzzed(raw)))
    _loads(load, path)


RANKING_HEAD = "probe_id,rank,gallery_id,score\n"
CONTENT_HEAD = "probe_id,gallery_id,threshold\n"
TRUTH_HEAD = "probe_id,gallery_id\n"


@pytest.mark.parametrize("name, text, error, message", [
    ("identities", "image_id,person_id,camera\na0,0\n", FormatError,
     "line 2: malformed row ['a0', '0']"),
    ("identities", "a0,0,A\na1,one,B\n", FormatError, "line 2: bad person_id 'one'"),
    ("rankings", RANKING_HEAD + "a0,1,b0\n", FormatError,
     "line 2: malformed row ['a0', '1', 'b0']"),
    ("rankings", RANKING_HEAD + "a0,1,b0,0.5\na0,2,b1,high\n", FormatError,
     "line 3: bad score 'high'"),
    ("rankings", CONTENT_HEAD, DataError, "expected header probe_id,rank,gallery_id,score"),
    ("content", CONTENT_HEAD + "a0,b0\n", FormatError, "line 2: malformed row ['a0', 'b0']"),
    ("content", CONTENT_HEAD + "a0,b0,0.5\na0,b9,0.5\n", FormatError,
     "line 3: bad gallery id 'b9'"),
    ("content", CONTENT_HEAD + "a0,b0,half\n", FormatError, "line 2: bad threshold 'half'"),
    ("content", "", DataError, "expected header probe_id,gallery_id,threshold"),
    ("truth", TRUTH_HEAD + "a0\n", FormatError, "line 2: malformed row ['a0']"),
    ("truth", TRUTH_HEAD + "a0,b0\na1,b9\n", FormatError, "line 3: bad gallery id 'b9'"),
    ("truth", RANKING_HEAD, DataError, "expected header probe_id,gallery_id"),
], ids=[
    "identities-short_row", "identities-bad_person_id", "rankings-short_row", "rankings-bad_score",
    "rankings-wrong_header", "content-short_row", "content-bad_gallery_id", "content-bad_threshold",
    "content-no_header", "truth-short_row", "truth-bad_gallery_id", "truth-wrong_header",
])
def test_csv_fault_names_the_file_and_line(tmp_path, valid_csvs, name, text, error, message):
    # the identities header is optional, so a wrong one is a faulty row
    path = tmp_path / f"{name}.csv"
    path.write_text(text)
    with pytest.raises(error, match=re.escape(f"{name}.csv: {message}")):
        valid_csvs[name][1](path)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_aggregate_and_stats_fuzzed_csv_exit_0_or_3(tmp_path_factory, valid_csvs, data):
    work = tmp_path_factory.mktemp("csv_cli")
    target = data.draw(st.sampled_from(["rankings", "content", "truth"]))
    paths = {}
    for name in ("rankings", "content", "truth"):
        raw = valid_csvs[name][0]
        paths[name] = work / f"{name}.csv"
        paths[name].write_bytes(data.draw(fuzzed(raw)) if name == target else raw)
    good = work / "good.csv"
    good.write_bytes(valid_csvs["rankings"][0])
    aggregate = ["aggregate", str(good), str(paths["rankings"]), "--out", str(work / "agg.csv")]
    assert main(aggregate) in (0, 3)
    assert main([
        "stats", "--before", str(good), "--after", str(paths["rankings"]),
        "--content", str(paths["content"]), "--truth", str(paths["truth"]),
    ]) in (0, 3)
