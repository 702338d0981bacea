"""Property tests for the binary input boundary: FEAT, SIMW, PGM and PPM.

A valid file is cut at any length or has bytes overwritten; reading it
either succeeds or raises a ``ReidError`` subclass, never anything else.
A fuzzed SIMW model given to ``reidpipe rank`` ends with exit code 3 when
the loader rejects it.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_synthetic_dataset
from reidpipe.cli import main
from reidpipe.datamodel import (
    load_feature_matrix,
    load_image,
    load_mask,
    save_feature_matrix,
    save_pgm,
    save_ppm,
)
from reidpipe.errors import ReidError
from reidpipe.simlearn import Representation, SimilarityModel, load_model, save_model


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
