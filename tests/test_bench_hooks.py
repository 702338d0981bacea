"""The benchmark's per-layer probes (``perfbench/layers.py``) still fit the code.

The probes wrap module attributes such as ``experiment.rank_gallery`` and
``postrank._member_window`` and read some arguments by position, so a rename
or a moved argument breaks the traced benchmark without failing any other test.
"""

from pathlib import Path

import pytest

from conftest import build_synthetic_dataset, write_color_dataset
from reidpipe.cli import main
from reidpipe.config import load_config
from reidpipe.datamodel import SparseBlock
from reidpipe.experiment import load_dataset, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def test_layer_probes_resolve_and_nest(tmp_path, traced):
    config_path = build_synthetic_dataset(tmp_path / "d", n_ids=16, seeds=(0,), pca_dim=8)
    with traced.span("timed"):
        run_experiment(load_config(config_path))
        model = tmp_path / "r1.simw"
        assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model)]) == 0
        assert main([
            "rank", "-c", str(config_path), "--rep", "R1",
            "--model", str(model), "--out", str(tmp_path / "r1.csv"),
        ]) == 0
    assert traced.nesting_ok()
    for name in ("simlearn.rank", "simlearn.score_gallery", "postrank.dcia",
                 "experiment.run_single_rep", "simlearn.load_model"):
        assert traced.calls[name] > 0, name
    for stat in ("simlearn.scored_rows", "postrank.windows_requested", "postrank.contents"):
        assert traced.stats[stat] > 0, stat


def test_layer_probes_see_computed_cue_extraction(tmp_path, traced):
    write_color_dataset(tmp_path, n_ids=6)
    config_path = tmp_path / "c.ini"
    config_path.write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        "[features]\ncomputed_cues = C1,C2,C3,C4,C5,C6\npca_dim = 4\n"
        "[representations]\nSC = C5:GL, C6:GL\n"
        "[postrank]\nenabled = false\n"
        "[rankagg]\nbest_n = false\n"
        "[eval]\nseeds = 0\nrepresentations = F0,SC\nreport_dir = rep\n"
    )
    with traced.span("timed"):
        assert main(["eval", "-c", str(config_path)]) == 0
    assert traced.nesting_ok()
    extract = [s for s in traced.spans if s["name"] == "features.extract"]
    assert len(extract) == 1
    for name in ("datamodel.load_image", "datamodel.load_mask", "kernels.patch_histograms",
                 "kernels.siltp_codes", "features.pca_fit"):
        assert traced.calls[name] > 0, name
    # PCA is fitted on exactly the blocks the representations use
    assert traced.stats["features.pca_blocks_fitted"] > 0
    assert traced.stats["features.pca_blocks_used"] == traced.stats["features.pca_blocks_fitted"]
    # one stage fits each raw block once, and the probe reads a compressed
    # block's width from its shape as a dense one's
    raw_bank = load_dataset(load_config(config_path)).raw_bank
    assert any(isinstance(block, SparseBlock) for block in raw_bank.values())
    assert traced.stats["features.pca_fit_cols"] == sum(b.shape[1] for b in raw_bank.values())


def test_layer_probes_see_both_trainers(tmp_path, traced):
    # simlearn.train is opened by the probes on experiment.train_model (the
    # initial models) and on postrank.train_model (the post-rank models); a
    # trainer that moves off either name would drop out of simlearn.train_s
    config_path = build_synthetic_dataset(tmp_path / "d", n_ids=16, seeds=(0,), pca_dim=8)
    config = load_config(config_path)
    assert config.postrank_enabled
    with traced.span("timed"):
        run_experiment(config)
    assert traced.nesting_ok()
    names = {span["id"]: span["name"] for span in traced.spans}
    parents = [names.get(s["parent"]) for s in traced.spans if s["name"] == "simlearn.train"]
    from_postrank = parents.count("postrank.train")
    assert from_postrank > 0
    assert len(parents) - from_postrank > 0


def test_layer_probes_see_ranking_csv_io(tmp_path, traced):
    # the probes wrap cli.save_rankings_csv and cli.load_rankings_csv; a rename
    # would read as zero CSV time and bytes in the traced benchmark
    config_path = build_synthetic_dataset(
        tmp_path / "d", n_ids=16, seeds=(0,), pca_dim=8, postrank=False
    )
    ranked = tmp_path / "r1.csv"
    with traced.span("timed"):
        assert main(["rank", "-c", str(config_path), "--rep", "R1", "--out", str(ranked)]) == 0
        assert main(["aggregate", str(ranked), str(ranked), "--out", str(tmp_path / "a.csv")]) == 0
    assert traced.nesting_ok()
    for name in ("evaluation.csv_write", "evaluation.csv_read"):
        assert traced.calls[name] > 0, name
    assert traced.stats["evaluation.csv_bytes"] > 0
