import filecmp
from pathlib import Path

import numpy as np
import pytest

from conftest import build_synthetic_dataset, write_color_dataset
from reidpipe.config import load_config
from reidpipe.errors import ConfigError, DataError
from reidpipe.experiment import (
    load_dataset,
    run_experiment,
    run_seed,
    run_single_rep,
    write_report,
)


def test_run_experiment_report_shape(synthetic_config):
    config = load_config(synthetic_config)
    report = run_experiment(config)
    assert report.rep_ids == ("R1", "R2", "R3")
    assert report.seeds == (0, 1)
    for rep in report.rep_ids:
        rates = report.cmc_initial[rep].rates
        assert np.all(np.diff(rates) >= 0)
        assert rates[-1] == pytest.approx(1.0)
    assert report.cmc_aggregate is not None
    assert set(report.chosen_n) == {0, 1}
    assert report.stats_overall is not None


def test_run_experiment_easy_dataset_high_top1(synthetic_config):
    config = load_config(synthetic_config)
    report = run_experiment(config)
    for rep in report.rep_ids:
        assert report.cmc_initial[rep].top_k(1) >= 0.95
    assert report.cmc_aggregate.top_k(1) >= 0.95


def test_postrank_toggle_off_identical_cmc(tmp_path):
    config_path = build_synthetic_dataset(tmp_path / "d", postrank=False, seeds=(0,))
    report = run_experiment(load_config(config_path))
    for rep in report.rep_ids:
        np.testing.assert_array_equal(
            report.cmc_initial[rep].rates, report.cmc_postrank[rep].rates
        )
    stats = report.stats_overall
    assert stats.pct_unchanged == 100.0


def test_full_determinism_byte_identical_reports(tmp_path):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0, 1))
    config = load_config(config_path)
    report1 = run_experiment(config)
    report2 = run_experiment(config)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    paths1 = write_report(report1, out1)
    paths2 = write_report(report2, out2)
    for p1, p2 in zip(paths1, paths2):
        assert filecmp.cmp(p1, p2, shallow=False), f"{p1.name} differs"


def test_cmc_identical_beyond_content_window(tmp_path):
    # prefix locality: ranks past the largest content set never change
    config_path = build_synthetic_dataset(
        tmp_path / "d", noise=0.45, seeds=(0,), best_n=False, n_cues=1
    )
    config = load_config(config_path)
    stage = run_single_rep(config, "R1", seed=0)
    run = stage.per_rep["R1"]
    max_m = max(c.m for c in run.contents)
    m_gallery = len(stage.gallery_ids)
    assert max_m < m_gallery
    from reidpipe.evaluation import cmc_curve

    before = cmc_curve(run.initial, stage.truth).rates
    after = cmc_curve(run.postranked, stage.truth).rates
    np.testing.assert_allclose(before[max_m:], after[max_m:], atol=1e-12)


def test_run_single_rep_outputs_aligned(synthetic_config):
    config = load_config(synthetic_config)
    stage = run_single_rep(config, "R1", seed=0)
    assert list(stage.per_rep) == ["R1"]
    run = stage.per_rep["R1"]
    n_probes = len(stage.probe_ids)
    assert len(run.initial) == len(run.postranked) == len(run.contents) == n_probes
    assert set(stage.truth) == set(range(n_probes))
    for ranking in run.initial:
        assert sorted(ranking.order.tolist()) == list(range(len(stage.gallery_ids)))


def test_single_rep_matches_eval_final_stage(tmp_path):
    # the first representation trains on the same stream [seed, 0, 0] and the
    # same PCA rows in both runs, so its lists must agree exactly
    config_path = build_synthetic_dataset(tmp_path / "d", noise=0.45, seeds=(3,), n_cues=2)
    config = load_config(config_path)
    rep = config.representations[0]
    single = run_single_rep(config, rep, seed=3).per_rep[rep]
    full = run_seed(load_dataset(config), config, 3).outcome.per_rep[rep]
    assert single.postrank_trained and full.postrank_trained
    for mine, theirs in ((single.initial, full.initial), (single.postranked, full.postranked)):
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            np.testing.assert_array_equal(a.order, b.order)
            np.testing.assert_array_equal(a.scores, b.scores)


def test_load_dataset_requires_cues(tmp_path):
    config_path = build_synthetic_dataset(tmp_path / "d")
    config = load_config(config_path)
    config.ingested_cues = {}
    config.computed_cues = ()
    with pytest.raises(ConfigError):
        load_dataset(config)


def test_load_dataset_computes_only_the_cues_its_representations_use(tmp_path, monkeypatch):
    from reidpipe import experiment

    write_color_dataset(tmp_path, n_ids=3)
    config_path = tmp_path / "c.ini"
    config_path.write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        "[features]\ncomputed_cues = C1,C2,C3,C4,C5,C6\npca_dim = 4\n"
        "[representations]\nSC = C5:G, C6:L\n"
        "[eval]\nseeds = 0\nrepresentations = SC\n"
    )
    asked = []
    extract_cues = experiment.extract_cues

    def spy(image, cue_ids, *args, **kwargs):
        asked.append(cue_ids)
        return extract_cues(image, cue_ids, *args, **kwargs)

    monkeypatch.setattr(experiment, "extract_cues", spy)
    dataset = load_dataset(load_config(config_path))
    assert asked == [("C5", "C6")] * 6
    assert {cue for cue, _ in dataset.raw_bank} == {"C5", "C6"}


def test_load_dataset_row_mismatch(tmp_path):
    config_path = build_synthetic_dataset(tmp_path / "d", n_ids=10)
    config = load_config(config_path)
    # overwrite one cue with wrong row count
    from reidpipe.datamodel import save_feature_matrix

    save_feature_matrix(
        np.zeros((3, 4), dtype=np.float32), Path(config.features_dir) / "S1_global.feat"
    )
    with pytest.raises(DataError):
        load_dataset(config)


def test_dcia_computes_each_neighbor_window_once(synthetic_config, monkeypatch):
    # every DCIA call of a stage reads windows from one gallery x gallery
    # matrix; a gallery image's window is computed at most once per matrix
    from reidpipe import postrank

    member_window = postrank._member_window
    asked, matrices = [], []

    def spy(g, gallery_scores, window):
        matrices.append(gallery_scores)  # alive, so no id is reused
        asked.append((id(gallery_scores), g))
        return member_window(g, gallery_scores, window)

    monkeypatch.setattr(postrank, "_member_window", spy)
    config = load_config(synthetic_config)
    assert config.postrank_enabled
    run_experiment(config)
    assert asked
    assert len(asked) == len(set(asked))
