import filecmp
from pathlib import Path

import numpy as np
import pytest

from conftest import build_synthetic_dataset, write_color_dataset
from oracles import dense_block
from reidpipe.config import load_config
from reidpipe.datamodel import SparseBlock
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


def test_run_stage_gathers_each_side_once_per_representation(tmp_path, monkeypatch):
    # fit A/B and eval A/B, shared by training, ranking and DCIA; a frozen
    # model without post-ranking needs the eval sides alone
    from reidpipe import experiment
    from reidpipe.cli import main

    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=12, pca_dim=4)
    calls = []
    sub_bank = experiment._sub_bank

    def spy(bank, keys, rows):
        calls.append(rows)
        return sub_bank(bank, keys, rows)

    monkeypatch.setattr(experiment, "_sub_bank", spy)
    config = load_config(config_path)
    assert config.postrank_enabled and config.best_n_enabled
    run_experiment(config)
    assert len(calls) == 4 * len(config.representations) * 2  # validation and final stage
    calls.clear()
    model = tmp_path / "R1.simw"
    assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model)]) == 0
    assert len(calls) == 4
    calls.clear()
    argv = ["rank", "-c", str(config_path), "--rep", "R1", "--model", str(model)]
    assert main([*argv, "--out", str(tmp_path / "r.csv")]) == 0
    assert len(calls) == 2


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


def test_stage_rows_sort_the_distinct_rows_of_both_cameras(synthetic_config):
    from reidpipe.datamodel import make_split
    from reidpipe.experiment import _stage_rows, _stage_sides

    dataset = load_dataset(load_config(synthetic_config))
    for seed in (0, 1, 5):
        split = make_split(dataset.records, seed)
        for ids in (split.train_ids, split.test_ids):
            sides = _stage_sides(ids, split, dataset.row_index)
            rows = _stage_rows(sides)
            both = np.concatenate([sides.rows_a, sides.rows_b])
            np.testing.assert_array_equal(rows, np.unique(both))
            assert rows.size == both.size


def test_computed_cues_reduce_as_extracted_and_ingested_ones(tmp_path):
    # the bank holds computed cues at FEAT precision, so extracting them to
    # FEAT files and ingesting those gives the same reduced blocks, bit for bit
    from reidpipe.cli import main
    from reidpipe.experiment import reduce_bank

    write_color_dataset(tmp_path, n_ids=5)
    features = "[features]\ncomputed_cues = C1,C5\npca_dim = 4\n"
    (tmp_path / "computed.ini").write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        f"{features}[representations]\nX = C1:GL, C5:GL\n[eval]\nrepresentations = X\n"
    )
    assert main(["extract", "-c", str(tmp_path / "computed.ini"), "--out", str(tmp_path / "feats")]) == 0
    (tmp_path / "ingested.ini").write_text(
        "[data]\nidentities = identities.csv\nfeatures_dir = feats\n"
        "[cues]\nC1 = GL\nC5 = GL\n[features]\npca_dim = 4\n"
        "[representations]\nX = C1:GL, C5:GL\n[eval]\nrepresentations = X\n"
    )
    computed = load_dataset(load_config(tmp_path / "computed.ini")).raw_bank
    ingested = load_dataset(load_config(tmp_path / "ingested.ini")).raw_bank
    assert computed.keys() == ingested.keys() and len(computed) == 10
    for key in computed:
        assert computed[key].dtype == ingested[key].dtype == np.float32
        # both banks chose the block's layout by the same rule from the same values
        assert type(computed[key]) is type(ingested[key])
        np.testing.assert_array_equal(dense_block(computed[key]), dense_block(ingested[key]))
    assert any(isinstance(block, SparseBlock) for block in computed.values())
    fit_rows = np.array([0, 2, 3, 5, 6, 9])
    reduced_computed = reduce_bank(computed, fit_rows, 4)
    reduced_ingested = reduce_bank(ingested, fit_rows, 4)
    assert reduced_computed.keys() == computed.keys()
    for key in computed:
        assert reduced_computed[key].shape == (10, 4)
        np.testing.assert_array_equal(reduced_computed[key], reduced_ingested[key])


def test_reduce_bank_makes_no_full_size_float64_copy():
    import tracemalloc

    from reidpipe.experiment import reduce_bank
    from reidpipe.features import pca

    n, d, k = 100, 40000, 4
    raw = {("C1", "G"): np.random.default_rng(3).standard_normal((n, d)).astype(np.float32)}
    fit_rows = np.arange(0, n, 5)
    m = fit_rows.size
    # two centred chunks (of the rows and of the fit rows), the mean, the
    # (N, k) output and the m×m Gram, plus 1 MB; a float32 gather of the fit
    # rows (3.2 MB) or the (d, k) basis (1.3 MB) with a chunk is more
    bound = 2 * pca._CHUNK_BYTES + 8 * d + 8 * n * k + 8 * m * m + (1 << 20)
    tracemalloc.start()
    try:
        reduced = reduce_bank(raw, fit_rows, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reduced[("C1", "G")].shape == (n, k)
    assert peak <= bound, f"peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"


def test_compute_cue_bank_holds_no_dense_copy_of_a_sparse_block(tmp_path):
    # each block's rows are collected by their nonzero entries and each block
    # takes the layout of fewer bytes: no (N, d) array of a block that ends
    # compressed is held, nor the last image's descriptors while the next is
    # extracted
    import tracemalloc

    from reidpipe.datamodel import load_identities, load_image, load_mask
    from reidpipe.experiment import compute_cue_bank
    from reidpipe.features import extract_cues

    write_color_dataset(tmp_path, n_ids=6)
    config_path = tmp_path / "c.ini"
    config_path.write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        "[features]\ncomputed_cues = C1,C2,C3,C4,C5,C6\n"
    )
    config = load_config(config_path)
    records = load_identities(config.identities)
    image, mask = load_image(tmp_path / "imgs" / "a0.ppm"), load_mask(tmp_path / "imgs" / "a0.pgm")
    tracemalloc.start()
    try:
        # one image's descriptors, with what their extraction holds at its peak
        extract_cues(
            image,
            config.computed_cues,
            mask,
            masked_cues=config.masked_cues,
            n_stripes=config.n_regions,
            mask_blend=config.mask_blend,
        )
        _, one_image = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        bank = compute_cue_bank(records, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bytes of each block in its smaller layout: a 4-byte value and
    # column per nonzero (-0.0 too) and an 8-byte start per row and one, or
    # dense float32
    held = dense = 0
    for block in bank.values():
        values = dense_block(block)
        n, d = values.shape
        smaller = min(4 * n * d, 8 * np.count_nonzero(values.view(np.int32)) + 8 * (n + 1))
        assert block.nbytes == smaller
        held += smaller
        dense += 4 * n * d
    assert held < dense / 4
    bound = held + one_image + (1 << 20)
    assert peak <= bound, f"peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"


def test_a_local_only_representation_collects_no_global_block(tmp_path, monkeypatch):
    from reidpipe import experiment
    from reidpipe.datamodel import BlockRows, load_identities

    write_color_dataset(tmp_path, n_ids=4)
    config_path = tmp_path / "c.ini"
    config_path.write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        "[features]\ncomputed_cues = C1,C3,C5\n"
        "[representations]\nLC = C1:L, C3:L\n"
        "[eval]\nrepresentations = LC\n"
    )
    config = load_config(config_path)
    built = []

    def collector(width):
        built.append(width)
        return BlockRows(width)

    monkeypatch.setattr(experiment, "BlockRows", collector)
    bank = load_dataset(config).raw_bank
    local = [(cue, f"r{r}") for cue in ("C1", "C3") for r in range(4)]
    assert sorted(bank) == local
    # one collector per local block: none for a G block, none for C5
    assert sorted(built) == sorted(block.shape[1] for block in bank.values())
    built.clear()
    every = experiment.compute_cue_bank(load_identities(config.identities), config)
    assert len(built) == len(every) == 15  # extract's call: every cue and scope
    for key in local:
        assert type(bank[key]) is type(every[key])
        assert dense_block(bank[key]).tobytes() == dense_block(every[key]).tobytes()
