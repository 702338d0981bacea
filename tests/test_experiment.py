import filecmp
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import build_synthetic_dataset, write_color_dataset
import oracles
from oracles import dense_block
from reidpipe import experiment, postrank
from reidpipe.cli import main
from reidpipe.config import ExperimentConfig, load_config
from reidpipe.datamodel import ImageRecord, SparseBlock, make_split
from reidpipe.errors import ConfigError, DataError
from reidpipe.experiment import (
    Dataset,
    load_dataset,
    run_experiment,
    run_seed,
    run_single_rep,
    write_report,
)
from reidpipe.simlearn import load_model


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
    assert set(report.orderings) == {0, 1}
    assert report.stats_overall is not None


@pytest.mark.parametrize(
    "options",
    [{}, {"best_n": False}, {"n_cues": 1}, {"postrank": False}],
    ids=["best_n", "three_reps_no_best_n", "one_rep", "no_postrank"],
)
def test_report_is_the_fold_of_the_seed_results(tmp_path, monkeypatch, options):
    from reidpipe import experiment

    config_path = build_synthetic_dataset(
        tmp_path / "d", n_ids=16, seeds=(0, 2), pca_dim=8, noise=0.6, **options
    )
    config = load_config(config_path)
    results = []
    run_seed = experiment.run_seed
    monkeypatch.setattr(
        experiment, "run_seed", lambda *args: results.append(run_seed(*args)) or results[-1]
    )
    report = run_experiment(config)
    expected = oracles.experiment_report(results, config)
    assert [r.seed for r in results] == [0, 2]
    assert (report.seeds, report.rep_ids) == (expected.seeds, expected.rep_ids)
    for name in ("cmc_initial", "cmc_postrank"):
        mine, theirs = getattr(report, name), getattr(expected, name)
        assert list(mine) == list(theirs)
        for rep in mine:
            np.testing.assert_array_equal(mine[rep].rates, theirs[rep].rates)
    if expected.cmc_aggregate is None:
        assert report.cmc_aggregate is None
    else:
        np.testing.assert_array_equal(report.cmc_aggregate.rates, expected.cmc_aggregate.rates)
    assert report.top1_rows == expected.top1_rows
    assert report.stats_per_rep == expected.stats_per_rep
    assert report.stats_overall == expected.stats_overall
    assert report.orderings == expected.orderings
    # the options reach each branch: an aggregate with two or more
    # representations, best-n shortening the ordering or not
    n_reps = len(config.representations)
    assert (report.cmc_aggregate is not None) == (n_reps >= 2)
    if n_reps >= 2 and not config.best_n_enabled:
        assert report.orderings == {seed: config.representations for seed in (0, 2)}
    if n_reps >= 2 and config.best_n_enabled:
        assert min(len(order) for order in report.orderings.values()) < n_reps


def test_run_experiment_easy_dataset_high_top1(synthetic_config):
    config = load_config(synthetic_config)
    report = run_experiment(config)
    for rep in report.rep_ids:
        assert report.cmc_initial[rep].top_k(1) >= 0.95
    assert report.cmc_aggregate.top_k(1) >= 0.95


def test_every_trained_model_converges(synthetic_config, monkeypatch):
    # 2 seeds x 3 representations x 2 stages (best-n's validation stage and
    # the final one): one representation model and one post-rank model each
    stops = []
    for module in (experiment, postrank):
        def spy(*args, train=module.train_model, name=module.__name__, **kwargs):
            model = train(*args, **kwargs)
            stops.append((name, model.stop_reason))
            return model

        monkeypatch.setattr(module, "train_model", spy)
    run_experiment(load_config(synthetic_config))
    assert Counter(stops) == {
        ("reidpipe.experiment", "converged"): 12,
        ("reidpipe.postrank", "converged"): 12,
    }


def test_postrank_toggle_off_identical_cmc(tmp_path):
    config_path = build_synthetic_dataset(tmp_path / "d", postrank=False, seeds=(0,))
    report = run_experiment(load_config(config_path))
    for rep in report.rep_ids:
        np.testing.assert_array_equal(
            report.cmc_initial[rep].rates, report.cmc_postrank[rep].rates
        )
    stats = report.stats_overall
    assert stats["unchanged"][0] == 100.0


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


def test_blocks_of_two_widths_end_to_end(tmp_path):
    # The one route by which the pipeline gives a representation blocks of
    # two widths: PCA reduces S1 to pca_dim and clamps S2, narrower than
    # pca_dim, to its own width, so R1's two blocks are 8 and 5 wide.
    config_path = build_synthetic_dataset(tmp_path / "d", dim=(25, 5), n_cues=2, pca_dim=8)
    text = config_path.read_text()
    config_path.write_text(text.replace("R1 = S1:G", "R1 = S1:G,S2:G"))
    config = load_config(config_path)
    reports = []
    for out in ("r1", "r2"):
        with pytest.warns(UserWarning, match="PCA dimension clamped from 8 to 5"):
            reports.append(write_report(run_experiment(config), tmp_path / out))
    for p1, p2 in zip(*reports):
        assert filecmp.cmp(p1, p2, shallow=False), f"{p1.name} differs"
    model_path = tmp_path / "R1.simw"
    with pytest.warns(UserWarning, match="PCA dimension clamped from 8 to 5"):
        assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model_path)]) == 0
    model = load_model(model_path)
    assert {key: w_m.shape for key, (w_m, _) in model.blocks.items()} == {
        ("S1", "G"): (8, 8), ("S2", "G"): (5, 5)
    }
    assert all(w_b.shape == w_m.shape for w_m, w_b in model.blocks.values())


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
    config = replace(load_config(config_path), ingested_cues={}, computed_cues=())
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
    from reidpipe.experiment import _stage_rows, _stage_sides

    dataset = load_dataset(load_config(synthetic_config))
    for seed in (0, 1, 5):
        split = make_split(dataset.records, seed)
        for ids in (split.train_ids, split.test_ids):
            sides = _stage_sides(ids, split)
            rows = _stage_rows(sides)
            both = np.concatenate([sides.rows_a, sides.rows_b])
            np.testing.assert_array_equal(rows, np.unique(both))
            assert rows.size == both.size


class _FirstStage(Exception):
    pass


def test_split_and_sub_split_pick_the_rows_of_the_image_id_splits(monkeypatch):
    from reidpipe import experiment

    two_view = [ImageRecord(f"{cam}{pid:03d}", pid, cam) for pid in range(21) for cam in "AB"]
    # up to three shots per camera, rows in no id order, some identities seen by one camera
    rng = np.random.default_rng(7)
    multi_shot = [
        ImageRecord(f"{cam}{pid:02d}_{k}", pid, cam)
        for pid in range(23)
        for cam in "AB"
        if (pid, cam) not in ((4, "A"), (9, "B"), (17, "B"))
        for k in range(1 + pid % 3)
    ]
    multi_shot = [multi_shot[i] for i in rng.permutation(len(multi_shot))]

    asked = []

    def first_stage(dataset, split, fit_ids, eval_ids, *rest, **kwargs):
        asked.append((fit_ids, eval_ids))
        raise _FirstStage

    monkeypatch.setattr(experiment, "run_stage", first_stage)
    config = ExperimentConfig(representations=("F0", "F1"))
    for records in (two_view, multi_shot):
        row_of = {rec.image_id: row for row, rec in enumerate(records)}
        for seed in range(10):
            split = make_split(records, seed)
            train_ids, test_ids, view_a, view_b = oracles.split_by_image_id(records, seed)
            assert (split.train_ids, split.test_ids) == (train_ids, test_ids)
            assert split.view_a == {pid: row_of[image] for pid, image in view_a.items()}
            assert split.view_b == {pid: row_of[image] for pid, image in view_b.items()}
            # best-n's validation stage is run_seed's first
            with pytest.raises(_FirstStage):
                experiment.run_seed(Dataset(records, {}), config, seed)
            assert asked.pop() == oracles.sub_split(train_ids, seed)


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
