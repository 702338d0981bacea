import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reidpipe
from conftest import build_synthetic_dataset
from reidpipe.cli import main
from reidpipe.config import ExperimentConfig, load_config
from reidpipe.datamodel import (
    ImageRecord,
    load_feature_matrix,
    save_feature_matrix,
    save_identities,
    save_pgm,
    save_ppm,
)
from reidpipe.errors import ConfigError
from reidpipe.evaluation import load_rankings_csv
from reidpipe.experiment import run_single_rep
from reidpipe.simlearn import save_model


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_config_defaults(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[cues]\nS1 = G\n[representations]\nR1 = S1:G\n[eval]\nrepresentations = R1\n")
    config = load_config(path)
    assert config.gamma == 1.1
    assert config.pca_dim == 120
    assert config.n_regions == 4
    assert config.k_common == 13
    assert config.energy == 0.35
    assert config.window == 25
    assert config.seeds == tuple(range(10))
    assert config.postrank_enabled and config.best_n_enabled


def test_config_overrides(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(
        "[cues]\nS1 = G\n"
        "[representations]\nR1 = S1:G\n"
        "[features]\npca_dim = 40\nregions = 2\n"
        "[simlearn]\ngamma = 0.9\nlambda = 0.01\n"
        "[postrank]\nenabled = false\nK = 7\nenergy = 0.55\nwindow = 10\n"
        "[rankagg]\nbest_n = off\nn_max = 5\n"
        "[eval]\nseeds = 3,4\nrepresentations = R1\n"
    )
    config = load_config(path)
    assert config.pca_dim == 40 and config.n_regions == 2
    assert config.gamma == 0.9 and config.lam == 0.01
    assert not config.postrank_enabled and config.k_common == 7
    assert config.energy == 0.55 and config.window == 10
    assert not config.best_n_enabled and config.n_max == 5
    assert config.seeds == (3, 4)


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_config_duplicate_seeds(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[eval]\nseeds = 1,1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_unknown_representation(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[eval]\nrepresentations = F99\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_bad_number(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[features]\npca_dim = twelve\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_bad_boolean_names_file_section_and_key(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[rankagg]\nbest_n = maybe\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: [rankagg] best_n: expected a boolean, got 'maybe'"


def test_config_table_representations(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[eval]\nrepresentations = F0,F3,F12\n")
    config = load_config(path)
    rep = config.representation("F3")
    assert rep.cue_scopes == {"C1": "GL", "C2": "GL", "C3": "GL", "C4": "GL", "C7": "G", "C8": "G"}


# ---------------------------------------------------------------------------
# CLI round trips
# ---------------------------------------------------------------------------

def test_cli_eval_and_exit_codes(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=12, pca_dim=4)
    assert main(["eval", "-c", str(config_path)]) == 0
    out = capsys.readouterr().out
    report_dir = Path(config_path).parent / "report"
    assert (report_dir / "cmc.csv").exists()
    assert (report_dir / "summary.txt").exists()
    assert "cmc.csv" in out


def test_cli_missing_config_is_exit_2(tmp_path, capsys):
    assert main(["eval", "-c", str(tmp_path / "none.ini")]) == 2


def test_cli_data_error_is_exit_3(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8)
    feat = Path(config_path).parent / "S1_global.feat"
    feat.write_bytes(b"FEAT" + b"\x00" * 4)  # truncated header
    assert main(["eval", "-c", str(config_path)]) == 3


def test_cli_zero_width_feat_is_exit_3(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8)
    save_feature_matrix(np.zeros((16, 0), dtype=np.float32), tmp_path / "d" / "S1_global.feat")
    assert main(["eval", "-c", str(config_path)]) == 3
    assert "S1_global.feat: 16x0" in capsys.readouterr().err


def test_cli_truncated_model_is_exit_3(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=10, pca_dim=4)
    model_path = tmp_path / "r1.simw"
    assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model_path)]) == 0
    model_path.write_bytes(model_path.read_bytes()[:30])
    code = main([
        "rank", "-c", str(config_path), "--rep", "R1",
        "--model", str(model_path), "--out", str(tmp_path / "r1.csv"),
    ])
    assert code == 3
    assert "truncated" in capsys.readouterr().err


def test_cli_model_width_mismatch_is_exit_3(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=10, pca_dim=4)
    model_path = tmp_path / "r1.simw"
    assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model_path)]) == 0
    narrow = Path(config_path).with_name("narrow.ini")
    narrow.write_text(Path(config_path).read_text().replace("pca_dim = 4", "pca_dim = 3"))
    code = main([
        "rank", "-c", str(narrow), "--rep", "R1",
        "--model", str(model_path), "--out", str(tmp_path / "r1.csv"),
    ])
    assert code == 3
    assert "W (4, 4)" in capsys.readouterr().err


@pytest.mark.parametrize("pca_dim", [0, -3])
def test_cli_pca_dim_below_one_is_exit_2(tmp_path, capsys, pca_dim):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=pca_dim)
    code = main(["rank", "-c", str(config_path), "--rep", "R1", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert f"pca_dim must be at least 1, got {pca_dim}" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("seeds = 0", "seeds = -1", "seeds must be non-negative, got -1"),
        ("best_n = true", "best_n = true\nn_max = 1", "n_max must be at least 2, got 1"),
        ("[eval]", "[simlearn]\nneg_ratio = -1\n[eval]", "neg_ratio must be at least 1, got -1"),
        ("[eval]", "[simlearn]\nneg_ratio = 0\n[eval]", "neg_ratio must be at least 1, got 0"),
    ],
    ids=["seeds", "n_max", "neg_ratio_negative", "neg_ratio_zero"],
)
def test_cli_out_of_range_protocol_value_is_exit_2(tmp_path, capsys, old, new, message):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4)
    text = config_path.read_text()
    assert old in text
    config_path.write_text(text.replace(old, new))
    assert main(["eval", "-c", str(config_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d" / "report").exists()


@pytest.mark.parametrize(
    "section, line, message",
    [
        ("simlearn", "lambda = -1", "lambda must be finite and at least 0, got -1.0"),
        ("simlearn", "lambda = nan", "lambda must be finite and at least 0, got nan"),
        ("simlearn", "gamma = -1", "gamma must be finite and at least 0, got -1.0"),
        ("simlearn", "gamma = nan", "gamma must be finite and at least 0, got nan"),
        ("simlearn", "gamma = inf", "gamma must be finite and at least 0, got inf"),
        ("simlearn", "max_iters = 0", "max_iters must be at least 1, got 0"),
        ("simlearn", "max_iters = -3", "max_iters must be at least 1, got -3"),
        ("postrank", "energy = nan", "energy must be in (0, 1], got nan"),
        ("postrank", "energy = -1", "energy must be in (0, 1], got -1.0"),
        ("postrank", "energy = 0", "energy must be in (0, 1], got 0.0"),
        ("postrank", "energy = 7", "energy must be in (0, 1], got 7.0"),
        ("postrank", "window = 0", "window must be at least 1, got 0"),
        ("postrank", "window = -2", "window must be at least 1, got -2"),
        ("postrank", "K = -1", "K must be at least 1, got -1"),
        ("features", "mask_blend = nan", "mask_blend must be in [0, 1], got nan"),
        ("features", "mask_blend = 5", "mask_blend must be in [0, 1], got 5.0"),
    ],
)
def test_cli_out_of_range_tuning_value_is_exit_2(tmp_path, capsys, section, line, message):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=16, pca_dim=8)
    text = config_path.read_text()
    header = f"[{section}]\n"
    if header not in text:
        text += header
    config_path.write_text(text.replace(header, header + line + "\n"))
    assert main(["eval", "-c", str(config_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d" / "report").exists()


@pytest.mark.parametrize(
    "command, edits, message",
    [
        ("eval", [("representations = R1,R2,R3", "representations = R1,R1")],
         "representations must be distinct"),
        ("eval", [("representations = R1,R2,R3", "representations = R1,R1"),
                  ("best_n = true", "best_n = false")],
         "representations must be distinct"),
        ("eval", [("S1 = G\n", "S1 = G\nC1 = G\n"),
                  ("[features]\n", "[features]\ncomputed_cues = C1\n")],
         "cue C1 is both computed and ingested"),
        ("eval", [("[features]\n", "[features]\nmasked_cues = C9\n")],
         "masked_cues: unknown cue 'C9', expected C1-C6"),
        ("eval", [("[features]\n", "[features]\ncomputed_cues = C9\n")],
         "computed_cues: unknown cue 'C9', expected C1-C6"),
        ("extract", [("[features]\n", "[features]\ncomputed_cues = C5,C5\n")],
         "computed_cues must be distinct"),
        ("extract", [("[features]\n", "[features]\ncomputed_cues = C1,C9\n")],
         "computed_cues: unknown cue 'C9', expected C1-C6"),
        ("eval", [("R1 = S1:G\n", "R1 = S1:G, S1:G\n")],
         "representation R1: cue S1 listed twice"),
        ("eval", [("[representations]\n", "[representations]\nF0 = S1:G\n")],
         "representation F0: F0-F12 are built in"),
        ("eval", [("S1 = G\n", "S1 = X\n")],
         "cue S1: invalid scope 'X', expected G, L or GL"),
        ("eval", [("S1 = G\n", "S1 = G, G, GL\n")],
         "cue S1: a scope is listed twice in G, G, GL"),
        ("eval", [("S1 = G\n", "S1 = G, GL\n")],
         "cue S1: a scope is listed twice in G, GL"),
        ("eval", [("[representations]\n", "[representations]\nR9 = S1:X\n")],
         "R9: cue S1 has invalid scope 'X'"),
    ],
    ids=["repeated_rep", "repeated_rep_no_best_n", "computed_and_ingested",
         "masked_unknown", "computed_unknown", "extract_repeated_cue", "extract_computed_unknown",
         "rep_cue_twice", "rep_named_like_table1", "ingested_scope_unknown",
         "ingested_scope_twice", "ingested_scope_within_another", "unlisted_rep_scope_unknown"],
)
def test_cli_cue_or_representation_mistake_is_exit_2_at_load(
    tmp_path, capsys, monkeypatch, command, edits, message
):
    from reidpipe import experiment

    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=16, pca_dim=8)
    text = config_path.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    config_path.write_text(text)
    called = []
    for name in ("load_identities", "train_model"):
        monkeypatch.setattr(experiment, name, lambda *a, name=name, **k: called.append(name))
    out = tmp_path / "out"
    argv = [command, "-c", str(config_path)] + (["--out", str(out)] if command == "extract" else [])
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert called == []
    assert not (tmp_path / "d" / "report").exists() and not out.exists()


def test_tuning_values_at_the_ends_of_their_ranges_are_accepted(tmp_path):
    config_path = tmp_path / "edges.ini"
    config_path.write_text(
        "[features]\nmask_blend = 1\n"
        "[simlearn]\ngamma = 0\nlambda = 0\nmax_iters = 1\n"
        "[postrank]\nK = 1\nenergy = 1\nwindow = 1\n"
    )
    config = load_config(config_path)
    assert (config.mask_blend, config.gamma, config.lam, config.max_iters) == (1.0, 0.0, 0.0, 1)
    assert (config.k_common, config.energy, config.window) == (1, 1.0, 1)
    assert ExperimentConfig(mask_blend=0.0, energy=5e-324).energy == 5e-324


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("seeds = 0", "seed = 0", "[eval] seed"),
        ("[postrank]", "[postrank]\nwindw = 5", "[postrank] windw"),
        ("[eval]", "[simlern]\ngamma = 0.9\n[eval]", "[simlern]"),
        ("[data]", "[DEFAULT]\ngamma = 0.9\n[data]", "[DEFAULT]"),
        # [DEFAULT] alone: its key is not also named under [eval]
        ("[eval]", "[DEFAULT]\npca_dim = x\n[eval]", "[DEFAULT]\n"),
    ],
    ids=["eval_key", "postrank_key", "section", "default_section", "default_beside_eval"],
)
def test_cli_unknown_config_key_or_section_is_exit_2(tmp_path, capsys, old, new, named):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4)
    text = config_path.read_text()
    assert old in text
    config_path.write_text(text.replace(old, new, 1))
    assert main(["eval", "-c", str(config_path)]) == 2
    assert f"unknown config section or key: {named}" in capsys.readouterr().err
    assert not (tmp_path / "d" / "report").exists()


@pytest.mark.parametrize("command", ["train", "rank"])
def test_cli_negative_seed_is_exit_2(tmp_path, capsys, command):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4)
    out = tmp_path / "out"
    argv = [command, "-c", str(config_path), "--rep", "R1", "--seed", "-3", "--out", str(out)]
    assert main(argv) == 2
    assert "seeds must be non-negative, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_block_no_cue_supplies_is_exit_2_before_any_fit(tmp_path, capsys, monkeypatch):
    from reidpipe import experiment

    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4)
    text = config_path.read_text()
    assert "S1 = G\n" in text and "R1 = S1:G\n" in text
    config_path.write_text(text.replace("R1 = S1:G\n", "R1 = S1:GL\n"))
    called = []
    for name in ("fit_pca", "train_model"):
        monkeypatch.setattr(experiment, name, lambda *a, name=name, **k: called.append(name))
    assert main(["eval", "-c", str(config_path)]) == 2
    missing = [("S1", f"r{r}") for r in range(4)]
    assert f"descriptor bank is missing blocks: {missing}" in capsys.readouterr().err
    assert called == []


def test_cli_unwritable_output_path_is_exit_3(tmp_path, capsys, monkeypatch):
    from reidpipe import experiment

    config = str(build_synthetic_dataset(
        tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4, postrank=False, best_n=False
    ))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    no_dir = tmp_path / "missing_dir" / "r.csv"
    cases = [
        (["eval", "-c", config, "--report-dir", str(a_file)], f"{a_file}: File exists"),
        (["rank", "-c", config, "--rep", "R1", "--out", str(no_dir)],
         f"{no_dir}: No such file or directory"),
        (["train", "-c", config, "--rep", "R1", "--out", str(tmp_path)],
         f"{tmp_path}: Is a directory"),
    ]
    # eval rejects its report directory before any seed runs
    seeds_run, run_seed = [], experiment.run_seed
    monkeypatch.setattr(experiment, "run_seed", lambda *a: seeds_run.append(a) or run_seed(*a))
    for argv, message in cases:
        assert main(argv) == 3
        assert capsys.readouterr().err.endswith(f"data error: {message}\n")
    assert seeds_run == []


def test_cli_rank_missing_feat_file_is_exit_3(tmp_path, capsys):
    # R1 reads only S1, so only a missing S1 file stops it
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4)
    (tmp_path / "d" / "S1_global.feat").unlink()
    code = main(["rank", "-c", str(config_path), "--rep", "R1", "--out", str(tmp_path / "r.csv")])
    assert code == 3
    assert "S1_global.feat: cannot read: No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,read",
    [
        (["rank", "--rep", "R1"], ["S1_global.feat", "identities.csv"]),
        (["eval"], ["S1_global.feat", "S2_global.feat", "identities.csv"]),
    ],
)
def test_cli_reads_only_the_feat_files_its_representations_use(tmp_path, monkeypatch, argv, read):
    # S1 is configured with local blocks and S3 as a third cue, but R1 and
    # R2 use only the S1 and S2 global blocks; the other files are not opened
    from reidpipe import datamodel

    config_path = build_synthetic_dataset(
        tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4, postrank=False, best_n=False
    )
    for r in range(4):
        save_feature_matrix(np.ones((16, 3), np.float32), tmp_path / "d" / f"S1_local_r{r}.feat")
    text = config_path.read_text().replace("S1 = G\n", "S1 = GL\n", 1)
    config_path.write_text(text.replace("representations = R1,R2,R3", "representations = R1,R2"))
    opened = []
    read_bytes = datamodel.read_bytes

    def counted(path):
        opened.append(Path(path).name)
        return read_bytes(path)

    monkeypatch.setattr(datamodel, "read_bytes", counted)
    out = ["--out", str(tmp_path / "r.csv")] if argv[0] == "rank" else []
    assert main([*argv, "-c", str(config_path), *out]) == 0
    assert sorted(opened) == read


def test_cli_pca_lapack_failure_is_exit_4(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4)
    code = main(["rank", "-c", str(config_path), "--rep", "R1", "--out", str(tmp_path / "r.csv")])
    assert code == 4
    assert "numeric error: PCA of a" in capsys.readouterr().err


def test_cli_rank_missing_model_file_is_exit_3(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8, pca_dim=4)
    code = main([
        "rank", "-c", str(config_path), "--rep", "R1",
        "--model", str(tmp_path / "nope.simw"), "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 3
    assert "nope.simw: cannot read" in capsys.readouterr().err


def test_cli_aggregate_missing_ranking_files_is_exit_3(tmp_path, capsys):
    missing = [str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")]
    assert main(["aggregate", *missing, "--out", str(tmp_path / "agg.csv")]) == 3
    assert "nope.csv: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "agg.csv").exists()


RANKING = ("probe_id", "rank", "gallery_id", "score")
CONTENT = ("probe_id", "gallery_id", "threshold")
TRUTH = ("probe_id", "gallery_id")


def _write_csv(path, header, rows):
    path.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    return str(path)


def test_cli_aggregate_non_integer_rank_is_exit_3(tmp_path, capsys):
    good = _write_csv(tmp_path / "a.csv", RANKING, [("p0", "1", "g0", "1"), ("p0", "2", "g1", "0")])
    bad = _write_csv(tmp_path / "b.csv", RANKING, [("p0", "one", "g0", "1"), ("p0", "2", "g1", "0")])
    assert main(["aggregate", good, bad, "--out", str(tmp_path / "agg.csv")]) == 3
    err = capsys.readouterr().err
    assert "b.csv" in err and "line 2" in err


@pytest.mark.parametrize("row, message", [
    (("p0", "99999999999999999999999", "g0", "1"), "probe p0 is not a full permutation"),
    (("p0", "1", "g0"), "line 2: malformed row ['p0', '1', 'g0']"),
    (("p0", "1", "g0", "high"), "line 2: bad score 'high'"),
])
def test_cli_aggregate_faulty_ranking_row_is_exit_3(tmp_path, capsys, row, message):
    good = _write_csv(tmp_path / "a.csv", RANKING, [("p0", "1", "g0", "1"), ("p0", "2", "g1", "0")])
    bad = _write_csv(tmp_path / "b.csv", RANKING, [row, ("p0", "2", "g1", "0")])
    assert main(["aggregate", good, bad, "--out", str(tmp_path / "agg.csv")]) == 3
    assert f"b.csv: {message}" in capsys.readouterr().err


def test_cli_aggregate_and_stats_match_ranking_files_by_probe_id(tmp_path, capsys):
    # p0's true match g0 falls from rank 1 to 2 after post-ranking; p1's rises from 2 to 1
    before = [("p0", "1", "g0", "0.9"), ("p0", "2", "g1", "0.1"),
              ("p1", "1", "g1", "0.8"), ("p1", "2", "g0", "0.2")]
    after = [("p0", "1", "g1", "0.6"), ("p0", "2", "g0", "0.4"),
             ("p1", "1", "g0", "0.7"), ("p1", "2", "g1", "0.3")]
    files = {
        "before": _write_csv(tmp_path / "before.csv", RANKING, before),
        "after": _write_csv(tmp_path / "after.csv", RANKING, after),
        "swapped": _write_csv(tmp_path / "swapped.csv", RANKING, after[2:] + after[:2]),
        "other": _write_csv(tmp_path / "other.csv", RANKING, after[:2] + [
            ("p2", "1", "g0", "0.5"), ("p2", "2", "g1", "0.5")]),
    }
    content = _write_csv(tmp_path / "c.csv", CONTENT, [
        (p, g, "0.5") for p in ("p0", "p1") for g in ("g0", "g1")])
    truth = _write_csv(tmp_path / "t.csv", TRUTH, [("p0", "g0"), ("p1", "g0")])
    aggregated, printed = {}, {}
    for name in ("after", "swapped"):
        out = tmp_path / f"agg_{name}.csv"
        assert main(["aggregate", files["before"], files[name], "--out", str(out)]) == 0
        aggregated[name] = out.read_bytes()
        capsys.readouterr()
        assert main(["stats", "--before", files["before"], "--after", files[name],
                     "--content", content, "--truth", truth]) == 0
        printed[name] = capsys.readouterr().out
    assert aggregated["swapped"] == aggregated["after"]
    assert printed["swapped"] == printed["after"]
    assert "improved         50.00%" in printed["after"]
    assert "worsened         50.00%" in printed["after"]
    fault = f"{files['other']}: probe/gallery ids differ from {files['before']}"
    assert main(["aggregate", files["before"], files["other"], "--out", str(tmp_path / "x")]) == 3
    assert fault in capsys.readouterr().err
    assert main(["stats", "--before", files["before"], "--after", files["other"],
                 "--content", content, "--truth", truth]) == 3
    assert fault in capsys.readouterr().err


def test_cli_stats_unknown_gallery_id_is_exit_3(tmp_path, capsys):
    rows = [("p0", "1", "g0", "1"), ("p0", "2", "g1", "0")]
    ranking = _write_csv(tmp_path / "r.csv", RANKING, rows)
    content = _write_csv(tmp_path / "c.csv", CONTENT, [("p0", "g0", "0.5")])
    truth = _write_csv(tmp_path / "t.csv", TRUTH, [("p0", "g0")])
    unknown_content = _write_csv(tmp_path / "c2.csv", CONTENT, [("p0", "g9", "0.5")])
    unknown_truth = _write_csv(tmp_path / "t2.csv", TRUTH, [("p0", "g9")])
    args = ["stats", "--before", ranking, "--after", ranking]
    assert main([*args, "--content", content, "--truth", truth]) == 0
    assert main([*args, "--content", unknown_content, "--truth", truth]) == 3
    assert "c2.csv" in capsys.readouterr().err
    assert main([*args, "--content", content, "--truth", unknown_truth]) == 3
    assert "t2.csv" in capsys.readouterr().err
    short_row = _write_csv(tmp_path / "c3.csv", CONTENT, [("p0", "g0")])
    assert main([*args, "--content", short_row, "--truth", truth]) == 3
    assert "c3.csv" in capsys.readouterr().err


def test_cli_stats_truth_listing_a_probe_twice_is_exit_3(tmp_path, capsys):
    rows = [("p0", "1", "g0", "1"), ("p0", "2", "g1", "0")]
    ranking = _write_csv(tmp_path / "r.csv", RANKING, rows)
    content = _write_csv(tmp_path / "c.csv", CONTENT, [("p0", "g0", "0.5")])
    args = ["stats", "--before", ranking, "--after", ranking, "--content", content]
    # rows for probes the rankings do not hold are skipped, repeated or not
    other = _write_csv(tmp_path / "t.csv", TRUTH, [("p0", "g0"), ("p9", "g0"), ("p9", "g1")])
    assert main([*args, "--truth", other]) == 0
    capsys.readouterr()
    twice = _write_csv(tmp_path / "t2.csv", TRUTH, [("p0", "g0"), ("p9", "g0"), ("p0", "g1")])
    assert main([*args, "--truth", twice]) == 3
    assert "t2.csv: line 4: probe p0 listed twice" in capsys.readouterr().err


def test_cli_stats_content_listing_a_member_twice_or_two_thresholds_is_exit_3(tmp_path, capsys):
    rows = [("p0", "1", "g0", "1"), ("p0", "2", "g1", "0")]
    ranking = _write_csv(tmp_path / "r.csv", RANKING, rows)
    truth = _write_csv(tmp_path / "t.csv", TRUTH, [("p0", "g0")])
    args = ["stats", "--before", ranking, "--after", ranking, "--truth", truth]
    twice = _write_csv(tmp_path / "c.csv", CONTENT, [("p0", "g1", "0.5"), ("p0", "g1", "0.5")])
    assert main([*args, "--content", twice]) == 3
    assert "c.csv: line 3: probe p0 lists g1 twice" in capsys.readouterr().err
    two = _write_csv(tmp_path / "c2.csv", CONTENT, [("p0", "g0", "0.25"), ("p0", "g1", "0.75")])
    assert main([*args, "--content", two]) == 3
    assert "c2.csv: line 3: probe p0 has two thresholds" in capsys.readouterr().err


def _with_ff(path):
    """Put a 0xff byte, never valid UTF-8, at the start of the file's second line."""
    path = Path(path)
    raw = path.read_bytes()
    cut = raw.index(b"\n") + 1
    path.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    return str(path)


def test_cli_eval_non_utf8_identities_is_exit_3(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8)
    _with_ff(Path(config_path).parent / "identities.csv")
    assert main(["eval", "-c", str(config_path)]) == 3
    assert "identities.csv: not UTF-8" in capsys.readouterr().err


def test_cli_non_utf8_config_is_exit_2(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=8)
    _with_ff(config_path)
    assert main(["eval", "-c", str(config_path)]) == 2
    assert "config.ini" in capsys.readouterr().err


def test_cli_aggregate_non_utf8_ranking_is_exit_3(tmp_path, capsys):
    rows = [("p0", "1", "g0", "1"), ("p0", "2", "g1", "0")]
    good = _write_csv(tmp_path / "a.csv", RANKING, rows)
    bad = _with_ff(_write_csv(tmp_path / "b.csv", RANKING, rows))
    assert main(["aggregate", good, bad, "--out", str(tmp_path / "agg.csv")]) == 3
    assert "b.csv: not UTF-8" in capsys.readouterr().err


def test_cli_aggregate_over_long_field_is_exit_3(tmp_path, capsys):
    too_long = "g" * (csv.field_size_limit() + 1)
    rows = [("p0", "1", "g0", "1"), ("p0", "2", "g1", "0")]
    good = _write_csv(tmp_path / "a.csv", RANKING, rows)
    bad = _write_csv(tmp_path / "b.csv", RANKING, [rows[0], ("p0", "2", too_long, "0")])
    assert main(["aggregate", good, bad, "--out", str(tmp_path / "agg.csv")]) == 3
    assert "b.csv: line 3: field larger than field limit" in capsys.readouterr().err


def test_cli_stats_non_utf8_csv_is_exit_3(tmp_path, capsys):
    files = {
        "before": _write_csv(tmp_path / "r.csv", RANKING, [("p0", "1", "g0", "1")]),
        "content": _write_csv(tmp_path / "c.csv", CONTENT, [("p0", "g0", "0.5")]),
        "truth": _write_csv(tmp_path / "t.csv", TRUTH, [("p0", "g0")]),
    }
    for name, path in files.items():
        bad = tmp_path / f"bad_{name}.csv"
        bad.write_bytes(Path(path).read_bytes())
        args = {**files, "after": files["before"], name: _with_ff(bad)}
        argv = ["stats"] + [f"--{key}={value}" for key, value in args.items()]
        assert main(argv) == 3, name
        assert f"bad_{name}.csv: not UTF-8" in capsys.readouterr().err


def test_cli_train_rank_postrank_aggregate_stats(tmp_path, capsys):
    config_path = build_synthetic_dataset(
        tmp_path / "d", seeds=(0,), n_ids=14, n_cues=2, best_n=False, pca_dim=8
    )
    work = tmp_path / "work"
    work.mkdir()
    model_path = work / "r1.simw"
    assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model_path)]) == 0
    assert model_path.exists()

    rank_csv = work / "r1.csv"
    code = main([
        "rank", "-c", str(config_path), "--rep", "R1",
        "--model", str(model_path), "--out", str(rank_csv),
    ])
    assert code == 0
    rankings, probes, galleries = load_rankings_csv(rank_csv)
    assert len(rankings) == len(probes)
    assert sorted(rankings[0].order.tolist()) == list(range(len(galleries)))

    post_dir = work / "post"
    assert main([
        "postrank", "-c", str(config_path), "--rep", "R1", "--out", str(post_dir),
    ]) == 0
    for name in ("R1_initial.csv", "R1_postranked.csv", "R1_content.csv", "R1_truth.csv"):
        assert (post_dir / name).exists()

    rank2_csv = work / "r2.csv"
    assert main(["rank", "-c", str(config_path), "--rep", "R2", "--out", str(rank2_csv)]) == 0
    agg_csv = work / "agg.csv"
    assert main(["aggregate", str(rank_csv), str(rank2_csv), "--out", str(agg_csv)]) == 0
    combined, probes_c, galleries_c = load_rankings_csv(agg_csv)
    assert probes_c == probes and galleries_c == galleries

    assert main([
        "stats",
        "--before", str(post_dir / "R1_initial.csv"),
        "--after", str(post_dir / "R1_postranked.csv"),
        "--content", str(post_dir / "R1_content.csv"),
        "--truth", str(post_dir / "R1_truth.csv"),
    ]) == 0
    out = capsys.readouterr().out
    assert "unchanged" in out


def _image_dataset(tmp_path):
    """Three identities of random 48x128 PPM images with PGM masks in imgs/."""
    rng = np.random.default_rng(0)
    data = tmp_path / "imgs"
    data.mkdir()
    records = []
    for pid in range(3):
        for cam in ("A", "B"):
            image_id = f"{cam.lower()}{pid}"
            records.append(ImageRecord(image_id, pid, cam))
            img = rng.integers(0, 256, size=(128, 48, 3), dtype=np.uint8)
            save_ppm(img, data / f"{image_id}.ppm")
            save_pgm(rng.integers(0, 256, size=(128, 48), dtype=np.uint8), data / f"{image_id}.pgm")
    save_identities(records, tmp_path / "identities.csv")
    config_path = tmp_path / "c.ini"
    config_path.write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        "[features]\ncomputed_cues = C1\n"
        "[eval]\nrepresentations = F0\n"
    )
    return config_path


def test_cli_extract_round_trip(tmp_path):
    config_path = _image_dataset(tmp_path)
    out_dir = tmp_path / "feats"
    assert main(["extract", "-c", str(config_path), "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.glob("*.feat"))
    assert names == [
        "C1_global.feat",
        "C1_local_r0.feat",
        "C1_local_r1.feat",
        "C1_local_r2.feat",
        "C1_local_r3.feat",
    ]
    matrix = load_feature_matrix(out_dir / "C1_global.feat")
    assert matrix.shape == (6, 165 * (512 + 9))
    norms = np.linalg.norm(matrix, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


@pytest.mark.parametrize("regions", [0, -1])
def test_cli_regions_below_one_is_exit_2(tmp_path, capsys, regions):
    config_path = _image_dataset(tmp_path)
    config_path.write_text(
        config_path.read_text().replace("[features]\n", f"[features]\nregions = {regions}\n")
    )
    out_dir = tmp_path / "feats"
    assert main(["extract", "-c", str(config_path), "--out", str(out_dir)]) == 2
    assert f"regions must be at least 1, got {regions}" in capsys.readouterr().err
    assert not out_dir.exists()
    assert main(["eval", "-c", str(config_path)]) == 2
    assert f"regions must be at least 1, got {regions}" in capsys.readouterr().err


def test_cli_zero_size_mask_is_exit_3(tmp_path, capsys):
    config_path = _image_dataset(tmp_path)
    (tmp_path / "imgs" / "a0.pgm").write_bytes(b"P5\n0 0\n255\n")
    assert main(["extract", "-c", str(config_path), "--out", str(tmp_path / "feats")]) == 3
    assert "a0.pgm" in capsys.readouterr().err
    assert main(["eval", "-c", str(config_path)]) == 3
    assert "a0.pgm" in capsys.readouterr().err


def test_cli_wrong_size_image_is_exit_3(tmp_path, capsys):
    config_path = _image_dataset(tmp_path)
    save_ppm(np.zeros((100, 50, 3), dtype=np.uint8), tmp_path / "imgs" / "a0.ppm")
    assert main(["extract", "-c", str(config_path), "--out", str(tmp_path / "feats")]) == 3
    assert "a0.ppm: expected a 48x128 image, got 50x100" in capsys.readouterr().err
    assert main(["eval", "-c", str(config_path)]) == 3
    assert "a0.ppm: expected a 48x128 image, got 50x100" in capsys.readouterr().err


def test_cli_missing_image_is_exit_3(tmp_path, capsys):
    config_path = _image_dataset(tmp_path)
    (tmp_path / "imgs" / "b1.ppm").unlink()
    assert main(["extract", "-c", str(config_path), "--out", str(tmp_path / "feats")]) == 3
    assert "b1.ppm: cannot read" in capsys.readouterr().err
    assert main(["eval", "-c", str(config_path)]) == 3
    assert "b1.ppm: cannot read" in capsys.readouterr().err


def test_cli_eval_identities_without_records_is_exit_3(tmp_path, capsys):
    config_path = _image_dataset(tmp_path)
    (tmp_path / "identities.csv").write_text("image_id,person_id,camera\n")
    assert main(["eval", "-c", str(config_path)]) == 3
    assert "identities.csv: no identity records" in capsys.readouterr().err


def test_cli_extract_identities_without_records_is_exit_3(tmp_path, capsys):
    config_path = _image_dataset(tmp_path)
    (tmp_path / "identities.csv").write_text("image_id,person_id,camera\n")
    out_dir = tmp_path / "feats"
    assert main(["extract", "-c", str(config_path), "--out", str(out_dir)]) == 3
    assert "identities.csv: no identity records" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_postrank_fallback_is_reported(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=14, pca_dim=4)
    trained_dir, single_dir = tmp_path / "trained", tmp_path / "single"
    assert main(["postrank", "-c", str(config_path), "--rep", "R1", "--out", str(trained_dir)]) == 0
    trained = capsys.readouterr()
    assert trained.err == ""

    # a window of 2 makes every content set a singleton: nothing to train on
    single = Path(config_path).with_name("single.ini")
    single.write_text(Path(config_path).read_text().replace("[postrank]\n", "[postrank]\nwindow = 2\n"))
    assert main(["postrank", "-c", str(single), "--rep", "R1", "--out", str(single_dir)]) == 0
    fallback = capsys.readouterr()
    assert fallback.err.count("\n") == 1 and fallback.err.startswith("R1: ")
    assert fallback.out == trained.out.replace(str(trained_dir), str(single_dir))
    initial = (single_dir / "R1_initial.csv").read_bytes()
    assert (single_dir / "R1_postranked.csv").read_bytes() == initial


def test_cli_stage_commands_ignore_the_postrank_flag(tmp_path, capsys):
    # postrank always post-ranks and train and rank never do, whatever
    # [postrank] enabled says: each command's outputs match across the flag
    outputs = {}
    for enabled in (True, False):
        root = tmp_path / str(enabled)
        config = str(build_synthetic_dataset(
            root / "d", seeds=(0,), n_ids=16, pca_dim=8, postrank=enabled
        ))
        for argv in (
            ["train", "--out", str(root / "R1.simw")],
            ["rank", "--out", str(root / "R1.csv")],
            ["postrank", "--out", str(root / "post")],
        ):
            assert main([argv[0], "-c", config, "--rep", "R1", *argv[1:]]) == 0
        assert "not trainable" not in capsys.readouterr().err
        outputs[enabled] = {
            path.relative_to(root): path.read_bytes()
            for path in [root / "R1.simw", root / "R1.csv", *sorted((root / "post").iterdir())]
        }
    assert outputs[False] == outputs[True]
    post = outputs[True]
    assert post[Path("post/R1_postranked.csv")] != post[Path("post/R1_initial.csv")]


def test_cli_train_reports_convergence_on_stderr(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=10, pca_dim=4)
    model_path = tmp_path / "r1.simw"
    assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {model_path}\n"
    (line,) = captured.err.splitlines()
    rep, iterations, _, label, reason = line.split()
    assert rep == "R1:" and int(iterations) > 0 and label == "stop_reason"
    assert reason in ("converged", "max_iters", "line_search", "zero_gradient")

    # the line reads the model the command trained and saved
    config = replace(load_config(config_path), postrank_enabled=False)
    run = run_single_rep(config, "R1", 0).per_rep["R1"]
    assert line == f"R1: {run.model.iterations} iterations, stop_reason {run.model.stop_reason}"
    again = tmp_path / "again.simw"
    save_model(run.model, again)
    assert again.read_bytes() == model_path.read_bytes()


def test_cli_model_for_other_representation_is_exit_3(tmp_path, capsys):
    config_path = build_synthetic_dataset(tmp_path / "d", seeds=(0,), n_ids=10, pca_dim=4)
    model_path = tmp_path / "r1.simw"
    assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model_path)]) == 0
    code = main([
        "rank", "-c", str(config_path), "--rep", "R2",
        "--model", str(model_path), "--out", str(tmp_path / "r2.csv"),
    ])
    assert code == 3
    assert "do not match R2" in capsys.readouterr().err


def test_cli_module_entry_point():
    # the child imports reidpipe from where this process did, with or without
    # PYTHONPATH set for the test run
    src = str(Path(reidpipe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "reidpipe", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "extract" in proc.stdout and "aggregate" in proc.stdout
