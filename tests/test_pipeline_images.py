"""End-to-end runs over real image files: extraction through report."""

import numpy as np
import pytest

from conftest import write_color_dataset
from reidpipe.cli import main
from reidpipe.datamodel import ImageRecord, save_identities
from reidpipe.config import load_config
from reidpipe.experiment import run_experiment


def test_eval_on_computed_baseline_cues(tmp_path):
    write_color_dataset(tmp_path)
    (tmp_path / "c.ini").write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        "[features]\ncomputed_cues = C1,C2,C3,C4\npca_dim = 6\n"
        "[rankagg]\nbest_n = false\n"
        "[eval]\nseeds = 0\nrepresentations = F0\nreport_dir = rep\n"
    )
    assert main(["eval", "-c", str(tmp_path / "c.ini")]) == 0
    report_dir = tmp_path / "rep"
    summary = (report_dir / "summary.txt").read_text()
    assert "F0" in summary
    top1_rows = (report_dir / "top1.csv").read_text().strip().splitlines()[1:]
    initial_top1 = float(top1_rows[0].split(",")[-1])
    assert initial_top1 >= 0.75  # color identities are nearly separable


def test_eval_on_masked_scncd_cues(tmp_path):
    write_color_dataset(tmp_path, n_ids=6)
    (tmp_path / "c.ini").write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        "[features]\ncomputed_cues = C5,C6\npca_dim = 4\n"
        "[representations]\nSC = C5:GL, C6:L\n"
        "[rankagg]\nbest_n = false\n"
        "[postrank]\nenabled = false\n"
        "[eval]\nseeds = 0\nrepresentations = SC\nreport_dir = rep\n"
    )
    assert main(["eval", "-c", str(tmp_path / "c.ini")]) == 0
    assert (tmp_path / "rep" / "cmc.csv").exists()


def test_extracted_cues_reingest_equivalently(tmp_path):
    # computing cues inline and ingesting previously extracted FEAT files
    # must give the same rankings up to float32 storage precision
    write_color_dataset(tmp_path, n_ids=6, with_masks=False)
    base = (
        "[data]\nidentities = identities.csv\nimages_dir = imgs\n"
        "{cues}"
        "[features]\n{computed}pca_dim = 4\n"
        "[rankagg]\nbest_n = false\n"
        "[postrank]\nenabled = false\n"
        "[eval]\nseeds = 0\nrepresentations = {rep}\nreport_dir = {out}\n"
    )
    (tmp_path / "computed.ini").write_text(
        base.format(cues="", computed="computed_cues = C2\n", rep="F0X", out="rep1")
        + "\n[representations]\nF0X = C2:GL\n"
    )
    extract_cfg = tmp_path / "extract.ini"
    extract_cfg.write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nfeatures_dir = feats\n"
        "[features]\ncomputed_cues = C2\n"
        "[eval]\nrepresentations = F0\n"
    )
    assert main(["extract", "-c", str(extract_cfg)]) == 0
    (tmp_path / "ingested.ini").write_text(
        base.format(
            cues="features_dir = feats\n[cues]\nC2 = GL\n",
            computed="",
            rep="F0X",
            out="rep2",
        )
        + "\n[representations]\nF0X = C2:GL\n"
    )
    report1 = run_experiment(load_config(tmp_path / "computed.ini"))
    report2 = run_experiment(load_config(tmp_path / "ingested.ini"))
    np.testing.assert_allclose(
        report1.cmc_initial["F0X"].rates,
        report2.cmc_initial["F0X"].rates,
        atol=1e-6,
    )


def test_readme_quickstart(tmp_path):
    rng = np.random.default_rng(0)
    records, rows = [], []
    centers = rng.standard_normal((20, 16))
    for pid in range(20):
        for cam in "AB":
            records.append(ImageRecord(f"{cam.lower()}{pid:02d}", pid, cam))
            rows.append(centers[pid] + 0.1 * rng.standard_normal(16))
    save_identities(records, tmp_path / "identities.csv")
    from reidpipe.datamodel import save_feature_matrix

    save_feature_matrix(
        np.asarray(rows, dtype=np.float32), tmp_path / "S1_global.feat"
    )
    (tmp_path / "config.ini").write_text(
        "[data]\nidentities = identities.csv\nfeatures_dir = .\n"
        "[cues]\nS1 = G\n"
        "[representations]\nR1 = S1:G\n"
        "[features]\npca_dim = 10\n"
        "[eval]\nseeds = 0,1,2\nrepresentations = R1\nreport_dir = report\n"
    )
    assert main(["eval", "-c", str(tmp_path / "config.ini")]) == 0
    summary = (tmp_path / "report" / "summary.txt").read_text()
    assert "R1" in summary
