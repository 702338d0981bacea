"""Shared synthetic dataset builders for integration tests."""

from pathlib import Path

import numpy as np
import pytest

from reidpipe.datamodel import (
    ImageRecord,
    save_feature_matrix,
    save_identities,
    save_pgm,
    save_ppm,
)


def build_synthetic_dataset(
    root: Path,
    n_ids: int = 40,
    dim: int | tuple[int, ...] = 25,
    n_cues: int = 3,
    noise: float = 0.25,
    seed: int = 12345,
    seeds=(0, 1),
    postrank: bool = True,
    best_n: bool = True,
    pca_dim: int = 20,
    extra_config: str = "",
) -> Path:
    """Write a two-view Gaussian-cluster dataset with ingested global cues.

    Identities are well-separated cluster centers; each camera view is a
    noisy sample of the center, independently per cue. ``dim`` is every
    cue's width, or one width per cue. Returns the config file path.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    records = []
    for pid in range(n_ids):
        records.append(ImageRecord(f"a{pid:03d}", pid, "A"))
        records.append(ImageRecord(f"b{pid:03d}", pid, "B"))
    save_identities(records, root / "identities.csv")

    cue_names = [f"S{k + 1}" for k in range(n_cues)]
    dims = [dim] * n_cues if isinstance(dim, int) else list(dim)
    for cue, width in zip(cue_names, dims):
        centers = rng.standard_normal((n_ids, width))
        rows = np.empty((2 * n_ids, width), dtype=np.float64)
        for pid in range(n_ids):
            rows[2 * pid] = centers[pid] + noise * rng.standard_normal(width)
            rows[2 * pid + 1] = centers[pid] + noise * rng.standard_normal(width)
        save_feature_matrix(rows.astype(np.float32), root / f"{cue}_global.feat")

    rep_lines = "\n".join(f"R{k + 1} = {cue}:G" for k, cue in enumerate(cue_names))
    cue_lines = "\n".join(f"{cue} = G" for cue in cue_names)
    rep_list = ",".join(f"R{k + 1}" for k in range(n_cues))
    seed_list = ",".join(str(s) for s in seeds)
    config = f"""
[data]
identities = identities.csv
features_dir = .

[cues]
{cue_lines}

[representations]
{rep_lines}

[features]
pca_dim = {pca_dim}

[postrank]
enabled = {"true" if postrank else "false"}

[rankagg]
best_n = {"true" if best_n else "false"}

[eval]
seeds = {seed_list}
representations = {rep_list}
report_dir = report
{extra_config}
"""
    config_path = root / "config.ini"
    config_path.write_text(config)
    return config_path


def write_color_dataset(root, n_ids=8, noise=18.0, seed=0, with_masks=True):
    """Identity-colored images: each person is a noisy constant color."""
    rng = np.random.default_rng(seed)
    imgs = root / "imgs"
    imgs.mkdir(parents=True)
    records = []
    for pid in range(n_ids):
        base = rng.integers(30, 220, size=3)
        for cam in "AB":
            image_id = f"{cam.lower()}{pid}"
            records.append(ImageRecord(image_id, pid, cam))
            img = np.clip(
                base[None, None, :] + rng.normal(0.0, noise, (128, 48, 3)), 0, 255
            ).astype(np.uint8)
            save_ppm(img, imgs / f"{image_id}.ppm")
            if with_masks:
                save_pgm(np.full((128, 48), 255, np.uint8), imgs / f"{image_id}.pgm")
    save_identities(records, root / "identities.csv")


@pytest.fixture
def synthetic_config(tmp_path):
    return build_synthetic_dataset(tmp_path / "data")
