"""Deterministic inputs for the pipeline benchmark, keyed by workload and seed.

``make_inputs(workload, seed, root)`` writes every file a workload reads -- the
identities CSV, FEAT cue matrices, PPM images with PGM masks, SIMW models --
plus the INI config, and returns the config path. The same workload and seed
give byte-identical files; another seed gives different ones. The benchmark
calls this in its parent process, so generation is never inside a measured
workload process.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from reidpipe.datamodel import (
    ImageRecord,
    save_feature_matrix,
    save_identities,
    save_pgm,
    save_ppm,
)
from reidpipe.simlearn import SimilarityModel, save_model

WORKLOADS = ("ingested316", "images", "gallery")

# ingested316: VIPeR-sized, three ingested GL cues, full eval protocol.
ING_IDS = 316
ING_GROUP = 8  # identities share an appearance group so DCIA content sets exceed 1
ING_CUES = 3
ING_WIDTH = {"global": 400, "local": 150}
ING_GROUP_SPREAD = 0.55  # identity offset from its group centre
ING_VIEW_NOISE = 0.45  # camera-view offset from the identity centre

# images: computed cues C1-C6 from synthetic 48x128 PPM images with PGM masks.
IMG_IDS = 20
IMG_PALETTE = 3  # few stripe colours, so identities collide and top-1 stays below 1
IMG_COLORS = np.array([[190.0, 70.0, 60.0], [70.0, 150.0, 80.0], [80.0, 90.0, 190.0]])
IMG_STRIPES = 4
IMG_CHANGED = 7
IMG_TEXTURE = 28.0
IMG_NOISE = 12.0

# gallery: frozen SIMW models, CLI rank x 4 plus aggregate.
GAL_IDS = 600
GAL_CUES = 4
GAL_WIDTH = {"global": 256, "local": 128}
GAL_PCA = 120
GAL_VIEW_NOISE = 2.5
GAL_BILINEAR = 0.02

PROTOCOL_SEED = 0

# FEAT file suffix -> block scope, for a global and four stripe blocks per cue
BLOCKS = {"global": "G", **{f"local_r{r}": f"r{r}" for r in range(4)}}


def _population(workload: str) -> np.random.Generator:
    """The identities' appearance: one draw per workload, the same for every
    seed, so the seed varies the captured views and not how hard the
    gallery is."""
    return np.random.default_rng([WORKLOADS.index(workload)])


def _two_view_records(n_ids: int) -> list[ImageRecord]:
    return [
        ImageRecord(f"{cam.lower()}{pid:03d}", pid, cam)
        for pid in range(n_ids)
        for cam in "AB"
    ]


def _write_config(root: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
        lines.append("")
    path = root / "config.ini"
    path.write_text("\n".join(lines))
    return path


def _ingested316(root: Path, rng: np.random.Generator) -> Path:
    records = _two_view_records(ING_IDS)
    save_identities(records, root / "identities.csv")
    population = _population("ingested316")
    n_groups = -(-ING_IDS // ING_GROUP)
    group_of = population.permutation(np.arange(ING_IDS) % n_groups)
    for k in range(1, ING_CUES + 1):
        for block in BLOCKS:
            width = ING_WIDTH["global" if block == "global" else "local"]
            groups = population.standard_normal((n_groups, width))
            ids = groups[group_of] + ING_GROUP_SPREAD * population.standard_normal((ING_IDS, width))
            views = np.repeat(ids, 2, axis=0)
            views += ING_VIEW_NOISE * rng.standard_normal(views.shape)
            save_feature_matrix(views.astype(np.float32), root / f"S{k}_{block}.feat")
    cues = {f"S{k}": "GL" for k in range(1, ING_CUES + 1)}
    reps = {f"R{k}": f"S{k}:GL" for k in range(1, ING_CUES + 1)}
    return _write_config(root, {
        "data": {"identities": "identities.csv", "features_dir": "."},
        "cues": cues,
        "representations": reps,
        "features": {"pca_dim": 24},
        "eval": {"seeds": PROTOCOL_SEED, "representations": ",".join(reps),
                 "report_dir": "report"},
    })


def _person_image(rng, colors, frequency, gain) -> tuple[np.ndarray, np.ndarray]:
    """One 128x48 view: a striped figure with an identity texture on noise."""
    h, w = 128, 48
    img = rng.integers(0, 256, size=(h, w, 3)).astype(np.float64) * 0.35 + 60.0
    mask = np.zeros((h, w), dtype=np.uint8)
    x0, x1 = 10 + int(rng.integers(0, 4)), 38 - int(rng.integers(0, 4))
    bounds = np.linspace(4, h - 4, IMG_STRIPES + 1).astype(int)
    cols = np.arange(x1 - x0)
    for s in range(IMG_STRIPES):
        y0, y1 = bounds[s], bounds[s + 1]
        rows = np.arange(y1 - y0)[:, None]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        pattern = IMG_TEXTURE * np.sin(frequency[s, 0] * cols[None, :] + frequency[s, 1] * rows + phase)
        img[y0:y1, x0:x1] = colors[s] * gain + pattern[..., None]
        mask[y0:y1, x0:x1] = 255
    img += IMG_NOISE * rng.standard_normal(img.shape)
    return np.clip(img, 0, 255).astype(np.uint8), mask


def _images(root: Path, rng: np.random.Generator) -> Path:
    records = _two_view_records(IMG_IDS)
    save_identities(records, root / "identities.csv")
    imgs = root / "imgs"
    imgs.mkdir()
    for pid in range(IMG_IDS):
        # Identities pair up on one stripe-colour code and differ only in
        # texture; every IMG_CHANGED-th identity wears other colours in
        # camera B. Codes and texture frequencies depend on the identity
        # alone, so how hard the gallery is stays the same across seeds;
        # the seed draws the noise, background, gain, phase and placement.
        frequency = np.column_stack([
            0.2 + 1.4 * ((pid * 5 + np.arange(IMG_STRIPES) * 3) % 11) / 11,
            0.6 * ((pid * 3 + np.arange(IMG_STRIPES)) % 7) / 7,
        ])
        for cam in "AB":
            code = (pid // 2) * 7 + (cam == "B" and pid % IMG_CHANGED == 3) * 13
            digits = [code // IMG_PALETTE**s % IMG_PALETTE for s in range(IMG_STRIPES)]
            gain = rng.uniform(0.85, 1.15)
            img, mask = _person_image(rng, IMG_COLORS[digits], frequency, gain)
            image_id = f"{cam.lower()}{pid:03d}"
            save_ppm(img, imgs / f"{image_id}.ppm")
            save_pgm(mask, imgs / f"{image_id}.pgm")
    return _write_config(root, {
        "data": {"identities": "identities.csv", "images_dir": "imgs", "masks_dir": "imgs"},
        "features": {"computed_cues": "C1,C2,C3,C4,C5,C6", "pca_dim": 16},
        "representations": {"SC": "C5:GL, C6:GL"},
        "postrank": {"enabled": "false"},
        "rankagg": {"best_n": "false"},
        "eval": {"seeds": PROTOCOL_SEED, "representations": "F0,SC", "report_dir": "report"},
    })


def _gallery(root: Path, rng: np.random.Generator) -> Path:
    records = _two_view_records(GAL_IDS)
    save_identities(records, root / "identities.csv")
    population = _population("gallery")
    for k in range(1, GAL_CUES + 1):
        for block in BLOCKS:
            width = GAL_WIDTH["global" if block == "global" else "local"]
            ids = population.standard_normal((GAL_IDS, width))
            views = np.repeat(ids, 2, axis=0)
            views += GAL_VIEW_NOISE * rng.standard_normal(views.shape)
            save_feature_matrix(views.astype(np.float32), root / f"S{k}_{block}.feat")
    for k in range(1, GAL_CUES + 1):
        blocks = {}
        for scope in BLOCKS.values():
            noise = rng.standard_normal((GAL_PCA, GAL_PCA))
            w_b = GAL_BILINEAR * (noise + noise.T) / 2.0
            blocks[(f"S{k}", scope)] = (-np.eye(GAL_PCA), w_b)
        save_model(SimilarityModel(f"R{k}", 1.1, 0.0, blocks), root / f"R{k}.simw")
    return _write_config(root, {
        "data": {"identities": "identities.csv", "features_dir": "."},
        "cues": {f"S{k}": "GL" for k in range(1, GAL_CUES + 1)},
        "representations": {f"R{k}": f"S{k}:GL" for k in range(1, GAL_CUES + 1)},
        "features": {"pca_dim": GAL_PCA},
    })


def make_inputs(workload: str, seed: int, root: str | Path) -> Path:
    """Write the inputs of ``workload`` for ``seed`` under an empty ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=False)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    build = {"ingested316": _ingested316, "images": _images, "gallery": _gallery}[workload]
    return build(root, rng)
