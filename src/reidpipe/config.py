"""Experiment configuration: defaults, INI-file loading and validation.

The config file is line-oriented ``key = value`` with one section per
module, e.g.::

    [data]
    identities = data/identities.csv
    features_dir = data/features

    [cues]
    C7 = G

    [eval]
    seeds = 0,1,2
    representations = F1

The sections and keys are those :func:`load_config` takes; any other is a
ConfigError naming it. Only ``[cues]`` and ``[representations]`` take free
keys, the cue and representation names they define.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .features import N_STRIPES, PCA_DIM
from .postrank import ENERGY, K_COMMON, WINDOW
from .rankagg import N_MAX
from .simlearn import GAMMA_DEFAULT, NEG_RATIO, TABLE1, Representation, TrainConfig

DEFAULT_SEEDS = tuple(range(10))

# Each tuning value's field: its config key, its range [lo, hi] and that
# range in words. Energy's range opens at 0, so its lo is the least positive
# float.
_RANGES = {
    "pca_dim": ("pca_dim", 1, math.inf, "at least 1"),
    "n_regions": ("regions", 1, math.inf, "at least 1"),
    "neg_ratio": ("neg_ratio", 1, math.inf, "at least 1"),
    "n_max": ("n_max", 2, math.inf, "at least 2"),
    "max_iters": ("max_iters", 1, math.inf, "at least 1"),
    "k_common": ("K", 1, math.inf, "at least 1"),
    "window": ("window", 1, math.inf, "at least 1"),
    "gamma": ("gamma", 0.0, sys.float_info.max, "finite and at least 0"),
    "lam": ("lambda", 0.0, sys.float_info.max, "finite and at least 0"),
    "energy": ("energy", math.ulp(0.0), 1.0, "in (0, 1]"),
    "mask_blend": ("mask_blend", 0.0, 1.0, "in [0, 1]"),
}


@dataclass
class ExperimentConfig:
    identities: Path | None = None
    images_dir: Path | None = None
    masks_dir: Path | None = None
    features_dir: Path | None = None
    computed_cues: tuple[str, ...] = ()
    masked_cues: tuple[str, ...] = ("C5", "C6")
    ingested_cues: dict[str, tuple[str, ...]] = field(default_factory=dict)
    representations: tuple[str, ...] = ("F0",)
    custom_reps: dict[str, dict[str, str]] = field(default_factory=dict)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    gamma: float = GAMMA_DEFAULT
    pca_dim: int = PCA_DIM
    n_regions: int = N_STRIPES
    k_common: int = K_COMMON
    energy: float = ENERGY
    window: int = WINDOW
    lam: float = TrainConfig.lam
    max_iters: int = TrainConfig.max_iters
    neg_ratio: int = NEG_RATIO
    mask_blend: float = 0.0
    postrank_enabled: bool = True
    best_n_enabled: bool = True
    n_max: int = N_MAX
    report_dir: Path = Path("report")

    def __post_init__(self):
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if not self.representations:
            raise ConfigError("at least one representation is required")
        for name, (key, lo, hi, words) in _RANGES.items():
            value = getattr(self, name)
            if not lo <= value <= hi:  # NaN is in no range
                raise ConfigError(f"{key} must be {words}, got {value}")
        for rep in self.representations:
            self.representation(rep)

    def representation(self, rep_id: str) -> Representation:
        if rep_id in TABLE1:
            return Representation.from_table(rep_id, n_regions=self.n_regions)
        if rep_id in self.custom_reps:
            return Representation(
                rep_id=rep_id,
                cue_scopes=dict(self.custom_reps[rep_id]),
                n_regions=self.n_regions,
            )
        raise ConfigError(f"unknown representation {rep_id!r}")


def _split_tokens(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_cue_scopes(raw: str, rep_id: str) -> dict[str, str]:
    scopes: dict[str, str] = {}
    for token in _split_tokens(raw):
        if ":" not in token:
            raise ConfigError(f"representation {rep_id}: expected cue:scope, got {token!r}")
        cue, scope = token.split(":", 1)
        scopes[cue.strip()] = scope.strip()
    if not scopes:
        raise ConfigError(f"representation {rep_id}: empty cue list")
    return scopes


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # cue names are case-sensitive
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    base = path.parent

    def resolve(raw: str) -> Path:
        p = Path(raw.strip())
        return p if p.is_absolute() else base / p

    kwargs: dict = {}
    known: dict[str, set[str]] = {}

    def take(section: str, key: str, parse) -> None:
        known.setdefault(section, set()).add(key)
        if parser.has_option(section, key):
            kwargs_key, convert = parse
            try:
                kwargs[kwargs_key] = convert(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc

    take("data", "identities", ("identities", resolve))
    take("data", "images_dir", ("images_dir", resolve))
    take("data", "masks_dir", ("masks_dir", resolve))
    take("data", "features_dir", ("features_dir", resolve))
    take("features", "pca_dim", ("pca_dim", int))
    take("features", "regions", ("n_regions", int))
    take("features", "mask_blend", ("mask_blend", float))
    take("features", "computed_cues", ("computed_cues", lambda v: tuple(_split_tokens(v))))
    take("features", "masked_cues", ("masked_cues", lambda v: tuple(_split_tokens(v))))
    take("simlearn", "gamma", ("gamma", float))
    take("simlearn", "lambda", ("lam", float))
    take("simlearn", "max_iters", ("max_iters", int))
    take("simlearn", "neg_ratio", ("neg_ratio", int))
    take("postrank", "enabled", ("postrank_enabled", lambda v: _parse_bool(v, "postrank.enabled")))
    take("postrank", "K", ("k_common", int))
    take("postrank", "energy", ("energy", float))
    take("postrank", "window", ("window", int))
    take("rankagg", "best_n", ("best_n_enabled", lambda v: _parse_bool(v, "rankagg.best_n")))
    take("rankagg", "n_max", ("n_max", int))
    take(
        "eval",
        "seeds",
        ("seeds", lambda v: tuple(int(tok) for tok in _split_tokens(v))),
    )
    take("eval", "representations", ("representations", lambda v: tuple(_split_tokens(v))))
    take("eval", "report_dir", ("report_dir", resolve))

    free = ("cues", "representations")  # their keys name cues and representations
    unknown = [f"[{s}]" for s in parser.sections() if s not in known and s not in free]
    if parser.defaults():
        unknown.insert(0, f"[{parser.default_section}]")
    unknown += [
        f"[{s}] {key}"
        for s in known
        if parser.has_section(s)
        for key in parser[s]
        if key not in known[s]
    ]
    if unknown:
        raise ConfigError(f"{path}: unknown config section or key: {', '.join(unknown)}")

    if parser.has_section("cues"):
        kwargs["ingested_cues"] = {
            cue: tuple(_split_tokens(raw)) for cue, raw in parser["cues"].items()
        }
    if parser.has_section("representations"):
        kwargs["custom_reps"] = {
            rep_id: _parse_cue_scopes(raw, rep_id)
            for rep_id, raw in parser["representations"].items()
        }
    return ExperimentConfig(**kwargs)
