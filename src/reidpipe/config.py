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

Each key of a fixed section is one entry of :data:`KEYS`: the
``ExperimentConfig`` field it sets, how its text is read and, for a
range-checked field, its range. :func:`load_config` reads every key through
that table, and ``ExperimentConfig`` checks every range from it. A value
that cannot be read is a ConfigError naming the file, section and key; a
section or key that is not in the table is a ConfigError naming it. Only
``[cues]`` and ``[representations]`` take free keys, the cue and
representation names they define: an ingested cue's scopes are G, L or GL,
with no block scope twice, and a custom representation, listed in
``[eval]`` or not, gives each cue once with a valid scope and does not
reuse a built-in name (F0-F12). ``[DEFAULT]`` is an unknown section too.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .features import CUE_IDS, N_STRIPES, PCA_DIM
from .postrank import ENERGY, K_COMMON, WINDOW
from .rankagg import N_MAX
from .simlearn import GAMMA_DEFAULT, NEG_RATIO, SCOPES, TABLE1, Representation, TrainConfig

DEFAULT_SEEDS = tuple(range(10))


def _names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _names(raw))


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# A range [lo, hi] and that range in words.
_AT_LEAST_1 = (1, math.inf, "at least 1")
_FINITE = (0.0, sys.float_info.max, "finite and at least 0")

# Each key of the fixed sections: the ExperimentConfig field it sets, how its
# text is read (a Path relative to the config file's directory) and, for a
# range-checked field, its range. Energy's range opens at 0, so its lo is the
# least positive float.
KEYS: dict[tuple[str, str], tuple] = {
    ("data", "identities"): ("identities", Path, None),
    ("data", "images_dir"): ("images_dir", Path, None),
    ("data", "masks_dir"): ("masks_dir", Path, None),
    ("data", "features_dir"): ("features_dir", Path, None),
    ("features", "pca_dim"): ("pca_dim", int, _AT_LEAST_1),
    ("features", "regions"): ("n_regions", int, _AT_LEAST_1),
    ("features", "mask_blend"): ("mask_blend", float, (0.0, 1.0, "in [0, 1]")),
    ("features", "computed_cues"): ("computed_cues", _names, None),
    ("features", "masked_cues"): ("masked_cues", _names, None),
    ("simlearn", "gamma"): ("gamma", float, _FINITE),
    ("simlearn", "lambda"): ("lam", float, _FINITE),
    ("simlearn", "max_iters"): ("max_iters", int, _AT_LEAST_1),
    ("simlearn", "neg_ratio"): ("neg_ratio", int, _AT_LEAST_1),
    ("postrank", "enabled"): ("postrank_enabled", _bool, None),
    ("postrank", "K"): ("k_common", int, _AT_LEAST_1),
    ("postrank", "energy"): ("energy", float, (math.ulp(0.0), 1.0, "in (0, 1]")),
    ("postrank", "window"): ("window", int, _AT_LEAST_1),
    ("rankagg", "best_n"): ("best_n_enabled", _bool, None),
    ("rankagg", "n_max"): ("n_max", int, (2, math.inf, "at least 2")),
    ("eval", "seeds"): ("seeds", _ints, None),
    ("eval", "representations"): ("representations", _names, None),
    ("eval", "report_dir"): ("report_dir", Path, None),
}
# Their keys name cues and representations.
FREE_SECTIONS = ("cues", "representations")


@dataclass(frozen=True)
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
        for key in ("seeds", "representations", "computed_cues"):
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise ConfigError(f"{key} must be distinct")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if not self.representations:
            raise ConfigError("at least one representation is required")
        for key in ("computed_cues", "masked_cues"):
            unknown = [cue for cue in getattr(self, key) if cue not in CUE_IDS]
            if unknown:
                raise ConfigError(f"{key}: unknown cue {unknown[0]!r}, expected C1-C6")
        for cue in self.computed_cues:
            if cue in self.ingested_cues:
                raise ConfigError(f"cue {cue} is both computed and ingested")
        for cue, scopes in self.ingested_cues.items():
            for scope in scopes:
                if scope not in SCOPES:
                    raise ConfigError(f"cue {cue}: invalid scope {scope!r}, expected G, L or GL")
            if len(set("".join(scopes))) < len("".join(scopes)):  # G, GL holds G twice
                raise ConfigError(f"cue {cue}: a scope is listed twice in {', '.join(scopes)}")
        for rep_id in self.custom_reps:
            if rep_id in TABLE1:
                raise ConfigError(f"representation {rep_id}: F0-F12 are built in")
        for (_, key), (name, _, bounds) in KEYS.items():
            value = getattr(self, name)
            if bounds and not bounds[0] <= value <= bounds[1]:  # NaN is in no range
                raise ConfigError(f"{key} must be {bounds[2]}, got {value}")
        for rep in (*self.representations, *self.custom_reps):
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


def _parse_cue_scopes(raw: str, rep_id: str) -> dict[str, str]:
    scopes: dict[str, str] = {}
    for token in _names(raw):
        if ":" not in token:
            raise ConfigError(f"representation {rep_id}: expected cue:scope, got {token!r}")
        cue, scope = (part.strip() for part in token.split(":", 1))
        if cue in scopes:
            raise ConfigError(f"representation {rep_id}: cue {cue} listed twice")
        scopes[cue] = scope
    if not scopes:
        raise ConfigError(f"representation {rep_id}: empty cue list")
    return scopes


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # no section holds defaults for the others: [DEFAULT] is an unknown one
    parser = configparser.ConfigParser(default_section="")
    parser.optionxform = str  # cue names are case-sensitive
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    kwargs: dict = {}
    for (section, key), (name, read, _) in KEYS.items():
        if parser.has_option(section, key):
            try:
                value = read(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc
            kwargs[name] = path.parent / value if read is Path else value

    sections = {section for section, _ in KEYS}
    free = sections.union(FREE_SECTIONS)
    unknown = [f"[{s}]" for s in parser.sections() if s not in free]
    unknown += [
        f"[{s}] {key}"
        for s in parser.sections()
        if s in sections
        for key in parser[s]
        if (s, key) not in KEYS
    ]
    if unknown:
        raise ConfigError(f"{path}: unknown config section or key: {', '.join(unknown)}")

    if parser.has_section("cues"):
        kwargs["ingested_cues"] = {cue: _names(raw) for cue, raw in parser["cues"].items()}
    if parser.has_section("representations"):
        kwargs["custom_reps"] = {
            rep_id: _parse_cue_scopes(raw, rep_id)
            for rep_id, raw in parser["representations"].items()
        }
    return ExperimentConfig(**kwargs)
