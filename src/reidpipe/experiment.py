"""Experiment orchestration: splits, training, ranking, post-ranking,
aggregation and report generation for the repeated-split CMC protocol."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .datamodel import (
    ForegroundMask,
    ImageRecord,
    load_feature_matrix,
    load_identities,
    load_image,
    load_mask,
    make_split,
    save_feature_matrix,
)
from .errors import ConfigError, DataError
from .evaluation import (
    CmcCurve,
    PostrankStats,
    cmc_curve,
    mean_cmc,
    postrank_stats,
    summarize_postrank_stats,
)
from .features import IMAGE_H, IMAGE_W, extract_cues
from .features import assemble_cue  # noqa: F401  perfbench/layers.py wraps this name
from .features.pca import apply_pca, fit_pca
from .postrank import (
    DciaResult,
    NeighborWindows,
    apply_dcia,
    content_set,
    postrank,
    train_postrank_model,
)
from .rankagg import aggregate, best_n_select
from .simlearn import (
    BlockKey,
    FeatureBank,
    RankingList,
    Representation,
    SimilarityModel,
    TrainConfig,
    rank_gallery,
    sample_pairs,
    score_gallery,
    train_model,
)

_STAGE_FINAL = 0
_STAGE_VALIDATION = 1
_SUBSPLIT_STREAM = 9999

SCOPE_FILENAMES = {"G": "global"}


def scope_filename(scope: str) -> str:
    return SCOPE_FILENAMES.get(scope, f"local_{scope}")


@dataclass
class Dataset:
    """Identity records plus the raw (pre-PCA) descriptor bank."""

    records: list[ImageRecord]
    raw_bank: FeatureBank

    @property
    def row_index(self) -> dict[str, int]:
        return {rec.image_id: i for i, rec in enumerate(self.records)}


def _scope_keys(scopes: tuple[str, ...], n_regions: int) -> list[str]:
    keys: list[str] = []
    for token in scopes:
        if token == "G":
            keys.append("G")
        elif token == "L":
            keys.extend(f"r{r}" for r in range(n_regions))
        elif token == "GL":
            keys.append("G")
            keys.extend(f"r{r}" for r in range(n_regions))
        else:
            raise ConfigError(f"invalid ingested scope {token!r}")
    return keys


def _used_blocks(config: ExperimentConfig) -> set[BlockKey]:
    """The blocks of the run's representations."""
    return {
        key
        for rep_id in config.representations
        for key in config.representation(rep_id).block_keys()
    }


def compute_cue_bank(
    records: list[ImageRecord],
    config: ExperimentConfig,
) -> FeatureBank:
    """Extract the configured hand-crafted cues for every record, each
    block's rows written in place into one preallocated matrix."""
    bank: FeatureBank = {}
    if not config.computed_cues:
        return bank
    if config.images_dir is None:
        raise ConfigError("computed_cues requires images_dir")
    for i, rec in enumerate(records):
        image_path = Path(config.images_dir) / f"{rec.image_id}.ppm"
        image = load_image(image_path)
        if image.shape != (IMAGE_H, IMAGE_W, 3):
            raise DataError(
                f"{image_path}: expected a {IMAGE_W}x{IMAGE_H} image,"
                f" got {image.shape[1]}x{image.shape[0]}"
            )
        mask: ForegroundMask | None = None
        if config.masks_dir is not None:
            mask_path = Path(config.masks_dir) / f"{rec.image_id}.pgm"
            if mask_path.exists():
                mask = load_mask(mask_path)
        descs = extract_cues(
            image,
            config.computed_cues,
            mask,
            masked_cues=config.masked_cues,
            n_stripes=config.n_regions,
            mask_blend=config.mask_blend,
        )
        for cue in config.computed_cues:
            desc = descs[cue]
            scoped = [("G", desc.global_)] + [(f"r{r}", v) for r, v in enumerate(desc.local)]
            for scope, vec in scoped:
                if i == 0:
                    bank[(cue, scope)] = np.empty((len(records), vec.size))
                bank[(cue, scope)][i] = vec
    return bank


def load_ingested_bank(
    records: list[ImageRecord],
    config: ExperimentConfig,
) -> FeatureBank:
    """Load the FEAT files of the ingested blocks the run's representations
    use; rows must align with the records. Other files are not opened."""
    bank: FeatureBank = {}
    if not config.ingested_cues:
        return bank
    if config.features_dir is None:
        raise ConfigError("ingested cues require features_dir")
    used = _used_blocks(config)
    for cue, scopes in config.ingested_cues.items():
        for scope in _scope_keys(scopes, config.n_regions):
            if (cue, scope) not in used:
                continue
            path = Path(config.features_dir) / f"{cue}_{scope_filename(scope)}.feat"
            matrix = load_feature_matrix(path)
            if matrix.rows != len(records) or matrix.cols == 0:
                raise DataError(
                    f"{path}: {matrix.rows}x{matrix.cols} matrix for"
                    f" {len(records)} identity records"
                )
            bank[(cue, scope)] = matrix.values.astype(np.float64)
    return bank


def load_dataset(config: ExperimentConfig) -> Dataset:
    """The records and the raw blocks of the cues the run's representations
    use: only their FEAT files are read and only their cues computed."""
    if config.identities is None:
        raise ConfigError("config is missing [data] identities")
    if not config.ingested_cues and not config.computed_cues:
        raise ConfigError("no cues configured: set computed_cues and/or [cues]")
    records = load_identities(config.identities)
    raw_bank = load_ingested_bank(records, config)
    used_cues = {cue for cue, _ in _used_blocks(config)}
    computed = tuple(cue for cue in config.computed_cues if cue in used_cues)
    raw_bank.update(compute_cue_bank(records, replace(config, computed_cues=computed)))
    return Dataset(records=records, raw_bank=raw_bank)


def extract_to_feat_files(config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """The ``extract`` command: write computed cues as FEAT files."""
    if config.identities is None:
        raise ConfigError("config is missing [data] identities")
    records = load_identities(config.identities)
    bank = compute_cue_bank(records, config)
    if not bank:
        raise ConfigError("no computed_cues configured")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for (cue, scope), matrix in sorted(bank.items()):
        path = out_dir / f"{cue}_{scope_filename(scope)}.feat"
        save_feature_matrix(matrix.astype(np.float32), path)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Per-stage pipeline
# ---------------------------------------------------------------------------

@dataclass
class StageSides:
    """Row indices and labels of the probe (A) and gallery (B) sides."""

    rows_a: np.ndarray
    labels_a: np.ndarray
    rows_b: np.ndarray
    labels_b: np.ndarray


def _side_rows(
    ids: list[int],
    view: dict[int, str],
    row_index: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    rows = [row_index[view[i]] for i in ids]
    return np.asarray(rows, dtype=np.int64), np.asarray(ids, dtype=np.int64)


def _stage_sides(ids: frozenset[int], split, row_index) -> StageSides:
    both = sorted(i for i in ids if i in split.view_a and i in split.view_b)
    ids_b = sorted(i for i in ids if i in split.view_b)
    rows_a, labels_a = _side_rows(both, split.view_a, row_index)
    rows_b, labels_b = _side_rows(ids_b, split.view_b, row_index)
    return StageSides(rows_a=rows_a, labels_a=labels_a, rows_b=rows_b, labels_b=labels_b)


def _stage_rows(sides: StageSides) -> np.ndarray:
    return np.unique(np.concatenate([sides.rows_a, sides.rows_b]))


def _truth_map(labels_a: np.ndarray, labels_b: np.ndarray) -> dict[int, int]:
    gallery_of = {int(label): g for g, label in enumerate(labels_b)}
    return {p: gallery_of[int(label)] for p, label in enumerate(labels_a)}


def reduce_bank(
    raw_bank: FeatureBank, keys: set[tuple[str, str]], fit_rows: np.ndarray, pca_dim: int
) -> FeatureBank:
    """Per-block PCA fit on the training rows, applied to every row, for the
    blocks of ``keys`` the bank holds (a missing one fails where it is used)."""
    reduced: FeatureBank = {}
    for key in sorted(keys & raw_bank.keys()):
        model = fit_pca(raw_bank[key][fit_rows], pca_dim)
        reduced[key] = apply_pca(model, raw_bank[key])
    return reduced


def concat_rep_features(bank: FeatureBank, rep: Representation, rows: np.ndarray) -> np.ndarray:
    """Concatenated per-image vectors over the representation's blocks."""
    return np.hstack([bank[key][rows] for key in rep.block_keys()])


def _sub_bank(bank: FeatureBank, keys, rows: np.ndarray) -> FeatureBank:
    missing = [key for key in keys if key not in bank]
    if missing:
        raise ConfigError(f"descriptor bank is missing blocks: {missing}")
    return {key: bank[key][rows] for key in keys}


@dataclass
class RepStageOutcome:
    model: SimilarityModel
    initial: list[RankingList]
    postranked: list[RankingList]
    contents: list
    postrank_trained: bool


@dataclass
class StageOutcome:
    truth: dict[int, int]
    probe_ids: list[str]
    gallery_ids: list[str]
    per_rep: dict[str, RepStageOutcome] = field(default_factory=dict)


def run_stage(
    dataset: Dataset,
    split,
    fit_ids: frozenset[int],
    eval_ids: frozenset[int],
    config: ExperimentConfig,
    seed: int,
    stage: int,
    models: dict[str, SimilarityModel] | None = None,
) -> StageOutcome:
    """Fit PCA and per-representation models on ``fit_ids``, rank ``eval_ids``
    and post-rank them.

    A representation found in ``models`` uses that frozen model instead of
    training one; representation ``i`` trains on the random stream
    ``[seed, stage, i]``.
    """
    row_index = dataset.row_index
    fit = _stage_sides(fit_ids, split, row_index)
    eval_side = _stage_sides(eval_ids, split, row_index)
    reps = [config.representation(rep_id) for rep_id in config.representations]
    reduced = reduce_bank(dataset.raw_bank, _used_blocks(config), _stage_rows(fit), config.pca_dim)
    records = dataset.records
    outcome = StageOutcome(
        truth=_truth_map(eval_side.labels_a, eval_side.labels_b),
        probe_ids=[records[r].image_id for r in eval_side.rows_a],
        gallery_ids=[records[r].image_id for r in eval_side.rows_b],
    )

    train_cfg = TrainConfig(lam=config.lam, max_iters=config.max_iters)
    for rep_idx, (rep_id, rep) in enumerate(zip(config.representations, reps)):
        keys = rep.block_keys()
        model = (models or {}).get(rep_id)
        if model is not None and model.block_keys() != sorted(keys):
            odd = sorted(set(model.blocks) ^ set(keys))
            raise DataError(f"model {model.rep_id}: blocks {odd} do not match {rep_id}")
        if model is None:
            bank_a = _sub_bank(reduced, keys, fit.rows_a)
            bank_b = _sub_bank(reduced, keys, fit.rows_b)
            rng = np.random.default_rng([seed, stage, rep_idx])
            pairs = sample_pairs(fit.labels_a, fit.labels_b, rng, config.neg_ratio)
            model = train_model(bank_a, bank_b, pairs, rep, config.gamma, train_cfg)

        initial = rank_gallery(
            model,
            _sub_bank(reduced, keys, eval_side.rows_a),
            _sub_bank(reduced, keys, eval_side.rows_b),
        )
        if config.postrank_enabled:
            rep_out = _postrank_stage(
                model, rep, reduced, fit, eval_side, initial, config, train_cfg
            )
        else:
            rep_out = _initial_only(model, initial, config)
        outcome.per_rep[rep_id] = rep_out
    return outcome


def _initial_only(
    model: SimilarityModel, initial: list[RankingList], config: ExperimentConfig
) -> RepStageOutcome:
    """The outcome without post-ranking: the initial lists stand."""
    return RepStageOutcome(
        model=model,
        initial=initial,
        postranked=initial,
        contents=[content_set(r, config.window) for r in initial],
        postrank_trained=False,
    )


def _dcia_all(
    rankings: list[RankingList],
    probe_vectors: np.ndarray,
    gallery_vectors: np.ndarray,
    gallery_bank: FeatureBank,
    model: SimilarityModel,
    config: ExperimentConfig,
) -> list[DciaResult]:
    """DCIA for every ranking; the neighbor windows of all of them come from
    one gallery x gallery score matrix, each window computed once."""
    windows = NeighborWindows(score_gallery(model, gallery_bank, gallery_bank), config.window)
    return [
        apply_dcia(
            ranking,
            probe_vectors[ranking.probe_index],
            gallery_vectors,
            windows,
            energy=config.energy,
            k=config.k_common,
        )
        for ranking in rankings
    ]


def _postrank_stage(
    model: SimilarityModel,
    rep: Representation,
    reduced: FeatureBank,
    fit: StageSides,
    eval_side: StageSides,
    initial: list[RankingList],
    config: ExperimentConfig,
    train_cfg: TrainConfig,
) -> RepStageOutcome:
    """DCIA training on the fit split, then post-ranking of the eval rankings.

    When the fit split yields no trainable probes (every content set is a
    singleton) or single-class pairs, post-ranking degrades to the identity
    so the pipeline still completes.
    """
    keys = rep.block_keys()
    fit_gallery_bank = _sub_bank(reduced, keys, fit.rows_b)
    fit_rankings = rank_gallery(model, _sub_bank(reduced, keys, fit.rows_a), fit_gallery_bank)
    fit_results = _dcia_all(
        fit_rankings,
        concat_rep_features(reduced, rep, fit.rows_a),
        concat_rep_features(reduced, rep, fit.rows_b),
        fit_gallery_bank,
        model,
        config,
    )
    try:
        prm = train_postrank_model(fit_results, fit.labels_a, fit.labels_b, train_cfg)
    except DataError:
        return _initial_only(model, initial, config)

    eval_results = _dcia_all(
        initial,
        concat_rep_features(reduced, rep, eval_side.rows_a),
        concat_rep_features(reduced, rep, eval_side.rows_b),
        _sub_bank(reduced, keys, eval_side.rows_b),
        model,
        config,
    )
    return RepStageOutcome(
        model=model,
        initial=initial,
        postranked=[postrank(r.ranking, r.content, r.block, prm) for r in eval_results],
        contents=[r.content for r in eval_results],
        postrank_trained=True,
    )


def run_single_rep(
    config: ExperimentConfig,
    rep_id: str,
    seed: int,
    model: SimilarityModel | None = None,
) -> StageOutcome:
    """The final stage of ``seed`` for one representation (the train, rank
    and postrank commands).

    It is trained as the first representation of ``eval`` would be, unless a
    frozen ``model`` is given; post-ranking follows ``config.postrank_enabled``.
    """
    config = replace(config, representations=(rep_id,))
    dataset = load_dataset(config)
    split = make_split(dataset.records, seed)
    return run_stage(
        dataset,
        split,
        split.train_ids,
        split.test_ids,
        config,
        seed,
        _STAGE_FINAL,
        models={rep_id: model} if model is not None else None,
    )


# ---------------------------------------------------------------------------
# Full protocol
# ---------------------------------------------------------------------------

@dataclass
class SeedResult:
    seed: int
    outcome: StageOutcome
    aggregated: list | None
    chosen_n: int | None
    ordering: tuple[str, ...] | None


@dataclass
class ExperimentReport:
    seeds: tuple[int, ...]
    rep_ids: tuple[str, ...]
    cmc_initial: dict[str, CmcCurve]
    cmc_postrank: dict[str, CmcCurve]
    cmc_aggregate: CmcCurve | None
    top1_rows: list[tuple[int, str, str, float]]
    stats_per_rep: dict[str, PostrankStats]
    stats_overall: PostrankStats | None
    chosen_n: dict[int, int]
    orderings: dict[int, tuple[str, ...]]


def _sub_split(train_ids: frozenset[int], seed: int) -> tuple[frozenset[int], frozenset[int]]:
    ids = sorted(train_ids)
    rng = np.random.default_rng([seed, _SUBSPLIT_STREAM])
    perm = rng.permutation(len(ids))
    half = len(ids) // 2
    fit = frozenset(ids[i] for i in perm[:half])
    val = frozenset(ids[i] for i in perm[half:])
    return fit, val


def run_seed(dataset: Dataset, config: ExperimentConfig, seed: int) -> SeedResult:
    split = make_split(dataset.records, seed)

    chosen_reps: tuple[str, ...] | None = None
    chosen_n: int | None = None
    if config.best_n_enabled and len(config.representations) >= 2:
        fit_ids, val_ids = _sub_split(split.train_ids, seed)
        val_outcome = run_stage(
            dataset, split, fit_ids, val_ids, config, seed, _STAGE_VALIDATION
        )
        val_top1 = {
            rep_id: cmc_curve(out.postranked, val_outcome.truth).top_k(1)
            for rep_id, out in val_outcome.per_rep.items()
        }
        val_rankings = {
            rep_id: out.postranked for rep_id, out in val_outcome.per_rep.items()
        }
        selection = best_n_select(val_top1, val_rankings, val_outcome.truth, config.n_max)
        chosen_reps = selection.ordered_reps[: selection.chosen_n]
        chosen_n = selection.chosen_n
    elif len(config.representations) >= 2:
        chosen_reps = tuple(config.representations)
        chosen_n = len(chosen_reps)

    outcome = run_stage(
        dataset, split, split.train_ids, split.test_ids, config, seed, _STAGE_FINAL
    )

    aggregated = None
    if chosen_reps is not None:
        aggregated = aggregate([outcome.per_rep[rep].postranked for rep in chosen_reps])
    return SeedResult(
        seed=seed, outcome=outcome, aggregated=aggregated,
        chosen_n=chosen_n, ordering=chosen_reps,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """The full protocol: per-seed split/train/rank/postrank/aggregate, averaged."""
    dataset = load_dataset(config)
    rep_ids = tuple(config.representations)
    curves_initial: dict[str, list[CmcCurve]] = {rep: [] for rep in rep_ids}
    curves_post: dict[str, list[CmcCurve]] = {rep: [] for rep in rep_ids}
    curves_agg: list[CmcCurve] = []
    top1_rows: list[tuple[int, str, str, float]] = []
    run_stats: dict[str, list[PostrankStats]] = {rep: [] for rep in rep_ids}
    chosen_n: dict[int, int] = {}
    orderings: dict[int, tuple[str, ...]] = {}

    for seed in config.seeds:
        result = run_seed(dataset, config, seed)
        truth = result.outcome.truth
        for rep_id in rep_ids:
            out = result.outcome.per_rep[rep_id]
            curve_i = cmc_curve(out.initial, truth)
            curve_p = cmc_curve(out.postranked, truth)
            curves_initial[rep_id].append(curve_i)
            curves_post[rep_id].append(curve_p)
            top1_rows.append((seed, "initial", rep_id, curve_i.top_k(1)))
            top1_rows.append((seed, "postrank", rep_id, curve_p.top_k(1)))
            run_stats[rep_id].append(
                postrank_stats(out.initial, out.postranked, out.contents, truth)
            )
        if result.aggregated is not None:
            curve_a = cmc_curve(result.aggregated, truth)
            curves_agg.append(curve_a)
            top1_rows.append((seed, "aggregate", "-", curve_a.top_k(1)))
        if result.chosen_n is not None:
            chosen_n[seed] = result.chosen_n
            orderings[seed] = result.ordering

    stats_per_rep = {
        rep: summarize_postrank_stats(stats) for rep, stats in run_stats.items()
    }
    all_runs = [s for stats in run_stats.values() for s in stats]
    return ExperimentReport(
        seeds=tuple(config.seeds),
        rep_ids=rep_ids,
        cmc_initial={rep: mean_cmc(curves) for rep, curves in curves_initial.items()},
        cmc_postrank={rep: mean_cmc(curves) for rep, curves in curves_post.items()},
        cmc_aggregate=mean_cmc(curves_agg) if curves_agg else None,
        top1_rows=top1_rows,
        stats_per_rep=stats_per_rep,
        stats_overall=summarize_postrank_stats(all_runs) if all_runs else None,
        chosen_n=chosen_n,
        orderings=orderings,
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def write_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write cmc.csv, top1.csv, postrank_stats.csv and summary.txt.

    Output is byte-deterministic for a fixed config and seed list: no
    timestamps or timings are included.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    cmc_path = out_dir / "cmc.csv"
    with open(cmc_path, "w", newline="") as fh:
        fh.write("stage,representation,rank,rate\n")
        for rep in report.rep_ids:
            for stage, curves in (("initial", report.cmc_initial), ("postrank", report.cmc_postrank)):
                for rank, rate in enumerate(curves[rep].rates, start=1):
                    fh.write(f"{stage},{rep},{rank},{_fmt(rate)}\n")
        if report.cmc_aggregate is not None:
            for rank, rate in enumerate(report.cmc_aggregate.rates, start=1):
                fh.write(f"aggregate,-,{rank},{_fmt(rate)}\n")
    paths.append(cmc_path)

    top1_path = out_dir / "top1.csv"
    with open(top1_path, "w", newline="") as fh:
        fh.write("seed,stage,representation,top1\n")
        for seed, stage, rep, top1 in report.top1_rows:
            fh.write(f"{seed},{stage},{rep},{_fmt(top1)}\n")
    paths.append(top1_path)

    stats_path = out_dir / "postrank_stats.csv"
    with open(stats_path, "w", newline="") as fh:
        fh.write("representation,metric,mean,std\n")
        entries = list(report.stats_per_rep.items())
        if report.stats_overall is not None:
            entries.append(("overall", report.stats_overall))
        for rep, stats in entries:
            for metric, mean_field, std_field in (
                ("in_content", "pct_in_content", "std_in_content"),
                ("improved", "pct_improved", "std_improved"),
                ("improved_to_top1", "pct_improved_to_top1", "std_improved_to_top1"),
                ("unchanged", "pct_unchanged", "std_unchanged"),
                ("worsened", "pct_worsened", "std_worsened"),
            ):
                fh.write(
                    f"{rep},{metric},{_fmt(getattr(stats, mean_field))},"
                    f"{_fmt(getattr(stats, std_field))}\n"
                )
    paths.append(stats_path)

    summary_path = out_dir / "summary.txt"
    with open(summary_path, "w") as fh:
        fh.write(f"seeds: {','.join(str(s) for s in report.seeds)}\n")
        fh.write(f"representations: {','.join(report.rep_ids)}\n\n")
        fh.write("mean top-1 by stage:\n")
        for rep in report.rep_ids:
            fh.write(
                f"  {rep}: initial {_fmt(report.cmc_initial[rep].top_k(1))}"
                f"  postrank {_fmt(report.cmc_postrank[rep].top_k(1))}\n"
            )
        if report.cmc_aggregate is not None:
            fh.write(f"  aggregate: {_fmt(report.cmc_aggregate.top_k(1))}\n")
        if report.chosen_n:
            fh.write("\nbest-n per seed:\n")
            for seed in report.seeds:
                if seed in report.chosen_n:
                    order = ",".join(report.orderings[seed])
                    fh.write(f"  seed {seed}: n={report.chosen_n[seed]} order={order}\n")
        if report.stats_overall is not None:
            s = report.stats_overall
            fh.write(
                "\npost-ranking stats (mean +/- std over runs):\n"
                f"  in content      {_fmt(s.pct_in_content)} +/- {_fmt(s.std_in_content)}\n"
                f"  improved        {_fmt(s.pct_improved)} +/- {_fmt(s.std_improved)}\n"
                f"  improved->top1  {_fmt(s.pct_improved_to_top1)} +/- {_fmt(s.std_improved_to_top1)}\n"
                f"  unchanged       {_fmt(s.pct_unchanged)} +/- {_fmt(s.std_unchanged)}\n"
                f"  worsened        {_fmt(s.pct_worsened)} +/- {_fmt(s.std_worsened)}\n"
            )
    paths.append(summary_path)
    return paths
