"""Experiment orchestration: splits, training, ranking, post-ranking,
aggregation and report generation for the repeated-split CMC protocol."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .datamodel import (
    BlockRows,
    ForegroundMask,
    ImageRecord,
    SparseBlock,
    held_block,
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
    stat_items,
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
    SCOPES,
    BlockKey,
    FeatureBank,
    RankingList,
    Representation,
    SimilarityModel,
    TrainConfig,
    rank_gallery,
    role_scopes,
    sample_pairs,
    score_gallery,
    train_model,
)

_STAGE_FINAL = 0
_STAGE_VALIDATION = 1
_SUBSPLIT_STREAM = 9999

SCOPE_FILENAMES = {"G": "global"}

# Raw (pre-PCA) float32 blocks, each dense or compressed, whichever is smaller.
RawBank = dict[BlockKey, np.ndarray | SparseBlock]


def scope_filename(scope: str) -> str:
    return SCOPE_FILENAMES.get(scope, f"local_{scope}")


@dataclass
class Dataset:
    """Identity records plus the raw (pre-PCA) descriptor bank."""

    records: list[ImageRecord]
    raw_bank: RawBank

    @property
    def row_index(self) -> dict[str, int]:
        return {rec.image_id: i for i, rec in enumerate(self.records)}


def _scope_keys(scopes: tuple[str, ...], n_regions: int) -> list[str]:
    for token in scopes:
        if token not in SCOPES:
            raise ConfigError(f"invalid ingested scope {token!r}")
    return [scope for token in scopes for scope in role_scopes(token, n_regions)]


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
    keys: set[BlockKey] | None = None,
) -> RawBank:
    """Extract the configured hand-crafted cues for every record: every
    block of every scope, or only the computed blocks among ``keys``. Each
    block's rows are collected at float32, the precision of FEAT files, by
    their nonzero entries into one growing buffer, with no (N, d) array, and
    one image's descriptors are dropped before the next is extracted. Once
    every image is in, each block takes the layout of fewer bytes, as an
    ingested one does, so computed and ingested cues reduce alike."""
    cues = tuple(c for c in config.computed_cues if keys is None or c in {k[0] for k in keys})
    if not cues:
        return {}
    if config.images_dir is None:
        raise ConfigError("computed_cues requires images_dir")
    collected: dict[BlockKey, BlockRows] = {}
    for rec in records:
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
            cues,
            mask,
            masked_cues=config.masked_cues,
            n_stripes=config.n_regions,
            mask_blend=config.mask_blend,
        )
        for cue in cues:
            desc = descs[cue]
            scoped = [("G", desc.global_)] + [(f"r{r}", v) for r, v in enumerate(desc.local)]
            for scope, vec in scoped:
                key = (cue, scope)
                if keys is None or key in keys:
                    if key not in collected:
                        collected[key] = BlockRows(vec.size)
                    collected[key].add(vec)
        del descs, desc, scoped, vec  # not held while the next image is extracted
    return {key: rows.block() for key, rows in collected.items()}


def load_ingested_bank(
    records: list[ImageRecord],
    config: ExperimentConfig,
) -> RawBank:
    """Load the FEAT files of the ingested blocks the run's representations
    use, as their float32 values in the layout of fewer bytes; rows must
    align with the records. Other files are not opened."""
    bank: RawBank = {}
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
            values = load_feature_matrix(path)
            rows, cols = values.shape
            if rows != len(records) or cols == 0:
                raise DataError(f"{path}: {rows}x{cols} matrix for {len(records)} identity records")
            bank[(cue, scope)] = held_block(values)
    return bank


def _load_records(config: ExperimentConfig) -> list[ImageRecord]:
    """The records of the identities CSV; a file that has none is a
    DataError naming it, not a bank without blocks."""
    if config.identities is None:
        raise ConfigError("config is missing [data] identities")
    records = load_identities(config.identities)
    if not records:
        raise DataError(f"{config.identities}: no identity records")
    return records


def load_dataset(config: ExperimentConfig) -> Dataset:
    """The records and exactly the raw blocks the run's representations use:
    only their FEAT files are read, only their cues computed and only their
    blocks collected. A block that neither supplies is a ConfigError."""
    if not config.ingested_cues and not config.computed_cues:
        raise ConfigError("no cues configured: set computed_cues and/or [cues]")
    records = _load_records(config)
    used = _used_blocks(config)
    raw_bank = load_ingested_bank(records, config)
    raw_bank.update(compute_cue_bank(records, config, used))
    missing = sorted(used - raw_bank.keys())
    if missing:
        raise ConfigError(f"descriptor bank is missing blocks: {missing}")
    return Dataset(records=records, raw_bank={key: raw_bank[key] for key in sorted(used)})


def extract_to_feat_files(config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """The ``extract`` command: write computed cues as FEAT files."""
    if not config.computed_cues:
        raise ConfigError("no computed_cues configured")
    bank = compute_cue_bank(_load_records(config), config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for (cue, scope), matrix in sorted(bank.items()):
        path = out_dir / f"{cue}_{scope_filename(scope)}.feat"
        save_feature_matrix(matrix, path)
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
    """The stage's image rows in order; the two cameras' rows are distinct."""
    return np.sort(np.concatenate([sides.rows_a, sides.rows_b]))


def _truth_map(labels_a: np.ndarray, labels_b: np.ndarray) -> dict[int, int]:
    gallery_of = {int(label): g for g, label in enumerate(labels_b)}
    return {p: gallery_of[int(label)] for p, label in enumerate(labels_a)}


def reduce_bank(raw_bank: RawBank, fit_rows: np.ndarray, pca_dim: int) -> FeatureBank:
    """Per-block PCA fit on the training rows, applied to every row, for
    every block of the bank. Dense and compressed float32 blocks are read
    alike: PCA reads the fit rows through ``fit_rows`` one float64 column
    chunk at a time (the SVD path of a narrow block, its fit rows at once).
    A wide block's model holds no basis; ``apply_pca`` builds it from the
    fit rows chunk by chunk as it projects."""
    reduced: FeatureBank = {}
    for key in sorted(raw_bank):
        model = fit_pca(raw_bank[key], pca_dim, rows=fit_rows)
        reduced[key] = apply_pca(model, raw_bank[key])
    return reduced


def concat_rep_features(bank: FeatureBank, rep: Representation) -> np.ndarray:
    """Each row's vectors over the representation's blocks, concatenated."""
    return np.hstack([bank[key] for key in rep.block_keys()])


def _sub_bank(bank: FeatureBank, keys, rows: np.ndarray) -> FeatureBank:
    return {key: bank[key][rows] for key in keys}


def _gather(bank: FeatureBank, keys, sides: StageSides) -> tuple[FeatureBank, FeatureBank]:
    """The probe and gallery banks of ``sides`` over the blocks ``keys``."""
    return _sub_bank(bank, keys, sides.rows_a), _sub_bank(bank, keys, sides.rows_b)


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
    reduced = reduce_bank(dataset.raw_bank, _stage_rows(fit), config.pca_dim)
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
        # each side is gathered once, for training, ranking and DCIA alike
        trains_or_postranks = model is None or config.postrank_enabled
        fit_banks = _gather(reduced, keys, fit) if trains_or_postranks else None
        if model is None:
            rng = np.random.default_rng([seed, stage, rep_idx])
            pairs = sample_pairs(fit.labels_a, fit.labels_b, rng, config.neg_ratio)
            model = train_model(*fit_banks, pairs, rep, config.gamma, train_cfg)

        eval_banks = _gather(reduced, keys, eval_side)
        initial = rank_gallery(model, *eval_banks)
        if config.postrank_enabled:
            rep_out = _postrank_stage(
                model, rep, fit, fit_banks, eval_banks, initial, config, train_cfg
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
    rep: Representation,
    probes: FeatureBank,
    gallery: FeatureBank,
    model: SimilarityModel,
    config: ExperimentConfig,
) -> list[DciaResult]:
    """DCIA for every ranking of the ``probes`` against the ``gallery``; the
    neighbor windows of all of them come from one gallery x gallery score
    matrix, each window computed once."""
    windows = NeighborWindows(score_gallery(model, gallery, gallery), config.window)
    probe_vectors = concat_rep_features(probes, rep)
    gallery_vectors = concat_rep_features(gallery, rep)
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
    fit: StageSides,
    fit_banks: tuple[FeatureBank, FeatureBank],
    eval_banks: tuple[FeatureBank, FeatureBank],
    initial: list[RankingList],
    config: ExperimentConfig,
    train_cfg: TrainConfig,
) -> RepStageOutcome:
    """DCIA training on the fit split, then post-ranking of the eval rankings.

    When the fit split yields no trainable probes (every content set is a
    singleton) or single-class pairs, post-ranking degrades to the identity
    so the pipeline still completes.
    """
    fit_rankings = rank_gallery(model, *fit_banks)
    fit_results = _dcia_all(fit_rankings, rep, *fit_banks, model, config)
    try:
        prm = train_postrank_model(fit_results, fit.labels_a, fit.labels_b, train_cfg)
    except DataError:
        return _initial_only(model, initial, config)

    eval_results = _dcia_all(initial, rep, *eval_banks, model, config)
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
    # as the config's one seed, ``seed`` passes the config's checks
    config = replace(config, representations=(rep_id,), seeds=(seed,))
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
            for metric, mean, std in stat_items(stats):
                fh.write(f"{rep},{metric},{_fmt(mean)},{_fmt(std)}\n")
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
            fh.write("\npost-ranking stats (mean +/- std over runs):\n")
            for name, mean, std in stat_items(report.stats_overall):
                label = name.replace("_to_", "->").replace("_", " ")
                fh.write(f"  {label:<16}{_fmt(mean)} +/- {_fmt(std)}\n")
    paths.append(summary_path)
    return paths
