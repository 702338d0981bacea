"""Per-layer probes on reidpipe, installed from outside the package.

``install(tracer)`` wraps the module attributes each caller resolves, named
by the layer (module) they belong to; ``metrics(tracer, wall_s)`` turns the
recorded spans, counters and stats into the per-layer metrics listed in
``PER_LAYER``. Nothing under ``src/`` knows about this.
"""

from __future__ import annotations

import os
import time

import numpy as np

from reidpipe import cli, experiment, kernels, postrank, rankagg, simlearn
from tracer import HOOK, SPAN, Tracer

LOADERS = ("load_identities", "load_feature_matrix", "load_image", "load_mask")
KERNELS = ("patch_histograms", "siltp_codes", "scncd_accumulate")
CUES = ("C1", "C2", "C3", "C4", "C5", "C6")

# Orchestrator spans: their self time is experiment.self_s.
ORCHESTRATORS = (
    "timed",
    "experiment.run_experiment",
    "experiment.load_dataset",
    "experiment.run_seed",
    "experiment.run_stage",
    "experiment.postrank_stage",
    "experiment.run_single_rep",
    "cli.main",
)

PER_LAYER = [
    ("datamodel.load_s", "s", "lower"),
    ("datamodel.files_read", "count", "lower"),
    ("datamodel.bytes_read", "bytes", "lower"),
    ("features.extract_s", "s", "lower"),
    *[(f"features.extract.{cue}_s", "s", "lower") for cue in CUES],
    ("features.extract_ms_per_image", "ms", "lower"),
    ("features.pca_fit_s", "s", "lower"),
    ("features.pca_fit_calls", "count", "lower"),
    ("features.pca_fit_cols", "count", "lower"),
    ("features.pca_clamps", "count", "lower"),
    ("features.pca_apply_s", "s", "lower"),
    ("features.pca_used_ratio", "ratio", "higher"),
    *[
        (f"kernels.{name}_{suffix}", unit, "lower")
        for name in KERNELS
        for suffix, unit in (("s", "s"), ("calls", "count"), ("bytes", "bytes_computed"))
    ],
    *[(f"kernels.fixed.{name}_us", "us", "lower") for name in KERNELS],
    ("kernels.use_numba", "flag", "higher"),
    ("simlearn.train_s", "s", "lower"),
    ("simlearn.models", "count", "lower"),
    ("simlearn.grad_evals", "count", "lower"),
    ("simlearn.grad_evals_per_model", "count", "lower"),
    ("simlearn.pairs", "count", "lower"),
    ("simlearn.rank_s", "s", "lower"),
    ("simlearn.rank_calls", "count", "lower"),
    ("simlearn.scored_rows", "count", "lower"),
    ("simlearn.load_model_s", "s", "lower"),
    ("postrank.dcia_s", "s", "lower"),
    ("postrank.windows_requested", "count", "lower"),
    ("postrank.windows_scored", "count", "lower"),
    ("postrank.window_reuse", "ratio", "higher"),
    ("postrank.content_ge2", "ratio", "higher"),
    ("postrank.content_mean", "count", "higher"),
    ("postrank.train_s", "s", "lower"),
    ("postrank.fallbacks", "count", "lower"),
    ("postrank.apply_s", "s", "lower"),
    ("rankagg.aggregate_s", "s", "lower"),
    ("rankagg.aggregate_calls", "count", "lower"),
    ("rankagg.stuart_calls", "count", "lower"),
    ("rankagg.best_n_s", "s", "lower"),
    ("evaluation.cmc_s", "s", "lower"),
    ("evaluation.csv_write_s", "s", "lower"),
    ("evaluation.csv_read_s", "s", "lower"),
    ("evaluation.csv_bytes", "bytes", "lower"),
    ("evaluation.report_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def install(tracer: Tracer) -> None:
    """Wrap every probed reidpipe call site; ``tracer.restore()`` undoes it."""
    st = tracer.stats
    reduced_banks: list[tuple[dict, set]] = []

    def file_read(args, kwargs, result, error):
        if error is None:
            st["datamodel.files_read"] += 1
            st["datamodel.bytes_read"] += os.path.getsize(args[0])

    for attr in LOADERS:
        tracer.wrap(experiment, attr, f"datamodel.{attr}", after=file_read)

    # features
    tracer.wrap(experiment, "compute_cue_bank", "features.extract", SPAN)
    tracer.wrap(experiment, "assemble_cue", lambda args: f"features.extract.{args[1]}")

    def pca_fit(args, kwargs, result, error):
        n, d = np.shape(args[0])
        st["features.pca_fit_cols"] += d
        st["features.pca_clamps"] += min(n, d) < args[1]

    def reduced(args, kwargs, result, error):
        if error is None:
            reduced_banks.append((result, set()))
            st["features.pca_blocks_fitted"] += len(result)

    def used_keys(bank, keys):
        for candidate, used in reduced_banks:
            if candidate is bank:
                before = len(used)
                used.update(keys)
                st["features.pca_blocks_used"] += len(used) - before

    tracer.wrap(experiment, "reduce_bank", "features.reduce_bank", SPAN, after=reduced)
    tracer.wrap(experiment, "fit_pca", "features.pca_fit", after=pca_fit)
    tracer.wrap(experiment, "apply_pca", "features.pca_apply")
    tracer.wrap(experiment, "_sub_bank", "", HOOK,
                after=lambda args, kw, res, err: used_keys(args[0], args[1]))
    tracer.wrap(experiment, "concat_rep_features", "", HOOK,
                after=lambda args, kw, res, err: used_keys(args[0], args[1].block_keys()))

    # kernels: bytes are computed from argument and result shapes
    for name in KERNELS:
        def moved(args, kwargs, result, error, name=name):
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            if isinstance(result, np.ndarray):
                arrays.append(result)
            st[f"kernels.{name}_bytes"] += sum(a.nbytes for a in arrays)

        tracer.wrap(kernels, name, f"kernels.{name}", after=moved)

    # simlearn
    def pairs(args, kwargs, result, error):
        st["simlearn.pairs"] += len(args[2])

    def scored(args, kwargs, result, error):
        st["simlearn.scored_rows"] += next(iter(args[2].values())).shape[0]

    tracer.wrap(experiment, "train_model", "simlearn.train", SPAN, after=pairs)
    tracer.wrap(postrank, "train_model", "simlearn.train", SPAN, after=pairs)
    tracer.wrap(simlearn, "loss_and_gradient", "simlearn.loss_and_gradient")
    tracer.wrap(experiment, "rank_gallery", "simlearn.rank")
    tracer.wrap(simlearn, "score_gallery", "simlearn.score_gallery", after=scored)
    tracer.wrap(postrank, "score_gallery", "simlearn.score_gallery", after=scored)
    tracer.wrap(cli, "load_model", "simlearn.load_model")

    # postrank
    def window(args, kwargs):
        g, cache = args[0], args[4] if len(args) > 4 else kwargs.get("cache")
        st["postrank.windows_requested"] += 1
        st["postrank.windows_scored"] += cache is None or g not in cache

    def content(args, kwargs, result, error):
        m = result.content.m
        st["postrank.contents"] += 1
        st["postrank.contents_ge2"] += m >= 2
        st["postrank.content_members"] += m

    def fallback(args, kwargs, result, error):
        st["postrank.fallbacks"] += error is not None

    tracer.wrap(experiment, "_dcia_all", "postrank.dcia", SPAN)
    tracer.wrap(postrank, "_member_window", "", HOOK, before=window)
    tracer.wrap(experiment, "apply_dcia", "", HOOK, after=content)
    tracer.wrap(experiment, "train_postrank_model", "postrank.train", SPAN, after=fallback)
    tracer.wrap(experiment, "postrank", "postrank.apply")

    # rankagg
    for module in (experiment, cli, rankagg):
        tracer.wrap(module, "aggregate", "rankagg.aggregate")
    tracer.wrap(rankagg, "stuart_statistic", "rankagg.stuart_statistic")
    tracer.wrap(experiment, "best_n_select", "rankagg.best_n", SPAN)

    # evaluation
    def csv_bytes(index):
        def after(args, kwargs, result, error):
            if error is None:
                st["evaluation.csv_bytes"] += os.path.getsize(args[index])
        return after

    tracer.wrap(experiment, "cmc_curve", "evaluation.cmc")
    tracer.wrap(experiment, "mean_cmc", "evaluation.cmc")
    tracer.wrap(cli, "save_rankings_csv", "evaluation.csv_write", after=csv_bytes(1))
    tracer.wrap(cli, "load_rankings_csv", "evaluation.csv_read", after=csv_bytes(0))
    tracer.wrap(experiment, "write_report", "evaluation.report", SPAN)

    # orchestrators: experiment and cli
    tracer.wrap(experiment, "run_experiment", "experiment.run_experiment", SPAN)
    tracer.wrap(experiment, "load_dataset", "experiment.load_dataset", SPAN)
    tracer.wrap(experiment, "run_seed", "experiment.run_seed", SPAN)
    tracer.wrap(experiment, "run_stage", "experiment.run_stage", SPAN)
    tracer.wrap(experiment, "_postrank_stage", "experiment.postrank_stage", SPAN)
    tracer.wrap(cli, "run_single_rep", "experiment.run_single_rep", SPAN)

    def exit_code(args, kwargs, result, error):
        st["cli.commands"] += 1
        st["cli.nonzero_exits"] += error is not None or result != 0

    tracer.wrap(cli, "main", "cli.main", SPAN, after=exit_code)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics (every ``PER_LAYER`` name but the trace.* and
    kernels.fixed.* ones) from one traced timed section of ``wall_s``."""
    t, c, st = tracer.seconds, tracer.calls, tracer.stats
    images = c["datamodel.load_image"]
    out = {
        "datamodel.load_s": sum(t[f"datamodel.{attr}"] for attr in LOADERS),
        "datamodel.files_read": st["datamodel.files_read"],
        "datamodel.bytes_read": st["datamodel.bytes_read"],
        "features.extract_s": t["features.extract"],
        **{f"features.extract.{cue}_s": t[f"features.extract.{cue}"] for cue in CUES},
        "features.extract_ms_per_image": 1000.0 * _ratio(t["features.extract"], images),
        "features.pca_fit_s": t["features.pca_fit"],
        "features.pca_fit_calls": c["features.pca_fit"],
        "features.pca_fit_cols": st["features.pca_fit_cols"],
        "features.pca_clamps": st["features.pca_clamps"],
        "features.pca_apply_s": t["features.pca_apply"],
        "features.pca_used_ratio": _ratio(
            st["features.pca_blocks_used"], st["features.pca_blocks_fitted"]
        ),
        "simlearn.train_s": t["simlearn.train"],
        "simlearn.models": c["simlearn.train"],
        "simlearn.grad_evals": c["simlearn.loss_and_gradient"],
        "simlearn.grad_evals_per_model": _ratio(
            c["simlearn.loss_and_gradient"], c["simlearn.train"]
        ),
        "simlearn.pairs": st["simlearn.pairs"],
        "simlearn.rank_s": t["simlearn.rank"],
        "simlearn.rank_calls": c["simlearn.rank"],
        "simlearn.scored_rows": st["simlearn.scored_rows"],
        "simlearn.load_model_s": t["simlearn.load_model"],
        "postrank.dcia_s": t["postrank.dcia"],
        "postrank.windows_requested": st["postrank.windows_requested"],
        "postrank.windows_scored": st["postrank.windows_scored"],
        "postrank.window_reuse": 1.0 - _ratio(
            st["postrank.windows_scored"], st["postrank.windows_requested"]
        ) if st["postrank.windows_requested"] else 0.0,
        "postrank.content_ge2": _ratio(st["postrank.contents_ge2"], st["postrank.contents"]),
        "postrank.content_mean": _ratio(st["postrank.content_members"], st["postrank.contents"]),
        "postrank.train_s": t["postrank.train"],
        "postrank.fallbacks": st["postrank.fallbacks"],
        "postrank.apply_s": t["postrank.apply"],
        "rankagg.aggregate_s": t["rankagg.aggregate"],
        "rankagg.aggregate_calls": c["rankagg.aggregate"],
        "rankagg.stuart_calls": c["rankagg.stuart_statistic"],
        "rankagg.best_n_s": t["rankagg.best_n"],
        "evaluation.cmc_s": t["evaluation.cmc"],
        "evaluation.csv_write_s": t["evaluation.csv_write"],
        "evaluation.csv_read_s": t["evaluation.csv_read"],
        "evaluation.csv_bytes": st["evaluation.csv_bytes"],
        "evaluation.report_s": t["evaluation.report"],
        "experiment.self_s": sum(
            s["self_s"] for s in tracer.spans if s["name"] in ORCHESTRATORS
        ),
        "cli.commands": st["cli.commands"],
        "cli.nonzero_exits": st["cli.nonzero_exits"],
        "trace.spans": len(tracer.spans),
        "kernels.use_numba": kernels.USE_NUMBA,
    }
    for name in KERNELS:
        out[f"kernels.{name}_s"] = t[f"kernels.{name}"]
        out[f"kernels.{name}_calls"] = c[f"kernels.{name}"]
        out[f"kernels.{name}_bytes"] = st[f"kernels.{name}_bytes"]
        out[f"kernels.fixed.{name}_us"] = 0.0  # measured on the images workload only
    return {key: float(value) for key, value in out.items()}


# The fixed-shape kernel cases: a 48x128 image, the 165-patch grid, 512-bin
# joint histograms, SILTP codes and the 16-colour soft assignment over one
# stripe region.
FIXED_REPEATS = 200


def fixed_kernel_cases() -> tuple[dict[str, float], bool]:
    """Time each kernel on fixed shapes; with numba, also check it against
    the numpy reference. Returns the timings and whether the check held."""
    from reidpipe.features.grid import patch_grid

    rng = np.random.default_rng(0)
    cases = {
        "patch_histograms": (
            rng.integers(0, 512, size=(128, 48)), rng.random((128, 48)),
            patch_grid().rects, 512,
        ),
        "siltp_codes": (rng.random((128, 48)), 0.3),
        "scncd_accumulate": (
            rng.random((32 * 48, 3)), rng.random((16, 3)), rng.random(32 * 48), 0.125, 3,
        ),
    }
    timings, agree = {}, True
    for name, args in cases.items():
        fast = getattr(kernels, name)
        fast(*args)  # warm-up; compiles under numba
        start = time.perf_counter()
        for _ in range(FIXED_REPEATS):
            fast(*args)
        timings[f"kernels.fixed.{name}_us"] = (time.perf_counter() - start) / FIXED_REPEATS * 1e6
        if kernels.USE_NUMBA:
            reference = getattr(kernels, f"{name}_numpy")
            agree &= bool(np.allclose(fast(*args), reference(*args), atol=1e-9))
    return timings, agree
