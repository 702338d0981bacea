"""Command-line interface.

Subcommands: extract, train, rank, postrank, aggregate, eval, stats.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import load_config
from .errors import ConfigError, ContractError, DataError, DimError, NumericError
from .evaluation import (
    load_content_csv,
    load_rankings_csv,
    load_truth_csv,
    postrank_stats,
    save_content_csv,
    save_rankings_csv,
    save_truth_csv,
)
from .experiment import extract_to_feat_files, run_experiment, run_single_rep, write_report
from .rankagg import aggregate
from .simlearn import load_model, save_model


def _cmd_extract(args) -> int:
    config = load_config(args.config)
    out_dir = args.out or config.features_dir
    if out_dir is None:
        raise ConfigError("no output directory: pass --out or set [data] features_dir")
    written = extract_to_feat_files(config, out_dir)
    for path in written:
        print(path)
    return 0


def _single_rep(args, postrank: bool):
    """One representation's final stage; the outcome and its per-rep part."""
    config = load_config(args.config)
    if not postrank:
        config.postrank_enabled = False
    model = load_model(args.model, rep_id=args.rep) if getattr(args, "model", None) else None
    outcome = run_single_rep(config, args.rep, args.seed, model)
    return outcome, outcome.per_rep[args.rep]


def _cmd_train(args) -> int:
    _, run = _single_rep(args, postrank=False)
    save_model(run.model, args.out)
    print(
        f"{args.rep}: {run.model.iterations} iterations, stop_reason {run.model.stop_reason}",
        file=sys.stderr,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_rank(args) -> int:
    stage, run = _single_rep(args, postrank=False)
    save_rankings_csv(run.initial, args.out, stage.probe_ids, stage.gallery_ids)
    print(f"wrote {args.out}")
    return 0


def _cmd_postrank(args) -> int:
    stage, run = _single_rep(args, postrank=True)
    if not run.postrank_trained:
        print(
            f"{args.rep}: post-ranking model not trainable on the training split;"
            " post-ranked lists equal the initial ones",
            file=sys.stderr,
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    before = out_dir / f"{args.rep}_initial.csv"
    after = out_dir / f"{args.rep}_postranked.csv"
    content = out_dir / f"{args.rep}_content.csv"
    truth = out_dir / f"{args.rep}_truth.csv"
    ids = (stage.probe_ids, stage.gallery_ids)
    save_rankings_csv(run.initial, before, *ids)
    save_rankings_csv(run.postranked, after, *ids)
    save_content_csv(run.contents, content, *ids)
    save_truth_csv(stage.truth, truth, *ids)
    for path in (before, after, content, truth):
        print(f"wrote {path}")
    return 0


def _cmd_aggregate(args) -> int:
    loaded = [load_rankings_csv(path) for path in args.rankings]
    _, probe_ids, gallery_ids = loaded[0]
    for path, (_, probes, galleries) in zip(args.rankings[1:], loaded[1:]):
        if probes != probe_ids or galleries != gallery_ids:
            raise DataError(f"{path}: probe/gallery ids differ from {args.rankings[0]}")
    combined = aggregate([rankings for rankings, _, _ in loaded])
    save_rankings_csv(combined, args.out, probe_ids, gallery_ids)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = load_config(args.config)
    if args.report_dir:
        config.report_dir = Path(args.report_dir)
    started = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - started
    paths = write_report(report, config.report_dir)
    # wall time goes to stderr only: report files stay byte-deterministic
    print(
        f"{len(config.seeds)} seed(s) in {elapsed:.1f}s"
        f" ({elapsed / len(config.seeds):.1f}s per seed)",
        file=sys.stderr,
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_stats(args) -> int:
    before, probe_ids, gallery_ids = load_rankings_csv(args.before)
    after, probe_ids_after, gallery_ids_after = load_rankings_csv(args.after)
    if probe_ids != probe_ids_after or gallery_ids != gallery_ids_after:
        raise DataError("before/after rankings cover different probes or galleries")
    probe_index = {p: i for i, p in enumerate(probe_ids)}
    gallery_index = {g: i for i, g in enumerate(gallery_ids)}
    contents = load_content_csv(args.content, probe_index, gallery_index)
    truth = load_truth_csv(args.truth, probe_index, gallery_index)
    for name, pct in postrank_stats(before, after, contents, truth).items():
        print(f"{name:<17}{pct:.2f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reidpipe",
        description="Person re-identification ranking pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute cue descriptors into FEAT files")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--out", help="output directory (default: [data] features_dir)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a similarity model for one representation")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output SIMW model file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("rank", help="rank the test gallery for every probe")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", help="SIMW model file (trains one when omitted)")
    p.add_argument("--out", required=True, help="output ranking CSV")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("postrank", help="apply DCIA post-ranking to the test split")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", help="SIMW model file (trains one when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_postrank)

    p = sub.add_parser("aggregate", help="aggregate two or more ranking CSVs")
    p.add_argument("rankings", nargs="+", help="ranking CSV files")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("eval", help="run the full repeated-split protocol")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--report-dir", help="override [eval] report_dir")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="post-ranking statistics from saved CSVs")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--content", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, DimError, ContractError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
