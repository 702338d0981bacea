"""One measured workload process; started by ``run.py``, never by hand.

    python3 perfbench/workload.py WORKLOAD CONFIG OUT_DIR RESULT_JSON [--setup-only] [--trace]

Set-up (importing reidpipe and parsing the config) is timed from the first
statement of this process. The timed section then runs the workload through
reidpipe's public entry points -- ``run_experiment``/``write_report`` or the
``reidpipe`` CLI's ``main`` -- into OUT_DIR. Its outputs are checked after the
timed section, and the result is written to RESULT_JSON. With ``--trace`` the
per-layer probes of ``layers.py`` are installed around the timed section.
"""

import time

_T0 = time.perf_counter()

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import reidpipe  # noqa: E402
from reidpipe import cli, experiment  # noqa: E402

REPORT_FILES = ("cmc.csv", "top1.csv", "postrank_stats.csv", "summary.txt")
GALLERY_REPS = ("R1", "R2", "R3", "R4")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Checks:
    """Named pass/fail output checks, counted into the run's failures."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}

    def __call__(self, name: str, ok) -> None:
        self.results[name] = self.results.get(name, True) and bool(ok)


def _is_permutation(order, m: int) -> bool:
    return len(order) == m and sorted(int(g) for g in order) == list(range(m))


def _cmc_ok(rates: list[float]) -> bool:
    return (
        len(rates) > 0
        and all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        and abs(rates[-1] - 1.0) <= 1e-9
    )


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# eval workloads: ingested316, images
# ---------------------------------------------------------------------------

def run_eval(config, out_dir: Path) -> tuple[dict, list]:
    seed_results = []
    run_seed = experiment.run_seed

    def keep(*args, **kwargs):  # keeps each seed's rankings for the checks
        result = run_seed(*args, **kwargs)
        seed_results.append(result)
        return result

    experiment.run_seed = keep
    ops = {"attempted": 1, "failed": 0}
    try:
        report = experiment.run_experiment(config)
        experiment.write_report(report, out_dir / "report")
    except reidpipe.ReidError as exc:
        print(f"workload error: {exc}", file=sys.stderr)
        ops["failed"] = 1
    finally:
        experiment.run_seed = run_seed
    return ops, seed_results


def check_eval(config, out_dir: Path, seed_results, checks: Checks) -> dict:
    report_dir = out_dir / "report"
    paths = [report_dir / name for name in REPORT_FILES]
    checks("report_files_exist", all(p.exists() for p in paths))
    top1 = {"initial": [], "postrank": [], "aggregate": []}
    if not paths[1].exists() or not paths[0].exists():
        return {"lists": 0, "top1": {k: 0.0 for k in top1}, "digest": _digest(paths)}

    curves: dict[tuple[str, str], list[float]] = {}
    with open(paths[0], newline="") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault((row["stage"], row["representation"]), []).append(float(row["rate"]))
    checks("cmc_monotone_ends_at_1", curves and all(_cmc_ok(r) for r in curves.values()))

    with open(paths[1], newline="") as fh:
        for row in csv.DictReader(fh):
            top1[row["stage"]].append(float(row["top1"]))

    lists = 0
    recomputed = {"initial": [], "postrank": [], "aggregate": []}
    checks("seed_results_recorded", len(seed_results) == len(config.seeds))
    for result in seed_results:
        truth = result.outcome.truth
        for rep_id in config.representations:
            out = result.outcome.per_rep[rep_id]
            stages = [("initial", out.initial)]
            if config.postrank_enabled:
                stages.append(("postrank", out.postranked))
            for stage, rankings in stages:
                # single-shot: one gallery entry per probe identity
                checks("rankings_are_permutations",
                       all(_is_permutation(r.order, len(truth)) for r in rankings))
                recomputed[stage].append(
                    sum(int(r.order[0]) == truth[r.probe_index] for r in rankings) / len(rankings)
                )
                lists += len(rankings)
            if not config.postrank_enabled:
                recomputed["postrank"].append(recomputed["initial"][-1])
        if result.aggregated is not None:
            n_probes = len(result.outcome.per_rep[config.representations[0]].initial)
            checks("aggregate_covers_every_probe",
                   sorted(a.probe_index for a in result.aggregated) == list(range(n_probes)))
            checks("rankings_are_permutations",
                   all(_is_permutation(a.order, len(truth)) for a in result.aggregated))
            recomputed["aggregate"].append(
                sum(int(a.order[0]) == truth[a.probe_index] for a in result.aggregated)
                / len(result.aggregated)
            )
            lists += len(result.aggregated)
    checks("report_top1_matches_rankings", all(
        len(top1[stage]) == len(recomputed[stage])
        and all(abs(a - b) <= 1e-9 for a, b in zip(top1[stage], recomputed[stage]))
        for stage in top1
    ))
    mean = {stage: sum(v) / len(v) if v else 0.0 for stage, v in top1.items()}
    return {"lists": lists, "top1": mean, "digest": _digest(paths)}


# ---------------------------------------------------------------------------
# gallery workload: frozen models through the CLI
# ---------------------------------------------------------------------------

def run_gallery(config_path: Path, out_dir: Path) -> tuple[dict, list]:
    data_dir = config_path.parent
    commands = [
        ["rank", "-c", str(config_path), "--rep", rep, "--seed", "0",
         "--model", str(data_dir / f"{rep}.simw"), "--out", str(out_dir / f"{rep}.csv")]
        for rep in GALLERY_REPS
    ]
    commands.append(
        ["aggregate", *(str(out_dir / f"{rep}.csv") for rep in GALLERY_REPS),
         "--out", str(out_dir / "aggregate.csv")]
    )
    failed = sum(cli.main(argv) != 0 for argv in commands)
    return {"attempted": len(commands), "failed": failed}, []


def _read_rankings(path: Path) -> dict[str, list[str]]:
    lists: dict[str, list[tuple[int, str]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            lists.setdefault(row["probe_id"], []).append((int(row["rank"]), row["gallery_id"]))
    return {p: [g for _, g in sorted(entries)] for p, entries in lists.items()}


def _top1_and_cmc(lists: dict[str, list[str]], person: dict[str, str]) -> tuple[float, bool]:
    n = len(next(iter(lists.values())))
    hits = [0] * n
    for probe, order in lists.items():
        matches = [i for i, g in enumerate(order) if person[g] == person[probe]]
        if len(matches) != 1:
            return 0.0, False
        hits[matches[0]] += 1
    rates, total = [], 0
    for h in hits:
        total += h
        rates.append(total / len(lists))
    return rates[0], _cmc_ok(rates)


def check_gallery(config, out_dir: Path, checks: Checks) -> dict:
    paths = [out_dir / f"{rep}.csv" for rep in GALLERY_REPS] + [out_dir / "aggregate.csv"]
    checks("report_files_exist", all(p.exists() for p in paths))
    if not all(p.exists() for p in paths):
        return {"lists": 0, "top1": {"initial": 0.0, "postrank": 0.0, "aggregate": 0.0},
                "digest": _digest(paths)}
    with open(config.identities, newline="") as fh:
        person = {row["image_id"]: row["person_id"] for row in csv.DictReader(fh)}
    tables = [_read_rankings(p) for p in paths]
    gallery = sorted(next(iter(tables[0].values())))
    checks("rankings_are_permutations", len(gallery) == len(tables[0]) and all(
        sorted(order) == gallery for table in tables for order in table.values()
    ))
    checks("aggregate_covers_every_probe", all(set(t) == set(tables[-1]) for t in tables))
    scored = [_top1_and_cmc(t, person) for t in tables]
    checks("cmc_monotone_ends_at_1", all(ok for _, ok in scored))
    initial = sum(rate for rate, _ in scored[:-1]) / len(GALLERY_REPS)
    return {
        "lists": sum(len(t) for t in tables),
        # the CLI rank path applies no post-ranking: post-ranked lists are the initial ones
        "top1": {"initial": initial, "postrank": initial, "aggregate": scored[-1][0]},
        "digest": _digest(paths),
    }


# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    workload, config_path, out_dir, result_path = argv[:4]
    config_path, out_dir = Path(config_path), Path(out_dir)
    if not Path(reidpipe.__file__).resolve().is_relative_to(SRC):
        print(f"reidpipe imported from {reidpipe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    config = reidpipe.load_config(config_path)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if "--setup-only" not in argv:
        result.update(measure(workload, config, config_path, out_dir, "--trace" in argv))
    Path(result_path).write_text(json.dumps(result))
    return 0


def measure(workload, config, config_path: Path, out_dir: Path, traced: bool) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if traced:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    cpu0, start = _cpu_s(), time.perf_counter()
    if tracer is not None:
        with tracer.span("timed"):
            ops, seed_results = _timed(workload, config, config_path, out_dir)
    else:
        ops, seed_results = _timed(workload, config, config_path, out_dir)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    checks = Checks()
    if workload == "gallery":
        outputs = check_gallery(config, out_dir, checks)
    else:
        outputs = check_eval(config, out_dir, seed_results, checks)
    result = {
        "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "ops": ops, "checks": checks.results, **outputs,
    }
    if tracer is not None:
        result["layers"] = layers.metrics(tracer, wall_s)
        checks("trace_spans_nest", tracer.nesting_ok())
        if workload == "images":
            fixed, agree = layers.fixed_kernel_cases()
            result["layers"].update(fixed)
            checks("numba_kernels_match_numpy", agree)
        tracer.write_spans(out_dir / "trace.jsonl")
    return result


def _timed(workload, config, config_path, out_dir):
    if workload == "gallery":
        return run_gallery(config_path, out_dir)
    return run_eval(config, out_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
