"""Pipeline benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {ingested316,images,gallery} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; reidpipe is imported from its
``src/``. The inputs are generated from ``--seed`` in this process; every
measurement happens in a fresh workload process (``workload.py``).

``--trace 0`` measures set-up in several set-up-only processes, then runs
the workload untraced, again and again while ``--seconds`` allows (at least
once), and reports the medians of the end-to-end metrics.
``--trace 1`` runs the workload once untraced and once traced, and reports
the per-layer metrics; their wall-time difference is the tracing overhead.

Human-readable lines go first; the last line of standard output is the JSON
result. The run environment and the full result are also written to
``.perfbench/results/``, and the traced run's spans to ``.perfbench/traces/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

# One BLAS thread, which is no more than nproc: a second OpenBLAS thread
# raised cpu_s by about half with no gain in wall_s on a 2-CPU machine.
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
}

SETUP_PROCESSES = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("probes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("top1_initial", "rate"),
    ("top1_postrank", "rate"),
    ("top1_aggregate", "rate"),
]


class RunFailed(Exception):
    """A workload process did not produce a result."""


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Starts workload processes one at a time, within the run's time budget."""

    def __init__(self, workload: str, config: Path, run_dir: Path, deadline: float):
        self.workload = workload
        self.config = config
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = {**os.environ, **PINNED_ENV}

    def __call__(self, *flags: str) -> dict:
        self.count += 1
        out_dir = self.run_dir / f"out{self.count}"
        result_path = self.run_dir / f"result{self.count}.json"
        log_path = self.run_dir / f"log{self.count}.txt"
        argv = [sys.executable, str(BENCH / "workload.py"), self.workload,
                str(self.config), str(out_dir), str(result_path), *flags]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunFailed("run budget exhausted")
        with open(log_path, "w") as log:
            try:
                proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                      env=self.env, cwd=self.run_dir, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise RunFailed(f"workload process timed out; see {log_path}") from None
        if proc.returncode != 0 or not result_path.exists():
            tail = log_path.read_text()[-2000:]
            raise RunFailed(f"workload process exited with {proc.returncode}:\n{tail}")
        return json.loads(result_path.read_text())


def _failures(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    broken = []
    for r in results:
        attempted += r["ops"]["attempted"] + len(r["checks"])
        failed += r["ops"]["failed"]
        for name, ok in r["checks"].items():
            if not ok:
                failed += 1
                broken.append(name)
    return attempted, failed, broken


def end_to_end(run: Runner, seconds: float) -> tuple[dict, int, int, list[str]]:
    setups = [run("--setup-only")["setup_s"] for _ in range(SETUP_PROCESSES)]
    results: list[dict] = []
    started = time.monotonic()
    while True:
        results.append(run())
        spent = time.monotonic() - started
        if spent + spent / len(results) > seconds:
            break
    setups += [r["setup_s"] for r in results]

    def median(key: str) -> float:
        return statistics.median(r[key] for r in results)

    wall = median("wall_s")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": median("cpu_s"),
        "probes_per_s": results[0]["lists"] / wall,
        "peak_rss_mb": median("peak_rss_mb"),
        **{f"top1_{stage}": results[0]["top1"][stage]
           for stage in ("initial", "postrank", "aggregate")},
    }
    attempted, failed, broken = _failures(results)
    # repeated runs of one input must reproduce the same outputs
    attempted += 1
    if len({r["digest"] for r in results}) != 1 or any(
        r["lists"] != results[0]["lists"] or r["top1"] != results[0]["top1"] for r in results
    ):
        failed += 1
        broken.append("repeat_runs_identical")
    return metrics, attempted, failed, broken


def per_layer(run: Runner) -> tuple[dict, int, int, list[str]]:
    plain = run()
    traced = run("--trace")
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    attempted, failed, broken = _failures([plain, traced])
    # ROADMAP criterion 8: tracing must not perturb results
    attempted += 1
    if traced["digest"] != plain["digest"]:
        failed += 1
        broken.append("traced_report_identical")
    return metrics, attempted, failed, broken


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "reidpipe" / "__init__.py").is_file():
        print(f"no reidpipe source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    os.environ.update(PINNED_ENV)  # before numpy is imported, for the generator too
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import layers

    if args.workload not in gen.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(gen.WORKLOADS)}")

    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        config = gen.make_inputs(args.workload, args.seed, run_dir / "data")
        run = Runner(args.workload, config, run_dir, deadline)
        if args.trace:
            metrics, attempted, failed, broken = per_layer(run)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copy(run_dir / f"out{run.count}" / "trace.jsonl",
                        traces / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, attempted, failed, broken = end_to_end(run, args.seconds)
            units = dict(END_TO_END)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment(args.seed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for name in units:
        print(f"{args.workload:<12} {name:<34} {metrics[name]:>14.6g} {units[name]}")
    print(f"{args.workload:<12} {'failed_frac':<34} {failed / attempted:>14.6g} ratio")
    if broken:
        print(f"failed checks: {', '.join(sorted(set(broken)))}")
    print("env " + json.dumps(env))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "env": env, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
