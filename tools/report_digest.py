"""Print the md5 of every output file of the benchmark workloads as one JSON line.

    python3 tools/report_digest.py
    python3 tools/report_digest.py --compare OLD.json NEW.json

For each workload of ``perfbench/gen.py`` and input seeds 1 and 2, the inputs
are generated under a temporary directory and run through the ``reidpipe``
CLI at one BLAS thread. For ``ingested316`` and ``images`` that is ``eval``
(the report files) and ``train --rep <first representation> --seed 0`` (the
model, as ``<rep>.simw``), so a trainer change that moves no report byte
still shows. For ``gallery`` it is the four ``rank`` commands and the
``aggregate`` command that ``perfbench/workload.py`` runs (the ranking CSVs),
then ``postrank --model R1.simw`` (its four CSVs) and ``stats`` on those CSVs
(what it prints, as the file ``stats``). Keys are ``<workload>/<seed>/<file>``.

Comparing the lines printed in two source trees shows whether a change moved
any output byte: ``--compare`` reads two such lines from files and prints
``identical``, or each key whose digests differ and each key only one of
them has.

Run it from anywhere: the paths are taken relative to this file.
"""

import os

if __name__ == "__main__":  # one BLAS thread, set before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from reidpipe import cli  # noqa: E402
from reidpipe.config import load_config  # noqa: E402
from workload import GALLERY_REPS, REPORT_FILES, run_gallery  # noqa: E402

SEEDS = (1, 2)
POSTRANK_CSVS = tuple(f"R1_{part}.csv" for part in ("initial", "postranked", "content", "truth"))


def _postrank_and_stats(config: Path, out: Path) -> bool:
    """``postrank`` of R1 with its frozen model into ``out``, then ``stats``
    on its CSVs into ``out/stats``; whether either failed."""
    failed = cli.main([
        "postrank", "-c", str(config), "--rep", "R1", "--seed", "0",
        "--model", str(config.parent / "R1.simw"), "--out", str(out),
    ])
    before, after, content, truth = (str(out / name) for name in POSTRANK_CSVS)
    with open(out / "stats", "w") as fh, contextlib.redirect_stdout(fh):
        failed = cli.main([
            "stats", "--before", before, "--after", after, "--content", content, "--truth", truth,
        ]) or failed
    return bool(failed)


def digests(workload: str, seed: int) -> dict[str, str]:
    """The md5 of each output file of ``workload`` on the inputs of ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = gen.make_inputs(workload, seed, Path(tmp) / "data")
        out = Path(tmp) / "out"
        out.mkdir()
        with contextlib.redirect_stdout(sys.stderr):  # the CLI's "wrote" lines
            if workload == "gallery":
                failed = run_gallery(config, out)[0]["failed"] or _postrank_and_stats(config, out)
                names = [f"{rep}.csv" for rep in GALLERY_REPS]
                names += ["aggregate.csv", *POSTRANK_CSVS, "stats"]
            else:
                failed = cli.main(["eval", "-c", str(config), "--report-dir", str(out)])
                rep = load_config(config).representations[0]
                failed = cli.main([
                    "train", "-c", str(config), "--rep", rep, "--seed", "0",
                    "--out", str(out / f"{rep}.simw"),
                ]) or failed
                names = [*REPORT_FILES, f"{rep}.simw"]
        if failed:
            raise SystemExit(f"{workload} seed {seed}: a command failed")
        return {
            f"{workload}/{seed}/{name}": hashlib.md5((out / name).read_bytes()).hexdigest()
            for name in names
        }


def compare(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """``identical``, or a line for each key whose digests differ and for
    each key only one side has."""
    lines = [f"differs: {key}" for key in old if key in new and old[key] != new[key]]
    lines += [f"only old: {key}" for key in old if key not in new]
    lines += [f"only new: {key}" for key in new if key not in old]
    return lines or ["identical"]


def main(argv: list[str]) -> None:
    if argv[:1] == ["--compare"]:
        old, new = (json.loads(Path(path).read_text()) for path in argv[1:3])
        print("\n".join(compare(old, new)))
        return
    result: dict[str, str] = {}
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            result.update(digests(workload, seed))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
