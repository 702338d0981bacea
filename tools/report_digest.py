"""Print the md5 of every output file of the benchmark workloads as one JSON line.

    python3 tools/report_digest.py

For each workload of ``perfbench/gen.py`` and input seeds 1 and 2, the inputs
are generated under a temporary directory and run through the ``reidpipe``
CLI at one BLAS thread: ``eval`` for ``ingested316`` and ``images`` (the
report files), and for ``gallery`` the four ``rank`` commands and the
``aggregate`` command that ``perfbench/workload.py`` runs (the ranking CSVs).
Keys are ``<workload>/<seed>/<file>``. Comparing the lines printed in two
source trees shows whether a change moved any output byte.

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
from workload import GALLERY_REPS, REPORT_FILES, run_gallery  # noqa: E402

SEEDS = (1, 2)


def digests(workload: str, seed: int) -> dict[str, str]:
    """The md5 of each output file of ``workload`` on the inputs of ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = gen.make_inputs(workload, seed, Path(tmp) / "data")
        out = Path(tmp) / "out"
        out.mkdir()
        with contextlib.redirect_stdout(sys.stderr):  # the CLI's "wrote" lines
            if workload == "gallery":
                failed = run_gallery(config, out)[0]["failed"]
                names = [f"{rep}.csv" for rep in GALLERY_REPS] + ["aggregate.csv"]
            else:
                failed = cli.main(["eval", "-c", str(config), "--report-dir", str(out)])
                names = list(REPORT_FILES)
        if failed:
            raise SystemExit(f"{workload} seed {seed}: a command failed")
        return {
            f"{workload}/{seed}/{name}": hashlib.md5((out / name).read_bytes()).hexdigest()
            for name in names
        }


def main() -> None:
    result: dict[str, str] = {}
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            result.update(digests(workload, seed))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
