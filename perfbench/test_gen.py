"""Checks of the benchmark's own parts:

    python3 -m pytest perfbench/test_gen.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_are_keyed_by_seed(tmp_path, workload):
    first = _files(gen.make_inputs(workload, 7, tmp_path / "a").parent)
    again = _files(gen.make_inputs(workload, 7, tmp_path / "b").parent)
    other = _files(gen.make_inputs(workload, 8, tmp_path / "c").parent)
    assert first == again
    assert first.keys() == other.keys()
    changed = {name for name in first if first[name] != other[name]}
    # masks are a coarse placement draw and may coincide; the views never do
    views = {name for name in first if name.endswith((".feat", ".ppm", ".simw"))}
    assert views and views <= changed


def test_benchmark_json_declares_every_metric():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == layers.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(gen.WORKLOADS)
