"""The benchmark's per-layer probes (``perfbench/layers.py``) still fit the code.

The probes wrap module attributes such as ``experiment.rank_gallery`` and
``postrank._member_window`` and read some arguments by position, so a rename
or a moved argument breaks the traced benchmark without failing any other test.
"""

from pathlib import Path

import pytest

from conftest import build_synthetic_dataset
from reidpipe.cli import main
from reidpipe.config import load_config
from reidpipe.experiment import run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def test_layer_probes_resolve_and_nest(tmp_path, traced):
    config_path = build_synthetic_dataset(tmp_path / "d", n_ids=16, seeds=(0,), pca_dim=8)
    with traced.span("timed"):
        run_experiment(load_config(config_path))
        model = tmp_path / "r1.simw"
        assert main(["train", "-c", str(config_path), "--rep", "R1", "--out", str(model)]) == 0
        assert main([
            "rank", "-c", str(config_path), "--rep", "R1",
            "--model", str(model), "--out", str(tmp_path / "r1.csv"),
        ]) == 0
    assert traced.nesting_ok()
    for name in ("simlearn.rank", "simlearn.score_gallery", "postrank.dcia",
                 "experiment.run_single_rep", "simlearn.load_model"):
        assert traced.calls[name] > 0, name
    for stat in ("simlearn.scored_rows", "postrank.windows_requested", "postrank.contents"):
        assert traced.stats[stat] > 0, stat
