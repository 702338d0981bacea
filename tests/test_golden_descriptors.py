"""Golden digests of every cue's descriptors on two fixed images.

The other feature tests compare ``extract_cues`` with references built from
the same kernels, so a kernel that changed its values would pass them. These
SHA-256 digests pin the exact float64 bytes of all six cues' global and
local descriptors, once unmasked and once with C5 masked. A change to any
kernel, color conversion or assembly step that moves one bit fails here.
The bytes must not depend on the BLAS thread count either, and neither may
the FEAT files ``reidpipe extract`` writes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import write_color_dataset

import reidpipe
from reidpipe.datamodel import ForegroundMask
from reidpipe.features import CUE_IDS, extract_cues


def golden_images():
    """Two seeded 8-bit 128x48 RGB images in [0, 1]: uniform noise, and
    three flat clothing stripes with a smooth shading ramp and mild noise."""
    gen = np.random.default_rng(13)
    noise = gen.integers(0, 256, size=(128, 48, 3)) / 255.0
    colors = np.array([[190.0, 70.0, 60.0], [70.0, 150.0, 80.0], [80.0, 90.0, 190.0]])
    body = np.repeat(colors, [40, 48, 40], axis=0)[:, None, :]
    ramp = 30.0 * np.sin(np.arange(48) / 7.0)[None, :, None]
    shaded = body + ramp + 12.0 * gen.standard_normal((128, 48, 3))
    stripes = np.clip(np.rint(shaded), 0, 255) / 255.0
    mask = ForegroundMask(weights=gen.integers(0, 256, size=(128, 48)) / 255.0)
    return (noise, stripes), mask


def cue_digests(masked: bool) -> dict[str, str]:
    images, mask = golden_images()
    digests = {cue: hashlib.sha256() for cue in CUE_IDS}
    for image in images:
        if masked:
            descs = extract_cues(image, CUE_IDS, mask, masked_cues=("C5",))
        else:
            descs = extract_cues(image, CUE_IDS)
        for cue in CUE_IDS:
            for vec in (descs[cue].global_, *descs[cue].local):
                digests[cue].update(np.ascontiguousarray(vec, dtype="<f8").tobytes())
    return {cue: h.hexdigest() for cue, h in digests.items()}


# Computed with numpy 2.4 on x86-64, the same at one and at two OpenBLAS
# threads: every L2 norm is numpy's pairwise sum, not a BLAS dot. Another
# numpy build or CPU may round exp, hypot or arctan2 differently; update the
# digests only once such a difference, and no change of the code, explains a
# mismatch.
UNMASKED = {
    "C1": "39560220d8bd6472dd04d4d9669c0356030eb9ed094dc23f5c7a366dd92adbd4",
    "C2": "0b01f75dcb4966b4e11a4fa8324c85648f00079d64eb026f78235f283193fc6d",
    "C3": "03e4bce3135169ae0362790c1d77c6306e5d42c3b845fd4b16cbed8974269a56",
    "C4": "d3b469b5e8e7481153885db005e5ff5b8abadf893e306c5bf8ef0494452094d5",
    "C5": "debfeea87fdee95672f10d86dd1618ba0686ebd259b069b04c9e00080581a7d8",
    "C6": "fff311e0a46b9ba84dcc89cd0b969e9d5acfb9f2bb8786c97d4df473aa53e43e",
}
GOLDEN = {
    False: UNMASKED,
    # the mask weights C5 alone
    True: {**UNMASKED, "C5": "490b8550a2a1bae2695562d27ee30bbf0f7607e14ba3d07356050f39e9b289b2"},
}


@pytest.mark.parametrize("masked", [False, True])
def test_descriptor_bytes_match_golden_digests(masked):
    assert cue_digests(masked) == GOLDEN[masked]


# Run in a child process: the digests of both cases, then `reidpipe extract`
# and the digest of every FEAT file it wrote, as one JSON line.
_CHILD = """
import hashlib, json, sys
from pathlib import Path
from test_golden_descriptors import cue_digests
from reidpipe.cli import main

root, out = Path(sys.argv[1]), Path(sys.argv[2])
assert main(["extract", "-c", str(root / "c.ini"), "--out", str(out)]) == 0
feat = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
print(json.dumps({"digests": [cue_digests(False), cue_digests(True)], "feat": feat}))
"""


def test_descriptors_and_feat_files_do_not_depend_on_blas_threads(tmp_path):
    write_color_dataset(tmp_path, n_ids=2)
    (tmp_path / "c.ini").write_text(
        "[data]\nidentities = identities.csv\nimages_dir = imgs\nmasks_dir = imgs\n"
        "[features]\ncomputed_cues = C1,C2,C3,C4,C5,C6\n"
    )
    paths = [Path(reidpipe.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    pythonpath = os.pathsep.join(filter(None, [*map(str, paths), os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": pythonpath}
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(tmp_path), str(tmp_path / f"feat{threads}")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert len(runs[0]["feat"]) == 6 * 5  # six cues, a global and four local blocks
    assert runs[0] == runs[1]
    assert runs[0]["digests"] == [GOLDEN[False], GOLDEN[True]]
