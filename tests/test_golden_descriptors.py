"""Golden digests of every cue's descriptors on two fixed images.

The other feature tests compare ``extract_cues`` with references built from
the same kernels, so a kernel that changed its values would pass them. These
SHA-256 digests pin the exact float64 bytes of all six cues' global and
local descriptors, once unmasked and once with C5 masked. A change to any
kernel, color conversion or assembly step that moves one bit fails here.
"""

import hashlib

import numpy as np
import pytest

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


# Computed with numpy 2.4 on x86-64 by the kernels that rebuilt the patch
# indices on every call and sorted all 16 names, so they also check today's
# kernels against that implementation. Another numpy build or CPU may round
# exp, hypot or arctan2 differently; update the digests only once such a
# difference, and no change of the code, explains a mismatch.
UNMASKED = {
    "C1": "f33bb4215b7dde82d083daad83f013dccff9ced872822920ebf7b80402ca9366",
    "C2": "6bea14465a59d314cde95a69635fefdc780dd60d9847b46f3985b599be0e4606",
    "C3": "89082d99c469cca2e59e9e215b098144a46852d6039c90e0846ab34e248065fa",
    "C4": "bd21d74085b20c9343304320278cffd253d0cc23bbf10b06053108a2cbabe60c",
    "C5": "6bb0a649bc250c437e64f9ddbf8928ccd8d44d6e555fe85054453516557cab09",
    "C6": "e67bfb8e8b50cdd1d9df5292c5eb065dc6d8804b268e7f682f53cdbaefea96b7",
}
GOLDEN = {
    False: UNMASKED,
    # the mask weights C5 alone
    True: {**UNMASKED, "C5": "1fcb80179ed54f32d6970e94f6ef500c0c3b5452a77d05c5c4578062e7a0999a"},
}


@pytest.mark.parametrize("masked", [False, True])
def test_descriptor_bytes_match_golden_digests(masked):
    assert cue_digests(masked) == GOLDEN[masked]
