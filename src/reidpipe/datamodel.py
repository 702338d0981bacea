"""Dataset structures and on-disk formats.

Owns the one read of input files, the bounds-checked binary reader, the
UTF-8 CSV reader, the FEAT binary descriptor format, the identities CSV,
binary PGM/PPM image reading, foreground masks and identity-disjoint
train/test splits.
All structures are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError

FEAT_MAGIC = b"FEAT"
FEAT_VERSION = 1

MASK_WIDTH = 48
MASK_HEIGHT = 128

CAMERAS = ("A", "B")


@dataclass(frozen=True)
class ImageRecord:
    """One dataset image: identity label plus capturing camera."""

    image_id: str
    person_id: int
    camera: str

    def __post_init__(self):
        if self.camera not in CAMERAS:
            raise FormatError(f"camera must be one of {CAMERAS}, got {self.camera!r}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense descriptor matrix, one row per image."""

    values: np.ndarray
    descriptor_name: str = ""

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"feature matrix {self.descriptor_name!r} has non-finite values")


@dataclass(frozen=True)
class ForegroundMask:
    """Per-pixel foreground weights in [0, 1], shaped (height, width)."""

    weights: np.ndarray


@dataclass(frozen=True)
class Split:
    """Identity-disjoint train/test partition with per-camera view selection.

    ``view_a``/``view_b`` record the single image sampled per identity and
    camera (the single-shot protocol); identities missing a camera are
    absent from the corresponding map.
    """

    train_ids: frozenset[int]
    test_ids: frozenset[int]
    view_a: dict[int, str] = field(default_factory=dict)
    view_b: dict[int, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input bytes; the bounds-checked binary reader (FEAT and SIMW)
# ---------------------------------------------------------------------------

def read_bytes(path: str | Path) -> bytes:
    """Every byte of an input file; a file that cannot be read (missing, a
    directory, no permission) raises DataError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None


class BinaryReader:
    """Little-endian reader over one file's bytes that never reads past them.

    Structural faults (bad magic, truncation, trailing bytes) raise
    :class:`FormatError`; non-finite floats raise :class:`DataError`. Both
    name the file.
    """

    def __init__(self, path: str | Path, magic: bytes):
        self.path = Path(path)
        self.raw = read_bytes(self.path)
        if self.raw[: len(magic)] != magic:
            raise FormatError(f"{self.path}: bad magic {self.raw[: len(magic)]!r}")
        self.pos = len(magic)

    def take(self, n: int) -> bytes:
        if n > len(self.raw) - self.pos:
            raise FormatError(f"{self.path}: truncated: {n} bytes needed at offset {self.pos}")
        self.pos += n
        return self.raw[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, *shape: int) -> np.ndarray:
        """A read-only little-endian f32 array of ``shape``; all values finite."""
        offset = self.pos
        # Python ints: a fuzzed 2**32-ish dimension must not wrap around
        values = np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        if not np.all(np.isfinite(values)):
            raise DataError(f"{self.path}: non-finite values at offset {offset}")
        return values

    def finish(self) -> None:
        if self.pos != len(self.raw):
            raise FormatError(f"{self.path}: {len(self.raw) - self.pos} trailing bytes")


# ---------------------------------------------------------------------------
# FEAT binary descriptor files
# ---------------------------------------------------------------------------

def save_feature_matrix(matrix: FeatureMatrix | np.ndarray, path: str | Path) -> None:
    """Write a FEAT file: magic, u32 version/rows/cols, little-endian f32 payload."""
    values = matrix.values if isinstance(matrix, FeatureMatrix) else np.asarray(matrix)
    if values.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DataError("refusing to write non-finite feature values")
    payload = np.ascontiguousarray(values, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEAT_MAGIC)
        fh.write(struct.pack("<III", FEAT_VERSION, values.shape[0], values.shape[1]))
        fh.write(payload.tobytes())


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Read a FEAT file written by :func:`save_feature_matrix`."""
    reader = BinaryReader(path, FEAT_MAGIC)
    version, rows, cols = reader.unpack("<III")
    if version != FEAT_VERSION:
        raise FormatError(f"{reader.path}: unsupported FEAT version {version}")
    values = reader.floats(rows, cols).copy()
    reader.finish()
    return FeatureMatrix(values=values, descriptor_name=reader.path.stem)


# ---------------------------------------------------------------------------
# UTF-8 CSV input; the identities CSV
# ---------------------------------------------------------------------------

class _CsvRows:
    """A ``csv.reader`` whose tokenizer errors, such as a field longer than
    ``csv.field_size_limit()``, raise FormatError naming the file and line.
    Rows before the faulty one are still returned."""

    def __init__(self, path: str | Path, reader):
        self.path = path
        self._reader = reader

    @property
    def line_num(self) -> int:
        """The physical lines read so far: a quoted field may span several."""
        return self._reader.line_num

    def _error(self, exc: csv.Error) -> FormatError:
        return FormatError(f"{self.path}: line {self.line_num}: {exc}")

    def __iter__(self):
        try:
            yield from self._reader
        except csv.Error as exc:
            raise self._error(exc) from None

    def __next__(self) -> list[str]:
        return next(iter(self))

    def blocks(self, size: int):
        """The remaining rows in lists of up to ``size``, at no cost per row.

        A tokenizer error is raised only after the rows before it were
        yielded, so a faulty row ahead of it can still be the one reported.
        """
        while True:
            block: list[list[str]] = []
            try:
                block.extend(islice(self._reader, size))
            except csv.Error as exc:
                if block:
                    yield block
                raise self._error(exc) from None
            if not block:
                return
            yield block


def csv_reader(path: str | Path) -> _CsvRows:
    """The CSV rows of ``path`` read as UTF-8; other bytes raise FormatError."""
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    return _CsvRows(path, csv.reader(io.StringIO(text, newline="")))


IDENTITIES_HEADER = ("image_id", "person_id", "camera")


def load_identities(path: str | Path) -> list[ImageRecord]:
    """Read the ``image_id,person_id,camera`` CSV into records."""
    records: list[ImageRecord] = []
    seen: set[str] = set()
    reader = csv_reader(path)
    for index, row in enumerate(reader):
        if not row:
            continue
        if index == 0 and tuple(v.strip() for v in row) == IDENTITIES_HEADER:
            continue
        lineno = reader.line_num  # the physical line: a quoted id may span several
        if len(row) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        image_id, person_id, camera = (v.strip() for v in row)
        try:
            pid = int(person_id)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad person_id {person_id!r}") from None
        if camera not in CAMERAS:
            raise FormatError(f"{path}:{lineno}: unknown camera {camera!r}")
        if image_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        records.append(ImageRecord(image_id=image_id, person_id=pid, camera=camera))
    return records


def save_identities(records: list[ImageRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(IDENTITIES_HEADER)
        for rec in records:
            writer.writerow([rec.image_id, rec.person_id, rec.camera])


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def make_split(records: list[ImageRecord], seed: int) -> Split:
    """Randomly halve identities into train/test, sampling one view per camera.

    Deterministic for a fixed seed. Train takes floor(N/2) identities.
    """
    ids = sorted({rec.person_id for rec in records})
    if len(ids) < 2:
        raise DataError(f"need at least 2 identities to split, got {len(ids)}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    n_train = len(ids) // 2
    train_ids = frozenset(ids[i] for i in perm[:n_train])
    test_ids = frozenset(ids[i] for i in perm[n_train:])

    by_id_cam: dict[tuple[int, str], list[str]] = {}
    for rec in records:
        by_id_cam.setdefault((rec.person_id, rec.camera), []).append(rec.image_id)
    view_a: dict[int, str] = {}
    view_b: dict[int, str] = {}
    for pid in ids:
        for camera, view in (("A", view_a), ("B", view_b)):
            images = sorted(by_id_cam.get((pid, camera), []))
            if images:
                view[pid] = images[int(rng.integers(len(images)))]
    return Split(train_ids=train_ids, test_ids=test_ids, view_a=view_a, view_b=view_b)


# ---------------------------------------------------------------------------
# PGM / PPM image files
# ---------------------------------------------------------------------------

def _read_pnm_tokens(raw: bytes, count: int, path) -> tuple[list[int], int]:
    """Parse ``count`` whitespace/comment-separated integers after the magic."""
    tokens: list[int] = []
    pos = 2
    while len(tokens) < count:
        if pos >= len(raw):
            raise FormatError(f"{path}: truncated header")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(raw) and raw[pos : pos + 1].isdigit():
                pos += 1
            tokens.append(int(raw[start:pos]))
        else:
            raise FormatError(f"{path}: unexpected byte {ch!r} in header")
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise FormatError(f"{path}: missing whitespace after header")
    return tokens, pos + 1


def _load_pnm(path: str | Path, magic: bytes, channels: int) -> np.ndarray:
    path = Path(path)
    raw = read_bytes(path)
    if raw[:2] != magic:
        raise FormatError(f"{path}: not a {magic.decode()} file")
    (width, height, maxval), offset = _read_pnm_tokens(raw, 3, path)
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    if width == 0 or height == 0:
        raise FormatError(f"{path}: empty {width}x{height} image")
    expected = width * height * channels
    payload = raw[offset : offset + expected]
    if len(payload) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, channels)


def resize_nearest(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resize of an (H, W[, C]) array."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h) * h) // out_h
    xs = (np.arange(out_w) * w) // out_w
    return img[ys][:, xs]


def load_mask(path: str | Path) -> ForegroundMask:
    """Read a binary PGM (P5) mask as weights in [0, 1] at 48x128."""
    pixels = _load_pnm(path, b"P5", channels=1)
    if pixels.shape != (MASK_HEIGHT, MASK_WIDTH):
        pixels = resize_nearest(pixels, MASK_WIDTH, MASK_HEIGHT)
    return ForegroundMask(weights=pixels.astype(np.float64) / 255.0)


def load_image(path: str | Path) -> np.ndarray:
    """Read a binary PPM (P6) image as (H, W, 3) floats in [0, 1]."""
    pixels = _load_pnm(path, b"P6", channels=3)
    return pixels.astype(np.float64) / 255.0


def save_pgm(pixels: np.ndarray, path: str | Path) -> None:
    """Write a uint8 (H, W) array as binary PGM."""
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())


def save_ppm(pixels: np.ndarray, path: str | Path) -> None:
    """Write a uint8 (H, W, 3) array as binary PPM."""
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())
