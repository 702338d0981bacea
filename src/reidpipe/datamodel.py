"""Dataset structures and on-disk formats.

Owns the one read of input files, the bounds-checked binary reader, the
UTF-8 CSV reader, the FEAT binary descriptor format, the layout of raw
descriptor blocks (dense, or by their nonzero entries) with their one
builder and one column-chunk reader, the identities CSV, binary PGM/PPM
image reading, foreground masks and identity-disjoint train/test splits.
All structures but ``BlockRows``, which collects a block row by row, are
immutable after construction and safe to share across concurrent readers.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from array import array
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

    def take(self, n: int) -> memoryview:
        """The next ``n`` bytes, as a view on the file's bytes (no copy)."""
        if n > len(self.raw) - self.pos:
            raise FormatError(f"{self.path}: truncated: {n} bytes needed at offset {self.pos}")
        self.pos += n
        return memoryview(self.raw)[self.pos - n : self.pos]

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

# A FEAT payload is checked and written in slabs of whole rows of about
# this many bytes.
_SLAB_BYTES = 1 << 20


def _f4_slabs(values: np.ndarray | SparseBlock):
    """The rows of ``values`` (either layout; the elements of a 1-D array),
    top to bottom, as little-endian float32 slabs of about ``_SLAB_BYTES``."""
    step = max(1, _SLAB_BYTES // max(4, 4 * math.prod(values.shape[1:])))
    for lo in range(0, len(values), step):
        if isinstance(values, SparseBlock):
            yield values.dense(lo, lo + step)
        else:
            yield np.ascontiguousarray(values[lo : lo + step], dtype="<f4")


def save_feature_matrix(values: np.ndarray | SparseBlock, path: str | Path) -> None:
    """Write a FEAT file: magic, u32 version/rows/cols, little-endian f32
    payload. The payload is written in row slabs straight from either
    layout, with no copy of the whole block, once every value it holds (a
    compressed block's kept ones) is checked finite."""
    if not isinstance(values, SparseBlock):
        values = np.asarray(values)
    if values.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {values.shape}")
    checked = values.values if isinstance(values, SparseBlock) else values
    if not all(np.isfinite(slab).all() for slab in _f4_slabs(checked)):
        raise DataError("refusing to write non-finite feature values")
    with open(path, "wb") as fh:
        fh.write(FEAT_MAGIC)
        fh.write(struct.pack("<III", FEAT_VERSION, *values.shape))
        for slab in _f4_slabs(values):
            fh.write(slab)


def load_feature_matrix(path: str | Path) -> np.ndarray:
    """Read a FEAT file written by :func:`save_feature_matrix` as its
    (rows, cols) float32 values, all finite: one copy beside the file's
    bytes."""
    reader = BinaryReader(path, FEAT_MAGIC)
    version, rows, cols = reader.unpack("<III")
    if version != FEAT_VERSION:
        raise FormatError(f"{reader.path}: unsupported FEAT version {version}")
    values = reader.floats(rows, cols).copy()
    reader.finish()
    return values


# ---------------------------------------------------------------------------
# Raw descriptor blocks held by their nonzero entries
# ---------------------------------------------------------------------------

def _compressed_is_smaller(n: int, d: int, nnz: int) -> bool:
    """The layout rule: an (n, d) float32 block with ``nnz`` kept entries is
    held compressed when that takes fewer bytes (a 4-byte value and a 4-byte
    column per entry, an 8-byte start per row and one) than dense."""
    return 8 * nnz + 8 * (n + 1) < 4 * n * d


# A chunk whose rows hold this many of its entries each, on average, is
# gathered one row slice at a time; a sparser one by one index over all of
# them, which costs more per entry but nothing per row.
_SLICED_ROW_ENTRIES = 128


class SparseBlock:
    """An (N, d) float32 descriptor block held row by row by its kept
    entries, the values that are not +0.0 (compressed sparse rows): row
    ``r`` has the values ``values[starts[r]:starts[r + 1]]`` in the
    ascending columns ``columns[...]``, and +0.0 everywhere else. A -0.0 is
    kept, so the dense form has the same bytes.

    It is built only by :class:`BlockRows`, from a dense array too
    (:meth:`from_dense`), and read by :func:`column_chunks`, a chunk of
    columns of chosen rows at a time, and by :meth:`dense`, a run of rows
    at a time.
    """

    dtype = np.dtype(np.float32)
    ndim = 2

    def __init__(self, shape: tuple[int, int], starts, columns, values):
        self.shape = shape
        self.starts, self.columns, self.values = starts, columns, values

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        return self.starts.nbytes + self.columns.nbytes + self.values.nbytes

    @classmethod
    def from_dense(cls, values: np.ndarray) -> SparseBlock:
        rows = BlockRows(values.shape[1])
        for row in values:
            rows.add(row)
        return rows.compressed()

    def dense(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The rows from ``lo`` up to ``hi`` (the last row when None) as a
        dense float32 array."""
        hi = self.shape[0] if hi is None else min(hi, self.shape[0])
        first, last = self.starts[lo], self.starts[hi]
        out = np.zeros((hi - lo, self.shape[1]), np.float32)
        rows = np.repeat(np.arange(hi - lo), np.diff(self.starts[lo : hi + 1]))
        out[rows, self.columns[first:last]] = self.values[first:last]
        return out

    def _entry_bounds(self, rows, edges: list[int]) -> np.ndarray:
        """``bounds[j, i]``: the first kept entry of the picked row ``i`` at
        or right of column ``edges[j]``."""
        picked = np.arange(self.shape[0])[slice(None) if rows is None else rows]
        edges = np.array(edges, np.int32)
        bounds = np.empty((len(edges), len(picked)), np.intp)
        for i, r in enumerate(picked):
            lo, hi = self.starts[r], self.starts[r + 1]
            bounds[:, i] = lo + np.searchsorted(self.columns[lo:hi], edges)
        return bounds

    def _write(self, chunk: np.ndarray, first, last, lo: int) -> None:
        """Write into ``chunk`` the columns from ``lo`` of the picked rows:
        +0.0, but the entries ``first[i]`` up to ``last[i]`` of row ``i``."""
        n, span = chunk.shape
        counts = last - first
        total = int(counts.sum())
        if total >= _SLICED_ROW_ENTRIES * n:
            spans = [slice(a, z) for a, z in zip(first.tolist(), last.tolist())]
            columns = np.concatenate([self.columns[span] for span in spans])
            values = np.concatenate([self.values[span] for span in spans])
        else:
            ends = np.cumsum(counts)
            entries = np.arange(total) + np.repeat(first - ends + counts, counts)
            columns, values = self.columns[entries], self.values[entries]
        at = np.repeat(np.arange(-lo, n * span - lo, span), counts)
        at += columns
        chunk.fill(0.0)
        chunk.reshape(-1)[at] = values


def column_chunks(block: np.ndarray | SparseBlock, rows, width: int):
    """``(columns, chunk)`` for each chunk of ``width`` columns of the rows
    ``block[rows]`` (every row when ``rows`` is None; any order, repeats
    and negative indices too), left to right: ``chunk`` holds them as
    float64, written into one reused buffer that is all the reader holds.

    This is the one reader of a block in either layout. A dense block's
    rows are copied in; a :class:`SparseBlock`'s chunk is +0.0 but at its
    kept entries. Both give every chunk the same bytes.
    """
    n = len(block) if rows is None else len(rows)
    d = block.shape[1]
    edges = [*range(0, d, width), d]
    buffer = np.empty(n * min(width, d))
    if isinstance(block, SparseBlock):
        bounds = block._entry_bounds(rows, edges)
    for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
        chunk = buffer[: n * (hi - lo)].reshape(n, hi - lo)
        if isinstance(block, SparseBlock):
            block._write(chunk, bounds[j], bounds[j + 1], lo)
        else:
            np.copyto(chunk, block[:, lo:hi] if rows is None else block[rows, lo:hi])
        yield slice(lo, hi), chunk


def held_block(values: np.ndarray) -> np.ndarray | SparseBlock:
    """The float32 block ``values`` in the layout of fewer bytes."""
    if _compressed_is_smaller(*values.shape, np.count_nonzero(values.view(np.int32))):
        return SparseBlock.from_dense(values)
    return values


# The collector's buffers grow by this factor, to at least this many entries.
_GROWTH = 1.125
_MIN_ENTRIES = 4096


class BlockRows:
    """A block collected one float32 row at a time by its kept entries.

    The entries go into one float32 value buffer and one int32 column buffer,
    which grow geometrically in place, and each row adds its entry count.
    When the block is built both buffers are trimmed in place to the kept
    entries and handed over: the block is held once, and no (N, d) array is
    made unless the layout of fewer bytes is dense.

    The buffers are resized without numpy's reference check, which fails
    whenever a profile or trace hook holds the calling frame: no view of
    them is kept across a resize.
    """

    def __init__(self, width: int):
        self.width = width
        self.counts = array("q")
        self.columns = np.empty(0, np.int32)
        self.values = np.empty(0, np.float32)
        self.size = 0

    def add(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=np.float32)
        columns = np.flatnonzero(row.view(np.int32))
        end = self.size + len(columns)
        if end > len(self.values):
            capacity = max(end, int(_GROWTH * len(self.values)), _MIN_ENTRIES)
            self.columns.resize(capacity, refcheck=False)
            self.values.resize(capacity, refcheck=False)
        self.columns[self.size : end] = columns
        np.take(row, columns, out=self.values[self.size : end])
        self.counts.append(len(columns))
        self.size = end

    def compressed(self) -> SparseBlock:
        """The collected block, held compressed; the collector starts over."""
        starts = np.zeros(len(self.counts) + 1, np.int64)
        np.cumsum(self.counts, out=starts[1:])
        self.columns.resize(self.size, refcheck=False)
        self.values.resize(self.size, refcheck=False)
        block = SparseBlock((len(self.counts), self.width), starts, self.columns, self.values)
        self.__init__(self.width)
        return block

    def block(self) -> np.ndarray | SparseBlock:
        """The collected block in the layout of fewer bytes."""
        block = self.compressed()
        return block if _compressed_is_smaller(*block.shape, len(block.values)) else block.dense()


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
    """The CSV rows of ``path`` read as UTF-8; other bytes raise FormatError.

    The bytes are checked by one decode whose text is dropped, then decoded
    again as the rows are read: a ``StringIO`` of the text would hold 4 bytes
    per character.
    """
    raw = read_bytes(path)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    return _CsvRows(path, csv.reader(text))


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
            raise FormatError(f"{path}: line {lineno}: expected 3 columns, got {len(row)}")
        image_id, person_id, camera = (v.strip() for v in row)
        try:
            pid = int(person_id)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: bad person_id {person_id!r}") from None
        if camera not in CAMERAS:
            raise FormatError(f"{path}: line {lineno}: unknown camera {camera!r}")
        if image_id in seen:
            raise DataError(f"{path}: line {lineno}: duplicate image_id {image_id!r}")
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
