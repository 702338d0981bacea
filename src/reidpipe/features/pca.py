"""Principal component reduction with deterministic sign convention.

A block wider than its fit rows (d > n) is fitted from the n×n Gram of the
centred rows (snapshot PCA; Sirovich 1987, Turk & Pentland 1991): eigh of
``Xc Xcᵀ`` gives U and Λ, and the basis is ``Xcᵀ U Λ^(-1/2)``, a fixed
combination of the fit rows. Such a model keeps the mean, U, √Λ and
references to the fit rows, never the (d, k) basis. Every other block is
fitted by a thin SVD and keeps its basis, and so is a wide one that keeps
all n components or whose k-th eigenvalue is not clearly positive
(rank-deficient or ill-conditioned rows). Both paths give the same features
to 1e-12.

The input may be float32, as raw descriptor blocks are, in either layout:
dense, or a :class:`~reidpipe.datamodel.SparseBlock` held by its nonzero
entries. The fit rows may be an index into it (any order, repeats too). PCA
reads a block only through :func:`~reidpipe.datamodel.column_chunks`, one
column chunk at a time in float64 in one buffer of ``_CHUNK_BYTES``, and
centres each chunk in place; it never copies the rows whole, and only the
SVD path reads its fit rows as one chunk as wide as the block. The reader
gives both layouts the same chunk bits, so both take one code path to the
same features. A fit takes the mean from the same chunks, in the same pass,
and the Gram is a sum over the fit rows' chunks. Both kinds of model hold
their basis unsigned and give its rows through one method, a chunk of
columns at a time. :func:`apply_pca` sums each column chunk of its matrix
times the basis rows of those columns, which a Gram model builds from the
fit rows' chunk of the same columns, and signs the projection at the end.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..datamodel import SparseBlock, column_chunks
from ..errors import DataError, NumericError
from .cues import l2_normalize

PCA_DIM = 120

# The Gram squares the condition number: its k-th direction is off by about
# eps·λ_1/λ_k. It is used only while λ_k exceeds this share of λ_1 (an error
# below about 2e-12); a smaller or zero λ_k, as for rank-deficient rows, goes
# to the SVD.
_GRAM_RTOL = 1e-4

# float64 bytes of one centred column chunk: 3,276 columns of 40 rows, 207
# of 632.
_CHUNK_BYTES = 1 << 20


def _chunk_width(n: int) -> int:
    return max(1, _CHUNK_BYTES // (8 * max(n, 1)))


class PcaModel:
    """Mean plus orthonormal projection basis (columns are components),
    held unsigned: the sign rule is applied where the basis is used.

    An SVD fit stores its basis. A Gram fit stores none: it keeps ``x`` and
    ``rows`` (the caller's block and index, not copies; ``rows`` None is
    every row) with U and √Λ (``u``, ``root``), and builds the basis rows
    ``(x[rows] - mean)ᵀ u / root`` of a column chunk where they are read.
    """

    def __init__(self, mean, basis=None, *, x=None, rows=None, u=None, root=None):
        self.mean = mean
        self._basis = basis
        self.x, self.rows, self.u, self.root = x, rows, u, root

    @property
    def d_out(self) -> int:
        return (self.u if self._basis is None else self._basis).shape[1]

    @property
    def basis(self) -> np.ndarray:
        """The signed basis, a new array; a Gram model's is built over the
        fit rows' column chunks."""
        if self._basis is None:
            basis = np.vstack(list(self._basis_rows(_chunk_width(len(self.u)))))
        else:
            basis = self._basis.copy()
        _fix_signs(basis)
        return basis

    def _basis_rows(self, width: int):
        """The unsigned basis rows in blocks of ``width``, left to right: a
        stored basis's slices, or a Gram model's built from the fit rows'
        chunk of the same columns. Each block's bits depend on ``width``
        only where it is one column wide: numpy takes that product with
        another BLAS kernel."""
        if self._basis is not None:
            return (self._basis[lo : lo + width] for lo in range(0, len(self._basis), width))
        chunks = _centred_chunks(self.x, self.rows, self.mean, width)
        return (chunk.T @ self.u / self.root for _, chunk in chunks)


def _centred_chunks(x, rows, mean: np.ndarray, width: int, *, fit: bool = False):
    """``(columns, chunk)`` for each chunk of ``width`` columns of the rows
    ``x[rows]`` (every row when ``rows`` is None), left to right: ``chunk``
    is ``x[rows, columns] - mean[columns]`` in float64, in the reused buffer
    of :func:`~reidpipe.datamodel.column_chunks`. With ``fit``,
    ``mean[columns]`` is first set to the chunk's column means: its sum over
    the rows in order, over their count, as numpy's mean of the gathered
    rows."""
    n = len(x) if rows is None else len(rows)
    for columns, chunk in column_chunks(x, rows, width):
        if fit:
            np.sum(chunk, axis=0, out=mean[columns])
            mean[columns] /= n
        np.subtract(chunk, mean[columns], out=chunk)
        yield columns, chunk


def _gram_fit(x, rows, k: int) -> PcaModel | None:
    """The top ``k`` principal directions of the wide rows ``x[rows]`` from
    the Gram of their centred rows, or None when the k-th eigenvalue is not
    clearly positive. The mean is taken in the same pass, chunk by chunk."""
    n = len(x) if rows is None else len(rows)
    mean = np.empty(x.shape[1])
    gram, part = np.zeros((n, n)), np.empty((n, n))
    for _, chunk in _centred_chunks(x, rows, mean, _chunk_width(n), fit=True):
        gram += np.matmul(chunk, chunk.T, out=part)
    eigvals, eigvecs = np.linalg.eigh(gram)
    top = eigvals[::-1][:k]
    if not top[-1] > _GRAM_RTOL * top[0]:
        return None
    u = np.ascontiguousarray(eigvecs[:, ::-1][:, :k])
    return PcaModel(mean, x=x, rows=rows, u=u, root=np.sqrt(top))


class _SignRule:
    """The sign of each basis column, read in row blocks, top to bottom: -1
    where the column's first largest-magnitude entry is negative, else +1
    (an all-zero column stays)."""

    def __init__(self, k: int):
        self.lead = np.zeros(k)

    def see(self, part: np.ndarray) -> None:
        if len(part):
            columns = np.arange(part.shape[1])
            hi, lo = part.argmax(axis=0), part.argmin(axis=0)
            top, bottom = part[hi, columns], part[lo, columns]
            # the part's first largest-magnitude entry in each column
            lead = np.where((top > -bottom) | ((top == -bottom) & (hi < lo)), top, bottom)
            self.lead = np.where(np.abs(lead) > np.abs(self.lead), lead, self.lead)

    def signs(self) -> np.ndarray:
        return np.where(self.lead < 0, -1.0, 1.0)


def _fix_signs(basis: np.ndarray) -> None:
    """Apply the sign rule to ``basis`` in place."""
    rule = _SignRule(basis.shape[1])
    rule.see(basis)
    basis *= rule.signs()


def fit_pca(
    x: np.ndarray | SparseBlock, d_out: int = PCA_DIM, rows: np.ndarray | None = None
) -> PcaModel:
    """Fit the top ``d_out`` principal directions of the mean-centred rows
    ``x[rows]`` (every row of ``x`` when ``rows`` is None).

    No whitening. The basis is held unsigned; :attr:`PcaModel.basis` and
    :func:`apply_pca` fix each component's sign so its largest-magnitude
    entry is positive. ``d_out`` cannot exceed the fit rows' row or column
    count: it is clamped to it, with a warning. A LAPACK failure raises
    NumericError. ``x`` is an array of any float dtype or a
    :class:`SparseBlock`, and is never written: the Gram path reads the fit
    rows through ``rows`` one column chunk at a time and keeps references to
    both, the SVD path writes the centred fit rows into one float64 array.
    """
    if not isinstance(x, SparseBlock):
        x = np.asarray(x)
    shape = x.shape if x.ndim != 2 or rows is None else (len(rows), x.shape[1])
    if len(shape) != 2 or 0 in shape:
        raise DataError(f"PCA needs a non-empty 2-D matrix, got shape {shape}")
    n, d = shape
    k = min(d_out, n, d)
    if k < d_out:
        warnings.warn(
            f"PCA dimension clamped from {d_out} to {k} ({n} rows, {d} columns)",
            stacklevel=2,
        )
    try:
        model = _gram_fit(x, rows, k) if 0 < k < n < d else None
        if model is None:
            # one chunk as wide as the block: the centred fit rows
            mean = np.empty(d)
            _, centred = next(_centred_chunks(x, rows, mean, d, fit=True))
            _, _, vt = np.linalg.svd(centred, full_matrices=False)
            model = PcaModel(mean, vt[:k].T.copy())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"PCA of a {n}x{d} block failed: {exc}") from None
    return model


def apply_pca(model: PcaModel, v: np.ndarray | SparseBlock) -> np.ndarray:
    """Center, project and re-normalize the rows of a matrix to unit L2.

    The projection is summed over the matrix's column chunks, left to
    right (see :func:`_centred_chunks`), each times the unsigned basis rows
    of its columns, which a Gram model builds from the fit rows' chunk of the
    same columns. The sign rule is applied to the projection at the end:
    negating its column is exact, as negating the basis column is.
    """
    arr = v if isinstance(v, SparseBlock) else np.asarray(v)
    if arr.ndim != 2:
        raise DataError(f"PCA applies to the rows of a 2-D matrix, got shape {arr.shape}")
    width = _chunk_width(len(arr))
    proj = np.zeros((len(arr), model.d_out))
    rule = _SignRule(model.d_out)
    chunks = _centred_chunks(arr, None, model.mean, width)
    for (_, chunk), part in zip(chunks, model._basis_rows(width)):
        proj += chunk @ part
        rule.see(part)
    proj *= rule.signs()
    return l2_normalize(proj)
