"""Principal component reduction with deterministic sign convention.

A block wider than its fit rows (d > n) is fitted from the n×n Gram of the
centred rows (snapshot PCA; Sirovich 1987, Turk & Pentland 1991): eigh of
``Xc Xcᵀ`` gives U and Λ, and the basis is ``Xcᵀ U Λ^(-1/2)``. Every other
block is fitted by a thin SVD, and so is a wide one that keeps all n
components or whose k-th eigenvalue is not clearly positive (rank-deficient
or ill-conditioned rows). Both paths give the same features to 1e-12.

The input may be float32, as raw descriptor blocks are. The Gram fit and
:func:`apply_pca` read it one column chunk at a time, centred in float64 into
one buffer of ``_CHUNK_BYTES``: the Gram and the projection are sums over the
chunks, and each basis chunk is written or read once. So neither makes a
float64 copy of its rows; only the SVD path converts the fit rows at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class PcaModel:
    """Mean plus orthonormal projection basis (columns are components)."""

    mean: np.ndarray
    basis: np.ndarray

    @property
    def d_out(self) -> int:
        return self.basis.shape[1]


def _centred_chunks(x: np.ndarray, mean: np.ndarray):
    """``(columns, chunk)`` for each column chunk of ``x``, left to right:
    ``chunk`` is ``x[:, columns] - mean[columns]`` in float64, written into
    one reused buffer of at most ``_CHUNK_BYTES`` (one column at least)."""
    n, d = x.shape
    width = max(1, _CHUNK_BYTES // (8 * max(n, 1)))
    buffer = np.empty(n * min(width, d))
    for lo in range(0, d, width):
        hi = min(lo + width, d)
        chunk = buffer[: n * (hi - lo)].reshape(n, hi - lo)
        columns = slice(lo, hi)
        np.subtract(x[:, columns], mean[columns], out=chunk)
        yield columns, chunk


def _gram_basis(x: np.ndarray, mean: np.ndarray, k: int) -> np.ndarray | None:
    """The top ``k`` principal directions of the wide rows ``x`` from the
    Gram of their centred rows, or None when the k-th eigenvalue is not
    clearly positive."""
    n, d = x.shape
    gram, part = np.zeros((n, n)), np.empty((n, n))
    for _, chunk in _centred_chunks(x, mean):
        gram += np.matmul(chunk, chunk.T, out=part)
    del chunk, part  # before the basis pass allocates its own chunk buffer
    eigvals, eigvecs = np.linalg.eigh(gram)
    top = eigvals[::-1][:k]
    if not top[-1] > _GRAM_RTOL * top[0]:
        return None
    u = np.ascontiguousarray(eigvecs[:, ::-1][:, :k])
    basis = np.empty((d, k))
    for columns, chunk in _centred_chunks(x, mean):
        np.matmul(chunk.T, u, out=basis[columns])
    basis /= np.sqrt(top)
    return basis


def _fix_signs(basis: np.ndarray) -> None:
    """Negate, in place, each column whose largest-magnitude entry is
    negative; on a tie between +v and -v the first one decides, and an
    all-zero column stays. The same rule as the sign of
    ``basis[argmax(|basis|, axis=0)]``, from two row-order reductions."""
    hi = basis.max(axis=0, initial=0.0)
    lo = basis.min(axis=0, initial=0.0)
    flip = -lo > hi
    for j in np.flatnonzero((-lo == hi) & (hi > 0)):
        column = basis[:, j]
        flip[j] = np.argmax(column == lo[j]) < np.argmax(column == hi[j])
    basis *= np.where(flip, -1.0, 1.0)


def fit_pca(x: np.ndarray, d_out: int = PCA_DIM) -> PcaModel:
    """Fit the top ``d_out`` principal directions of mean-centered data.

    No whitening. Components are sign-fixed so their largest-magnitude entry
    is positive. ``d_out`` silently cannot exceed the data's row or column
    count; a warning is emitted and the dimension clamped. A LAPACK failure
    raises NumericError. The caller's array, of any float dtype, is never
    written: the Gram path centres one column chunk at a time, the SVD path
    the rows in one float64 copy.
    """
    x = np.asarray(x)
    if x.ndim != 2 or 0 in x.shape:
        raise DataError(f"PCA needs a non-empty 2-D matrix, got shape {x.shape}")
    n, d = x.shape
    k = min(d_out, n, d)
    if k < d_out:
        warnings.warn(
            f"PCA dimension clamped from {d_out} to {k} ({n} rows, {d} columns)",
            stacklevel=2,
        )
    mean = x.mean(axis=0, dtype=np.float64)
    try:
        basis = _gram_basis(x, mean, k) if 0 < k < n < d else None
        if basis is None:
            _, _, vt = np.linalg.svd(x - mean, full_matrices=False)
            basis = vt[:k].T.copy()
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"PCA of a {n}x{d} block failed: {exc}") from None
    _fix_signs(basis)
    return PcaModel(mean=mean, basis=basis)


def apply_pca(model: PcaModel, v: np.ndarray) -> np.ndarray:
    """Center, project and re-normalize to unit L2 (rows of a matrix, or one vector).

    The projection of a matrix is summed over its column chunks, left to
    right (see :func:`_centred_chunks`), so each basis chunk is read once.
    """
    arr = np.asarray(v)
    if arr.ndim == 1:
        return l2_normalize((arr - model.mean) @ model.basis)
    proj = np.zeros((arr.shape[0], model.d_out))
    for columns, chunk in _centred_chunks(arr, model.mean):
        proj += chunk @ model.basis[columns]
    return l2_normalize(proj)
