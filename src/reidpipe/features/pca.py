"""Principal component reduction with deterministic sign convention.

A block wider than its fit rows (d > n) is fitted from the n×n Gram of the
centred rows (snapshot PCA; Sirovich 1987, Turk & Pentland 1991): eigh of
``Xc Xcᵀ`` gives U and Λ, and the basis is ``Xcᵀ U Λ^(-1/2)``. Every other
block is fitted by a thin SVD, and so is a wide one that keeps all n
components or whose k-th eigenvalue is not clearly positive (rank-deficient
or ill-conditioned rows). Both paths give the same features to 1e-12.

The input may be float32, as raw descriptor blocks are: the fit converts its
rows to float64 once, and :func:`apply_pca` converts one row block at a time,
so no float64 copy of a whole block is made.
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

# float64 bytes of the rows apply_pca centres and projects per product: 10
# rows of a 98k-wide block, 2,600 rows of a 400-wide one.
_APPLY_BYTES = 8 << 20


@dataclass(frozen=True)
class PcaModel:
    """Mean plus orthonormal projection basis (columns are components)."""

    mean: np.ndarray
    basis: np.ndarray

    @property
    def d_out(self) -> int:
        return self.basis.shape[1]


def _gram_basis(xc: np.ndarray, k: int) -> np.ndarray | None:
    """The top ``k`` principal directions of the wide centred rows ``xc``
    from their Gram, or None when the k-th eigenvalue is not clearly
    positive."""
    eigvals, eigvecs = np.linalg.eigh(xc @ xc.T)
    top = eigvals[::-1][:k]
    if not top[-1] > _GRAM_RTOL * top[0]:
        return None
    basis = xc.T @ eigvecs[:, ::-1][:, :k]
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
    raises NumericError. The rows are centred in one float64 copy, so the
    caller's array, of any float dtype, is never written.
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
    xc = x.astype(np.float64)
    mean = xc.mean(axis=0)
    xc -= mean
    try:
        basis = _gram_basis(xc, k) if 0 < k < n < d else None
        if basis is None:
            _, _, vt = np.linalg.svd(xc, full_matrices=False)
            basis = vt[:k].T.copy()
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"PCA of a {n}x{d} block failed: {exc}") from None
    del xc
    _fix_signs(basis)
    return PcaModel(mean=mean, basis=basis)


def apply_pca(model: PcaModel, v: np.ndarray) -> np.ndarray:
    """Center, project and re-normalize to unit L2 (rows of a matrix, or one vector).

    The rows of a matrix are centred in float64 into one buffer of
    ``_APPLY_BYTES`` and projected from it, a block at a time. A short last
    block is moved back to end at the last row, so every product has the
    buffer's row count: BLAS may round a product of another shape, such as
    one row, differently.
    """
    arr = np.asarray(v)
    if arr.ndim == 1:
        return l2_normalize((arr - model.mean) @ model.basis)
    n, d = arr.shape
    rows = max(1, min(n, _APPLY_BYTES // (8 * max(d, 1))))
    block = np.empty((rows, d))
    proj = np.empty((n, model.d_out))
    for lo in range(0, n, rows):
        lo = min(lo, n - rows)
        np.subtract(arr[lo : lo + rows], model.mean, out=block)
        np.matmul(block, model.basis, out=proj[lo : lo + rows])
    return l2_normalize(proj)
