"""Principal component reduction with deterministic sign convention.

A block wider than its fit rows (d > n) is fitted from the n×n Gram of the
centred rows (snapshot PCA; Sirovich 1987, Turk & Pentland 1991): eigh of
``Xc Xcᵀ`` gives U and Λ, and the basis is ``Xcᵀ U Λ^(-1/2)``. Every other
block is fitted by a thin SVD, and so is a wide one that keeps all n
components or whose k-th eigenvalue is not clearly positive (rank-deficient
or ill-conditioned rows). Both paths give the same features to 1e-12.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..datamodel import FeatureMatrix
from ..errors import DataError, NumericError

PCA_DIM = 120

# The Gram squares the condition number: its k-th direction is off by about
# eps·λ_1/λ_k. It is used only while λ_k exceeds this share of λ_1 (an error
# below about 2e-12); a smaller or zero λ_k, as for rank-deficient rows, goes
# to the SVD.
_GRAM_RTOL = 1e-4


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
    return (xc.T @ eigvecs[:, ::-1][:, :k]) / np.sqrt(top)


def fit_pca(training: FeatureMatrix | np.ndarray, d_out: int = PCA_DIM) -> PcaModel:
    """Fit the top ``d_out`` principal directions of mean-centered data.

    No whitening. Components are sign-fixed so their largest-magnitude entry
    is positive. ``d_out`` silently cannot exceed the data's row or column
    count; a warning is emitted and the dimension clamped. A LAPACK failure
    raises NumericError. The caller's array is never written.
    """
    x = training.values if isinstance(training, FeatureMatrix) else training
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError(f"PCA needs a non-empty 2-D matrix, got shape {x.shape}")
    n, d = x.shape
    k = min(d_out, n, d)
    if k < d_out:
        warnings.warn(
            f"PCA dimension clamped from {d_out} to {k} ({n} rows, {d} columns)",
            stacklevel=2,
        )
    mean = x.mean(axis=0)
    xc = x - mean
    try:
        basis = _gram_basis(xc, k) if 0 < k < n < d else None
        if basis is None:
            _, _, vt = np.linalg.svd(xc, full_matrices=False)
            basis = vt[:k].T.copy()
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"PCA of a {n}x{d} block failed: {exc}") from None
    lead = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[lead, np.arange(k)])
    signs[signs == 0] = 1.0
    basis *= signs
    return PcaModel(mean=mean, basis=basis)


def apply_pca(model: PcaModel, v: np.ndarray) -> np.ndarray:
    """Center, project and re-normalize to unit L2 (rows of a matrix, or one vector)."""
    arr = np.asarray(v, dtype=np.float64)
    proj = (arr - model.mean) @ model.basis
    if proj.ndim == 1:
        norm = np.linalg.norm(proj)
        return proj / norm if norm > 0 else proj
    norms = np.linalg.norm(proj, axis=1, keepdims=True)
    return proj / np.where(norms > 0, norms, 1.0)
