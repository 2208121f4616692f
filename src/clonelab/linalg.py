"""Dense complex linear algebra for small multi-factor Hilbert spaces.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128 in row-major
layout; a square matrix on a tensor-product space is indexed by the flattened
factor indices with the first factor most significant.  All gate dimensions in
this package are capped at d = 4, so every operator fits comfortably in dense
storage (the largest object is 4096 x 4096).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Global numerical floor used across the package.
ATOL_EQ = 1e-9
ATOL_PSD = 1e-9
ATOL_UNITARY = 1e-10
ATOL_HERMITIAN = 1e-10

GATE_DIM_MIN = 2
GATE_DIM_MAX = 4

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class DimensionMismatchError(ValueError):
    """Shape of an operator does not match the declared tensor factors."""

    def __init__(self, message: str, factor: int | None = None):
        super().__init__(message)
        self.factor = factor


class NotHermitianError(ValueError):
    """Operator fails the Hermiticity tolerance; carries the residual."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"matrix is not Hermitian: residual {residual:.3e} > tol {tol:.3e}")
        self.residual = residual
        self.tol = tol


class NotUnitaryError(ValueError):
    """Operator fails the unitarity tolerance; carries the residual."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"matrix is not unitary: residual {residual:.3e} > tol {tol:.3e}")
        self.residual = residual
        self.tol = tol


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def require_gate_dim(d: int) -> int:
    """Validate a gate dimension against the supported range 2..4."""
    d = int(d)
    if not GATE_DIM_MIN <= d <= GATE_DIM_MAX:
        raise ValueError(f"gate dimension d={d} unsupported; expected {GATE_DIM_MIN} <= d <= {GATE_DIM_MAX}")
    return d


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.transpose(m))


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (0.0 for empty input)."""
    a = np.asarray(m)
    return float(np.abs(a).max()) if a.size else 0.0


def worst(residuals) -> float:
    """Largest of the residuals, NaN if any is NaN (0.0 for none).

    Folds check residuals; the builtin ``max`` would drop a NaN, since
    ``max(0.0, nan)`` is ``0.0``, and a corrupted operator would pass.
    """
    a = np.fromiter(residuals, dtype=float)
    return float(a.max()) if a.size else 0.0


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor as the most significant index."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` gives the factor dimensions in order; the result keeps the listed
    factors in their original relative order.  Tracing over every factor
    returns a 1 x 1 matrix holding the full trace.
    """
    m = as_matrix(m)
    dims = [int(x) for x in dims]
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    for k in keep:
        if not 0 <= k < n:
            raise DimensionMismatchError(f"keep index {k} outside factors 0..{n - 1}", factor=k)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix of shape {m.shape} does not factor as {tuple(dims)} (product {total})"
        )
    if 2 * n > len(_LETTERS):
        raise ValueError("too many tensor factors")
    t = m.reshape(dims + dims)
    row = [_LETTERS[i] for i in range(n)]
    col = [_LETTERS[i + n] if i in keep else _LETTERS[i] for i in range(n)]
    out = [_LETTERS[i] for i in keep] + [_LETTERS[i + n] for i in keep]
    res = np.einsum("".join(row + col) + "->" + "".join(out), t)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return res.reshape(dk, dk)


def permute_factors(m: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of a square matrix; new factor k is old factor order[k]."""
    m = as_matrix(m)
    dims = [int(x) for x in dims]
    n = len(dims)
    order = [int(o) for o in order]
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix of shape {m.shape} does not factor as {tuple(dims)}"
        )
    t = m.reshape(dims + dims)
    axes = order + [o + n for o in order]
    return np.transpose(t, axes).reshape(total, total)


def hermiticity_residual(m: np.ndarray) -> float:
    """Max-norm distance from the conjugate transpose."""
    m = as_matrix(m)
    return max_abs(m - dagger(m))


def unitarity_residual(u: np.ndarray) -> float:
    """Max-norm residual of U†U against the identity."""
    u = as_matrix(u)
    return max_abs(dagger(u) @ u - np.eye(u.shape[1]))


def require_unitary(u, tol: float = ATOL_UNITARY) -> np.ndarray:
    """The gate as a complex matrix; raises NotUnitaryError past ``tol``."""
    u = as_matrix(u)
    res = unitarity_residual(u)
    if not res <= tol:  # NaN fails
        raise NotUnitaryError(res, tol)
    return u


def require_hermitian(m, tol: float = ATOL_HERMITIAN) -> np.ndarray:
    """The operator as a complex matrix; raises NotHermitianError past ``tol``."""
    m = as_matrix(m)
    res = hermiticity_residual(m)
    if not res <= tol:  # NaN fails
        raise NotHermitianError(res, tol)
    return m


def is_hermitian(m: np.ndarray, tol: float = ATOL_HERMITIAN) -> bool:
    return hermiticity_residual(m) <= tol


def is_unitary(u: np.ndarray, tol: float = ATOL_UNITARY) -> bool:
    u = as_matrix(u)
    return u.shape[0] == u.shape[1] and unitarity_residual(u) <= tol


def eig_hermitian(m: np.ndarray, tol: float = ATOL_HERMITIAN) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns); rejects input whose
    Hermiticity residual exceeds ``tol``.
    """
    return np.linalg.eigh(require_hermitian(m, tol))


def is_psd(m: np.ndarray, tol: float = ATOL_PSD) -> bool:
    """True iff Hermitian within ``tol`` and min eigenvalue >= -tol."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    if hermiticity_residual(m) > tol:
        return False
    w = np.linalg.eigvalsh((m + dagger(m)) / 2)
    return bool(w.min() >= -tol)
