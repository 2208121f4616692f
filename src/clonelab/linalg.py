"""Dense complex linear algebra for small multi-factor Hilbert spaces.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128 in row-major
layout; a square matrix on a tensor-product space is indexed by the flattened
factor indices with the first factor most significant.  All gate dimensions in
this package are capped at d = 4, so every operator fits comfortably in dense
storage (the largest object is 4096 x 4096).

Validation is decided here once: the tolerance constants below, the one
gate check ``require_unitary``, the one positivity gate ``require_psd`` and
the one positivity residual ``psd_residual``, which the gate evaluates only
to report a failure.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# The tolerances of every validation in the package, named once.
ATOL_EQ = 1e-9  # an identity: trace preservation, Kraus completeness, comb normalization
ATOL_PSD = 1e-9  # how far below zero the lowest eigenvalue of a PSD operator may sit
ATOL_UNITARY = 1e-10  # U†U against the identity, for every gate
ATOL_HERMITIAN = 1e-10  # Hermiticity of an operator given as Hermitian
# Hermiticity accepted before the positivity gate or the eigensolve of an
# operator the package has computed (a Choi operator summed from products, a
# difference of states), where rounding may exceed ATOL_HERMITIAN
ATOL_HERMITIAN_EIG = 1e-8
ATOL_RANK = 1e-12  # Choi eigenvalues at or below this give no Kraus operator
# commutator residual with random group elements accepted before the
# coefficient blocks of an operator are extracted
ATOL_COVARIANCE = 1e-9

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


class NotPSDError(ValueError):
    """Operator has an eigenvalue below -tol; carries the residual."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"matrix is not PSD: residual {residual:.3e} > tol {tol:.3e}")
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


def as_operator(m, n: int) -> np.ndarray:
    """``m`` as an n x n complex matrix; raises DimensionMismatchError otherwise."""
    m = as_matrix(m)
    if m.shape != (n, n):
        raise DimensionMismatchError(f"expected a {n} x {n} operator, got shape {m.shape}")
    return m


def require_gate_dim(d: int) -> int:
    """Validate a gate dimension against the supported range 2..4."""
    d = int(d)
    if not GATE_DIM_MIN <= d <= GATE_DIM_MAX:
        raise DimensionMismatchError(
            f"gate dimension d={d} unsupported; expected {GATE_DIM_MIN} <= d <= {GATE_DIM_MAX}"
        )
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
    """Max-norm distance from the conjugate transpose, taken 64 rows at a
    time, so no operator-sized temporary is built (NaN gives NaN)."""
    m = as_matrix(m)
    return worst(max_abs(m[s:s + 64] - m[:, s:s + 64].conj().T)
                 for s in range(0, len(m), 64))


def unitarity_residual(u: np.ndarray) -> float:
    """Max-norm residual of U†U against the identity, over a stack (..., n, n)."""
    u = np.asarray(u, dtype=complex)
    return max_abs(np.swapaxes(u, -1, -2).conj() @ u - np.eye(u.shape[-1]))


def _require_square(m: np.ndarray) -> None:
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")


def require_unitary(u, tol: float = ATOL_UNITARY) -> np.ndarray:
    """The gate, or a stack of gates (..., n, n), as a complex array.

    The one gate check of the package: raises DimensionMismatchError unless
    square and NotUnitaryError past ``tol``.
    """
    u = np.asarray(u, dtype=complex)
    _require_square(u)
    res = unitarity_residual(u)
    if not res <= tol:  # NaN fails
        raise NotUnitaryError(res, tol)
    return u


def require_hermitian(m, tol: float = ATOL_HERMITIAN) -> np.ndarray:
    """The operator as a complex matrix; raises NotHermitianError past ``tol``."""
    m = as_matrix(m)
    _require_square(m)
    res = hermiticity_residual(m)
    if not res <= tol:  # NaN fails
        raise NotHermitianError(res, tol)
    return m


def eig_hermitian(m: np.ndarray, tol: float = ATOL_HERMITIAN) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns); rejects input whose
    Hermiticity residual exceeds ``tol``.
    """
    return np.linalg.eigh(require_hermitian(m, tol))


def psd_residual(m, hermitian_tol: float) -> float:
    """How far an operator is from PSD: its most negative eigenvalue, negated
    (0.0 when PSD).

    Raises NotHermitianError past ``hermitian_tol``, so a non-finite entry
    fails before the eigensolve.  ``eigvalsh`` reads one triangle, which is
    why Hermiticity is checked on the whole operator first.
    """
    w = np.linalg.eigvalsh(require_hermitian(m, hermitian_tol))
    return worst((0.0, -w[0]))


def require_psd(m, hermitian_tol: float) -> np.ndarray:
    """The operator as a complex matrix, certified PSD within ``ATOL_PSD``.

    The one positivity gate of the package.  Raises NotHermitianError past
    ``hermitian_tol`` (NaN fails there), then factorizes m + ATOL_PSD I by
    Cholesky, which succeeds exactly when the lowest eigenvalue of m exceeds
    -ATOL_PSD, so no eigensolve runs on an accepted operator.  Only when the
    factorization fails is ``psd_residual`` evaluated; NotPSDError carries it.
    """
    m = require_hermitian(m, hermitian_tol)
    shifted = m.copy()  # shift the diagonal in place: m + ATOL_PSD * I would also build an identity
    shifted[np.diag_indices(len(m))] += ATOL_PSD
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        res = psd_residual(m, hermitian_tol)
        if not res <= ATOL_PSD:  # the eigensolve decides at the rounding edge
            raise NotPSDError(res, ATOL_PSD) from None
    return m
