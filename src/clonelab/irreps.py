"""Decomposition of V (x) V (x) V* into irreducible blocks.

The two-copy space splits into the symmetric/antisymmetric sectors of
dimension ``d(d +- 1)/2``; tensoring each sector with the conjugate
fundamental splits further:

* sector ``+``: an ``alpha`` block of dimension d and a ``beta`` block of
  dimension ``d(d_+ - 1)``;
* sector ``-``: an equivalent ``alpha`` block and a ``gamma`` block of
  dimension ``d(d_- - 1)`` (absent for qubits).

An operator commuting with the product action on six factors
``(0B,0E,1) (x) (2,3B,3E)`` is a sum of intertwiner pairs
``T^mu_ij (x) T~^nu_kl`` with scalar coefficients ``r^{mu nu}_{ik,jl}``.
These products are an orthogonal basis of the covariant operators.  This
module builds the intertwiners and projects any six-factor operator onto
that basis (``twirl``): the projection gives the coefficient blocks, and its
Frobenius distance to the operator is an exact covariance residual, which
``require_covariant`` guards.  ``terms_from_blocks`` rebuilds the covariant
operator from its blocks as Kronecker terms.  ``verify_covariance``, the
older test by commutators with random group elements, stays as an
independent oracle.

The triple (0B,0E,1) carries the action with the conjugated factor last; the
triple (2,3B,3E) carries it with the conjugated factor first, so the second
intertwiner is the factor-cycled copy of the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channels import CombNetwork, max_entangled_vec
from .haar import SeededRng, sample_haar_unitary
from .linalg import (ATOL_COVARIANCE, as_matrix, as_operator, max_abs, require_gate_dim, tensor,
                     worst)

MU_LABELS = ("alpha", "beta", "gamma")
SECTOR_SIGNS = ("+", "-")


class NotCovariantError(ValueError):
    """Operator fails the covariance tolerance; carries the residual."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"operator not covariant: residual {residual:.3e} > tol {tol:.3e}")
        self.residual = residual
        self.tol = tol


def swap_operator(d: int) -> np.ndarray:
    """The flip S|a>|b> = |b>|a> on two d-dimensional factors."""
    s = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            s[a * d + b, b * d + a] = 1.0
    return s


def sym_antisym_projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (I +- S)/2 onto the symmetric/antisymmetric sectors."""
    s = swap_operator(d)
    eye = np.eye(d * d)
    return (eye + s) / 2, (eye - s) / 2


def sector_dims(d: int) -> dict[str, int]:
    return {"+": d * (d + 1) // 2, "-": d * (d - 1) // 2}


def irrep_dims(d: int) -> dict[str, int]:
    sec = sector_dims(d)
    return {
        "alpha": d,
        "beta": d * (sec["+"] - 1),
        "gamma": d * (sec["-"] - 1),
    }


def valid_sectors(mu: str, d: int) -> tuple[str, ...]:
    """Sector signs in which the irrep ``mu`` actually occurs."""
    if mu == "alpha":
        return ("+", "-")
    if mu == "beta":
        return ("+",)
    if mu == "gamma":
        return ("-",) if d >= 3 else ()
    raise ValueError(f"unknown irrep label {mu!r}")


@dataclass(frozen=True)
class IrrepTable:
    """Intertwiners of the triple-space decomposition.

    ``intertwiners`` maps (mu, i, j) to T^mu_ij = sum_n |mu,i,n><mu,j,n| on
    H (x) H (x) H (conjugated factor last); the diagonal T^mu_ii is the
    projector onto the irrep mu in sector i.  ``intertwiners_conj_first``
    holds the factor-cycled copies used on the (2, 3B, 3E) triple.  The alpha
    bases in both sectors share the index n, which realizes their
    equivalence concretely.
    """

    d: int
    intertwiners: Mapping[tuple[str, str, str], np.ndarray]
    intertwiners_conj_first: Mapping[tuple[str, str, str], np.ndarray]


def conj_first(op: np.ndarray, d: int) -> np.ndarray:
    """Cycle a triple-space operator from ordering (a, b, c*) to (c*, a, b)."""
    t = as_matrix(op).reshape([d] * 6)
    return np.transpose(t, (2, 0, 1, 5, 3, 4)).reshape(d**3, d**3)


def build_irrep_table(d: int) -> IrrepTable:
    """Construct the intertwiners for 2 <= d <= 4.

    The alpha basis is |alpha,i,n> = sqrt(d/d_i) (P_i (x) I)(|n> (x) |I>),
    orthonormal by construction; the beta/gamma intertwiners are the
    projectors onto the sector complements of the alpha projectors.
    """
    d = require_gate_dim(d)
    p_plus, p_minus = sym_antisym_projectors(d)
    sec_proj = {"+": p_plus, "-": p_minus}
    sec = sector_dims(d)
    ivec = max_entangled_vec(d)

    alpha_basis: dict[str, np.ndarray] = {}
    for sign in SECTOR_SIGNS:
        cols = []
        lift = np.kron(sec_proj[sign], np.eye(d))
        for n in range(d):
            e_n = np.zeros(d)
            e_n[n] = 1.0
            cols.append(np.sqrt(d / sec[sign]) * (lift @ np.kron(e_n, ivec)))
        alpha_basis[sign] = np.array(cols).T  # d^3 x d, orthonormal columns

    intertwiners = {("alpha", i, j): alpha_basis[i] @ alpha_basis[j].conj().T
                    for i in SECTOR_SIGNS for j in SECTOR_SIGNS}
    for mu, sign in (("beta", "+"), ("gamma", "-")):
        if sign in valid_sectors(mu, d):
            intertwiners[(mu, sign, sign)] = (np.kron(sec_proj[sign], np.eye(d))
                                              - intertwiners[("alpha", sign, sign)])
    cycled = {key: conj_first(t, d) for key, t in intertwiners.items()}
    return IrrepTable(d=d, intertwiners=intertwiners, intertwiners_conj_first=cycled)


def covariance_group_element(d: int, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The six-factor action V (x) V (x) V* (x) W* (x) W (x) W."""
    v = as_matrix(v)
    w = as_matrix(w)
    return tensor(v, v, v.conj(), w.conj(), w, w)


def verify_covariance(m: np.ndarray, d: int, trials: int = 10,
                      rng: SeededRng | None = None) -> float:
    """Max commutator residual of ``m`` with random group elements.

    A residual at the numerical floor (<= 1e-9) certifies covariance; a
    genuinely non-covariant operator shows up orders of magnitude above it.

    The group element ``covariance_group_element(d, v, w)`` is A (x) B, with
    A = V (x) V (x) V* on (0B, 0E, 1) and B = W* (x) W (x) W on (2, 3B, 3E),
    and it is never built.  With m indexed [r1, r2, c1, c2] over the two
    triples, the row slab r1 of m g needs only m[r1] (B on c2, then A on
    c1).  g m is built in one buffer Z: Z = (I (x) B) m, then A (x) I
    applied to Z in place, one column chunk at a time, so each trial reads
    Z once and the one operator-sized temporary is Z, reused across trials.
    """
    m = as_operator(m, d**6)
    rng = rng or SeededRng(0)
    n3 = d**3
    m4 = m.reshape(n3, n3, n3, n3)  # [r1, r2, c1, c2]
    z = np.empty((n3, n3, n3 * n3), dtype=complex)  # [r1, r2, (c1 c2)]
    z_rows = z.reshape(n3, -1)
    chunk = n3 * n3
    residuals = []
    for i in range(trials):
        v = sample_haar_unitary(d, rng.substream(2 * i))
        w = sample_haar_unitary(d, rng.substream(2 * i + 1))
        a = tensor(v, v, v.conj())
        b = tensor(w.conj(), w, w)
        np.matmul(b, m4.reshape(n3, n3, n3 * n3), out=z)
        for s in range(0, z_rows.shape[1], chunk):
            z_rows[:, s:s + chunk] = a @ z_rows[:, s:s + chunk]
        for r1 in range(n3):
            mg = np.matmul(a.T, m4[r1] @ b)  # [r2, c1, c2]
            residuals.append(max_abs(mg.reshape(n3, -1) - z[r1]))
    return worst(residuals)


@dataclass(frozen=True)
class IrrepBlocks:
    """Coefficient blocks r^{mu nu}_{ik,jl} of a covariant six-factor operator.

    ``blocks[(mu, nu)]`` is the Hermitian matrix over the valid sector pairs
    (i, k) of the two triples; ``rows[(mu, nu)]`` lists those pairs in row
    order.  The full operator is PSD iff every block is PSD.  At d = 2 the
    gamma-indexed rows are structurally absent.
    """

    d: int
    blocks: Mapping[tuple[str, str], np.ndarray]

    @property
    def rows(self) -> dict[tuple[str, str], tuple[tuple[str, str], ...]]:
        return dict(block_keys(self.d))

    def entry(self, mu: str, nu: str, ik: tuple[str, str], jl: tuple[str, str]) -> complex:
        r = self.rows[(mu, nu)]
        return complex(self.blocks[(mu, nu)][r.index(ik), r.index(jl)])


def block_keys(d: int) -> list[tuple[tuple[str, str], tuple[tuple[str, str], ...]]]:
    """(mu, nu) block keys with their (i, k) row label tuples."""
    out = []
    for mu in MU_LABELS:
        si = valid_sectors(mu, d)
        if not si:
            continue
        for nu in MU_LABELS:
            sk = valid_sectors(nu, d)
            if not sk:
                continue
            out.append(((mu, nu), tuple((i, k) for i in si for k in sk)))
    return out


def _coefficient_index(table: IrrepTable) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """For each block (mu, nu), the index arrays (x, y) with
    ``blocks[(mu, nu)] == coeffs[x, y]``.

    ``coeffs[x, y]`` is the coefficient of T_x (x) T~_y, with x and y running
    over the intertwiner keys (mu, i, j) of the table, so the block entry
    r^{mu nu}_{ik,jl} sits at x = (mu, i, j), y = (nu, k, l).
    """
    pos = {key: n for n, key in enumerate(table.intertwiners)}
    index = {}
    for (mu, nu), labels in block_keys(table.d):
        x = [[pos[(mu, i, j)] for j, _ in labels] for i, _ in labels]
        y = [[pos[(nu, k, l)] for _, l in labels] for _, k in labels]
        index[(mu, nu)] = (np.array(x), np.array(y))
    return index


def _stacks(table: IrrepTable) -> tuple[np.ndarray, np.ndarray]:
    """The intertwiners of the two triples as (X, d^3, d^3) stacks, in key order."""
    return (np.array(list(table.intertwiners.values()), dtype=complex),
            np.array([table.intertwiners_conj_first[key] for key in table.intertwiners],
                     dtype=complex))


def terms_from_blocks(blocks: IrrepBlocks, table: IrrepTable) -> tuple[np.ndarray, np.ndarray]:
    """The covariant operator sum r T^mu_ij (x) T~^nu_kl as Kronecker terms.

    One term per first-triple intertwiner T_x (5 at d = 2, 6 at d >= 3):
    a[x] = T_x and b[x] = sum_y coeffs[x, y] T~_y.  ``CombNetwork(d=d,
    terms=terms_from_blocks(blocks, table))`` holds the operator.
    """
    first, second = _stacks(table)
    coeffs = np.zeros((len(first), len(first)), dtype=complex)
    for key, (x, y) in _coefficient_index(table).items():
        coeffs[x, y] = blocks.blocks[key]
    return first, np.tensordot(coeffs, second, axes=1)


def _support(stack: np.ndarray) -> np.ndarray:
    """The flat entries (r c) of a triple-space operator where some operator of
    the (X, d^3, d^3) stack is nonzero, in row-major order."""
    return np.flatnonzero(np.any(stack.reshape(len(stack), -1) != 0, axis=0))


@np.errstate(invalid="ignore", over="ignore")  # a non-finite R shows in the residual
def twirl(comb: np.ndarray | CombNetwork, table: IrrepTable) -> tuple[IrrepBlocks, float]:
    """Project a six-factor operator R onto the covariant operators.

    The products T_x (x) T~_y are an orthogonal basis of the covariant
    operators, each of squared norm d_x d_y, so the coefficients
    Tr[(T_x (x) T~_y)^dagger R] / (d_x d_y) are the blocks of the orthogonal
    projection Pi(R).  Returns them with the Frobenius distance
    ||R - Pi(R)||_F of R to the covariant operators: rounding-level exactly
    when R is covariant, NaN or inf when R has a non-finite entry.

    Realigned as M[(r1 c1), (r2 c2)] = R[(r1 r2), (c1 c2)], every T_x (x) T~_y
    is the outer product vec(T_x) vec(T~_y)^T, which is zero off the supports
    s1 x s2 of the two stacks (20, 93 and 256 of the d^6 entries of a triple
    at d = 2, 3, 4).  A dense R is therefore read at those entries only for
    the coefficients, one product with the gathered M[s1, s2].  Pi(R) is
    zero off them too, so the residual is one pass over the row slabs R[r1]:
    each is copied into one buffer, its support entries are overwritten
    with R - Pi(R), and the squared norms are summed.  On terms
    R = sum_k a_k (x) b_k the coefficients are sum_k Tr[T_x^dagger a_k]
    Tr[T~_y^dagger b_k], and M - Pi(M) is A^T B with the rows vec(a_k),
    vec(pa_x) stacked into A and vec(b_k), -vec(pb_x) into B (Pi(R) as the
    ``terms_from_blocks`` terms pa, pb).  Its norm is ||R_A R_B^T||_F with
    R_A, R_B the triangular QR factors of A^T and B^T, so no squared norms
    are subtracted and the dense operator is never linked.
    """
    d = table.d
    n3 = d**3
    first, second = _stacks(table)
    s1, s2 = _support(first), _support(second)
    tx = first.reshape(len(first), -1)[:, s1].conj()
    ty = second.reshape(len(second), -1)[:, s2].conj()
    terms = comb.terms if isinstance(comb, CombNetwork) else None
    if terms is None:
        r4 = as_operator(comb.choi if isinstance(comb, CombNetwork) else comb,
                         d**6).reshape(n3, n3, n3, n3)  # [r1, r2, c1, c2]
        (r1, c1), (r2, c2) = np.divmod(s1, n3), np.divmod(s2, n3)
        gathered = r4[r1[:, None], r2, c1[:, None], c2]  # M[s1, s2]
        coeffs = tx @ gathered @ ty.T
    else:
        a, b = (p.reshape(len(p), -1) for p in terms)
        coeffs = (tx @ a[:, s1].T) @ (ty @ b[:, s2].T).T
    norms = np.array([irrep_dims(d)[mu] for mu, _, _ in table.intertwiners], dtype=float)
    coeffs /= np.outer(norms, norms)
    blocks = IrrepBlocks(d=d, blocks={key: coeffs[x, y]
                                      for key, (x, y) in _coefficient_index(table).items()})
    # Pi(R) as the terms_from_blocks terms: the index covers every (x, y) once
    pa = first.reshape(len(first), -1)
    pb = np.tensordot(coeffs, second, axes=1).reshape(len(second), -1)
    if terms is None:
        gathered -= pa[:, s1].T @ pb[:, s2]  # (M - Pi(M))[s1, s2]
        rows = np.searchsorted(r1, np.arange(n3 + 1))  # the s1 entries of slab r1
        buf = np.empty((n3, n3, n3), dtype=complex)
        total = 0.0
        for r in range(n3):
            np.copyto(buf, r4[r])
            lo, hi = rows[r], rows[r + 1]
            buf[r2, c1[lo:hi, None], c2] = gathered[lo:hi]
            total += np.vdot(buf, buf).real
        residual = float(np.sqrt(total))
    else:
        r_a = np.linalg.qr(np.concatenate([a, pa]).T, mode="r")
        r_b = np.linalg.qr(np.concatenate([b, -pb]).T, mode="r")
        residual = float(np.linalg.norm(r_a @ r_b.T))
    return blocks, residual


def require_covariant(residual: float) -> None:
    """The one covariance guard: NotCovariantError unless the twirl residual
    ||R - Pi(R)||_F is within ``ATOL_COVARIANCE`` (NaN fails)."""
    if not residual <= ATOL_COVARIANCE:
        raise NotCovariantError(residual, ATOL_COVARIANCE)


def blocks_from_choi(comb: np.ndarray | CombNetwork, table: IrrepTable,
                     rng: SeededRng | None = None) -> IrrepBlocks:
    """The coefficient blocks of a covariant operator: ``twirl`` followed by
    ``require_covariant``.

    Each entry is Tr[(T^mu_ji (x) T~^nu_lk) R] / (d_mu d_nu).  ``rng`` is
    unused; it is kept only because the benchmark's ``sdp_rederive``
    workload (``bench/workloads.py``) passes it.
    """
    blocks, residual = twirl(comb, table)
    require_covariant(residual)
    return blocks


def block_fidelity(blocks: IrrepBlocks, table: IrrepTable) -> float:
    """Haar-averaged fidelity (1/d^4) sum_mu d_mu sum_ij r^{mu mu}_{ii,jj}."""
    d = table.d
    dims = irrep_dims(d)
    total = 0.0 + 0.0j
    for mu in MU_LABELS:
        signs = valid_sectors(mu, d)
        if not signs:
            continue
        for i in signs:
            for j in signs:
                total += dims[mu] * blocks.entry(mu, mu, (i, i), (j, j))
    return float(np.real(total)) / d**4
