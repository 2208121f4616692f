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
``T^mu_ij (x) T~^nu_kl`` with scalar coefficients ``r^{mu nu}_{ik,jl}``;
this module builds the intertwiners, converts between the full operator and
its coefficient blocks, and checks covariance numerically.

The triple (0B,0E,1) carries the action with the conjugated factor last; the
triple (2,3B,3E) carries it with the conjugated factor first, so the second
intertwiner is the factor-cycled copy of the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channels import max_entangled_vec
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


def blocks_from_choi(choi: np.ndarray, table: IrrepTable, trials: int = 5,
                     rng: SeededRng | None = None,
                     covariance: float | None = None) -> IrrepBlocks:
    """Extract the coefficient blocks of a covariant operator.

    Each entry is Tr[(T^mu_ji (x) T~^nu_lk) R] / (d_mu d_nu), the divisor
    being Tr[T T†] per intertwiner; rejects operators whose covariance
    residual exceeds ``ATOL_COVARIANCE``.  A caller that has already computed
    that residual passes it as ``covariance``, and ``verify_covariance`` is
    not run again (``trials`` and ``rng`` then go unused).

    With R realigned once into K[(p,q),(r,s)] = R[(q,s),(p,r)], so that
    Tr[(A (x) B) R] = vec(A)^T K vec(B), each block is one product over the
    stacked intertwiners.
    """
    d = table.d
    choi = as_operator(choi, d**6)
    res = verify_covariance(choi, d, trials=trials, rng=rng) if covariance is None else covariance
    if not res <= ATOL_COVARIANCE:  # NaN fails
        raise NotCovariantError(res, ATOL_COVARIANCE)
    n3 = d**3
    realigned = choi.reshape(n3, n3, n3, n3).transpose(2, 0, 3, 1).reshape(n3 * n3, n3 * n3)
    dims = irrep_dims(d)
    left = {}  # mu -> rows vec(T^mu_ji) K over the sector pairs (i, j)
    blocks = {}
    for (mu, nu), labels in block_keys(d):
        sm, sn = valid_sectors(mu, d), valid_sectors(nu, d)
        if mu not in left:
            left[mu] = np.array([table.intertwiners[(mu, j, i)].ravel()
                                 for i in sm for j in sm]) @ realigned
        right = np.array([table.intertwiners_conj_first[(nu, l, k)].ravel()
                          for k in sn for l in sn])
        g = (left[mu] @ right.T).reshape(len(sm), len(sm), len(sn), len(sn))  # [i, j, k, l]
        n = len(labels)
        blocks[(mu, nu)] = g.transpose(0, 2, 1, 3).reshape(n, n) / (dims[mu] * dims[nu])
    return IrrepBlocks(d=d, blocks=blocks)


def choi_from_blocks(blocks: IrrepBlocks, table: IrrepTable) -> np.ndarray:
    """Reassemble the six-factor operator sum r T^mu_ij (x) T~^nu_kl."""
    d = table.d
    out = np.zeros((d**6, d**6), dtype=complex)
    for (mu, nu), labels in blocks.rows.items():
        b = blocks.blocks[(mu, nu)]
        for a, (i, k) in enumerate(labels):
            for c, (j, l) in enumerate(labels):
                val = b[a, c]
                if val == 0:
                    continue
                out += val * np.kron(table.intertwiners[(mu, i, j)],
                                     table.intertwiners_conj_first[(nu, k, l)])
    return out


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
