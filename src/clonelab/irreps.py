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
from .linalg import as_matrix, max_abs, require_gate_dim, tensor, worst

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
    """Projectors and intertwiners of the triple-space decomposition.

    ``projectors`` maps (mu, sign) to the projector onto that subspace of
    H (x) H (x) H (conjugated factor last).  ``intertwiners`` maps
    (mu, i, j) to T^mu_ij = sum_n |mu,i,n><mu,j,n| in the same ordering;
    ``intertwiners_conj_first`` holds the factor-cycled copies used on the
    (2, 3B, 3E) triple.  The alpha bases in both sectors share the index n,
    which realizes their equivalence concretely.
    """

    d: int
    d_plus: int
    d_minus: int
    d_alpha: int
    d_beta: int
    d_gamma: int
    projectors: Mapping[tuple[str, str], np.ndarray]
    intertwiners: Mapping[tuple[str, str, str], np.ndarray]
    intertwiners_conj_first: Mapping[tuple[str, str, str], np.ndarray]

    def dim(self, mu: str) -> int:
        return {"alpha": self.d_alpha, "beta": self.d_beta, "gamma": self.d_gamma}[mu]


def conj_first(op: np.ndarray, d: int) -> np.ndarray:
    """Cycle a triple-space operator from ordering (a, b, c*) to (c*, a, b)."""
    t = as_matrix(op).reshape([d] * 6)
    return np.transpose(t, (2, 0, 1, 5, 3, 4)).reshape(d**3, d**3)


def build_irrep_table(d: int) -> IrrepTable:
    """Construct projectors and intertwiners for 2 <= d <= 4.

    The alpha basis is |alpha,i,n> = sqrt(d/d_i) (P_i (x) I)(|n> (x) |I>),
    orthonormal by construction; beta/gamma projectors are the sector
    complements of the alpha projectors.
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

    projectors: dict[tuple[str, str], np.ndarray] = {}
    for sign in SECTOR_SIGNS:
        projectors[("alpha", sign)] = alpha_basis[sign] @ alpha_basis[sign].conj().T
    projectors[("beta", "+")] = np.kron(sec_proj["+"], np.eye(d)) - projectors[("alpha", "+")]
    if d >= 3:
        projectors[("gamma", "-")] = (
            np.kron(sec_proj["-"], np.eye(d)) - projectors[("alpha", "-")]
        )

    intertwiners: dict[tuple[str, str, str], np.ndarray] = {}
    for i in SECTOR_SIGNS:
        for j in SECTOR_SIGNS:
            intertwiners[("alpha", i, j)] = alpha_basis[i] @ alpha_basis[j].conj().T
    intertwiners[("beta", "+", "+")] = projectors[("beta", "+")]
    if d >= 3:
        intertwiners[("gamma", "-", "-")] = projectors[("gamma", "-")]

    cycled = {key: conj_first(t, d) for key, t in intertwiners.items()}
    dims = irrep_dims(d)
    return IrrepTable(
        d=d,
        d_plus=sec["+"],
        d_minus=sec["-"],
        d_alpha=dims["alpha"],
        d_beta=dims["beta"],
        d_gamma=dims["gamma"],
        projectors=projectors,
        intertwiners=intertwiners,
        intertwiners_conj_first=cycled,
    )


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
    c1), and that of g m is A[r1] Z with Z = (I (x) B) m, so the one
    operator-sized temporary is Z, reused across trials.
    """
    m = as_matrix(m)
    if m.shape != (d**6, d**6):
        raise ValueError(f"expected a {d**6} x {d**6} operator, got {m.shape}")
    rng = rng or SeededRng(0)
    n3 = d**3
    m4 = m.reshape(n3, n3, n3, n3)  # [r1, r2, c1, c2]
    z = np.empty((n3, n3, n3 * n3), dtype=complex)  # [r1, r2, (c1 c2)]
    z_rows = z.reshape(n3, -1)
    residuals = []
    for i in range(trials):
        v = sample_haar_unitary(d, rng.substream(2 * i))
        w = sample_haar_unitary(d, rng.substream(2 * i + 1))
        a = tensor(v, v, v.conj())
        b = tensor(w.conj(), w, w)
        np.matmul(b, m4.reshape(n3, n3, n3 * n3), out=z)
        for r1 in range(n3):
            mg = np.matmul(a.T, m4[r1] @ b)  # [r2, c1, c2]
            gm = (a[r1] @ z_rows).reshape(n3, n3, n3)
            residuals.append(max_abs(mg - gm))
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
    rows: Mapping[tuple[str, str], tuple[tuple[str, str], ...]]

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


def blocks_from_choi(choi: np.ndarray, table: IrrepTable,
                     covariance_tol: float = 1e-8, trials: int = 5,
                     rng: SeededRng | None = None) -> IrrepBlocks:
    """Extract the coefficient blocks of a covariant operator.

    Each entry is Tr[(T^mu_ji (x) T~^nu_lk) R] / (d_mu d_nu), the divisor
    being Tr[T T†] per intertwiner; rejects operators whose covariance
    residual exceeds ``covariance_tol``.  With R realigned once into
    K[(p,q),(r,s)] = R[(q,s),(p,r)], so that Tr[(A (x) B) R] =
    vec(A)^T K vec(B), each block is one product over the stacked
    intertwiners.
    """
    choi = as_matrix(choi)
    d = table.d
    res = verify_covariance(choi, d, trials=trials, rng=rng)
    if not res <= covariance_tol:  # NaN fails
        raise NotCovariantError(res, covariance_tol)
    n3 = d**3
    realigned = choi.reshape(n3, n3, n3, n3).transpose(2, 0, 3, 1).reshape(n3 * n3, n3 * n3)
    left = {}  # mu -> rows vec(T^mu_ji) K over the sector pairs (i, j)
    blocks = {}
    rows = {}
    for (mu, nu), labels in block_keys(d):
        sm, sn = valid_sectors(mu, d), valid_sectors(nu, d)
        if mu not in left:
            left[mu] = np.array([table.intertwiners[(mu, j, i)].ravel()
                                 for i in sm for j in sm]) @ realigned
        right = np.array([table.intertwiners_conj_first[(nu, l, k)].ravel()
                          for k in sn for l in sn])
        g = (left[mu] @ right.T).reshape(len(sm), len(sm), len(sn), len(sn))  # [i, j, k, l]
        n = len(labels)
        blocks[(mu, nu)] = g.transpose(0, 2, 1, 3).reshape(n, n) / (table.dim(mu) * table.dim(nu))
        rows[(mu, nu)] = labels
    return IrrepBlocks(d=d, blocks=blocks, rows=rows)


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
    total = 0.0 + 0.0j
    for mu in MU_LABELS:
        signs = valid_sectors(mu, d)
        if not signs:
            continue
        for i in signs:
            for j in signs:
                total += table.dim(mu) * blocks.entry(mu, mu, (i, i), (j, j))
    return float(np.real(total)) / d**4
