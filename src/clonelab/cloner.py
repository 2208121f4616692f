"""The optimal one-to-two cloner of unitary gates and its variants.

The cloner is a memory channel: a pre-processing step stores which
symmetric/antisymmetric sector the two inputs occupy in a qubit memory while
sending one system through the unknown gate, and a post-processing step
re-symmetrizes the returned system with a fresh one, weighted by
``d / sqrt(d_i d_j)``.  Composed around a gate U this emulates U (x) U with
Haar-averaged fidelity ``(d + sqrt(d^2 - 1)) / d^3`` for every U.

Three independent construction paths are provided and cross-checked in the
tests: Kraus composition of the two steps, the closed-form sandwich map, and
gate insertion into the assembled comb Choi operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    CombNetwork,
    choi_from_kraus,
    comb_from_pre_post,
    make_channel,
)
from .haar import SeededRng
from .linalg import (
    as_matrix,
    dagger,
    max_abs,
    partial_trace,
    require_gate_dim,
    require_unitary,
    tensor,
    worst,
)
from .irreps import sector_dims, swap_operator, sym_antisym_projectors

MEMORY_DIM = 2
# Memory basis convention: |+> = e0 tags the symmetric sector, |-> = e1 the
# antisymmetric one.


@dataclass(frozen=True)
class ClonerAssembly:
    """The two processing channels and the assembled one-slot comb."""

    d: int
    channel_a: Channel
    channel_b: Channel
    r1: CombNetwork
    memory_dim: int = MEMORY_DIM


def kraus_pre_a(d: int) -> list[np.ndarray]:
    """Kraus operators K_m = sum_i ((I (x) <m|) P_i) (x) |i>_M, m = 1..d."""
    d = require_gate_dim(d)
    projectors = sym_antisym_projectors(d)
    out = []
    for m in range(d):
        bra_m = np.zeros((1, d))
        bra_m[0, m] = 1.0
        k = np.zeros((d * MEMORY_DIM, d * d), dtype=complex)
        for idx, p in enumerate(projectors):
            ket_i = np.zeros((MEMORY_DIM, 1))
            ket_i[idx, 0] = 1.0
            k += np.kron(np.kron(np.eye(d), bra_m) @ p, ket_i)
        out.append(k)
    return out


def pre_channel_a(d: int) -> Channel:
    """Sector-tagging pre-processing: rho -> sum_ij Tr_0E[P_i rho P_j] (x) |i><j|."""
    return choi_from_kraus(
        kraus_pre_a(d),
        dims_in=[d, d], dims_out=[d, MEMORY_DIM],
        labels_in=("0B", "0E"), labels_out=("1", "M"),
    )


def kraus_post_b(d: int) -> list[np.ndarray]:
    """Kraus operators K_n = sum_i sqrt(d/d_i) P_i (I (x) |n>) <i|_M, n = 1..d."""
    d = require_gate_dim(d)
    projectors = sym_antisym_projectors(d)
    sec = sector_dims(d)
    out = []
    for n in range(d):
        ket_n = np.zeros((d, 1))
        ket_n[n, 0] = 1.0
        k = np.zeros((d * d, d * MEMORY_DIM), dtype=complex)
        for idx, (sign, p) in enumerate(zip("+-", projectors)):
            if sec[sign] == 0:
                continue
            bra_i = np.zeros((1, MEMORY_DIM))
            bra_i[0, idx] = 1.0
            k += np.sqrt(d / sec[sign]) * np.kron(p @ np.kron(np.eye(d), ket_n), bra_i)
        out.append(k)
    return out


def post_channel_b(d: int) -> Channel:
    """Re-symmetrizing post-processing: the memory-controlled extension of
    optimal universal pure-state cloning."""
    return choi_from_kraus(
        kraus_post_b(d),
        dims_in=[d, MEMORY_DIM], dims_out=[d, d],
        labels_in=("2", "M"), labels_out=("3B", "3E"),
    )


def choi_r1_of_cloner(d: int, validate: bool = True) -> CombNetwork:
    """Six-factor comb Choi of the cloner network (pre and post linked over M)."""
    return comb_from_pre_post(pre_channel_a(d), post_channel_b(d), d,
                              MEMORY_DIM, validate=validate)


def build_cloner(d: int) -> ClonerAssembly:
    """Assemble channels and comb once; immutable thereafter."""
    a = pre_channel_a(d)
    b = post_channel_b(d)
    r1 = comb_from_pre_post(a, b, d, MEMORY_DIM)
    return ClonerAssembly(d=d, channel_a=a, channel_b=b, r1=r1)


def cloner_channel(u: np.ndarray) -> Channel:
    """The emulated two-copy channel for gate ``u``, via Kraus composition."""
    u = require_unitary(u)
    d = require_gate_dim(u.shape[0])
    lift = np.kron(u, np.eye(MEMORY_DIM))
    kraus = [kb @ lift @ ka for ka in kraus_pre_a(d) for kb in kraus_post_b(d)]
    return choi_from_kraus(
        kraus,
        dims_in=[d, d], dims_out=[d, d],
        labels_in=("0B", "0E"), labels_out=("3B", "3E"),
    )


def _sandwich_choi(u: np.ndarray, coeffs) -> np.ndarray:
    """Choi on ((3B,3E),(0B,0E)) of rho -> sum_ij c_ij P_i (U Tr_0E[P_i rho P_j] U† (x) I) P_j.

    Writing the partial trace and the appended identity out over the basis of
    factor E, the map is rho -> sum_ij c_ij sum_mn L_i[m,n] rho L_j[m,n]†
    with L_i[m,n] = P_i (U (x) |n><m|) P_i.  Stacking the rows vec(L_i[m,n])
    over (i, m, n) into V (2d^2 x d^4), the Choi operator is one Gram
    product, V^T (c (x) I_{d^2}) V*.
    """
    u = as_matrix(u)
    d = u.shape[0]
    eye = np.eye(d)
    lift = np.einsum("ac,bn,em->mnabce", u, eye, eye).reshape(d * d, d * d, d * d)
    v = np.stack([p @ lift @ p for p in sym_antisym_projectors(d)]).reshape(2, d * d, -1)
    weighted = np.tensordot(np.asarray(coeffs, dtype=float), v.conj(), axes=1)
    return v.reshape(2 * d * d, -1).T @ weighted.reshape(2 * d * d, -1)


def cloner_channel_closed_form(u: np.ndarray) -> Channel:
    """The same two-copy channel evaluated from its closed-form action."""
    u = require_unitary(u)
    d = require_gate_dim(u.shape[0])
    sec = sector_dims(d)
    dims = [sec["+"], sec["-"]]
    coeffs = [[d / np.sqrt(di * dj) if di and dj else 0.0 for dj in dims] for di in dims]
    return make_channel(
        _sandwich_choi(u, coeffs),
        dims_in=[d, d], dims_out=[d, d],
        labels_in=("0B", "0E"), labels_out=("3B", "3E"),
    )


def decohered_cloner_channel(u: np.ndarray) -> Channel:
    """The cloner with its memory dephased in the sector basis.

    Only the diagonal i = j terms of the closed form survive, with weight
    d/d_i; the fidelity collapses to 1/d^2.
    """
    u = require_unitary(u)
    d = require_gate_dim(u.shape[0])
    sec = sector_dims(d)
    dims = [sec["+"], sec["-"]]
    coeffs = [[d / di if (i == j and di) else 0.0 for j, dj in enumerate(dims)]
              for i, di in enumerate(dims)]
    return make_channel(
        _sandwich_choi(u, coeffs),
        dims_in=[d, d], dims_out=[d, d],
        labels_in=("0B", "0E"), labels_out=("3B", "3E"),
    )


def memory_dephasing_kraus() -> list[np.ndarray]:
    """Rank-one projectors onto the memory basis states."""
    return [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def choi_r1_of_decohered_cloner(d: int) -> CombNetwork:
    """Comb of the cloner with the memory dephased between the two steps."""
    deph = [np.kron(np.eye(d), p) for p in memory_dephasing_kraus()]
    kraus_a = [dp @ ka for ka in kraus_pre_a(d) for dp in deph]
    a_deph = choi_from_kraus(kraus_a, dims_in=[d, d], dims_out=[d, MEMORY_DIM],
                             labels_in=("0B", "0E"), labels_out=("1", "M"))
    return comb_from_pre_post(a_deph, post_channel_b(d), d, MEMORY_DIM)


def first_factor_network(d: int) -> CombNetwork:
    """Baseline network: route the first input through the gate, discard the
    second, and hand out a maximally mixed second clone.

    Its Haar-averaged fidelity is the random-guess value 1/d^2.
    """
    d = require_gate_dim(d)
    # pre: 0B goes to the slot, 0E is traced out; trivial memory.
    pre = choi_from_kraus(
        [np.kron(np.eye(d), np.eye(d)[m][None, :]) for m in range(d)],
        dims_in=[d, d], dims_out=[d, 1],
        labels_in=("0B", "0E"), labels_out=("1", "M"),
    )
    # post: returned system becomes 3B, 3E is prepared in I/d.
    post = choi_from_kraus(
        [np.kron(np.eye(d), np.eye(d)[:, n][:, None]) / np.sqrt(d) for n in range(d)],
        dims_in=[d, 1], dims_out=[d, d],
        labels_in=("2", "M"), labels_out=("3B", "3E"),
    )
    return comb_from_pre_post(pre, post, d, 1)


def controlled_swap_dilation(d: int, trials: int = 20,
                             rng: SeededRng | None = None) -> tuple[np.ndarray, float]:
    """Unitary dilation of the pre-processing channel.

    Returns the controlled swap ``V = I (x) |+><+| + S (x) |-><-|`` together
    with the worst-case residual of the identity

        A(rho) = (I (x) W_M) Tr_0E[V (rho (x) |0><0|) V†] (I (x) W_M)†

    over ``trials`` random input states, where ``|0> = (|+> + |->)/sqrt(2)``
    and ``W_M`` is the fixed memory-basis change from
    :func:`memory_basis_change`.  The basis change is required because the
    dilation tags the sectors in the {I, S} interference basis rather than
    the projector basis used by the channel.
    """
    d = require_gate_dim(d)
    s = swap_operator(d)
    v = np.kron(np.eye(d * d), np.diag([1.0, 0.0])) + np.kron(s, np.diag([0.0, 1.0]))
    ket0 = np.array([1.0, 1.0]) / np.sqrt(2)
    w_m = memory_basis_change()
    kraus = kraus_pre_a(d)
    gen = (rng or SeededRng(0)).generator()
    residuals = []
    for _ in range(trials):
        g = gen.standard_normal((d * d, d * d)) + 1j * gen.standard_normal((d * d, d * d))
        rho = g @ dagger(g)
        rho /= np.trace(rho)
        big = v @ np.kron(rho, np.outer(ket0, ket0)) @ dagger(v)
        dil = partial_trace(big, [d, d, MEMORY_DIM], keep=[0, 2])
        lift = tensor(np.eye(d), w_m)
        dil = lift @ dil @ dagger(lift)
        direct = sum(k @ rho @ dagger(k) for k in kraus)
        residuals.append(max_abs(dil - direct))
    return v, worst(residuals)


def memory_basis_change() -> np.ndarray:
    """The Hadamard relating the dilation's memory basis to the channel's."""
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def closed_form_fidelity(d: int) -> float:
    """Optimal cloning fidelity (d + sqrt(d^2 - 1)) / d^3."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return float((d + np.sqrt(d * d - 1.0)) / d**3)
