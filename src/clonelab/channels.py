"""Channels as Choi operators, comb networks, and the gate-insertion calculus.

Conventions (fixed once, used everywhere):

* ``|I> = sum_i |i>|i>`` is the unnormalized maximally entangled vector; as a
  flat array it equals ``vec(eye(d))`` with row-major ``vec``.
* The Choi operator of a channel ``C: S(H_in) -> S(H_out)`` is
  ``(C (x) Id)(|I><I|)`` and lives on ``H_out (x) H_in`` (output factor first).
  For a unitary ``U`` it is ``|U><U|`` with ``|U> = (U (x) I)|I> = vec(U)``.
* Channel application is ``rho -> Tr_in[(I_out (x) rho^T) C]``.
* A one-slot comb's Choi operator lives on the six d-dimensional factors
  ordered ``(0B, 0E, 1, 2, 3B, 3E)``: factors 0B,0E enter the network, factor
  1 is emitted into the open slot, factor 2 returns from the slot, and 3B,3E
  leave the network.
* All transposes and conjugations are entrywise in the computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL_EQ,
    ATOL_HERMITIAN_EIG,
    ATOL_PSD,
    ATOL_RANK,
    DimensionMismatchError,
    NotHermitianError,
    as_matrix,
    dagger,
    eig_hermitian,
    max_abs,
    partial_trace,
    psd_residual,
    require_unitary,
    worst,
)


class CompletenessError(ValueError):
    """Kraus set fails sum K†K = I; carries the residual."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"Kraus completeness residual {residual:.3e} > tol {tol:.3e}")
        self.residual = residual
        self.tol = tol


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization; vec(M) = (M (x) I)|I>."""
    return as_matrix(m).reshape(-1)


def max_entangled_vec(d: int) -> np.ndarray:
    """The unnormalized |I> on two d-dimensional factors."""
    return np.eye(d, dtype=complex).reshape(-1)


@dataclass(frozen=True)
class Channel:
    """A CPTP map stored as its Choi operator on (output, input) factors.

    ``labels_in`` / ``labels_out`` name the tensor factors of the input and
    output spaces; their per-factor dimensions are ``dims_in`` / ``dims_out``.
    """

    choi: np.ndarray
    labels_in: tuple[str, ...]
    labels_out: tuple[str, ...]
    dims_in: tuple[int, ...]
    dims_out: tuple[int, ...]

    @property
    def dim_in(self) -> int:
        return int(np.prod(self.dims_in))

    @property
    def dim_out(self) -> int:
        return int(np.prod(self.dims_out))

    def tp_residual(self) -> float:
        """Max-norm residual of Tr_out[choi] against the input identity."""
        red = partial_trace(self.choi, [self.dim_out, self.dim_in], keep=[1])
        return max_abs(red - np.eye(self.dim_in))

    def validate(self) -> None:
        n = self.dim_in * self.dim_out
        if self.choi.shape != (n, n):
            raise DimensionMismatchError(
                f"Choi shape {self.choi.shape} != ({n}, {n})"
            )
        try:
            cp = psd_residual(self.choi, ATOL_HERMITIAN_EIG)
        except NotHermitianError as exc:  # NaN entries fail here, before eigvalsh
            raise ValueError(f"Choi operator not PSD: {exc}") from exc
        if not cp <= ATOL_PSD:
            raise ValueError(f"Choi operator not PSD: residual {cp:.3e}")
        tp = self.tp_residual()
        if not tp <= ATOL_EQ:
            raise ValueError(f"channel not trace preserving: residual {tp:.3e}")


def make_channel(
    choi: np.ndarray,
    dims_in,
    dims_out,
    labels_in: tuple[str, ...] = (),
    labels_out: tuple[str, ...] = (),
    validate: bool = True,
) -> Channel:
    """Assemble a Channel from a Choi operator and per-factor dimensions."""
    dims_in = tuple(int(x) for x in np.atleast_1d(dims_in))
    dims_out = tuple(int(x) for x in np.atleast_1d(dims_out))
    labels_in = tuple(labels_in) or tuple(f"in{i}" for i in range(len(dims_in)))
    labels_out = tuple(labels_out) or tuple(f"out{i}" for i in range(len(dims_out)))
    if len(labels_in) != len(dims_in) or len(labels_out) != len(dims_out):
        raise DimensionMismatchError("factor labels do not match factor dims")
    ch = Channel(
        choi=as_matrix(choi),
        labels_in=labels_in,
        labels_out=labels_out,
        dims_in=dims_in,
        dims_out=dims_out,
    )
    if validate:
        ch.validate()
    return ch


def choi_of_unitary(u: np.ndarray) -> Channel:
    """Rank-one Choi |U><U| of a unitary channel."""
    u = require_unitary(u)
    v = vec(u)
    return make_channel(np.outer(v, v.conj()), dims_in=[u.shape[0]], dims_out=[u.shape[0]])


def choi_from_kraus(
    kraus,
    dims_in=None,
    dims_out=None,
    labels_in: tuple[str, ...] = (),
    labels_out: tuple[str, ...] = (),
) -> Channel:
    """Channel from Kraus operators; checks sum K†K = I within ATOL_EQ."""
    ks = [as_matrix(k) for k in kraus]
    if not ks:
        raise ValueError("empty Kraus list")
    dout, din = ks[0].shape
    for k in ks:
        if k.shape != (dout, din):
            raise DimensionMismatchError(f"Kraus shapes differ: {k.shape} vs {(dout, din)}")
    comp = sum(dagger(k) @ k for k in ks)
    res = max_abs(comp - np.eye(din))
    if not res <= ATOL_EQ:  # NaN fails
        raise CompletenessError(res, ATOL_EQ)
    choi = np.zeros((dout * din, dout * din), dtype=complex)
    for k in ks:
        v = vec(k)
        choi += np.outer(v, v.conj())
    return make_channel(
        choi,
        dims_in=dims_in if dims_in is not None else [din],
        dims_out=dims_out if dims_out is not None else [dout],
        labels_in=labels_in,
        labels_out=labels_out,
    )


def kraus_of(channel: Channel) -> list[np.ndarray]:
    """Kraus operators extracted from the Choi eigendecomposition."""
    w, v = eig_hermitian(channel.choi, ATOL_HERMITIAN_EIG)
    out = []
    for lam, col in zip(w, v.T):
        if lam > ATOL_RANK:
            out.append(np.sqrt(lam) * col.reshape(channel.dim_out, channel.dim_in))
    return out


def apply_channel(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel: Tr_in[(I_out (x) rho^T) choi]."""
    rho = as_matrix(rho)
    if rho.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatchError(
            f"state shape {rho.shape} != ({channel.dim_in}, {channel.dim_in})"
        )
    if not abs(np.trace(rho) - 1.0) <= ATOL_EQ:  # NaN fails
        raise ValueError(f"input state trace {np.trace(rho):.6f} != 1")
    c4 = channel.choi.reshape(channel.dim_out, channel.dim_in,
                              channel.dim_out, channel.dim_in)
    # Tr_in[(I (x) rho^T) C] in components: out[a,b] = sum_{x,y} C[(a,x),(b,y)] rho[x,y]
    return np.einsum("axby,xy->ab", c4, rho)


COMB_FACTORS = ("0B", "0E", "1", "2", "3B", "3E")


@dataclass(frozen=True)
class CombNetwork:
    """Choi operator of a one-slot network on factors (0B, 0E, 1, 2, 3B, 3E)."""

    choi: np.ndarray
    d: int

    def __post_init__(self):
        n = self.d**6
        if self.choi.shape != (n, n):
            raise DimensionMismatchError(
                f"comb Choi shape {self.choi.shape} != ({n}, {n})"
            )

    def normalization_residuals(self) -> tuple[float, float]:
        return comb_normalization_residuals(self.choi, self.d)

    def validate(self, check_psd: bool = True) -> None:
        if check_psd:
            neg = psd_residual(self.choi, ATOL_HERMITIAN_EIG)
            if not neg <= ATOL_PSD:
                raise ValueError(f"comb Choi not PSD: min eigenvalue {-neg:.3e}")
        r1, r2 = self.normalization_residuals()
        if not worst((r1, r2)) <= ATOL_EQ:
            raise ValueError(
                f"comb normalization violated: slot residual {r1:.3e}, input residual {r2:.3e}"
            )


def comb_normalization_residuals(choi: np.ndarray, d: int) -> tuple[float, float]:
    """Constructive check of the recursive comb normalization.

    Recovers the reduced network ``R0 = Tr_{3B,3E,2}[R]/d`` and returns the
    residuals of the two identities ``Tr_{3B,3E}[R] = R0 (x) I_2`` and
    ``Tr_1[R0] = I_{0B,0E}``.
    """
    choi = as_matrix(choi)
    dims = [d] * 6
    reduced = partial_trace(choi, dims, keep=[0, 1, 2, 3])  # on (0B,0E,1,2)
    r0 = partial_trace(choi, dims, keep=[0, 1, 2]) / d      # on (0B,0E,1)
    res_slot = max_abs(reduced - np.kron(r0, np.eye(d)))
    res_input = max_abs(partial_trace(r0, [d, d, d], keep=[0, 1]) - np.eye(d * d))
    return res_slot, res_input


def comb_from_pre_post(pre: Channel, post: Channel, d: int, memory_dim: int,
                       validate: bool = True) -> CombNetwork:
    """Choi of the one-slot network pre (0B,0E)->(1,M), slot, post (2,M)->(3B,3E).

    The two Choi operators are contracted over the memory factor M (a link
    with a transpose on the shared factor), leaving the six comb factors.

    With r1, c1 indexing the row and column factors (0B, 0E, 1) and r2, c2
    the factors (2, 3B, 3E), the link is a sum of m^2 products,
    R[r1 r2, c1 c2] = sum_{MN} pre[(r1, M), (c1, N)] post[(r2, M), (c2, N)].
    Each row slab r1 is one batched product with inner dimension m^2, written
    straight into the output, so the comb is the only operator-sized array.
    """
    m = int(memory_dim)
    if pre.dim_in != d * d or pre.dim_out != d * m:
        raise DimensionMismatchError(
            f"pre-channel dims ({pre.dim_in}->{pre.dim_out}) != ({d * d}->{d * m})"
        )
    if post.dim_in != d * m or post.dim_out != d * d:
        raise DimensionMismatchError(
            f"post-channel dims ({post.dim_in}->{post.dim_out}) != ({d * m}->{d * d})"
        )
    n3 = d**3
    a8 = pre.choi.reshape(d, m, d, d, d, m, d, d)   # ((1,M),(0B,0E)) row, col
    b8 = post.choi.reshape(d, d, d, m, d, d, d, m)  # ((3B,3E),(2,M)) row, col
    a = a8.transpose(1, 5, 2, 3, 0, 6, 7, 4).reshape(m * m, n3, n3)  # [MN, r1, c1]
    b = b8.transpose(2, 0, 1, 3, 7, 6, 4, 5).reshape(n3, m * m, n3)  # [r2, MN, c2]
    out = np.empty((n3, n3, n3, n3), dtype=complex)  # [r1, r2, c1, c2]
    for r1 in range(n3):
        np.matmul(a[:, r1].T, b, out=out[r1])
    comb = CombNetwork(choi=out.reshape(d**6, d**6), d=d)
    if validate:
        # linking PSD Chois preserves positivity, so only the normalization
        # needs confirming here; d = 4 would otherwise pay a 4096-dim eigensolve
        comb.validate(check_psd=False)
    return comb


def insert_gate(network: CombNetwork, u: np.ndarray) -> Channel:
    """Plug the unitary ``u`` into the open slot of the network.

    Implements the contraction of the conjugated gate Choi over the slot
    factors (1, 2): the inserted operator is |U*><U*| with the conjugated
    unitary acting on the factor returned from the slot.  Returns the
    resulting channel from (0B, 0E) to (3B, 3E).

    The slot operator is rank one, so the contraction splits in two and the
    d^12-entry network operator is read once.  First the column slot: a
    vector-matrix product over the column factors (1, 2) in one streaming
    pass, leaving a d^10-entry intermediate.  Then the row slot: the
    conjugated vector over the row factors (1, 2) of that intermediate, which
    also moves the output factors (3B, 3E) ahead of the inputs (0B, 0E).
    """
    u = require_unitary(u)
    d = network.d
    if u.shape != (d, d):
        raise DimensionMismatchError(f"gate shape {u.shape} != ({d}, {d})")
    # x[c, e] = component of (I_1 (x) U*_2)|I> on (1, 2), flattened
    x = u.conj().T.reshape(-1)
    # rows (0B 0E, 1 2, 3B 3E), columns (0B 0E, [1 2], 3B 3E): the column
    # slot is the middle axis once the row index and columns (0B 0E) merge
    half = x @ network.choi.reshape(d**8, d**2, d**2)
    half = half.reshape(d**2, d**2, d**2, d**2, d**2)  # (0B0E, 12, 3B3E)_row, (0B0E, 3B3E)_col
    out = np.einsum("k,akbce->baec", x.conj(), half)
    return make_channel(
        out.reshape(d**4, d**4),
        dims_in=[d, d], dims_out=[d, d],
        labels_in=("0B", "0E"), labels_out=("3B", "3E"),
        validate=False,
    )


def double_unitary_choi_vec(u: np.ndarray) -> np.ndarray:
    """|U (x) U> on ((3B,3E),(0B,0E)); the rank-one Choi vector of U tensor U."""
    uu = np.kron(as_matrix(u), as_matrix(u))
    return vec(uu)


def channel_fidelity_with_double_unitary(channel: Channel, u: np.ndarray) -> float:
    """Global channel fidelity (1/d^4) Tr[C |U(x)U><U(x)U|] in [0, 1]."""
    u = require_unitary(u)
    d = u.shape[0]
    if channel.dim_in != d * d or channel.dim_out != d * d:
        raise DimensionMismatchError(
            f"channel dims ({channel.dim_in}->{channel.dim_out}) incompatible with d={d}"
        )
    w = double_unitary_choi_vec(u)
    val = np.real(w.conj() @ channel.choi @ w) / d**4
    return float(val)


def comb_fidelity_functional(choi: np.ndarray, u: np.ndarray, d: int) -> float:
    """Per-gate fidelity integrand evaluated directly on a six-factor operator.

    Equals ``channel_fidelity_with_double_unitary(insert_gate(R, u), u)`` but
    skips the intermediate channel; also meaningful for non-normalized
    covariant operators, where it evaluates the same quadratic functional.
    """
    w = _functional_vectors(np.asarray(u)[None], d)[0]
    return float(np.real(w.conj() @ as_matrix(choi) @ w)) / d**4


def comb_fidelity_functional_batch(choi: np.ndarray, us: np.ndarray, d: int) -> np.ndarray:
    """``comb_fidelity_functional`` for each gate of the stack ``us`` (n, d, d).

    Stacks the vectors w_u as the rows of W and takes Re diag(W* R W^T) / d^4,
    so the operator R is read once for the whole stack.
    """
    w = _functional_vectors(us, d)
    return np.real(np.einsum("si,is->s", w.conj(), as_matrix(choi) @ w.T)) / d**4


def _functional_vectors(us, d: int) -> np.ndarray:
    """Rows w_u with R's fidelity functional w_u^* R w_u, for a stack (n, d, d)
    of gates, each checked unitary."""
    us = require_unitary(us)
    if us.shape[1:] != (d, d):
        raise DimensionMismatchError(f"gate stack shape {us.shape} != (n, {d}, {d})")
    t1 = np.swapaxes(us, 1, 2)  # pair (0B, 3B): component [x, a] = U[a, x]
    t3 = t1.conj()              # pair (1, 2):  component [c, e] = conj(U[e, c])
    return np.einsum("sxa,syb,sce->sxyceab", t1, t1, t3).reshape(len(us), -1)


def channel_to_json_dict(channel: Channel) -> dict:
    """JSON-ready description: labels, dims, entries as [re, im] pairs."""
    return {
        "labels_in": list(channel.labels_in),
        "labels_out": list(channel.labels_out),
        "dims_in": list(channel.dims_in),
        "dims_out": list(channel.dims_out),
        "entries": [[float(z.real), float(z.imag)] for z in channel.choi.reshape(-1)],
    }


def comb_to_json_dict(network: CombNetwork) -> dict:
    """JSON-ready description of a comb network Choi operator."""
    return {
        "labels": list(COMB_FACTORS),
        "dims": [network.d] * 6,
        "entries": [[float(z.real), float(z.imag)] for z in network.choi.reshape(-1)],
    }
