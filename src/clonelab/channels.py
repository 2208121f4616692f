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
    ATOL_RANK,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    as_matrix,
    as_operator,
    dagger,
    eig_hermitian,
    max_abs,
    partial_trace,
    require_psd,
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
            require_psd(self.choi, ATOL_HERMITIAN_EIG)
        except (NotHermitianError, NotPSDError) as exc:  # NaN entries fail as not Hermitian
            raise ValueError(f"Choi operator not PSD: {exc}") from exc
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
    """Channel from Kraus operators; checks sum K†K = I within ATOL_EQ.

    With the K operators stacked, the completeness sum is one product S†S
    over the stacked rows S, and the Choi operator is the Gram product
    V^T V* over the rows vec(K) of V.
    """
    ks = [as_matrix(k) for k in kraus]
    if not ks:
        raise ValueError("empty Kraus list")
    dout, din = ks[0].shape
    for k in ks:
        if k.shape != (dout, din):
            raise DimensionMismatchError(f"Kraus shapes differ: {k.shape} vs {(dout, din)}")
    stack = np.stack(ks)
    rows = stack.reshape(-1, din)
    res = max_abs(dagger(rows) @ rows - np.eye(din))
    if not res <= ATOL_EQ:  # NaN fails
        raise CompletenessError(res, ATOL_EQ)
    v = stack.reshape(len(ks), -1)
    return make_channel(
        v.T @ v.conj(),
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


class CombNetwork:
    """A one-slot network on the factors (0B, 0E, 1, 2, 3B, 3E).

    Held either as its dense Choi operator ``choi`` or as Kronecker ``terms``
    ``(a, b)``: two stacks of K operators, ``a[k]`` on (0B, 0E, 1) and ``b[k]``
    on (2, 3B, 3E), with R = sum_k a[k] (x) b[k].  ``comb_from_pre_post`` makes
    the term form, with K = m^2 for a memory of dimension m.  The dense
    operator of a term network is linked on its first read and kept on the
    instance; gate insertion and the normalization residuals never read it.
    """

    def __init__(self, choi: np.ndarray | None = None, *, d: int,
                 terms: tuple[np.ndarray, np.ndarray] | None = None):
        self.d = d
        n = d**6
        if (choi is None) == (terms is None):
            raise ValueError("give a comb as exactly one of choi and terms")
        if terms is not None:
            a, b = terms
            n3 = d**3
            if a.ndim != 3 or a.shape[1:] != (n3, n3) or b.shape != a.shape:
                raise DimensionMismatchError(
                    f"comb term stacks {a.shape}, {b.shape} != (K, {n3}, {n3}) each"
                )
        elif choi.shape != (n, n):
            raise DimensionMismatchError(f"comb Choi shape {choi.shape} != ({n}, {n})")
        self.terms = terms
        self._choi = choi

    @property
    def choi(self) -> np.ndarray:
        """The dense d^6 x d^6 Choi operator."""
        if self._choi is None:
            self._choi = _link_terms(*self.terms, self.d)
        return self._choi

    def normalization_residuals(self) -> tuple[float, float]:
        return comb_normalization_residuals(self)

    def validate(self, check_psd: bool = True) -> None:
        if check_psd:
            require_psd(self.choi, ATOL_HERMITIAN_EIG)
        r1, r2 = self.normalization_residuals()
        if not worst((r1, r2)) <= ATOL_EQ:
            raise ValueError(
                f"comb normalization violated: slot residual {r1:.3e}, input residual {r2:.3e}"
            )


def comb_normalization_residuals(network: CombNetwork) -> tuple[float, float]:
    """Constructive check of the recursive comb normalization.

    Recovers the reduced network ``R0 = Tr_{3B,3E,2}[R]/d`` and returns the
    residuals of the two identities ``Tr_{3B,3E}[R] = R0 (x) I_2`` and
    ``Tr_1[R0] = I_{0B,0E}``.  On terms the traces fall on the factors b[k]
    alone: ``Tr_{3B,3E}[R] = sum_k a[k] (x) Tr_{3B,3E}[b[k]]`` and
    ``R0 = sum_k a[k] Tr[b[k]] / d``.
    """
    d = network.d
    if network.terms is None:
        dims = [d] * 6
        reduced = partial_trace(network.choi, dims, keep=[0, 1, 2, 3])  # on (0B,0E,1,2)
        r0 = partial_trace(network.choi, dims, keep=[0, 1, 2]) / d      # on (0B,0E,1)
        res_slot = max_abs(reduced - np.kron(r0, np.eye(d)))
    else:
        a, b = network.terms
        k = len(a)
        tb = np.trace(b.reshape(k, d, d * d, d, d * d), axis1=2, axis2=4)  # [k, 2, 2']
        r0 = np.tensordot(np.trace(tb, axis1=1, axis2=2), a, axes=1) / d
        # Tr_{3B,3E}[R] - R0 (x) I_2 as [r, c, 2, 2'], rows r and columns c on (0B,0E,1)
        diff = (a.reshape(k, -1).T @ tb.reshape(k, -1)).reshape(d**3, d**3, d, d)
        for i in range(d):
            diff[:, :, i, i] -= r0
        res_slot = max_abs(diff)
    res_input = max_abs(partial_trace(r0, [d, d, d], keep=[0, 1]) - np.eye(d * d))
    return res_slot, res_input


def _link_terms(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """The dense R[r1 r2, c1 c2] = sum_k a[k, r1, c1] b[k, r2, c2].

    Each row slab R[r1], as [r2, c1, c2], is one batched product with inner
    dimension K, written straight into the output, so the comb is the only
    operator-sized array.
    """
    n3 = d**3
    out = np.empty((n3, n3, n3, n3), dtype=complex)  # [r1, r2, c1, c2]
    bt = b.transpose(1, 0, 2)  # [r2, k, c2]
    for r1 in range(n3):
        np.matmul(a[:, r1].T, bt, out=out[r1])
    return out.reshape(d**6, d**6)


def comb_from_pre_post(pre: Channel, post: Channel, d: int, memory_dim: int,
                       validate: bool = True) -> CombNetwork:
    """The one-slot network pre (0B,0E)->(1,M), slot, post (2,M)->(3B,3E).

    The two Choi operators are contracted over the memory factor M (a link
    with a transpose on the shared factor), leaving the six comb factors.

    With r1, c1 indexing the row and column factors (0B, 0E, 1) and r2, c2
    the factors (2, 3B, 3E), the link is a sum of m^2 products,
    R[r1 r2, c1 c2] = sum_{MN} pre[(r1, M), (c1, N)] post[(r2, M), (c2, N)],
    which the network keeps as its terms a[MN] (x) b[MN]; no operator-sized
    array is made here.
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
    b = b8.transpose(3, 7, 2, 0, 1, 6, 4, 5).reshape(m * m, n3, n3)  # [MN, r2, c2]
    comb = CombNetwork(d=d, terms=(a, b))
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

    With x = U^dagger on (1, 2) and rows (i, alpha, beta, o), columns
    (I, A, B, O) of the network on ((0B 0E), 1, 2, (3B 3E)), the output is
    out[(o, i), (O, I)] = sum conj(x[alpha, beta]) x[A, B] R[(i alpha beta o), (I A B O)].

    On terms, the slot sits on both factors of each product: first the
    sandwich S_k[i, I, beta, B] = sum_{alpha, A} a_k[(i alpha), (I A)]
    conj(x[alpha, beta]) x[A, B], then one product over (k, beta, B) with b.
    On a dense operator the rank-one slot splits in two, so the d^12 entries
    are read once: a vector-matrix product over the column factors (1, 2)
    leaves a d^10-entry intermediate, and the conjugated vector over its row
    factors (1, 2) also moves (3B, 3E) ahead of (0B, 0E).
    """
    u = require_unitary(u)
    d = network.d
    if u.shape != (d, d):
        raise DimensionMismatchError(f"gate shape {u.shape} != ({d}, {d})")
    x = u.conj().T  # x[c, e] = component of (I_1 (x) U*_2)|I> on (1, 2)
    n2 = d * d
    if network.terms is not None:
        a, b = network.terms
        k = len(a)
        t = a.reshape(-1, d) @ x  # [k, i, alpha, I, B]
        s = np.matmul(x.conj().T, t.reshape(k * n2, d, n2 * d))  # [k, i, beta, I, B]
        out = np.tensordot(s.reshape(k, n2, d, n2, d), b.reshape(k, d, n2, d, n2),
                           axes=([0, 2, 4], [0, 1, 3]))  # [i, I, o, O]
        out = out.transpose(2, 0, 3, 1)
    else:
        # rows (0B 0E, 1 2, 3B 3E), columns (0B 0E, [1 2], 3B 3E): the column
        # slot is the middle axis once the row index and columns (0B 0E) merge
        half = x.reshape(-1) @ network.choi.reshape(d**8, n2, n2)
        half = half.reshape(n2, n2, n2, n2, n2)  # (0B0E, 12, 3B3E)_row, (0B0E, 3B3E)_col
        out = np.einsum("k,akbce->baec", x.conj().reshape(-1), half)
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
    return float(np.real(w.conj() @ as_operator(choi, d**6) @ w)) / d**4


def comb_fidelity_functional_batch(comb: np.ndarray | CombNetwork, us: np.ndarray,
                                   d: int) -> np.ndarray:
    """``comb_fidelity_functional`` for each gate of the stack ``us`` (n, d, d),
    on a dense six-factor operator or on a ``CombNetwork``.

    Stacks the vectors w_u as the rows of W and takes Re diag(W* R W^T) / d^4,
    so a dense operator R is read once for the whole stack.  On a network
    held as terms R = sum_k a[k] (x) b[k], each w_u is the d^3 x d^3 matrix
    W_u over the two triples and its functional is
    sum_k Tr[W_u† a[k] W_u b[k]^T], two products per term with no
    operator-sized array.
    """
    w = _functional_vectors(us, d)
    if isinstance(comb, CombNetwork) and comb.terms is not None:
        w = w.reshape(len(w), d**3, d**3)
        vals = np.zeros(len(w))
        for a, b in zip(*comb.terms):
            vals += np.einsum("sij,sij->s", w.conj(), a @ w @ b.T).real
        return vals / d**4
    choi = comb.choi if isinstance(comb, CombNetwork) else comb
    return np.real(np.einsum("si,is->s", w.conj(), as_operator(choi, d**6) @ w.T)) / d**4


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
