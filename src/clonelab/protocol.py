"""Gate-encoded four-symbol key distribution protocol with eavesdropping.

One round: Bob prepares a maximally entangled pair and sends half to Alice;
Alice encodes a 2-bit symbol by applying one gate from her announced-later
basis (the four Pauli-type gates, or the same four rotated by a fixed 2pi/3
axis rotation, the two gate bases being mutually unbiased for any maximally
entangled seed state); Bob measures the returned pair in one of the two
induced Bell-type bases.  Rounds where the basis choices differ are sifted
out.

Three eavesdropping strategies are modeled with exact statistics: none,
intercept-resend (Eve swaps in her own half-entangled qubit, measures
Alice's output in a random basis, and re-encodes onto Bob's retained qubit),
and the cloning attack (Eve wraps Alice's gate in the optimal one-to-two
cloner, forwards one emulated output to Bob and measures the other after the
basis announcement).

Each strategy is one exact table ``joint[b, mu, nu_bob, nu_eve]``: the
probability of Bob's sifted outcome and Eve's guess given that Alice encoded
symbol mu in basis b.  Exact mode reduces the table over the uniform
(basis, symbol) cells with dyadic weights; for the canonical seed states every
honest and intercept-resend probability is a dyadic rational and therefore
exactly representable, so those statistics carry no rounding at all.  Sampled
mode draws each sifted round's (nu_bob, nu_eve) from its cell's row of the
table by inverse CDF.  Eve's measurement in the cloning attack is the
projective measurement in the announced Bell-type basis on her retained pair
(pluggable by swapping the basis construction); her numbers are outputs of
this simulator, not externally given values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import insert_gate
from .cloner import choi_r1_of_cloner
from .haar import SeededRng
from .linalg import ATOL_EQ, max_abs, partial_trace, require_unitary

STRATEGIES = ("none", "intercept_resend", "clone_attack")

# Regression lock for the cloning attack on the canonical seed: outputs of the
# exact oracle in run_exact, frozen after first computation.  The error rate
# sits well below the intercept-resend 3/8 while Eve's guess probability far
# exceeds the blind 1/4.
CLONE_ATTACK_SYMBOL_ERROR = 0.2834936490538903
CLONE_ATTACK_EVE_GUESS = 0.7165063509461097


def pauli_matrices() -> list[np.ndarray]:
    return [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]


def rotation_gate() -> np.ndarray:
    """The 2pi/3 rotation about (1,1,1)/sqrt(3): (I + i(sx + sy + sz))/2."""
    sx, sy, sz = pauli_matrices()[1:]
    return (np.eye(2) + 1j * (sx + sy + sz)) / 2


@dataclass(frozen=True)
class GateBases:
    """The two gate bases plus the entangled seed state of the protocol.

    ``bell`` is the normalized seed shared by Bob and Alice; ``bell_raw`` is
    the vector the exact engine actually contracts (the canonical seed is
    kept with integer entries so probabilities stay dyadic-exact).
    """

    sigma: tuple[np.ndarray, ...]
    u_rot: np.ndarray
    basis1: tuple[np.ndarray, ...]
    basis2: tuple[np.ndarray, ...]
    bell: np.ndarray
    bell_raw: np.ndarray

    def gate(self, basis: int, symbol: int) -> np.ndarray:
        return (self.basis1, self.basis2)[basis][symbol]


def _on_travel(gate: np.ndarray, pair: np.ndarray, travel_first: bool) -> np.ndarray:
    """Apply a gate, or a stack of gates, to the traveling factor of a
    two-qubit vector."""
    m = pair.reshape(2, 2)
    out = gate @ m if travel_first else m @ np.swapaxes(gate, -1, -2)
    return out.reshape(*np.shape(gate)[:-2], 4)


def _states(bases: GateBases, pair: np.ndarray, travel_first: bool) -> np.ndarray:
    """``states[b, mu]``: ``pair`` carrying gate mu of basis b."""
    return _on_travel(np.array([bases.basis1, bases.basis2]), pair, travel_first)


def _overlaps(vecs: np.ndarray) -> np.ndarray:
    """``o[a, m, b, n] = |<v_am|v_bn>|^2 / (|v_am|^2 |v_bn|^2)`` over a stack
    ``vecs[a, m]`` of vectors."""
    amp = np.einsum("amk,bnk->ambn", vecs.conj(), vecs)
    norm2 = np.einsum("amk,amk->am", vecs.conj(), vecs).real
    return (amp.real * amp.real + amp.imag * amp.imag) / (norm2[:, :, None, None] * norm2)


def mutual_unbiasedness_matrix(bases: GateBases) -> np.ndarray:
    """4 x 4 overlap table between the two induced Bell-type state bases."""
    return _overlaps(_states(bases, bases.bell_raw, travel_first=False))[1, :, 0, :]


def build_bases(bell_state: np.ndarray | None = None) -> GateBases:
    """Verify the seed state and assemble the two mutually unbiased gate bases.

    ``bell_state`` must be a maximally entangled two-qubit pure vector (both
    reduced states I/2 within ATOL_EQ); None selects the canonical seed
    (|00> + |11>)/sqrt(2).
    """
    sigma = pauli_matrices()
    u = rotation_gate()
    if bell_state is None:
        raw = np.eye(2, dtype=complex).reshape(-1)
    else:
        raw = np.asarray(bell_state, dtype=complex).reshape(-1)
        if raw.shape != (4,):
            raise ValueError(f"bell state must have 4 amplitudes, got {raw.shape}")
    bell = raw / np.sqrt(np.vdot(raw, raw).real)
    rho = np.outer(bell, bell.conj())
    for factor in (0, 1):
        res = max_abs(partial_trace(rho, [2, 2], keep=[factor]) - np.eye(2) / 2)
        if not res <= ATOL_EQ:  # NaN fails
            raise ValueError(
                f"seed state is not maximally entangled: factor {factor} residual {res:.3e}"
            )
    bases = GateBases(
        sigma=tuple(sigma),
        u_rot=require_unitary(u, 1e-12),
        basis1=tuple(sigma),
        basis2=tuple(u @ s for s in sigma),
        bell=bell,
        bell_raw=raw,
    )
    res = max_abs(mutual_unbiasedness_matrix(bases) - 0.25)
    if not res <= ATOL_EQ:  # NaN fails
        raise ValueError(
            f"gate bases are not mutually unbiased for this seed: "
            f"worst overlap deviation {res:.3e}"
        )
    return bases


@dataclass(frozen=True)
class ProtocolStats:
    strategy: str
    sift_rate: float
    symbol_error_rate: float
    eve_guess_prob: float
    mode: str
    rounds: int | None = None
    seed: int | None = None


# Eve's own entangled resource: canonical pair, traveling factor first.
def _eve_pair() -> np.ndarray:
    return np.eye(2, dtype=complex).reshape(-1)


def _clone_attack_joint(bases: GateBases) -> np.ndarray:
    """Exact joint outcome table of the cloning attack.

    ``joint[b, mu, nu_bob, nu_eve]`` is the probability that Bob's sifted
    measurement returns nu_bob and Eve's announced-basis measurement on her
    retained pair returns nu_eve, given Alice encoded (b, mu).  Wired through
    the assembled comb of the optimal cloner, so any change to the cloner
    propagates here.

    The seed state is psi[K, x, R]: Bob's kept factor K, the channel input
    x = (qB, e_in) and Eve's reference R.  Projecting it onto every product
    of Bob's and Eve's basis vectors first leaves a[b, n, (3B, 3E, x)] per
    outcome pair n = (nb, ne), and the outcome probability is
    a^T C conj(a) with C the inserted channel's Choi operator on (out, in).
    """
    r1 = choi_r1_of_cloner(2)
    psi = np.kron(bases.bell, _eve_pair() / np.sqrt(2)).reshape(2, 4, 2)
    bob = _states(bases, bases.bell_raw, travel_first=False)
    eve = _states(bases, _eve_pair(), travel_first=True)
    bob = (bob / np.linalg.norm(bob, axis=-1, keepdims=True)).reshape(2, 4, 2, 2)
    eve = (eve / np.linalg.norm(eve, axis=-1, keepdims=True)).reshape(2, 4, 2, 2)
    # factors after the channel: (K, 3B, 3E, R); Bob holds (K, 3B), Eve (3E, R)
    a = np.einsum("bnkp,beqr,kxr->bnepqx", bob.conj(), eve.conj(), psi).reshape(2, 16, 16)
    choi = np.array([[insert_gate(r1, bases.gate(b, mu)).choi for mu in range(4)]
                     for b in range(2)])
    joint = np.einsum("bnp,bmpq,bnq->bmn", a, choi, a.conj()).real
    return joint.reshape(2, 4, 4, 4)


def _joint_table(strategy: str, bases: GateBases) -> np.ndarray:
    """``joint[b, mu, nu_bob, nu_eve]`` of one strategy; Eve's guess is nu_eve."""
    if strategy == "clone_attack":
        return _clone_attack_joint(bases)
    # bob[a, v, e, n]: Bob measuring in basis a reads v off the pair carrying gate (e, n)
    bob = _overlaps(_states(bases, bases.bell_raw, travel_first=False))
    if strategy == "none":
        # Bob reads Alice's own gate; Eve guesses blind
        return np.einsum("bvbm->bmv", bob)[..., None] * np.full(4, 0.25)
    if strategy == "intercept_resend":
        # Eve measures her pair in basis e with outcome n, re-encodes gate (e, n)
        # for Bob, and guesses n
        eve = _overlaps(_states(bases, _eve_pair(), travel_first=True))
        return 0.5 * np.einsum("enam,aven->amvn", eve, bob)
    raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")


def run_exact(strategy: str, bases: GateBases) -> ProtocolStats:
    """Exact sifted statistics: the joint table reduced over the uniform
    (basis, symbol) cells.

    The sift rate is 1/2 identically (two independent uniform basis bits);
    symbol error and Eve's guess probability are conditioned on sifted
    rounds.
    """
    joint = _joint_table(strategy, bases)
    bob_right = np.einsum("bmmn->bm", joint)
    eve_right = np.einsum("bmnm->", joint)
    return ProtocolStats(strategy, 0.5, float((1.0 - bob_right).sum() / 8.0),
                         float(eve_right / 8.0), mode="exact")


def _sample_cells(weights: np.ndarray, counts: np.ndarray,
                  gen: np.random.Generator) -> np.ndarray:
    """Draw ``counts[c]`` outcomes from row c of ``weights``, cell after cell.

    One uniform per draw, looked up by ``searchsorted`` in its row's CDF; no
    (draws x outcomes) array is built.  Each CDF is scaled to end at exactly
    1.0, so with right-sided search a zero-weight outcome is never returned.
    """
    cdf = np.cumsum(np.clip(weights, 0.0, None), axis=1)
    if not (cdf[:, -1] > 0.0).all():  # NaN fails
        raise ValueError("every cell needs a positive total weight")
    cdf /= cdf[:, -1:]
    u = np.split(gen.random(int(counts.sum())), np.cumsum(counts)[:-1])
    return np.concatenate([np.searchsorted(row, part, side="right")
                           for row, part in zip(cdf, u)])


def _sifted_rounds(joint: np.ndarray, rounds: int, gen: np.random.Generator):
    """Draw ``rounds`` rounds; (b, mu, nu_bob, nu_eve) of the sifted ones,
    grouped by cell (round order carries no information)."""
    alice_basis = gen.integers(0, 2, size=rounds, dtype=np.int8)
    symbols = gen.integers(0, 4, size=rounds, dtype=np.int8)
    bob_basis = gen.integers(0, 2, size=rounds, dtype=np.int8)
    # sifted rounds fall in cells 0..7; unsifted ones in bins 8..15
    counts = np.bincount(4 * alice_basis + symbols + 8 * (alice_basis != bob_basis),
                         minlength=16)[:8]
    cells = np.repeat(np.arange(8, dtype=np.int8), counts)
    outcome = _sample_cells(joint.reshape(8, 16), counts, gen)
    return (*np.divmod(cells, 4), *np.divmod(outcome, 4))


def run_sampled(strategy: str, bases: GateBases, rounds: int,
                rng: SeededRng) -> ProtocolStats:
    """Monte Carlo protocol rounds drawn from the exact joint table."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    _, mu, nu_bob, nu_eve = _sifted_rounds(_joint_table(strategy, bases), rounds,
                                           rng.generator())
    if mu.size == 0:
        return ProtocolStats(strategy, 0.0, 0.0, 0.0, mode="sampled",
                             rounds=rounds, seed=rng.seed)
    return ProtocolStats(
        strategy,
        sift_rate=mu.size / rounds,
        symbol_error_rate=float(np.mean(nu_bob != mu)),
        eve_guess_prob=float(np.mean(nu_eve == mu)),
        mode="sampled",
        rounds=rounds,
        seed=rng.seed,
    )
