"""Closed-form baseline fidelities and the no-cloning arithmetic.

The estimation and learning values are trusted closed forms (their derivation
relies on an external optimal-estimation construction); the learn-task
optimizer reproduces them independently, which is the cross-validation used
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .cloner import closed_form_fidelity
from .linalg import DimensionMismatchError, as_matrix, eig_hermitian


def f_random(d: int) -> float:
    """Use the gate on the first system and a random unitary on the second: 1/d^2."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return 1.0 / d**2


def f_estimation(d: int) -> float:
    """Measure-and-reprepare fidelity: 5/16 for qubits, 6/d^4 above."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return 5.0 / 16.0 if d == 2 else 6.0 / d**4


def f_learning(d: int) -> float:
    """Store-then-emulate fidelity: equal to the measure-and-reprepare value
    :func:`f_estimation` at every d (the learn-task optimizer re-derives it
    independently)."""
    return f_estimation(d)


def f_decohered(d: int) -> float:
    """Cloner with dephased memory: 1/d^2, identical to the random guess."""
    return f_random(d)


def majority_vote_error(p: float) -> float:
    """Worst-case error after three discriminations and majority vote: p^2 (3 - 2p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p * p * (3.0 - 2.0 * p)


def no_cloning_fixed_points(grid: int) -> list[float]:
    """Scan p in [0, 1/2] for solutions of p <= p^2 (3 - 2p).

    On any uniform grid of at least 10 points only the endpoints survive:
    perfect discrimination (p = 0) and pure guessing (p = 1/2).
    """
    if grid < 10:
        raise ValueError(f"grid must be >= 10, got {grid}")
    ps = np.linspace(0.0, 0.5, grid)
    return [float(p) for p in ps if p <= majority_vote_error(float(p)) + 1e-12]


def helstrom_error(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Minimum error probability for equiprobable states: (1 - ||rho1 - rho2||_1 / 2) / 2."""
    rho1 = as_matrix(rho1)
    rho2 = as_matrix(rho2)
    if rho1.shape != rho2.shape:
        raise DimensionMismatchError(f"state shapes differ: {rho1.shape} vs {rho2.shape}")
    w, _ = eig_hermitian(rho1 - rho2, tol=1e-8)
    trace_norm = float(np.abs(w).sum())
    return (1.0 - 0.5 * trace_norm) / 2.0


def permutation_discrimination(n_letters: int) -> tuple[int, bool]:
    """Brute force over single-query strategies for permutations of n letters.

    A deterministic strategy queries one fixed letter and partitions by the
    observed image; a set of permutations is perfectly distinguishable iff
    some query letter separates them all.  Randomized strategies cannot help
    for perfect (zero-error) discrimination.  Returns the largest
    distinguishable subset size and whether all n! permutations fit.
    """
    if not 2 <= n_letters <= 5:
        raise ValueError(f"n_letters must be in 2..5, got {n_letters}")
    perms = list(permutations(range(n_letters)))
    best = 0
    for query in range(n_letters):
        # a subset is distinguishable iff all images of the query letter
        # differ, so the best subset picks one permutation per image class
        witness = {}
        for p in perms:
            witness.setdefault(p[query], p)
        best = max(best, len(witness))
    return best, best == len(perms)


@dataclass(frozen=True)
class BaselineReport:
    """All baseline fidelities at one gate dimension."""

    d: int
    f_clon: float
    f_est: float
    f_ran: float
    f_deco: float
    f_learn: float

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "f_clon": self.f_clon,
            "f_est": self.f_est,
            "f_ran": self.f_ran,
            "f_deco": self.f_deco,
            "f_learn": self.f_learn,
        }


def build_report(d: int) -> BaselineReport:
    return BaselineReport(
        d=d,
        f_clon=closed_form_fidelity(d),
        f_est=f_estimation(d),
        f_ran=f_random(d),
        f_deco=f_decohered(d),
        f_learn=f_learning(d),
    )
