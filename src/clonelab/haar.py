"""Haar-random unitary sampling and Monte Carlo fidelity averages.

Sampling uses the Ginibre + QR construction with the diagonal phase
correction, which makes the distribution exactly Haar (plain QR is not).
Reproducibility contract: a ``SeededRng`` with the same seed produces the
same stream, and per-sample substreams are derived by hashing
``(seed, index)`` so results do not depend on how samples are distributed
over workers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .channels import CombNetwork, comb_fidelity_functional_batch

RNG_ALGORITHM = "pcg64+sha256-substream"
# Monte Carlo draws per read of the comb: at d = 4 a block of stacked
# functional vectors and their products with the comb take 16 MiB each.
MC_BLOCK = 256


@dataclass(frozen=True)
class SeededRng:
    """A named, reproducible random source."""

    seed: int
    algorithm: str = RNG_ALGORITHM

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed % 2**64))

    def substream(self, index: int) -> "SeededRng":
        """Independent child stream for sample ``index`` (hash-derived)."""
        h = hashlib.sha256(f"{self.seed}:{index}".encode()).digest()
        return SeededRng(seed=int.from_bytes(h[:8], "little"), algorithm=self.algorithm)


def haar_from_generator(d: int, gen: np.random.Generator,
                        size: int | None = None) -> np.ndarray:
    """One Haar-random U(d) matrix drawn from an open numpy generator, or a
    stack (size, d, d) equal to ``size`` single draws in turn."""
    g = gen.standard_normal((1 if size is None else size, 2, d, d))  # (re, im) per draw
    z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)[:, None, :]
    u = q * (diag / np.abs(diag))
    return u[0] if size is None else u


def sample_haar_unitary(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-random unitary of dimension d >= 1, deterministic in the seed."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return haar_from_generator(d, rng.generator())


def haar_unitaries(d: int, count: int, rng: SeededRng):
    """Iterator over ``count`` independent Haar samples via substreams."""
    for i in range(count):
        yield sample_haar_unitary(d, rng.substream(i))


def average_fidelity_mc(network: CombNetwork, samples: int,
                        rng: SeededRng) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar-averaged gate-insertion fidelity.

    Returns (mean, standard error); the standard error is the sample standard
    deviation over sqrt(n), zero for a single sample.  Sample i is drawn from
    ``rng.substream(i)``, and the integrands are evaluated for up to
    ``MC_BLOCK`` samples per read of the comb: of its terms when the network
    has them, so the dense operator is never linked.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    d = network.d
    vals = np.empty(samples)
    for start in range(0, samples, MC_BLOCK):
        stop = min(start + MC_BLOCK, samples)
        us = np.array([sample_haar_unitary(d, rng.substream(i)) for i in range(start, stop)])
        vals[start:stop] = comb_fidelity_functional_batch(network, us, d)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr
