"""Numerical re-derivation of the optimal cloning and learning fidelities.

The covariant block form reduces both problems to a small semidefinite
program: maximize the linear block fidelity over PSD coefficient blocks
subject to the affine normalization constraints (two scalar budgets for
cloning, one per irrep row and sector pair for learning).  The solver is an
alternating projection scheme with a scaled dual (ADMM): one step projects
onto the affine constraint set, the other onto the PSD cone blockwise, with
the objective folded into the affine step.

Internally the blocks are rescaled as Y^{mu nu} = d_mu d_nu X^{mu nu}, which
preserves the PSD cone and removes the large coefficient spread from the
constraints; the reported maximizer is unscaled back to X.

The real coordinates of a block set are the (re, im) float view of its
concatenated complex entries, an isometry of the Frobenius inner product:
<flatten(A), flatten(B)> = Re sum_{mu nu} Tr[A^{mu nu}† B^{mu nu}], which for
Hermitian F is Re sum Tr[F X].  So the objective and every constraint row
are written as the flattened coefficient blocks F of their linear
functional.  Residuals are max-norms over an orthonormal Hermitian basis,
read through ``weights``: sqrt(2) on an off-diagonal entry, 1 on the real
part of a diagonal entry and 0 on its imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .irreps import IrrepBlocks, MU_LABELS, block_keys, irrep_dims, sector_dims, valid_sectors
from .linalg import require_gate_dim

TASKS = ("clone", "learn")

DEFAULT_TOL = 1e-8
MAX_ITERATIONS = 100_000


class ConvergenceError(RuntimeError):
    """Solver hit the iteration cap; carries the best value and residuals."""

    def __init__(self, best_value: float, residual: float, iterations: int):
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"best value {best_value:.9f}, residual {residual:.3e}"
        )
        self.best_value = best_value
        self.residual = residual
        self.iterations = iterations


class _HermitianBlockSpace:
    """Real coordinates for a direct sum of Hermitian blocks.

    The coordinates are the (re, im) floats of the entries of all blocks,
    which sit in one complex vector: blocks stably sorted by size, each
    row-major, so the blocks of one size form one stack of matrices.
    """

    def __init__(self, keys):
        self.keys = [k for k, _ in keys]
        self.rows = dict(keys)
        sizes = [len(labels) for _, labels in keys]
        self._blocks = {}  # key -> (first entry, n)
        self._stacks = []  # (n, lo, hi): the entries of all n x n blocks
        hi = 0
        for n in sorted(set(sizes)):
            lo = hi
            for key, m in zip(self.keys, sizes):
                if m == n:
                    self._blocks[key] = (hi, n)
                    hi += n * n
            self._stacks.append((n, lo, hi))
        self.dim = 2 * hi
        # the max-norm over an orthonormal Hermitian basis, per (re, im) float
        weights = np.full(hi, np.sqrt(2) * (1 + 1j))
        for s, n in self._blocks.values():
            weights[s:s + n * n:n + 1] = 1.0
        self.weights = weights.view(float)

    def unflatten(self, x: np.ndarray) -> dict:
        e = x.view(complex)
        return {key: e[s:s + n * n].reshape(n, n)
                for key in self.keys for s, n in [self._blocks[key]]}

    def flatten(self, mats: dict) -> np.ndarray:
        return np.concatenate([mats[key] for key in self._blocks],
                              axis=None, dtype=complex).view(float)

    def psd_project(self, x: np.ndarray) -> np.ndarray:
        e = x.view(complex)
        out = []
        for n, lo, hi in self._stacks:
            w, v = np.linalg.eigh(e[lo:hi].reshape(-1, n, n))
            np.clip(w, 0, None, out=w)
            out.append((v * w[:, None, :]) @ v.conj().swapaxes(1, 2))
        return np.concatenate(out, axis=None).view(float)


@dataclass(frozen=True)
class OptimizationProblem:
    """Linear objective over PSD coefficient blocks with affine constraints.

    The coordinates refer to the scaled variables Y = d_mu d_nu X; ``scale``
    records the per-block factor used to recover X.
    """

    d: int
    task: str
    space: _HermitianBlockSpace
    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    scale: dict
    initial: np.ndarray


@dataclass(frozen=True)
class OptimizationResult:
    optimal_value: float
    optimal_blocks: IrrepBlocks
    iterations: int
    kkt_residual: float


def build_problem(d: int, task: str) -> OptimizationProblem:
    """Assemble objective, constraints, scaling, and the feasible start point."""
    d = require_gate_dim(d)
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    dims = irrep_dims(d)
    sec = sector_dims(d)
    keys = block_keys(d)
    space = _HermitianBlockSpace(keys)
    scale = {key: dims[key[0]] * dims[key[1]] for key, _ in keys}

    def coefficients(terms):
        """Coordinates of the functional X -> Re sum w X^{key}_{ik,jl} over
        (key, ik, jl, w) terms: space.flatten of the Hermitian block set F
        with Re sum Tr[F X] equal to it."""
        f = {key: np.zeros((len(labels),) * 2, dtype=complex) for key, labels in keys}
        for key, ik, jl, w in terms:
            a, b = space.rows[key].index(ik), space.rows[key].index(jl)
            f[key][b, a] += w / 2
            f[key][a, b] += np.conj(w) / 2
        return space.flatten(f)

    c = coefficients(((mu, mu), (i, i), (j, j), dims[mu] / (d**4 * scale[(mu, mu)]))
                     for mu in MU_LABELS for i in valid_sectors(mu, d)
                     for j in valid_sectors(mu, d))
    if task == "clone":
        # sum_{mu nu} d_mu d_nu sum_k X_{(ik),(ik)} = d_i d  for i = +/-;
        # d_mu d_nu cancels against the block scale
        rows = [coefficients(((mu, nu), (i, k), (i, k), 1.0)
                             for mu in MU_LABELS if i in valid_sectors(mu, d)
                             for nu in MU_LABELS for k in valid_sectors(nu, d))
                for i in "+-"]
        rhs = [sec[i] * d for i in "+-"]
    else:
        # sum_nu d_nu sum_k X_{(ik),(jk)} = delta_ij  for each mu and valid i, j:
        # its real part, and off the diagonal its imaginary part (weight -i)
        rows = []
        rhs = []
        for mu in MU_LABELS:
            signs = valid_sectors(mu, d)
            for i in signs:
                for j in signs:
                    for w in (1.0,) if i == j else (1.0, -1j):
                        rows.append(coefficients(((mu, nu), (i, k), (j, k), w / dims[mu])
                                                 for nu in MU_LABELS
                                                 for k in valid_sectors(nu, d)))
                        rhs.append(float(i == j))

    x0 = _feasible_diagonal_start(d, task, space, dims, sec)
    return OptimizationProblem(
        d=d, task=task, space=space,
        objective=c,
        constraints=np.array(rows), rhs=np.array(rhs),
        scale=scale, initial=x0,
    )


def _feasible_diagonal_start(d, task, space, dims, sec) -> np.ndarray:
    """Identity-proportional feasible point.

    The constraint groups touch disjoint diagonal coordinate sets, so the
    scaling reduces to one scalar per group.
    """
    mats = {key: np.zeros((len(space.rows[key]),) * 2, dtype=complex) for key in space.keys}
    if task == "clone":
        for i in "+-":
            slots = [(key, a) for key in space.keys
                     for a, (si, _) in enumerate(space.rows[key]) if si == i]
            val = sec[i] * d / len(slots)
            for key, a in slots:
                mats[key][a, a] = val
    else:
        for mu in MU_LABELS:
            for i in valid_sectors(mu, d):
                slots = [(key, a) for key in space.keys if key[0] == mu
                         for a, (si, _) in enumerate(space.rows[key]) if si == i]
                val = dims[mu] / len(slots)
                for key, a in slots:
                    mats[key][a, a] = val
    return space.flatten(mats)


def solve(problem: OptimizationProblem, tol: float = DEFAULT_TOL,
          max_iterations: int = MAX_ITERATIONS) -> OptimizationResult:
    """Run the alternating projection scheme to the requested tolerance.

    ``tol`` bounds the distance of the reported objective from the true
    optimum; the inner stopping threshold is tol/10 on all residuals.
    """
    if not tol >= 1e-9:  # NaN fails
        raise ValueError(f"tol must be >= 1e-9, got {tol}")
    for field in ("objective", "constraints", "rhs"):
        # a non-finite entry would otherwise surface as a failed eigensolve
        if not np.isfinite(getattr(problem, field)).all():
            raise ValueError(f"problem {field} has a non-finite entry")
    space = problem.space
    weights = space.weights
    a_mat = problem.constraints
    b = problem.rhs
    c = problem.objective
    a_pinv = np.linalg.pinv(a_mat, rcond=1e-12)

    def proj_affine(x):
        return x - a_pinv @ (a_mat @ x - b)

    inner = max(tol / 10.0, 1e-13)
    rho = 1.0
    x = problem.initial.copy()
    z = space.psd_project(x)
    u = x - z
    primal = dual = np.inf
    it = 0
    for it in range(1, max_iterations + 1):
        x = proj_affine(z - u + c / rho)
        z_prev = z
        z = space.psd_project(x + u)
        u += x - z
        primal = float(np.abs(weights * (x - z)).max())
        dual = float(rho * np.abs(weights * (z - z_prev)).max())
        if primal < inner and dual < inner:
            break
        if it % 50 == 0:
            if primal > 10 * dual:
                rho *= 2.0
                u /= 2.0
            elif dual > 10 * primal:
                rho /= 2.0
                u *= 2.0
    cons = float(np.abs(a_mat @ z - b).max())
    kkt = max(primal, dual, cons)
    value = float(c @ z)
    if not (primal < inner and dual < inner):  # NaN fails
        raise ConvergenceError(value, kkt, it)

    mats = space.unflatten(z)
    blocks = {key: mats[key] / problem.scale[key] for key in space.keys}
    optimal = IrrepBlocks(d=problem.d, blocks=blocks)
    return OptimizationResult(
        optimal_value=value,
        optimal_blocks=optimal,
        iterations=it,
        kkt_residual=kkt,
    )


def analytic_bound(d: int) -> float:
    """The saturated bound (1/d^4)(sqrt(d_+) + sqrt(d_-))^2 for cloning."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    dp = d * (d + 1) / 2
    dm = d * (d - 1) / 2
    return float((np.sqrt(dp) + np.sqrt(dm)) ** 2 / d**4)
