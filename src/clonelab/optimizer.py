"""Numerical re-derivation of the optimal cloning and learning fidelities.

The covariant block form reduces both problems to a small semidefinite
program: maximize the linear block fidelity <C, X> over PSD coefficient
blocks X subject to the affine normalization constraints <A_i, X> = b_i (two
scalar budgets for cloning, one per irrep row and sector pair for
learning).  Its dual is: minimize b.y subject to S = sum_i y_i A_i - C PSD.

The solver is an infeasible primal-dual interior-point method on the blocks
embedded along the diagonal of one n x n Hermitian matrix (n = 9 at d = 2,
16 at d = 3, 4): the HKM search direction with Mehrotra's predictor-
corrector, each step taken to 0.98 of the boundary of the cone, the
boundary found by a Cholesky factor and ``eigvalsh``.  The constraint rows
are first reduced to an orthonormal basis of their row space, so that the
Schur complement stays nonsingular when rows are redundant.  It starts from
the strictly feasible ``initial`` point.  When the identity lies in the row
space, the dual starts feasible and scaled to the objective: y = t coef with
A*(coef) = I, so S = tI - C, t = 2 max|lambda(C)| (1 at C = 0); otherwise
it starts at y = 0, S = I.  It stops when the relative duality gap, the
primal residual on the original rows and the dual residual are all within
tol/10.

Every feasible X has the same trace when the identity lies in the row space
of the constraints, so a dual iterate y certifies the upper bound
b.y + max(0, -lambda_min(S)) Tr X on the optimum (``dual_bound``).

Internally the blocks are rescaled as Y^{mu nu} = d_mu d_nu X^{mu nu}, which
preserves the PSD cone and removes the large coefficient spread from the
constraints; the reported maximizer is unscaled back to X.

The real coordinates of a block set are the (re, im) float view of its
concatenated complex entries, an isometry of the Frobenius inner product:
<flatten(A), flatten(B)> = Re sum_{mu nu} Tr[A^{mu nu}† B^{mu nu}], which for
Hermitian F is Re sum Tr[F X].  So the objective and every constraint row
are written as the flattened coefficient blocks F of their linear
functional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .irreps import IrrepBlocks, MU_LABELS, block_keys, irrep_dims, sector_dims, valid_sectors
from .linalg import ATOL_EQ, require_gate_dim

TASKS = ("clone", "learn")

DEFAULT_TOL = 1e-8
MAX_NEWTON_STEPS = 50
STEP_TO_BOUNDARY = 0.98  # fraction of the largest step that keeps X, S PSD
RCOND = 1e-12  # singular values below RCOND * the largest leave the row space


class ConvergenceError(RuntimeError):
    """Solver hit the Newton-step cap or left the interior numerically;
    carries the last value, residuals and the convergence trace (see
    ``OptimizationResult``)."""

    def __init__(self, best_value: float, residual: float, iterations: int, trace: tuple):
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"best value {best_value:.9f}, residual {residual:.3e}"
        )
        self.best_value = best_value
        self.residual = residual
        self.iterations = iterations
        self.trace = trace


class _HermitianBlockSpace:
    """Real coordinates for a direct sum of Hermitian blocks.

    The coordinates are the (re, im) floats of the entries of all blocks,
    which sit in one complex vector, block after block in key order, each
    row-major.  The blocks also sit, in the same order, along the diagonal
    of one n x n Hermitian matrix; ``place`` holds the position of each
    coordinate among the 2 n^2 floats of that matrix.
    """

    def __init__(self, keys):
        self.keys = [k for k, _ in keys]
        self.rows = dict(keys)
        sizes = [len(labels) for _, labels in keys]
        starts = np.cumsum([0] + [n * n for n in sizes])
        self._blocks = {key: (int(s), n) for key, s, n in zip(self.keys, starts, sizes)}
        self.dim = 2 * int(starts[-1])
        self.n = n = sum(sizes)
        # the flat position of each entry in the n x n matrix, then of its floats
        spans = (np.arange(f, f + m) for f, m in zip(np.cumsum([0] + sizes), sizes))
        flat = np.concatenate([(r[:, None] * n + r).ravel() for r in spans])
        self.place = np.stack((2 * flat, 2 * flat + 1), axis=1).ravel()

    def unflatten(self, x: np.ndarray) -> dict:
        e = x.view(complex)
        return {key: e[s:s + n * n].reshape(n, n) for key, (s, n) in self._blocks.items()}

    def flatten(self, mats: dict) -> np.ndarray:
        return np.concatenate([mats[key] for key in self.keys],
                              axis=None, dtype=complex).view(float)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The block-diagonal n x n matrix of coordinates x, or a stack of
        them for coordinates stacked along the leading axes."""
        out = np.zeros(x.shape[:-1] + (2 * self.n**2,))
        out[..., self.place] = x
        return out.view(complex).reshape(x.shape[:-1] + (self.n, self.n))

    def entries(self, m: np.ndarray) -> np.ndarray:
        """The coordinates of the diagonal blocks of an n x n matrix."""
        return np.ascontiguousarray(m).view(float).reshape(-1)[self.place]


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
    """The solver's optimum.  ``trace`` holds (iteration, primal, dual, gap)
    after every Newton step: the max-norm residuals of the original
    constraint rows and of the dual slack, and the relative duality gap;
    ``kkt_residual`` is the largest of the three at exit.  ``dual_bound`` is
    a certified upper bound on the optimum (``inf`` when the constraints
    leave the trace of X free) and ``certified_gap`` its distance from
    ``optimal_value`` relative to that value."""

    optimal_value: float
    optimal_blocks: IrrepBlocks
    iterations: int
    kkt_residual: float
    trace: tuple
    dual_bound: float
    certified_gap: float


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
          max_iterations: int = MAX_NEWTON_STEPS) -> OptimizationResult:
    """Run the interior-point method to the requested tolerance.

    ``tol`` bounds the distance of the reported objective from the true
    optimum relative to it; the inner stopping threshold is tol/10 on the
    relative gap and on both residuals.  Raises ``ConvergenceError`` after
    ``max_iterations`` Newton steps or when an iterate leaves the interior
    numerically, and so on a constraint system that no point satisfies.
    Raises ``ValueError`` on a tolerance that is not finite or below 1e-9,
    on a non-finite problem field and on a start ``initial`` that is not
    positive definite.
    """
    if not 1e-9 <= tol < np.inf:  # NaN fails
        raise ValueError(f"tol must be finite and >= 1e-9, got {tol}")
    for field in ("objective", "constraints", "rhs", "initial"):
        # a non-finite entry would otherwise surface as a failed factorization
        if not np.isfinite(getattr(problem, field)).all():
            raise ValueError(f"problem {field} has a non-finite entry")
    space = problem.space
    x_mat = space.embed(problem.initial)
    try:
        np.linalg.cholesky(x_mat)
    except np.linalg.LinAlgError:
        raise ValueError("problem initial is not positive definite") from None
    a_orig, b_orig, c = problem.constraints, problem.rhs, problem.objective
    # an orthonormal basis of the row space and the matching right-hand side
    u, s, vt = np.linalg.svd(a_orig, full_matrices=False)
    rank = int(np.count_nonzero(s > RCOND * s[0]))
    rows = _Rows(_hermitian(space.embed(vt[:rank])), (u[:, :rank].T @ b_orig) / s[:rank])
    c_mat = _hermitian(space.embed(c))

    inner = max(tol / 10.0, 1e-13)
    coef = _identity_coefficients(space, rows)
    if coef is None:
        y, s_mat = np.zeros(rank), np.eye(space.n, dtype=complex)
    else:  # dual feasible: S = tI - C, positive definite
        y = (2 * np.abs(np.linalg.eigvalsh(c_mat)).max() or 1.0) * coef
        s_mat = rows.adjoint(y) - c_mat
    trace = []
    value = primal = dual = gap = np.inf
    it = 0
    for it in range(1, max_iterations + 1):
        try:
            x_mat, y, s_mat = _newton_step(x_mat, y, s_mat, rows, c_mat)
        except np.linalg.LinAlgError:  # an iterate left the interior numerically
            it -= 1
            break
        x = space.entries(x_mat)
        value = float(c @ x)
        primal = float(np.abs(a_orig @ x - b_orig).max())
        dual = float(np.abs(rows.adjoint(y) - c_mat - s_mat).max())
        gap = _relative(abs(float(rows.b @ y) - value), value)
        trace.append((it, primal, dual, gap))
        if max(primal, dual, gap) <= inner:  # NaN fails
            break
    trace = tuple(trace)
    kkt = max(primal, dual, gap)
    if not kkt <= inner:
        raise ConvergenceError(value, kkt, it, trace)

    dual_bound = _dual_bound(space, rows, y, c_mat)
    blocks = {key: m / problem.scale[key] for key, m in space.unflatten(x).items()}
    return OptimizationResult(
        optimal_value=value,
        optimal_blocks=IrrepBlocks(d=problem.d, blocks=blocks),
        iterations=it,
        kkt_residual=kkt,
        trace=trace,
        dual_bound=dual_bound,
        certified_gap=_relative(dual_bound - value, value),
    )


def _relative(diff: float, value: float) -> float:
    """diff / |value|, or diff itself at a zero value."""
    return diff / abs(value) if value else diff


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2


class _Rows:
    """Constraint rows as a stack of Hermitian n x n matrices A_i with their
    right-hand side b.  The float dot product of A_i with any n x n matrix W
    is Re Tr[A_i W], the constraint functional on Hermitian W."""

    def __init__(self, mats: np.ndarray, b: np.ndarray):
        self.mats = mats
        self.flat = mats.view(float).reshape(len(mats), -1)
        self.b = b

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """(Re Tr[A_i W])_i, or for a stack of matrices W_j the matrix
        (Re Tr[A_i W_j])_ij."""
        return self.flat @ w.view(float).reshape(w.shape[:-2] + (-1,)).T

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """sum_i v_i A_i."""
        return (v @ self.flat).view(complex).reshape(self.mats.shape[1:])


def _newton_step(x_mat, y, s_mat, rows: _Rows, c_mat):
    """One Mehrotra predictor-corrector step along the HKM direction.

    The direction solves A(X + dX) = b, sum (y + dy)_i A_i - (S + dS) = C
    and (X + dX)(S + dS) = sigma mu I linearized: dX = R S^-1 - X - X dS S^-1
    (then made Hermitian) with dS = sum dy_i A_i - R_d, and dy from the Schur
    complement M_ij = Re Tr[A_i X A_j S^-1].  The predictor takes R = 0; the
    corrector R = sigma mu I - dX dS with the predictor's dX, dS and
    sigma = (mu_aff / mu)^3.
    """
    n = len(x_mat)
    lx_inv = np.linalg.inv(np.linalg.cholesky(x_mat))
    ls_inv = np.linalg.inv(np.linalg.cholesky(s_mat))
    s_inv = ls_inv.conj().T @ ls_inv
    r_dual = c_mat + s_mat - rows.adjoint(y)
    schur = rows(x_mat @ rows.mats @ s_inv)
    shift = rows(x_mat @ r_dual @ s_inv) - rows.b

    def direction(r):
        dy = np.linalg.solve(schur, rows(r @ s_inv) + shift)
        ds = rows.adjoint(dy) - r_dual
        dx = _hermitian(r @ s_inv - x_mat - x_mat @ ds @ s_inv)
        return dx, dy, ds

    mu = np.vdot(x_mat, s_mat).real / n
    dx, dy, ds = direction(np.zeros_like(x_mat))
    ap, ad = _max_step(lx_inv, dx), _max_step(ls_inv, ds)
    mu_aff = np.vdot(x_mat + ap * dx, s_mat + ad * ds).real / n
    sigma = min(1.0, (mu_aff / mu) ** 3)
    dx, dy, ds = direction(sigma * mu * np.eye(n) - dx @ ds)
    ap, ad = _max_step(lx_inv, dx), _max_step(ls_inv, ds)
    return x_mat + ap * dx, y + ad * dy, s_mat + ad * ds


def _max_step(l_inv, d) -> float:
    """The step along d from the matrix L L† that keeps STEP_TO_BOUNDARY of
    the distance to the PSD boundary, at most 1."""
    lam = np.linalg.eigvalsh(l_inv @ d @ l_inv.conj().T)[0]
    return 1.0 if lam >= -STEP_TO_BOUNDARY else STEP_TO_BOUNDARY / -lam


def _dual_bound(space, rows: _Rows, y, c_mat) -> float:
    """b.y + max(0, -lambda_min(S)) Tr X with S = sum y_i A_i - C: for every
    PSD X in the constraint set, <C, X> = b.y - <S, X> <= b.y - lambda_min(S)
    Tr X.  Tr X is fixed when the identity lies in the (orthonormal) row
    space; it is then the identity's row coefficients dotted with b."""
    lam = np.linalg.eigvalsh(rows.adjoint(y) - c_mat)[0]
    if lam >= 0:
        return float(rows.b @ y)
    coef = _identity_coefficients(space, rows)
    if coef is None:
        return np.inf
    return float(rows.b @ y - lam * (coef @ rows.b))


def _identity_coefficients(space, rows: _Rows):
    """The identity's coefficients coef = (Re Tr A_i)_i in the orthonormal
    rows, so that sum_i coef_i A_i = I; None when the identity is not in
    their span."""
    ident = np.eye(space.n, dtype=complex)
    coef = rows(ident)
    if np.abs(rows.adjoint(coef) - ident).max() > ATOL_EQ:
        return None
    return coef


def analytic_bound(d: int) -> float:
    """The saturated bound (1/d^4)(sqrt(d_+) + sqrt(d_-))^2 for cloning."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    dp = d * (d + 1) / 2
    dm = d * (d - 1) / 2
    return float((np.sqrt(dp) + np.sqrt(dm)) ** 2 / d**4)
