import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from clonelab import optimizer
from clonelab.baselines import f_estimation, f_learning
from clonelab.channels import CombNetwork, insert_gate, channel_fidelity_with_double_unitary
from clonelab.cloner import closed_form_fidelity
from clonelab.haar import SeededRng, haar_unitaries
from clonelab.irreps import (MU_LABELS, block_keys, build_irrep_table, irrep_dims, sector_dims,
                             terms_from_blocks, valid_sectors)
from clonelab.linalg import psd_residual, worst
from clonelab.optimizer import (
    ConvergenceError,
    analytic_bound,
    build_problem,
    solve,
)


# Reference oracles: the per-entry coordinate map (n real diagonal
# coordinates, then sqrt(2)-scaled (re, im) pairs of the upper triangle, an
# orthonormal Hermitian basis), the entry-functional assembly of the
# objective and constraints that the entry view and the flattened
# coefficient blocks replaced, and the ADMM solve loop that the
# interior-point method replaced.

def reference_layout(space):
    sizes = [len(space.rows[key]) for key in space.keys]
    offsets = np.cumsum([0] + [n * n for n in sizes])[:-1]
    return list(zip(space.keys, sizes, offsets))


def reference_unflatten(space, x):
    out = {}
    for key, n, off in reference_layout(space):
        v = x[off:off + n * n]
        m = np.zeros((n, n), dtype=complex)
        for a in range(n):
            m[a, a] = v[a]
        idx = n
        for a in range(n):
            for b in range(a + 1, n):
                m[a, b] = (v[idx] + 1j * v[idx + 1]) / np.sqrt(2)
                m[b, a] = m[a, b].conjugate()
                idx += 2
        out[key] = m
    return out


def reference_flatten(space, mats):
    x = np.zeros(space.dim)
    for key, n, off in reference_layout(space):
        m = mats[key]
        for a in range(n):
            x[off + a] = m[a, a].real
        idx = off + n
        for a in range(n):
            for b in range(a + 1, n):
                x[idx] = np.sqrt(2) * m[a, b].real
                x[idx + 1] = np.sqrt(2) * m[a, b].imag
                idx += 2
    return x


def reference_entry_functionals(space, key, ik, jl):
    """Coordinate vectors giving Re and Im of entry (ik, jl) of a block."""
    n, off = next((n, off) for k, n, off in reference_layout(space) if k == key)
    a, b = space.rows[key].index(ik), space.rows[key].index(jl)
    vre = np.zeros(space.dim)
    vim = np.zeros(space.dim)
    if a == b:
        vre[off + a] = 1.0
        return vre, vim
    lo, hi = min(a, b), max(a, b)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    idx = off + n + 2 * pairs.index((lo, hi))
    sign = 1.0 if a < b else -1.0
    vre[idx] = 1 / np.sqrt(2)
    vim[idx + 1] = sign / np.sqrt(2)
    return vre, vim


def reference_weights(space):
    """Per (re, im) float of the entry coordinates: the max-norm over an
    orthonormal Hermitian basis, sqrt(2) on an off-diagonal entry, 1 on the
    real part of a diagonal entry and 0 on its imaginary part."""
    out = {}
    for key in space.keys:
        w = np.full((len(space.rows[key]),) * 2, np.sqrt(2) * (1 + 1j))
        np.fill_diagonal(w, 1.0)
        out[key] = w
    return space.flatten(out)


class ReferenceBlockSpace:
    """A block space on the per-entry reference coordinates, embedding the
    blocks along the diagonal of one n x n matrix by slicing, block by
    block, instead of through an index array."""

    def __init__(self, keys):
        self.keys = [k for k, _ in keys]
        self.rows = dict(keys)
        self.dim = sum(len(labels) ** 2 for _, labels in keys)
        self.n = sum(len(labels) for _, labels in keys)

    flatten = reference_flatten
    unflatten = reference_unflatten

    def _spans(self):
        start = 0
        for key in self.keys:
            size = len(self.rows[key])
            yield key, slice(start, start + size)
            start += size

    def embed(self, x):
        if x.ndim > 1:
            return np.stack([self.embed(row) for row in x])
        out = np.zeros((self.n, self.n), dtype=complex)
        mats = self.unflatten(x)
        for key, span in self._spans():
            out[span, span] = mats[key]
        return out

    def entries(self, m):
        return self.flatten({key: m[span, span] for key, span in self._spans()})


def reference_assembly(space, d, task):
    """(objective, constraint rows, rhs) built from entry functionals."""
    dims, sec = irrep_dims(d), sector_dims(d)
    scale = {key: dims[key[0]] * dims[key[1]] for key in space.keys}
    c = np.zeros(space.dim)
    for mu in MU_LABELS:
        for i in valid_sectors(mu, d):
            for j in valid_sectors(mu, d):
                vre, _ = reference_entry_functionals(space, (mu, mu), (i, i), (j, j))
                c += dims[mu] * vre / (d**4 * scale[(mu, mu)])
    rows, rhs = [], []
    if task == "clone":
        for i in "+-":
            v = np.zeros(space.dim)
            for mu in MU_LABELS:
                if i not in valid_sectors(mu, d):
                    continue
                for nu in MU_LABELS:
                    for k in valid_sectors(nu, d):
                        v += reference_entry_functionals(space, (mu, nu), (i, k), (i, k))[0]
            rows.append(v)
            rhs.append(sec[i] * d)
    else:
        for mu in MU_LABELS:
            signs = valid_sectors(mu, d)
            for i in signs:
                for j in signs:
                    vre = np.zeros(space.dim)
                    vim = np.zeros(space.dim)
                    for nu in MU_LABELS:
                        for k in valid_sectors(nu, d):
                            r, im = reference_entry_functionals(space, (mu, nu), (i, k), (j, k))
                            vre += r / dims[mu]
                            vim += im / dims[mu]
                    rows.append(vre)
                    rhs.append(float(i == j))
                    if i != j and np.abs(vim).max() > 0:
                        rows.append(vim)
                        rhs.append(0.0)
    return c, np.array(rows), np.array(rhs)


REFERENCE_MAX_ITERATIONS = 100_000


def reference_solve(problem, tol=1e-8):
    """The alternating projection scheme with a scaled dual (ADMM) that the
    interior-point method replaced, kept whole as an independent oracle:
    x - A+(A x - b) as two products, c / rho every iteration, one eigh per
    block, and the rho schedule at every 50th iteration.  Stops when the
    weighted max-norm residuals are below tol/10.  Returns (value, unscaled
    blocks)."""
    space = problem.space
    weights = reference_weights(space)
    a_mat, b, c = problem.constraints, problem.rhs, problem.objective
    a_pinv = np.linalg.pinv(a_mat, rcond=1e-12)

    def proj_psd(x):
        out = {}
        for key, m in space.unflatten(x).items():
            w, v = np.linalg.eigh(m)
            np.clip(w, 0, None, out=w)
            out[key] = (v * w) @ v.conj().T
        return space.flatten(out)

    inner = max(tol / 10.0, 1e-13)
    rho = 1.0
    x = problem.initial.copy()
    z = proj_psd(x)
    u = x - z
    for it in range(1, REFERENCE_MAX_ITERATIONS + 1):
        y = z - u + c / rho
        x = y - a_pinv @ (a_mat @ y - b)
        z_prev = z
        z = proj_psd(x + u)
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
    blocks = {key: m / problem.scale[key] for key, m in space.unflatten(z).items()}
    return float(c @ z), blocks


CLOSED_FORM = {"clone": analytic_bound, "learn": f_learning}


def random_hermitian_blocks(space, rng):
    out = {}
    for key in space.keys:
        n = len(space.rows[key])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out[key] = g + g.conj().T
    return out


def test_problem_structure_d2_clone():
    problem = build_problem(2, "clone")
    keys = problem.space.keys
    assert ("gamma", "gamma") not in keys  # no gamma rows for qubits
    assert keys == [("alpha", "alpha"), ("alpha", "beta"), ("beta", "alpha"), ("beta", "beta")]
    assert [len(problem.space.rows[k]) for k in keys] == [4, 2, 2, 1]
    assert problem.constraints.shape[0] == 2  # one budget per sector sign


def test_problem_structure_d3_includes_gamma():
    problem = build_problem(3, "clone")
    assert ("gamma", "gamma") in problem.space.keys
    assert ("alpha", "gamma") in problem.space.keys


def test_learn_constraint_count_d2():
    problem = build_problem(2, "learn")
    # alpha: (+,+), (-,-), and the complex (+,-) pair split in re/im (with
    # its redundant (-,+) mirror); beta: (+,+)
    assert problem.constraints.shape[0] == 7
    assert problem.rhs.tolist().count(1.0) == 3


def test_initial_point_is_feasible():
    for d in (2, 3):
        for task in ("clone", "learn"):
            problem = build_problem(d, task)
            residual = np.abs(problem.constraints @ problem.initial - problem.rhs).max()
            assert residual < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_solve_clone_matches_analytic(d):
    result = solve(build_problem(d, "clone"), tol=1e-8)
    assert abs(result.optimal_value - analytic_bound(d)) < 1e-6
    assert result.optimal_value <= analytic_bound(d) + 1e-7
    assert result.kkt_residual < 1e-8
    blocks = result.optimal_blocks.blocks.values()
    assert worst(psd_residual(b, 1e-9) for b in blocks) <= 1e-9


@pytest.mark.parametrize("d,expected", [(2, 5 / 16), (3, 6 / 81), (4, 6 / 256)])
def test_solve_learn_matches_closed_form(d, expected):
    result = solve(build_problem(d, "learn"), tol=1e-8)
    assert abs(result.optimal_value - expected) < 1e-6
    assert abs(result.optimal_value - f_estimation(d)) < 1e-6
    assert abs(result.optimal_value - f_learning(d)) < 1e-6


def test_solve_clone_d4():
    result = solve(build_problem(4, "clone"), tol=1e-8)
    assert abs(result.optimal_value - analytic_bound(4)) < 1e-6


def test_constraints_satisfied_at_optimum():
    problem = build_problem(2, "clone")
    result = solve(problem, tol=1e-8)
    z = problem.space.flatten({
        key: result.optimal_blocks.blocks[key] * problem.scale[key]
        for key in problem.space.keys
    })
    assert np.abs(problem.constraints @ z - problem.rhs).max() < 1e-8


def test_optimal_clone_blocks_reconstruct_to_valid_comb():
    d = 2
    table = build_irrep_table(d)
    result = solve(build_problem(d, "clone"), tol=1e-8)
    net = CombNetwork(d=d, terms=terms_from_blocks(result.optimal_blocks, table))
    res_slot, res_input = net.normalization_residuals()
    assert max(res_slot, res_input) < 1e-7
    for u in haar_unitaries(d, 10, SeededRng(50)):
        fid = channel_fidelity_with_double_unitary(insert_gate(net, u), u)
        assert abs(fid - result.optimal_value) < 1e-6


def test_optimizer_maximizer_matches_network_blocks():
    # the solver lands on the same saturating coefficients realized by the
    # explicit network
    from clonelab.cloner import choi_r1_of_cloner
    from clonelab.irreps import blocks_from_choi

    d = 2
    table = build_irrep_table(d)
    network_blocks = blocks_from_choi(choi_r1_of_cloner(d).choi, table)
    result = solve(build_problem(d, "clone"), tol=1e-8)
    for key in network_blocks.blocks:
        delta = np.abs(network_blocks.blocks[key] - result.optimal_blocks.blocks[key]).max()
        assert delta < 1e-5


def test_analytic_bound_values():
    assert abs(analytic_bound(2) - (2 + np.sqrt(3)) / 8) < 1e-15
    assert abs(analytic_bound(2) - 0.46650635094610965) < 1e-12
    # two algebraic forms of the same quantity
    for d in (2, 3, 4):
        assert abs(analytic_bound(d) - closed_form_fidelity(d)) < 1e-12
    assert analytic_bound(1) == 1.0
    assert abs(analytic_bound(3) - 0.21586767128689595) < 1e-12


def test_solver_never_exceeds_bound():
    for d in (2, 3):
        result = solve(build_problem(d, "clone"), tol=1e-8)
        assert result.optimal_value <= analytic_bound(d) + 1e-7


def test_convergence_error_carries_state():
    with pytest.raises(ConvergenceError) as err:
        solve(build_problem(2, "clone"), tol=1e-9, max_iterations=2)
    assert err.value.iterations == 2
    assert np.isfinite(err.value.best_value)


def test_convergence_error_carries_trace():
    # one row per Newton step, the last one at the cap
    with pytest.raises(ConvergenceError) as err:
        solve(build_problem(3, "clone"), tol=1e-9, max_iterations=3)
    assert [row[0] for row in err.value.trace] == [1, 2, 3]
    assert err.value.residual == max(err.value.trace[-1][1:])


@pytest.mark.parametrize("task", ["clone", "learn"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_solve_trace_records_each_newton_step(d, task):
    tol = 1e-8
    result = solve(build_problem(d, task), tol=tol)
    trace = result.trace
    assert all(len(row) == 4 for row in trace)
    assert [row[0] for row in trace] == list(range(1, result.iterations + 1))
    # the solve stops at the first step whose gap and residuals all meet tol / 10
    assert all(max(row[1:]) > tol / 10 for row in trace[:-1])
    assert max(trace[-1][1:]) <= tol / 10
    assert result.kkt_residual == max(trace[-1][1:])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_solve_takes_few_newton_steps(d):
    # the ADMM loop took 250-1031 iterations on these instances
    for task in ("clone", "learn"):
        assert solve(build_problem(d, task), tol=1e-8).iterations <= 20


@pytest.mark.parametrize("task", ["clone", "learn"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_solve_meets_closed_forms_at_tightest_tol(d, task):
    result = solve(build_problem(d, task), tol=1e-9)
    assert abs(result.optimal_value - CLOSED_FORM[task](d)) <= 1e-10


@pytest.mark.parametrize("tol", [1e-8, 1e-9])
@pytest.mark.parametrize("task", ["clone", "learn"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_dual_bound_certifies_the_optimum(d, task, tol):
    result = solve(build_problem(d, task), tol=tol)
    assert result.optimal_value <= CLOSED_FORM[task](d) <= result.dual_bound
    assert result.certified_gap == (
        (result.dual_bound - result.optimal_value) / result.optimal_value)
    assert 0 <= result.certified_gap <= tol


@pytest.mark.parametrize("task", ["clone", "learn"])
@pytest.mark.parametrize("d", [2, 3])
def test_solve_matches_reference_loop_on_random_objectives(d, task):
    # objectives with no symmetry: the Newton method, its certificate and
    # the ADMM oracle still agree
    tol = 1e-8
    problem = build_problem(d, task)
    rng = np.random.default_rng(30 * d + len(task))
    for _ in range(2):
        c = problem.space.flatten(random_hermitian_blocks(problem.space, rng))
        c *= np.abs(problem.objective).max() / np.abs(c).max()
        random = dataclasses.replace(problem, objective=c)
        value, _ = reference_solve(random, tol=tol)
        result = solve(random, tol=tol)
        assert abs(result.optimal_value - value) <= 2 * tol * abs(value)
        assert value <= result.dual_bound + tol * abs(value)
        assert 0 <= result.certified_gap <= tol


SIX = [(d, task) for d in (2, 3, 4) for task in ("clone", "learn")]


@pytest.mark.parametrize("d, task", SIX)
def test_scaled_dual_start_is_feasible(d, task):
    # the identity lies in the row space, so the dual starts at S = tI - C
    # with y = t coef, feasible: the first step keeps the dual residual at
    # rounding
    result = solve(build_problem(d, task), tol=1e-8)
    assert result.trace[0][2] <= 1e-14


def test_scaled_dual_start_step_counts():
    # the y = 0, S = I start took 8/8/9/9/9/10 steps, 53 in all
    steps = [solve(build_problem(d, task), tol=1e-8).iterations for d, task in SIX]
    assert max(steps) <= 8
    assert sum(steps) <= 45


def test_fallback_start_when_the_trace_is_free():
    # the clone rows without the "-" budget leave Tr X free, so the solve
    # starts at y = 0, S = I; a negative definite objective keeps it bounded
    tol = 1e-8
    problem = build_problem(2, "clone")
    space = problem.space
    rng = np.random.default_rng(7)
    neg = {key: -(m @ m.conj().T + np.eye(len(m)))
           for key, m in random_hermitian_blocks(space, rng).items()}
    c = space.flatten(neg)
    c *= np.abs(problem.objective).max() / np.abs(c).max()
    free = dataclasses.replace(problem, objective=c, constraints=problem.constraints[:1],
                               rhs=problem.rhs[:1])
    value, _ = reference_solve(free, tol=tol)
    result = solve(free, tol=tol)
    assert result.trace[0][2] > 1e-6  # the dual started infeasible
    assert abs(result.optimal_value - value) <= 2 * tol * abs(value)
    assert value <= result.dual_bound + tol * abs(value)


def test_dual_bound_uses_the_fixed_trace():
    # at y = 0 the slack is S = -C and the bound is lambda_max(C) Tr X, with
    # Tr X = d^3 fixed by the two clone budgets; one budget leaves it free
    problem = build_problem(2, "clone")
    space = problem.space
    c_mat = space.embed(problem.objective)
    orthonormal = np.linalg.svd(problem.constraints, full_matrices=False)[2]
    rows = optimizer._Rows(space.embed(orthonormal), orthonormal @ problem.initial)
    bound = optimizer._dual_bound(space, rows, np.zeros(2), c_mat)
    assert bound == pytest.approx(np.linalg.eigvalsh(c_mat)[-1] * 8, abs=1e-15)
    assert bound >= analytic_bound(2)
    one = optimizer._Rows(space.embed(orthonormal[:1]), orthonormal[:1] @ problem.initial)
    assert optimizer._dual_bound(space, one, np.zeros(1), c_mat) == np.inf


def test_inconsistent_constraints_raise():
    # a right-hand side off the range of the constraint rows: the row-space
    # reduction alone would solve its projection and return 0.3125
    problem = build_problem(2, "learn")
    u, s, _ = np.linalg.svd(problem.constraints)
    left_null = u[:, -1]
    assert s[-1] <= 1e-12 and np.abs(left_null @ problem.constraints).max() <= 1e-12
    bad = dataclasses.replace(problem, rhs=problem.rhs + 0.1 * left_null)
    with pytest.raises(ConvergenceError) as err:
        solve(bad, tol=1e-8)
    assert err.value.residual >= 0.05


def test_tolerance_validation():
    with pytest.raises(ValueError):
        solve(build_problem(2, "clone"), tol=1e-10)
    with pytest.raises(ValueError):
        build_problem(2, "copy")
    with pytest.raises(ValueError):
        build_problem(5, "clone")


def test_solve_rejects_nan_tolerance():
    # a NaN tolerance would pass an ordered comparison and never stop
    with pytest.raises(ValueError):
        solve(build_problem(2, "clone"), tol=float("nan"), max_iterations=300)


def test_solve_rejects_infinite_tolerance():
    # an infinite tolerance passed tol >= 1e-9 and returned the point after
    # one Newton step (KKT residual 7.4e-2)
    with pytest.raises(ValueError, match="tol must be finite"):
        solve(build_problem(2, "clone"), tol=float("inf"))


@pytest.mark.parametrize("bad, message", [
    (float("nan"), "problem initial has a non-finite entry"),
    (-1.0, "problem initial is not positive definite"),
    (0.0, "problem initial is not positive definite"),
])
def test_solve_rejects_bad_initial_point(bad, message):
    # a NaN or indefinite start used to end in "no convergence after 0
    # iterations: best value inf, residual inf"
    problem = build_problem(2, "clone")
    initial = problem.initial.copy()
    initial[0] = bad  # the first diagonal entry of the first block
    with pytest.raises(ValueError, match=message):
        solve(dataclasses.replace(problem, initial=initial))


@pytest.mark.parametrize("field", ["objective", "constraints", "rhs"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solve_rejects_non_finite_problem(field, bad):
    # a NaN objective used to reach eigh and fail there as "Eigenvalues did
    # not converge", a LinAlgError that names no input
    problem = build_problem(2, "clone")
    values = getattr(problem, field).astype(float)
    values.flat[0] = bad
    with pytest.raises(ValueError, match=f"problem {field} has a non-finite entry"):
        solve(dataclasses.replace(problem, **{field: values}), max_iterations=5)


@pytest.mark.parametrize("task", ["clone", "learn"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_block_space_matches_reference_bitwise(d, task):
    space = build_problem(d, task).space
    ref = ReferenceBlockSpace(block_keys(d))
    rng = np.random.default_rng(10 * d + len(task))
    mats = random_hermitian_blocks(space, rng)
    back = space.unflatten(space.flatten(mats))
    assert list(back) == space.keys
    for key in space.keys:
        assert np.array_equal(back[key], mats[key])
    # the reference weights make the max-norm that of the orthonormal coordinates
    assert (np.abs(reference_weights(space) * space.flatten(mats)).max()
            == np.abs(reference_flatten(ref, mats)).max())
    # the blocks sit along the diagonal of one n x n matrix, in key order
    sizes = [len(space.rows[key]) for key in space.keys]
    expected = np.zeros((sum(sizes),) * 2, dtype=complex)
    for key, start, n in zip(space.keys, np.cumsum([0] + sizes), sizes):
        expected[start:start + n, start:start + n] = mats[key]
    embedded = space.embed(space.flatten(mats))
    assert np.array_equal(embedded, expected)
    assert np.array_equal(space.entries(embedded), space.flatten(mats))
    stacked = space.embed(np.stack([space.flatten(mats)] * 2))
    assert stacked.shape == (2, space.n, space.n) and np.array_equal(stacked[1], expected)


@pytest.mark.parametrize("task", ["clone", "learn"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_problem_matches_entry_functional_assembly(d, task):
    problem = build_problem(d, task)
    space = problem.space
    ref = ReferenceBlockSpace(block_keys(d))
    c, rows, rhs = reference_assembly(ref, d, task)
    assert problem.constraints.shape[0] == len(rows)
    assert np.array_equal(problem.rhs, rhs)
    rng = np.random.default_rng(20 * d + len(task))
    for _ in range(5):
        mats = random_hermitian_blocks(space, rng)
        x, x_ref = space.flatten(mats), reference_flatten(ref, mats)
        assert abs(problem.objective @ x - c @ x_ref) <= 1e-12
        # the imaginary-part rows may carry either sign
        for new, old in zip(problem.constraints @ x, rows @ x_ref):
            assert min(abs(new - old), abs(new + old)) <= 1e-12


@pytest.mark.parametrize("task", ["clone", "learn"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_solve_matches_reference_loop(d, task):
    tol = 1e-8
    problem = build_problem(d, task)
    value, blocks = reference_solve(problem, tol=tol)
    result = solve(problem, tol=tol)
    assert abs(result.optimal_value - value) <= 2 * tol
    # the optimum is unique: both methods land on the same blocks
    for key, block in blocks.items():
        assert np.abs(result.optimal_blocks.blocks[key] - block).max() <= tol


@pytest.mark.parametrize("task", ["clone", "learn"])
def test_solve_on_reference_space_agrees(task, monkeypatch):
    # the same program written in the orthonormal per-entry coordinates and
    # embedded block by block: the Newton iterates are the same matrices
    results = {d: solve(build_problem(d, task), tol=1e-8) for d in (2, 3, 4)}
    monkeypatch.setattr(optimizer, "_HermitianBlockSpace", ReferenceBlockSpace)
    for d, result in results.items():
        problem = build_problem(d, task)
        assert isinstance(problem.space, ReferenceBlockSpace)
        ref = solve(problem, tol=1e-8)
        assert result.iterations == ref.iterations
        assert abs(result.optimal_value - ref.optimal_value) <= 1e-12
        assert abs(result.dual_bound - ref.dual_bound) <= 1e-12
        for key, block in ref.optimal_blocks.blocks.items():
            assert np.abs(result.optimal_blocks.blocks[key] - block).max() <= 1e-12


@settings(max_examples=50, deadline=None, database=None)
@given(d=st.sampled_from([2, 3, 4]), data=st.data())
def test_block_coordinates_are_an_isometry(d, data):
    space = optimizer._HermitianBlockSpace(block_keys(d))
    x = data.draw(arrays(np.float64, space.dim, elements=st.floats(-1e3, 1e3)))
    assert np.array_equal(space.flatten(space.unflatten(x)), x)

    def hermitian_blocks():
        out = {}
        for key in space.keys:
            n = len(space.rows[key])
            g = data.draw(arrays(np.float64, (2, n, n), elements=st.floats(-1.0, 1.0)))
            out[key] = g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T
        return out

    a, b = hermitian_blocks(), hermitian_blocks()
    inner = sum(np.trace(a[key] @ b[key]).real for key in space.keys)
    assert abs(space.flatten(a) @ space.flatten(b) - inner) <= 1e-12
