import numpy as np
import pytest

from clonelab.cloner import build_cloner
from clonelab.irreps import build_irrep_table
from clonelab.linalg import (
    ATOL_PSD,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    dagger,
    eig_hermitian,
    hermiticity_residual,
    max_abs,
    partial_trace,
    permute_factors,
    psd_residual,
    require_gate_dim,
    require_hermitian,
    require_psd,
    require_unitary,
    tensor,
    worst,
)
from clonelab.optimizer import build_problem

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

# hand-expanded Kronecker product of sigma_1 and sigma_3
SIGMA_1_X_SIGMA_3 = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ],
    dtype=complex,
)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_matches_hand_expansion():
    assert np.array_equal(tensor(SIGMA_1, SIGMA_3), SIGMA_1_X_SIGMA_3)


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(0)
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_tensor_associative():
    rng = np.random.default_rng(1)
    # exact entry equality on integer-valued entries (products are exact)
    a, b, c = (rng.integers(-5, 5, (k, k)) + 1j * rng.integers(-5, 5, (k, k))
               for k in (2, 3, 2))
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
    # and to rounding accuracy on generic entries
    a, b, c = (random_matrix(rng, k) for k in (2, 3, 2))
    lhs = tensor(tensor(a, b), c)
    rhs = tensor(a, tensor(b, c))
    assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(lhs).max()


def test_partial_trace_max_entangled_marginal():
    ivec = np.eye(2, dtype=complex).reshape(-1)
    proj = np.outer(ivec, ivec.conj())
    out = partial_trace(proj, [2, 2], keep=[0])
    assert np.abs(out - np.eye(2)).max() < 1e-15


def test_partial_trace_factorized():
    rng = np.random.default_rng(2)
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 4)
    out = partial_trace(tensor(a, b), [3, 4], keep=[0])
    assert np.abs(out - a * np.trace(b)).max() < 1e-12


def test_partial_trace_all_factors_gives_trace():
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 6)
    out = partial_trace(m, [2, 3], keep=[])
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.trace(m)) < 1e-12


def test_partial_trace_dimension_errors():
    m = np.eye(4)
    with pytest.raises(DimensionMismatchError):
        partial_trace(m, [2, 3], keep=[0])
    with pytest.raises(DimensionMismatchError) as err:
        partial_trace(m, [2, 2], keep=[5])
    assert err.value.factor == 5


def test_permute_factors_roundtrip():
    rng = np.random.default_rng(4)
    m = random_matrix(rng, 12)
    once = permute_factors(m, [2, 3, 2], [2, 0, 1])
    back = permute_factors(once, [2, 2, 3], [1, 2, 0])
    assert np.abs(back - m).max() < 1e-15


def test_permute_factors_swaps_kron_order():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 3)
    swapped = permute_factors(tensor(a, b), [2, 3], [1, 0])
    assert np.abs(swapped - tensor(b, a)).max() < 1e-15


def test_eig_hermitian_pauli():
    w, v = eig_hermitian(SIGMA_3)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.abs(dagger(v) @ v - np.eye(2)).max() < 1e-10


def test_eig_hermitian_symmetric_projector():
    # two-qubit symmetric subspace has dimension 3
    s = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            s[i * 2 + j, j * 2 + i] = 1
    p_plus = (np.eye(4) + s) / 2
    w, _ = eig_hermitian(p_plus)
    assert np.allclose(w, [0.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_eig_hermitian_reconstruction():
    rng = np.random.default_rng(6)
    for n in (2, 5, 9):
        m = random_matrix(rng, n)
        m = m + dagger(m)
        w, v = eig_hermitian(m)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.abs(m - (v * w) @ dagger(v)).max() < 1e-9


def test_eig_hermitian_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError) as err:
        eig_hermitian(m)
    assert err.value.residual == pytest.approx(1.0)


def test_psd_residual():
    assert psd_residual(np.eye(3), 1e-10) == 0.0
    assert psd_residual(SIGMA_3, 1e-10) == pytest.approx(1.0)
    with pytest.raises(NotHermitianError):
        psd_residual(np.array([[0, 1], [0, 0]]), 1e-10)
    nan = np.eye(2, dtype=complex)
    nan[0, 1] = np.nan  # one triangle only: eigvalsh alone would not see it
    with pytest.raises(NotHermitianError):
        psd_residual(nan, 1e-10)


@pytest.mark.parametrize("n", [16, 256])
def test_require_psd_decides_as_psd_residual_at_the_boundary(n):
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(random_matrix(rng, n))
    for lam_min in (-ATOL_PSD * (1 - 1e-3), -ATOL_PSD * (1 + 1e-3), 0.0, -0.5, 1e-3):
        w = np.concatenate([[lam_min], rng.uniform(0.0, 1.0, n - 1)])
        m = (q * w) @ dagger(q)
        m = (m + dagger(m)) / 2
        res = psd_residual(m, 1e-10)
        assert (res <= ATOL_PSD) == (lam_min > -ATOL_PSD)
        if res <= ATOL_PSD:
            require_psd(m, 1e-10)
        else:
            with pytest.raises(NotPSDError) as err:
                require_psd(m, 1e-10)
            assert err.value.residual == res


@pytest.mark.parametrize("n,rank", [(16, 1), (16, 5), (256, 3), (256, 200)])
def test_require_psd_accepts_rank_deficient_gram_operators(n, rank):
    x = random_matrix(np.random.default_rng(n + rank), n)[:, :rank]
    m = x @ dagger(x)
    assert psd_residual(m, 1e-10) <= ATOL_PSD
    assert require_psd(m, 1e-10) is not None


def test_require_psd_rejects_non_hermitian_and_nan_first():
    with pytest.raises(NotHermitianError):
        require_psd(np.array([[0, 1], [0, 0]]), 1e-10)
    nan = np.eye(2, dtype=complex)
    nan[0, 1] = np.nan  # one triangle only: the factorization alone would not see it
    with pytest.raises(NotHermitianError):
        require_psd(nan, 1e-10)
    with pytest.raises(NotPSDError, match="not PSD") as err:
        require_psd(SIGMA_3, 1e-10)
    assert err.value.residual == pytest.approx(1.0)


def test_unitary_and_hermitian_checks():
    assert require_unitary(SIGMA_1) is not None
    assert require_hermitian(SIGMA_1) is not None
    with pytest.raises(NotUnitaryError):
        require_unitary(np.array([[1, 0], [0, 2]]))
    assert hermiticity_residual(SIGMA_1) == 0.0
    for bad in (np.eye(3)[:, :2], np.ones(2), np.eye(3)[:2]):
        for check in (require_unitary, require_hermitian):
            with pytest.raises(DimensionMismatchError):
                check(bad)


@pytest.mark.parametrize("n", [16, 64, 65, 256])
def test_hermiticity_residual_by_row_slab_matches_whole_operator(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for m in (g, g + g.conj().T, g @ g.conj().T):
        assert hermiticity_residual(m) == max_abs(m - dagger(m))
    bad = g + g.conj().T
    bad[n - 1, 3] = np.nan  # in the last slab
    assert np.isnan(hermiticity_residual(bad))


def test_require_gate_dim_bounds():
    assert require_gate_dim(3) == 3
    for bad in (1, 5):
        with pytest.raises(ValueError):
            require_gate_dim(bad)


@pytest.mark.parametrize("entry", [
    require_gate_dim,
    lambda d: build_problem(d, "clone"),
    build_cloner,
    build_irrep_table,
], ids=["require_gate_dim", "build_problem", "build_cloner", "build_irrep_table"])
def test_non_integral_gate_dim_is_rejected(entry):
    # int(d) used to truncate it: build_problem(2.5, "clone") built the d = 2 problem
    with pytest.raises(DimensionMismatchError, match="gate dimension d=2.5 is not an integer"):
        entry(2.5)
    assert require_gate_dim(np.float64(3.0)) == 3


def test_worst_propagates_nan():
    assert max(0.0, float("nan")) == 0.0  # the fold that worst() replaces
    assert np.isnan(worst([0.0, float("nan"), 1.0]))
    assert np.isnan(worst(x for x in (float("nan"), 0.0)))
    assert worst([1e-12, 3.0, 2.0]) == 3.0
    assert worst([]) == 0.0


def test_require_unitary_returns_matrix_or_raises():
    u = require_unitary([[0, 1], [1, 0]])
    assert u.dtype == complex and u.shape == (2, 2)
    with pytest.raises(NotUnitaryError) as err:
        require_unitary(np.diag([1.0, 1.0 + 1e-6]))
    assert err.value.tol == 1e-10
    require_unitary(np.diag([1.0, 1.0 + 1e-6]), tol=1e-5)
    # a stack of gates is checked at once
    stack = np.array([np.eye(2), SIGMA_1, SIGMA_3], dtype=complex)
    assert require_unitary(stack).shape == (3, 2, 2)
    stack[1] *= 5.0
    with pytest.raises(NotUnitaryError) as err:
        require_unitary(stack)
    assert err.value.residual == pytest.approx(24.0)


def test_require_hermitian_tolerance():
    m = SIGMA_3.copy()
    m[0, 1] = 1e-9
    with pytest.raises(NotHermitianError):
        require_hermitian(m)
    assert require_hermitian(m, tol=1e-8) is not None
