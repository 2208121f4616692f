import numpy as np
import pytest

from clonelab.baselines import (
    build_report,
    f_decohered,
    f_estimation,
    f_learning,
    f_random,
    helstrom_error,
    majority_vote_error,
    no_cloning_fixed_points,
    permutation_discrimination,
)
from clonelab.haar import SeededRng, haar_from_generator
from clonelab.linalg import DimensionMismatchError


def test_f_random_values():
    for d in (2, 3, 4):
        assert f_random(d) == 1 / d**2
    with pytest.raises(ValueError):
        f_random(1)


def test_f_random_monte_carlo_oracle():
    # apply the gate to the first system, an independent Haar unitary to the
    # second: fidelity per draw is |Tr(W† U)|^2 / d^2
    gen = SeededRng(0).generator()
    n = 10_000
    draws = haar_from_generator(2, gen, 2 * n)
    u, w = draws[0::2], draws[1::2]  # drawn in turn, as by single calls
    vals = np.abs(np.trace(np.swapaxes(w, 1, 2).conj() @ u, axis1=1, axis2=2)) ** 2 / 4
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 0.25) < 3 * stderr


def test_f_estimation_values():
    assert f_estimation(2) == 0.3125
    assert f_estimation(3) == pytest.approx(6 / 81)
    assert f_estimation(4) == 6 / 256


def test_f_learning_equals_estimation():
    for d in (2, 3, 4):
        assert f_learning(d) == f_estimation(d)


def test_majority_vote_error_values():
    assert majority_vote_error(0.0) == 0.0
    assert majority_vote_error(0.5) == 0.5
    assert majority_vote_error(0.25) == 0.15625
    with pytest.raises(ValueError):
        majority_vote_error(1.5)


def test_majority_vote_monotone_and_below_identity():
    grid = np.linspace(0.0, 0.5, 501)
    vals = [majority_vote_error(float(p)) for p in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for p, v in zip(grid[1:-1], vals[1:-1]):
        assert v < p  # strictly below on the open interval


def test_no_cloning_fixed_points():
    assert no_cloning_fixed_points(1001) == [0.0, 0.5]
    # arithmetic spot checks of the exclusion
    assert majority_vote_error(0.3) == pytest.approx(0.216)
    assert majority_vote_error(0.3) < 0.3
    assert majority_vote_error(1e-6) < 1e-6  # ~3e-12, leading order 3 p^2
    with pytest.raises(ValueError):
        no_cloning_fixed_points(5)


def test_helstrom_error_extremes():
    rho = np.diag([0.5, 0.5])
    assert helstrom_error(rho, rho) == pytest.approx(0.5)
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    assert helstrom_error(zero, one) == pytest.approx(0.0, abs=1e-15)


def test_helstrom_error_nonorthogonal_pair():
    # |0> vs |+>: eigenvalues of the difference are +-1/sqrt(2)
    zero = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    expected = (1 - 1 / np.sqrt(2)) / 2
    assert helstrom_error(zero, plus) == pytest.approx(expected, abs=1e-12)
    assert helstrom_error(plus, zero) == pytest.approx(expected, abs=1e-12)


def test_helstrom_error_bounds_and_errors():
    gen = SeededRng(1).generator()
    for _ in range(10):
        g1 = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        g2 = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        r1 = g1 @ g1.conj().T
        r2 = g2 @ g2.conj().T
        r1 /= np.trace(r1)
        r2 /= np.trace(r2)
        val = helstrom_error(r1, r2)
        assert 0.0 <= val <= 0.5
        assert helstrom_error(r2, r1) == pytest.approx(val)
    with pytest.raises(DimensionMismatchError):
        helstrom_error(np.eye(2) / 2, np.eye(3) / 3)


def test_permutation_discrimination():
    assert permutation_discrimination(2) == (2, True)
    assert permutation_discrimination(3) == (3, False)
    assert permutation_discrimination(4) == (4, False)
    with pytest.raises(ValueError):
        permutation_discrimination(6)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_report_ordering_invariants(d):
    report = build_report(d)
    assert report.f_clon > report.f_est
    assert report.f_est >= report.f_learn
    assert report.f_clon > report.f_ran
    assert report.f_deco == report.f_ran
    assert report.f_deco == f_decohered(d)
    if d > 2:
        # estimation falls below even the decohered strategy above qubits
        assert report.f_est < report.f_ran


def test_report_d2_row():
    report = build_report(2)
    assert report.f_clon == pytest.approx(0.46650635094610965, abs=1e-12)
    assert report.f_est == 0.3125
    assert report.f_ran == 0.25
    assert report.f_deco == 0.25
    assert report.f_learn == 0.3125


def test_report_d3_est_equals_learn():
    report = build_report(3)
    assert report.f_est == report.f_learn == pytest.approx(0.07407407407407407)
