import numpy as np

from clonelab.channels import comb_fidelity_functional
from clonelab.cloner import (
    choi_r1_of_cloner,
    choi_r1_of_decohered_cloner,
    closed_form_fidelity,
)
from clonelab.channels import choi_from_kraus, comb_from_pre_post
from clonelab.haar import (
    SeededRng,
    average_fidelity_mc,
    haar_from_generator,
    sample_haar_unitary,
)
from clonelab.linalg import unitarity_residual


def test_d1_is_unit_modulus_scalar():
    u = sample_haar_unitary(1, SeededRng(0))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_unitarity_residual_always_small():
    rng = SeededRng(1)
    for i, d in enumerate([2, 3, 4] * 10):
        u = sample_haar_unitary(d, rng.substream(i))
        assert unitarity_residual(u) < 1e-10


def test_haar_moments_d2():
    # E|Tr U|^2 = 1 for the Haar measure; variance is 1, so 1e5 samples put
    # the estimate within 0.02 at roughly six standard errors
    gen = SeededRng(2).generator()
    n = 100_000
    t = np.trace(haar_from_generator(2, gen, n), axis1=1, axis2=2)
    assert abs(np.mean(np.abs(t) ** 2) - 1.0) < 0.02


def test_haar_entry_moments_d3():
    gen = SeededRng(3).generator()
    n = 100_000
    us = haar_from_generator(3, gen, n)
    assert np.abs(us.mean(axis=0)).max() < 0.01
    # E|U_ij|^2 = 1/d within three standard errors
    stderr = np.sqrt((1 / 3) * (2 / 3) / n) * 2  # loose bound on the entry variance
    assert np.abs((np.abs(us) ** 2).mean(axis=0) - 1 / 3).max() < 3 * stderr + 2e-3


def test_haar_stack_equals_single_draws():
    # the stack reads the generator's stream in the order of single draws
    for d in (1, 2, 3, 4):
        single, stacked = SeededRng(20 + d).generator(), SeededRng(20 + d).generator()
        ref = np.array([haar_from_generator(d, single) for _ in range(500)])
        assert np.array_equal(haar_from_generator(d, stacked, 500), ref)
        # both generators end at the same point of the stream
        assert single.standard_normal() == stacked.standard_normal()


def test_seed_reproducibility():
    a = sample_haar_unitary(3, SeededRng(42))
    b = sample_haar_unitary(3, SeededRng(42))
    assert np.array_equal(a, b)
    c = sample_haar_unitary(3, SeededRng(43))
    assert not np.array_equal(a, c)


def test_substreams_are_independent_of_enumeration():
    rng = SeededRng(5)
    forward = [sample_haar_unitary(2, rng.substream(i)) for i in range(4)]
    backward = [sample_haar_unitary(2, rng.substream(i)) for i in (3, 2, 1, 0)]
    for u, v in zip(forward, backward[::-1]):
        assert np.array_equal(u, v)


def test_mc_average_bit_reproducible():
    net = choi_r1_of_cloner(2)
    a = average_fidelity_mc(net, 25, SeededRng(6))
    b = average_fidelity_mc(net, 25, SeededRng(6))
    assert a == b


def test_mc_on_optimal_cloner_is_constant():
    net = choi_r1_of_cloner(2)
    mean, stderr = average_fidelity_mc(net, 100, SeededRng(7))
    assert abs(mean - 0.46650635094610965) < 1e-12
    assert stderr < 1e-12


def test_mc_on_decohered_network():
    net = choi_r1_of_decohered_cloner(2)
    mean, stderr = average_fidelity_mc(net, 10_000, SeededRng(8))
    assert abs(mean - 0.25) < 3 * stderr + 1e-9


def test_mc_on_fixed_second_unitary_network():
    # gate on the first output, a fixed unitary on the second input: the
    # integrand |Tr(W† U)|^2 / d^2 genuinely fluctuates and averages to 1/d^2
    d = 2
    w = sample_haar_unitary(d, SeededRng(9))
    ident = choi_from_kraus([np.eye(d * d)], dims_in=[d, d], dims_out=[d, d])
    post = choi_from_kraus([np.kron(np.eye(d), w)], dims_in=[d, d], dims_out=[d, d])
    net = comb_from_pre_post(ident, post, d, memory_dim=d)

    mean, stderr = average_fidelity_mc(net, 10_000, SeededRng(10))
    assert stderr > 1e-6  # non-degenerate integrand
    assert abs(mean - 0.25) < 3 * stderr

    # spot-check the integrand formula on one sample
    u = sample_haar_unitary(d, SeededRng(11))
    direct = abs(np.trace(w.conj().T @ u)) ** 2 / d**2
    assert abs(comb_fidelity_functional(net.choi, u, d) - direct) < 1e-12


def reference_average_fidelity_mc(network, samples, rng):
    """The one-draw-per-read loop that the blocked average replaced, kept as its oracle."""
    d = network.d
    vals = np.empty(samples)
    for i in range(samples):
        u = sample_haar_unitary(d, rng.substream(i))
        vals[i] = comb_fidelity_functional(network.choi, u, d)
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return float(vals.mean()), stderr


def test_mc_matches_reference_loop():
    # 300 samples span two blocks of draws
    d = 2
    w = sample_haar_unitary(d, SeededRng(9))
    ident = choi_from_kraus([np.eye(d * d)], dims_in=[d, d], dims_out=[d, d])
    post = choi_from_kraus([np.kron(np.eye(d), w)], dims_in=[d, d], dims_out=[d, d])
    nets = [choi_r1_of_cloner(2), choi_r1_of_cloner(3), choi_r1_of_decohered_cloner(2),
            comb_from_pre_post(ident, post, d, memory_dim=d)]
    for net in nets:
        for samples in (1, 7, 300):
            mean, stderr = average_fidelity_mc(net, samples, SeededRng(14))
            ref_mean, ref_stderr = reference_average_fidelity_mc(net, samples, SeededRng(14))
            assert abs(mean - ref_mean) <= 1e-12
            assert abs(stderr - ref_stderr) <= 1e-12


def test_mc_matches_closed_form_for_all_dims():
    for d in (2, 3):
        net = choi_r1_of_cloner(d)
        mean, stderr = average_fidelity_mc(net, 20, SeededRng(12 + d))
        assert abs(mean - closed_form_fidelity(d)) < 1e-10
        assert stderr < 1e-10
