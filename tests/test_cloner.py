import tracemalloc

import numpy as np
import pytest

from clonelab.channels import (
    apply_channel,
    channel_fidelity_with_double_unitary,
    choi_from_kraus,
    comb_from_pre_post,
    insert_gate,
    kraus_of,
)
from clonelab.cloner import (
    MEMORY_DIM,
    build_cloner,
    choi_r1_of_cloner,
    choi_r1_of_decohered_cloner,
    closed_form_fidelity,
    cloner_channel,
    cloner_channel_closed_form,
    controlled_swap_dilation,
    decohered_cloner_channel,
    first_factor_network,
    kraus_post_b,
    kraus_pre_a,
    memory_basis_change,
    memory_dephasing_kraus,
    post_channel_b,
    pre_channel_a,
)
from clonelab.baselines import f_random
from clonelab.haar import SeededRng, haar_unitaries, sample_haar_unitary
from clonelab.irreps import sector_dims, sym_antisym_projectors, verify_covariance
from clonelab.linalg import dagger, eig_hermitian, max_abs, partial_trace, psd_residual
from clonelab.optimizer import analytic_bound

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)


def random_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_kraus_completeness(d):
    for kraus in (kraus_pre_a(d), kraus_post_b(d)):
        acc = sum(dagger(k) @ k for k in kraus)
        assert max_abs(acc - np.eye(kraus[0].shape[1])) < 1e-10


def test_pre_channel_action_on_symmetric_input():
    d = 2
    p_plus, _ = sym_antisym_projectors(d)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = p_plus @ (g @ dagger(g)) @ p_plus
    rho /= np.trace(rho)
    out = apply_channel(pre_channel_a(d), rho)
    memory = partial_trace(out, [d, 2], keep=[1])
    assert max_abs(memory - np.diag([1.0, 0.0])) < 1e-12


def test_pre_channel_action_on_singlet():
    # the antisymmetric two-qubit state tags memory |-> and sends I/2 onward
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(singlet, singlet.conj())
    out = apply_channel(pre_channel_a(2), rho)
    memory = partial_trace(out, [2, 2], keep=[1])
    system = partial_trace(out, [2, 2], keep=[0])
    assert max_abs(memory - np.diag([0.0, 1.0])) < 1e-12
    assert max_abs(system - np.eye(2) / 2) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_post_channel_is_state_cloner_on_plus_memory(d):
    p_plus, _ = sym_antisym_projectors(d)
    d_plus = sector_dims(d)["+"]
    rng = np.random.default_rng(1)
    for _ in range(5):
        psi = random_pure(rng, d)
        proj = np.outer(psi, psi.conj())
        sigma = np.kron(proj, np.diag([1.0, 0.0]))
        out = apply_channel(post_channel_b(d), sigma)
        ref = d / d_plus * (p_plus @ np.kron(proj, np.eye(d)) @ p_plus)
        assert max_abs(out - ref) < 1e-10


def test_single_clone_fidelity_five_sixths():
    # independent oracle: evaluate (2/3) P+ (psi (x) I) P+ directly and reduce
    d = 2
    p_plus, _ = sym_antisym_projectors(d)
    rng = np.random.default_rng(2)
    psi = random_pure(rng, d)
    proj = np.outer(psi, psi.conj())
    oracle_out = (2.0 / 3.0) * (p_plus @ np.kron(proj, np.eye(d)) @ p_plus)
    oracle_fid = np.real(psi.conj() @ partial_trace(oracle_out, [2, 2], [0]) @ psi)
    assert abs(oracle_fid - 5.0 / 6.0) < 1e-12

    sigma = np.kron(proj, np.diag([1.0, 0.0]))
    out = apply_channel(post_channel_b(d), sigma)
    clone = partial_trace(out, [2, 2], keep=[0])
    assert abs(np.real(psi.conj() @ clone @ psi) - 5.0 / 6.0) < 1e-9


@pytest.mark.parametrize("d,expected", [
    (2, 0.46650635094610965),
    (3, (3 + np.sqrt(8)) / 27),
    (4, (4 + np.sqrt(15)) / 64),
])
def test_cloner_fidelity_closed_form(d, expected):
    assert abs(closed_form_fidelity(d) - expected) < 1e-12
    for u in [np.eye(d)] + list(haar_unitaries(d, 3, SeededRng(d))):
        fid = channel_fidelity_with_double_unitary(cloner_channel(u), u)
        assert abs(fid - expected) < 1e-9


def test_cloner_fidelity_gate_independent():
    fids = [channel_fidelity_with_double_unitary(cloner_channel(u), u)
            for u in haar_unitaries(2, 50, SeededRng(3))]
    assert np.std(fids) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_two_construction_paths_agree(d):
    count = 20 if d < 4 else 10
    for u in haar_unitaries(d, count, SeededRng(4 + d)):
        a = cloner_channel(u).choi
        b = cloner_channel_closed_form(u).choi
        assert max_abs(a - b) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_comb_matches_channel_paths(d):
    net = choi_r1_of_cloner(d)
    for u in haar_unitaries(d, 20, SeededRng(6 + d)):
        inserted = insert_gate(net, u).choi
        direct = cloner_channel(u).choi
        assert max_abs(inserted - direct) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_comb_normalization_and_covariance(d):
    net = choi_r1_of_cloner(d)
    res_slot, res_input = net.normalization_residuals()
    assert max(res_slot, res_input) < 1e-9
    assert verify_covariance(net.choi, d, trials=5) < 1e-9


def test_comb_normalization_at_d4():
    res_slot, res_input = choi_r1_of_cloner(4).normalization_residuals()
    assert max(res_slot, res_input) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_dilation_identity(d):
    v, residual = controlled_swap_dilation(d, trials=20, rng=SeededRng(8))
    assert max_abs(dagger(v) @ v - np.eye(d * d * 2)) < 1e-12
    assert residual < 1e-9


def test_dilation_memory_pure_on_symmetric_input():
    d = 2
    from clonelab.irreps import swap_operator

    s = swap_operator(d)
    v = np.kron(np.eye(d * d), np.diag([1.0, 0.0])) + np.kron(s, np.diag([0.0, 1.0]))
    p_plus, _ = sym_antisym_projectors(d)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = p_plus @ (g @ dagger(g)) @ p_plus
    rho /= np.trace(rho)
    ket0 = np.array([1.0, 1.0]) / np.sqrt(2)
    big = v @ np.kron(rho, np.outer(ket0, ket0)) @ dagger(v)
    w = memory_basis_change()
    memory = w @ partial_trace(big, [2, 2, 2], keep=[2]) @ dagger(w)
    assert max_abs(memory @ memory - memory) < 1e-12  # pure
    assert max_abs(memory - np.diag([1.0, 0.0])) < 1e-12


@pytest.mark.parametrize("d,expected", [(2, 0.25), (3, 1.0 / 9.0), (4, 1.0 / 16.0)])
def test_decohered_fidelity(d, expected):
    u = sample_haar_unitary(d, SeededRng(10 + d))
    fid = channel_fidelity_with_double_unitary(decohered_cloner_channel(u), u)
    assert abs(fid - expected) < 1e-9
    assert abs(fid - f_random(d)) < 1e-9


def test_decohered_channel_equals_memory_dephased_composition():
    d = 2
    net = choi_r1_of_decohered_cloner(d)
    for u in [np.eye(2), SIGMA_1] + list(haar_unitaries(d, 5, SeededRng(12))):
        via_comb = insert_gate(net, u).choi
        direct = decohered_cloner_channel(u).choi
        assert max_abs(via_comb - direct) < 1e-9


def test_first_factor_network_normalized_and_random_guess():
    net = first_factor_network(2)
    res_slot, res_input = net.normalization_residuals()
    assert max(res_slot, res_input) < 1e-9
    u = sample_haar_unitary(2, SeededRng(13))
    fid = channel_fidelity_with_double_unitary(insert_gate(net, u), u)
    assert abs(fid - 0.25) < 1e-12


def test_closed_form_equals_bound_and_large_d_ordering():
    for d in (2, 3, 4):
        assert abs(closed_form_fidelity(d) - analytic_bound(d)) < 1e-12
    # approaches 2/d^2 from below at d = 4: ordering, not equality
    assert closed_form_fidelity(4) < 2 / 16
    assert abs(closed_form_fidelity(4) - 0.12302) < 1e-4


def test_assembly_bundles_validated_parts():
    assembly = build_cloner(2)
    assert assembly.memory_dim == 2
    assert assembly.channel_a.tp_residual() < 1e-10
    assert assembly.channel_b.tp_residual() < 1e-10
    res_slot, res_input = assembly.r1.normalization_residuals()
    assert max(res_slot, res_input) < 1e-9


def test_constructed_choi_operators_are_psd():
    assembly = build_cloner(2)
    for choi in (assembly.channel_a.choi, assembly.channel_b.choi,
                 cloner_channel(SIGMA_1).choi):
        assert psd_residual(choi, 1e-9) <= 1e-9
        w, _ = eig_hermitian(choi, tol=1e-8)
        assert w.min() >= -1e-9
    assembly.r1.validate(check_psd=True)  # full PSD validation at qubit scale


def reference_choi_r1_of_decohered_cloner(d):
    """The decohered comb with its pre-channel's Kraus operators recovered by
    eigendecomposing the pre-channel's Choi operator, kept as an oracle."""
    deph = [np.kron(np.eye(d), p) for p in memory_dephasing_kraus()]
    kraus_a = [dp @ ka for ka in kraus_of(pre_channel_a(d)) for dp in deph]
    a_deph = choi_from_kraus(kraus_a, dims_in=[d, d], dims_out=[d, MEMORY_DIM],
                             labels_in=("0B", "0E"), labels_out=("1", "M"))
    return comb_from_pre_post(a_deph, post_channel_b(d), d, MEMORY_DIM)


@pytest.mark.parametrize("d", [2, 3])
def test_decohered_comb_matches_reference(d):
    ref = reference_choi_r1_of_decohered_cloner(d).choi
    assert max_abs(choi_r1_of_decohered_cloner(d).choi - ref) <= 1e-12


def reference_sandwich_choi(u, coeffs):
    """The per-(i, j) einsum body that ``cloner._sandwich_choi`` replaced,
    kept as the oracle of its Gram form."""
    d = u.shape[0]
    p4 = [p.reshape(d, d, d, d) for p in sym_antisym_projectors(d)]
    out = np.zeros((d**4, d**4), dtype=complex)
    for i in range(2):
        for j in range(2):
            if coeffs[i][j] == 0:
                continue
            t = np.einsum("abxX,yYcb->acxXyY", p4[i], p4[j], optimize=True)
            m = np.einsum("Aa,acxXyY,Gc->AGxXyY", u, t, u.conj(), optimize=True)
            cij = np.einsum("wWAb,AGxXyY,GbtT->wWxXtTyY", p4[i], m, p4[j], optimize=True)
            out += coeffs[i][j] * cij.reshape(d**4, d**4)
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sandwich_gram_form_matches_reference(d):
    dims = [sector_dims(d)["+"], sector_dims(d)["-"]]
    cloner_coeffs = [[d / np.sqrt(di * dj) for dj in dims] for di in dims]
    decohered_coeffs = np.diag([d / di for di in dims])
    for u in haar_unitaries(d, 4, SeededRng(40 + d)):
        for build, coeffs in ((cloner_channel_closed_form, cloner_coeffs),
                              (decohered_cloner_channel, decohered_coeffs)):
            assert max_abs(build(u).choi - reference_sandwich_choi(u, coeffs)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cloner_builds_run_no_eigensolve(d, monkeypatch):
    # positivity is certified by a Cholesky factorization; an eigensolve runs
    # only to report a failure
    u = sample_haar_unitary(d, SeededRng(50 + d))

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve on a valid operator")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    for build in (cloner_channel_closed_form, decohered_cloner_channel, cloner_channel):
        assert build(u).tp_residual() <= 1e-10
    assert build_cloner(d).r1.normalization_residuals() is not None


def test_closed_form_peak_memory_is_a_few_operators():
    # the per-(i, j) einsums and the eigensolve of the validation held 4.1
    # operator sizes at d = 4
    d = 4
    u = sample_haar_unitary(d, SeededRng(60))
    cloner_channel_closed_form(u)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        ch = cloner_channel_closed_form(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * ch.choi.nbytes
