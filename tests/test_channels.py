import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from clonelab.channels import (
    CombNetwork,
    CompletenessError,
    apply_channel,
    channel_fidelity_with_double_unitary,
    channel_to_json_dict,
    choi_from_kraus,
    choi_of_unitary,
    comb_fidelity_functional,
    comb_fidelity_functional_batch,
    comb_from_pre_post,
    comb_normalization_residuals,
    comb_to_json_dict,
    insert_gate,
    kraus_of,
    make_channel,
    max_entangled_vec,
    vec,
)
from clonelab import cloner
from clonelab.cloner import choi_r1_of_cloner, cloner_channel, first_factor_network
from clonelab.haar import SeededRng, haar_from_generator, haar_unitaries, sample_haar_unitary
from clonelab.irreps import covariance_group_element
from clonelab.linalg import (
    ATOL_HERMITIAN_EIG,
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
    dagger,
    psd_residual,
)

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def random_state(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_cptp_kraus(rng, d, n_kraus):
    """Kraus operators from column blocks of a Haar unitary (an isometry)."""
    from clonelab.haar import haar_from_generator

    u = haar_from_generator(d * n_kraus, rng)
    iso = u[:, :d]
    return [iso[i * d:(i + 1) * d, :] for i in range(n_kraus)]


def reference_choi_from_kraus(kraus):
    """The per-operator loops that ``choi_from_kraus`` replaced, kept as the
    oracle of its stacked products: (completeness residual, Choi operator)."""
    comp = sum(dagger(k) @ k for k in kraus)
    choi = np.zeros((kraus[0].size, kraus[0].size), dtype=complex)
    for k in kraus:
        v = vec(k)
        choi += np.outer(v, v.conj())
    return float(np.abs(comp - np.eye(kraus[0].shape[1])).max()), choi


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_from_kraus_matches_reference(d):
    gen = np.random.default_rng(80 + d)
    u = sample_haar_unitary(d, SeededRng(80 + d))
    kraus_sets = [cloner.kraus_pre_a(d), cloner.kraus_post_b(d),
                  [kb @ np.kron(u, np.eye(2)) @ ka
                   for ka in cloner.kraus_pre_a(d) for kb in cloner.kraus_post_b(d)],
                  random_cptp_kraus(gen, d, 3)]
    for kraus in kraus_sets:
        res, choi = reference_choi_from_kraus(kraus)
        assert res <= 1e-12
        assert np.abs(choi_from_kraus(kraus).choi - choi).max() <= 1e-12
    scaled = [1.5 * k for k in kraus_sets[-1]]
    with pytest.raises(CompletenessError) as err:
        choi_from_kraus(scaled)
    assert abs(err.value.residual - reference_choi_from_kraus(scaled)[0]) <= 1e-12


def test_choi_of_identity_is_max_entangled_projector():
    ch = choi_of_unitary(np.eye(2))
    ivec = max_entangled_vec(2)
    assert np.abs(ch.choi - np.outer(ivec, ivec.conj())).max() < 1e-15
    assert abs(np.trace(ch.choi) - 2.0) < 1e-12
    w = np.linalg.eigvalsh(ch.choi)
    assert np.sum(w > 1e-12) == 1  # rank one


def test_choi_of_traceless_pauli_orthogonal_to_identity():
    c1 = choi_of_unitary(np.eye(2)).choi
    cx = choi_of_unitary(PAULI[1]).choi
    # <I|sigma_1> = Tr[sigma_1] = 0, so the two rank-one Chois are orthogonal
    assert abs(np.trace(c1 @ cx)) < 1e-12


def test_choi_trace_equals_dimension():
    for u in haar_unitaries(3, 20, SeededRng(7)):
        ch = choi_of_unitary(u)
        assert abs(np.trace(ch.choi) - 3.0) < 1e-10


def test_choi_of_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        choi_of_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_single_kraus_matches_unitary_choi():
    u = sample_haar_unitary(3, SeededRng(8))
    a = choi_from_kraus([u]).choi
    b = choi_of_unitary(u).choi
    assert np.abs(a - b).max() < 1e-12


def test_depolarizing_kraus_gives_maximally_mixed_choi():
    kraus = [s / 2.0 for s in PAULI]
    ch = choi_from_kraus(kraus)
    assert np.abs(ch.choi - np.eye(4) / 2).max() < 1e-12
    rho = random_state(np.random.default_rng(9), 2)
    out = apply_channel(ch, rho)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_choi_from_kraus_completeness_violation():
    with pytest.raises(CompletenessError) as err:
        choi_from_kraus([np.eye(2) * 0.5])
    assert err.value.residual == pytest.approx(0.75)


def test_apply_channel_unitary_action():
    rng = np.random.default_rng(10)
    for d in (2, 3):
        u = sample_haar_unitary(d, SeededRng(d))
        rho = random_state(rng, d)
        out = apply_channel(choi_of_unitary(u), rho)
        assert np.abs(out - u @ rho @ dagger(u)).max() < 1e-12


def test_apply_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(11)
    for trial in range(50):
        d = 2 + trial % 2
        ch = choi_from_kraus(random_cptp_kraus(rng, d, 3))
        rho = random_state(rng, d)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out) - 1.0) < 1e-9
        assert np.linalg.eigvalsh((out + dagger(out)) / 2).min() > -1e-9


def test_apply_channel_dimension_mismatch():
    ch = choi_of_unitary(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        apply_channel(ch, np.eye(3) / 3)


def test_apply_channel_rejects_nan_state():
    # a NaN trace residual must fail the trace check, not pass it
    rho = np.diag([np.nan, 1.0]).astype(complex)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="trace"):
        apply_channel(choi_of_unitary(np.eye(2)), rho)


def test_kraus_choi_roundtrip():
    rng = np.random.default_rng(12)
    ch = choi_from_kraus(random_cptp_kraus(rng, 3, 4))
    back = choi_from_kraus(kraus_of(ch))
    assert np.abs(back.choi - ch.choi).max() < 1e-9


@settings(max_examples=25, deadline=None, database=None)
@given(d=st.integers(2, 4), n_kraus=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_kraus_choi_roundtrip_on_random_isometries(d, n_kraus, seed):
    ch = choi_from_kraus(random_cptp_kraus(np.random.default_rng(seed), d, n_kraus))
    assert np.abs(choi_from_kraus(kraus_of(ch)).choi - ch.choi).max() <= 1e-12


def test_channel_validation_catches_non_tp():
    bad = np.eye(4) * 0.4
    with pytest.raises(ValueError):
        make_channel(bad, dims_in=[2], dims_out=[2])


def test_insert_gate_identity_network():
    # pre and post are identities with a d-dimensional memory wire
    d = 2
    from clonelab.channels import comb_from_pre_post

    ident = choi_from_kraus([np.eye(d * d)], dims_in=[d, d], dims_out=[d, d])
    net = comb_from_pre_post(ident, ident, d, memory_dim=d)
    for u in (np.eye(d), sample_haar_unitary(d, SeededRng(13))):
        ch = insert_gate(net, u)
        ch.validate()
        assert abs(np.trace(ch.choi) - d * d) < 1e-9
        # the identity network turns gate insertion into U (x) I
        ref = choi_of_unitary(np.kron(u, np.eye(d))).choi
        assert np.abs(ch.choi - ref).max() < 1e-9


def reference_comb_from_pre_post(pre_choi, post_choi, d, m):
    """The 12-index einsum that the slab-written link replaced, kept as its oracle."""
    a8 = pre_choi.reshape(d, m, d, d, d, m, d, d)
    b8 = post_choi.reshape(d, d, d, m, d, d, d, m)
    r12 = np.einsum("jMxXkNyY,wWuMtTvN->xXjuwWyYkvtT", a8, b8, optimize=True)
    return r12.reshape(d**6, d**6)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_comb_from_pre_post_matches_reference_on_cloner_combs(d, monkeypatch):
    same = []

    def checked_link(pre, post, d, memory_dim, validate=True):
        ref = reference_comb_from_pre_post(pre.choi, post.choi, d, memory_dim)
        comb = comb_from_pre_post(pre, post, d, memory_dim, validate=validate)
        same.append(np.array_equal(comb.choi, ref))
        return comb

    monkeypatch.setattr(cloner, "comb_from_pre_post", checked_link)
    for build in (cloner.choi_r1_of_cloner, cloner.choi_r1_of_decohered_cloner,
                  cloner.first_factor_network):
        build(d)
    assert same == [True, True, True]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_comb_from_pre_post_matches_reference_on_random_pairs(m):
    # non-Hermitian and unnormalized, so a swapped or transposed factor
    # cannot hide behind a symmetry of the operators.  The sums are the same,
    # but BLAS splits one large product and many slab products into different
    # kernel tiles (and einsum multiplies elementwise when m = 1), so dense
    # random entries agree to rounding (about 1e-14 here), not bit for bit.
    gen = np.random.default_rng(70 + m)
    for d in (2, 3):
        n = d**3 * m
        pre, post = (make_channel(gen.standard_normal((n, 2 * n)).view(complex), dims_in=din,
                                  dims_out=dout, validate=False)
                     for din, dout in (([d, d], [d, m]), ([d, m], [d, d])))
        comb = comb_from_pre_post(pre, post, d, m, validate=False)
        ref = reference_comb_from_pre_post(pre.choi, post.choi, d, m)
        assert np.abs(ref - ref.conj().T).max() > 1e-3
        assert np.abs(comb.choi - ref).max() <= 1e-12


def test_comb_from_pre_post_allocates_no_operator_sized_array():
    # the network keeps its m^2 Kronecker terms; the dense link used to be
    # written here, one d^12-entry operator
    d = 3
    pre, post = cloner.pre_channel_a(d), cloner.post_channel_b(d)
    tracemalloc.start()
    try:
        comb = comb_from_pre_post(pre, post, d, cloner.MEMORY_DIM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * 16 * d**12
    assert sum(t.nbytes for t in comb.terms) <= 0.02 * 16 * d**12


def test_comb_choi_build_peak_memory_is_one_comb():
    # the 12-index einsum held a second comb-sized array
    d = 3
    comb = cloner.choi_r1_of_cloner(d)
    tracemalloc.start()
    try:
        choi = comb.choi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * choi.nbytes
    assert comb.choi is choi  # built once, kept on the network


def reference_insert_gate(choi, u, d):
    """The 12-index einsum that ``insert_gate`` replaced, kept as its oracle."""
    x = u.conj().T
    x4 = np.einsum("ce,fg->cefg", x, x.conj())
    r12 = choi.reshape([d] * 12)
    out = np.einsum("abce,xXcewWyYabvV->wWxXvVyY", x4, r12, optimize=True)
    return out.reshape(d**4, d**4)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_insert_gate_matches_reference_on_cloner_comb(d):
    net = choi_r1_of_cloner(d, validate=False)
    for u in haar_unitaries(d, 2 if d == 4 else 5, SeededRng(40 + d)):
        ref = reference_insert_gate(net.choi, u, d)
        assert np.abs(insert_gate(net, u).choi - ref).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_insert_gate_matches_reference_on_baseline_combs(d):
    for build in (cloner.choi_r1_of_decohered_cloner, cloner.first_factor_network):
        net = build(d)
        for u in haar_unitaries(d, 2, SeededRng(45 + d)):
            ref = reference_insert_gate(net.choi, u, d)
            assert np.abs(insert_gate(net, u).choi - ref).max() <= 1e-12


def random_terms(gen, d, m):
    """m^2 random non-Hermitian term pairs on the two comb triples."""
    n3 = d**3
    return tuple(gen.standard_normal((m * m, n3, 2 * n3)).view(complex) for _ in range(2))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_insert_gate_on_terms_matches_reference_on_random_terms(m):
    # neither Hermitian nor covariant, so a swapped factor or a missing
    # conjugate cannot hide behind a symmetry of the terms
    gen = np.random.default_rng(80 + m)
    for d in (2, 3, 4):
        net = CombNetwork(d=d, terms=random_terms(gen, d, m))
        u = sample_haar_unitary(d, SeededRng(90 + d))
        ref = reference_insert_gate(net.choi, u, d)
        assert np.abs(ref - ref.conj().T).max() > 1e-3
        assert np.abs(insert_gate(net, u).choi - ref).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_functional_batch_on_terms_matches_dense_on_random_terms(m):
    # non-Hermitian terms: a transposed b[k] or a missing conjugate would
    # change the value; scaled so that the functional is of order one
    gen = np.random.default_rng(120 + m)
    for d in (2, 3):
        a, b = random_terms(gen, d, m)
        net = CombNetwork(d=d, terms=(a / d**3, b / d**3))
        us = haar_from_generator(d, gen, 5)
        on_terms = comb_fidelity_functional_batch(net, us, d)
        assert net._choi is None  # the dense operator was never linked
        dense = comb_fidelity_functional_batch(net.choi, us, d)
        assert np.abs(on_terms - dense).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_functional_batch_on_terms_matches_dense_on_builder_combs(d):
    us = haar_from_generator(d, np.random.default_rng(130 + d), 10)
    for build in (choi_r1_of_cloner, cloner.choi_r1_of_decohered_cloner,
                  cloner.first_factor_network):
        net = build(d)
        on_terms = comb_fidelity_functional_batch(net, us, d)
        dense = comb_fidelity_functional_batch(net.choi, us, d)
        assert np.abs(on_terms - dense).max() <= 1e-12


@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_comb_network_links_terms_to_their_kronecker_sum(data):
    k = data.draw(st.integers(1, 4))
    a, b = data.draw(arrays(np.float64, (2, k, 8, 16), elements=st.floats(-1.0, 1.0))).view(complex)
    expected = sum(np.kron(a[i], b[i]) for i in range(k))
    assert np.abs(CombNetwork(d=2, terms=(a, b)).choi - expected).max() <= 1e-12


def test_comb_network_takes_one_form_of_the_right_shape():
    a, b = choi_r1_of_cloner(2).terms
    with pytest.raises(ValueError):
        CombNetwork(d=2)
    with pytest.raises(ValueError):
        CombNetwork(choi=np.eye(64), d=2, terms=(a, b))
    with pytest.raises(DimensionMismatchError):
        CombNetwork(d=2, terms=(a, b[:1]))
    with pytest.raises(DimensionMismatchError):
        CombNetwork(d=3, terms=(a, b))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_insert_gate_matches_reference_on_random_operator(d):
    # neither Hermitian nor covariant, so a swapped factor or a missing
    # conjugate cannot hide behind a symmetry of the operator
    gen = np.random.default_rng(50 + d)
    op = gen.standard_normal((d**6, 2 * d**6)).view(complex)
    net = CombNetwork(choi=op, d=d)
    u = sample_haar_unitary(d, SeededRng(60 + d))
    ref = reference_insert_gate(op, u, d)
    assert np.abs(ref - ref.conj().T).max() > 1e-3
    assert np.abs(insert_gate(net, u).choi - ref).max() <= 1e-12


def test_insert_gate_rejects_non_unitary():
    net = choi_r1_of_cloner(2)
    with pytest.raises(NotUnitaryError):
        insert_gate(net, np.diag([1.0, 1.0 + 1e-8]))


def test_cp_residual_rejects_non_hermitian_choi():
    choi = np.eye(4, dtype=complex) / 2
    choi[0, 1] = 1e-6
    ch = make_channel(choi, dims_in=[2], dims_out=[2], validate=False)
    with pytest.raises(ValueError, match="not PSD") as err:
        ch.validate()
    assert isinstance(err.value.__cause__, NotHermitianError)


def test_cp_residual_matches_eigh_on_non_psd_choi():
    gen = np.random.default_rng(70)
    g = gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16))
    choi = (g + g.conj().T) / 2
    ch = make_channel(choi, dims_in=[4], dims_out=[4], validate=False)
    expected = -np.linalg.eigh(choi)[0].min()
    assert expected > 0.1
    assert abs(psd_residual(ch.choi, ATOL_HERMITIAN_EIG) - expected) <= 1e-12
    with pytest.raises(ValueError, match="not PSD"):
        ch.validate()


def test_validation_rejects_nan_operators():
    choi = np.eye(4, dtype=complex) / 2
    choi[0, 1] = choi[1, 0] = np.nan
    with pytest.raises(ValueError, match="not PSD"):
        make_channel(choi, dims_in=[2], dims_out=[2])
    bad = choi_r1_of_cloner(2).choi.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="normalization"):
        CombNetwork(choi=bad, d=2).validate(check_psd=False)


def test_validators_reject_nan_inputs():
    nan_gate = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    for build in (lambda: insert_gate(choi_r1_of_cloner(2), nan_gate),
                  lambda: choi_of_unitary(nan_gate),
                  lambda: cloner_channel(nan_gate)):
        with pytest.raises(NotUnitaryError):
            build()
    bad = choi_r1_of_cloner(2).choi.copy()
    bad[0, 1] = np.nan  # upper triangle only: invisible to eigvalsh
    with pytest.raises(NotHermitianError):
        CombNetwork(choi=bad, d=2).validate()
    with pytest.raises(CompletenessError):
        choi_from_kraus([nan_gate])


# every function that takes a gate, as a function of the gate alone (d = 2)
GATE_ENTRY_POINTS = {
    "choi_of_unitary": choi_of_unitary,
    "insert_gate": lambda u: insert_gate(choi_r1_of_cloner(2), u),
    "channel_fidelity_with_double_unitary":
        lambda u: channel_fidelity_with_double_unitary(cloner_channel(np.eye(2)), u),
    "comb_fidelity_functional": lambda u: comb_fidelity_functional(choi_r1_of_cloner(2).choi, u, 2),
    "comb_fidelity_functional_batch":
        lambda u: comb_fidelity_functional_batch(choi_r1_of_cloner(2).choi, u[None], 2),
    "comb_fidelity_functional_batch_on_terms":
        lambda u: comb_fidelity_functional_batch(choi_r1_of_cloner(2), u[None], 2),
    "cloner_channel": cloner_channel,
    "cloner_channel_closed_form": cloner.cloner_channel_closed_form,
    "decohered_cloner_channel": cloner.decohered_cloner_channel,
}
BAD_GATES = {
    "isometry": np.eye(3)[:, :2],  # U†U = I, but not square
    "five_identity": 5.0 * np.eye(2),
    "nan": np.diag([np.nan, 1.0]),
    "wrong_d": np.roll(np.eye(5), 1, axis=0),  # unitary, but d = 5
}


@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry in GATE_ENTRY_POINTS for bad in BAD_GATES
    # choi_of_unitary takes a unitary of any size, so it has no d to get wrong
    if (entry, bad) != ("choi_of_unitary", "wrong_d")
])
def test_gate_entry_points_reject_bad_gates(entry, bad):
    with pytest.raises((NotUnitaryError, DimensionMismatchError)):
        GATE_ENTRY_POINTS[entry](BAD_GATES[bad])


def test_insert_gate_trace_and_dimension_check():
    net = choi_r1_of_cloner(2)
    ch = insert_gate(net, PAULI[1])
    assert abs(np.trace(ch.choi) - 4.0) < 1e-9
    with pytest.raises(DimensionMismatchError):
        insert_gate(net, np.eye(3))


def test_fidelity_perfect_for_double_unitary_channel():
    for d in (2, 3):
        u = sample_haar_unitary(d, SeededRng(14 + d))
        ch = choi_of_unitary(np.kron(u, u))
        ch = make_channel(ch.choi, dims_in=[d, d], dims_out=[d, d], validate=False)
        assert channel_fidelity_with_double_unitary(ch, u) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_of_cloner_is_gate_independent():
    refs = [channel_fidelity_with_double_unitary(cloner_channel(u), u)
            for u in [np.eye(2), PAULI[1]] + list(haar_unitaries(2, 5, SeededRng(15)))]
    assert np.abs(np.array(refs) - 0.46650635094610965).max() < 1e-9


def test_fidelity_of_first_factor_network_is_random_guess():
    net = first_factor_network(2)
    for u in haar_unitaries(2, 5, SeededRng(16)):
        assert comb_fidelity_functional(net.choi, u, 2) == pytest.approx(0.25, abs=1e-12)


def test_comb_normalization_accepts_cloner_rejects_corruption():
    net = choi_r1_of_cloner(2)
    r1, r2 = comb_normalization_residuals(net)
    assert max(r1, r2) < 1e-9
    # perturb an entry that is diagonal in the traced factors (row 0, column
    # differing only in the 0E index) so the partial traces can see it
    bad = net.choi.copy()
    bad[0, 16] += 1e-3
    bad[16, 0] += 1e-3
    b1, b2 = comb_normalization_residuals(CombNetwork(choi=bad, d=2))
    assert max(b1, b2) > 1e-4


@pytest.mark.parametrize("d", [2, 3, 4])
def test_normalization_on_terms_matches_dense(d):
    gen = np.random.default_rng(100 + d)
    nets = [build(d) for build in (cloner.choi_r1_of_cloner, cloner.choi_r1_of_decohered_cloner,
                                   cloner.first_factor_network)]
    # a kicked term set: one term pair off by a small random operator
    a, b = (t.copy() for t in nets[0].terms)
    kick_a, kick_b = random_terms(gen, d, 1)
    a[1] += 1e-3 * kick_a[0]
    b[2] += 1e-3 * kick_b[0]
    nets.append(CombNetwork(d=d, terms=(a, b)))
    for net in nets:
        on_terms = comb_normalization_residuals(net)
        dense = comb_normalization_residuals(CombNetwork(choi=net.choi, d=d))
        assert np.abs(np.subtract(on_terms, dense)).max() <= 1e-12
    assert max(on_terms) > 1e-4  # the kick is visible


def reference_term_normalization_residuals(network):
    """The term residuals by the generic einsum and the broadcast kron(R0, I)
    comparison, which the one product with in-place diagonal slices replaced."""
    d = network.d
    a, b = network.terms
    tb = np.trace(b.reshape(-1, d, d * d, d, d * d), axis1=2, axis2=4)
    n4 = d**4
    reduced = np.einsum("krc,kij->ricj", a, tb).reshape(n4, n4)
    r0 = np.tensordot(np.trace(tb, axis1=1, axis2=2), a, axes=1) / d
    res_slot = np.abs(reduced - np.kron(r0, np.eye(d))).max()
    res_input = np.abs(np.einsum("acbc->ab", r0.reshape(d * d, d, d * d, d))
                       - np.eye(d * d)).max()
    return res_slot, res_input


@pytest.mark.parametrize("d", [2, 3, 4])
def test_normalization_on_terms_matches_einsum_reference(d):
    gen = np.random.default_rng(130 + d)
    nets = [build(d) for build in (cloner.choi_r1_of_cloner, cloner.choi_r1_of_decohered_cloner,
                                   cloner.first_factor_network)]
    a, b = (t.copy() for t in nets[0].terms)
    a[1] += 1e-3 * random_terms(gen, d, 1)[0][0]
    nets.append(CombNetwork(d=d, terms=(a, b)))
    nets.append(CombNetwork(d=d, terms=random_terms(gen, d, 3)))
    for net in nets:
        new, ref = comb_normalization_residuals(net), reference_term_normalization_residuals(net)
        assert np.abs(np.subtract(new, ref)).max() <= 1e-15 * max(1.0, *ref)


def test_insert_fidelity_covariant_under_group_action():
    # conjugating the network by the symmetry action and compensating the
    # gate leaves the computed fidelity unchanged
    d = 2
    net = choi_r1_of_cloner(d)
    rng = SeededRng(17)
    u = sample_haar_unitary(d, rng.substream(100))
    base = comb_fidelity_functional(net.choi, u, d)
    for i in range(10):
        v = sample_haar_unitary(d, rng.substream(2 * i))
        w = sample_haar_unitary(d, rng.substream(2 * i + 1))
        g = covariance_group_element(d, v, w)
        moved = g @ net.choi @ dagger(g)
        compensated = w @ u @ v.T
        assert comb_fidelity_functional(moved, compensated, d) == pytest.approx(base, abs=1e-9)


def test_serialization_roundtrip():
    ch = choi_of_unitary(PAULI[2])
    doc = channel_to_json_dict(ch)
    json.dumps(doc)  # must be serializable as-is
    entries = np.array([complex(re, im) for re, im in doc["entries"]])
    assert np.abs(entries.reshape(ch.choi.shape) - ch.choi).max() == 0.0

    net = choi_r1_of_cloner(2)
    doc = comb_to_json_dict(net)
    assert doc["labels"] == ["0B", "0E", "1", "2", "3B", "3E"]
    assert doc["dims"] == [2] * 6
    entries = np.array([complex(re, im) for re, im in doc["entries"]])
    assert np.abs(entries.reshape(net.choi.shape) - net.choi).max() == 0.0


def test_vec_convention():
    # vec(M) = (M (x) I)|I>
    m = np.arange(4, dtype=complex).reshape(2, 2)
    ivec = max_entangled_vec(2)
    assert np.abs(np.kron(m, np.eye(2)) @ ivec - vec(m)).max() == 0.0
