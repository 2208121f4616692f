from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from clonelab.channels import insert_gate, kraus_of
from clonelab.cloner import choi_r1_of_cloner
from clonelab.haar import SeededRng, haar_unitaries
from clonelab.linalg import dagger, max_abs, tensor
from clonelab import protocol
from clonelab.protocol import (
    CLONE_ATTACK_EVE_GUESS,
    CLONE_ATTACK_SYMBOL_ERROR,
    build_bases,
    mutual_unbiasedness_matrix,
    pauli_matrices,
    rotation_gate,
    run_exact,
    run_sampled,
)


def random_max_entangled(rng_index):
    v = next(iter(haar_unitaries(2, 1, SeededRng(1000 + rng_index))))
    return np.kron(np.eye(2), v) @ np.eye(2).reshape(-1) / np.sqrt(2)


# Reference oracles: the per-strategy exact engine and the Kraus-sandwich
# cloning-attack table that the joint-table engine replaced, on vectors built
# with explicit Kronecker products.

def reference_prob(basis_vec, state_vec):
    """|<basis|state>|^2 with both vectors normalized by their own norms."""
    amp = np.vdot(basis_vec, state_vec)
    return float((amp.real * amp.real + amp.imag * amp.imag)
                 / (np.vdot(basis_vec, basis_vec).real * np.vdot(state_vec, state_vec).real))


def reference_on_travel(gate, pair, travel_first):
    op = tensor(gate, np.eye(2)) if travel_first else tensor(np.eye(2), gate)
    return op @ pair


def reference_bob_vectors(bases, basis):
    gates = (bases.basis1, bases.basis2)[basis]
    return [reference_on_travel(g, bases.bell_raw, False) for g in gates]


def reference_eve_vectors(bases, basis):
    gates = (bases.basis1, bases.basis2)[basis]
    return [reference_on_travel(g, np.eye(2).reshape(-1), True) for g in gates]


def reference_intercept_tables(bases):
    p_eve = np.zeros((2, 4, 2, 4))
    p_bob = np.zeros((2, 2, 4, 4))
    eve_pair = np.eye(2, dtype=complex).reshape(-1)
    for b in range(2):
        for be in range(2):
            evecs = reference_eve_vectors(bases, be)
            for mu in range(4):
                evolved = reference_on_travel(bases.gate(b, mu), eve_pair, True)
                p_eve[b, mu, be] = [reference_prob(v, evolved) for v in evecs]
    for b in range(2):
        bvecs = reference_bob_vectors(bases, b)
        for be in range(2):
            for nh in range(4):
                resent = reference_on_travel(bases.gate(be, nh), bases.bell_raw, False)
                p_bob[b, be, nh] = [reference_prob(v, resent) for v in bvecs]
    return p_eve, p_bob


def reference_clone_attack_joint(bases):
    r1 = choi_r1_of_cloner(2)
    eve = np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2)
    psi0 = np.kron(bases.bell, eve)  # factors (K, qB, e_in, eRef)
    rho0 = np.outer(psi0, psi0.conj())
    joint = np.zeros((2, 4, 4, 4))
    for b in range(2):
        bvecs = [v / np.linalg.norm(v) for v in reference_bob_vectors(bases, b)]
        evecs = [v / np.linalg.norm(v) for v in reference_eve_vectors(bases, b)]
        for mu in range(4):
            channel = insert_gate(r1, bases.gate(b, mu))
            rho_out = np.zeros((16, 16), dtype=complex)
            for k in kraus_of(channel):
                lifted = tensor(np.eye(2), k, np.eye(2))
                rho_out += lifted @ rho0 @ dagger(lifted)
            # factors now (K, 3B, 3E, eRef); Bob holds (0,1), Eve (2,3)
            for nb, bv in enumerate(bvecs):
                for ne, ev in enumerate(evecs):
                    w = np.kron(bv, ev)
                    joint[b, mu, nb, ne] = float(np.real(np.vdot(w, rho_out @ w)))
    return joint


def reference_run_exact(strategy, bases):
    """(symbol error, Eve guess) by the per-strategy loops."""
    ser_sum = 0.0
    eve_sum = 0.0
    if strategy == "none":
        for b in range(2):
            bvecs = reference_bob_vectors(bases, b)
            for mu in range(4):
                ser_sum += 1.0 - reference_prob(bvecs[mu], bvecs[mu])
        return ser_sum / 8.0, 0.25
    if strategy == "intercept_resend":
        p_eve, p_bob = reference_intercept_tables(bases)
        for b in range(2):
            for mu in range(4):
                for be in range(2):
                    for nh in range(4):
                        p = p_eve[b, mu, be, nh]
                        if p == 0.0:
                            continue
                        ser_sum += 0.5 * p * (1.0 - p_bob[b, be, nh, mu])
                        eve_sum += 0.5 * p * (1.0 if nh == mu else 0.0)
        return ser_sum / 8.0, eve_sum / 8.0
    joint = reference_clone_attack_joint(bases)
    for b in range(2):
        for mu in range(4):
            ser_sum += 1.0 - joint[b, mu, mu, :].sum()
            eve_sum += joint[b, mu, :, mu].sum()
    return ser_sum / 8.0, eve_sum / 8.0


def test_rotation_gate_algebra():
    u = rotation_gate()
    assert max_abs(u @ u.conj().T - np.eye(2)) < 1e-12
    assert max_abs(np.linalg.matrix_power(u, 3) + np.eye(2)) < 1e-12


def test_rotation_gate_cycles_pauli_axes():
    # conjugation permutes the Pauli axes cyclically; the computed direction
    # is x -> z -> y -> x (the inverse conjugation runs x -> y -> z -> x)
    u = rotation_gate()
    s = pauli_matrices()
    assert max_abs(u @ s[1] @ u.conj().T - s[3]) < 1e-12
    assert max_abs(u @ s[3] @ u.conj().T - s[2]) < 1e-12
    assert max_abs(u @ s[2] @ u.conj().T - s[1]) < 1e-12
    assert max_abs(u.conj().T @ s[1] @ u - s[2]) < 1e-12


def test_build_bases_canonical():
    bases = build_bases()
    assert len(bases.basis1) == 4 and len(bases.basis2) == 4
    overlaps = mutual_unbiasedness_matrix(bases)
    assert max_abs(overlaps - 0.25) == 0.0  # dyadic-exact for the canonical seed


def test_build_bases_rejects_product_state():
    with pytest.raises(ValueError):
        build_bases(np.array([1.0, 0.0, 0.0, 0.0]))


def test_build_bases_rejects_nan_seed():
    # a NaN residual must fail the entanglement check, not pass it
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="maximally entangled"):
        build_bases(np.array([np.nan, 0.0, 0.0, 1.0]))


def test_mutual_unbiasedness_for_random_seeds():
    for i in range(10):
        bases = build_bases(random_max_entangled(i))
        assert max_abs(mutual_unbiasedness_matrix(bases) - 0.25) < 1e-12


def test_honest_exact_statistics():
    stats = run_exact("none", build_bases())
    assert stats.sift_rate == 0.5
    assert stats.symbol_error_rate == 0.0
    assert stats.eve_guess_prob == 0.25
    assert stats.mode == "exact"


def test_honest_correctness_per_cell():
    # every matched-basis measurement returns the encoded symbol with
    # probability exactly one
    bases = build_bases()
    bob = protocol._overlaps(protocol._states(bases, bases.bell_raw, travel_first=False))
    for b in range(2):
        assert np.array_equal(bob[b, :, b, :], np.eye(4))


def test_overlap_tables_match_per_pair_reference():
    for seed in (None, random_max_entangled(5)):
        bases = build_bases(seed)
        for pair, travel_first in ((bases.bell_raw, False), (np.eye(2).reshape(-1), True)):
            vecs = protocol._states(bases, pair, travel_first)
            ref = [[reference_on_travel(bases.gate(b, mu), pair, travel_first)
                    for mu in range(4)] for b in range(2)]
            assert max_abs(vecs - np.array(ref)) < 1e-15
            overlaps = protocol._overlaps(vecs)
            for a, m, b, n in np.ndindex(2, 4, 2, 4):
                ref_p = reference_prob(ref[a][m], ref[b][n])
                if seed is None:
                    assert overlaps[a, m, b, n] == ref_p
                else:
                    assert abs(overlaps[a, m, b, n] - ref_p) < 1e-15


def test_honest_exact_for_random_seed_state():
    stats = run_exact("none", build_bases(random_max_entangled(3)))
    assert stats.symbol_error_rate == 0.0
    assert stats.sift_rate == 0.5


def test_intercept_resend_exact():
    stats = run_exact("intercept_resend", build_bases())
    assert stats.symbol_error_rate == 0.375  # dyadic-exact
    assert stats.eve_guess_prob == 0.625
    assert stats.sift_rate == 0.5


def test_clone_attack_exact_regression():
    stats = run_exact("clone_attack", build_bases())
    assert abs(stats.symbol_error_rate - CLONE_ATTACK_SYMBOL_ERROR) < 1e-9
    assert abs(stats.eve_guess_prob - CLONE_ATTACK_EVE_GUESS) < 1e-9
    assert stats.symbol_error_rate < 0.375
    assert stats.eve_guess_prob > 0.25
    assert stats.sift_rate == 0.5


def test_clone_attack_wired_through_comb(monkeypatch):
    # the attack consumes the assembled cloner comb; swapping in the
    # decohered comb must visibly change the statistics
    from clonelab.cloner import choi_r1_of_decohered_cloner

    monkeypatch.setattr(protocol, "choi_r1_of_cloner", choi_r1_of_decohered_cloner)
    stats = run_exact("clone_attack", build_bases())
    assert abs(stats.symbol_error_rate - CLONE_ATTACK_SYMBOL_ERROR) > 1e-3


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        run_exact("guess", build_bases())
    with pytest.raises(ValueError):
        run_sampled("guess", build_bases(), 10, SeededRng(0))


def test_sampled_honest_has_zero_errors():
    stats = run_sampled("none", build_bases(), 10_000, SeededRng(1))
    assert stats.symbol_error_rate == 0.0
    assert 0.45 < stats.sift_rate < 0.55
    assert stats.rounds == 10_000


def test_sampled_intercept_within_four_sigma():
    rounds = 100_000
    stats = run_sampled("intercept_resend", build_bases(), rounds, SeededRng(2))
    n_sift = rounds * stats.sift_rate
    sigma = np.sqrt(0.375 * 0.625 / n_sift)
    assert abs(stats.symbol_error_rate - 0.375) < 4 * sigma
    sigma_e = np.sqrt(0.625 * 0.375 / n_sift)
    assert abs(stats.eve_guess_prob - 0.625) < 4 * sigma_e


def test_sampled_clone_within_four_sigma():
    rounds = 100_000
    stats = run_sampled("clone_attack", build_bases(), rounds, SeededRng(3))
    n_sift = rounds * stats.sift_rate
    p = CLONE_ATTACK_SYMBOL_ERROR
    assert abs(stats.symbol_error_rate - p) < 4 * np.sqrt(p * (1 - p) / n_sift)
    q = CLONE_ATTACK_EVE_GUESS
    assert abs(stats.eve_guess_prob - q) < 4 * np.sqrt(q * (1 - q) / n_sift)


def test_sampled_reproducible():
    a = run_sampled("intercept_resend", build_bases(), 5_000, SeededRng(4))
    b = run_sampled("intercept_resend", build_bases(), 5_000, SeededRng(4))
    assert a == b
    c = run_sampled("intercept_resend", build_bases(), 5_000, SeededRng(5))
    assert c != a


def test_stats_dict_shape():
    d = asdict(run_exact("none", build_bases()))
    assert set(d) == {"strategy", "sift_rate", "symbol_error_rate",
                      "eve_guess_prob", "mode", "rounds", "seed"}


def test_all_statistics_are_probabilities():
    bases = build_bases()
    for strategy in ("none", "intercept_resend", "clone_attack"):
        for stats in (run_exact(strategy, bases),
                      run_sampled(strategy, bases, 2_000, SeededRng(9))):
            for value in (stats.sift_rate, stats.symbol_error_rate,
                          stats.eve_guess_prob):
                assert 0.0 <= value <= 1.0


def test_on_travel_matches_kron_reference():
    gate = next(iter(haar_unitaries(2, 1, SeededRng(40))))
    pair = np.random.default_rng(41).normal(size=(2, 4)).view(complex).reshape(-1)
    for travel_first in (True, False):
        assert max_abs(protocol._on_travel(gate, pair, travel_first)
                       - reference_on_travel(gate, pair, travel_first)) < 1e-15


@pytest.mark.parametrize("strategy", ["none", "intercept_resend"])
def test_joint_table_engine_equals_reference_on_canonical_seed(strategy):
    stats = run_exact(strategy, build_bases())
    ser, eve = reference_run_exact(strategy, build_bases())
    assert stats.symbol_error_rate == ser
    assert stats.eve_guess_prob == eve


def test_clone_attack_table_matches_kraus_reference():
    bases = build_bases()
    joint = protocol._joint_table("clone_attack", bases)
    assert max_abs(joint - reference_clone_attack_joint(bases)) <= 1e-12
    stats = run_exact("clone_attack", bases)
    ser, eve = reference_run_exact("clone_attack", bases)
    assert abs(stats.symbol_error_rate - ser) <= 1e-12
    assert abs(stats.eve_guess_prob - eve) <= 1e-12


@pytest.mark.parametrize("index", range(3))
def test_joint_table_engine_matches_reference_on_random_seeds(index):
    bases = build_bases(random_max_entangled(index))
    clone = protocol._joint_table("clone_attack", bases)
    assert max_abs(clone - reference_clone_attack_joint(bases)) <= 1e-12
    for strategy in protocol.STRATEGIES:
        stats = run_exact(strategy, bases)
        ser, eve = reference_run_exact(strategy, bases)
        assert abs(stats.symbol_error_rate - ser) <= 1e-12
        assert abs(stats.eve_guess_prob - eve) <= 1e-12


@pytest.mark.parametrize("strategy", protocol.STRATEGIES)
def test_sampled_outcomes_match_joint_table_per_cell(strategy):
    # the marginal rate tests cannot see a mis-indexed CDF that keeps the
    # rates; every (b, mu) cell's 16 outcome frequencies can
    rounds = 100_000
    bases = build_bases()
    joint = protocol._joint_table(strategy, bases)
    b, mu, nu_bob, nu_eve = protocol._sifted_rounds(joint, rounds, SeededRng(70).generator())
    counts = np.zeros(joint.shape)
    np.add.at(counts, (b, mu, nu_bob, nu_eve), 1)
    assert counts.sum() == b.size
    p = np.clip(joint, 0.0, None)  # vanishing cloning entries carry ±1e-17 roundoff
    assert (counts[p == 0.0] == 0).all()
    n_cell = counts.sum(axis=(2, 3), keepdims=True)
    sigma = np.sqrt(p * (1.0 - p) / n_cell)
    assert (np.abs(counts / n_cell - p) <= 5 * sigma).all()
    # run_sampled reports exactly these rounds
    stats = run_sampled(strategy, bases, rounds, SeededRng(70))
    assert stats.sift_rate == b.size / rounds
    assert stats.symbol_error_rate == float(np.mean(nu_bob != mu))
    assert stats.eve_guess_prob == float(np.mean(nu_eve == mu))


def test_sample_cells_rejects_weightless_cell():
    weights = np.ones((8, 16))
    weights[3] = 0.0
    with pytest.raises(ValueError):
        protocol._sample_cells(weights, np.full(8, 2), np.random.default_rng(0))
    weights[3, 0] = np.nan
    with pytest.raises(ValueError):
        protocol._sample_cells(weights, np.full(8, 2), np.random.default_rng(0))


@settings(max_examples=50, deadline=None, database=None)
@given(
    weights=arrays(np.float64, (8, 16), elements=st.floats(0.0, 1.0)),
    zeroed=arrays(np.bool_, (8, 16)),
    counts=arrays(np.int64, 8, elements=st.integers(0, 40)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_cells_draws_only_weighted_outcomes(weights, zeroed, counts, seed):
    weights = np.where(zeroed, 0.0, weights)
    assume((weights.sum(axis=1) > 0.0).all())
    out = protocol._sample_cells(weights, counts, np.random.default_rng(seed))
    again = protocol._sample_cells(weights, counts, np.random.default_rng(seed))
    assert np.array_equal(out, again)
    assert out.shape == (counts.sum(),)
    assert ((out >= 0) & (out <= 15)).all()
    assert (weights[np.repeat(np.arange(8), counts), out] > 0.0).all()
