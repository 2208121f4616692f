"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
"""

import json
import time

import numpy as np

from clonelab.baselines import (
    f_estimation,
    f_random,
    no_cloning_fixed_points,
    permutation_discrimination,
)
from clonelab.channels import channel_fidelity_with_double_unitary, insert_gate
from clonelab.cli import main
from clonelab.cloner import (
    choi_r1_of_cloner,
    closed_form_fidelity,
    cloner_channel,
    cloner_channel_closed_form,
    decohered_cloner_channel,
    post_channel_b,
)
from clonelab.channels import apply_channel
from clonelab.haar import SeededRng, haar_unitaries, sample_haar_unitary
from clonelab.irreps import sector_dims, sym_antisym_projectors, verify_covariance
from clonelab.linalg import max_abs, partial_trace, worst
from clonelab.optimizer import analytic_bound, build_problem, solve
from clonelab.protocol import (
    CLONE_ATTACK_EVE_GUESS,
    CLONE_ATTACK_SYMBOL_ERROR,
    build_bases,
    mutual_unbiasedness_matrix,
    run_exact,
    run_sampled,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_closed_form_fidelity():
    start = time.perf_counter()
    residuals = []
    for d in (2, 3, 4):
        expected = (d + np.sqrt(d * d - 1.0)) / d**3
        u = sample_haar_unitary(d, SeededRng(d))
        for gate in (np.eye(d), u):
            fid = channel_fidelity_with_double_unitary(cloner_channel(gate), gate)
            residuals.append(abs(fid - expected))
    fid2 = channel_fidelity_with_double_unitary(cloner_channel(np.eye(2)), np.eye(2))
    residuals.append(abs(fid2 - 0.46650635094610965))
    residual = worst(residuals)
    elapsed = time.perf_counter() - start
    report(
        "1 (closed-form optimal fidelity)",
        residual < 1e-9 and elapsed < 10.0,
        f"worst residual {residual:.2e} over d=2,3,4; {elapsed:.2f}s",
    )


def test_criterion_2_optimizer_reproduces_cloning_bound():
    gaps = []
    slowest = 0.0
    for d in (2, 3):
        start = time.perf_counter()
        result = solve(build_problem(d, "clone"), tol=1e-8)
        slowest = max(slowest, time.perf_counter() - start)
        gaps.append(abs(result.optimal_value - analytic_bound(d)))
    gap = worst(gaps)
    report(
        "2 (optimizer reproduces cloning optimum)",
        gap < 1e-6 and slowest < 60.0,
        f"worst gap {gap:.2e} at d=2,3; slowest instance {slowest:.2f}s",
    )


def test_criterion_3_learning_values():
    expected = {2: 5 / 16, 3: 6 / 81, 4: 6 / 256}
    gaps = []
    slowest = 0.0
    for d, ref in expected.items():
        start = time.perf_counter()
        result = solve(build_problem(d, "learn"), tol=1e-8)
        slowest = max(slowest, time.perf_counter() - start)
        gaps.append(abs(result.optimal_value - ref))
        gaps.append(abs(result.optimal_value - f_estimation(d)))
    gap = worst(gaps)
    report(
        "3 (learning optimum equals estimation values)",
        gap < 1e-6 and slowest < 60.0,
        f"worst gap {gap:.2e} over d=2,3,4; slowest instance {slowest:.2f}s",
    )


def test_criterion_4_decohered_equals_random_guess():
    residuals = []
    exact_match = True
    for d in (2, 3, 4):
        u = sample_haar_unitary(d, SeededRng(10 + d))
        fid = channel_fidelity_with_double_unitary(decohered_cloner_channel(u), u)
        residuals.append(abs(fid - 1.0 / d**2))
        exact_match &= (f_random(d) == 1.0 / d**2)
    residual = worst(residuals)
    report(
        "4 (decohered fidelity = 1/d^2 = random guess)",
        residual < 1e-9 and exact_match,
        f"worst residual {residual:.2e}; closed forms identical: {exact_match}",
    )


def test_criterion_5_comb_calculus_consistency():
    choi_deltas, norms, covs = [], [], []
    for d in (2, 3):
        net = choi_r1_of_cloner(d)
        for u in haar_unitaries(d, 20, SeededRng(20 + d)):
            delta = max_abs(insert_gate(net, u).choi - cloner_channel_closed_form(u).choi)
            choi_deltas.append(delta)
        norms.extend(net.normalization_residuals())
        covs.append(verify_covariance(net.choi, d, trials=5))
    worst_choi, worst_norm, worst_cov = worst(choi_deltas), worst(norms), worst(covs)
    report(
        "5 (comb calculus consistency)",
        worst((worst_choi, worst_norm, worst_cov)) < 1e-9,
        f"insertion {worst_choi:.2e}, normalization {worst_norm:.2e}, "
        f"covariance {worst_cov:.2e}",
    )


def test_criterion_6_state_cloner_reduction():
    reductions = []
    for d in (2, 3):
        p_plus, _ = sym_antisym_projectors(d)
        d_plus = sector_dims(d)["+"]
        gen = SeededRng(30 + d).generator()
        for _ in range(5):
            psi = gen.standard_normal(d) + 1j * gen.standard_normal(d)
            psi /= np.linalg.norm(psi)
            proj = np.outer(psi, psi.conj())
            out = apply_channel(post_channel_b(d), np.kron(proj, np.diag([1.0, 0.0])))
            ref = d / d_plus * (p_plus @ np.kron(proj, np.eye(d)) @ p_plus)
            reductions.append(max_abs(out - ref))
    worst_red = worst(reductions)
    # single-clone fidelity at d = 2 against the direct-evaluation oracle
    gen = SeededRng(33).generator()
    psi = gen.standard_normal(2) + 1j * gen.standard_normal(2)
    psi /= np.linalg.norm(psi)
    proj = np.outer(psi, psi.conj())
    p_plus, _ = sym_antisym_projectors(2)
    oracle = (2.0 / 3.0) * (p_plus @ np.kron(proj, np.eye(2)) @ p_plus)
    oracle_fid = float(np.real(psi.conj() @ partial_trace(oracle, [2, 2], [0]) @ psi))
    out = apply_channel(post_channel_b(2), np.kron(proj, np.diag([1.0, 0.0])))
    fid = float(np.real(psi.conj() @ partial_trace(out, [2, 2], [0]) @ psi))
    ok = worst_red < 1e-10 and abs(fid - 5 / 6) < 1e-9 and abs(oracle_fid - fid) < 1e-12
    report(
        "6 (state-cloner reduction)",
        ok,
        f"reduction residual {worst_red:.2e}; single-clone fidelity {fid:.10f} vs 5/6",
    )


def test_criterion_7_no_cloning_arithmetic():
    points = no_cloning_fixed_points(1001)
    perm = permutation_discrimination(3)
    ok = points == [0.0, 0.5] and perm == (3, False) and perm[0] < 6
    report(
        "7 (no-cloning arithmetic)",
        ok,
        f"fixed points {points}; 3-letter permutations distinguishable {perm[0]} of 6",
    )


def test_criterion_8_protocol_statistics():
    bases = build_bases()
    honest = run_exact("none", bases)
    ok_honest = honest.symbol_error_rate == 0.0 and honest.sift_rate == 0.5

    mu_devs = []
    for i in range(10):
        v = next(iter(haar_unitaries(2, 1, SeededRng(800 + i))))
        seed_state = np.kron(np.eye(2), v) @ np.eye(2).reshape(-1) / np.sqrt(2)
        b2 = build_bases(seed_state)
        mu_devs.append(max_abs(mutual_unbiasedness_matrix(b2) - 0.25))
    worst_mu = worst(mu_devs)

    intercept = run_exact("intercept_resend", bases)
    ok_intercept = intercept.symbol_error_rate == 0.375

    rounds = 100_000
    sampled = run_sampled("intercept_resend", bases, rounds, SeededRng(81))
    sigma = np.sqrt(0.375 * 0.625 / (rounds * sampled.sift_rate))
    ok_sampled = abs(sampled.symbol_error_rate - 0.375) < 4 * sigma

    clone = run_exact("clone_attack", bases)
    ok_clone = (
        abs(clone.symbol_error_rate - CLONE_ATTACK_SYMBOL_ERROR) < 1e-9
        and abs(clone.eve_guess_prob - CLONE_ATTACK_EVE_GUESS) < 1e-9
        and clone.symbol_error_rate < 0.375
        and clone.eve_guess_prob > 0.25
    )
    report(
        "8 (protocol statistics)",
        ok_honest and worst_mu < 1e-12 and ok_intercept and ok_sampled and ok_clone,
        f"honest ser {honest.symbol_error_rate}, MU dev {worst_mu:.1e}, "
        f"intercept {intercept.symbol_error_rate}, sampled dev "
        f"{abs(sampled.symbol_error_rate - 0.375):.2e}, clone "
        f"({clone.symbol_error_rate:.6f}, {clone.eve_guess_prob:.6f})",
    )


def test_criterion_9_full_suite_runtime(capsys):
    start = time.perf_counter()
    code1 = main(["full-suite", "--quick", "--json", "--seed", "0"])
    out1 = capsys.readouterr().out
    quick_time = time.perf_counter() - start
    code2 = main(["full-suite", "--quick", "--json", "--seed", "0"])
    out2 = capsys.readouterr().out
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("elapsed_seconds")
    doc2.pop("elapsed_seconds")
    deterministic = doc1 == doc2

    start = time.perf_counter()
    code3 = main(["full-suite", "--json", "--seed", "0"])
    capsys.readouterr()
    full_time = time.perf_counter() - start
    ok = (code1 == code2 == code3 == 0 and quick_time < 30.0
          and full_time < 300.0 and deterministic)
    report(
        "9 (full suite runtime and determinism)",
        ok,
        f"quick {quick_time:.1f}s (< 30s), full {full_time:.1f}s (< 300s), "
        f"deterministic: {deterministic}",
    )
