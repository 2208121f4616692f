import tracemalloc

import numpy as np
import pytest

from clonelab import irreps
from clonelab.channels import comb_fidelity_functional, comb_fidelity_functional_batch
from clonelab.cloner import (choi_r1_of_cloner, choi_r1_of_decohered_cloner, closed_form_fidelity,
                            first_factor_network)
from clonelab.haar import SeededRng, sample_haar_unitary
from clonelab.irreps import (
    MU_LABELS,
    IrrepBlocks,
    NotCovariantError,
    block_fidelity,
    block_keys,
    blocks_from_choi,
    build_irrep_table,
    choi_from_blocks,
    covariance_group_element,
    irrep_dims,
    sector_dims,
    sym_antisym_projectors,
    valid_sectors,
    verify_covariance,
)
from clonelab.linalg import DimensionMismatchError, dagger, max_abs, psd_residual, tensor, worst


def reference_blocks_from_choi(choi, table):
    """Block extraction by one 12-index contraction per entry, without the
    covariance guard: the loop the realigned products replaced."""
    d = table.d
    r12 = choi.reshape([d] * 12)
    dims = irrep_dims(d)
    blocks = {}
    for (mu, nu), labels in block_keys(d):
        n = len(labels)
        b = np.zeros((n, n), dtype=complex)
        norm = dims[mu] * dims[nu]
        for a, (i, k) in enumerate(labels):
            for c, (j, l) in enumerate(labels):
                tm = table.intertwiners[(mu, j, i)].reshape([d] * 6)
                tn = table.intertwiners_conj_first[(nu, l, k)].reshape([d] * 6)
                val = np.einsum("abcdef,ghijkl,defjklabcghi->", tm, tn, r12, optimize=True)
                b[a, c] = val / norm
        blocks[(mu, nu)] = b
    return blocks


def reference_verify_covariance(m, d, trials=10, rng=None):
    """The dense commutator over the built group element, which the factored
    residual replaced, kept as its oracle."""
    rng = rng or SeededRng(0)
    residuals = []
    for i in range(trials):
        v = sample_haar_unitary(d, rng.substream(2 * i))
        w = sample_haar_unitary(d, rng.substream(2 * i + 1))
        g = covariance_group_element(d, v, w)
        residuals.append(max_abs(m @ g - g @ m))
    return float(np.max(residuals))


def reference_verify_covariance_by_row_slab(m, d, trials=10, rng=None):
    """The factored commutator that computed each row slab of g m as
    A[r1] Z, reading all of Z = (I (x) B) m once per slab, which the in-place
    A (x) I pass replaced, kept as its oracle."""
    rng = rng or SeededRng(0)
    n3 = d**3
    m4 = m.reshape(n3, n3, n3, n3)
    z = np.empty((n3, n3, n3 * n3), dtype=complex)
    z_rows = z.reshape(n3, -1)
    residuals = []
    for i in range(trials):
        v = sample_haar_unitary(d, rng.substream(2 * i))
        w = sample_haar_unitary(d, rng.substream(2 * i + 1))
        a = tensor(v, v, v.conj())
        b = tensor(w.conj(), w, w)
        np.matmul(b, m4.reshape(n3, n3, n3 * n3), out=z)
        for r1 in range(n3):
            mg = np.matmul(a.T, m4[r1] @ b)
            gm = (a[r1] @ z_rows).reshape(n3, n3, n3)
            residuals.append(max_abs(mg - gm))
    return worst(residuals)


@pytest.mark.parametrize("d,ranks", [(2, (3, 1)), (3, (6, 3)), (4, (10, 6))])
def test_sector_projector_ranks(d, ranks):
    p_plus, p_minus = sym_antisym_projectors(d)
    assert round(np.trace(p_plus).real) == ranks[0]
    assert round(np.trace(p_minus).real) == ranks[1]
    assert max_abs(p_plus + p_minus - np.eye(d * d)) < 1e-14
    assert max_abs(p_plus @ p_minus) < 1e-14
    for p in (p_plus, p_minus):
        assert max_abs(p @ p - p) < 1e-14


@pytest.mark.parametrize("d,expected", [
    (2, {"alpha": 2, "beta": 4, "gamma": 0}),
    (3, {"alpha": 3, "beta": 15, "gamma": 6}),
    (4, {"alpha": 4, "beta": 36, "gamma": 20}),
])
def test_irrep_dimension_table(d, expected):
    assert irrep_dims(d) == expected
    sec = sector_dims(d)
    # completeness: each sector space decomposes exactly
    assert expected["alpha"] + expected["beta"] == sec["+"] * d
    assert expected["alpha"] + expected["gamma"] == sec["-"] * d


@pytest.mark.parametrize("d", [2, 3, 4])
def test_projector_ranks_match_dimensions(d):
    # the diagonal intertwiners T^mu_ii are the irrep projectors
    table = build_irrep_table(d)
    projectors = [(mu, t) for (mu, i, j), t in table.intertwiners.items() if i == j]
    assert len(projectors) == sum(len(valid_sectors(mu, d)) for mu in MU_LABELS)
    for mu, proj in projectors:
        assert max_abs(proj @ proj - proj) < 1e-12
        assert round(np.trace(proj).real) == irrep_dims(d)[mu]
    total = sum(proj for _, proj in projectors)
    assert max_abs(total - np.eye(d**3)) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_intertwiner_composition_and_adjoint(d):
    table = build_irrep_table(d)
    t = table.intertwiners
    for i in "+-":
        for j in "+-":
            assert max_abs(dagger(t[("alpha", i, j)]) - t[("alpha", j, i)]) < 1e-12
            for k in "+-":
                comp = t[("alpha", i, j)] @ t[("alpha", j, k)]
                assert max_abs(comp - t[("alpha", i, k)]) < 1e-9
    if d == 2:
        assert ("gamma", "-", "-") not in t
        assert all(key[0] != "gamma" for key in block_keys(2)[0][1]) or True
        assert [k for k, _ in block_keys(2)] == [
            ("alpha", "alpha"), ("alpha", "beta"), ("beta", "alpha"), ("beta", "beta"),
        ]


@pytest.mark.parametrize("d", [2, 3])
def test_intertwiners_commute_with_triple_action(d):
    table = build_irrep_table(d)
    rng = SeededRng(20)
    for trial in range(3):
        v = sample_haar_unitary(d, rng.substream(trial))
        g3 = tensor(v, v, v.conj())
        for t in table.intertwiners.values():
            assert max_abs(g3 @ t - t @ g3) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_group_action_preserves_blocks(d):
    # no leakage between inequivalent irreps under the triple action
    table = build_irrep_table(d)
    rng = SeededRng(21)
    labels = [(mu, s) for mu in ("alpha", "beta", "gamma") for s in valid_sectors(mu, d)]
    t = table.intertwiners
    for trial in range(10):
        v = sample_haar_unitary(d, rng.substream(trial))
        g3 = tensor(v, v, v.conj())
        for mu, s1 in labels:
            for nu, s2 in labels:
                if mu == nu:
                    continue
                cross = t[(mu, s1, s1)] @ g3 @ t[(nu, s2, s2)]
                assert max_abs(cross) < 1e-9


def test_verify_covariance_accepts_cloner_and_baseline():
    assert verify_covariance(choi_r1_of_cloner(2).choi, 2, trials=5) < 1e-9
    assert verify_covariance(first_factor_network(2).choi, 2, trials=5) < 1e-9


def test_verify_covariance_detects_asymmetric_perturbation():
    bad = choi_r1_of_cloner(2).choi.copy()
    bad[0, 1] += 1e-2
    bad[1, 0] += 1e-2
    assert verify_covariance(bad, 2, trials=5) > 1e-4


def test_blocks_from_choi_rejects_non_covariant():
    bad = choi_r1_of_cloner(2).choi.copy()
    bad[0, 1] += 1e-2
    bad[1, 0] += 1e-2
    table = build_irrep_table(2)
    with pytest.raises(NotCovariantError) as err:
        blocks_from_choi(bad, table)
    assert err.value.residual > 1e-4


def test_blocks_from_choi_rejects_covariance_residual_between_1e9_and_1e8():
    # the guard used to accept up to 1e-8, while the CLI's copy of it raised
    # at 1e-9; both now read ATOL_COVARIANCE = 1e-9
    bad = choi_r1_of_cloner(2).choi.copy()
    bad[0, 1] += 4e-9
    bad[1, 0] += 4e-9
    with pytest.raises(NotCovariantError) as err:
        blocks_from_choi(bad, build_irrep_table(2))
    assert 1e-9 < err.value.residual < 1e-8


def test_blocks_from_choi_rejects_nan_operator():
    bad = choi_r1_of_cloner(2).choi.copy()
    bad[0, 1] = np.nan
    with pytest.raises(NotCovariantError) as err:
        blocks_from_choi(bad, build_irrep_table(2))
    assert np.isnan(err.value.residual)


def test_blocks_from_choi_guards_a_given_covariance_residual(monkeypatch):
    # a caller that has computed the residual hands it over; the one guard
    # still decides, and the commutator test does not run a second time
    table = build_irrep_table(2)
    choi = choi_r1_of_cloner(2).choi
    expected = blocks_from_choi(choi, table)

    def no_second_test(*args, **kwargs):
        raise AssertionError("covariance evaluated twice")

    monkeypatch.setattr(irreps, "verify_covariance", no_second_test)
    given = blocks_from_choi(choi, table, covariance=1e-16)
    assert all(max_abs(given.blocks[k] - expected.blocks[k]) == 0.0 for k in expected.blocks)
    for residual in (2e-9, np.nan):
        with pytest.raises(NotCovariantError) as err:
            blocks_from_choi(choi, table, covariance=residual)
        assert err.value.residual == residual or np.isnan(err.value.residual)
    with pytest.raises(DimensionMismatchError):
        blocks_from_choi(np.eye(10), table, covariance=0.0)


@pytest.mark.parametrize("check", [
    lambda op: comb_fidelity_functional(op, np.eye(2), 2),
    lambda op: comb_fidelity_functional_batch(op, np.eye(2)[None], 2),
    lambda op: verify_covariance(op, 2),
    lambda op: blocks_from_choi(op, build_irrep_table(2)),
], ids=["comb_fidelity_functional", "comb_fidelity_functional_batch", "verify_covariance",
        "blocks_from_choi"])
def test_wrong_size_operator_is_a_dimension_mismatch(check):
    with pytest.raises(DimensionMismatchError):
        check(np.eye(10))


def test_optimal_cloner_blocks_saturate_bound_structure():
    # only the alpha-sector entries with paired signs survive, with the
    # saturating values sqrt(d_i d_j) / d
    d = 2
    table = build_irrep_table(d)
    blocks = blocks_from_choi(choi_r1_of_cloner(d).choi, table)
    sec = sector_dims(d)
    for (i, di) in sec.items():
        for (j, dj) in sec.items():
            val = blocks.entry("alpha", "alpha", (i, i), (j, j))
            assert abs(val - np.sqrt(di * dj) / d) < 1e-12
    for key, mat in blocks.blocks.items():
        rows = blocks.rows[key]
        for a, ik in enumerate(rows):
            for b, jl in enumerate(rows):
                if key == ("alpha", "alpha") and ik[0] == ik[1] and jl[0] == jl[1]:
                    continue
                assert abs(mat[a, b]) < 1e-12


def _random_covariant_blocks(d, table, rng):
    gen = rng.generator()
    blocks = {}
    for key, labels in block_keys(d):
        n = len(labels)
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        blocks[key] = g @ g.conj().T
    return IrrepBlocks(d=d, blocks=blocks)


@pytest.mark.parametrize("d", [2, 3])
def test_blocks_choi_roundtrip_on_random_covariant(d):
    table = build_irrep_table(d)
    blocks = _random_covariant_blocks(d, table, SeededRng(30 + d))
    choi = choi_from_blocks(blocks, table)
    assert max_abs(choi - dagger(choi)) < 1e-12
    assert verify_covariance(choi, d, trials=3) < 1e-9
    back = blocks_from_choi(choi, table)
    for key in blocks.blocks:
        assert max_abs(back.blocks[key] - blocks.blocks[key]) < 1e-8
    # PSD of the blocks carries over to the assembled operator
    assert worst(psd_residual(b, 1e-9) for b in blocks.blocks.values()) <= 1e-9
    assert np.linalg.eigvalsh(choi).min() > -1e-9


def test_roundtrip_on_cloner_comb():
    table = build_irrep_table(2)
    r1 = choi_r1_of_cloner(2).choi
    back = choi_from_blocks(blocks_from_choi(r1, table), table)
    assert max_abs(back - r1) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_block_fidelity_matches_direct_functional(d):
    table = build_irrep_table(d)
    rng = SeededRng(40 + d)
    for trial in range(10):
        blocks = _random_covariant_blocks(d, table, rng.substream(trial))
        choi = choi_from_blocks(blocks, table)
        f_blocks = block_fidelity(blocks, table)
        u = sample_haar_unitary(d, rng.substream(100 + trial))
        f_direct = comb_fidelity_functional(choi, u, d)
        assert abs(f_blocks - f_direct) < 1e-9 * max(1.0, abs(f_blocks))


def test_block_fidelity_of_cloner_comb():
    for d in (2, 3):
        table = build_irrep_table(d)
        blocks = blocks_from_choi(choi_r1_of_cloner(d).choi, table)
        assert abs(block_fidelity(blocks, table) - closed_form_fidelity(d)) < 1e-9


def test_covariance_group_element_shape():
    g = covariance_group_element(2, np.eye(2), np.eye(2))
    assert g.shape == (64, 64)
    assert max_abs(g - np.eye(64)) == 0.0


def test_build_irrep_table_rejects_unsupported_dimension():
    for bad in (1, 5):
        with pytest.raises(ValueError):
            build_irrep_table(bad)


@pytest.mark.parametrize("d", [2, 3])
def test_blocks_from_choi_matches_per_entry_reference(d):
    table = build_irrep_table(d)
    rng = np.random.default_rng(80 + d)
    non_covariant = rng.standard_normal((d**6, d**6)) + 1j * rng.standard_normal((d**6, d**6))
    operators = [(choi_r1_of_cloner(d).choi, 5), (choi_r1_of_decohered_cloner(d).choi, 5),
                 (first_factor_network(d).choi, 5), (non_covariant, 0)]
    for op, trials in operators:
        blocks = blocks_from_choi(op, table, trials=trials)
        ref = reference_blocks_from_choi(op, table)
        assert list(blocks.blocks) == list(ref)
        for key, block in ref.items():
            assert max_abs(blocks.blocks[key] - block) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_verify_covariance_matches_dense_reference(d):
    combs = [choi_r1_of_cloner(d).choi, choi_r1_of_decohered_cloner(d).choi,
             first_factor_network(d).choi]
    kicked = combs[0].copy()
    kicked[0, 1] += 1e-3
    kicked[1, 0] += 1e-3
    references = (reference_verify_covariance, reference_verify_covariance_by_row_slab)
    for op in combs + [kicked]:
        new = verify_covariance(op, d, trials=3, rng=SeededRng(90 + d))
        for reference in references:
            ref = reference(op, d, trials=3, rng=SeededRng(90 + d))
            assert abs(new - ref) <= 1e-12
    assert ref > 1e-4  # the kick is seen, on every path
    poisoned = combs[0].copy()
    poisoned[0, 1] = np.nan
    assert np.isnan(verify_covariance(poisoned, d, trials=2))
    for reference in references:
        assert np.isnan(reference(poisoned, d, trials=2))


def test_verify_covariance_transient_memory_below_one_and_a_half_operators():
    # the dense path built a d^6 x d^6 group element and two products per trial
    op = choi_r1_of_cloner(3).choi
    tracemalloc.start()
    try:
        verify_covariance(op, 3, trials=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * op.nbytes
