import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from clonelab.channels import CombNetwork, comb_fidelity_functional, comb_fidelity_functional_batch
from clonelab.cloner import (choi_r1_of_cloner, choi_r1_of_decohered_cloner, closed_form_fidelity,
                            first_factor_network)
from clonelab.haar import SeededRng, sample_haar_unitary
from clonelab import irreps
from clonelab.irreps import (
    MU_LABELS,
    IrrepBlocks,
    NotCovariantError,
    block_fidelity,
    block_keys,
    blocks_from_choi,
    build_irrep_table,
    covariance_group_element,
    irrep_dims,
    require_covariant,
    sector_dims,
    sym_antisym_projectors,
    terms_from_blocks,
    twirl,
    valid_sectors,
    verify_covariance,
)
from clonelab.linalg import (ATOL_COVARIANCE, DimensionMismatchError, dagger, max_abs, psd_residual,
                             tensor, worst)


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


def reference_choi_from_blocks(blocks, table):
    """The dense sum r T^mu_ij (x) T~^nu_kl, one Kronecker product per block
    entry: the reassembly that ``terms_from_blocks`` replaced."""
    d = table.d
    out = np.zeros((d**6, d**6), dtype=complex)
    for (mu, nu), labels in blocks.rows.items():
        b = blocks.blocks[(mu, nu)]
        for a, (i, k) in enumerate(labels):
            for c, (j, l) in enumerate(labels):
                out += b[a, c] * np.kron(table.intertwiners[(mu, i, j)],
                                         table.intertwiners_conj_first[(nu, k, l)])
    return out


def reference_realigned_blocks(choi, table):
    """The blocks as one product over the whole realigned operator
    M[(r1 c1), (r2 c2)] = R[(r1 r2), (c1 c2)] and the stacked intertwiners:
    the route that the gather on the covariant support replaced."""
    d = table.d
    n3 = d**3
    realigned = choi.reshape(n3, n3, n3, n3).transpose(0, 2, 1, 3).reshape(n3 * n3, n3 * n3)
    keys = list(table.intertwiners)
    tx = np.array([table.intertwiners[key] for key in keys]).reshape(len(keys), -1).conj()
    ty = np.array([table.intertwiners_conj_first[key] for key in keys]).reshape(len(keys), -1).conj()
    coeffs = tx @ realigned @ ty.T
    norms = np.array([irrep_dims(d)[mu] for mu, _, _ in keys], dtype=float)
    coeffs /= np.outer(norms, norms)
    pos = {key: n for n, key in enumerate(keys)}
    return {(mu, nu): np.array([[coeffs[pos[(mu, i, j)], pos[(nu, k, l)]] for j, l in labels]
                                for i, k in labels])
            for (mu, nu), labels in block_keys(d)}


def reference_twirl_residual(choi, table):
    """||R - Pi(R)||_F with Pi(R) the dense reassembly of the realigned
    blocks: neither the gathered support nor the slab pass of ``twirl``."""
    d = table.d
    blocks = IrrepBlocks(d=d, blocks=reference_realigned_blocks(choi, table))
    return float(np.linalg.norm(choi - reference_choi_from_blocks(blocks, table)))


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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_intertwiners_commute_with_triple_action(d):
    # the premise of the twirl: every product T (x) T~ is itself covariant, so
    # a table that missed part of the commutant could only make a covariant
    # operator fail, never pass a non-covariant one
    table = build_irrep_table(d)
    rng = SeededRng(20)
    for trial in range(3):
        v = sample_haar_unitary(d, rng.substream(trial))
        g3 = tensor(v, v, v.conj())
        g3_conj_first = tensor(v.conj(), v, v)
        for key, t in table.intertwiners.items():
            assert max_abs(g3 @ t - t @ g3) < 1e-12
            t_conj_first = table.intertwiners_conj_first[key]
            assert max_abs(g3_conj_first @ t_conj_first - t_conj_first @ g3_conj_first) < 1e-12


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


@pytest.mark.parametrize("check", [
    lambda op: comb_fidelity_functional(op, np.eye(2), 2),
    lambda op: comb_fidelity_functional_batch(op, np.eye(2)[None], 2),
    lambda op: verify_covariance(op, 2),
    lambda op: blocks_from_choi(op, build_irrep_table(2)),
    lambda op: twirl(op, build_irrep_table(2)),
], ids=["comb_fidelity_functional", "comb_fidelity_functional_batch", "verify_covariance",
        "blocks_from_choi", "twirl"])
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
    choi = CombNetwork(d=d, terms=terms_from_blocks(blocks, table)).choi
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
    back = CombNetwork(d=2, terms=terms_from_blocks(blocks_from_choi(r1, table), table)).choi
    assert max_abs(back - r1) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_block_fidelity_matches_direct_functional(d):
    table = build_irrep_table(d)
    rng = SeededRng(40 + d)
    for trial in range(10):
        blocks = _random_covariant_blocks(d, table, rng.substream(trial))
        choi = CombNetwork(d=d, terms=terms_from_blocks(blocks, table)).choi
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
    operators = [choi_r1_of_cloner(d).choi, choi_r1_of_decohered_cloner(d).choi,
                 first_factor_network(d).choi, non_covariant]
    for op in operators:
        blocks, _ = twirl(op, table)  # no guard: the non-covariant operator is projected too
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


def _combs(d):
    return [choi_r1_of_cloner(d), choi_r1_of_decohered_cloner(d), first_factor_network(d)]


def test_require_covariant_is_the_one_guard():
    require_covariant(ATOL_COVARIANCE)
    for residual in (2e-9, np.inf, np.nan):
        with pytest.raises(NotCovariantError) as err:
            require_covariant(residual)
        assert err.value.residual == residual or np.isnan(err.value.residual)


@pytest.mark.parametrize("d", [2, 3])
def test_twirl_agrees_with_verify_covariance_on_covariant_combs(d):
    table = build_irrep_table(d)
    for net in _combs(d):
        assert twirl(net, table)[1] <= 1e-12
        assert twirl(net.choi, table)[1] <= 1e-12
        assert verify_covariance(net.choi, d, trials=3) <= 1e-12


def _kick(d, where, kind, eps):
    """(row, column, value) entries of a one-entry-pair kick of size eps.

    ``where``: the entries differ in factor 3E only, in factor 0B only, or not
    at all (a diagonal kick).  ``kind``: Hermitian or anti-Hermitian.
    """
    p, q = {"3E": (0, 1), "0B": (0, d**5), "diag": (d + 1, d + 1)}[where]
    if p == q:
        return [(p, p, eps if kind == "hermitian" else 1j * eps)]
    return [(p, q, eps), (q, p, eps if kind == "hermitian" else -eps)]


@pytest.mark.parametrize("where", ["3E", "0B", "diag"])
@pytest.mark.parametrize("kind", ["hermitian", "anti_hermitian"])
@pytest.mark.parametrize("d", [2, 3])
def test_twirl_reads_a_kick(d, kind, where):
    eps = 1e-7
    table = build_irrep_table(d)
    bad = choi_r1_of_cloner(d).choi.copy()
    for p, q, value in _kick(d, where, kind, eps):
        bad[p, q] += value
    residual = twirl(bad, table)[1]
    assert residual > ATOL_COVARIANCE
    assert verify_covariance(bad, d, trials=3) > ATOL_COVARIANCE
    assert abs(residual - reference_twirl_residual(bad, table)) <= 1e-12
    if where == "diag":
        # a diagonal kick has a covariant part c eps, which the distance leaves
        # out: it reads sqrt(1 - c) eps, with c = 1/16 at d = 2 and 1/150 at d = 3
        assert 0.9 * eps < residual < eps
    else:
        # two entries of size eps, each off the covariant operators
        assert abs(residual - np.sqrt(2) * eps) <= 0.01 * eps


@pytest.mark.parametrize("d", [2, 3])
def test_twirl_on_terms_matches_linked_operator(d):
    table = build_irrep_table(d)
    gen = np.random.default_rng(70 + d)
    shape = (3, d**3, d**3)
    a, b = (gen.standard_normal((2,) + shape) + 1j * gen.standard_normal((2,) + shape))
    for net in _combs(d) + [CombNetwork(d=d, terms=(a, b))]:
        blocks, residual = twirl(net, table)
        assert net._choi is None  # the term twirl links no dense operator
        dense_blocks, dense_residual = twirl(net.choi, table)
        assert abs(residual - dense_residual) <= 1e-12 * max(1.0, dense_residual)
        for key, block in dense_blocks.blocks.items():
            assert max_abs(blocks.blocks[key] - block) <= 1e-12
    assert residual > 1.0  # the random terms are far from covariant


def test_twirl_d4_on_terms():
    table = build_irrep_table(4)
    net = choi_r1_of_cloner(4)
    tracemalloc.start()
    try:
        blocks, residual = twirl(net, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net._choi is None
    assert peak <= 4 * 2**20  # the dense operator is 256 MiB
    assert residual <= 1e-12
    assert abs(block_fidelity(blocks, table) - closed_form_fidelity(4)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_terms_from_blocks_matches_dense_reassembly(d):
    table = build_irrep_table(d)
    gen = np.random.default_rng(60 + d)
    blocks = IrrepBlocks(d=d, blocks={
        key: gen.standard_normal((len(rows),) * 2) + 1j * gen.standard_normal((len(rows),) * 2)
        for key, rows in block_keys(d)})
    a, b = terms_from_blocks(blocks, table)
    assert len(a) == len(b) == (5 if d == 2 else 6)
    linked = CombNetwork(d=d, terms=(a, b)).choi
    assert max_abs(linked - reference_choi_from_blocks(blocks, table)) <= 1e-12


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([2, 3]), data=st.data())
def test_projection_is_idempotent(d, data):
    # Pi(Pi(R)) = Pi(R): the twirl of a covariant operator built from blocks
    # gives the blocks back, at zero distance
    table = build_irrep_table(d)
    blocks = {}
    for key, rows in block_keys(d):
        g = data.draw(arrays(np.float64, (2, len(rows), len(rows)), elements=st.floats(-1.0, 1.0)))
        g = g[0] + 1j * g[1]
        blocks[key] = g @ g.conj().T
    back, residual = twirl(CombNetwork(d=d, terms=terms_from_blocks(
        IrrepBlocks(d=d, blocks=blocks), table)), table)
    assert residual <= 1e-12
    for key, block in blocks.items():
        assert max_abs(back.blocks[key] - block) <= 1e-12


def _realigned_index(s1, s2, d):
    """Dense (row, column) positions of the realigned entries M[s1, s2]."""
    n3 = d**3
    (r1, c1), (r2, c2) = np.divmod(s1, n3), np.divmod(s2, n3)
    return (r1 * n3 + r2), (c1 * n3 + c2)


@pytest.mark.parametrize("d,count", [(2, 20), (3, 93), (4, 256)])
def test_covariant_support(d, count):
    # the premise of the gather: every T_x (x) T~_y vanishes off s1 x s2
    table = build_irrep_table(d)
    first, second = irreps._stacks(table)
    s1, s2 = irreps._support(first), irreps._support(second)
    assert len(s1) == len(s2) == count
    if d == 4:
        return  # each 4096 x 4096 Kronecker product would take 256 MiB
    rows, cols = _realigned_index(s1[:, None], s2, d)
    for tx in first:
        for ty in second:
            op = np.kron(tx, ty)
            on = op[rows, cols]
            assert max_abs(on - np.outer(tx.reshape(-1)[s1], ty.reshape(-1)[s2])) == 0.0
            assert np.vdot(on, on).real == pytest.approx(np.vdot(op, op).real, rel=1e-15)


def _kicked_terms(net, eps):
    """The term network plus E_00 (x) eps (E_01 + E_10), as the CLI's corruption hook."""
    a, b = net.terms
    extra_a = np.zeros((1,) + a.shape[1:], dtype=complex)
    extra_b = np.zeros_like(extra_a)
    extra_a[0, 0, 0] = 1.0
    extra_b[0, 0, 1] = extra_b[0, 1, 0] = eps
    return CombNetwork(d=net.d, terms=(np.concatenate([a, extra_a]),
                                       np.concatenate([b, extra_b])))


@pytest.mark.parametrize("d", [2, 3])
def test_twirl_blocks_match_realigned_product(d):
    table = build_irrep_table(d)
    gen = np.random.default_rng(110 + d)
    non_covariant = gen.standard_normal((d**6, d**6)) + 1j * gen.standard_normal((d**6, d**6))
    for op in [net.choi for net in _combs(d)] + [non_covariant]:
        blocks, _ = twirl(op, table)
        for key, block in reference_realigned_blocks(op, table).items():
            assert max_abs(blocks.blocks[key] - block) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_twirl_residual_is_the_frobenius_distance(d):
    table = build_irrep_table(d)
    gen = np.random.default_rng(120 + d)
    shape = (2, d**3, d**3)
    random = CombNetwork(d=d, terms=tuple(gen.standard_normal((2,) + shape)
                                          + 1j * gen.standard_normal((2,) + shape)))
    clean = _combs(d)
    for net in clean + [_kicked_terms(clean[0], 1e-7), _kicked_terms(clean[2], 1e-3), random]:
        dense = net.choi
        reference = reference_twirl_residual(dense, table)
        scale = np.linalg.norm(dense)
        for comb in (CombNetwork(d=d, terms=net.terms), dense):
            assert abs(twirl(comb, table)[1] - reference) <= 1e-12 * scale


@pytest.mark.parametrize("eps", [0.0, 1e-7])
def test_twirl_d4_qr_matches_slab_sum(eps):
    # on terms at d = 4 the residual is the QR closed form; here it is summed
    # from the row slabs of R - Pi(R) instead
    d, n3 = 4, 64
    table = build_irrep_table(d)
    net = _kicked_terms(choi_r1_of_cloner(d), eps)
    blocks, residual = twirl(net, table)
    pa, pb = terms_from_blocks(blocks, table)
    a, b = np.concatenate([net.terms[0], pa]), np.concatenate([net.terms[1], -pb])
    total = norm2 = 0.0
    for r1 in range(n3):
        slab = np.matmul(a[:, r1].T, b.transpose(1, 0, 2))  # (R - Pi(R))[r1] as [r2, c1, c2]
        total += np.vdot(slab, slab).real
        full = np.matmul(net.terms[0][:, r1].T, net.terms[1].transpose(1, 0, 2))
        norm2 += np.vdot(full, full).real
    assert abs(residual - np.sqrt(total)) <= 1e-12 * np.sqrt(norm2)
    if eps:
        assert abs(residual - np.sqrt(2) * eps) <= 0.01 * eps


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("on_support", [True, False])
@pytest.mark.parametrize("form", ["dense", "terms"])
def test_twirl_non_finite_entry_is_not_covariant(form, on_support, value):
    d = 2
    table = build_irrep_table(d)
    first, second = irreps._stacks(table)
    s1, s2 = irreps._support(first), irreps._support(second)
    off1 = np.setdiff1d(np.arange(d**6), s1)
    off2 = np.setdiff1d(np.arange(d**6), s2)
    p1, p2 = (s1[3], s2[5]) if on_support else (off1[3], off2[5])
    net = choi_r1_of_cloner(d)
    if form == "dense":
        bad = net.choi.copy()
        row, col = _realigned_index(p1, p2, d)
        bad[row, col] = value
    else:
        a, b = (p.copy() for p in net.terms)
        a.reshape(len(a), -1)[0, p1] = value
        bad = CombNetwork(d=d, terms=(a, b))
    with pytest.raises(NotCovariantError) as err:
        blocks_from_choi(bad, table)
    assert not np.isfinite(err.value.residual)


def test_dense_twirl_memory_below_two_mib():
    # the d = 3 operator is 8.5 MB; the twirl gathers 93 x 93 of its entries
    # and passes over it one 315 KB row slab at a time
    table = build_irrep_table(3)
    op = choi_r1_of_cloner(3).choi
    tracemalloc.start()
    try:
        _, residual = twirl(op, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak < 2 * 2**20
