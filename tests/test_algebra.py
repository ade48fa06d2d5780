import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trocap import algebra as alg
from trocap import matcore as mc
from trocap.builders import (
    commutant_blocks,
    completely_dephasing_channel,
    cyclic_group,
    group_random_unitary,
    partial_trace_sum_channel,
    phi_alpha,
    qubit_dephasing,
    regular_representation,
    schur_multiplier_channel,
)
from trocap.channel import (
    StinespringSpace,
    apply,
    base_channel,
    complement_apply,
    from_kraus,
    modified_channel,
    stinespring_space,
    tensor_channels,
)
from trocap.entropy import entropy_defect
from trocap.errors import DimMismatch, NotIndependent, NotNormalized, NotTro
from trocap.verify import verify_local_comparison

from helpers import block_tro, hs_inner, mix, random_channel, random_unitary, star_algebra_loop, tro_subspace


def e(i, j, d=2):
    out = np.zeros((d, d), dtype=complex)
    out[i, j] = 1.0
    return out


Z = np.diag([1.0, -1.0]).astype(complex)


class TestGenerateStarAlgebra:
    def test_identity_generates_scalars(self):
        a = alg.generate_star_algebra([np.eye(3)])
        assert a.rank == 1 and a.unital

    def test_single_offdiagonal_generates_full_m2(self):
        # hand closure: e12 e12* = e11, e12* e12 = e22, e11 e12 = e12, adjoint e21
        a = alg.generate_star_algebra([e(0, 1)])
        assert a.rank == 4

    def test_z_generates_diagonals(self):
        a = alg.generate_star_algebra([Z])
        assert a.rank == 2
        for b in a.basis:
            assert np.max(np.abs(b - np.diag(np.diagonal(b)))) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        gens = [mc.random_complex(rng, (3, 3))]
        a = alg.generate_star_algebra(gens)
        b = alg.generate_star_algebra(a.basis)
        assert b.rank == a.rank
        for x in b.basis:
            assert alg.span_residual(x, a.basis) < 1e-9


def shift(k):
    """The cyclic shift |i> -> |i + 1 mod k>."""
    return np.roll(np.eye(k, dtype=complex), 1, axis=0)


def block_algebra_elements(rng, shapes, count=2):
    """`count` random elements of U ((+)_i M_{n_i} (x) 1_{l_i}) U*, shapes
    (n_i, l_i) and U Haar-random."""
    u = random_unitary(rng, sum(n * l for n, l in shapes))
    out = []
    for _ in range(count):
        x = np.zeros((len(u), len(u)), dtype=complex)
        edge = 0
        for n, l in shapes:
            x[edge : edge + n * l, edge : edge + n * l] = np.kron(mc.random_complex(rng, (n, n)), np.eye(l))
            edge += n * l
        out.append(u @ x @ mc.dagger(u))
    return out


STAR_FAMILIES = {
    "M3": (lambda: [mc.random_complex(np.random.default_rng(3), (3, 3))], 9, True),
    "M6": (lambda: [mc.random_complex(np.random.default_rng(6), (6, 6))], 36, True),
    "M2x1_2+M3": (lambda: block_algebra_elements(np.random.default_rng(1), [(2, 2), (3, 1)]), 13, True),
    "M3x1_2+M2x1_3+M1": (
        lambda: block_algebra_elements(np.random.default_rng(2), [(3, 2), (2, 3), (1, 1)]), 14, True
    ),
    "shift4": (lambda: [shift(4)], 4, True),
    "shift8": (lambda: [shift(8)], 8, True),
    "shift16": (lambda: [shift(16)], 16, True),
    "e11+0": (lambda: [e(0, 0, 3)], 1, False),
    "M2+0": (
        lambda: [np.pad(mc.random_complex(np.random.default_rng(5), (2, 2)), ((0, 1), (0, 1)))], 4, False
    ),
    "zero": (lambda: [np.zeros((3, 3))], 0, False),
}


def assert_matches_star_loop(got, gens):
    """Same rank and unital flag as the closure loop, and the same span."""
    ref = star_algebra_loop(gens)
    assert (got.rank, got.unital) == (ref.rank, ref.unital)
    for b in got.basis:
        assert alg.span_residual(b, ref.basis) < 1e-8


class TestGenerateStarAlgebraAgainstLoop:
    @pytest.mark.parametrize("name", sorted(STAR_FAMILIES))
    def test_matches_closure_loop(self, name):
        make, rank, unital = STAR_FAMILIES[name]
        gens = make()
        got = alg.generate_star_algebra(gens)
        assert (got.rank, got.unital) == (rank, unital)
        assert_matches_star_loop(got, gens)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_full_matrix_algebra_is_support_certified(self, monkeypatch, d):
        # a seeded generator of M_d closes to all of M_d, whose last span's one
        # attempt is certified from its support: the basis is the matrix units
        calls, real = [], alg._structure
        monkeypatch.setattr(alg, "_structure", lambda *a, **kw: calls.append(real(*a, **kw)) or calls[-1])
        attempts = record_attempts(monkeypatch)
        a = alg.generate_star_algebra([mc.random_complex(np.random.default_rng(d), (d, d))])
        assert [dim for dim, _ in attempts].count(d * d) == 1 and attempts[-1][0] == d * d
        assert_certified_full_space(attempts[-1][1], d, d)
        assert calls[0][2] == alg.TroCheck(True, None, 0.0)
        assert a.unital and np.array_equal(np.array(a.basis), np.eye(d * d).reshape(-1, d, d))

    def test_closes_through_the_triple_closure(self, monkeypatch):
        calls, real = [], alg._structure
        monkeypatch.setattr(alg, "_structure", lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        assert alg.generate_star_algebra([shift(4)]).rank == 4
        assert calls == [{"close": True}]


class TestAlgebraBlocks:
    """algebra_blocks reads the factors (n, l) off tro_block_decomposition's
    blocks (n, n, l) of the algebra's span."""

    @pytest.mark.parametrize(
        "make, factors",
        [
            (
                lambda: alg.orthonormal_span(
                    block_algebra_elements(np.random.default_rng(7), [(2, 2), (3, 1)], count=13)
                ),
                [(2, 2), (3, 1)],
            ),
            (
                lambda: alg.generate_star_algebra(STAR_FAMILIES["M3x1_2+M2x1_3+M1"][0]()).basis,
                [(1, 1), (2, 3), (3, 2)],
            ),
            (lambda: alg.generate_star_algebra([shift(8)]).basis, [(1, 1)] * 8),
        ],
        ids=["rotated M2x1_2+M3", "star M3x1_2+M2x1_3+M1", "star shift8"],
    )
    def test_factor_pairs_are_the_tro_blocks(self, make, factors):
        basis = make()
        blocks = alg.tro_block_decomposition(basis).blocks
        assert all(n == m for n, m, _ in blocks)
        assert alg.algebra_blocks(basis) == [(n, l) for n, _, l in blocks]
        assert sorted(alg.algebra_blocks(basis)) == factors


def count_attempts(monkeypatch):
    """List that grows by one entry, the span dimension, per block attempt."""
    spans, real_attempt = [], alg._attempt

    def counting_attempt(v, seed):
        spans.append(len(v))
        return real_attempt(v, seed)

    monkeypatch.setattr(alg, "_attempt", counting_attempt)
    return spans


def record_attempts(monkeypatch):
    """List that grows by one entry, (span dimension, result), per block attempt."""
    attempts, real_attempt = [], alg._attempt

    def recording_attempt(v, seed):
        attempts.append((len(v), real_attempt(v, seed)))
        return attempts[-1][1]

    monkeypatch.setattr(alg, "_attempt", recording_attempt)
    return attempts


def assert_certified_full_space(found, n, m):
    """found, a block attempt's result, is the support certificate of all of
    M_{n,m}: the one rectangle (n, m, 1), identity unitaries and distance 0."""
    decomp, eps = found
    assert decomp.blocks == ((n, m, 1),) and eps == 0.0
    assert np.array_equal(decomp.basis_change_out, np.eye(n)) and np.array_equal(decomp.basis_change_env, np.eye(m))


class TestLeftRightAlgebras:
    def test_left_algebra_of_a_tro_takes_one_attempt(self, monkeypatch):
        # the closure's certified block attempt gives the left algebra
        space = phi_alpha(0.0).space
        spans = count_attempts(monkeypatch)
        assert alg.left_algebra(space).rank == 3
        assert spans == [4]

    def test_dephasing_space_both_diagonal(self):
        space = stinespring_space(qubit_dephasing(0.0))
        left = alg.left_algebra(space)
        right = alg.right_algebra(space)
        assert left.rank == 2 and right.rank == 2
        for b in list(left.basis) + list(right.basis):
            assert np.max(np.abs(b - np.diag(np.diagonal(b)))) < 1e-10

    def test_phi_zero_left_and_right(self):
        # left algebra is three scalars, right is a 2x2 block plus two scalars
        space = phi_alpha(0.0).space
        assert alg.left_algebra(space).rank == 3
        assert alg.right_algebra(space).rank == 4 + 1 + 1

    def test_full_rectangle(self):
        rng = np.random.default_rng(1)
        mats = [mc.random_complex(rng, (2, 3)) for _ in range(6)]
        basis = alg.orthonormal_span(mats)
        space_like = [b for b in basis]
        lops = [x @ mc.dagger(y) for x in space_like for y in space_like]
        rops = [mc.dagger(x) @ y for x in space_like for y in space_like]
        assert alg.generate_star_algebra(lops).rank == 4
        assert alg.generate_star_algebra(rops).rank == 9


class TestIsTro:
    def test_diagonals_are_tro(self):
        mats = [e(i, i, 4) for i in range(4)]
        assert alg.is_tro(mats).ok

    def test_upper_triangular_counterexample(self):
        # e22 (e12)* e11 = e21 leaves the span
        check = alg.is_tro([e(0, 0), e(0, 1), e(1, 1)])
        assert not check.ok
        assert check.witness is not None
        assert check.residual == pytest.approx(1.0, abs=1e-9)

    def test_scaled_partial_isometry_line(self):
        v = np.zeros((2, 3), dtype=complex)
        v[0, 1] = 3.0
        assert alg.is_tro([v]).ok

    def test_witness_product_leaves_span(self):
        mats = [e(0, 0), e(0, 1), e(1, 1)]
        basis = alg.orthonormal_span(mats)
        check = alg.is_tro(mats)
        i, j, k = check.witness
        prod = basis[i] @ mc.dagger(basis[j]) @ basis[k]
        assert alg.span_residual(prod, basis) > 0.9

    def test_truth_value_is_the_decision(self):
        # a NamedTuple of three fields is always truthy; TroCheck's is its ok
        assert not bool(alg.is_tro([e(0, 0), e(0, 1), e(1, 1)]))
        assert bool(alg.is_tro([e(i, i, 4) for i in range(4)]))


class TestTroBlockDecomposition:
    def test_phi_zero_blocks(self):
        space = phi_alpha(0.0).space
        decomp = alg.tro_block_decomposition(space, seed=0)
        assert sorted(decomp.rect_blocks) == [(1, 1), (1, 1), (1, 2)]
        assert all(l == 1 for _, _, l in decomp.blocks)

    def test_diagonal_algebra(self):
        decomp = alg.tro_block_decomposition([e(i, i, 3) for i in range(3)], seed=0)
        assert sorted(decomp.rect_blocks) == [(1, 1)] * 3

    def test_full_rectangle_single_block(self):
        mats = [np.zeros((2, 3), dtype=complex) for _ in range(6)]
        for k, (i, j) in enumerate([(a, b) for a in range(2) for b in range(3)]):
            mats[k][i, j] = 1.0
        decomp = alg.tro_block_decomposition(mats, seed=1)
        assert decomp.blocks == ((2, 3, 1),)

    @pytest.mark.parametrize("shape_list", [[(2, 2), (3, 1)], [(1, 2), (2, 1), (2, 2)]])
    def test_unitary_disguise_recovery(self, shape_list):
        rng = np.random.default_rng(5)
        rows = sum(n for n, _ in shape_list)
        cols = sum(m for _, m in shape_list)
        mats = []
        ro = co = 0
        for n, m in shape_list:
            for i in range(n):
                for j in range(m):
                    x = np.zeros((rows, cols), dtype=complex)
                    x[ro + i, co + j] = 1.0
                    mats.append(x)
            ro += n
            co += m
        u = random_unitary(rng, rows)
        w = random_unitary(rng, cols)
        disguised = [u @ x @ mc.dagger(w) for x in mats]
        decomp = alg.tro_block_decomposition(disguised, seed=2)
        assert sorted(decomp.rect_blocks) == sorted(shape_list)

    def test_rectangle_support_after_conjugation(self):
        space = phi_alpha(0.0).space
        decomp = alg.tro_block_decomposition(space, seed=3)
        u, w = decomp.basis_change_out, decomp.basis_change_env
        row_edges = np.cumsum([0] + [n * l for n, _, l in decomp.blocks])
        col_edges = np.cumsum([0] + [m * l for _, m, l in decomp.blocks])
        for x in space.basis:
            y = mc.dagger(u) @ x @ w
            mask = np.ones(y.shape, dtype=bool)
            for i in range(len(decomp.blocks)):
                mask[row_edges[i] : row_edges[i + 1], col_edges[i] : col_edges[i + 1]] = False
            assert np.max(np.abs(y[mask])) < 1e-8

    def test_not_tro_raises(self):
        with pytest.raises(NotTro):
            alg.tro_block_decomposition([e(0, 0), e(0, 1), e(1, 1)], seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_not_tro_names_the_is_tro_witness(self, seed):
        # both check the same orthonormal basis of span(mats)
        mats = tro_family("upper_triangular", None, seed)
        check = alg.is_tro(mats)
        assert not check.ok
        with pytest.raises(NotTro, match=re.escape(f"witness {check.witness},")):
            alg.tro_block_decomposition(mats, seed=seed)

    def test_multiplicity_two(self):
        # M_{1,2} (x) 1_2, disguised: one block of shape (1, 2) with multiplicity 2
        rng = np.random.default_rng(6)
        mats = []
        for j in range(2):
            x = np.zeros((1, 2), dtype=complex)
            x[0, j] = 1.0
            mats.append(mc.tensor(x, np.eye(2)))
        u = random_unitary(rng, 2)
        w = random_unitary(rng, 4)
        decomp = alg.tro_block_decomposition([u @ x @ mc.dagger(w) for x in mats], seed=0)
        assert decomp.blocks == ((1, 2, 2),)


class TestConditionalExpectation:
    def test_diagonal_algebra_is_pinching(self):
        diag = alg.generate_star_algebra([e(i, i, 3) for i in range(3)])
        rng = np.random.default_rng(7)
        x = mc.random_complex(rng, (3, 3))
        out = alg.conditional_expectation(diag, x)
        assert np.allclose(out, np.diag(np.diagonal(x)))
        # trace identity against the explicit pinching
        for y in diag.basis:
            assert np.trace(out @ y) == pytest.approx(np.trace(x @ y), abs=1e-10)

    def test_fixes_algebra_elements(self):
        a = alg.generate_star_algebra([Z])
        x = 0.3 * np.eye(2) + 1.2 * Z
        assert np.allclose(alg.conditional_expectation(a, x), x)

    def test_scalar_algebra(self):
        a = alg.generate_star_algebra([np.eye(3)])
        rng = np.random.default_rng(8)
        x = mc.random_complex(rng, (3, 3))
        assert np.allclose(
            alg.conditional_expectation(a, x), np.trace(x) / 3 * np.eye(3)
        )

    def test_unital_trace_preserving_idempotent_positive(self):
        space = phi_alpha(0.0).space
        ralg = alg.right_algebra(space)
        rng = np.random.default_rng(9)
        eye = np.eye(4)
        assert np.allclose(alg.conditional_expectation(ralg, eye), eye, atol=1e-10)
        for _ in range(100):
            x = mc.random_psd(rng, 4)
            ex = alg.conditional_expectation(ralg, x)
            assert np.trace(ex) == pytest.approx(np.trace(x).real, abs=1e-9)
            assert np.allclose(alg.conditional_expectation(ralg, ex), ex, atol=1e-9)
            assert float(np.min(np.linalg.eigvalsh(mc.hermitize(ex)))) >= -1e-9

    def test_nonunital_algebra_adjoins_identity(self):
        # the span of e11 alone is nonunital in M_2
        a = alg.generate_star_algebra([e(0, 0)])
        assert not a.unital
        out = alg.conditional_expectation(a, np.eye(2))
        assert np.allclose(out, np.eye(2), atol=1e-10)


class TestIndependence:
    def test_identity_always_strongly_independent(self):
        a = alg.generate_star_algebra([Z])
        assert alg.is_strongly_independent(np.eye(2), a)

    def test_diagonal_vs_regular_representation_algebra(self):
        # diagonal densities vs the algebra generated by the cyclic shift
        shift = e(0, 1) + e(1, 0)
        a = alg.generate_star_algebra([shift])
        f = np.diag([1.4, 0.6]).astype(complex)
        assert alg.is_strongly_independent(f, a)

    def test_element_of_full_algebra_not_independent(self):
        full = alg.generate_star_algebra([e(0, 1)])
        f = 2.0 * e(0, 0)
        assert not alg.is_independent(f, full)

    def test_bimodule_property(self):
        # L(X) X and X R(X) stay inside a verified TRO
        space = phi_alpha(0.0).space
        basis = alg.orthonormal_span(list(space.basis))
        lalg = alg.left_algebra(space)
        ralg = alg.right_algebra(space)
        for a in lalg.basis:
            for x in basis:
                assert alg.span_residual(a @ x, basis) < 1e-9
        for x in basis:
            for b in ralg.basis:
                assert alg.span_residual(x @ b, basis) < 1e-9


class TestValidateSymbol:
    def test_dephasing_kernel_valid(self):
        base = base_channel(stinespring_space(qubit_dephasing(0.0)))
        sym = alg.validate_symbol(base, np.array([[1.0, 0.4], [0.4, 1.0]]))
        assert sym.certificate.space_is_tro
        assert max(sym.certificate.residuals) < 1e-9

    def test_phi_alpha_symbol_valid(self):
        bundle = phi_alpha(0.7)
        cert = bundle.symbol.certificate
        assert cert.space_is_tro
        assert sorted((n, m) for n, m, _ in cert.blocks) == [(1, 1), (1, 1), (1, 2)]

    def test_phi_zero_rejects_block_supported_density(self):
        # diag(2,2,0,0) lies inside the right algebra, so its conditional
        # expectation is itself rather than a scalar
        base = phi_alpha(0.0)
        with pytest.raises(NotIndependent):
            alg.validate_symbol(base.space.source, np.diag([2.0, 2.0, 0.0, 0.0]))

    def test_not_normalized(self):
        base = phi_alpha(0.0)
        with pytest.raises(NotNormalized):
            alg.validate_symbol(base.space.source, np.eye(4) * 2.0)

    def test_unit_trace_with_a_negative_eigenvalue_is_not_a_symbol(self):
        base = phi_alpha(0.0)
        with pytest.raises(NotNormalized, match="positive semidefinite"):
            alg.validate_symbol(base.space.source, np.diag([2.5, 1.5, 0.5, -0.5]))

    def test_modified_channel_lifting_identity(self):
        # E_L o N_f = tau(f) N on 50 random inputs
        rng = np.random.default_rng(10)
        base = qubit_dephasing(0.0)
        space = stinespring_space(base)
        sym = alg.validate_symbol(base, np.array([[1.0, 0.6], [0.6, 1.0]]))
        nf = modified_channel(space, sym)
        lalg = alg.left_algebra(space)
        for _ in range(50):
            rho = mc.random_density(rng, 2)
            lhs = alg.conditional_expectation(lalg, apply(nf, rho))
            rhs = apply(base, rho)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestEntropyDefectOfSymbols:
    def test_identity_defect_zero(self):
        assert entropy_defect(np.eye(5)) == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_defect_is_log_dim(self):
        f = np.zeros((4, 4))
        f[0, 0] = 4.0
        assert entropy_defect(f) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Loop references: span projections one inner product at a time and the
# exhaustive triple-product closure.  The vectorized package code must agree
# with them.

# complex128 round-off of an n*m-term inner product and k-term sum stays
# far below this, relative to the operand's norm
VEC_RTOL = 1e3 * np.finfo(np.complex128).eps


def ref_project_span(mat, basis):
    out = np.zeros_like(mat, dtype=complex)
    for b in basis:
        out = out + hs_inner(b, mat) * b
    return out


def ref_span_residual(mat, basis):
    return mc.frobenius(mat - ref_project_span(mat, basis))


def ref_triple_residuals(mats):
    """Out-of-span residual of every basis triple x_i x_j* x_k."""
    basis = alg.orthonormal_span(mats)
    k = len(basis)
    res = np.zeros((k, k, k))
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            xy = x @ mc.dagger(y)
            for l, z in enumerate(basis):
                res[i, j, l] = ref_span_residual(xy @ z, basis)
    return res


def ref_is_tro(mats, tol=1e-8):
    """(ok, witness, worst, residuals); the witness is the first strict
    maximum in loop order."""
    res = ref_triple_residuals(mats)
    worst, witness = 0.0, None
    for idx in np.ndindex(res.shape):
        if res[idx] > worst:
            worst, witness = float(res[idx]), tuple(int(t) for t in idx)
    return (worst <= tol), (None if worst <= tol else witness), worst, res


def ref_smallest_containing_tro(mats):
    basis = alg.orthonormal_span(mats)
    while True:
        triples = [x @ mc.dagger(y) @ z for x in basis for y in basis for z in basis]
        new_basis = alg.orthonormal_span(list(basis) + triples)
        if len(new_basis) == len(basis):
            return new_basis
        basis = new_basis


def polar(a):
    """The isometric factor u vh of a matrix's SVD."""
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    return u @ vh


def near_tro_channel(shapes, eps, seed):
    """The partial-trace sum channel of shapes with its isometry, rows (out,
    env), perturbed by eps times a complex Gaussian from default_rng(seed) and
    made an isometry again by its polar factor."""
    kraus = partial_trace_sum_channel(shapes).kraus  # [env, out, in]
    n_env, n_out, n_in = kraus.shape
    iso = kraus.transpose(1, 0, 2).reshape(n_out * n_env, n_in)
    iso = polar(iso + eps * mc.random_complex(np.random.default_rng(seed), iso.shape))
    return from_kraus(list(iso.reshape(n_out, n_env, n_in).transpose(1, 0, 2)))


SHAPES = st.lists(
    st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda s: sum(n * m for n, m in s) <= 8)


MULT_SHAPES = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda s: sum(n * m for n, m, _ in s) <= 10)


def tro_family(kind, shapes, seed):
    rng = np.random.default_rng(seed)
    if kind == "tro":
        return mix(rng, block_tro(rng, shapes))
    if kind == "tensor_identity":
        return [mc.tensor(x, np.eye(2)) for x in mix(rng, block_tro(rng, shapes[:2]))]
    if kind == "subspace":
        mats = block_tro(rng, shapes)
        return mix(rng, mats, max(1, len(mats) - 1 - int(rng.integers(0, 3))))
    if kind == "upper_triangular":
        u, w = random_unitary(rng, 2), random_unitary(rng, 2)
        return mix(rng, [u @ e(i, j) @ mc.dagger(w) for i, j in ((0, 0), (0, 1), (1, 1))])
    # the dilation range of a random isometry C^k -> C^n (x) C^m
    n, m, k = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
    iso = random_unitary(rng, n * m)[:, :k]
    return [iso[:, c].reshape(n, m) for c in range(k)]


FAMILIES = st.sampled_from(["tro", "tensor_identity", "subspace", "upper_triangular", "isometry"])


def assert_same_tro_decision(mats, tol=1e-8):
    got = alg.is_tro(mats, tol=tol)
    ok, witness, worst, res = ref_is_tro(mats, tol)
    assert got.ok == ok
    if ok:
        # the accepted residual is an upper bound on every triple residual
        assert worst <= got.residual * (1 + VEC_RTOL) + VEC_RTOL and got.residual <= tol
    else:
        # the same witness, unless two triples tie to rounding
        assert got.witness == witness or res[got.witness] >= worst * (1 - VEC_RTOL)
        assert got.residual == pytest.approx(worst, rel=VEC_RTOL)


class TestVectorizedSpanOps:
    @pytest.mark.parametrize("seed", range(6))
    def test_match_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        basis = alg.orthonormal_span([mc.random_complex(rng, shape) for _ in range(3)])
        mat = mc.random_complex(rng, shape) * 10.0 ** rng.uniform(-3, 3)
        scale = max(1.0, mc.frobenius(mat))
        got, ref = alg.project_span(mat, basis), ref_project_span(mat, basis)
        assert np.max(np.abs(got - ref)) <= VEC_RTOL * scale
        assert abs(alg.span_residual(mat, basis) - ref_span_residual(mat, basis)) <= VEC_RTOL * scale

    def test_empty_basis(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(alg.project_span(x, []), np.zeros((2, 3)))
        assert alg.span_residual(x, []) == pytest.approx(mc.frobenius(x))
        # an empty span and the span of a zero matrix: a TRO with no basis
        for mats in ([], [np.zeros((2, 3))]):
            assert alg.is_tro(mats) == alg.TroCheck(True, None, 0.0)
            assert alg.smallest_containing_tro(mats) == []
        # the zero span decomposes to no blocks with identity unitaries; an
        # empty list has no shape to decompose in
        decomp = alg.tro_block_decomposition([np.zeros((2, 3))])
        assert decomp.blocks == ()
        assert np.array_equal(decomp.basis_change_out, np.eye(2))
        assert np.array_equal(decomp.basis_change_env, np.eye(3))
        assert alg.algebra_blocks([np.zeros((2, 2))]) == []
        with pytest.raises(DimMismatch):
            alg.tro_block_decomposition([])


class TestTroClosureAgainstLoops:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=FAMILIES, shapes=SHAPES, seed=st.integers(0, 2**32 - 1))
    def test_is_tro(self, kind, shapes, seed):
        assert_same_tro_decision(tro_family(kind, shapes, seed))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(shapes=SHAPES, seed=st.integers(0, 2**32 - 1), log_target=st.floats(-1.0, 1.0))
    def test_is_tro_near_tolerance(self, shapes, seed, log_target):
        # a TRO with one element pushed out of it, scaled so that the worst
        # triple residual lands within 10x of tol on either side
        tol = 1e-8
        rng = np.random.default_rng(seed)
        # the TRO leaves out the last (1, 1) block, so there is room to push
        mats = block_tro(rng, shapes + [(1, 1)])[:-1]
        push = mc.random_complex(rng, mats[0].shape)

        def pushed(eps):
            return [mats[0] + eps * push] + mats[1:]

        probe = ref_is_tro(pushed(1e-6), tol)[2]
        eps = 1e-6 * tol * 10.0**log_target / probe
        worst = ref_is_tro(pushed(eps), tol)[2]
        assert tol / 20 < worst < 20 * tol
        assert_same_tro_decision(pushed(eps), tol)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=FAMILIES, shapes=SHAPES, seed=st.integers(0, 2**32 - 1))
    def test_smallest_containing_tro(self, kind, shapes, seed):
        mats = tro_family(kind, shapes, seed)
        got = alg.smallest_containing_tro(mats)
        ref = ref_smallest_containing_tro(mats)
        assert len(got) == len(ref)
        for b in got:
            assert alg.span_residual(b, ref) < 1e-8
        assert alg.is_tro(got).ok

    def test_upper_triangular_witness_matches_loop(self):
        mats = [e(0, 0), e(0, 1), e(1, 1)]
        ok, witness, worst, _ = ref_is_tro(mats)
        check = alg.is_tro(mats)
        assert (check.ok, check.witness) == (ok, witness)
        assert check.residual == pytest.approx(worst, rel=VEC_RTOL)

    def test_validate_symbol_svd_inputs_stay_small(self, monkeypatch):
        # Schur cyclic(16): no SVD input is larger than the k x nm span
        # itself; the k^2 x n^2 products x y* of a left span are gone
        k = 16
        p = np.random.default_rng(0).random(k)
        four = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)
        kernel = (four * (p / p.sum())) @ mc.dagger(four)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        sym = alg.validate_symbol(completely_dephasing_channel(k), kernel)
        assert sym.certificate.blocks == ((1, 1, 1),) * k
        assert shapes
        assert all(rows <= k and cols <= k * k for rows, cols in shapes)

    @pytest.mark.parametrize("k", [6, 12])
    def test_full_matrix_space_closure_takes_one_support_certified_attempt(self, monkeypatch, k):
        # the identity symbol of a modified Schur cyclic(k) channel: the
        # closure of its k-dimensional range is all of M_{k,k}, whose union
        # support is the one rectangle (k, k, 1), so the closed span's one
        # attempt is certified from its support at distance exactly 0
        p = np.random.default_rng(0).random(k)
        ch = schur_multiplier_channel(cyclic_group(k), np.fft.fft(p / p.sum()))
        attempts = record_attempts(monkeypatch)
        v, blocks, check = alg._structure(stinespring_space(ch).basis, alg.TRO_TOL, close=True)
        assert [dim for dim, _ in attempts] == [k, k * k] and len(v) == k * k
        assert_certified_full_space(attempts[-1][1], k, k)
        assert check == alg.TroCheck(True, None, 0.0) and next(blocks) is attempts[-1][1][0]
        cert = alg.identity_symbol(ch).certificate
        assert cert.blocks == ((k, k, 1),) and cert.tro_dim == k * k
        assert max(cert.residuals) <= 1e-13
        # a span that is all of M_{n,m} from the start takes that one attempt alone
        attempts.clear()
        mats = list(mc.random_complex(np.random.default_rng(1), (6, 3, 2)))
        v, blocks, check = alg._structure(mats, alg.TRO_TOL, close=True)
        assert [dim for dim, _ in attempts] == [6] and len(v) == 6
        assert_certified_full_space(attempts[0][1], 3, 2)
        assert check == alg.TroCheck(True, None, 0.0) and alg._decompose(blocks, check) is attempts[0][1][0]

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_isometry_is_accepted_without_extending(self, monkeypatch, seed):
        # the (2,2)+(1,1) partial-trace isometry perturbed by 1e-10: its
        # products leave the span by more than the rank threshold but by less
        # than TRO_TOL, so the closure accepts the span as it is, on one block
        # attempt, and decomposes it into the unperturbed blocks
        ch = near_tro_channel([(2, 2), (1, 1)], 1e-10, seed)
        spans = count_attempts(monkeypatch)
        assert alg.identity_symbol(ch).certificate.blocks == ((2, 2, 1), (1, 1, 1))
        assert spans == [5]

    def test_is_tro_memory_on_generic_kraus_channel(self):
        # the dilation range of a random isometry C^16 -> C^16 (x) C^16 is no
        # TRO, so every triple is scanned: holding all k^3 of them at once
        # would take (4096, 256) complex arrays, 16 MiB each; the scan holds
        # the k^2 triples of one x_i at a time, 1 MiB per array
        import tracemalloc

        n = 16
        iso = random_unitary(np.random.default_rng(3), n * n)[:, :n]
        kraus = iso.reshape(n, n, n).transpose(1, 0, 2)  # [env, out, in]
        space = stinespring_space(from_kraus(list(kraus)))
        tracemalloc.start()
        try:
            check = alg.is_tro(list(space.basis))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not check.ok
        assert peak < 16 * 2**20

    def test_attempt_memory_on_the_order_8_square(self):
        # the tensor suite's span on the square of the uniform mixture over the
        # regular representation of cyclic(8): (k, n, m) = (64, 64, 64), 4 MiB,
        # and 64 summands of one shape; their central pass sums over k inside one
        # product, with no (p, k, m, m) stack of the v_k* F F* v_k (256 MiB)
        import tracemalloc

        base = base_channel(group_random_unitary(regular_representation(cyclic_group(8)), [1 / 8] * 8).base_space)
        v = stinespring_space(tensor_channels(base, base)).stacked()
        tracemalloc.start()
        try:
            decomp, eps = alg._attempt(v, (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decomp.blocks == ((1, 1, 1),) * 64 and eps <= 1e-13
        assert peak <= 16 * v.nbytes


NEAR_SHAPES = [[(2, 2), (1, 1)], [(2, 3), (3, 1), (1, 1)]]


class TestOneAcceptanceDecision:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shapes=SHAPES,
        seed=st.integers(0, 2**32 - 1),
        log_eps=st.floats(-11.0, -6.0),
        log_c=st.floats(-3.0, 3.0),
    )
    def test_closure_extends_exactly_when_is_tro_rejects(self, shapes, seed, log_eps, log_c):
        # a rotated TRO basis plus eps noise, made orthonormal again, and the
        # same family rescaled by c
        rng = np.random.default_rng(seed)
        tro = np.stack(mix(rng, block_tro(rng, shapes)))
        flat = polar(tro.reshape(len(tro), -1))
        flat = polar(flat + 10.0**log_eps * mc.random_complex(rng, flat.shape))
        base = list(flat.reshape(tro.shape))
        for mats in (base, [10.0**log_c * x for x in base]):
            closure = alg.smallest_containing_tro(mats)
            assert alg.is_tro(mats).ok == (len(closure) == len(alg.orthonormal_span(mats)))
            assert alg.is_tro(closure).ok

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=FAMILIES,
        shapes=MULT_SHAPES,
        pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        seed=st.integers(0, 2**32 - 1),
        log_eps=st.one_of(st.none(), st.floats(-11.0, -6.0)),
        log_c=st.floats(-3.0, 3.0),
    )
    def test_block_form_bound_is_sound(self, family, shapes, pad, seed, log_eps, log_c):
        # rotated, padded TROs with multiplicity and the other families, each
        # optionally pushed off by eps noise, rescaled by c: whenever the
        # block-form bound accepts, no basis triple leaves the span by more
        # than the bound, and for every seed the decision is the exact scan's
        rng = np.random.default_rng(seed)
        mats = np.stack(mix(rng, block_tro(rng, shapes, pad)) if family == "tro" else tro_family(family, shapes, seed))
        if log_eps is not None:
            flat = polar(mats.reshape(len(mats), -1))
            mats = polar(flat + 10.0**log_eps * mc.random_complex(rng, flat.shape)).reshape(mats.shape)
        mats = list(10.0**log_c * mats)
        ok, _, worst, _ = ref_is_tro(mats)
        assert alg.is_tro(mats).ok == ok
        for attempt_seed in range(3):
            v, _, check = alg._structure(mats, alg.TRO_TOL, seed=attempt_seed)
            assert check.ok == ok
            found = alg._attempt(v, (attempt_seed, 0))  # the attempt _structure bounds first
            bound = np.inf if found is None else (3 + np.sqrt(len(v))) * found[1]
            if bound <= alg.TRO_TOL:
                assert check.residual == bound
                assert worst <= bound * (1 + VEC_RTOL) + VEC_RTOL

    @pytest.mark.parametrize("shapes", NEAR_SHAPES, ids=str)
    def test_near_tro_recipe_decision(self, shapes):
        for eps in (1e-6, 1e-7, 1e-8, 5e-9, 3e-9, 2e-9, 1e-9, 1e-10):
            for seed in range(30):
                mats = stinespring_space(near_tro_channel(shapes, eps, seed)).basis
                closure = alg.smallest_containing_tro(mats)
                assert alg.is_tro(mats).ok == (len(closure) == len(mats)), (eps, seed)

    @pytest.mark.parametrize("eps", [1e-9, 5e-10, 3e-10, 2e-10, 1e-10, 5e-11, 1e-11])
    @pytest.mark.parametrize("shape", range(len(NEAR_SHAPES)))
    def test_near_tro_recipe_decomposes(self, shape, eps):
        shapes = NEAR_SHAPES[shape]
        blocks = tuple((n, m, 1) for n, m in shapes)
        for seed in range(30):
            ch = near_tro_channel(shapes, eps, seed)
            space = stinespring_space(ch)
            assert alg.tro_block_decomposition(space).blocks == blocks, seed
            assert alg.identity_symbol(ch).certificate.blocks == blocks, seed
            assert len(alg.smallest_containing_tro(space.basis)) == space.dim, seed

    @pytest.mark.parametrize("eps", [3e-9, 2e-9, 1e-9, 5e-10])
    @pytest.mark.parametrize("shape", range(len(NEAR_SHAPES)))
    def test_near_tro_band_decomposes_every_accepted_span(self, shape, eps):
        # just below the acceptance edge: every span is_tro accepts decomposes
        # into the unperturbed blocks
        shapes = NEAR_SHAPES[shape]
        blocks = tuple((n, m, 1) for n, m in shapes)
        for seed in range(30):
            space = stinespring_space(near_tro_channel(shapes, eps, seed))
            if alg.is_tro(space.basis).ok:
                assert alg.tro_block_decomposition(space).blocks == blocks, seed

    @pytest.mark.parametrize("push", [10, 100])
    def test_basis_outside_its_rectangles_raises(self, monkeypatch, push):
        # (2,2)+(1,1) with one element pushed into the padding by push *
        # STRUCTURE_RTOL: is_tro rejects it.  With its triple-product check
        # bypassed (tol 1 accepts every orthonormal span), none of its own
        # BLOCK_TRIES attempts, and none that report the unpushed TRO's blocks at
        # their real distance from it, lies within STRUCTURE_RTOL of it
        mats = block_tro(None, [(2, 2), (1, 1)], pad=(1, 1))
        pushed = [mats[0] + push * alg.STRUCTURE_RTOL * e(3, 3, 4), *mats[1:]]
        with pytest.raises(NotTro, match="witness"):
            alg.tro_block_decomposition(pushed)
        with pytest.raises(NotTro, match="no block decomposition"):
            alg.tro_block_decomposition(pushed, tol=1.0)
        unpushed, seeds = alg.tro_block_decomposition(mats), []
        assert alg._distance(np.array(alg.orthonormal_span(pushed)), unpushed) > alg.STRUCTURE_RTOL
        monkeypatch.setattr(alg, "_attempt", lambda v, seed: seeds.append(seed) or (unpushed, alg._distance(v, unpushed)))
        with pytest.raises(NotTro, match="no block decomposition"):
            alg.tro_block_decomposition(pushed, tol=1.0)
        assert seeds == [(0, t) for t in range(alg.BLOCK_TRIES)]

    @pytest.mark.parametrize("shape", [(6, 3, 3), (12, 5, 3)], ids=str)
    def test_a_rejected_span_takes_one_attempt(self, monkeypatch, shape):
        # the structure workload's non-TRO Kraus shapes (in, out, env): the scan
        # rejects the span, and no fresh seed is drawn for it
        d_in, d_out, n_env = shape
        space = stinespring_space(random_channel(np.random.default_rng(d_in), d_in, d_out, n_env))
        spans = count_attempts(monkeypatch)
        assert not alg.is_tro(space.basis).ok
        assert spans == [d_in]
        spans.clear()
        with pytest.raises(NotTro, match="witness"):
            alg.tro_block_decomposition(space, seed=5)
        assert spans == [d_in]

    @pytest.mark.parametrize("first", ["none", "far"])
    def test_a_failed_first_attempt_is_retried_after_the_scan(self, monkeypatch, first):
        # a rotated TRO whose (seed, 0) attempt is forced to fail (None, or its
        # real blocks reported at 2 STRUCTURE_RTOL) and whose (seed, 1) attempt
        # is forced far: is_tro and closing scan and accept the span and draw no
        # fresh seed; asking for its blocks draws (seed, 1), which is skipped,
        # and (seed, 2), reported at exactly STRUCTURE_RTOL, which is taken
        rng = np.random.default_rng(4)
        mats = mix(rng, block_tro(rng, [(2, 2), (1, 1)], pad=(1, 1)))
        events, made, real_attempt, real_norm = [], {}, alg._attempt, np.linalg.norm

        def attempt(v, seed):
            events.append(seed)
            made[seed] = real_attempt(v, seed)[0]
            if first == "none" and seed[1] == 0:
                return None
            return made[seed], (2 if seed[1] < 2 else 1) * alg.STRUCTURE_RTOL

        def norm(a, *args, axis=None, **kwargs):
            if axis == 2 and events[-1] != "scan":  # the witness scan's residual norms
                events.append("scan")
            return real_norm(a, *args, axis=axis, **kwargs)

        monkeypatch.setattr(alg, "_attempt", attempt)
        monkeypatch.setattr(np.linalg, "norm", norm)
        assert alg.is_tro(mats).ok and events == [(0, 0), "scan"]
        events.clear()
        assert len(alg.smallest_containing_tro(mats)) == len(mats) and events == [(0, 0), "scan"]
        events.clear()
        v, blocks, check = alg._structure(mats, alg.TRO_TOL, seed=7)
        assert check.ok and check.residual <= alg.TRO_TOL
        assert events == [(7, 0), "scan"]
        found = alg._decompose(blocks, check)
        assert events == [(7, 0), "scan", (7, 1), (7, 2)]
        assert found is made[(7, 2)] and sorted(found.blocks) == [(1, 1, 1), (2, 2, 1)]
        events.clear()
        assert alg.tro_block_decomposition(mats, seed=7).blocks == found.blocks
        assert events == [(7, 0), "scan", (7, 1), (7, 2)]
        # with every attempt failing, an accepted span has BLOCK_TRIES of them
        monkeypatch.setattr(alg, "_attempt", lambda v, seed: events.append(seed))
        events.clear()
        with pytest.raises(NotTro, match="no block decomposition"):
            alg.tro_block_decomposition(mats, seed=7)
        assert events == [(7, 0), "scan", *((7, t) for t in range(1, alg.BLOCK_TRIES))]

    def test_each_closing_round_adds_a_dimension(self, monkeypatch):
        # a TRO with one element pushed out of it closes in more than one round:
        # v and all its triples have 21 singular values above 1e-8 (the next is
        # 2.0e-16), so the first round reaches 21 directions, and the second
        # all of M_{5,5}, whose one attempt its support certifies
        rng = np.random.default_rng(0)
        mats = block_tro(rng, [(2, 2), (1, 1)], pad=(2, 2))[:-1]
        mats[0] = mats[0] + 1e-3 * mc.random_complex(rng, mats[0].shape)
        attempts = record_attempts(monkeypatch)
        closure, blocks, check = alg._structure(mats, alg.TRO_TOL, close=True)
        assert [dim for dim, _ in attempts] == [4, 21, 25] and len(closure) == 25
        assert_certified_full_space(attempts[-1][1], 5, 5)
        assert check == alg.TroCheck(True, None, 0.0) and next(blocks) is attempts[-1][1][0]
        assert np.array_equal(alg.smallest_containing_tro(mats), closure)

    def test_cyclic_words_close_in_growing_rounds(self, monkeypatch):
        # S + S S of the cyclic(16) shift spans P^-2..P^2; each round's
        # triples P^(a - b + c) reach P^-6..P^6, then all sixteen powers
        s = alg.orthonormal_span([shift(16), shift(16).T])
        spans = count_attempts(monkeypatch)
        closure = alg.smallest_containing_tro(s + [a @ b for a in s for b in s])
        assert len(closure) == 16 and spans == [5, 13, 16]


SUBSPACE_SHAPES = [([(2, 2), (1, 1)], (2, 2)), ([(2, 3), (1, 1)], (1, 1)), ([(1, 2), (2, 1), (1, 1)], (2, 2)), ([(3, 3)], (2, 2))]


def deflated_triple_singular_values(mats):
    """Singular values of every triple x_i x_j* x_l of an orthonormal basis x
    of span(mats), taken off that span: one SVD of all k^3 of them."""
    v = np.array(alg.orthonormal_span(mats))
    flat = v.reshape(len(v), -1)
    triples = np.einsum("iab,jcb,lcd->ijlad", v, v.conj(), v).reshape(len(v) ** 3, -1)
    return np.linalg.svd(triples - (triples @ flat.conj().T) @ flat, compute_uv=False)


class TestClosingRoundCut:
    # A closing round takes its new directions from one SVD of the residuals,
    # cut at tol, so that rounding in residuals of 1e-6 adds no direction that
    # exact arithmetic does not add.

    @pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6])
    @pytest.mark.parametrize("shape", range(len(SUBSPACE_SHAPES)))
    def test_subspace_of_a_tro_closes_to_that_tro(self, shape, delta):
        shapes, pad = SUBSPACE_SHAPES[shape]
        want = sorted((n, m, 1) for n, m in shapes)
        for seed in range(4):
            for mixed in (False, True):
                t, mats = tro_subspace(seed, shapes, pad, delta, mixed)
                closure = alg.smallest_containing_tro(mats)
                assert len(closure) == len(t), (seed, mixed)
                assert sorted(alg.tro_block_decomposition(closure).blocks) == want, (seed, mixed)

    @pytest.mark.parametrize("shape", range(len(SUBSPACE_SHAPES)))
    def test_first_round_adds_the_directions_of_one_svd(self, monkeypatch, shape):
        # where no singular value of the deflated triples lies within a factor
        # of 30 of tol, the first round adds one direction per value above tol
        shapes, pad = SUBSPACE_SHAPES[shape]
        checked, spans = 0, count_attempts(monkeypatch)
        for delta in np.logspace(-3, -6, 6):
            for seed in range(4):
                _, mats = tro_subspace(seed, shapes, pad, delta)
                s = deflated_triple_singular_values(mats)
                if np.any((s > alg.TRO_TOL / 30) & (s < 30 * alg.TRO_TOL)):
                    continue
                spans.clear()
                closure = alg.smallest_containing_tro(mats)
                first = spans[1] if len(spans) > 1 else len(closure)  # all of M_{n,m} takes no attempt
                assert first == len(mats) + np.count_nonzero(s > alg.TRO_TOL), (delta, seed)
                checked += 1
        assert checked >= 12

    @pytest.mark.parametrize("seed", range(3))
    def test_no_svd_of_an_empty_group(self, monkeypatch, seed):
        # on the n = 4 subspace closure most groups of a closing round keep no residual row
        # above tol once the round's first directions are in; such a group takes no SVD
        _, mats = tro_subspace(seed, [(4, 4), (1, 1)], (2, 2), 1e-6)
        shapes, real_svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert len(alg.smallest_containing_tro(mats)) == 17
        assert shapes and min(shape[0] for shape in shapes) > 0


class TestCanonicalBlockOrder:
    SHAPES = [(1, 3), (2, 2), (2, 1)]

    def test_block_diagonal_tro_lists_blocks_top_to_bottom(self):
        for shapes in (self.SHAPES, [(2, 2), (1, 3)], [(3, 1), (1, 1), (2, 2)]):
            want = tuple((n, m, 1) for n, m in shapes)
            for seed in range(3):
                assert alg.tro_block_decomposition(block_tro(None, shapes), seed=seed).blocks == want

    def test_order_does_not_depend_on_basis_or_seed(self):
        mats = block_tro(np.random.default_rng(7), self.SHAPES)
        want = alg.tro_block_decomposition(mats).blocks
        assert sorted(want) == sorted((n, m, 1) for n, m in self.SHAPES)
        for seed in range(6):
            rebased = mix(np.random.default_rng(100 + seed), mats)
            assert alg.tro_block_decomposition(rebased, seed=seed).blocks == want

    def test_symbol_certificate_and_decomposition_agree(self):
        ch = partial_trace_sum_channel(self.SHAPES)
        want = tuple((n, m, 1) for n, m in self.SHAPES)
        for seed in range(3):
            assert alg.identity_symbol(ch, seed=seed).certificate.blocks == want
            assert alg.tro_block_decomposition(stinespring_space(ch), seed=seed).blocks == want

    def test_phi_alpha_certificate_order_is_fixed(self):
        orders = {phi_alpha(a, seed=s).symbol.certificate.blocks for a in (0.3, -0.5) for s in range(3)}
        assert len(orders) == 1


def coordinate_tro(shapes, pad, seed, transpose):
    """Stinespring basis (k, out, env) of the partial-trace sum of shapes,
    zero-padded by pad = (rows, columns), its rows and columns shuffled by
    permutations from default_rng(seed) and transposed when asked, with its
    rectangles (rows, columns), each a pair of index arrays."""
    basis = np.array(stinespring_space(partial_trace_sum_channel(shapes)).basis)
    basis = np.pad(basis, ((0, 0), (0, pad[0]), (0, pad[1])))
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(basis.shape[1]), rng.permutation(basis.shape[2])
    basis = basis[:, rows][:, :, cols]
    ro, co, rects = np.cumsum([0] + [n for n, _ in shapes]), np.cumsum([0] + [m for _, m in shapes]), []
    for i in range(len(shapes)):  # old row r is new row argsort(rows)[r]
        rects.append((np.argsort(rows)[ro[i] : ro[i + 1]], np.argsort(cols)[co[i] : co[i + 1]]))
    if transpose:
        return basis.transpose(0, 2, 1), [(c, r) for r, c in rects]
    return basis, rects


def tensor_coordinate_tro(a, b):
    """The span of x (x) y over two coordinate TROs (basis, rectangles)."""
    (xa, ra), (xb, rb) = a, b
    basis = np.einsum("iab,jcd->ijacbd", xa, xb).reshape(len(xa) * len(xb), *np.multiply(xa.shape[1:], xb.shape[1:]))
    rects = [
        tuple((p[:, None] * q_dim + q[None]).ravel() for p, q, q_dim in zip(pa, pb, xb.shape[1:]))
        for pa in ra for pb in rb
    ]
    return basis, rects


def no_random_draw(*args, **kwargs):
    raise AssertionError("a span in coordinates drew a random sample")


def one_entry_outside():
    """The (2, 2) + (1, 1) partial-trace sum's basis with one 1e-17 entry outside its rectangles."""
    mats = list(np.array(stinespring_space(partial_trace_sum_channel([(2, 2), (1, 1)])).basis))
    mats[0][0, 2] = 1e-17
    return mats


COORDINATE = st.tuples(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3).filter(
        lambda s: sum(n * m for n, m in s) <= 9
    ),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


class TestCoordinateSpans:
    """A span whose union support is a disjoint union of full rectangles is
    certified from that support, with no random draw."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(first=COORDINATE, second=st.none() | COORDINATE, seed=st.integers(0, 2**32 - 1))
    def test_blocks_from_the_support(self, first, second, seed):
        basis, rects = coordinate_tro(*first)
        if second is not None:
            basis, rects = tensor_coordinate_tro((basis, rects), coordinate_tro(*second))
        want = tuple((len(r), len(c), 1) for r, c in sorted(rects, key=lambda rc: rc[0].min()))
        rng = np.random.default_rng(seed)
        u, w = random_unitary(rng, basis.shape[1]), random_unitary(rng, basis.shape[2])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "random_complex", no_random_draw)
            v = np.array(alg.orthonormal_span(list(basis)))
            decomp, eps = alg._attempt(v, (seed, 0))
            assert eps == 0.0 == alg._distance(v, decomp) and decomp.blocks == want
            assert alg.is_tro(list(basis)) == alg.TroCheck(True, None, 0.0)
            assert alg.tro_block_decomposition(list(basis), seed=seed).blocks == want
        # a rotation U v W* of the same span takes the seeded path to the same
        # blocks, unless the span is all of M_{n,m}: its rotations are in coordinates too
        draws, real_random = [], mc.random_complex
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "random_complex", lambda *a: draws.append(a) or real_random(*a))
            rotated = alg.tro_block_decomposition(list(u @ basis @ mc.dagger(w)), seed=seed % 5)
        assert bool(draws) == (len(basis) < basis[0].size) and sorted(rotated.blocks) == sorted(want)

    def test_unitaries_are_permutations_that_realize_the_blocks(self):
        basis, _ = coordinate_tro([(2, 3), (1, 1), (3, 1)], (1, 2), 5, False)
        decomp = alg.tro_block_decomposition(list(basis))
        for u in (decomp.basis_change_out, decomp.basis_change_env):
            assert np.array_equal(np.sort(u, axis=0)[-1], np.ones(len(u))) and np.count_nonzero(u) == len(u)
        y = mc.dagger(decomp.basis_change_out) @ basis @ decomp.basis_change_env
        assert np.array_equal(y, alg._block_form(y, decomp.blocks))

    @pytest.mark.parametrize(
        "make, answer",
        [
            (lambda: [e(0, 0) + e(1, 1)], ((1, 1, 2),)),
            (lambda: [np.kron(e(i, j), np.eye(2)) for i in range(2) for j in range(2)], ((2, 2, 2),)),
            (lambda: list(mc.random_complex(np.random.default_rng(4), (3, 2, 2))), NotTro),
            (one_entry_outside, ((2, 2, 1), (1, 1, 1))),
        ],
        ids=["e00+e11", "X(x)1_2", "generic 3 of M_2", "1e-17 outside"],
    )
    def test_other_spans_fall_through(self, make, answer):
        # the seeded attempt keeps the answers these spans had before the support check
        mats = make()
        v = np.array(alg.orthonormal_span(mats))
        assert alg._support_blocks(v) is None
        if answer is NotTro:
            assert not alg.is_tro(mats).ok
            with pytest.raises(NotTro):
                alg.tro_block_decomposition(mats)
        else:
            assert alg.tro_block_decomposition(mats).blocks == answer


def span_space(mats):
    """StinespringSpace with an orthonormal basis of span(mats)."""
    basis = alg.orthonormal_span(mats)
    return StinespringSpace(tuple(basis), *basis[0].shape)


class TestMultiplicityAlignment:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shapes=MULT_SHAPES,
        pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_and_rectangles_match_construction(self, shapes, pad, seed):
        # on each rectangle the conjugated element is X (x) 1_l: the copies of
        # every summand are aligned on both sides, and nothing leaks outside
        rng = np.random.default_rng(seed)
        mats = block_tro(rng, shapes, pad)
        decomp = alg.tro_block_decomposition(mix(rng, mats), seed=seed % 5)
        assert sorted(decomp.blocks) == sorted(shapes)
        u, w = decomp.basis_change_out, decomp.basis_change_env
        assert np.allclose(mc.dagger(u) @ u, np.eye(len(u)), atol=1e-10)
        assert np.allclose(mc.dagger(w) @ w, np.eye(len(w)), atol=1e-10)
        for x in mats:
            y = mc.dagger(u) @ x @ w
            ro = co = 0
            for n, m, l in decomp.blocks:
                rect = y[ro : ro + n * l, co : co + m * l].copy()
                big_x = np.einsum("asbs->ab", rect.reshape(n, l, m, l)) / l
                assert np.max(np.abs(rect - np.kron(big_x, np.eye(l)))) < 1e-8
                y[ro : ro + n * l, co : co + m * l] = 0.0
                ro, co = ro + n * l, co + m * l
            assert np.max(np.abs(y), initial=0.0) < 1e-8


def density(kind, dim, seed=0):
    """An environment density of normalized trace 1."""
    rng = np.random.default_rng(seed)
    if kind == "identity":
        return np.eye(dim, dtype=complex)
    g = mc.random_psd(rng, dim)
    if kind == "kernel":  # unit diagonal
        d = 1.0 / np.sqrt(np.diagonal(g).real)
        return d[:, None] * g * d[None, :]
    return g * dim / np.trace(g).real


def reference_channel(name):
    rng = np.random.default_rng(4)
    if name == "dephasing":
        return completely_dephasing_channel(4)
    if name == "phi_zero":
        return phi_alpha(0.0).space.source
    if name == "partial_traces":
        return partial_trace_sum_channel([(1, 3), (2, 2), (2, 1)])
    if name == "multiplicity":  # (M_{1,2} (x) 1_2) + M_{2,1}, padded and disguised
        return base_channel(span_space(block_tro(rng, [(1, 2, 2), (2, 1, 1)], (1, 2))))
    if name == "regular_rep":  # the closure is larger than the space
        return group_random_unitary(regular_representation(cyclic_group(3)), [0.5, 0.3, 0.2])
    if name == "modified":
        base = qubit_dephasing(0.0)
        sym = alg.validate_symbol(base, np.array([[1.0, 0.5], [0.5, 1.0]]))
        return modified_channel(stinespring_space(base), sym)
    iso = random_unitary(rng, 9)[:, :3]  # a random isometry C^3 -> C^3 (x) C^3
    return from_kraus(list(iso.reshape(3, 3, 3).transpose(1, 0, 2)))


REFERENCE_CHANNELS = [
    "dephasing", "phi_zero", "partial_traces", "multiplicity", "regular_rep", "modified", "isometry"
]


class TestBlockBasisAgainstHsReference:
    """The block-basis structure against the public Hilbert-Schmidt paths:
    right_algebra and strong_independence_residuals, and the closure loop
    (star_algebra_loop) for left_algebra, right_algebra and generate_star_algebra."""

    @pytest.mark.parametrize("name", REFERENCE_CHANNELS)
    @pytest.mark.parametrize("kind", ["identity", "kernel", "random"])
    def test_certificate_matches_hs_residuals(self, name, kind):
        ch = reference_channel(name)
        space = stinespring_space(ch)
        f = density(kind, space.dim_env)
        ralg = alg.right_algebra(space)
        ref = alg.strong_independence_residuals(f, ralg)
        decomp = alg.tro_block_decomposition(alg.smallest_containing_tro(space.basis))
        got = alg._block_residuals(mc.herm_eig(f), decomp)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12
        if max(ref) > 1e-9:
            with pytest.raises(NotIndependent):
                alg.validate_symbol(ch, f)
        else:
            cert = alg.validate_symbol(ch, f).certificate
            assert len(cert.residuals) == len(ref)
            assert np.max(np.abs(np.subtract(cert.residuals, ref))) <= 1e-12
            assert cert.right_algebra_dim == ralg.rank

    @pytest.mark.parametrize("name", REFERENCE_CHANNELS)
    def test_right_algebra_dim_is_right_algebra_rank(self, name):
        ch = reference_channel(name)
        cert = alg.identity_symbol(ch).certificate
        assert cert.right_algebra_dim == alg.right_algebra(stinespring_space(ch)).rank
        assert cert.right_algebra_dim == sum(m * m for _, m, _ in cert.blocks)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kind=FAMILIES, shapes=SHAPES, seed=st.integers(0, 2**32 - 1))
    def test_left_and_right_algebras_match_closure_loop(self, kind, shapes, seed):
        space = span_space(tro_family(kind, shapes, seed))
        basis = space.basis
        for got, ops in (
            (alg.left_algebra(space), [x @ mc.dagger(y) for x in basis for y in basis]),
            (alg.right_algebra(space), [mc.dagger(x) @ y for x in basis for y in basis]),
        ):
            assert_matches_star_loop(got, ops)
            assert_matches_star_loop(alg.generate_star_algebra(ops), ops)

    @pytest.mark.parametrize("name", REFERENCE_CHANNELS)
    def test_block_expectation_matches_hs_conditional_expectation(self, name):
        space = stinespring_space(reference_channel(name))
        decomp = alg._decompose(*alg._structure(space.basis, alg.TRO_TOL, close=True)[1:])
        u, w = decomp.basis_change_out, decomp.basis_change_env
        sides = (
            (u, [(n, l) for n, _, l in decomp.blocks], alg.left_algebra(space)),
            (w, [(m, l) for _, m, l in decomp.blocks], alg.right_algebra(space)),
        )
        rng = np.random.default_rng(7)
        for q, shapes, ref in sides:
            xs = mc.random_complex(rng, (3, ref.dim, ref.dim))
            for x, stacked in zip(xs, alg._block_expectation(q, shapes, xs)):
                single = alg._block_expectation(q, shapes, x)
                diff = q @ single @ mc.dagger(q) - alg.conditional_expectation(ref, x)
                assert mc.frobenius(diff) <= 1e-12 * mc.frobenius(x)
                assert mc.frobenius(stacked - single) <= 1e-14 * mc.frobenius(x)

    def test_no_closure_loop_inside_symbol_decomposition_or_verify(self, monkeypatch):
        # nor any other Hilbert-Schmidt algebra path
        bundle = phi_alpha(0.5)
        calls = []
        hs_paths = ("generate_star_algebra", "left_algebra", "conditional_expectation")
        for name in hs_paths + ("_side_algebra", "project_span"):
            def counting(*args, _name=name, _real=getattr(alg, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(alg, name, counting)
        alg.validate_symbol(bundle.space.source, bundle.symbol.f)
        for name in ("regular_rep", "multiplicity"):
            alg.identity_symbol(reference_channel(name))
        alg.tro_block_decomposition(bundle.space)
        assert verify_local_comparison(bundle.space, bundle.symbol, samples=2).passed
        assert commutant_blocks(regular_representation(cyclic_group(3))) == [(1, 1)] * 3
        assert calls == []
        alg.left_algebra(bundle.space)  # the counters do count
        assert calls[0] == "left_algebra" and "_side_algebra" in calls


class TestStructureCarriedOnTheSymbol:
    """stinespring_space checks only isometry, and the certificate carries the
    block decomposition that later code reads instead of rebuilding it."""

    @pytest.mark.parametrize("name", REFERENCE_CHANNELS + ["tensor"])
    def test_basis_and_partial_trace_identities(self, name):
        if name == "tensor":
            ch = tensor_channels(reference_channel("phi_zero"), qubit_dephasing(0.3))
        else:
            ch = reference_channel(name)
        v = stinespring_space(ch).stacked()
        assert np.array_equal(v, ch.kraus.transpose(2, 1, 0))
        d = ch.dim_in
        units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[x, y] = |x><y|
        assert np.allclose(apply(ch, units), v[:, None] @ mc.dagger(v)[None], atol=1e-12)
        assert np.allclose(complement_apply(ch, units), mc.dagger(v)[None] @ v[:, None], atol=1e-12)

    @pytest.mark.parametrize("name", REFERENCE_CHANNELS)
    def test_carried_block_expectation_matches_fresh_structure(self, name):
        ch = reference_channel(name)
        carried = alg.identity_symbol(ch, seed=3).certificate.decomposition
        fresh = alg._decompose(*alg._structure(stinespring_space(ch).basis, alg.TRO_TOL, close=True)[1:])
        assert carried.blocks == fresh.blocks
        u, w = carried.basis_change_out, carried.basis_change_env
        assert not (u.flags.writeable or w.flags.writeable)
        rng = np.random.default_rng(9)
        for side in (0, 1):  # output (U and the n_i), environment (W and the m_i)
            dim = (ch.dim_out, ch.dim_env)[side]
            x = mc.random_complex(rng, (3, dim, dim))
            e = []
            for dec in (carried, fresh):
                q = (dec.basis_change_out, dec.basis_change_env)[side]
                shapes = [(blk[side], blk[2]) for blk in dec.blocks]
                e.append(q @ alg._block_expectation(q, shapes, x) @ mc.dagger(q))
            for xi, a, b in zip(x, *e):
                assert mc.frobenius(a - b) <= 1e-12 * mc.frobenius(xi)


def block_form_loop(y, blocks):
    """Reference for alg._block_form: each rectangle on its own, from the top left."""
    out, ro, co, lead = np.zeros_like(y), 0, 0, y.shape[:-2]
    for n, m, l in blocks:
        r, c = slice(ro, ro + n * l), slice(co, co + m * l)
        x = np.trace(y[..., r, c].reshape(*lead, n, l, m, l), axis1=-3, axis2=-1) / l
        out[..., r, c] = (x[..., None, :, None] * np.eye(l)[:, None]).reshape(*lead, n * l, m * l)
        ro, co = ro + n * l, co + m * l
    return out


def counting_reads(y):
    """y as an array that records each indexing read made on it (not on arrays made from it)."""
    reads = []

    class Reads(np.ndarray):
        def __getitem__(self, key):
            if self is counted:
                reads.append(key)
            return super().__getitem__(key)

    counted = y.view(Reads)
    return counted, reads


class TestStackedBlockAttempt:
    """The block attempt and the block form work on all summands or rectangles
    of one shape at once."""

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_regular_representation_attempt_makes_four_svd_calls(self, k, monkeypatch):
        # k summands of one shape (1, 1, 1): one polar of the central-element
        # pass, one right-frame SVD after it and one SVD per completed unitary,
        # whatever k
        v = np.array(alg.orthonormal_span(regular_representation(cyclic_group(k)).unitaries))
        calls, real_svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a[0].shape) or real_svd(*a, **kw))
        decomp, eps = alg._attempt(v, (0, 0))
        assert decomp.blocks == ((1, 1, 1),) * k and eps <= alg.STRUCTURE_RTOL
        assert len(calls) == 4

    def test_attempt_completes_both_unitaries_with_no_eigh(self, monkeypatch):
        # blocks that leave two rows and one column free: the two eigh calls are
        # the unit's support and the first sample's eigenspaces
        rng = np.random.default_rng(4)
        v = np.array(alg.orthonormal_span(block_tro(rng, [(2, 1, 2), (1, 2, 1)], pad=(2, 1))))
        calls, real_eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a[0].shape) or real_eigh(*a, **kw))
        decomp, eps = alg._attempt(v, (0, 0))
        assert sorted(decomp.blocks) == [(1, 2, 1), (2, 1, 2)] and eps <= 1e-13
        assert len(calls) == 2
        for u in (decomp.basis_change_out, decomp.basis_change_env):
            assert np.allclose(mc.dagger(u) @ u, np.eye(len(u)), atol=1e-13)

    @pytest.mark.parametrize(
        "shapes", [[(2, 1, 2), (1, 3, 1)], [(1, 1, 3), (2, 2, 2)], [(3, 2, 1), (1, 1, 2), (1, 1, 2)]], ids=str
    )
    @pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-9])
    def test_attempt_on_a_noisy_tro_with_multiplicity_stays_within_its_noise(self, shapes, delta):
        # a rotated TRO basis plus delta times a complex Gaussian, made
        # orthonormal again: its blocks, at a distance linear in delta
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tro = np.stack(block_tro(rng, shapes))
            flat = polar(tro.reshape(len(tro), -1))
            v = polar(flat + delta * mc.random_complex(rng, flat.shape)).reshape(tro.shape)
            decomp, eps = alg._attempt(v, (seed, 0))
            assert sorted(decomp.blocks) == sorted(shapes) and eps <= 50 * delta + 1e-13, (seed, eps)

    @pytest.mark.parametrize("seed", range(24))
    def test_block_form_matches_the_per_block_loop_with_one_read_per_shape(self, seed):
        # bit for bit: at l >= 4 a copy's sum over complex entries runs pairwise,
        # in an order that follows the layout of the array it reduces
        rng = np.random.default_rng(seed)
        pool = [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 3), (1, 3, 2), (1, 1, 4), (2, 1, 5), (1, 2, 6)]
        blocks = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 6))]
        blocks.insert(int(rng.integers(0, len(blocks) + 1)), blocks[-1])  # a shape repeats
        rows = sum(n * l for n, _, l in blocks) + int(rng.integers(0, 3))
        cols = sum(m * l for _, m, l in blocks) + int(rng.integers(0, 3))
        for lead in ((), (3,), (2, 5)):
            y = mc.random_complex(rng, (*lead, rows, cols))
            counted, reads = counting_reads(y)
            got = np.asarray(alg._block_form(counted, blocks))
            assert np.array_equal(got, block_form_loop(y, blocks))
            assert len(reads) == len(set(blocks))

    def test_linked_eigenspaces_of_unequal_size_give_no_summands(self):
        # frames of widths 1 and 2 that b links give no summands; b = 1 links none, so each frame is its own
        e = np.eye(3)
        assert alg._linked_summands([e[:, [2]], e[:, :2]], np.outer(e[0], e[2]) + np.outer(e[2], e[0])) is None
        summands = alg._linked_summands([e[:, [2]], e[:, :2]], e)
        assert [(frame.tolist(), l) for frame, l in summands] == [(e[:, [2]].tolist(), 1), (e[:, :2].tolist(), 2)]

    def test_attempt_whose_sample_splits_into_linked_clusters_of_unequal_size_returns_none(self, monkeypatch):
        # a rotated M_3 padded by a row and a column, its first sample's three eigenvalues split as [0] and [1, 2]:
        # the second sample links the two clusters, so the attempt returns None where it finds (3, 3, 1) unscripted
        v = np.array(alg.orthonormal_span(block_tro(np.random.default_rng(0), [(3, 3)], pad=(1, 1))))
        assert alg._attempt(v, (0, 0))[0].blocks == ((3, 3, 1),)
        monkeypatch.setattr(alg, "_split_at_gaps", lambda w, gap: [np.arange(1), np.arange(1, len(w))])
        assert alg._attempt(v, (0, 0)) is None
