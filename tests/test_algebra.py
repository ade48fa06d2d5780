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
)
from trocap.channel import (
    StinespringSpace,
    apply,
    base_channel,
    from_kraus,
    modified_channel,
    stinespring_space,
)
from trocap.entropy import entropy_defect
from trocap.errors import NotIndependent, NotNormalized, NotTro
from trocap.verify import verify_local_comparison


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


class TestLeftRightAlgebras:
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
        u = mc.random_unitary(rng, rows)
        w = mc.random_unitary(rng, cols)
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
        u = mc.random_unitary(rng, 2)
        w = mc.random_unitary(rng, 4)
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
        a = alg._make_algebra(2, alg.orthonormal_span([e(0, 0)]))
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
        out = out + mc.hs_inner(b, mat) * b
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


def block_tro(rng, shapes, pad=(0, 0)):
    """Basis of (+)_i M_{n_i, m_i} (x) 1_{l_i} (shapes (n, m), where l = 1,
    or (n, m, l)) with pad = (rows, columns) of zeros appended, disguised by
    random unitaries (U, W), or block diagonal when rng is None."""
    shapes = [(tuple(s) + (1,))[:3] for s in shapes]
    rows = sum(n * l for n, _, l in shapes) + pad[0]
    cols = sum(m * l for _, m, l in shapes) + pad[1]
    if rng is None:  # not disguised
        u, w = np.eye(rows), np.eye(cols)
    else:
        u, w = mc.random_unitary(rng, rows), mc.random_unitary(rng, cols)
    mats, ro, co = [], 0, 0
    for n, m, l in shapes:
        for i in range(n):
            for j in range(m):
                x = np.zeros((rows, cols), dtype=complex)
                x[ro : ro + n * l, co : co + m * l] = np.kron(e(i, j, max(n, m))[:n, :m], np.eye(l))
                mats.append(u @ x @ mc.dagger(w))
        ro += n * l
        co += m * l
    return mats


def mix(rng, mats, count=None):
    """`count` random combinations of mats with random scales (all of them
    when count is None: a rescaled basis of the same span)."""
    count = len(mats) if count is None else count
    coeffs = mc.random_complex(rng, (count, len(mats))) * 10.0 ** rng.uniform(-3, 3, (count, 1))
    return [sum(c * m for c, m in zip(row, mats)) for row in coeffs]


SHAPES = st.lists(
    st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda s: sum(n * m for n, m in s) <= 8)


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
        u, w = mc.random_unitary(rng, 2), mc.random_unitary(rng, 2)
        return mix(rng, [u @ e(i, j) @ mc.dagger(w) for i, j in ((0, 0), (0, 1), (1, 1))])
    # the dilation range of a random isometry C^k -> C^n (x) C^m
    n, m, k = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
    iso = mc.random_unitary(rng, n * m)[:, :k]
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
        # Schur cyclic(16): every SVD has at most k^2 rows, and the only one
        # with k^2 rows is the left span; the k + k^3 row closure system and
        # the right span are gone
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
        assert all(rows <= k * k for rows, _ in shapes)
        # the certified closure's left span is reused for the check and the
        # whole block structure: one k^2-row SVD in all
        assert sum(rows == k * k for rows, _ in shapes) == 1

    def test_is_tro_memory_on_generic_kraus_channel(self):
        # the dilation range of a random isometry C^16 -> C^16 (x) C^16 is no
        # TRO and its left span fills all of M_16 (r = 256), so holding every
        # product l_a z at once would take three (16, 256, 256) complex arrays,
        # 48 MiB; chunks of k^2 products keep each array at 1 MiB
        import tracemalloc

        n = 16
        iso = mc.random_unitary(np.random.default_rng(3), n * n)[:, :n]
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


def span_space(mats):
    """StinespringSpace with an orthonormal basis of span(mats)."""
    basis = alg.orthonormal_span(mats)
    return StinespringSpace(tuple(basis), *basis[0].shape)


MULT_SHAPES = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda s: sum(n * m for n, m, _ in s) <= 10)


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
    iso = mc.random_unitary(rng, 9)[:, :3]  # a random isometry C^3 -> C^3 (x) C^3
    return from_kraus(list(iso.reshape(3, 3, 3).transpose(1, 0, 2)))


REFERENCE_CHANNELS = [
    "dephasing", "phi_zero", "partial_traces", "multiplicity", "regular_rep", "modified", "isometry"
]


class TestBlockBasisAgainstHsReference:
    """The block-basis structure against the public Hilbert-Schmidt paths:
    right_algebra, strong_independence_residuals and generate_star_algebra."""

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
            ref = alg.generate_star_algebra(ops)
            assert (got.rank, got.unital) == (ref.rank, ref.unital)
            for b in got.basis:
                assert alg.span_residual(b, ref.basis) < 1e-8

    @pytest.mark.parametrize("name", REFERENCE_CHANNELS)
    def test_block_expectation_matches_hs_conditional_expectation(self, name):
        space = stinespring_space(reference_channel(name))
        decomp = alg._closed_structure(space.basis, 0)[1]
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
        for name in hs_paths + ("_make_algebra", "project_span"):
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
        assert calls[0] == "left_algebra" and "_make_algebra" in calls
