import numpy as np
import pytest

from trocap import algebra as alg
from trocap import entropy as ent
from trocap import matcore as mc
from trocap.errors import BadExponent, DimMismatch, NotHermitian, NotPSD

from helpers import is_hermitian, random_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermEig:
    def test_diagonal(self):
        w, _ = mc.herm_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_identity(self):
        w, v = mc.herm_eig(np.eye(4))
        assert np.allclose(w, np.ones(4))
        assert np.max(np.abs(mc.dagger(v) @ v - np.eye(4))) < 1e-10

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 by hand
        w, v = mc.herm_eig(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])
        assert np.linalg.norm(PAULI_X @ v - v @ np.diag(w)) < 1e-10

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        a = mc.hermitize(mc.random_complex(rng, (6, 6)))
        w, v = mc.herm_eig(a)
        assert np.linalg.norm(a @ v - v @ np.diag(w)) <= 1e-10 * np.linalg.norm(a)
        assert np.max(np.abs(mc.dagger(v) @ v - np.eye(6))) < 1e-10

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            mc.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        a = mc.hermitize(mc.random_complex(rng, (5, 5)))
        w1, v1 = mc.herm_eig(a)
        w2, v2 = mc.herm_eig(a.copy())
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(2)
        stack = mc.hermitize(mc.random_complex(rng, (3, 4, 4)))
        w, v = mc.herm_eig(stack)
        for i, a in enumerate(stack):
            wi, vi = mc.herm_eig(a)
            assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)

    def test_stack_not_hermitian(self):
        # the guard checks every matrix of a stack by the rule of is_hermitian
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        assert not is_hermitian(stack[1])
        with pytest.raises(NotHermitian, match="1.000e"):
            mc.herm_eig(stack)
        tiny = stack.copy()
        tiny[1] = np.array([[1.0, 1e-13], [0.0, 1.0]])
        assert is_hermitian(tiny[1])
        mc.herm_eig(tiny)


class TestMatrixFunctions:
    def test_log2_diagonal(self):
        assert np.allclose(mc.matrix_log2(np.diag([1.0, 2.0, 4.0])), np.diag([0.0, 1.0, 2.0]))

    def test_pinv_power_support(self):
        out = mc.matrix_power(np.diag([4.0, 0.0]), -0.5)
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_power_one_identity(self):
        rng = np.random.default_rng(2)
        rho = mc.random_psd(rng, 4)
        assert np.allclose(mc.matrix_power(rho, 1.0), rho)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            mc.matrix_power(np.diag([1.0, -1.0]), 0.5)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_power_round_trip_and_support_projector(self, alpha):
        rng = np.random.default_rng(3)
        g = mc.random_complex(rng, (5, 3))
        a = g @ mc.dagger(g)  # rank 3 PSD in dim 5
        round_trip = mc.matrix_power(mc.matrix_power(a, alpha), 1.0 / alpha)
        assert np.max(np.abs(round_trip - a)) < 1e-8 * np.linalg.norm(a)
        product = mc.matrix_power(a, alpha) @ mc.matrix_power(a, -alpha)
        assert np.max(np.abs(product - mc.support_projector(a))) < 1e-8


@pytest.mark.parametrize("p, conj", [(1.0, np.inf), (1.5, 3.0), (2.0, 2.0), (4.0, 4.0 / 3.0), (np.inf, 1.0)])
def test_conjugate_exponent(p, conj):
    assert mc.conjugate_exponent(p) == conj


class TestSchattenNorm:
    def test_identity(self):
        assert mc.schatten_norm(np.eye(3), 2.0) == pytest.approx(np.sqrt(3))

    def test_trace_norm(self):
        assert mc.schatten_norm(np.diag([1.0, -2.0]), 1.0) == pytest.approx(3.0)

    def test_frobenius_oracle(self):
        rng = np.random.default_rng(4)
        a = mc.random_complex(rng, (4, 6))
        oracle = np.sqrt(np.sum(np.abs(a) ** 2))
        assert mc.schatten_norm(a, 2.0) == pytest.approx(oracle, rel=1e-12)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            mc.schatten_norm(np.eye(2), 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 4.0, np.inf])
    def test_stack_is_one_value_per_matrix(self, p):
        a = mc.random_complex(np.random.default_rng(6), (2, 3, 4, 5))
        norms = mc.schatten_norm(a, p)
        assert norms.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            single = mc.schatten_norm(a[idx], p)
            assert isinstance(single, float) and norms[idx] == pytest.approx(single, rel=1e-14)
        assert mc.schatten_norm(a[:0], p).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(5, 5), (4, 7), (3, 2, 6, 6), (2, 4, 3)])
    def test_p2_is_the_svd_value_read_from_the_entries(self, monkeypatch, shape):
        a = mc.random_complex(np.random.default_rng(9), shape)
        ref = np.sqrt(np.sum(np.linalg.svd(a, compute_uv=False) ** 2, axis=-1))

        def no_svd(*args, **kwargs):
            raise AssertionError("an SVD at p = 2")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert np.allclose(mc.schatten_norm(a, 2.0), ref, rtol=1e-14, atol=0)
        if shape == (5, 5):  # normalized_p_norm takes one square matrix
            assert mc.normalized_p_norm(a, 2.0) == pytest.approx(ref / np.sqrt(5), rel=1e-14, abs=0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, np.inf])
    def test_unitary_invariance(self, p):
        rng = np.random.default_rng(5)
        a = mc.random_complex(rng, (5, 5))
        u = random_unitary(rng, 5)
        w = random_unitary(rng, 5)
        assert mc.schatten_norm(u @ a @ w, p) == pytest.approx(
            mc.schatten_norm(a, p), rel=1e-9
        )


class TestNormalizedPNorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_identity_is_one(self, p, d):
        assert mc.normalized_p_norm(np.eye(d), p) == pytest.approx(1.0)

    def test_rank_one(self):
        f = np.diag([2.0, 0.0])
        assert mc.normalized_p_norm(f, 1.0) == pytest.approx(1.0)
        assert mc.normalized_p_norm(f, 2.0) == pytest.approx(np.sqrt(2.0))

    def test_infinity_is_operator_norm(self):
        rng = np.random.default_rng(6)
        f = mc.random_psd(rng, 4)
        assert mc.normalized_p_norm(f, np.inf) == pytest.approx(mc.schatten_norm(f, np.inf))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_multiplicative_under_tensor(self, p):
        # the regularization step relies on ||f (x) g|| = ||f|| ||g||
        rng = np.random.default_rng(7)
        f = mc.random_psd(rng, 2)
        g = mc.random_psd(rng, 3)
        lhs = mc.normalized_p_norm(mc.tensor(f, g), p)
        rhs = mc.normalized_p_norm(f, p) * mc.normalized_p_norm(g, p)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 3.0, 4.0])
    def test_schatten_norm_over_the_dimension(self, p):
        # (sum s^p / d)^(1/p) from the singular values, the direct formula
        f = mc.random_complex(np.random.default_rng(15), (5, 5))
        s = np.linalg.svd(f, compute_uv=False)
        assert mc.normalized_p_norm(f, p) == pytest.approx((np.sum(s**p) / 5) ** (1 / p), rel=1e-14, abs=0)


class TestPartialTrace:
    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(mc.partial_trace(rho, (2, 2), "A"), np.eye(2) / 2)

    def test_product(self):
        rng = np.random.default_rng(8)
        a = mc.random_density(rng, 2)
        b = mc.random_density(rng, 3)
        assert np.allclose(mc.partial_trace(mc.tensor(a, b), (2, 3), "A"), a)
        assert np.allclose(mc.partial_trace(mc.tensor(a, b), (2, 3), "B"), b)

    def test_vector_reshaping_oracle(self):
        # tr_B |h><h| equals h h* with h the 2x3 matrix reshaping of the vector
        rng = np.random.default_rng(9)
        h_vec = mc.random_complex(rng, 6)
        rho = np.outer(h_vec, h_vec.conj())
        h_mat = h_vec.reshape(2, 3)
        assert np.allclose(mc.partial_trace(rho, (2, 3), "A"), h_mat @ mc.dagger(h_mat))
        assert np.allclose(mc.partial_trace(rho, (2, 3), "B"), h_mat.T @ h_mat.conj())

    def test_trace_preserved(self):
        rng = np.random.default_rng(10)
        m = mc.random_complex(rng, (6, 6))
        assert np.trace(mc.partial_trace(m, (2, 3), "A")) == pytest.approx(
            np.trace(m), abs=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            mc.partial_trace(np.eye(5), (2, 3), "A")

    def test_tensor_then_trace(self):
        rng = np.random.default_rng(11)
        a = mc.random_complex(rng, (3, 3))
        b = mc.random_complex(rng, (2, 2))
        out = mc.partial_trace(mc.tensor(a, b), (3, 2), "A")
        assert np.max(np.abs(out - np.trace(b) * a)) < 1e-10


class TestTensor:
    def test_identities(self):
        assert np.allclose(mc.tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal(self):
        out = mc.tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(12)
        a = mc.random_complex(rng, (3, 3))
        b = mc.random_complex(rng, (4, 4))
        assert np.trace(mc.tensor(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


class TestPermuteSystems:
    def test_swap_matches_tensor(self):
        rng = np.random.default_rng(13)
        a = mc.random_complex(rng, (2, 2))
        b = mc.random_complex(rng, (3, 3))
        swapped = mc.permute_systems(mc.tensor(a, b), (2, 3), (1, 0))
        assert np.allclose(swapped, mc.tensor(b, a))

    def test_roundtrip(self):
        rng = np.random.default_rng(14)
        m = mc.random_complex(rng, (12, 12))
        once = mc.permute_systems(m, (2, 3, 2), (2, 0, 1))
        back = mc.permute_systems(once, (2, 2, 3), (1, 2, 0))
        assert np.allclose(back, m)


MIS_SHAPED_CALLS = {
    "herm_eig": lambda: mc.herm_eig(np.ones((2, 3))),
    "matrix_power": lambda: mc.matrix_power(np.ones((2, 3)), 0.5),
    "matrix_log2": lambda: mc.matrix_log2(np.ones((2, 3))),
    "von_neumann_entropy": lambda: ent.von_neumann_entropy(np.ones((2, 3)) / 2),
    "entropy_defect": lambda: ent.entropy_defect(np.ones((2, 3)) * 3),  # and not normalized
    "sandwiched_renyi": lambda: ent.sandwiched_renyi(np.eye(2) / 2, np.eye(3) / 3, 2.0),
    "relative_entropy": lambda: ent.relative_entropy(np.eye(2) / 2, np.eye(3) / 3),
    "schatten_norm": lambda: mc.schatten_norm(np.ones(3), 2.0),
    "tensor": lambda: mc.tensor(np.ones(3), np.ones(2)),
    "is_tro": lambda: alg.is_tro([np.eye(2), np.eye(3)]),
}


@pytest.mark.parametrize("name", sorted(MIS_SHAPED_CALLS))
def test_mis_shaped_input_raises_dim_mismatch(name):
    # the package's error, not numpy's ValueError, IndexError or AxisError
    with pytest.raises(DimMismatch):
        MIS_SHAPED_CALLS[name]()
