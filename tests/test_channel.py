import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trocap.channel as chn
from trocap import matcore as mc
from trocap.builders import (
    completely_dephasing_channel,
    group_random_unitary,
    pauli_rep,
    phi_alpha,
    qubit_dephasing,
)
from trocap.entropy import von_neumann_entropy
from trocap.errors import DimMismatch, InvalidSymbol, NotTracePreserving, RankDeficient

from helpers import hs_inner, random_channel, random_pure_state, random_unitary

Z = np.diag([1.0, -1.0]).astype(complex)


class TestFromKraus:
    def test_identity(self):
        ch = chn.from_kraus([np.eye(2)])
        assert (ch.dim_in, ch.dim_out, ch.dim_env) == (2, 2, 1)

    def test_dephasing_pair_on_plus_state(self):
        # direct matrix arithmetic oracle: (|+><+| + Z|+><+|Z)/2 = I/2
        ch = chn.from_kraus([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z])
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.allclose(chn.apply(ch, plus), np.eye(2) / 2)

    def test_not_trace_preserving(self):
        with pytest.raises(NotTracePreserving):
            chn.from_kraus([np.eye(2), np.eye(2)])

    def test_non_finite_entry_not_trace_preserving(self):
        with pytest.raises(NotTracePreserving):
            chn.from_kraus([np.array([[1.0, 0.0], [0.0, np.nan]])])


class TestApply:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        rho = mc.random_density(rng, 3)
        ch = chn.identity_channel(3)
        assert np.allclose(chn.apply(ch, rho), rho)

    def test_complete_dephasing_kills_offdiagonals(self):
        ch = qubit_dephasing(0.0)
        rho = np.array([[0.5, 0.3 + 0.1j], [0.3 - 0.1j, 0.5]])
        assert np.allclose(chn.apply(ch, rho), np.diag([0.5, 0.5]))

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(1)
        ch = random_channel(rng, 3, 4, 2)
        rho = mc.random_density(rng, 3)
        assert np.trace(chn.apply(ch, rho)).real == pytest.approx(1.0, abs=1e-11)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            chn.apply(chn.identity_channel(2), np.eye(3))


class TestComplement:
    def test_identity_channel_scalar(self):
        rng = np.random.default_rng(2)
        rho = mc.random_density(rng, 2)
        out = chn.complement_apply(chn.identity_channel(2), rho)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0)

    def test_dephasing_on_maximally_mixed(self):
        # dilation arithmetic: V|g> = |g>|g>, so tr_B V (I/2) V* = I/2
        ch = completely_dephasing_channel(2)
        assert np.allclose(chn.complement_apply(ch, np.eye(2) / 2), np.eye(2) / 2)

    def test_pure_input_schmidt_symmetry(self):
        rng = np.random.default_rng(3)
        channels = [
            random_channel(rng, 3, 4, 2),
            random_channel(rng, 2, 2, 3),
            qubit_dephasing(0.4),
            phi_alpha(0.6).channel,
        ]
        for ch in channels:
            for _ in range(50):
                rho = random_pure_state(rng, ch.dim_in)
                hb = von_neumann_entropy(chn.apply(ch, rho))
                he = von_neumann_entropy(chn.complement_apply(ch, rho))
                assert abs(hb - he) < 1e-8

    def test_adjoint_maps_are_adjoint(self):
        rng = np.random.default_rng(4)
        ch = random_channel(rng, 3, 4, 2)
        rho = mc.random_complex(rng, (3, 3))
        y = mc.random_complex(rng, (4, 4))
        z = mc.random_complex(rng, (2, 2))
        lhs = hs_inner(y, chn.apply(ch, rho))
        rhs = hs_inner(chn.adjoint_apply(ch, y), rho)
        assert lhs == pytest.approx(rhs)
        lhs = hs_inner(z, chn.complement_apply(ch, rho))
        rhs = hs_inner(chn.complement_adjoint_apply(ch, z), rho)
        assert lhs == pytest.approx(rhs)

    def test_stacks_match_kraus_sums(self):
        # every map takes a single matrix or a stack (R, d, d) and acts on
        # each matrix as the Kraus-sum definitions in its docstring
        rng = np.random.default_rng(5)
        ch = random_channel(rng, 3, 4, 2)
        k = ch.kraus
        rho = mc.random_complex(rng, (5, 3, 3))
        y = mc.random_complex(rng, (5, 4, 4))
        z = mc.random_complex(rng, (5, 2, 2))
        out, env = chn.apply(ch, rho), chn.complement_apply(ch, rho)
        assert out.shape == (5, 4, 4) and env.shape == (5, 2, 2)
        for i in range(5):
            ref_out = sum(k[e] @ rho[i] @ mc.dagger(k[e]) for e in range(2))
            ref_env = [[np.trace(k[b] @ rho[i] @ mc.dagger(k[a])) for b in range(2)] for a in range(2)]
            ref_adj = sum(mc.dagger(k[e]) @ y[i] @ k[e] for e in range(2))
            ref_cadj = sum(z[i, a, b] * mc.dagger(k[b]) @ k[a] for a in range(2) for b in range(2))
            assert np.allclose(out[i], ref_out, atol=1e-12)
            assert np.allclose(env[i], ref_env, atol=1e-12)
            assert np.array_equal(chn.apply(ch, rho[i]), out[i])
            assert np.array_equal(chn.complement_apply(ch, rho[i]), env[i])
            assert np.allclose(chn.adjoint_apply(ch, y)[i], ref_adj, atol=1e-12)
            assert np.allclose(chn.adjoint_apply(ch, y[i]), ref_adj, atol=1e-12)
            assert np.allclose(chn.complement_adjoint_apply(ch, z)[i], ref_cadj, atol=1e-12)
            assert np.allclose(chn.complement_adjoint_apply(ch, z[i]), ref_cadj, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.ones(3), np.eye(5), np.ones((5, 3, 2))])
    def test_stack_maps_check_shapes(self, bad):
        ch = random_channel(np.random.default_rng(5), 3, 4, 2)
        for fn in (chn.apply, chn.complement_apply, chn.adjoint_apply, chn.complement_adjoint_apply):
            with pytest.raises(DimMismatch):
                fn(ch, bad)


MAPS = (chn.apply, chn.complement_apply, chn.adjoint_apply, chn.complement_adjoint_apply)


@st.composite
def isometries(draw):
    """A Haar-random channel with (env, out, in) in 1..4 and out * env >= in,
    and a generator seeded for its operands."""
    e, o = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    i = draw(st.integers(1, min(4, o * e)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_channel(rng, i, o, e), rng


def _operands(ch, rng, count):
    """Stacks of `count` random operands for apply, complement_apply,
    adjoint_apply and complement_adjoint_apply, in that order."""
    dims = (ch.dim_in, ch.dim_in, ch.dim_out, ch.dim_env)
    return [mc.random_complex(rng, (count, d, d)) for d in dims]


class TestKernelPair:
    """The four maps share one sandwich kernel over the Kraus operators, the
    rows A_i[e, k] = K_e[i, k] and the daggers of both."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(drawn=isometries(), count=st.integers(1, 3))
    def test_mixing_the_environment(self, drawn, count):
        # K'_e = sum_f U_ef K_f leaves N alone and rotates N^E to conj(U) C U^T
        ch, rng = drawn
        u = random_unitary(rng, ch.dim_env)
        mixed = chn.Channel(np.tensordot(u, ch.kraus, axes=1))
        rho = np.stack([mc.random_density(rng, ch.dim_in) for _ in range(count)])
        env = chn.complement_apply(ch, rho)
        assert np.max(np.abs(chn.apply(mixed, rho) - chn.apply(ch, rho))) <= 1e-12
        assert np.max(np.abs(chn.complement_apply(mixed, rho) - u.conj() @ env @ u.T)) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(drawn=isometries(), count=st.integers(1, 3))
    def test_adjoint_identities_on_stacks(self, drawn, count):
        ch, rng = drawn
        rho, _, y, z = _operands(ch, rng, count)
        for fwd, adj, w in ((chn.apply, chn.adjoint_apply, y), (chn.complement_apply, chn.complement_adjoint_apply, z)):
            lhs = np.sum(w.conj() * fwd(ch, rho), axis=(-2, -1))
            rhs = np.sum(adj(ch, w).conj() * rho, axis=(-2, -1))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(drawn=isometries(), count=st.integers(1, 4))
    def test_single_matrix_gives_the_bits_of_its_row(self, drawn, count):
        ch, rng = drawn
        for fn, x in zip(MAPS, _operands(ch, rng, count)):
            stacked = fn(ch, x)
            for j in range(count):
                assert np.array_equal(fn(ch, x[j]), stacked[j])

    def test_no_einsum(self, monkeypatch):
        calls, real = [], np.einsum

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        ch = random_channel(np.random.default_rng(7), 3, 4, 2)
        operands = _operands(ch, np.random.default_rng(8), 2)
        monkeypatch.setattr(np, "einsum", counting)
        for fn, x in zip(MAPS, operands):
            fn(ch, x)
            fn(ch, x[0])
        assert calls == []

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (4, 2, 3), (3, 5, 2)])
    def test_adjoints_give_the_bits_of_the_daggered_formula(self, dims):
        # S(A*, y) multiplies the same operands as sum_j A_j* y A_j, so the bits agree
        ch = random_channel(np.random.default_rng(sum(dims)), *dims)
        _, _, y, z = _operands(ch, np.random.default_rng(9), 3)
        rows, z_t = ch.kraus.swapaxes(0, 1), z.swapaxes(-1, -2)
        old = [(mc.dagger(fam) @ w[..., None, :, :] @ fam).sum(-3) for fam, w in ((ch.kraus, y), (rows, z_t))]
        assert np.array_equal(chn.adjoint_apply(ch, y), old[0])
        assert np.array_equal(chn.complement_adjoint_apply(ch, z), old[1])



class TestChoi:
    def test_identity_qubit(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0
        expected = np.outer(psi, psi.conj())  # 2 |psi_2><psi_2| unnormalized
        assert np.allclose(chn.choi(chn.identity_channel(2)), expected)

    def test_depolarizing(self):
        # each N(e_ij) = delta_ij I/2, so the Choi matrix is I_4 / 2
        ch = group_random_unitary(pauli_rep(), [0.25] * 4)
        assert np.allclose(chn.choi(ch), np.eye(4) / 2, atol=1e-12)

    def test_trace_and_marginal(self):
        rng = np.random.default_rng(5)
        ch = random_channel(rng, 3, 2, 4)
        j = chn.choi(ch)
        assert np.trace(j).real == pytest.approx(3.0)
        assert np.allclose(mc.partial_trace(j, (3, 2), "A"), np.eye(3), atol=1e-10)
        assert np.min(np.linalg.eigvalsh(mc.hermitize(j))) > -1e-10

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (2, 3, 5), (4, 4, 1)])
    def test_matches_einsum_formula(self, dims):
        # the reference: blocks[j, l] = N(e_jl), assembled as sum e_jl (x) N(e_jl)
        ch = random_channel(np.random.default_rng(sum(dims)), *dims)
        n = ch.dim_in * ch.dim_out
        blocks = np.einsum("eij,ekl->jlik", ch.kraus, ch.kraus.conj())
        ref = blocks.transpose(0, 2, 1, 3).reshape(n, n)
        assert np.max(np.abs(chn.choi(ch) - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestChoiGap:
    """_choi_gap is the Frobenius norm of the Choi difference, from the Kraus families."""

    @staticmethod
    def dense_gap(a, b):
        return np.linalg.norm(chn.choi(a) - chn.choi(b))

    @pytest.mark.parametrize("dims", [(2, 3, 1, 4), (3, 2, 4, 2), (2, 2, 2, 3), (4, 3, 3, 5), (1, 2, 2, 1)])
    def test_matches_the_dense_norm(self, dims):
        # random channels on the same (in, out) with different environments
        d_in, d_out, e_a, e_b = dims
        rng = np.random.default_rng(sum(dims))
        a, b = random_channel(rng, d_in, d_out, e_a), random_channel(rng, d_in, d_out, e_b)
        ref = self.dense_gap(a, b)
        assert ref > 0.1
        assert abs(chn._choi_gap(a, b) - ref) <= 1e-12 * ref
        assert abs(chn._choi_gap(b, a) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4, 3), (4, 2, 5)])
    def test_environment_unitary_leaves_no_gap(self, dims):
        # K'_e = sum_f U_ef K_f is another Kraus family of the same channel
        ch = random_channel(np.random.default_rng(len(dims) + sum(dims)), *dims)
        u = random_unitary(np.random.default_rng(1), ch.dim_env)
        mixed = chn.Channel(np.tensordot(u, ch.kraus, axes=1))
        assert chn._choi_gap(ch, mixed) <= 1e-13
        assert self.dense_gap(ch, mixed) <= 1e-13

    def test_padded_environment_leaves_no_gap(self):
        ch = random_channel(np.random.default_rng(3), 3, 2, 3)
        padded = chn.Channel(np.concatenate([ch.kraus, np.zeros((2, 2, 3))]))
        assert chn._choi_gap(ch, padded) <= 1e-13

    def test_forms_no_choi_matrix(self, monkeypatch):
        a, b = (random_channel(np.random.default_rng(s), 3, 3, 2) for s in (4, 5))
        ref = self.dense_gap(a, b)
        monkeypatch.setattr(chn, "choi", None)
        assert chn._choi_gap(a, b) == pytest.approx(ref, rel=1e-12)


class TestStinespringSpace:
    def test_non_isometric_dilation_rejected(self):
        ch = chn.Channel(2.0 * completely_dephasing_channel(2).kraus)
        with pytest.raises(RankDeficient, match="not isometric"):
            chn.stinespring_space(ch)

    def test_basis_and_partial_trace_identities(self):
        ch = random_channel(np.random.default_rng(3), 3, 2, 4)
        space = chn.stinespring_space(ch)
        for k, op in enumerate(space.basis):
            assert np.array_equal(op, ch.kraus[:, :, k].T)
        for x in range(3):
            for y in range(3):
                rho = np.zeros((3, 3), dtype=complex)
                rho[x, y] = 1.0
                bx, by = space.basis[x], space.basis[y]
                assert np.allclose(chn.apply(ch, rho), bx @ mc.dagger(by), atol=1e-12)
                assert np.allclose(chn.complement_apply(ch, rho), mc.dagger(by) @ bx, atol=1e-12)

    def test_non_finite_dilation_rejected(self):
        kraus = completely_dephasing_channel(2).kraus.copy()
        kraus[1, 1, 1] = np.nan
        with pytest.raises(RankDeficient, match="not isometric"):
            chn.stinespring_space(chn.Channel(kraus))

    def test_no_einsum(self, monkeypatch):
        # the partial-trace identities hold by construction; only the Gram check runs
        def einsum(*args, **kwargs):
            raise AssertionError("stinespring_space called np.einsum")

        ch = random_channel(np.random.default_rng(5), 3, 2, 4)
        monkeypatch.setattr(np, "einsum", einsum)
        assert chn.stinespring_space(ch).dim == 3

    def test_basis_is_read_only(self):
        space = chn.stinespring_space(random_channel(np.random.default_rng(6), 3, 2, 4))
        for op in space.basis:
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 1.0

    def test_complete_dephasing_is_diagonal(self):
        space = chn.stinespring_space(completely_dephasing_channel(2))
        for op in space.basis:
            off = op - np.diag(np.diagonal(op))
            assert np.max(np.abs(off)) < 1e-12

    def test_identity_channel_full_rank(self):
        space = chn.stinespring_space(chn.identity_channel(3))
        assert space.dim == 3
        assert space.basis[0].shape == (3, 1)

    def test_phi_zero_block_pattern(self):
        # rows: output, cols: environment; block pattern of a (1,2)+(1,1)+(1,1) sum
        space = phi_alpha(0.0).space
        mask = np.zeros((3, 4), dtype=bool)
        mask[0, :2] = mask[1, 2] = mask[2, 3] = True
        for op in space.basis:
            assert np.max(np.abs(op[~mask])) < 1e-12


class TestModifiedChannel:
    def test_identity_symbol_reproduces_channel(self):
        from trocap.algebra import identity_symbol

        ch = completely_dephasing_channel(3)
        space = chn.stinespring_space(ch)
        sym = identity_symbol(ch)
        ch2 = chn.modified_channel(space, sym)
        assert np.max(np.abs(chn.choi(ch2) - chn.choi(ch))) < 1e-10

    def test_dephasing_symbol_gives_weighted_offdiagonals(self):
        from trocap.algebra import validate_symbol

        q = 0.35
        base = completely_dephasing_channel(2)
        space = chn.stinespring_space(base)
        sym = validate_symbol(base, np.array([[1.0, q], [q, 1.0]]))
        ch = chn.modified_channel(space, sym)
        rho = np.array([[0.6, 0.2 - 0.3j], [0.2 + 0.3j, 0.4]])
        expected = np.array([[0.6, q * (0.2 - 0.3j)], [q * (0.2 + 0.3j), 0.4]])
        assert np.allclose(chn.apply(ch, rho), expected)

    def test_rejects_plain_matrix(self):
        space = chn.stinespring_space(completely_dephasing_channel(2))
        with pytest.raises(InvalidSymbol):
            chn.modified_channel(space, np.eye(2))

    def test_rejects_symbol_of_normalized_trace_two(self):
        from trocap.algebra import identity_symbol

        base = completely_dephasing_channel(2)
        sym = chn.Symbol(f=2.0 * np.eye(2), certificate=identity_symbol(base).certificate)
        with pytest.raises(InvalidSymbol, match="normalized trace 2.000000"):
            chn.modified_channel(chn.stinespring_space(base), sym)


class TestTensorChannels:
    def test_identity_tensor_identity(self):
        ch = chn.tensor_channels(chn.identity_channel(2), chn.identity_channel(3))
        rng = np.random.default_rng(6)
        rho = mc.random_density(rng, 6)
        assert np.allclose(chn.apply(ch, rho), rho)

    def test_product_inputs_factorize(self):
        rng = np.random.default_rng(7)
        a = qubit_dephasing(0.3)
        b = qubit_dephasing(0.8)
        ab = chn.tensor_channels(a, b)
        rho = mc.random_density(rng, 2)
        sig = mc.random_density(rng, 2)
        lhs = chn.apply(ab, mc.tensor(rho, sig))
        rhs = mc.tensor(chn.apply(a, rho), chn.apply(b, sig))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_choi_is_permuted_tensor_of_chois(self):
        rng = np.random.default_rng(8)
        a = random_channel(rng, 2, 3, 2)
        b = random_channel(rng, 2, 2, 2)
        lhs = chn.choi(chn.tensor_channels(a, b))
        # reorder (A1 B1 A2 B2) -> (A1 A2 B1 B2)
        rhs = mc.permute_systems(
            mc.tensor(chn.choi(a), chn.choi(b)), (2, 3, 2, 2), (0, 2, 1, 3)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestHeralded:
    def test_lambda_one_uses_first_block(self):
        rng = np.random.default_rng(9)
        a = qubit_dephasing(0.2)
        b = chn.identity_channel(2)
        ch = chn.heralded_channel(a, b, 1.0)
        rho = mc.random_density(rng, 2)
        out = chn.apply(ch, rho)
        assert np.max(np.abs(out[2:, 2:])) < 1e-12
        assert np.allclose(out[:2, :2], chn.apply(a, rho))

    def test_half_identity(self):
        rng = np.random.default_rng(10)
        rho = mc.random_density(rng, 2)
        ch = chn.heralded_channel(chn.identity_channel(2), chn.identity_channel(2), 0.5)
        out = chn.apply(ch, rho)
        assert np.allclose(out[:2, :2], rho / 2)
        assert np.allclose(out[2:, 2:], rho / 2)

    def test_trace_preserving_random(self):
        rng = np.random.default_rng(11)
        a = random_channel(rng, 3, 2, 2)
        b = random_channel(rng, 3, 4, 3)
        for lam in (0.0, 0.37, 1.0):
            ch = chn.heralded_channel(a, b, lam)
            rho = mc.random_density(rng, 3)
            assert np.trace(chn.apply(ch, rho)).real == pytest.approx(1.0, abs=1e-11)

    def test_input_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            chn.heralded_channel(chn.identity_channel(2), chn.identity_channel(3), 0.5)

    def test_matches_operator_loop(self):
        rng = np.random.default_rng(12)
        a, b = random_channel(rng, 3, 2, 2), random_channel(rng, 3, 4, 3)
        ops = []
        for k in a.kraus:
            ops.append(np.zeros((6, 3), dtype=complex))
            ops[-1][:2] = np.sqrt(0.3) * k
        for k in b.kraus:
            ops.append(np.zeros((6, 3), dtype=complex))
            ops[-1][2:] = np.sqrt(0.7) * k
        assert np.array_equal(chn.heralded_channel(a, b, 0.3).kraus, np.stack(ops))
