import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trocap.entropy as ent
from trocap import matcore as mc
from trocap.builders import group_random_unitary, pauli_rep, qubit_dephasing
from trocap.errors import BadExponent, DimMismatch, NotNormalized, NotState, OutOfRange

from helpers import (
    ancilla_output,
    crawling_state,
    loop_minimize,
    polish_state,
    random_channel,
    random_pure_state,
    random_unitary,
    restart_gaps,
    scipy_density_search,
    thin_draw,
    third_thin_draw,
)

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)


def classical_renyi(r, s, p):
    return (1.0 / (p - 1.0)) * np.log2(np.sum(r**p * s ** (1.0 - p)))


def classical_conditional_grid(probs, p, step=1e-3):
    """Dense grid over diagonal sigma for classical-classical qubit pairs."""
    best = math.inf
    for sv in np.arange(step, 1.0, step):
        q = np.array([sv, 1.0 - sv])
        best = min(best, (1.0 / (p - 1.0)) * np.log2(np.sum(probs**p * q[None, :] ** (1 - p))))
    return -best


class TestBinaryEntropy:
    def test_endpoints(self):
        assert ent.binary_entropy(0.0) == 0.0
        assert ent.binary_entropy(1.0) == 0.0

    def test_half(self):
        assert ent.binary_entropy(0.5) == pytest.approx(1.0)

    def test_three_quarters(self):
        assert ent.binary_entropy(0.75) == pytest.approx(0.8112781244591328)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            ent.binary_entropy(1.2)


class TestVonNeumann:
    def test_maximally_mixed(self):
        assert ent.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_pure_state(self):
        rng = np.random.default_rng(0)
        assert ent.von_neumann_entropy(random_pure_state(rng, 5)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_binary_diagonal(self):
        assert ent.von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(
            ent.binary_entropy(0.25)
        )

    def test_not_state(self):
        with pytest.raises(NotState):
            ent.von_neumann_entropy(np.eye(2))

    def test_unit_trace_with_a_negative_eigenvalue_is_not_a_state(self):
        with pytest.raises(NotState, match="negative eigenvalue"):
            ent.check_state(np.diag([1.0 + 1e-6, -1e-6]))

    def test_trace_off_by_more_than_state_tol_is_not_a_state(self):
        ent.check_state(np.diag([0.5, 0.5 + ent.STATE_TOL / 2]))
        with pytest.raises(NotState, match="trace"):
            ent.check_state(np.diag([0.5, 0.5 + 2 * ent.STATE_TOL]))

    def test_rank_deficient_matches_support_sum(self):
        # the off-support eigenvalues enter the sum as zeros, which may move
        # the last bits against a sum over the support alone (numpy sums
        # spectra of length 8 or more pairwise), never more
        rng = np.random.default_rng(7)
        for rank in (1, 3, 6):
            g = mc.random_complex(rng, (8, rank))
            rho = g @ mc.dagger(g)
            rho /= np.trace(rho).real
            w = np.linalg.eigvalsh(mc.hermitize(rho))
            lam = w[w > mc.SUPPORT_CUTOFF * w.max()]
            assert lam.size == rank
            ref = float(-np.sum(lam * np.log2(lam)))
            assert ent.von_neumann_entropy(rho) == pytest.approx(ref, rel=1e-14, abs=1e-15)

    def test_spectral_entropy_of_a_stack(self):
        rng = np.random.default_rng(8)
        w = np.sort(rng.random((4, 6)), axis=-1)
        w[1, :3] = 0.0  # rank deficient
        w[2, 0] = -1e-17  # roundoff below zero is clipped
        w /= w.sum(axis=-1, keepdims=True)
        stack = ent.spectral_entropy(w)
        for i in range(4):
            assert stack[i] == ent.spectral_entropy(w[i])
            lam = w[i][w[i] > 0]
            assert stack[i] == pytest.approx(-np.sum(lam * np.log2(lam)), rel=1e-14)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(1)
        rho = mc.random_density(rng, 3)
        assert ent.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_maximally_mixed(self):
        assert ent.relative_entropy(E00, np.eye(2) / 2) == pytest.approx(1.0)

    def test_support_violation_is_infinite(self):
        assert ent.relative_entropy(E00, E11) == math.inf


class TestSandwichedRenyi:
    def test_self_zero(self):
        rng = np.random.default_rng(2)
        rho = mc.random_density(rng, 4)
        for p in (1.5, 2.0, math.inf):
            assert ent.sandwiched_renyi(rho, rho, p) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_commuting_matches_classical(self, p):
        r = np.array([0.7, 0.3])
        s = np.array([0.5, 0.5])
        val = ent.sandwiched_renyi(np.diag(r), np.diag(s), p)
        assert val == pytest.approx(classical_renyi(r, s, p), abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        assert ent.sandwiched_renyi(E00, np.eye(2) / 2, 2.0) == pytest.approx(1.0)

    def test_support_violation(self):
        assert ent.sandwiched_renyi(E00, E11, 2.0) == math.inf

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            ent.sandwiched_renyi(E00, np.eye(2) / 2, 1.0)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(3)
        grid = (1.2, 1.5, 2.0, 3.0, 5.0)
        for _ in range(20):
            rho = mc.random_density(rng, 3)
            sigma = mc.random_density(rng, 3)
            vals = [ent.sandwiched_renyi(rho, sigma, p) for p in grid]
            assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))

    def test_data_processing(self):
        from trocap.channel import apply

        rng = np.random.default_rng(4)
        for _ in range(50):
            ch = random_channel(rng, 3, 3, 2)
            rho = mc.random_density(rng, 3)
            sigma = mc.random_density(rng, 3)
            for p in (1.5, 2.0, 4.0):
                before = ent.sandwiched_renyi(rho, sigma, p)
                after = ent.sandwiched_renyi(apply(ch, rho), apply(ch, sigma), p)
                assert after <= before + 1e-8

    def test_limit_to_relative_entropy(self):
        rng = np.random.default_rng(5)
        rho = mc.random_density(rng, 3)
        sigma = mc.random_density(rng, 3)
        d1 = ent.relative_entropy(rho, sigma)
        assert ent.sandwiched_renyi(rho, sigma, 1.001) == pytest.approx(d1, abs=5e-3)


class TestCoherentMutual:
    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert ent.coherent_information(rho, (2, 2)) == pytest.approx(1.0, abs=1e-10)
        assert ent.mutual_information(rho, (2, 2)) == pytest.approx(2.0, abs=1e-10)

    def test_product_state(self):
        rng = np.random.default_rng(6)
        a = mc.random_density(rng, 2)
        b = mc.random_density(rng, 3)
        rho = mc.tensor(a, b)
        assert ent.coherent_information(rho, (2, 3)) == pytest.approx(
            -ent.von_neumann_entropy(a), abs=1e-10
        )
        assert ent.mutual_information(rho, (2, 3)) == pytest.approx(0.0, abs=1e-10)

    def test_each_matrix_is_decomposed_once(self, monkeypatch):
        # the state check's spectrum of rho_AB is the one its entropy reads: three
        # decompositions (AB, A, B) where there were four, with the same bits
        rhos = np.array([mc.random_density(np.random.default_rng((5, i)), 6) for i in range(4)])
        mats = (rhos, *(mc.partial_trace(rhos, (2, 3), k) for k in "AB"))
        expected = [ent.spectral_entropy(mc.herm_eig(m).eigenvalues) for m in mats]
        real, shapes = mc.herm_eig, []

        def counted(a, *args):
            shapes.append(np.shape(a))
            return real(a, *args)

        monkeypatch.setattr(mc, "herm_eig", counted)
        got = ent.bipartite_entropies(rhos, (2, 3))
        assert shapes == [(4, 6, 6), (4, 2, 2), (4, 3, 3)]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        shapes.clear()
        assert ent.von_neumann_entropy(rhos[0]) == ent.spectral_entropy(real(rhos[0]).eigenvalues) and len(shapes) == 1

    def test_classically_correlated(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert ent.coherent_information(rho, (2, 2)) == pytest.approx(0.0, abs=1e-12)
        assert ent.mutual_information(rho, (2, 2)) == pytest.approx(1.0, abs=1e-12)


class TestConditionalRenyi:
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_classical_grid_oracle(self, p):
        rng = np.random.default_rng(7)
        probs = rng.random((2, 2))
        probs /= probs.sum()
        hp, sigma = ent.conditional_renyi(np.diag(probs.reshape(-1)), (2, 2), p)
        assert hp == pytest.approx(classical_conditional_grid(probs, p), abs=1e-4)
        assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-9)

    def test_classical_closed_form(self):
        # optimal sigma_b ~ (sum_a r_ab^p)^(1/p) gives an exact reference value
        rng = np.random.default_rng(8)
        probs = rng.random((3, 2))
        probs /= probs.sum()
        p = 2.0
        probs_ab = probs.T  # rows indexed by A; the B index is the fast one
        hp, _ = ent.conditional_renyi(np.diag(probs_ab.reshape(-1)).astype(complex), (2, 3), p)
        col = np.sum(probs_ab**p, axis=0) ** (1.0 / p)
        exact = -(p / (p - 1.0)) * np.log2(np.sum(col))
        assert hp == pytest.approx(exact, abs=1e-9)

    def test_product_with_classical_a(self):
        rng = np.random.default_rng(9)
        ra = np.array([0.8, 0.2])
        rho = mc.tensor(np.diag(ra), mc.random_density(rng, 2))
        hp, _ = ent.conditional_renyi(rho, (2, 2), 2.0)
        renyi_a = (1.0 / (1.0 - 2.0)) * np.log2(np.sum(ra**2.0))
        assert hp == pytest.approx(renyi_a, abs=1e-9)

    def test_maximally_mixed(self):
        assert ent.conditional_renyi(np.eye(6) / 6, (2, 3), 2.0).value == pytest.approx(
            1.0, abs=1e-9
        )

    def test_limit_to_von_neumann(self):
        rng = np.random.default_rng(10)
        rho = mc.random_density(rng, 4)
        hab = ent.von_neumann_entropy(rho)
        hb = ent.von_neumann_entropy(mc.partial_trace(rho, (2, 2), "B"))
        for p, tol in ((1.01, 2e-2), (1.001, 2e-3)):
            hp, _ = ent.conditional_renyi(rho, (2, 2), p)
            assert hp == pytest.approx(hab - hb, abs=tol)

    def test_restriction_to_range_algebra_matches(self):
        # for outputs of the reference channel the infimum is attained inside
        # the channel's range algebra, so restricting cannot change the value
        from functools import partial

        from trocap import algebra as alg

        ch = qubit_dephasing(0.0)
        space = ch.base_space
        lalg = alg.left_algebra(space)
        rng = np.random.default_rng(11)
        rho = mc.random_density(rng, 4)
        omega = ancilla_output(ch, rho)
        free = ent.conditional_renyi(omega, (2, 2), 2.0).value
        restricted = ent.conditional_renyi(
            omega, (2, 2), 2.0, project=partial(alg.conditional_expectation, lalg)
        ).value
        assert restricted == pytest.approx(free, abs=1e-7)


def thin_marginal_state():
    """Seeded 2x3 state whose B marginal has one eigenvalue of about 2e-3.  A
    fixed-step fixed point ends in a 2-cycle here and runs all its rounds; the
    monotone step control fixes it within 20 rounds at p = 2 and 4."""
    rng = np.random.default_rng(0)
    g = mc.random_complex(rng, (6, 6))
    g = g @ mc.dagger(g)
    g /= np.trace(g).real
    keep = np.kron(np.eye(2), np.diag([1.0, 1.0, 0.0]))
    rho0 = keep @ g @ keep
    return (1 - 2e-3) * rho0 / np.trace(rho0).real + 2e-3 * g


class TestRenyiConvergedFlag:
    def _run(self, monkeypatch, patch=None):
        real, results = ent._lbfgs, []

        def recording_lbfgs(*args):
            res = real(*args)
            results.append(res if patch is None else patch(res, args))
            return results[-1]

        monkeypatch.setattr(ent, "_lbfgs", recording_lbfgs)
        rho = polish_state()
        assert np.min(np.linalg.eigvalsh(mc.partial_trace(rho, (2, 3), "B"))) < 3e-3
        return ent.minimize_renyi_divergence(rho, (2, 3), 4.0), results

    def test_fixed_point_met_tol(self):
        opt = ent.minimize_renyi_divergence(np.eye(6) / 6, (2, 3), 2.0)
        assert opt.converged and opt.iterations < 400

    def test_returned_polish_is_not_converged(self, monkeypatch):
        # the polish lowers the value and its sigma is returned, yet only the
        # fixed point's own stop test sets the flag, and it did not pass
        opt, results = self._run(monkeypatch)
        assert opt.iterations == 400 and len(results) == 1  # the fallback ran
        assert results[0][0] == opt.value and not opt.converged

    @pytest.mark.parametrize("maxiter", [1, 120, 10_000])
    def test_optimizer_stop_is_not_read(self, monkeypatch, maxiter):
        # the polish ends on its iteration cap (1) or on its own stop rule (at
        # 120, the fallback's cap, it ends where it ends at 10000); the flag
        # is False either way, as only the fixed point's stop test sets it
        real, ends = ent._lbfgs, []

        def capped(fun, x, _, floor):
            ends.append(real(fun, x, maxiter, floor))
            return ends[-1]

        reference, _ = self._run(monkeypatch)
        monkeypatch.setattr(ent, "_lbfgs", capped)
        opt = ent.minimize_renyi_divergence(polish_state(), (2, 3), 4.0)
        assert len(ends) == 1 and opt.iterations == 400 and opt.converged is False
        if maxiter > 1:
            assert opt.value == reference.value and np.array_equal(opt.sigma, reference.sigma)

    def test_fallback_that_improves_nothing_is_not_converged(self, monkeypatch):
        # the polish stays at its start, so the fixed point's iterate is
        # returned, not converged, whatever the "polish" reports
        def stay(res, args):
            return args[0](args[1])[0], args[1]

        opt, results = self._run(monkeypatch, stay)
        assert opt.iterations == 400 and len(results) == 1
        assert not opt.converged


class TestMonotoneStepControl:
    def _run(self, monkeypatch, rho, p):
        real, values = ent._evaluate, []

        def recording(p, rho, sigma, grads=False):
            out = real(p, rho, sigma, grads)
            values.append(float(out[0][0]))
            return out

        monkeypatch.setattr(ent, "_evaluate", recording)
        opt = ent._RenyiStack(rho[None], (2, 3), p).minimize()
        monkeypatch.undo()
        return opt, values

    def test_false_convergence_state_reaches_its_polish(self, monkeypatch):
        # a fixed step of 0.225 reported converged after 138 iterations here,
        # 2.6e-4 above the minimum
        opt, values = self._run(monkeypatch, third_thin_draw(1e-2), 4.0)
        assert opt.converged[0] and opt.iterations[0] == len(values) - 1  # one step per round
        accepted = values[:1]
        for v in values[1:]:
            if v <= accepted[-1]:
                accepted.append(v)
        assert opt.value[0] == accepted[-1] == min(values)
        polish = opt._fallback(slice(0, 1), np.inf, opt.sigma[0])[0]
        assert opt.value[0] - polish < 1e-9

    def test_state_at_its_optimum_is_fixed_after_two_flat_rounds(self, monkeypatch):
        # the maximally mixed state starts at its minimizer 1/3: every
        # candidate is flat, and the second flat round fixes the item
        opt, values = self._run(monkeypatch, np.eye(6, dtype=complex) / 6, 2.0)
        assert opt.converged[0] and opt.iterations[0] == 2 and len(values) == 3
        assert opt.value[0] == pytest.approx(-1.0, abs=1e-12)


class TestConditionalRenyiInvariance:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        thin=st.booleans(),
        eps=st.sampled_from([1e-2, 1e-4, 1e-6]),
        p=st.sampled_from([1.5, 2.0, 4.0]),
        log_c=st.floats(-3.0, 3.0),
    )
    def test_local_unitaries_and_rescaled_k(self, seed, thin, eps, p, log_c):
        rng = np.random.default_rng(seed)
        dims = (2, 3)
        rho = thin_draw(rng, dims, eps) if thin else mc.random_density(rng, 6)
        u = mc.tensor(random_unitary(rng, 2), random_unitary(rng, 3))
        h = ent.conditional_renyi(rho, dims, p).value
        rotated = ent.conditional_renyi(mc.hermitize(u @ rho @ mc.dagger(u)), dims, p).value
        assert rotated == pytest.approx(h, abs=1e-9)
        # D_p(rho || c K (x) sigma) = D_p(rho || K (x) sigma) - log2 c
        k_a = mc.partial_trace(rho, dims, "A")
        i_p = ent.minimize_renyi_divergence(rho, dims, p, k_a=k_a).value
        scaled = ent.minimize_renyi_divergence(rho, dims, p, k_a=2.0**log_c * k_a).value
        assert scaled + log_c == pytest.approx(i_p, abs=1e-9)


class TestS1SpNorm:
    def test_pure_product_is_one(self):
        rng = np.random.default_rng(12)
        rho = mc.tensor(random_pure_state(rng, 2), random_pure_state(rng, 2))
        assert ent.s1_sp_norm(rho, (2, 2), 2.0) == pytest.approx(1.0, abs=1e-8)

    def test_product_of_maximally_mixed(self):
        # H_p(A|B) = log2 |A| pushes the norm to |A|^(1/p - 1)
        rho = np.eye(4) / 4
        for p in (1.5, 2.0):
            expected = 2.0 ** (-1.0 / (p / (p - 1.0)))
            assert ent.s1_sp_norm(rho, (2, 2), p) == pytest.approx(expected, abs=1e-9)

    def test_conditional_entropy_monotone_in_p(self):
        # D_p nondecreasing in p makes H_p(A|B) nonincreasing in p; the norm
        # itself changes direction with the sign of H_p, so the entropy is
        # the quantity to check
        rng = np.random.default_rng(13)
        for _ in range(5):
            rho = mc.random_density(rng, 4)
            h15 = ent.conditional_renyi(rho, (2, 2), 1.5).value
            h30 = ent.conditional_renyi(rho, (2, 2), 3.0).value
            assert h30 <= h15 + 1e-8


class TestRenyiCoherentInformation:
    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert ent.renyi_coherent_information(rho, (2, 2), 2.0) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_product_state_negative(self):
        ra = np.array([0.6, 0.4])
        rng = np.random.default_rng(14)
        rho = mc.tensor(np.diag(ra), mc.random_density(rng, 2))
        renyi_a = (1.0 / (1.0 - 2.0)) * np.log2(np.sum(ra**2.0))
        assert ent.renyi_coherent_information(rho, (2, 2), 2.0) == pytest.approx(
            -renyi_a, abs=1e-8
        )

    def test_limit_to_coherent_information(self):
        rng = np.random.default_rng(15)
        rho = mc.random_density(rng, 4)
        ic = ent.coherent_information(rho, (2, 2))
        assert ent.renyi_coherent_information(rho, (2, 2), 1.001) == pytest.approx(
            ic, abs=2e-3
        )


class TestRenyiMutualInformation:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_product_state_has_none(self, p):
        rng = np.random.default_rng(16)
        rho = mc.tensor(mc.random_density(rng, 2), mc.random_density(rng, 3))
        assert ent.renyi_mutual_information(rho, (2, 3), p) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_entangled_has_twice_log_d(self, d, p):
        psi = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
        rho = np.outer(psi, psi.conj())
        assert ent.renyi_mutual_information(rho, (d, d), p) == pytest.approx(2 * math.log2(d), abs=1e-8)


class TestKernelSupport:
    def test_k_missing_the_a_marginal_is_infinite(self):
        # Q = 0 gave -inf, then NaN, then a LinAlgError from eigh
        rho = np.kron(E00, np.eye(2) / 2)
        opt = ent.minimize_renyi_divergence(rho, (2, 2), 2.0, k_a=E11)
        assert opt.value == math.inf and opt.converged and opt.iterations == 0
        assert np.array_equal(opt.sigma, np.eye(2) / 2)

    def test_k_missing_the_a_marginal_builds_no_stack(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built a stack for an infinite divergence")

        monkeypatch.setattr(ent, "_RenyiStack", never)
        opt = ent.minimize_renyi_divergence(np.kron(E00, np.eye(2) / 2), (2, 2), 2.0, k_a=E11)
        assert opt.value == math.inf and np.array_equal(opt.sigma, np.eye(2) / 2)

    def test_k_covering_the_a_marginal_is_finite(self):
        rho = np.kron(E00, np.eye(2) / 2)
        opt = ent.minimize_renyi_divergence(rho, (2, 2), 2.0, k_a=E00)
        assert opt.value == pytest.approx(0.0, abs=1e-9) and opt.converged


class TestLeakPenalty:
    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_leak_from_the_b_marginal_is_the_a_b_formula(self, p):
        # a thin stack: sigma of rank 2 of 3 against full-rank states, and
        # one state inside its support; the reference is tr((1 (x) off) rho)
        rng = np.random.default_rng(11)
        rhos = np.array([mc.random_density(rng, 6) for _ in range(4)] + [third_thin_draw(0.0)])
        stack = ent._RenyiStack(rhos, (2, 3), p)
        sigma = np.array([mc.random_density(rng, 3) for _ in range(5)])
        w, v = np.linalg.eigh(sigma)
        sigma, off = (v[..., 1:] * w[:, None, 1:]) @ mc.dagger(v[..., 1:]), v[..., :1] @ mc.dagger(v[..., :1])
        on = np.arange(3) < 2  # the last state's B support (thin_draw)
        sigma[4], off[4] = np.diag(on / 2), np.diag(~on)
        value = ent._evaluate(p, stack.rho, sigma)[0]
        leak = np.trace(mc.tensor(np.eye(2), off) @ stack.rho, axis1=1, axis2=2).real
        assert leak[4] == 0 and leak[:4].min() > 1e-3
        assert np.allclose(value[:4], 1e3 + 1e6 * leak[:4], rtol=1e-12, atol=0)
        assert abs(value[4]) < 1e3


def _stack_at_two(kind, form, n=3):
    """A seeded stack on 2 x 3 for the p = 2 kernel: (rho, k_pow, sigma).  ``kind``:
    full-rank rho and sigma; pure rho (s of rank 1); or full-rank rho against a sigma of
    rank 2 of 3, so the leak penalty fires.  ``form``: K = 1 or K = rho_A."""
    rng = np.random.default_rng(41)
    if kind == "pure":
        psi = mc.random_complex(rng, (n, 6, 1))
        rhos = psi @ mc.dagger(psi) / np.sum(np.abs(psi) ** 2, axis=(1, 2))[:, None, None]
    else:
        rhos = np.array([mc.random_density(rng, 6) for _ in range(n)])
    sigma = np.array([mc.random_density(rng, 3) + np.eye(3) / 3 for _ in range(n)]) / 2  # eigenvalues >= 1/6
    if kind == "thin_sigma":
        w, v = np.linalg.eigh(sigma)
        sigma = mc.hermitize((v[..., 1:] * w[:, None, 1:]) @ mc.dagger(v[..., 1:]))
    k = np.broadcast_to(np.eye(2), (n, 2, 2)) if form == "K = 1" else mc.partial_trace(rhos, (2, 3), "A")
    return rhos, mc.matrix_power(k, -0.25), sigma  # K^(-1/2p'), p' = 2


def _folded(rhos, k_pow):
    """(K^c (x) 1) rho (K^c (x) 1) on 2 x 3, the state the kernel takes for D_p(rho || K (x) sigma)."""
    fold = mc.tensor(k_pow, np.eye(3))
    return fold @ rhos @ fold


class TestKernelAtTwo:
    """_evaluate at p = 2, where s = a rho a enters by matrix products, on the folded
    state, against the spectral formulas of every other exponent with K explicit,
    written out item by item."""

    @staticmethod
    def _spectral(rho, k_pow, sigma):
        """Value, target and grad_sigma of D_2(rho || K (x) sigma) from the eigh of s: Q =
        sum w^2, the target tr_A[V diag(w^2) V*], x = a V diag(w) V* p'/(Q ln 2), grad_sigma
        by the divided differences of sigma^c, c = -1/4, on sigma's support, and the value
        1e3 + 1e6 tr((K^2c (x) P_off) rho) where rho leaves that support."""
        c, dims = -0.25, (2, 3)
        w, v = np.linalg.eigh(sigma)
        on = w > 1e-10 * w.max()
        a = np.kron(k_pow, (v[:, on] * w[on] ** c) @ v[:, on].conj().T)
        ws, vs = np.linalg.eigh(mc.hermitize(a @ rho @ a))
        q = np.sum(ws**2)
        leak = np.trace(np.kron(k_pow @ k_pow, v[:, ~on] @ v[:, ~on].conj().T) @ rho).real
        value = 1e3 + 1e6 * leak if leak > 1e-12 else math.log2(q)
        target = mc.partial_trace((vs * ws**2) @ vs.conj().T, dims, "B")
        x = a @ (vs * ws) @ vs.conj().T * 2 / (q * math.log(2))
        z = rho @ x
        y = mc.partial_trace(np.kron(k_pow, np.eye(3)) @ (z + z.conj().T), dims, "B")
        wi, wj = w[:, None], w[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = np.where(wi != wj, (wi**c - wj**c) / (wi - wj), c * wi ** (c - 1))
        gamma = np.where(on[:, None] & on[None, :], gamma, 0)
        grad_sigma = v @ (gamma * (v.conj().T @ y @ v)) @ v.conj().T
        return value, target, mc.hermitize(grad_sigma)

    @pytest.mark.parametrize("form", ["K = 1", "K = rho_A"])
    @pytest.mark.parametrize("kind", ["full_rank", "pure", "thin_sigma"])
    def test_products_match_the_spectral_formulas(self, kind, form):
        rhos, k_pow, sigma = _stack_at_two(kind, form)
        value, target = ent._evaluate(2.0, _folded(rhos, k_pow), sigma)
        grad_value, grad_sigma = ent._evaluate(2.0, _folded(rhos, k_pow), sigma, grads=True)
        assert np.array_equal(value, grad_value)
        for i, (rho, kp, sg) in enumerate(zip(rhos, k_pow, sigma)):
            ref = self._spectral(rho, kp, sg)
            assert (ref[0] > 1e3) == (kind == "thin_sigma")
            assert abs(value[i] - ref[0]) <= 1e-13 * abs(ref[0])
            for got, want in zip((target[i], grad_sigma[i]), ref[1:]):
                assert mc.frobenius(got - want) <= 1e-13 * mc.frobenius(want)

    @pytest.mark.parametrize("grads", [False, True])
    @pytest.mark.parametrize("p, calls", [(2.0, 1), (1.5, 2)])
    def test_eigh_calls_per_evaluation(self, monkeypatch, p, calls, grads):
        # sigma's eigh always; the sandwich's only off p = 2
        rhos, k_pow, sigma = _stack_at_two("full_rank", "K = rho_A")
        rhos = _folded(rhos, k_pow)
        real, seen = np.linalg.eigh, []

        def counting(a, *args, **kwargs):
            seen.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        ent._evaluate(p, rhos, sigma, grads)
        assert seen == [(3, 3, 3), (3, 6, 6)][:calls]


class TestKernelOffTwo:
    """_evaluate off p = 2, where Q and the target come from the spectrum of s = a rho a
    (sum w^p, tr_A[V w^p V*]), against the s^(p-1) s forms of a dense eigh, item by item."""

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_spectral_power_matches_the_product_forms(self, p):
        rhos, _, sigma = _stack_at_two("full_rank", "K = 1")
        value, target = ent._evaluate(p, rhos, sigma)
        for i, (rho, sg) in enumerate(zip(rhos, sigma)):
            w, v = np.linalg.eigh(sg)
            a = np.kron(np.eye(2), (v * w ** (-0.5 * (p - 1) / p)) @ v.conj().T)
            s = mc.hermitize(a @ rho @ a)
            ws, vs = np.linalg.eigh(s)
            s_pm1 = (vs * np.clip(ws, 0, None) ** (p - 1)) @ vs.conj().T
            q = np.trace(s_pm1 @ s).real
            assert value[i] == pytest.approx(math.log2(q) / (p - 1), rel=0, abs=1e-13)
            want = mc.partial_trace(s_pm1 @ s, (2, 3), "B")
            assert mc.frobenius(target[i] - want) <= 1e-13 * mc.frobenius(want)


class TestThinOnlyCut:
    @staticmethod
    def _mixed_stack():
        # items 0 and 2 have a full-rank B marginal, item 1 one of rank 2 of 3
        rng = np.random.default_rng(43)
        rhos = np.array([mc.random_density(rng, 6), third_thin_draw(0.0), mc.random_density(rng, 6)])
        sigma = mc.hermitize(mc.random_complex(rng, (3, 3, 3)))
        return ent._RenyiStack(rhos, (2, 3), 2.0), sigma

    def test_projector_is_the_exact_identity_on_full_support(self):
        stack, _ = self._mixed_stack()
        assert stack.thin.tolist() == [False, True, False]
        assert np.array_equal(stack.proj[[0, 2]], np.broadcast_to(np.eye(3), (2, 3, 3)))
        assert np.linalg.matrix_rank(stack.proj[1]) == 2

    @pytest.mark.parametrize("idx", [slice(None), np.array([0, 1, 2]), np.array([1, 2])])
    def test_feasible_cuts_only_the_thin_items(self, idx):
        stack, sigma = self._mixed_stack()
        before = sigma.copy()
        got = stack._feasible(idx, sigma[idx])
        assert np.array_equal(sigma, before)  # the caller's sigma is left as it was
        for j, i in enumerate(np.arange(3)[idx]):
            if i == 1:
                p = stack.proj[1]
                assert np.allclose(got[j], p @ sigma[1] @ p, rtol=0, atol=1e-15)
                assert not np.allclose(got[j], sigma[1])
            else:
                assert np.array_equal(got[j], sigma[i])


PRIVATE_EXPONENT_CALLS = {
    "sandwiched_renyi": lambda p: ent.sandwiched_renyi(np.eye(4) / 4, np.eye(4) / 4, p),
    "minimize_renyi_divergence": lambda p: ent.minimize_renyi_divergence(np.eye(4) / 4, (2, 2), p),
    "conditional_renyi": lambda p: ent.conditional_renyi(np.eye(4) / 4, (2, 2), p),
    "renyi_coherent_information": lambda p: ent.renyi_coherent_information(np.eye(4) / 4, (2, 2), p),
    "renyi_mutual_information": lambda p: ent.renyi_mutual_information(np.eye(4) / 4, (2, 2), p),
    "s1_sp_norm": lambda p: ent.s1_sp_norm(np.eye(4) / 4, (2, 2), p),
    "renyi_coherent_channel": lambda p: __import__("trocap.capacity").capacity.renyi_coherent_channel(
        qubit_dephasing(0.3), p
    ),
}


@pytest.mark.parametrize("p", [1.0, 0.75, 0.5])
@pytest.mark.parametrize("name", sorted(PRIVATE_EXPONENT_CALLS))
def test_exponents_below_one_stay_private(name, p):
    # only the dual kernel of renyi_coherent_channel takes exponents in
    # [1/2, 1); no public function accepts p <= 1
    with pytest.raises(BadExponent):
        PRIVATE_EXPONENT_CALLS[name](p)


class TestProjectOnAllOfB:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_thin_marginal_stays_in_the_projected_domain(self, p):
        # rho = rho_A (x) |0><0| and E onto span{1, X}: the feasible sigma are
        # (1 + x X)/2, conjugation by Z fixes rho and flips x, so by convexity
        # the restricted infimum sits at x = 0.  A support cut after E would
        # return sigma = |0><0|, outside E's range and 1 bit below it
        x_op = np.array([[0, 1], [1, 0]], dtype=complex)

        def expect(s):
            return (np.trace(s) * np.eye(2) + np.trace(x_op @ s) * x_op) / 2

        rho = np.kron(mc.random_density(np.random.default_rng(0), 2), E00)
        sigmas = [(np.eye(2) + x * x_op) / 2 for x in np.arange(-9, 10) / 10]
        grid = [ent.sandwiched_renyi(rho, np.kron(np.eye(2), s), p) for s in sigmas]
        infimum = grid[9]
        assert infimum == min(grid)
        if p == 2.0:
            assert infimum == pytest.approx(0.6913656991598746, abs=1e-12)
        opt = ent.minimize_renyi_divergence(rho, (2, 2), p, project=expect)
        assert mc.frobenius(opt.sigma - expect(opt.sigma)) <= 1e-12
        assert opt.value == pytest.approx(infimum, abs=1e-9)


class TestSigmaCandidates:
    def test_candidate_reaches_improve_after_one_round(self, monkeypatch):
        rng = np.random.default_rng(17)
        rho = mc.random_density(rng, 6)
        full = ent.minimize_renyi_divergence(rho, (2, 3), 2.0)
        calls, real_improve = [], ent._RenyiStack.improve

        def spy(self, sigmas):
            calls.append(sigmas)
            return real_improve(self, sigmas)

        monkeypatch.setattr(ent._RenyiStack, "improve", spy)
        one = ent.minimize_renyi_divergence(rho, (2, 3), 2.0, max_iter=1, sigma_candidates=(full.sigma,))
        assert len(calls) == 1 and np.array_equal(calls[0][0], full.sigma)
        assert one.value <= full.value + 1e-12

    @pytest.mark.parametrize("call", ["conditional_renyi", "renyi_coherent_information", "renyi_mutual_information"])
    def test_mis_shaped_candidate_raises_dim_mismatch(self, call):
        # a 2 x 2 candidate for B = C^3 reached numpy's matmul and raised its ValueError
        rho = mc.random_density(np.random.default_rng(18), 6)
        with pytest.raises(DimMismatch, match="sigma candidate is 2 x 2, expected 3 x 3"):
            getattr(ent, call)(rho, (2, 3), 2.0, sigma_candidates=(np.eye(2) / 2,))


class TestNormSandwichPattern:
    def test_s1_sp_sandwich_at_p2(self):
        # ||(N (x) id)(rho)|| <= ||(N_f (x) id)(rho)|| <= ||f|| ||(N (x) id)(rho)||
        from trocap.builders import completely_dephasing_channel

        base = completely_dephasing_channel(2)
        ch = qubit_dephasing(0.45)
        fnorm = mc.normalized_p_norm(ch.symbol.f, 2.0)
        rng = np.random.default_rng(16)
        for _ in range(25):
            rho = mc.random_density(rng, 4)
            plain = ent.s1_sp_norm(ancilla_output(base, rho), (2, 2), 2.0)
            modified = ent.s1_sp_norm(ancilla_output(ch, rho), (2, 2), 2.0)
            assert plain <= modified + 1e-7
            assert modified <= fnorm * plain + 1e-7


class TestEntropyDefect:
    def test_identity(self):
        assert ent.entropy_defect(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
    def test_dephasing_kernel(self, q):
        f = np.array([[1.0, q], [q, 1.0]])
        assert ent.entropy_defect(f) == pytest.approx(
            1.0 - ent.binary_entropy((1.0 + q) / 2.0), abs=1e-12
        )

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            ent.entropy_defect(np.eye(2) * 1.5)

    def test_significantly_negative_eigenvalue_raises(self):
        # unit normalized trace but not PSD: this f read 1.652, above log2 d = 1
        with pytest.raises(NotNormalized, match="symbol must be positive semidefinite"):
            ent.entropy_defect(np.diag([2.5, -0.5]))

    def test_rounding_level_negative_eigenvalue_is_clipped(self):
        # within the PSD rule's 1e-10 max(1, lambda_max): the eigenvalue counts as 0
        assert ent.entropy_defect(np.diag([2.0, -1e-12])) == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = mc.random_psd(rng, 4)
            f = 4.0 * f / np.trace(f).real
            val = ent.entropy_defect(f)
            assert -1e-10 <= val <= 2.0 + 1e-10

    def test_rank_deficient_is_log_d_minus_entropy(self):
        # tau(f log f) = log2 d - H(f / d), the support taken by the same rule
        rng = np.random.default_rng(18)
        g = mc.random_complex(rng, (8, 3))
        f = g @ mc.dagger(g)
        f = 8.0 * f / np.trace(f).real
        assert ent.entropy_defect(f) == pytest.approx(
            3.0 - ent.von_neumann_entropy(f / 8.0), abs=1e-12
        )


# ---------------------------------------------------------------------------
# the stacked Renyi minimizer against the sequential one-state-at-a-time loop (helpers.loop_minimize)


def _qubit_outputs():
    """(id (x) N)(rho) for dephasing and Pauli channels on seeded inputs, and
    one state whose B marginal has rank 1."""
    from trocap.builders import group_random_unitary, pauli_rep

    rng = np.random.default_rng(21)
    chans = [qubit_dephasing(0.3), qubit_dephasing(0.8)]
    weights = ([0.4, 0.3, 0.2, 0.1], [0.7, 0.1, 0.1, 0.1])
    chans += [group_random_unitary(pauli_rep(), w) for w in weights]
    out = [ancilla_output(ch, mc.random_density(rng, 4)) for ch in chans]
    out.append(mc.tensor(mc.random_density(rng, 2), E00))
    return np.stack(out)


def _phi_alpha_outputs():
    from trocap.builders import phi_alpha

    rng = np.random.default_rng(22)
    return np.stack(
        [ancilla_output(phi_alpha(a).channel, mc.random_density(rng, 16)) for a in (0.5, -0.3)]
    )


def _thin_outputs():
    """One state whose B marginal has rank 2 of 3 and one of full rank."""
    rng = np.random.default_rng(23)
    keep = np.kron(np.eye(2), np.diag([1.0, 1.0, 0.0]))
    g = keep @ mc.random_density(rng, 6) @ keep
    return np.stack([g / np.trace(g).real, mc.random_density(rng, 6)])


STACKS = {
    "qubit": (_qubit_outputs, (2, 2)),
    "phi_alpha": (_phi_alpha_outputs, (4, 3)),
    "rank2of3": (_thin_outputs, (2, 3)),
}


def assert_matches_loop(rhos, dims, p, k_as):
    opt = ent._RenyiStack(rhos, dims, p, k_as).minimize()
    for i, rho in enumerate(rhos):
        value, sigma, converged, iters = loop_minimize(rho, dims, p, None if k_as is None else k_as[i])
        assert opt.value[i] == pytest.approx(value, abs=1e-12)
        assert bool(opt.converged[i]) == converged
        assert opt.iterations[i] == iters
        if opt.converged[i]:  # a polish's sigma is only as sharp as its value
            assert np.allclose(opt.sigma[i], sigma, atol=1e-9)
    return opt


class TestRenyiStack:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("form", ["I_cp", "I_p"])
    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_matches_sequential_loop(self, name, form, p):
        make, dims = STACKS[name]
        rhos = make()
        k_as = None if form == "I_cp" else mc.partial_trace(rhos, dims, "A")
        assert_matches_loop(rhos, dims, p, k_as)

    def test_fallback_inside_a_stack_matches_loop(self):
        rhos = np.concatenate([polish_state()[None], _thin_outputs()])
        opt = assert_matches_loop(rhos, (2, 3), 4.0, None)
        assert opt.iterations[0] == 400 and not opt.converged[0] and opt.converged[1:].all()

    @pytest.mark.parametrize("name", ["qubit", "rank2of3"])
    def test_candidates_match_sequential_loop(self, name):
        # minimizers found to a tighter tolerance beat the fixed point's, so
        # they replace some items' optima; on rank2of3 half their weight is
        # put outside the first item's B support, which the cut to it drops
        make, dims = STACKS[name]
        rhos = make()
        tight = ent._RenyiStack(rhos, dims, 2.0).minimize(tol=1e-14).sigma
        if name == "rank2of3":
            tight = (tight + np.diag([0.0, 0.0, 1.0])) / 2
        opt = ent._RenyiStack(rhos, dims, 2.0).minimize()
        loose = opt.value.copy()
        opt.improve(tight)
        opt.improve(tight[::-1])
        assert (opt.value < loose).any()
        for i, rho in enumerate(rhos):
            value, sigma, converged, _ = loop_minimize(
                rho, dims, 2.0, sigma_candidates=(tight[i], tight[::-1][i])
            )
            assert opt.value[i] == pytest.approx(value, abs=1e-12)
            assert bool(opt.converged[i]) == converged
            assert np.allclose(opt.sigma[i], sigma, atol=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_mixed_rank_stack_under_a_pinching(self, p):
        # B rank 2 of 3 and full rank: each item as its one-item call, and
        # each sigma in the range of the pinching
        rhos, pinch = _thin_outputs(), lambda s: np.diag(np.diag(s))
        opt = ent._RenyiStack(rhos, (2, 3), p, project=pinch).minimize()
        for i, rho in enumerate(rhos):
            single = ent.minimize_renyi_divergence(rho, (2, 3), p, project=pinch)
            assert single.value == opt.value[i] and single.iterations == opt.iterations[i]
            assert np.array_equal(single.sigma, opt.sigma[i])
            assert np.abs(opt.sigma[i] - pinch(opt.sigma[i])).max() <= 1e-12

    def test_single_state_is_a_stack_of_one(self):
        rhos = _qubit_outputs()
        opt = ent._RenyiStack(rhos, (2, 2), 2.0).minimize()
        for i, rho in enumerate(rhos):
            single = ent.minimize_renyi_divergence(rho, (2, 2), 2.0)
            assert single.value == opt.value[i] and single.iterations == opt.iterations[i]


class TestRenyiFlags:
    # a converged item lies within tol 1e-9 of a tight restart from its sigma (helpers.restart_gaps)
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("mutual", [False, True], ids=["I_cp", "I_p"])
    @pytest.mark.parametrize("name", ["qubit", "phi_alpha"])
    def test_converged_items_sit_at_a_tight_restart(self, name, mutual, p):
        make, dims = STACKS[name]
        _, converged, _, gap = restart_gaps(make(), dims, p, mutual)
        assert converged.all() and gap.max() <= 1e-9

    def test_crawling_state_converges_at_a_tight_restart(self):
        _, converged, iterations, gap = restart_gaps(crawling_state()[None], (2, 3), 4.0)
        assert converged[0] and iterations[0] < 400 and gap[0] <= 1e-9


def classical_states(p, count=8):
    """Seeded diagonal states P(a, b) on 3 x 3 and their conditional Renyi entropies by Arimoto's formula,
    p/(1-p) log2 sum_b (sum_a P(a, b)^p)^(1/p), which the sandwiched one meets on commuting states."""
    joints = np.random.default_rng(31).dirichlet(np.ones(9), size=count).reshape(count, 3, 3)
    rhos = np.array([np.diag(j.reshape(-1)).astype(complex) for j in joints])
    return rhos, p / (1.0 - p) * np.log2(np.sum(np.sum(joints**p, axis=1) ** (1.0 / p), axis=1))


class TestCommutingStates:
    # for commuting states the target is T(sigma) ~ sigma^(1-p) R, whose fixed point is R^(1/p): the step
    # (1 - b) sigma + b T/tr T takes an error delta to (1 - b p) delta + O(delta^2), nothing first order at b0 = 1/p
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 4.0])
    def test_values_are_arimotos_within_a_few_rounds(self, p):
        # the count grows with the start's distance: over 320 seeded states the most was 4, 5, 6 and 7 rounds at
        # these p; here 3-6, where a damping of first-order rate 0.1-0.45 takes 6-10 and errs by up to 4.8e-11
        rhos, arimoto = classical_states(p)
        opt = ent._RenyiStack(rhos, (3, 3), p).minimize()
        assert np.abs(-opt.value - arimoto).max() <= 1e-13
        assert opt.converged.all() and opt.iterations.max() <= 7

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 4.0])
    def test_one_step_from_near_the_optimum_errs_at_second_order(self, monkeypatch, p):
        rhos, _ = classical_states(p)
        stack = ent._RenyiStack(rhos, (3, 3), p)
        r = np.sum(np.einsum("naa->na", rhos.real).reshape(-1, 3, 3) ** p, axis=1) ** (1.0 / p)
        opt = r / r.sum(axis=1, keepdims=True)  # the minimizer R^(1/p), normalized
        delta = 1e-4
        start = opt * (1.0 + delta * np.array([1.0, -1.0, 0.5]))
        stack.rho_b = np.array([np.diag(x / x.sum()).astype(complex) for x in start])  # minimize starts there
        real, sigmas = ent._evaluate, []

        def recording(p, rho, sigma, grads=False):
            sigmas.append(sigma)
            return real(p, rho, sigma, grads)

        monkeypatch.setattr(ent, "_evaluate", recording)
        stack.minimize()
        first = np.einsum("nbb->nb", sigmas[1].real)  # every item's first candidate
        assert np.abs(first - opt).max() <= delta**2  # 0.015-0.40 delta^2; a first-order rate of 0.1 gives 430


# ---------------------------------------------------------------------------
# the exact gradients of the Renyi searches against central differences


def _gradient_states():
    """(id (x) N)(rho) on seeded inputs for a dephasing qubit, phi_alpha and
    a Schur multiplier on Z_4, with their dims."""
    from trocap.builders import cyclic_group, phi_alpha, schur_multiplier_channel

    rng = np.random.default_rng(24)
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    chans = {
        "dephasing": qubit_dephasing(0.3),
        "phi_alpha": phi_alpha(0.5).channel,
        "schur_k4": schur_multiplier_channel(cyclic_group(4), np.fft.fft(weights)),
    }
    return {
        name: (ancilla_output(ch, mc.random_density(rng, ch.dim_in**2)), (ch.dim_in, ch.dim_out))
        for name, ch in chans.items()
    }


def _central_errors(f, x, grad, direction, hs=(1e-3, 1e-4)):
    slope = float(np.vdot(direction, grad).real)  # tr(G E) for hermitian E
    return [abs((f(x + h * direction) - f(x - h * direction)) / (2 * h) - slope) for h in hs]


class TestRenyiGradient:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("form", ["I_cp", "I_p"])
    @pytest.mark.parametrize("name", ["dephasing", "phi_alpha", "schur_k4"])
    def test_gradients_match_central_differences(self, name, form, p):
        rho, dims = _gradient_states()[name]
        k = None if form == "I_cp" else mc.partial_trace(rho, dims, "A")[None]
        stack = ent._RenyiStack(rho[None], dims, p, k)
        rho_c = stack.rho
        rng = np.random.default_rng(25)
        rb = dims[1]
        sigma = (mc.random_density(rng, rb) + np.eye(rb) / rb)[None] / 2
        value, grad_sigma = ent._evaluate(p, rho_c, sigma, grads=True)
        assert value[0] == pytest.approx(ent._evaluate(p, rho_c, sigma)[0][0], abs=1e-14)

        def in_sigma(s):
            return ent._evaluate(p, rho_c, s)[0][0]

        e = mc.hermitize(mc.random_complex(rng, sigma.shape[1:]))[None]
        coarse, fine = _central_errors(in_sigma, sigma, grad_sigma, e / mc.frobenius(e[0]))
        assert fine < max(coarse / 20, 1e-9)

    @pytest.mark.parametrize("form", ["I_cp", "I_p"])
    def test_sigma_gradients_of_a_mixed_rank_stack(self, form):
        # B marginals of rank 2 and 3 of 3: each item's gradient in sigma, at the stack's
        # sigma of the same rank, against central differences of D_p(rho || K (x) sigma)
        # of the unfolded state, along directions inside the support of sigma
        rng, dims, p, c = np.random.default_rng(29), (2, 3), 2.0, -1 / 4  # c = -1/2p'
        rhos = np.concatenate([_thin_outputs(), [mc.random_density(rng, 6) for _ in range(2)]])
        k_as = None if form == "I_cp" else mc.partial_trace(rhos, dims, "A")
        stack = ent._RenyiStack(rhos, dims, p, k_as).minimize()
        grads = ent._evaluate(p, stack.rho, stack.sigma, grads=True)[1]
        for i, rho in enumerate(rhos):
            k = np.eye(2) if k_as is None else k_as[i]
            proj = mc.support_projector(stack.sigma[i])
            assert np.linalg.matrix_rank(proj) == np.linalg.matrix_rank(stack.proj[i])

            def value(s):
                a = np.kron(mc.matrix_power(k, c), mc.matrix_power(s, c))
                w = np.clip(np.linalg.eigvalsh(mc.hermitize(a @ rho @ a)), 0.0, None)
                return math.log2(np.sum(w**p)) / (p - 1)

            assert value(stack.sigma[i]) == pytest.approx(stack.value[i], abs=1e-12)
            e = proj @ mc.hermitize(mc.random_complex(rng, (3, 3))) @ proj
            coarse, fine = _central_errors(value, stack.sigma[i], grads[i], e / mc.frobenius(e))
            assert fine < max(coarse / 20, 1e-9)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("pinch", [False, True])
    def test_fallback_objective_gradient(self, monkeypatch, pinch, p):
        # the polish's gradient through sigma = m m*/tr(m m*) and, for a
        # linear HS-self-adjoint trace-preserving project, through project
        real, seen = ent._lbfgs, []

        def recording(fun, x0, maxiter, floor):
            seen.append((fun, x0))
            return real(fun, x0, maxiter, floor)

        monkeypatch.setattr(ent, "_lbfgs", recording)
        project = (lambda s: np.diag(np.diag(s))) if pinch else None
        ent.minimize_renyi_divergence(thin_marginal_state(), (2, 3), p, project=project, max_iter=3)
        assert len(seen) == 1  # the fixed point stopped short: the fallback ran
        rng = np.random.default_rng(26)
        for fun, x0 in seen:
            e = rng.normal(size=x0.size)
            e /= np.linalg.norm(e)
            slope = fun(x0)[1] @ e
            coarse, fine = [abs((fun(x0 + h * e)[0] - fun(x0 - h * e)[0]) / (2 * h) - slope) for h in (1e-3, 1e-4)]
            assert fine < max(coarse / 20, 1e-9)


# ---------------------------------------------------------------------------
# the one L-BFGS-B search over densities m m*/tr(m m*) both Renyi optimizers use


class TestDensitySearch:
    @staticmethod
    def _objective(shape):
        """fun for _density_search and its blocks m0s: the dual objective D_beta(omega_AE ||
        1 (x) tau), beta = 2/3, of the dephasing qubit (entropy._dual_value_and_grads) in the
        amplitudes psi of a pure input at a fixed full-rank tau (one block, d^2 x 1) or as a
        function of the pair (psi, tau), the dual search's two blocks; or the fallback's
        D_4(rho || 1 (x) sigma) through a pinching ``project`` (one block, n x n)."""
        rho, dims = _gradient_states()["dephasing"]
        rng = np.random.default_rng(27)
        kraus, d = qubit_dephasing(0.3).kraus, dims[0]
        if shape == "purification":
            u = mc.matrix_power((mc.random_density(rng, d) + np.eye(d) / d) / 2, 0.5)  # tau = u u*, trace 1

            def fun(units):
                value, (grad_psi, _) = ent._dual_value_and_grads(kraus, 2 / 3, (units[0], u))
                return value, (grad_psi,)

            return fun, (mc.random_complex(rng, (d * d, 1)),)
        if shape == "pair":
            return partial(ent._dual_value_and_grads, kraus, 2 / 3), (
                mc.random_complex(rng, (d * d, 1)),
                mc.random_complex(rng, (d, d)),
            )
        stack = ent._RenyiStack(rho[None], dims, 4.0, project=lambda s: np.diag(np.diag(s)))

        def fun(units):
            sigma = stack._project((units[0] @ units[0].conj().T)[None])
            value, grad = ent._evaluate(4.0, stack.rho, sigma, grads=True)
            return float(value[0]), (stack._project(grad, normalize=False)[0] @ units[0],)

        return fun, (mc.random_complex(rng, (dims[1],) * 2),)

    @pytest.mark.parametrize("shape", ["purification", "pinched_sigma", "pair"])
    def test_packed_gradient_matches_central_differences(self, monkeypatch, shape):
        # the chain rule 2 (G u - Re<u, G u> u)/|m| through u u*, u = m/|m|, block by block
        real, seen = ent._lbfgs, []

        def recording(packed, x0, maxiter, floor):
            seen.append((packed, x0))
            return real(packed, x0, maxiter, floor)

        monkeypatch.setattr(ent, "_lbfgs", recording)
        fun, m0s = self._objective(shape)
        value, units = ent._density_search(fun, m0s, 5)
        ((packed, x0),) = seen
        assert x0.size == 2 * sum(m.size for m in m0s) and len(units) == len(m0s)
        for u, m in zip(units, m0s):
            assert u.shape == m.shape and np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
        assert value == pytest.approx(fun(units)[0], abs=1e-14)
        rng = np.random.default_rng(28)
        for x in (x0, x0 + 0.3 * rng.normal(size=x0.size)):
            e = rng.normal(size=x.size)
            e /= np.linalg.norm(e)
            slope = packed(x)[1] @ e
            coarse, fine = [abs((packed(x + h * e)[0] - packed(x - h * e)[0]) / (2 * h) - slope) for h in (1e-3, 1e-4)]
            assert fine < max(coarse / 20, 1e-9)

    def test_polish_ends_as_low_as_scipy(self, monkeypatch):
        # each polish against scipy's L-BFGS-B from the same start (helpers.scipy_density_search):
        # on polish_state() within 1e-9; on the thin-state grid's (3, 3), eps 1e-8, K = 1 cells at
        # p 3, 4 and 6, where most polishes end above scipy's, none by more than 1e-7 and no more
        # of them above it by 1e-9 than below it by 1e-9
        real, gaps = ent._density_search, []

        def both(fun, m0s, maxiter):
            gaps.append((out := real(fun, m0s, maxiter))[0] - scipy_density_search(fun, m0s, maxiter)[0])
            return out

        monkeypatch.setattr(ent, "_density_search", both)
        ent.minimize_renyi_divergence(polish_state(), (2, 3), 4.0)
        assert len(gaps) == 1 and gaps[0] <= 1e-9
        rng = np.random.default_rng(hash(((3, 3), 1e-8)) % 2**32)
        rhos = np.array([thin_draw(rng, (3, 3), 1e-8) for _ in range(8)])
        for p in (3.0, 4.0, 6.0):
            ent._RenyiStack(rhos, (3, 3), p).minimize()
        grid = np.array(gaps[1:])
        assert len(grid) == 24 and grid.max() <= 1e-7
        assert np.sum(grid > 1e-9) <= np.sum(grid < -1e-9)

    def test_one_search_per_restart_and_per_fallen_back_item(self, monkeypatch):
        import trocap.capacity as cap

        real, shapes = ent._density_search, []

        def counted(fun, m0s, *args):
            shapes.append(tuple(m.shape for m in m0s))
            return real(fun, m0s, *args)

        monkeypatch.setattr(ent, "_density_search", counted)
        monkeypatch.setattr(cap, "_density_search", counted)
        cap.renyi_coherent_channel(qubit_dephasing(0.3), 2.0, restarts=3)
        assert shapes == []  # the one evaluation at the extremal input reaches the Renyi edge
        pauli = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        cap.renyi_coherent_channel(pauli, 2.0, restarts=3)
        assert shapes == [((4, 1), (4, 4))] * 3  # an open window: one search per restart
        shapes.clear()
        # the maximally mixed state is fixed after two rounds, the others not
        rhos = np.concatenate([_thin_outputs(), np.eye(6)[None] / 6])
        opt = ent._RenyiStack(rhos, (2, 3), 2.0).minimize(max_iter=3)
        assert opt.converged.tolist() == [False, False, True] and shapes == [((3, 3),)] * 2


# ---------------------------------------------------------------------------
# both sides of the sandwiched Renyi duality, and the module boundary around them


def _purified_dual(stack: ent._RenyiStack, beta: float) -> float:
    """-min over tau of D_beta(omega_AC || 1 (x) tau) (entropy._dual_value_and_grads) on a purification of the
    stack's folded state rho' = stack.rho[0] on A (x) B: its eigenvectors above 1e-14 of the largest eigenvalue, C
    of that rank r, through the partial trace (b, c) -> b (environment c) of builders.partial_trace_sum_channel.
    One _density_search over tau alone from sqrt(omega_C^T) and one from the identity; the lower end is kept."""
    from trocap.builders import partial_trace_sum_channel
    from trocap.channel import complement_apply

    rho = stack.rho[0]
    d_b = stack.rho_b.shape[-1]
    lam, vecs = np.linalg.eigh(rho)
    keep = lam > 1e-14 * lam[-1]
    psi = (vecs[:, keep] * np.sqrt(lam[keep])).reshape(-1, 1)  # sum_i sqrt(lam_i) v_i (x) |i>_C
    r = int(keep.sum())
    ch = partial_trace_sum_channel([(d_b, r)])
    amplitudes = psi.reshape(-1, d_b * r)

    def fun(units):
        value, (_, grad_u) = ent._dual_value_and_grads(ch.kraus, beta, (psi, units[0]))
        return value, (grad_u,)

    omega_c = complement_apply(ch, amplitudes.T @ amplitudes.conj())
    starts = (mc.matrix_power(omega_c.T, 0.5), np.eye(r, dtype=complex))
    return -min(ent._density_search(fun, (u0,), 200)[0] for u0 in starts)


class TestRenyiDuality:
    @pytest.mark.parametrize("k_form", ["identity", "marginal"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_folded_stack_item_is_self_dual(self, dims, p, k_form):
        # The fold rho' = (K^c (x) 1) rho (K^c (x) 1) makes every item, K = 1 and K = rho_A alike, a K = 1
        # problem on a positive operator, self-dual once purified: for 1/p + 1/beta = 2 (Mueller-Lennert, Dupuis,
        # Szehr, Fehr & Tomamichel 2013; Beigi 2013) inf_sigma D_p(rho' || 1 (x) sigma) = -inf_tau
        # D_beta(omega_AC || 1 (x) tau), so a tight primal lies above the dual and the two meet.
        rng = np.random.default_rng((dims[0], dims[1], int(2 * p), k_form == "marginal"))
        rho = mc.random_density(rng, dims[0] * dims[1])
        k = np.eye(dims[0], dtype=complex) if k_form == "identity" else mc.partial_trace(rho, dims, "A")
        stack = ent._RenyiStack(rho[None], dims, p, k[None]).minimize(tol=1e-13, max_iter=5000)
        primal, dual = stack.value[0], _purified_dual(stack, p / (2.0 * p - 1.0))
        assert dual <= primal + 1e-12
        assert primal - dual <= 1e-11


class TestSafetyPaths:
    def test_failed_line_search_keeps_the_last_accepted_point(self):
        # 0 at x0 and 1 everywhere else: each of the 20 trials of the first line search fails, so the search
        # stops at x0 with its value after 21 evaluations
        x0, calls = np.array([0.3, -0.2, 0.5]), []

        def fun(x):
            calls.append(x.copy())
            return (0.0 if np.array_equal(x, x0) else 1.0), np.ones_like(x)

        value, x = ent._lbfgs(fun, x0.copy(), 100)
        assert value == 0.0 and np.array_equal(x, x0) and len(calls) == 21

    @staticmethod
    def _scripted(grads):
        """_lbfgs from 0 on a scripted fun: its k-th call returns (-k, grads[k]), k capped at 2; returns the value,
        the end point, the points evaluated and the RuntimeWarnings raised."""
        grads, calls = [np.array(g, dtype=float) for g in grads], []

        def fun(x):
            calls.append(x.copy())
            k = min(len(calls), 3) - 1
            return -float(k), grads[k]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value, x = ent._lbfgs(fun, np.zeros(2), 100)
        return value, x, calls, [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("second", [[1.0, -1e-120], [1.0, -1e-100]])
    def test_pair_below_the_curvature_rule_is_not_kept(self, second):
        # the first accepted step gives s.y = 1e-320 (1/(s.y) overflows) or 1e-300 (finite), both below eps y.y
        # (y.y = 1e-240 or 1e-200): no pair is kept, so the second step is the unit steepest-descent step, with no
        # RuntimeWarning; a two-loop direction through the 1e-300 pair is about 2e300 long and fails every trial
        grads = [[1.0, 1e-200], second, [0.0, 0.0]]
        value, x, calls, caught = self._scripted(grads)
        np.testing.assert_array_equal(calls[1], -np.array(grads[0]))
        np.testing.assert_array_equal(calls[2], calls[1] - np.array(second))
        assert len(calls) == 3 and value == -2.0 and np.array_equal(x, calls[2]) and not caught

    def test_pair_whose_inverse_curvature_overflows_clears_the_pairs(self):
        # s.y = 1e-310 passes the curvature rule (eps y.y underflows to 0, y.y = 1e-320), but 1/(s.y) overflows:
        # the pairs are cleared, so the second step is the unit steepest-descent step
        grads = [[1.0, 1e-150], [1.0, 1e-150 - 1e-160], [0.0, 0.0]]
        value, x, calls, caught = self._scripted(grads)
        s, y = calls[1] - calls[0], np.array(grads[1]) - np.array(grads[0])
        assert 0 < s @ y < 1e-308 and np.finfo(float).eps * (y @ y) == 0.0
        np.testing.assert_array_equal(calls[2], calls[1] - np.array(grads[1]))
        assert len(calls) == 3 and value == -2.0 and np.array_equal(x, calls[2]) and not caught

    @pytest.mark.parametrize("second", [[math.inf, 0.1], [1e308, -1e308]])
    def test_non_finite_gradient_or_slope_ends_the_search_at_the_last_accepted_point(self, second):
        # an infinite gradient, or a finite one whose slope g.d overflows: the search ends as a failed one, at the
        # first accepted point, with no ZeroDivisionError from a zero step and no RuntimeWarning
        value, x, calls, caught = self._scripted([[1.0, 0.5], second, [0.0, 0.0]])
        assert len(calls) == 2 and value == -1.0 and np.array_equal(x, calls[1]) and not caught

    def test_direction_that_is_not_a_descent_is_replaced_by_steepest_descent(self):
        # the first step's pair, s = (-1, -1e-154) and y = (0, -1e-154), passes the curvature rule with 1/(s.y) =
        # 1e308; at g = (1, 0) the two-loop direction overflows to (-inf, -inf), whose slope is nan: the memory is
        # cleared and the second step is the unit steepest-descent step, with no RuntimeWarning
        value, x, calls, caught = self._scripted([[1.0, 1e-154], [1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(calls[1], [-1.0, -1e-154])
        np.testing.assert_array_equal(calls[2], calls[1] - np.array([1.0, 0.0]))
        assert len(calls) == 3 and value == -2.0 and np.array_equal(x, calls[2]) and not caught

    def test_block_whose_norm_overflows_is_never_handed_to_fun(self):
        # |m|^2 = 2e400 is not finite: the guard's value 1e9 and zero gradient stop the search at its start
        seen = []
        value, (u,) = ent._density_search(lambda us: seen.append(us) or (0.0, us), (np.full((2, 1), 1e200 + 0j),), 10)
        assert value == 1e9 and seen == [] and not u.any()

    def test_fallback_raises_when_no_value_is_finite(self):
        # a tiny diagonal operator: the fixed point's value is not finite and the polish does not improve it
        from trocap.errors import OptimizerFailed

        with np.errstate(all="ignore"), pytest.raises(OptimizerFailed):
            ent.minimize_renyi_divergence(np.diag([1e-300, 0, 0, 0]), (2, 2), 2.0)

    @pytest.mark.parametrize("k_a", [None, np.eye(2)])
    def test_zero_operator_names_its_trace(self, k_a):
        # the stack's start sigma = rho_B / tr rho_B would be 0 / 0: the zero trace is named before the stack is built
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotState, match=r"^trace is 0\.00000000, expected a positive trace$"):
                ent.minimize_renyi_divergence(np.zeros((4, 4)), (2, 2), 2.0, k_a=k_a)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sandwiched_renyi_duality_has_one_home():
    # both sides of the duality live in entropy: capacity imports the dual kernel, and no other module names
    # the sigma side they share
    import importlib
    import inspect
    import pkgutil

    import trocap
    import trocap.capacity as cap

    assert cap._dual_value_and_grads is ent._dual_value_and_grads
    others = [name for _, name, _ in pkgutil.iter_modules(trocap.__path__) if name != "entropy"]
    assert "capacity" in others
    for name in others:
        assert "_support_power" not in inspect.getsource(importlib.import_module(f"trocap.{name}")), name
