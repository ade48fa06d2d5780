import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

import trocap
from trocap import algebra as alg
from trocap import channel as chn
from trocap import matcore as mc
from trocap import verify
from trocap.builders import (
    cyclic_group,
    dihedral_group,
    group_random_unitary,
    partial_trace_sum_channel,
    pauli_rep,
    phi_alpha,
    qubit_dephasing,
    regular_representation,
    schur_multiplier_channel,
)
from trocap.channel import stinespring_space
from trocap.errors import BadExponent, DimMismatch, NotIndependent, OutOfRange

from helpers import (
    SYMBOL_FORMS,
    ancilla_output,
    block_tro_channel,
    factorwise_apply,
    loop_minimize,
    random_channel,
    random_modified_tro,
    rotated_modified,
)


def dephasing_pair(q):
    ch = qubit_dephasing(q)
    return ch.base_space, ch.symbol


class TestLocalComparison:
    def test_identity_symbol_saturates(self):
        ch = qubit_dephasing(0.4)
        base = ch.base_space.source
        sym = alg.identity_symbol(base)
        rep = verify.verify_local_comparison(ch.base_space, sym, samples=20, seed=0)
        assert rep.passed
        assert abs(rep.worst_slack) <= 1e-10

    def test_dephasing_hundred_samples(self):
        space, sym = dephasing_pair(0.3)
        rep = verify.verify_local_comparison(space, sym, samples=100, seed=0)
        assert rep.passed
        assert rep.worst_slack >= -1e-9

    def test_phi_alpha_family(self):
        bundle = phi_alpha(0.5)
        rep = verify.verify_local_comparison(bundle.space, bundle.symbol, samples=50, seed=1)
        assert rep.passed

    def test_corrupted_symbol_gated_upstream(self):
        # a density inside the right algebra is rejected before any sampling
        bundle = phi_alpha(0.0)
        with pytest.raises(NotIndependent):
            alg.validate_symbol(bundle.space.source, np.diag([2.0, 2.0, 0.0, 0.0]))

    def test_seed_reproducible(self):
        space, sym = dephasing_pair(0.6)
        a = verify.verify_local_comparison(space, sym, samples=10, seed=5)
        b = verify.verify_local_comparison(space, sym, samples=10, seed=5)
        assert a.to_dict() == b.to_dict()
        c = verify.verify_local_comparison(space, sym, samples=10, seed=6)
        assert c.worst_slack != a.worst_slack

    def test_symbol_of_another_space_rejected(self):
        # same environment (2), output 3 against the symbol's 2
        _, sym = dephasing_pair(0.6)
        space = stinespring_space(partial_trace_sum_channel([(3, 2)]))
        with pytest.raises(DimMismatch):
            verify.verify_local_comparison(space, sym, samples=1)


class TestEntropic:
    def test_identity_symbol_gaps_collapse(self):
        ch = qubit_dephasing(0.4)
        sym = alg.identity_symbol(ch.base_space.source)
        rep = verify.verify_entropic(ch.base_space, sym, samples=10, seed=0, renyi=False)
        assert rep.passed
        assert abs(rep.worst_slack) <= 1e-8

    def test_dephasing_family(self):
        space, sym = dephasing_pair(0.7)
        rep = verify.verify_entropic(space, sym, samples=12, seed=0)
        assert rep.passed

    def test_phi_alpha_family(self):
        bundle = phi_alpha(0.5)
        rep = verify.verify_entropic(bundle.space, bundle.symbol, samples=6, seed=0)
        assert rep.passed

    def test_maximally_entangled_input_saturates_coherent_lower_edge(self):
        # for the dephasing family the reverse coherent value is attained at
        # the maximally entangled input, where H(A) = H(B)
        import trocap.capacity as cap
        from trocap.entropy import coherent_information

        q = 0.3
        ch = qubit_dephasing(q)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        omega_f = ancilla_output(ch, np.outer(psi, psi.conj()))
        ic = coherent_information(omega_f, (2, 2))
        assert ic == pytest.approx(cap.negative_cb_entropy(ch, "formula"), abs=1e-8)


def pauli_pair():
    ch = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
    return ch.base_space, ch.symbol


def phi_alpha_pair(alpha):
    bundle = phi_alpha(alpha)
    return bundle.space, bundle.symbol


TRACE_NORM_PAIRS = {
    "phi_alpha(0.4)": lambda: phi_alpha_pair(0.4),
    "dephasing(0.3)": lambda: dephasing_pair(0.3),
    "pauli": pauli_pair,
}


class TestTraceNormExponent:
    # p = 1 is the trace norm: p' = inf, so sigma^(-1/2p') is sigma's support projector

    @pytest.mark.parametrize("name", sorted(TRACE_NORM_PAIRS))
    def test_local_suite_at_p_one(self, name):
        space, symbol = TRACE_NORM_PAIRS[name]()
        rep = verify.verify_local_comparison(space, symbol, samples=20, seed=0, ps=(1.0,))
        assert rep.passed and rep.worst_slack >= -1e-12

    @pytest.mark.parametrize("name", sorted(TRACE_NORM_PAIRS))
    def test_entropic_suite_at_p_one_is_a_bad_exponent(self, name):
        space, symbol = TRACE_NORM_PAIRS[name]()
        with pytest.raises(BadExponent):
            verify.verify_entropic(space, symbol, samples=2, ps=(1.0,))


class TestTensorSymbol:
    def test_identity_symbols(self):
        ch = qubit_dephasing(0.4)
        base = ch.base_space.source
        sym = alg.identity_symbol(base)
        rep = verify.verify_tensor_symbol(
            ch.base_space, sym, ch.base_space, sym, samples=5, seed=0
        )
        assert rep.passed
        assert rep.worst_slack >= -1e-10

    def test_dephasing_product_symbols(self):
        sa, fa = dephasing_pair(0.3)
        sb, fb = dephasing_pair(0.8)
        rep = verify.verify_tensor_symbol(sa, fa, sb, fb, samples=10, seed=0)
        assert rep.passed
        assert rep.worst_slack >= -1e-10

    def test_pauli_with_dephasing(self):
        sa, fa = dephasing_pair(0.5)
        chp = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        rep = verify.verify_tensor_symbol(sa, fa, chp.base_space, chp.symbol, samples=5, seed=2)
        assert rep.passed

    def test_perturbed_split_fails_choi_equality(self, monkeypatch):
        # N_f (x) M_g, the tensor product of channels that carry a symbol, with one Kraus entry moved by 1e-6
        real = verify.tensor_channels

        def perturbed(a, b):
            ch = real(a, b)
            if a.symbol is None:
                return ch
            kraus = ch.kraus.copy()
            kraus[0, 0, 0] += 1e-6
            return chn.Channel(kraus)

        monkeypatch.setattr(verify, "tensor_channels", perturbed)
        sa, fa = dephasing_pair(0.3)
        rep = verify.verify_tensor_symbol(sa, fa, sa, fa, samples=2, seed=0)
        assert "choi_equality" in {name for _, name, _ in rep.failures}
        assert rep.worst_slack < -1e-7

    def test_forms_no_choi_matrix(self, monkeypatch):
        def dense(ch):
            raise AssertionError("the tensor suite formed a Choi matrix")

        for module in (trocap, chn, verify):
            monkeypatch.setattr(module, "choi", dense, raising=False)
        sa, fa = dephasing_pair(0.5)
        chp = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        rep = verify.verify_tensor_symbol(sa, fa, chp.base_space, chp.symbol, samples=3, seed=1)
        assert rep.passed and rep.worst_slack >= -1e-12

    def test_draws_no_sample(self, monkeypatch):
        # both checks are exact, so samples is validated and reported but no input is drawn
        def no_draw(*args):
            raise AssertionError("the tensor suite drew a sample")

        monkeypatch.setattr(verify, "_draw", no_draw)
        sa, fa = dephasing_pair(0.3)
        rep = verify.verify_tensor_symbol(sa, fa, sa, fa, samples=7, seed=0)
        assert rep.passed and rep.samples == 7 and rep.to_dict()["samples"] == 7


# pairs of seeded random channels of equal dimensions (Kraus shapes (E, out, in), the second E may differ)
BOUND_PAIRS = [((2, 3, 2), (3, 3, 2)), ((4, 2, 4), (2, 2, 4)), ((3, 4, 3), (5, 4, 3)), ((6, 2, 3), (2, 2, 3))]


class TestChoiGapBound:
    # each entry of (N - M)(rho) is sum_ij rho_ij (C_N - C_M)_(ia, jb), so by Cauchy-Schwarz at most
    # ||C_N - C_M||_F ||rho||_F: the tensor suite's Choi gap bounds what sampled inputs could show
    @staticmethod
    def assert_bounded(a, b, rng):
        gap = chn._choi_gap(a, b)
        for _ in range(8):
            rho = mc.random_density(rng, a.dim_in)
            diff = np.abs(chn.apply(a, rho) - chn.apply(b, rho)).max()
            assert diff <= gap * np.linalg.norm(rho) + 1e-15

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape_a, shape_b", BOUND_PAIRS)
    def test_independent_pairs(self, shape_a, shape_b, seed):
        rng = np.random.default_rng(seed)
        (ea, oa, ia), (eb, ob, ib) = shape_a, shape_b
        self.assert_bounded(random_channel(rng, ia, oa, ea), random_channel(rng, ib, ob, eb), rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_kraus_entry_moved_by_1e_6(self, seed):
        rng = np.random.default_rng(seed)
        a = random_channel(rng, 3, 3, 2)
        kraus = a.kraus.copy()
        kraus[0, 0, 0] += 1e-6
        self.assert_bounded(a, chn.Channel(kraus), rng)


SUITE_CALLS = {
    "local_comparison": lambda sp, sy, n: verify.verify_local_comparison(sp, sy, samples=n),
    "entropic": lambda sp, sy, n: verify.verify_entropic(sp, sy, samples=n),
    "tensor_symbol": lambda sp, sy, n: verify.verify_tensor_symbol(sp, sy, sp, sy, samples=n),
}


class TestSampleCount:
    # what --samples already requires: a count of at least 1; a negative or zero count
    # passed with no check run, and 2.5 raised a bare TypeError
    @pytest.mark.parametrize("samples", [-1, 0, 2.5, np.float64(2.0), True, "3", None, np.int64(0)])
    @pytest.mark.parametrize("suite", sorted(SUITE_CALLS))
    def test_anything_but_an_integer_of_at_least_one_raises(self, suite, samples):
        space, sym = dephasing_pair(0.3)
        with pytest.raises(OutOfRange, match="samples must be an integer >= 1"):
            SUITE_CALLS[suite](space, sym, samples)

    @pytest.mark.parametrize("suite", sorted(SUITE_CALLS))
    def test_numpy_integer_counts_as_its_value(self, suite):
        space, sym = dephasing_pair(0.3)
        plain, numpy = (SUITE_CALLS[suite](space, sym, n).to_dict() for n in (2, np.int64(2)))
        assert numpy == plain and type(numpy["samples"]) is int


class TestAggregate:
    def test_family_grid_zero_failures(self):
        rng = np.random.default_rng(0)
        cases = []
        for q in (0.0, 0.3, 0.7, 1.0):
            cases.append(dephasing_pair(q))
        for a in (0.0, 0.5, 1.0):
            bundle = phi_alpha(a)
            cases.append((bundle.space, bundle.symbol))
        rep_pauli = pauli_rep()
        for _ in range(3):
            p = rng.random(4)
            p /= p.sum()
            ch = group_random_unitary(rep_pauli, p)
            cases.append((ch.base_space, ch.symbol))
        for space, sym in cases:
            rep = verify.verify_local_comparison(space, sym, samples=25, seed=3)
            assert rep.passed, rep.to_dict()


class TestReportRecord:
    def test_slack_below_the_tolerance_is_a_failure(self):
        report = verify.VerificationReport("check", samples=2, seed=0, tolerance=1e-9)
        report.record(["aaa"], ["within"], -5e-10)
        assert report.passed and report.worst_slack == -5e-10
        report.record(["bbb"], ["beyond"], -1e-6)
        assert not report.passed and report.worst_slack == -1e-6
        assert report.failures == [("bbb", "beyond", -1e-6)]
        failures = report.to_dict()["failures"]
        assert report.to_dict()["passed"] is False
        assert failures == [{"digest": "bbb", "inequality": "beyond", "slack": -1e-6}]

    @pytest.mark.parametrize("slacks", [[math.nan], [0.5, math.nan, 0.3]], ids=["nan", "nan-between"])
    def test_nan_slack_is_a_failure(self, slacks):
        # NaN compares False both ways: it was neither a new worst nor a failure,
        # then a failure whose worst slack read Infinity alone or 0.5 after 0.5
        report = verify.VerificationReport("check", samples=1, seed=0, tolerance=1e-9)
        for slack in slacks:
            report.record(["aaa"], ["undefined"], slack)
        assert not report.passed and report.to_dict()["passed"] is False
        [(digest, name, slack)] = report.failures
        assert (digest, name) == ("aaa", "undefined") and math.isnan(slack)
        assert math.isnan(report.worst_slack) and math.isnan(report.to_dict()["worst_slack"])

    def test_one_stack_lists_failures_sample_major(self):
        report = verify.VerificationReport("check", samples=2, seed=0, tolerance=1e-9)
        report.record(["s0", "s1"], ["lower", "upper"], [[-1.0, 0.5], [math.nan, -2.0]])
        assert [(d, n) for d, n, _ in report.failures] == [("s0", "lower"), ("s1", "lower"), ("s1", "upper")]
        assert [s for _, _, s in report.failures][::2] == [-1.0, -2.0] and math.isnan(report.failures[1][2])
        assert math.isnan(report.worst_slack)  # not -2.0, read after the NaN
        report.record(["s2"], ["lower", "upper"], [[-5.0, 1.0]])
        assert math.isnan(report.worst_slack) and report.failures[-1] == ("s2", "lower", -5.0)


# ---------------------------------------------------------------------------
# the stacked entropic suite against the sample-by-sample loop


def loop_entropic_slacks(space, symbol, samples, seed, ps=(1.5, 2.0)):
    """(name, slack) of every record of verify_entropic, one sample at a
    time, with two sequential Renyi minimizations per (p, form)."""
    from trocap import matcore as mc
    from trocap.channel import base_channel, modified_channel
    from trocap.entropy import (
        coherent_information,
        entropy_defect,
        mutual_information,
        von_neumann_entropy,
    )

    chans = (base_channel(space), modified_channel(space, symbol))
    defect = entropy_defect(symbol)
    da = space.dim
    dims = (da, space.dim_out)
    out = []
    for i in range(samples):
        rho = mc.random_density(np.random.default_rng((seed, i)), da * da)
        omega, omega_f = (
            sum(np.kron(np.eye(da), k) @ rho @ np.kron(np.eye(da), k).conj().T for k in ch.kraus)
            for ch in chans
        )
        h, hf = von_neumann_entropy(omega), von_neumann_entropy(omega_f)
        ic, icf = coherent_information(omega, dims), coherent_information(omega_f, dims)
        mi, mif = mutual_information(omega, dims), mutual_information(omega_f, dims)
        out += [
            ("H_AB_lower", hf - (h - defect)),
            ("H_AB_upper", h - hf),
            ("I_c_lower", icf - ic),
            ("I_c_upper", ic + defect - icf),
            ("I_lower", mif - mi),
            ("I_upper", mi + defect - mif),
        ]
        k_a = mc.partial_trace(omega, dims, keep="A")
        for p in ps:
            gap = (p / (p - 1.0)) * np.log2(mc.normalized_p_norm(symbol.f, p))
            for name, k in (("I_cp", None), ("I_p", k_a)):
                v = loop_minimize(omega, dims, p, k)[0]
                vf = loop_minimize(omega_f, dims, p, k)[0]
                out += [(f"{name}_lower@p={p}", vf - v), (f"{name}_upper@p={p}", v + gap - vf)]
    return out


def recorded_slacks(monkeypatch):
    seen = []
    record = verify.VerificationReport.record

    def spy(self, digests, names, slacks):
        seen.extend((name, slack) for row in np.reshape(slacks, (len(digests), -1)) for name, slack in zip(names, row))
        record(self, digests, names, slacks)

    monkeypatch.setattr(verify.VerificationReport, "record", spy)
    return seen


class TestEntropicStack:
    @pytest.mark.parametrize(
        "case, samples", [("dephasing", 3), ("pauli", 3), ("phi_alpha", 2)]
    )
    def test_matches_sample_loop(self, monkeypatch, case, samples):
        if case == "phi_alpha":
            bundle = phi_alpha(0.5)
            space, sym = bundle.space, bundle.symbol
        elif case == "pauli":
            ch = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
            space, sym = ch.base_space, ch.symbol
        else:
            space, sym = dephasing_pair(0.7)
        seen = recorded_slacks(monkeypatch)
        verify.verify_entropic(space, sym, samples=samples, seed=4)
        ref = loop_entropic_slacks(space, sym, samples, seed=4)
        assert [n for n, _ in seen] == [n for n, _ in ref]
        for (name, slack), (_, expected) in zip(seen, ref):
            assert slack == pytest.approx(expected, abs=1e-12), name

    @pytest.mark.parametrize("samples", [1, 5])
    def test_one_minimizer_call_per_exponent(self, monkeypatch, samples):
        import trocap.entropy as ent

        calls = []
        minimize = ent._RenyiStack.minimize

        def counted(self, *args, **kwargs):
            calls.append(len(self.rho_b))
            return minimize(self, *args, **kwargs)

        monkeypatch.setattr(ent._RenyiStack, "minimize", counted)
        space, sym = dephasing_pair(0.7)
        verify.verify_entropic(space, sym, samples=samples, seed=0, ps=(1.5, 2.0, 4.0))
        # per exponent, omega_f of every sample under both K, then the one stack of omega's two (1, 1, 1) blocks
        assert calls == [2 * samples, 2 * 2 * samples] * 3


# ---------------------------------------------------------------------------
# N's side of the entropic suite, read off its blocks, against the whole state


def whole_state_slacks(space, symbol, samples, seed, ps):
    """(name, slack) of every record of verify_entropic, N's values taken from the whole state omega: its
    bipartite_entropies and one _RenyiStack of omega and omega_f under K = 1 and K = omega_A."""
    from trocap.entropy import _RenyiStack, bipartite_entropies, entropy_defect

    da, dims = space.dim, (space.dim, space.dim_out)
    [rho] = verify._draw(seed, samples, da * da)
    chans = (chn.base_channel(space), chn.modified_channel(space, symbol))
    omega, omega_f = (verify._id_tensor(ch, rho) for ch in chans)
    (h, ha, hb), (hf, haf, hbf) = (bipartite_entropies(w, dims) for w in (omega, omega_f))
    ic, icf, mi, mif, defect = hb - h, hbf - hf, ha + hb - h, haf + hbf - hf, entropy_defect(symbol)
    cols = [("H_AB_lower", hf - (h - defect)), ("H_AB_upper", h - hf), ("I_c_lower", icf - ic)]
    cols += [("I_c_upper", ic + defect - icf), ("I_lower", mif - mi), ("I_upper", mi + defect - mif)]
    k_a = mc.partial_trace(omega, dims, "A")
    ks = np.concatenate([np.broadcast_to(np.eye(da, dtype=complex), (2 * samples, da, da)), k_a, k_a])
    for p in ps:
        gap = p / (p - 1.0) * math.log2(mc.normalized_p_norm(symbol.f, p))
        values = _RenyiStack(np.concatenate([omega, omega_f] * 2), dims, p, ks).minimize().value
        for name, (v, vf) in zip(("I_cp", "I_p"), values.reshape(2, 2, samples)):
            cols += [(f"{name}_lower@p={p}", vf - v), (f"{name}_upper@p={p}", v + gap - vf)]
    return [(name, col[i]) for i in range(samples) for name, col in cols]


def padded_tro(shapes, form, seed):
    """A rotated modified TRO channel whose blocks leave one output dimension empty: block_tro_channel(shapes) with
    a zero output row added, modified by the identity or, at l = 2, by 1 (x) g, g twice a random density."""
    rng = np.random.default_rng(seed)
    base = block_tro_channel(shapes)
    kraus = np.concatenate([base.kraus, np.zeros((base.dim_env, 1, base.dim_in))], axis=1)
    g = 2 * mc.random_density(rng, 2)
    f = np.eye(base.dim_env) if form == "identity" else np.kron(np.eye(base.dim_env // 2), g)
    return rotated_modified(chn.Channel(kraus), f, rng)


def seeded_probs(k, seed=0):
    return np.random.default_rng(seed).dirichlet(np.ones(k))


def random_form(form, seed):
    return random_modified_tro(np.random.default_rng(seed), form=form).channel


BLOCK_CHANNELS = {
    "dephasing(0.3)": lambda: qubit_dephasing(0.3),
    "pauli": lambda: group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1]),  # one block (1, 2, 2)
    "phi_alpha(0.4)": lambda: phi_alpha(0.4).channel,
    "schur cyclic(4)": lambda: schur_multiplier_channel(cyclic_group(4), np.fft.fft(seeded_probs(4))),
    # blocks (2, 2, 2), (1, 1, 1), (1, 1, 1)
    "regular dihedral(3)": lambda: group_random_unitary(regular_representation(dihedral_group(3)), seeded_probs(6, 3)),
    **{f"random {form} {seed}": partial(random_form, form, seed) for form in SYMBOL_FORMS for seed in range(6)},
    "padded identity": lambda: padded_tro([(2, 2, 1), (1, 1, 2)], "identity", 0),
    "padded multiplicity": lambda: padded_tro([(2, 2, 2), (1, 1, 2)], "multiplicity", 1),
}


class TestEntropicBlocks:
    def test_cases_cover_a_block_of_n_2_with_l_2_and_empty_outputs(self):
        assert BLOCK_CHANNELS["regular dihedral(3)"]().symbol.certificate.decomposition.blocks[0] == (2, 2, 2)
        for name in ("padded identity", "padded multiplicity"):
            ch = BLOCK_CHANNELS[name]()
            assert sum(n * l for n, _, l in ch.symbol.certificate.decomposition.blocks) == ch.dim_out - 1

    @pytest.mark.parametrize("name", sorted(BLOCK_CHANNELS))
    def test_blocks_rebuild_omega(self, name):
        # (1 (x) U*) omega (1 (x) U) is (+)_i omega_i / l_i (x) 1_{l_i}, zero on any output the blocks leave empty
        ch = BLOCK_CHANNELS[name]()
        space, sym = ch.base_space, ch.symbol
        decomp, da, db = sym.certificate.decomposition, space.dim, space.dim_out
        [rho] = verify._draw(0, 3, da * da)
        blocks = verify._blocks(space, sym, rho)
        # every block has positive weight on these full-rank draws
        assert all((np.trace(w, axis1=-2, axis2=-1).real > 0).all() for w, _ in blocks.values())
        parts = {n: list(zip(np.moveaxis(w, 1, 0), ls)) for n, (w, ls) in blocks.items()}  # each size's, in order
        rebuilt, edge = np.zeros((3, da, db, da, db), dtype=complex), 0
        for n, _, l in decomp.blocks:
            w, l_i = parts[n].pop(0)
            assert l_i == l
            y = np.einsum("sajbk,cd->sajcbkd", w.reshape(3, da, n, da, n) / l, np.eye(l))
            rebuilt[:, :, edge : edge + n * l, :, edge : edge + n * l] = y.reshape(3, da, n * l, da, n * l)
            edge += n * l
        assert not any(parts.values())
        u = np.kron(np.eye(da), decomp.basis_change_out)
        omega = verify._id_tensor(chn.base_channel(space), rho)
        assert np.abs(mc.dagger(u) @ omega @ u - rebuilt.reshape(omega.shape)).max() <= 1e-14

    @pytest.mark.parametrize("tight", [False, True], ids=["default-tol", "tol-1e-13"])
    @pytest.mark.parametrize("name", sorted(BLOCK_CHANNELS))
    def test_values_match_the_whole_state(self, monkeypatch, name, tight):
        # at the default tol the stack's stop leaves two minimizations of one value up to 1.5e-11 apart at p = 4 on
        # these draws (and within 6e-14 at p 1.5 and 2), so p = 4 is compared with every stack run to tol 1e-13
        import trocap.entropy as ent

        ch = BLOCK_CHANNELS[name]()
        ps = (1.5, 2.0, 4.0) if tight else (1.5, 2.0)
        if tight:
            minimize = ent._RenyiStack.minimize
            monkeypatch.setattr(ent._RenyiStack, "minimize", lambda self: minimize(self, tol=1e-13))
        seen = recorded_slacks(monkeypatch)
        verify.verify_entropic(ch.base_space, ch.symbol, samples=3, seed=0, ps=ps)
        ref = whole_state_slacks(ch.base_space, ch.symbol, 3, 0, ps)
        assert [n for n, _ in seen] == [n for n, _ in ref]
        for (name, slack), (_, expected) in zip(seen, ref):
            assert slack == pytest.approx(expected, abs=1e-12), name

    def test_symbol_of_another_space_rejected(self):
        # same environment (2), output 3 against the symbol's 2: its U cannot cut the space's outputs
        _, sym = dephasing_pair(0.6)
        space = stinespring_space(partial_trace_sum_channel([(3, 2)]))
        with pytest.raises(DimMismatch, match="output dim 2, space 3"):
            verify.verify_entropic(space, sym, samples=1)


# ---------------------------------------------------------------------------
# the stacked local-comparison suite against the sample-by-sample loop


def loop_local_records(space, symbol, samples, seed, ps=verify.DEFAULT_PS):
    """(digest, name, slack) of every record of verify_local_comparison, one
    sample and one exponent at a time, each norm a single-matrix SVD."""
    from trocap import matcore as mc
    from trocap.channel import apply, base_channel, modified_channel

    n, nf = base_channel(space), modified_channel(space, symbol)
    decomp = symbol.certificate.decomposition
    u, shapes = decomp.basis_change_out, [(n_i, l) for n_i, _, l in decomp.blocks]

    def log_norm(x, p):
        return math.log2(float(np.linalg.norm(np.linalg.svd(x, compute_uv=False), ord=p)))

    fnorms = {p: math.log2(mc.normalized_p_norm(symbol.f, p)) for p in ps}
    out = []
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        rho = mc.random_density(rng, space.dim)
        e = alg._block_expectation(u, shapes, mc.random_psd(rng, space.dim_out))
        sigma = mc.hermitize(u @ e @ mc.dagger(u)) / np.trace(e).real
        dig = verify._digest(rho, sigma)
        for p in ps:
            p_conj = 1.0 if math.isinf(p) else p / (p - 1.0)
            a, b = log_norm(apply(n, rho), p), log_norm(apply(nf, rho), p)
            w = mc.matrix_power(sigma, -1.0 / (2.0 * p_conj))
            c, d = log_norm(w @ apply(n, rho) @ w, p), log_norm(w @ apply(nf, rho) @ w, p)
            out += [
                (dig, f"norm_lower@p={p}", b - a),
                (dig, f"norm_upper@p={p}", fnorms[p] + a - b),
                (dig, f"sandwich_lower@p={p}", d - c),
                (dig, f"sandwich_upper@p={p}", fnorms[p] + c - d),
            ]
    return out


class TestLocalComparisonStack:
    @pytest.mark.parametrize("case", ["phi_alpha", "dephasing", "pauli"])
    def test_matches_sample_loop(self, case):
        if case == "phi_alpha":
            bundle = phi_alpha(0.4)
            space, sym = bundle.space, bundle.symbol
        elif case == "pauli":
            ch = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
            space, sym = ch.base_space, ch.symbol
        else:
            space, sym = dephasing_pair(0.3)
        # tolerance -1 lists every record, in order, as a failure
        rep = verify.verify_local_comparison(space, sym, samples=5, seed=3, tolerance=-1.0)
        ref = loop_local_records(space, sym, samples=5, seed=3)
        assert [(d, n) for d, n, _ in rep.failures] == [(d, n) for d, n, _ in ref]
        for (_, name, slack), (_, _, expected) in zip(rep.failures, ref):
            assert slack == pytest.approx(expected, abs=1e-12), name

    def test_no_samples(self):
        # a report over no samples would pass with no check run
        space, sym = dephasing_pair(0.3)
        with pytest.raises(OutOfRange, match="samples must be an integer >= 1, got 0"):
            verify.verify_local_comparison(space, sym, samples=0)

    def test_no_exponents(self, monkeypatch):
        # with no exponent there is no inequality to check: the suite names ps before it draws a sample
        space, sym = dephasing_pair(0.3)
        monkeypatch.setattr(verify, "_draw", None)
        with pytest.raises(OutOfRange, match="ps must name at least one exponent"):
            verify.verify_local_comparison(space, sym, ps=())


# ---------------------------------------------------------------------------
# the stacked draws against one sample at a time


class TestStackedDraws:
    @pytest.mark.parametrize("dims", [(4,), (16,), (36,), (2, 2), (8, 4)])
    def test_match_one_sample_draws_bit_for_bit(self, dims):
        stacks = verify._draw(5, 7, *dims)
        for i in range(7):
            rng = np.random.default_rng((5, i))
            ref = [mc.random_density(rng, dims[0])] + [mc.random_psd(rng, d) for d in dims[1:]]
            assert all(np.array_equal(stack[i], r) for stack, r in zip(stacks, ref))

    @pytest.mark.parametrize("suite, name", [("entropic", "H_AB_lower")])
    def test_suites_digest_the_one_sample_draws(self, suite, name):
        # tolerance -1 lists every record as a failure; TestLocalComparisonStack checks the local suite's digests
        space, sym = dephasing_pair(0.3)
        rep = getattr(verify, f"verify_{suite}")(space, sym, samples=4, seed=2, tolerance=-1.0)
        dim = space.dim**2  # the bipartite input
        ref = [verify._digest(mc.random_density(np.random.default_rng((2, i)), dim)) for i in range(4)]
        assert [d for d, n, _ in rep.failures if n == name] == ref


def schur_tensor_pair(k):
    p = np.random.default_rng(0).random(k)
    ch = schur_multiplier_channel(cyclic_group(k), np.fft.fft(p / p.sum()))
    return ch.base_space, ch.symbol


class TestTensorSymbolStack:
    # tracemalloc peak of verify_tensor_symbol on the Schur cyclic(6) tensor square at 20 samples,
    # bytes, when the suite applied both channels one sample at a time (numpy 2.4)
    ONE_SAMPLE_PEAK = 6_159_856

    def test_peak_memory_stays_at_the_one_sample_loop(self):
        space, sym = schur_tensor_pair(6)
        verify.verify_tensor_symbol(space, sym, space, sym, samples=2)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            verify.verify_tensor_symbol(space, sym, space, sym, samples=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self.ONE_SAMPLE_PEAK



# Kraus shapes (E, out, in) of the channels id_A (x) N is taken of, A of N's input dimension
ID_TENSOR_SHAPES = [(1, 1, 1), (2, 2, 2), (5, 3, 2), (3, 2, 4), (4, 3, 4), (8, 4, 4), (2, 6, 3), (16, 4, 4), (3, 8, 8)]


class TestIdTensor:
    @pytest.mark.parametrize("samples", [1, 3, 16, 50])
    @pytest.mark.parametrize("shape", ID_TENSOR_SHAPES)
    def test_matches_the_factorwise_product_bit_for_bit(self, shape, samples):
        e, o, i = shape
        rng = np.random.default_rng(samples)
        ch = random_channel(rng, i, o, e)
        rho = np.array([mc.random_density(rng, i * i) for _ in range(samples)])
        assert np.array_equal(verify._id_tensor(ch, rho), factorwise_apply(chn.identity_channel(i), ch, rho))

    @pytest.mark.parametrize("shape", ID_TENSOR_SHAPES)
    def test_matches_the_product_channel(self, shape):
        e, o, i = shape
        rng = np.random.default_rng(11)
        ch = random_channel(rng, i, o, e)
        rho = np.array([mc.random_density(rng, i * i) for _ in range(3)])
        expected = chn.apply(chn.tensor_channels(chn.identity_channel(i), ch), rho)
        np.testing.assert_allclose(verify._id_tensor(ch, rho), expected, rtol=0, atol=1e-14)


def test_each_kernel_has_one_copy():
    # id (x) N, the PSD check and the Kronecker product each have one home: verify applies id (x) N by one
    # contraction, only matcore (and errors, which defines it) names NotPSD, and tensor_channels is matcore's product
    import importlib
    import inspect
    import pkgutil

    assert not hasattr(verify, "_apply_ancilla")
    names = [name for _, name, _ in pkgutil.iter_modules(trocap.__path__) if name not in ("matcore", "errors")]
    assert "verify" in names
    for name in names:
        assert "NotPSD" not in inspect.getsource(importlib.import_module(f"trocap.{name}")), name
    rng = np.random.default_rng(12)
    for dims_a, dims_b in [((2, 3, 2), (3, 2, 4)), ((4, 4, 1), (1, 2, 3))]:
        a, b = random_channel(rng, *dims_a), random_channel(rng, *dims_b)
        expected = np.array([np.kron(k, l) for k in a.kraus for l in b.kraus])
        np.testing.assert_array_equal(chn.tensor_channels(a, b).kraus, expected)
