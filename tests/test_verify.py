import math
import tracemalloc

import numpy as np
import pytest

import trocap
from trocap import algebra as alg
from trocap import channel as chn
from trocap import matcore as mc
from trocap import verify
from trocap.builders import (
    cyclic_group,
    group_random_unitary,
    partial_trace_sum_channel,
    pauli_rep,
    phi_alpha,
    qubit_dephasing,
    schur_multiplier_channel,
)
from trocap.channel import stinespring_space
from trocap.errors import BadExponent, DimMismatch, NotIndependent, OutOfRange

from helpers import ancilla_output, loop_minimize, random_channel


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
        report.record("aaa", "within", -5e-10)
        assert report.passed and report.worst_slack == -5e-10
        report.record("bbb", "beyond", -1e-6)
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
            report.record("aaa", "undefined", slack)
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
        assert calls == [4 * samples] * 3  # omega and omega_f of every sample, under both K, at once


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
# the stacked draws and the chunked tensor suite against one sample at a time


class TestStackedDraws:
    @pytest.mark.parametrize("dims", [(4,), (16,), (36,), (2, 2), (8, 4)])
    def test_match_one_sample_draws_bit_for_bit(self, dims):
        stacks = verify._draw(5, 7, *dims)
        for i in range(7):
            rng = np.random.default_rng((5, i))
            ref = [mc.random_density(rng, dims[0])] + [mc.random_psd(rng, d) for d in dims[1:]]
            assert all(np.array_equal(stack[i], r) for stack, r in zip(stacks, ref))

    @pytest.mark.parametrize("suite, name", [("entropic", "H_AB_lower"), ("tensor_symbol", "apply_equality")])
    def test_suites_digest_the_one_sample_draws(self, suite, name):
        # tolerance -1 lists every record as a failure; TestLocalComparisonStack checks the local suite's digests
        space, sym = dephasing_pair(0.3)
        run = verify.verify_entropic if suite == "entropic" else verify.verify_tensor_symbol
        args = (space, sym) if suite == "entropic" else (space, sym, space, sym)
        rep = run(*args, samples=4, seed=2, tolerance=-1.0)
        dim = space.dim**2  # the bipartite input and the tensor square's input alike
        ref = [verify._digest(mc.random_density(np.random.default_rng((2, i)), dim)) for i in range(4)]
        assert [d for d, n, _ in rep.failures if n == name] == ref

    def test_tensor_square_reuses_the_entropic_suites_draw(self, monkeypatch):
        # verify --suite all on a tensor square: both suites draw rho of dim d_in^2 from default_rng((seed, i))
        space, sym = dephasing_pair(0.3)
        entropic = verify.verify_entropic(space, sym, samples=4, seed=9, tolerance=-1.0)
        real, built = np.random.default_rng, []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: built.append(args) or real(*args))
        tensor = verify.verify_tensor_symbol(space, sym, space, sym, samples=4, seed=9, tolerance=-1.0)
        assert built == []
        digests = [d for d, n, _ in entropic.failures if n == "H_AB_lower"]
        assert [d for d, n, _ in tensor.failures if n == "apply_equality"] == digests
        verify.verify_tensor_symbol(space, sym, space, sym, samples=4, seed=10)
        assert built == [((10, i),) for i in range(4)]  # another seed draws afresh

    def test_draws_are_read_only(self):
        # the same arrays are handed to the next call with the same arguments, so no suite may write into them
        first = verify._draw(3, 2, 4, 2)
        assert all(a is b for a, b in zip(verify._draw(3, 2, 4, 2), first))
        for a in first:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0] = 1.0


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

    def test_chunks_give_the_one_sample_report(self, monkeypatch):
        ch = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        args = (ch.base_space, ch.symbol, ch.base_space, ch.symbol)
        chunks, real_apply = [], verify.apply

        def spy(channel, rho):  # the suite's one apply: the joint channel's, on a chunk
            chunks.append(len(rho))
            return real_apply(channel, rho)

        monkeypatch.setattr(verify, "apply", spy)
        reports = []
        for budget in (verify._APPLY_ENTRIES, 1):
            monkeypatch.setattr(verify, "_APPLY_ENTRIES", budget)
            reports.append(verify.verify_tensor_symbol(*args, samples=256, seed=3, tolerance=-1.0).to_dict())
        stacked, single = chunks[: -256], chunks[-256:]
        assert len(stacked) > 1 and sum(stacked) == 256 and single == [1] * 256
        assert reports[0] == reports[1] and len(reports[0]["failures"]) == 2 + 256

    @pytest.mark.parametrize("dims_a, dims_b", [((2, 3, 2), (3, 2, 4)), ((4, 4, 1), (1, 2, 3))])
    def test_factor_by_factor_apply_matches_the_product_channel(self, dims_a, dims_b):
        rng = np.random.default_rng(11)
        a, b = random_channel(rng, *dims_a), random_channel(rng, *dims_b)
        rho = np.array([mc.random_density(rng, a.dim_in * b.dim_in) for _ in range(3)])
        expected = chn.apply(chn.tensor_channels(a, b), rho)
        np.testing.assert_allclose(verify._apply_product(a, b, rho), expected, rtol=0, atol=1e-14)


def test_each_kernel_has_one_copy():
    # id (x) N, the PSD check and the Kronecker product each have one home: verify applies id (x) N factor by
    # factor, only matcore (and errors, which defines it) names NotPSD, and tensor_channels is matcore's product
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
