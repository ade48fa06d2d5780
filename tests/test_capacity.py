import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import trocap.capacity as cap
from trocap import matcore as mc
from trocap.algebra import identity_symbol, validate_symbol
from trocap.builders import (
    _phi_alpha_base,
    cyclic_group,
    partial_trace_sum_channel,
    pauli_rep,
    group_random_unitary,
    phi_alpha,
    qubit_dephasing,
    regular_representation,
    schur_multiplier_channel,
)
import trocap.entropy as ent
from trocap.channel import Channel, apply, complement_apply, identity_channel, modified_channel, stinespring_space, tensor_channels
from trocap.entropy import binary_entropy, renyi_coherent_information
from trocap.errors import (
    BadExponent,
    DimMismatch,
    EmptyBlocks,
    HypothesisFailed,
    InvalidSymbol,
    NotHermitian,
    OutOfRange,
    RankDeficient,
)

from helpers import (
    certified_cea,
    polish_state,
    random_modified_tro,
    random_unitary,
    rotated_modified,
    scipy_density_search,
    SYMBOL_FORMS,
)

LOG3 = math.log2(3.0)


class TestTroCapacities:
    def test_two_blocks(self):
        rep = cap.tro_capacities([(2, 2), (3, 1)])
        assert rep.entries["Q"].lower == pytest.approx(LOG3)
        assert rep.entries["Q"].upper == pytest.approx(LOG3)
        assert rep.entries["P"].lower == pytest.approx(LOG3)
        assert rep.entries["C"].lower == pytest.approx(math.log2(5.0))
        assert rep.entries["C_EA"].lower == pytest.approx(math.log2(13.0))
        assert rep.entries["Q_dagger"].upper == pytest.approx(LOG3)

    def test_single_trace_block(self):
        rep = cap.tro_capacities([(1, 5)])
        for name in ("C", "Q", "P", "C_EA"):
            assert rep.entries[name].lower == 0.0

    def test_identity_block(self):
        rep = cap.tro_capacities([(4, 1)])
        assert rep.entries["Q"].lower == pytest.approx(2.0)
        assert rep.entries["C"].lower == pytest.approx(2.0)
        assert rep.entries["C_EA"].lower == pytest.approx(4.0)

    def test_empty(self):
        with pytest.raises(EmptyBlocks):
            cap.tro_capacities([])

    @pytest.mark.parametrize(
        "blocks",
        [[2.9, 1], [(True, 1)], [True], ["3"], [("3", 1)], [math.nan], [(math.nan, 1)], [()], [np.float64(2.0)]],
        ids=["float", "bool-row", "bool", "str", "str-row", "nan", "nan-row", "empty-row", "numpy-float"],
    )
    def test_non_integer_block_sizes_rejected(self, blocks):
        # each was truncated (2.9 -> 2, True -> 1, "3" -> 3) or raised a bare ValueError
        for fn in (cap.tro_capacities, functools.partial(cap.cqe_region_vertices, lam=0.5, mu=0.5)):
            with pytest.raises(DimMismatch, match="must be integers"):
                fn(blocks)

    @pytest.mark.parametrize("blocks", [[0], [(0, 2)], [np.int64(-1)], np.zeros((1, 3), dtype=int)])
    def test_sizes_below_one_rejected(self, blocks):
        with pytest.raises(EmptyBlocks):
            cap.tro_capacities(blocks)

    @pytest.mark.parametrize(
        "blocks",
        [
            np.array([[2, 2, 1], [1, 3, 1], [3, 1, 2]]),
            [np.array([2, 2]), np.array([1, 3]), np.array([3, 1])],
            [(np.int64(2), 2), (np.int32(1), 3), (3, np.uint8(1))],
            [2, np.int64(1), 3],
            np.array([2, 1, 3]),
        ],
        ids=["2d-array", "array-rows", "numpy-int-rows", "bare-ints", "1d-array"],
    )
    def test_integer_sizes_in_any_row_form(self, blocks):
        # a 2-d array used to raise TypeError; every form reads n = 2, 1, 3
        want = cap.tro_capacities([(2, 2), (1, 3), (3, 1)])
        assert cap.tro_capacities(blocks).entries == want.entries
        for fn in (cap.cqe_region_vertices, cap.rps_region_vertices):
            got, ref = fn(blocks, 0.7, 0.2), fn([(2, 2), (1, 3), (3, 1)], 0.7, 0.2)
            assert np.array_equal(got.distribution, ref.distribution) and got.constraints == ref.constraints

    def test_certificate_blocks_give_the_block_formulas(self):
        # the CLI passes a certificate's (n, m, multiplicity) rows of Python ints
        for blocks in (phi_alpha(0.3).symbol.certificate.blocks, qubit_dephasing(0.4).symbol.certificate.blocks):
            ns = [n for n, _, _ in blocks]
            rep = cap.tro_capacities(blocks)
            assert rep.entries["Q"].lower == math.log2(max(ns))
            assert rep.entries["C"].lower == math.log2(sum(ns))
            assert rep.entries["C_EA"].lower == math.log2(sum(n * n for n in ns))

    def test_additive_under_block_tensoring(self):
        a = [(2, 2), (3, 1)]
        b = [(2, 1), (1, 3)]
        prod = [(n1 * n2, m1 * m2) for n1, m1 in a for n2, m2 in b]
        ra, rb, rp = (cap.tro_capacities(x) for x in (a, b, prod))
        for name in ("C", "Q", "P", "C_EA"):
            assert rp.entries[name].lower == pytest.approx(
                ra.entries[name].lower + rb.entries[name].lower
            )


class TestComparisonBounds:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
    def test_dephasing_window(self, q):
        ch = qubit_dephasing(q)
        rep = cap.comparison_bounds(ch.base_space, ch.symbol)
        assert rep.entries["Q"].lower == pytest.approx(0.0, abs=1e-12)
        assert rep.entries["Q"].upper == pytest.approx(
            1.0 - binary_entropy((1.0 + q) / 2.0), abs=1e-12
        )

    def test_identity_symbol_collapses(self):
        ch = partial_trace_sum_channel([(2, 2), (3, 1)])
        sym = identity_symbol(ch)
        rep = cap.comparison_bounds(stinespring_space(ch), sym)
        for name in ("C", "Q", "P", "C_EA"):
            assert rep.entries[name].lower == pytest.approx(rep.entries[name].upper)

    def test_phi_alpha_classical_window(self):
        bundle = phi_alpha(0.5)
        rep = cap.comparison_bounds(bundle.space, bundle.symbol)
        defect = 1.0 - binary_entropy(0.75)
        assert rep.entries["C"].lower == pytest.approx(LOG3)
        assert rep.entries["C"].upper == pytest.approx(LOG3 + defect)

    def test_strong_converse_entries_share_window(self):
        bundle = phi_alpha(0.3)
        rep = cap.comparison_bounds(bundle.space, bundle.symbol)
        assert rep.entries["Q_dagger"].lower == rep.entries["Q"].lower
        assert rep.entries["Q_dagger"].upper == rep.entries["Q"].upper
        assert rep.entries["Q_dagger"].provenance != rep.entries["Q"].provenance

    def test_rejects_plain_matrix(self):
        bundle = phi_alpha(0.3)
        with pytest.raises(InvalidSymbol):
            cap.comparison_bounds(bundle.space, np.eye(4))


class TestOneShotQ:
    def test_partial_trace_block(self):
        ch = partial_trace_sum_channel([(2, 2)])
        res = cap.one_shot_q(ch, restarts=16, seed=0)
        assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_complete_dephasing_is_zero(self):
        ch = qubit_dephasing(0.0)
        res = cap.one_shot_q(ch, restarts=16, seed=0)
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_phi_alpha_one(self):
        bundle = phi_alpha(1.0)
        res = cap.one_shot_q(bundle.channel, restarts=8, seed=0, init_states=bundle.block_inputs)
        assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_seed_reproducible(self):
        ch = qubit_dephasing(0.6)
        a = cap.one_shot_q(ch, restarts=4, seed=7)
        b = cap.one_shot_q(ch, restarts=4, seed=7)
        assert a.value == b.value and np.array_equal(a.rho, b.rho)

    def test_threaded_matches_serial(self):
        ch = qubit_dephasing(0.6)
        a = cap.one_shot_q(ch, restarts=6, seed=3, max_workers=1)
        b = cap.one_shot_q(ch, restarts=6, seed=3, max_workers=3)
        assert a.value == b.value

    def test_value_inside_comparison_window(self):
        for build in (lambda: qubit_dephasing(0.4), lambda: phi_alpha(0.6)):
            out = build()
            ch = out.channel if hasattr(out, "channel") else out
            space = out.space if hasattr(out, "space") else ch.base_space
            sym = out.symbol if hasattr(out, "symbol") else ch.symbol
            rep = cap.comparison_bounds(space, sym)
            inits = out.block_inputs if hasattr(out, "block_inputs") else None
            val = cap.one_shot_q(ch, restarts=12, seed=0, init_states=inits).value
            assert rep.entries["Q"].lower - 1e-6 <= val <= rep.entries["Q"].upper + 1e-6

    def test_finite_difference_gradient(self):
        # analytic gradient of the coherent information (and of the complement
        # term -H(N^E(rho)) of the concave objectives) at an interior point
        ch = qubit_dephasing(0.5)
        for term in (cap._value_and_grad, cap._complement_term):

            def fun(rho):
                f, m = term(ch, rho[None])
                return f[0], m[0]

            rng = np.random.default_rng(4)
            rho = mc.random_density(rng, 2)
            f0, m = fun(rho)
            eps = 1e-6
            delta = mc.hermitize(mc.random_complex(rng, (2, 2)))
            delta -= np.trace(delta) / 2 * np.eye(2)  # trace-preserving direction
            num = (fun(rho + eps * delta)[0] - fun(rho - eps * delta)[0]) / (2 * eps)
            ana = np.trace(m @ delta).real
            assert num == pytest.approx(ana, abs=1e-5)


# ---------------------------------------------------------------------------
# the batched ascent against the sequential one-restart-at-a-time loop


def _loop_ascent(g0, value_and_grad, max_iter=400):
    """Sequential reference: one restart, step halving on rejection, and after
    an accepted step s = eta D the short Barzilai-Borwein step -Re<s, y>/|y|^2,
    y the change of D (1.3 eta, at most 10, where that is not positive)."""
    g = g0.astype(complex)
    t = float(np.trace(g @ mc.dagger(g)).real)
    rho = (g @ mc.dagger(g)) / t
    f, m = value_and_grad(rho)
    best = cap.AscentResult(f, rho)
    eta = 0.25
    eye = np.eye(g.shape[0])
    accepted = False
    for _ in range(max_iter):
        c = float(np.trace(m @ rho).real)
        direction = ((m - c * eye) @ g) / t
        if mc.frobenius(direction) < 1e-12:
            break
        if accepted:
            y = direction - last
            sy, yy = -eta * float(np.vdot(last, y).real), float(np.vdot(y, y).real)
            eta = sy / yy if sy > 0 and yy > 0 else min(eta * 1.3, 10.0)
        accepted, last = False, direction
        while eta > 1e-13:
            g_new = g + eta * direction
            t_new = float(np.trace(g_new @ mc.dagger(g_new)).real)
            rho_new = (g_new @ mc.dagger(g_new)) / t_new
            f_new, m_new = value_and_grad(rho_new)
            if f_new > f + 1e-14:
                g, t, rho, f, m = g_new, t_new, rho_new, f_new, m_new
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        if f > best.value:
            best = cap.AscentResult(f, rho)
    return best


def _loop_value_and_grad(ch):
    """Per-matrix coherent information and gradient."""
    k, kc = ch.kraus, ch.kraus.conj()
    rows = k.swapaxes(0, 1)  # rows[i, e, k] = K_e[i, k]

    def entropy_and_log2(mat):
        # the entropy from the floored log the gradient uses: -sum w+ log2 max(w, 1e-18)
        w, v = np.linalg.eigh(mc.hermitize(mat))
        log2 = np.log2(np.clip(w, 1e-18, None))
        return float(-np.sum(np.clip(w, 0.0, None) * log2)), (v * log2) @ v.conj().T

    def fun(rho):
        h_env, log_env = entropy_and_log2(np.einsum("bij,jk,aik->ab", k, rho, kc))
        h_out, log_out = entropy_and_log2(np.einsum("eij,jk,elk->il", k, rho, kc))
        m = (mc.dagger(rows) @ log_env.T @ rows).sum(axis=0) - np.einsum("eji,jk,ekl->il", kc, log_out, k)
        return h_out - h_env, mc.hermitize(m)

    return fun


def _schur_cyclic4():
    return schur_multiplier_channel(cyclic_group(4), np.fft.fft([0.4, 0.3, 0.2, 0.1]))


FENCE_CASES = {
    "phi_alpha": lambda: phi_alpha(0.5),
    "dephasing": lambda: qubit_dephasing(0.6),
    "pauli": lambda: group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1]),
    "partial_trace_sum": lambda: partial_trace_sum_channel([(2, 2), (3, 1)]),
    "schur_cyclic4": _schur_cyclic4,
}


@functools.lru_cache(maxsize=None)
def _fence_case(name, seed):
    """Channel, init states and the loop reference's end values of 16 restarts.

    Restart pools are nested (the first R of 16 are the pool of R), so one
    reference run serves every R <= 16."""
    built = FENCE_CASES[name]()
    ch = getattr(built, "channel", built)
    inits = getattr(built, "block_inputs", None)
    pool = cap._init_pool(ch, 16, seed, inits)
    fun = _loop_value_and_grad(ch)
    return ch, inits, np.array([_loop_ascent(g0, fun).value for g0 in pool])


class TestBatchedAscentFence:
    @pytest.mark.parametrize("restarts", [1, 4, 16])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(FENCE_CASES))
    def test_matches_sequential_loop(self, monkeypatch, name, seed, restarts):
        ch, inits, ref = _fence_case(name, seed)
        ref = ref[:restarts]
        ends, real_ascent = [], cap._ascent

        def recording_ascent(*args, **kwargs):
            ends.append(real_ascent(*args, **kwargs))
            return ends[-1]

        monkeypatch.setattr(cap, "_ascent", recording_ascent)
        best = cap.one_shot_q(ch, restarts=restarts, seed=seed, init_states=inits, ceiling=math.inf).value
        values = ends[0][0]
        assert np.max(np.abs(values - ref)) <= 1e-9
        # the same winning restart, or where the reference's best ties others
        # within 1e-12 (rounding picks among them) one of those
        assert int(np.argmax(values)) in np.flatnonzero(ref >= np.max(ref) - 1e-12)
        assert best == pytest.approx(float(np.max(ref)), abs=1e-9)

    def test_two_batched_eigh_per_evaluation(self, monkeypatch):
        ch = _schur_cyclic4()
        evals, eighs = [], []
        real_eigh, real_vg = np.linalg.eigh, cap._value_and_grad

        def counting_eigh(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        def counting_vg(ch, rho):
            evals.append(len(rho))
            return real_vg(ch, rho)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(cap, "_value_and_grad", counting_vg)
        cap.one_shot_q(ch, restarts=8, seed=0, ceiling=math.inf)
        assert evals and len(eighs) == 2 * len(evals)
        assert evals[0] == 8 and all(len(shape) == 3 for shape in eighs)

    def test_not_hermitian_guard(self):
        ch = _schur_cyclic4()
        rho = np.stack([np.eye(4) / 4] * 3).astype(complex)
        rho[1, 0, 1] = 1e-3  # one input of the stack is not hermitian
        with pytest.raises(NotHermitian):
            cap._value_and_grad(ch, rho)
        cap._value_and_grad(ch, rho[[0, 2]])


def _ascent_end_state(ch, pool):
    """Run _ascent on the stack ``pool``; returns its local variables as it
    returns (every restart's G, F, step eta, direction and slope)."""
    seen = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is cap._ascent.__code__:
            seen.update(frame.f_locals)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cap._ascent(ch, pool)
    finally:
        sys.setprofile(previous)
    return seen


class TestMarginStop:
    """A restart ends once no halving of its step can clear ASCENT_MARGIN."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(FENCE_CASES))
    def test_no_skipped_halving_clears_the_margin(self, name, seed):
        built = FENCE_CASES[name]()
        ch = getattr(built, "channel", built)
        inits = getattr(built, "block_inputs", None)
        end = _ascent_end_state(ch, np.stack(list(cap._init_pool(ch, 16, seed, inits))).astype(complex))
        g, f, eta, direction, slope = (end[key] for key in ("g", "f", "eta", "direction", "slope"))
        norm = np.linalg.norm(direction, axis=(1, 2))
        # the margin stop ended these; the others stopped at the step floor,
        # a vanishing direction or ASCENT_MAX_STEPS, as before
        stopped = np.flatnonzero(
            (eta > 1e-13) & ~(eta * slope > cap.ASCENT_MARGIN) & ~(norm < 1e-12) & (end["steps"] < cap.ASCENT_MAX_STEPS)
        )
        assert stopped.size
        trials, owners = [], []
        for i in stopped:
            step = eta[i]
            while step > 1e-13:  # every step the floor alone would still try
                trials.append(g[i] + step * direction[i])
                owners.append(i)
                step *= 0.5
        f_trials = cap._value_and_grad(ch, cap._densities(np.stack(trials))[1])[0]
        # the stop is exact in real arithmetic, but computed F carries its own
        # rounding, above the margin near the Pauli and partial-trace optima:
        # measured as the spread of F over the same densities written as G U
        # for seeded unitaries U
        rng = np.random.default_rng(seed)
        us = [np.linalg.qr(mc.random_complex(rng, g.shape[1:]))[0] for _ in range(4)]
        rotated = np.stack([g[i] @ u for i in stopped for u in us])
        f_rotated = cap._value_and_grad(ch, cap._densities(rotated)[1])[0]
        rounding = float(np.max(np.abs(f_rotated - np.repeat(f[stopped], len(us)))))
        assert rounding < 10 * cap.ASCENT_MARGIN
        assert np.all(~(f_trials - f[owners] > cap.ASCENT_MARGIN + rounding))

    def test_pauli_table_ascent_evaluations(self, monkeypatch):
        # the bounds table's Pauli ascent, its Q1 upper edge as the ceiling:
        # 70 evaluations without the margin stop
        ch = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        upper = cap.comparison_bounds(ch.base_space, ch.symbol).entries["Q1"].upper
        calls = TestCeiling.counted_evaluations(monkeypatch)
        cap.one_shot_q(ch, restarts=4, seed=0, ceiling=upper)
        assert len(calls) <= 24  # 17; 30 with the 1.3x step growth


def _full_entropy(mat):
    """-sum lam log2 lam over the whole clipped spectrum: no support cut."""
    lam = np.clip(np.linalg.eigvalsh(mc.hermitize(mat)), 0.0, None)
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log2(lam)))


class TestAscentHonesty:
    """The ascent's value is the objective of the state it returns."""

    @pytest.mark.parametrize("restarts", [1, 4, 16])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(FENCE_CASES))
    def test_value_is_the_returned_states_objective(self, name, seed, restarts):
        built = FENCE_CASES[name]()
        ch = getattr(built, "channel", built)
        inits = getattr(built, "block_inputs", None)
        best = cap.one_shot_q(ch, restarts=restarts, seed=seed, init_states=inits, ceiling=math.inf)
        assert best.value <= _full_entropy(apply(ch, best.rho)) - _full_entropy(complement_apply(ch, best.rho)) + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_trace_sum_stays_at_its_exact_q1(self, seed):
        # Q1 = log2 max n = log2 3 exactly (tro_capacities); the ascent may
        # only reach it from below
        ch = partial_trace_sum_channel([(2, 2), (3, 1)])
        assert cap.one_shot_q(ch, restarts=16, seed=seed, ceiling=math.inf).value <= LOG3 + 1e-12


class TestCeiling:
    """one_shot_q stopped at a proven upper bound on Q1."""

    @staticmethod
    def counted_evaluations(monkeypatch):
        calls, real_vg = [], cap._value_and_grad

        def counting_vg(ch, rho):
            calls.append(len(rho))
            return real_vg(ch, rho)

        monkeypatch.setattr(cap, "_value_and_grad", counting_vg)
        return calls

    def test_block_inputs_reach_the_window_edge_at_once(self, monkeypatch):
        bundle = phi_alpha(0.3)
        upper = cap.comparison_bounds(bundle.space, bundle.channel.symbol).entries["Q1"].upper
        calls = self.counted_evaluations(monkeypatch)
        best = cap.one_shot_q(bundle.channel, ceiling=upper, init_states=bundle.block_inputs)
        assert len(calls) <= 2
        assert best.value >= upper * (1 - cap.CEILING_RTOL)

    def test_stop_within_a_relative_rtol_of_the_ceiling(self, monkeypatch):
        # the batched ascent from 8 seeded random inputs, a pool without the
        # extremal or attaining start: the partial-trace sum takes a few rounds
        # to reach Q1 = log2(3); the stopped batch is a prefix of the full one,
        # so it cannot end higher
        ch = partial_trace_sum_channel([(2, 2), (3, 1)])
        inits = [mc.random_density(np.random.default_rng((9, i)), 7) for i in range(8)]
        pool = np.stack(list(cap._init_pool(ch, 8, 0, inits)))
        calls = self.counted_evaluations(monkeypatch)
        full = cap._ascent(ch, pool, math.inf)[0].max()
        n_full = len(calls)
        best = cap._ascent(ch, pool, LOG3)[0].max()
        assert 1 < len(calls) - n_full < n_full
        assert LOG3 * (1 - cap.CEILING_RTOL) <= best <= full
        # one_shot_q with that ceiling: the 8 inputs once, then the attaining start, at log2(3)
        del calls[:]
        assert cap.one_shot_q(ch, restarts=8, init_states=inits, ceiling=LOG3).value >= cap._stop(LOG3)
        assert calls == [8, 1]

    def test_ceiling_below_every_start_returns_the_first_maximum(self, monkeypatch):
        # the head of the pool of 8: three seeded init states and the extremal start, I/2
        ch = _schur_cyclic4()
        inits = [mc.random_density(np.random.default_rng((5, i)), 4) for i in range(3)]
        rho = cap._densities(np.stack(list(cap._init_pool(ch, 4, 0, inits))).astype(complex))[1]
        f = cap._value_and_grad(ch, rho)[0]
        calls = self.counted_evaluations(monkeypatch)
        best = cap.one_shot_q(ch, restarts=8, seed=0, init_states=inits, ceiling=float(f.min()) - 1.0)
        assert calls == [4]  # the head's evaluation only
        first = int(np.argmax(f))
        assert best.value == f[first]
        np.testing.assert_array_equal(best.rho, rho[first])

    def test_no_ceiling_is_the_full_ascent(self):
        ch = _schur_cyclic4()
        f, rho = cap._ascent(ch, np.stack(list(cap._init_pool(ch, 4, 1, None))))  # no ceiling argument
        again = cap.one_shot_q(ch, restarts=4, seed=1, ceiling=math.inf)
        assert again.value == f[np.argmax(f)]
        np.testing.assert_array_equal(again.rho, rho[np.argmax(f)])

    def test_minus_infinity_stops_after_the_first_evaluation(self, monkeypatch):
        # the head alone: the extremal start, with no random fill drawn
        ch = _schur_cyclic4()
        calls = self.counted_evaluations(monkeypatch)
        monkeypatch.setattr(mc, "random_complex", None)  # a fill would call it
        cap.one_shot_q(ch, restarts=4, seed=1, ceiling=-math.inf)
        assert calls == [1]

    def test_nan_ceiling_raises(self):
        with pytest.raises(OutOfRange):
            cap.one_shot_q(qubit_dephasing(0.3), restarts=2, ceiling=float("nan"))


def _random_kraus(seed, dim_in, dim_out, dim_env):
    """Kraus family of a seeded Haar-random isometry C^in -> C^out (x) C^env."""
    iso = random_unitary(np.random.default_rng(seed), dim_out * dim_env)[:, :dim_in]
    return Channel(iso.reshape(dim_out, dim_env, dim_in).transpose(1, 0, 2))


class TestOwnCeiling:
    """one_shot_q with no ceiling stops at its channel's own Q1 upper edge."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["partial_trace_sum", "schur_cyclic4", "dephasing"])
    def test_closed_window_stops_at_the_edge(self, monkeypatch, name, seed):
        ch = FENCE_CASES[name]()
        # the edge as the structure gives it: log2 max n of the blocks, or the
        # Q1 window of the symbol that the channel carries
        if name == "partial_trace_sum":
            edge = LOG3
        else:
            edge = cap.comparison_bounds(ch.base_space, ch.symbol).entries["Q1"].upper
        calls = TestCeiling.counted_evaluations(monkeypatch)
        best = cap.one_shot_q(ch, restarts=16, seed=seed)
        n_own = len(calls)
        cap.one_shot_q(ch, restarts=16, seed=seed, ceiling=math.inf)
        assert edge * (1 - cap.CEILING_RTOL) <= best.value <= edge + 1e-12
        assert 10 * n_own <= len(calls) - n_own

    @pytest.mark.parametrize(
        "build",
        [FENCE_CASES["pauli"], lambda: _random_kraus(0, 3, 3, 2), lambda: _random_kraus(1, 2, 2, 3)],
        ids=["pauli", "random_kraus_332", "random_kraus_223"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_open_window_is_the_full_ascent(self, build, seed):
        ch = build()
        own = cap.one_shot_q(ch, restarts=8, seed=seed)
        full = cap.one_shot_q(ch, restarts=8, seed=seed, ceiling=math.inf)
        assert own.value == full.value
        np.testing.assert_array_equal(own.rho, full.rho)

    @pytest.mark.parametrize(("name", "certified"), [("dephasing", []), ("pauli", []), ("partial_trace_sum", [5])])
    def test_only_a_channel_without_symbol_is_certified(self, monkeypatch, name, certified):
        # a carried symbol is used as it is; otherwise the identity is
        # certified once, with the call's seed
        ch = FENCE_CASES[name]()
        seeds, real_certify = [], cap.alg._certify

        def spy(space, f, seed, *args, **kwargs):
            seeds.append(seed)
            return real_certify(space, f, seed, *args, **kwargs)

        monkeypatch.setattr(cap.alg, "_certify", spy)
        cap.one_shot_q(ch, restarts=2, seed=5)
        assert seeds == certified
        assert (ch.symbol is None) == bool(certified)

    def test_non_isometric_dilation_runs_uncapped(self):
        # 0.9 times a unitary: not trace preserving, so stinespring_space
        # rejects it; the ascent still runs, as with no ceiling
        u = random_unitary(np.random.default_rng(3), 3)
        ch = Channel(0.9 * u[None])
        with pytest.raises(RankDeficient):
            stinespring_space(ch)
        own = cap.one_shot_q(ch, restarts=4, seed=0)
        full = cap.one_shot_q(ch, restarts=4, seed=0, ceiling=math.inf)
        assert own.value == full.value
        np.testing.assert_array_equal(own.rho, full.rho)


SCIPY_FREE_RUN = """
import contextlib, io, sys
import trocap
from trocap import cli
from trocap.builders import qubit_dephasing
from trocap.entropy import minimize_renyi_divergence
from helpers import polish_state
ch = qubit_dephasing(0.3)
trocap.one_shot_q(ch, restarts=2)
trocap.negative_cb_entropy(ch, mode="numeric", restarts=2)
trocap.renyi_coherent_channel(ch, 2.0, restarts=1)
opt = minimize_renyi_divergence(polish_state(), (2, 3), 4.0)
assert opt.iterations == 400 and not opt.converged  # the fixed point handed over to the polish
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", sys.argv[1], "--samples", "5"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_optimizers_and_verify_leave_scipy_out(tmp_path):
    # trocap's runtime imports only numpy: after every public optimizer has run,
    # the stack's polish included, and after a verify run, no scipy module is loaded
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "kraus", "params": {"kraus": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
                                "symbol": [[1.0, 0.6], [0.6, 1.0]], "seed": 0}))
    src = os.path.dirname(os.path.dirname(cap.__file__))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(spec)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])},
    )
    assert out.stdout.strip() == "[]"


class TestNegativeCbEntropy:
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_dephasing_both_modes(self, q):
        ch = qubit_dephasing(q)
        target = 1.0 - binary_entropy((1.0 + q) / 2.0)
        assert cap.negative_cb_entropy(ch, "formula") == pytest.approx(target, abs=1e-4)
        assert cap.negative_cb_entropy(ch, "numeric", restarts=16, seed=0) == pytest.approx(
            target, abs=1e-4
        )

    def test_identity_channel(self):
        base = identity_channel(2)
        space = stinespring_space(base)
        sym = validate_symbol(base, np.eye(1))
        ch = modified_channel(space, sym)
        assert cap.negative_cb_entropy(ch, "formula") == pytest.approx(1.0)
        assert cap.negative_cb_entropy(ch, "numeric", restarts=8, seed=0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_depolarizing(self):
        ch = group_random_unitary(pauli_rep(), [0.25] * 4)
        assert cap.negative_cb_entropy(ch, "formula") == pytest.approx(-1.0)
        assert cap.negative_cb_entropy(ch, "numeric", restarts=32, seed=0) == pytest.approx(
            -1.0, abs=1e-3
        )

    def test_numeric_below_formula(self):
        for q in (0.2, 0.8):
            ch = qubit_dephasing(q)
            numeric = cap.negative_cb_entropy(ch, "numeric", restarts=32, seed=1)
            formula = cap.negative_cb_entropy(ch, "formula")
            assert numeric <= formula + 1e-6

    @pytest.mark.parametrize("name", ["dephasing", "partial_trace_sum", "phi_alpha"])
    def test_numeric_is_the_certified_lower_end(self, name):
        # the numeric value checks the closed form, so it is the lower end of
        # one certified run, whatever restarts and seed say
        built = FENCE_CASES[name]()
        ch = getattr(built, "channel", built)
        lower, upper, _ = _negative_cb_interval(ch)
        assert upper - lower <= 1e-10
        for restarts, seed in ((8, 0), (1, 5), (32, 1)):
            assert cap.negative_cb_entropy(ch, "numeric", restarts=restarts, seed=seed) == lower

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phi_alpha_certificate_holds_the_formula(self, seed):
        # the complement is proportionally unital, so the maximally mixed start
        # is optimal and the certified run closes its gap at once
        ch = phi_alpha(0.1).channel
        lower, upper, _ = _negative_cb_interval(ch)
        assert upper - lower <= 1e-10
        numeric = cap.negative_cb_entropy(ch, "numeric", restarts=16, seed=seed)
        assert numeric == pytest.approx(cap.negative_cb_entropy(ch, "formula"), abs=1e-12)

    def test_formula_needs_metadata(self):
        from trocap.channel import from_kraus

        with pytest.raises(InvalidSymbol):
            cap.negative_cb_entropy(from_kraus([np.eye(2)]), "formula")

    def test_hypothesis_failure(self):
        # a sum of partial traces with uneven environment marginal:
        # sum_k h_k* h_k is not proportional to the identity
        ch = partial_trace_sum_channel([(2, 2), (3, 1)])
        sym = identity_symbol(ch)
        tagged = Channel(ch.kraus, base_space=stinespring_space(ch), symbol=sym)
        with pytest.raises(HypothesisFailed):
            cap.negative_cb_entropy(tagged, "formula")


BLOCKS = "blocks [(2, 2), (3, 1)]"


def concave_channels():
    """The channels of the certified concave maximizations: each but the partial-trace sum BLOCKS carries a symbol
    over a reference space whose complement is proportionally unital, so the closed form applies to it."""
    base, w = identity_channel(2), np.random.default_rng(0).uniform(0.1, 1.0, size=8)
    out = {f"dephasing({q})": qubit_dephasing(q) for q in (0.0, 0.3, 1.0)}
    out["identity"] = modified_channel(stinespring_space(base), validate_symbol(base, np.eye(1)))
    out["depolarizing"] = group_random_unitary(pauli_rep(), [0.25] * 4)
    out["pauli"] = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
    out.update({f"phi_alpha({a})": phi_alpha(a).channel for a in (-0.6, 0.0, 0.1, 0.4)})
    out["schur cyclic(8)"] = schur_multiplier_channel(cyclic_group(8), np.fft.fft(w / w.sum()))
    out["regular cyclic(3)"] = group_random_unitary(regular_representation(cyclic_group(3)), [0.5, 0.3, 0.2])
    out[BLOCKS] = partial_trace_sum_channel([(2, 2), (3, 1)])
    return out


def _negative_cb_interval(ch):
    return cap._concave_max(functools.partial(cap._complement_term, ch), ch.dim_in)


class TestConcaveMax:
    """Numeric negative cb-entropy and C_EA as certified maximizations of concave objectives."""

    @pytest.mark.parametrize("name", list(concave_channels()))
    def test_gap_closes_around_the_formula(self, name):
        ch = concave_channels()[name]
        lower, upper, _ = _negative_cb_interval(ch)
        assert 0.0 <= upper - lower <= 1e-10
        assert cap.negative_cb_entropy(ch, "numeric") == lower
        if name != BLOCKS:
            assert lower - 1e-12 <= cap.negative_cb_entropy(ch, "formula") <= upper + 1e-12

    def test_partial_trace_sum_interval_holds_log2_3(self, monkeypatch):
        # the one case whose maximally mixed start is not optimal: it iterates
        calls = []
        monkeypatch.setattr(cap.chn, "complement_apply", lambda *args: calls.append(1) or complement_apply(*args))
        lower, upper, _ = _negative_cb_interval(concave_channels()[BLOCKS])
        assert lower - 1e-12 <= LOG3 <= upper + 1e-12
        assert len(calls) > 10

    @pytest.mark.parametrize("name", [name for name in concave_channels() if name != BLOCKS])
    def test_one_evaluation_on_a_proportionally_unital_complement(self, monkeypatch, name):
        # N^E(1/d) is proportional to 1, so the maximally mixed start has gap 0
        ch, calls = concave_channels()[name], []
        monkeypatch.setattr(cap.chn, "complement_apply", lambda *args: calls.append(1) or complement_apply(*args))
        cap.negative_cb_entropy(ch, "numeric")
        assert len(calls) == 1

    @pytest.mark.parametrize("cap_steps", [3, cap.ASCENT_MAX_STEPS])
    @pytest.mark.parametrize("name", ["phi_alpha(0.4)", BLOCKS])
    def test_lower_end_is_the_objective_of_the_returned_density(self, monkeypatch, name, cap_steps):
        # also where the step cap, not the gap, stops the run: the interval is
        # then wider, and still holds the maximum
        ch = concave_channels()[name]
        monkeypatch.setattr(cap, "ASCENT_MAX_STEPS", cap_steps)
        lower, upper, rho = _negative_cb_interval(ch)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14) and np.linalg.eigvalsh(rho)[0] > 0
        assert lower == pytest.approx(_full_entropy(rho) - _full_entropy(complement_apply(ch, rho)), abs=1e-13)
        best = LOG3 if name == BLOCKS else cap.negative_cb_entropy(ch, "formula")
        assert lower - 1e-12 <= best <= upper + 1e-12
        assert (upper - lower > 1e-10) == (name == BLOCKS and cap_steps == 3)

    @pytest.mark.parametrize("objective", ["negative_cb", "cea"])
    @pytest.mark.parametrize("seed", range(24))
    def test_interval_holds_every_sampled_density_of_a_random_isometry(self, objective, seed):
        # channels with no symbol (input 2-4, output 2-4, environment 1-4): the
        # upper end bounds F at 64 seeded densities, and the lower end is F at
        # the returned density; negative cb also closes its gap, while C_EA's
        # step 1 can contract slowly (seeds 1 and 10 end at the step cap with
        # gaps 4.4e-8 and 4.1e-7)
        d_in, d_out, d_env = 2 + seed % 3, 2 + seed // 3 % 3, 1 + seed // 9 % 4
        ch = _random_kraus(seed, d_in, d_out, max(d_env, -(-d_in // d_out)))

        def objective_at(rho):
            first = _full_entropy(apply(ch, rho)) if objective == "cea" else 0.0
            return _full_entropy(rho) + first - _full_entropy(complement_apply(ch, rho))

        term = cap._value_and_grad if objective == "cea" else cap._complement_term
        lower, upper, rho = cap._concave_max(functools.partial(term, ch), d_in)
        assert lower == pytest.approx(objective_at(rho), abs=1e-12)
        rng = np.random.default_rng(seed)
        assert max(objective_at(mc.random_density(rng, d_in)) for _ in range(64)) <= upper + 1e-12
        assert objective == "cea" or upper - lower <= 1e-10

    def test_a_fall_halves_the_step(self):
        # H(rho) - 20 |rho - sigma|_F^2 is concave and curved enough that the
        # Blahut-Arimoto step s = 1 overshoots: without the halving the value
        # falls to about -20 and the gap stays above 75
        sigma, values = np.diag([0.7, 0.2, 0.1]).astype(complex), []

        def term(rho):
            values.append(-20.0 * np.vdot(rho - sigma, rho - sigma).real)
            return values[-1], -40.0 * (rho - sigma)

        lower, upper, rho = cap._concave_max(term, 3)
        assert upper - lower <= 1e-10 and len(values) < 50
        assert lower == pytest.approx(_full_entropy(rho) - 20.0 * np.linalg.norm(rho - sigma) ** 2, abs=1e-13)

    @pytest.mark.parametrize("name", list(concave_channels()))
    def test_certified_cea_inside_the_comparison_window(self, name):
        # C_EA is the maximum of the concave mutual information, so its interval
        # checks the blocks and the entropy defect of comparison_bounds
        ch = concave_channels()[name]
        lower, upper, _ = certified_cea(ch)
        if name == BLOCKS:
            window = cap.tro_capacities([(2, 2), (3, 1)]).entries["C_EA"]
        else:
            window = cap.comparison_bounds(ch.base_space, ch.symbol).entries["C_EA"]
        assert 0.0 <= upper - lower <= 1e-10
        assert window.lower - 1e-12 <= lower and upper <= window.upper + 1e-12

    def test_phi_alpha_cea_strictly_inside_its_window(self):
        bundle = phi_alpha(0.4)
        window = cap.comparison_bounds(bundle.space, bundle.symbol).entries["C_EA"]
        lower, upper, _ = certified_cea(bundle.channel)
        assert lower == pytest.approx(1.695485403795, abs=1e-12)
        assert window.lower + 1e-3 < lower <= upper < window.upper - 1e-3
        assert (window.lower, window.upper) == pytest.approx((LOG3, 1.704), abs=5e-4)


RESTART_RUNS = {
    "one_shot_q": lambda ch, r: cap.one_shot_q(ch, restarts=r).value,
    "negative_cb_entropy": lambda ch, r: cap.negative_cb_entropy(ch, "numeric", restarts=r),
    "renyi_coherent_channel": lambda ch, r: cap.renyi_coherent_channel(ch, 2.0, restarts=r),
}


class TestRestartCount:
    @pytest.mark.parametrize("restarts", [2.5, 2.0, True, 0], ids=repr)
    @pytest.mark.parametrize("name", sorted(RESTART_RUNS))
    def test_anything_but_an_integer_of_at_least_one_raises(self, name, restarts):
        # a float would reach the pool's slice as an index, and True would run as one restart
        with pytest.raises(OutOfRange, match="integer"):
            RESTART_RUNS[name](qubit_dephasing(0.3), restarts)

    @pytest.mark.parametrize("name", sorted(RESTART_RUNS))
    def test_numpy_integer_counts_as_its_value(self, name):
        ch = qubit_dephasing(0.3)
        assert RESTART_RUNS[name](ch, np.int64(2)) == RESTART_RUNS[name](ch, 2)


class TestFidelityBound:
    def test_rate_at_renyi_value_gives_one(self):
        for p in (1.5, 2.0, 4.0):
            q1p = 3.0
            assert cap.fidelity_bound(2**3, q1p, p) == pytest.approx(1.0)

    def test_half(self):
        assert cap.fidelity_bound(4, 0.0, 2.0) == pytest.approx(0.5)

    def test_decreasing_in_code_size(self):
        vals = [cap.fidelity_bound(m, 1.0, 2.0) for m in (2, 4, 8, 16)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            cap.fidelity_bound(4, 0.0, 1.0)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, np.float64(4.0), 0, np.int64(0)], ids=repr)
    def test_anything_but_an_integer_of_at_least_one_raises(self, m):
        # a code has a whole number of codewords; 2.5 and True gave numbers, as for restarts
        with pytest.raises(OutOfRange, match="code size must be an integer >= 1"):
            cap.fidelity_bound(m, 0.1, 2.0)

    def test_numpy_integer_counts_as_its_value(self):
        assert cap.fidelity_bound(np.int64(4), 0.1, 2.0) == cap.fidelity_bound(4, 0.1, 2.0)


class TestRenyiCoherentChannel:
    def test_complete_dephasing_zero(self):
        ch = qubit_dephasing(0.0)
        val = cap.renyi_coherent_channel(ch, 2.0, restarts=2, seed=0)
        assert val == pytest.approx(0.0, abs=1e-4)

    def test_partial_trace_block(self):
        ch = partial_trace_sum_channel([(2, 2)])
        best = np.zeros((4, 4), dtype=complex)
        best[0, 0] = best[2, 2] = 0.5  # maximally entangle the kept factor
        val = cap.renyi_coherent_channel(ch, 2.0, restarts=2, seed=0, init_states=[best])
        assert val == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("run", [cap.one_shot_q, cap.renyi_coherent_channel])
    def test_init_state_of_the_wrong_size_raises(self, run):
        args = () if run is cap.one_shot_q else (2.0,)
        with pytest.raises(DimMismatch, match="init state is 3 x 3, expected 2 x 2"):
            run(qubit_dephasing(0.3), *args, restarts=2, init_states=[np.eye(3) / 3])

    def test_restarts_below_one_raise(self):
        with pytest.raises(OutOfRange):
            cap.renyi_coherent_channel(qubit_dephasing(0.3), 2.0, restarts=0)

    @pytest.mark.parametrize("p", [math.inf, math.nan, 1.0])
    def test_bad_exponent_raises_at_entry(self, monkeypatch, p):
        def never(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cap, "_density_search", never)
        with pytest.raises(BadExponent, match="optimizer needs finite p > 1"):
            cap.renyi_coherent_channel(qubit_dephasing(0.3), p)

    def test_nondecreasing_in_p(self):
        # D_p grows with p, so the optimized coherent value does too and the
        # p -> 1 limit is the smallest member of the family
        ch = qubit_dephasing(0.7)
        vals = [cap.renyi_coherent_channel(ch, p, restarts=2, seed=0) for p in (1.5, 2.0, 4.0)]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
        low = cap.one_shot_q(ch, restarts=8, seed=0).value
        assert low <= vals[0] + 1e-6


def renyi_channels(seed=0):
    """The channels the Renyi searches are timed on: a dephasing qubit,
    phi_alpha and a Schur multiplier on Z_4, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=4)
    return {
        "dephasing": qubit_dephasing(float(rng.uniform(0.05, 0.95)), seed=seed),
        "phi_alpha": phi_alpha(float(rng.choice([-0.5, 0.4, 0.5, 0.6, 0.8]))).channel,
        "schur_k4": schur_multiplier_channel(cyclic_group(4), np.fft.fft(weights / weights.sum()), seed=seed),
    }


def isometry_channel():
    """A seeded random isometry channel with Kraus stack shape (E, d_out, d_in) = (5, 3, 2):
    unlike the channels above, E != d_in, so a swap of those two axes cannot pass unseen."""
    v = np.linalg.qr(mc.random_complex(np.random.default_rng(38), (15, 2)))[0]
    return Channel(v.reshape(5, 3, 2))


def renyi_trace(monkeypatch):
    """Spies on renyi_coherent_channel's candidate values, in call order: each evaluation of _dual_value_and_grads
    outside a search (one at each start of _edge_and_start) as ("evaluation", D_beta, units), and each _density_search
    over pairs (psi, tau) as ("search", its end value, its end units); the attaining start's search over one unit block
    yields no candidate.  Returns the list, which fills as the calls run."""
    trace, real_eval, real_search, searching = [], cap._dual_value_and_grads, cap._density_search, []

    def evaluation(kraus, beta, units):
        out = real_eval(kraus, beta, units)
        if not searching:
            trace.append(("evaluation", out[0], units))
        return out

    def search(fun, m0s, *args):
        searching.append(1)
        out = real_search(fun, m0s, *args)
        searching.pop()
        if len(m0s) == 2:
            trace.append(("search", *out))
        return out

    monkeypatch.setattr(cap, "_dual_value_and_grads", evaluation)
    monkeypatch.setattr(cap, "_density_search", search)
    return trace


def values_to_the_edge(trace, ch, seed, p, restarts):
    """How many candidate values renyi_coherent_channel(ch, p, restarts, seed) may take: one evaluation at each start
    of _edge_and_start that exists, then the restarts' searches, through the first whose value -D_beta reaches
    _stop(edge), else all of them."""
    edge, start, sym = cap._edge_and_start(ch, seed, p)
    count = sum(s is not None for s in (start, sym and cap._attaining_start(*sym)))
    return next((i + 1 for i, (_, value, _) in enumerate(trace) if -value >= cap._stop(edge)), count + restarts)


def open_renyi_channels(seed=0):
    """Channels whose Renyi windows stay open, so that the restarts' searches run: a Pauli mixture of seeded weights
    (one block with l = 2, so no attaining start) and the random isometry (strictly inside its TRO, so no start)."""
    w = np.random.default_rng(seed).uniform(0.1, 1.0, size=4)
    return {"pauli": group_random_unitary(pauli_rep(), w / w.sum()), "isometry": isometry_channel()}


def fd_renyi_coherent_channel(ch, p, restarts, seed):
    """renyi_coherent_channel as it was with scipy's finite-difference
    gradient: the reference the exact gradient must match or beat."""
    from scipy import optimize

    d = ch.dim_in
    extended = tensor_channels(identity_channel(d), ch)

    def objective(x):
        g = x[: d * d] + 1j * x[d * d :]
        if np.linalg.norm(g) < 1e-9:
            return 1e6
        psi = g / np.linalg.norm(g)
        omega = apply(extended, np.outer(psi, psi.conj()))
        omega = mc.hermitize(omega) / np.trace(omega).real
        return -renyi_coherent_information(omega, (d, ch.dim_out), p, seed=seed)

    starts = [np.eye(d, dtype=complex)]
    starts += [mc.random_complex(np.random.default_rng((seed, i)), (d, d)) for i in range(1, restarts)]
    best = -math.inf
    for g0 in starts:
        x0 = np.concatenate([g0.real.reshape(-1), g0.imag.reshape(-1)])
        res = optimize.minimize(objective, x0, method="L-BFGS-B", options={"maxiter": 60})
        best = max(best, -res.fun, -objective(x0))
    return best


class TestKernelBelowOne:
    """The dual kernel (_dual_value_and_grads) at the exponents beta in [1/2, 1), from the
    factor of omega_AE, against D_beta of the explicit omega_AE = (id (x) N^c)(psi psi*)."""

    @staticmethod
    def _reference(omega, tau, beta, rank):
        """D_beta(omega || 1 (x) tau) = log2 tr (a omega a)^beta / (beta - 1), a = 1 (x)
        tau^c, c = (1 - beta)/(2 beta), from plain eigendecompositions: tau^c over all
        of tau's spectrum (0^c = 0), and the ``rank`` largest eigenvalues of a omega a."""
        w, v = np.linalg.eigh(tau)
        tau_c = (v * np.clip(w, 0, None) ** ((1 - beta) / (2 * beta))) @ v.conj().T
        a = np.kron(np.eye(len(omega) // len(tau)), tau_c)
        lam = np.linalg.eigvalsh(a @ omega @ a)[-rank:]
        return math.log2(np.sum(lam**beta)) / (beta - 1)

    @staticmethod
    def _kernel_and_dense(ch, psi, u, beta):
        """The kernel's value at unit blocks (psi, u), the dense omega_AE and tau = u u*."""
        extended = tensor_channels(identity_channel(ch.dim_in), Channel(ch.kraus.swapaxes(0, 1)))  # id (x) N^c
        omega = mc.hermitize(apply(extended, psi @ psi.conj().T))
        return cap._dual_value_and_grads(ch.kraus, beta, (psi, u))[0], omega, u @ u.conj().T

    @pytest.mark.parametrize("beta", [0.55, 2 / 3, 0.8])
    @pytest.mark.parametrize("name", sorted(renyi_channels()))
    def test_value_matches_plain_eigendecompositions(self, name, beta):
        # omega_AE has rank d_out, the factor's column count, and tau full rank
        ch = renyi_channels()[name]
        rng = np.random.default_rng(31)
        psi, u = mc.random_complex(rng, (ch.dim_in**2, 1)), mc.random_complex(rng, (ch.dim_env,) * 2)
        value, omega, tau = self._kernel_and_dense(ch, psi / np.linalg.norm(psi), u / np.linalg.norm(u), beta)
        assert np.linalg.matrix_rank(omega) == ch.dim_out
        assert value == pytest.approx(self._reference(omega, tau, beta, ch.dim_out), abs=1e-12)

    @pytest.mark.parametrize("beta", [0.55, 2 / 3, 0.8])
    def test_product_input_gives_a_rank_one_factor(self, beta):
        # psi = a (x) |0> on the dephasing qubit (a Schur multiplier, diagonal Kraus operators):
        # one column of U is zero, so M has one nonzero eigenvalue and the rounding of its
        # zero must not count
        ch = renyi_channels()["dephasing"]
        rng = np.random.default_rng(32)
        a, u = mc.random_complex(rng, (2,)), mc.random_complex(rng, (2, 2))
        psi = np.kron(a / np.linalg.norm(a), [1.0, 0.0])[:, None]
        value, omega, tau = self._kernel_and_dense(ch, psi, u / np.linalg.norm(u), beta)
        assert np.linalg.matrix_rank(omega) == 1
        assert value == pytest.approx(self._reference(omega, tau, beta, 1), abs=1e-12)

    @pytest.mark.parametrize("beta", [0.55, 2 / 3, 0.8])
    def test_no_support_penalty_below_one(self, beta):
        # tau of rank 3 of 4 (diagonal, so its zero is exact) on the Schur multiplier of
        # Z_4: D_beta is finite there, and the kernel gives it, with no penalty
        ch = renyi_channels()["schur_k4"]
        psi = mc.random_complex(np.random.default_rng(33), (16, 1))
        u = np.diag(np.sqrt([0.0, 0.2, 0.3, 0.5]))
        value, omega, tau = self._kernel_and_dense(ch, psi / np.linalg.norm(psi), u, beta)
        assert value == pytest.approx(self._reference(omega, tau, beta, 4), abs=1e-12)

    @pytest.mark.parametrize("beta", [0.55, 2 / 3, 0.8])
    def test_value_when_the_environment_is_not_the_input(self, beta):
        # (E, d_out, d_in) = (5, 3, 2): omega_AE on 2 x 5 of rank d_out = 3, tau full rank
        ch = isometry_channel()
        rng = np.random.default_rng(34)
        psi, u = mc.random_complex(rng, (4, 1)), mc.random_complex(rng, (5, 5))
        value, omega, tau = self._kernel_and_dense(ch, psi / np.linalg.norm(psi), u / np.linalg.norm(u), beta)
        assert omega.shape == (10, 10) and np.linalg.matrix_rank(omega) == 3
        assert value == pytest.approx(self._reference(omega, tau, beta, 3), abs=1e-12)


    @staticmethod
    def _reference_40_digits(kraus, beta, psi, u):
        """D_beta(omega_AE || 1 (x) tau), tau = u u*, at 40 digits: log2 tr M^beta / (beta - 1) over all
        of M = sum_a U_a* tau^2c U_a, U_a the E x d_out rows of the factor U = Psi K at each a."""
        import mpmath

        n_env, d_out, d_in = kraus.shape
        with mpmath.workdps(40):
            w, v = mpmath.eighe(mpmath.matrix(u.tolist()) * mpmath.matrix(u.tolist()).H)
            two_c = (1 - mpmath.mpf(beta)) / mpmath.mpf(beta)
            tau_2c = v * mpmath.diag([x**two_c if x > 0 else 0 for x in w]) * v.H
            k2 = mpmath.matrix(kraus.reshape(-1, d_in).tolist()).T
            m = mpmath.zeros(d_out, d_out)
            for row in psi.reshape(-1, d_in):
                u_a = mpmath.matrix([row.tolist()]) * k2
                u_a = mpmath.matrix([[u_a[0, e * d_out + o] for o in range(d_out)] for e in range(n_env)])
                m += u_a.H * tau_2c * u_a
            return float(mpmath.log(sum(max(x, 0) ** beta for x in mpmath.eighe(m)[0]), 2) / (beta - 1))

    @pytest.mark.parametrize("beta", [0.55, 4 / 7, 2 / 3])
    def test_value_where_m_has_a_tiny_eigenvalue_matches_40_digits(self, beta):
        # psi = a (x) |0> + 3e-8 b (x) |1> on the dephasing qubit: M = W* W has an eigenvalue
        # about 1e-15 of its largest, which an eigh of W* W rounds or drops (1e-8 off at
        # beta 0.55); the squared singular values of W keep it
        ch = renyi_channels()["dephasing"]
        rng = np.random.default_rng(5)
        a, b, u = mc.random_complex(rng, (2,)), mc.random_complex(rng, (2,)), mc.random_complex(rng, (2, 2))
        psi = (np.kron(a, [1, 0]) + 3e-8 * np.kron(b, [0, 1]))[:, None]
        psi, u = psi / np.linalg.norm(psi), u / np.linalg.norm(u)
        value = cap._dual_value_and_grads(ch.kraus, beta, (psi, u))[0]
        assert value == pytest.approx(self._reference_40_digits(ch.kraus, beta, psi, u), abs=1e-14)


class TestRenyiExactGradient:
    @staticmethod
    def _dual_errors(ch, p, block, hs):
        """|central difference - exact directional derivative| of the dual
        objective D_beta(omega_AE || 1 (x) tau) (_dual_value_and_grads) at a
        seeded unit psi and a seeded u, tau = u u* of full rank and trace 1, for
        each step in ``hs``: along a seeded direction z of the amplitudes (psi
        renormalized, so the input stays pure: psi moves by z' = z - Re<psi, z>
        psi, and the slope is 2 Re<z', G psi>), or along a seeded direction z of
        u (tau moves by z u* + u z*, and the slope is 2 Re<z, G_tau u>)."""
        d, e, beta = ch.dim_in, ch.dim_env, p / (2 * p - 1)
        rng = np.random.default_rng(7)
        psi = mc.random_complex(rng, (d * d, 1))
        psi /= np.linalg.norm(psi)
        u = mc.matrix_power((mc.random_density(rng, e) + np.eye(e) / e) / 2, 0.5)

        def f(amplitudes, factor):
            return cap._dual_value_and_grads(ch.kraus, beta, (amplitudes / np.linalg.norm(amplitudes), factor))

        _, (grad_psi, grad_u) = f(psi, u)
        if block == "psi":
            z = mc.random_complex(rng, psi.shape)
            z /= np.linalg.norm(z)
            slope = 2 * np.vdot(z - np.vdot(psi, z).real * psi, grad_psi).real

            def moved(h):
                return f(psi + h * z, u)[0]

        else:
            z = mc.random_complex(rng, (e, e))
            z /= np.linalg.norm(z)
            slope = 2 * np.vdot(z, grad_u).real

            def moved(h):
                return f(psi, u + h * z)[0]

        return [abs((moved(h) - moved(-h)) / (2 * h) - slope) for h in hs]

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("name", ["dephasing", "phi_alpha", "schur_k4"])
    @pytest.mark.parametrize("block", ["psi", "tau"])
    def test_dual_gradient_matches_central_differences(self, block, name, p):
        # no inner minimization, so no inner tolerance: central differences
        # approach the exact gradient as O(h^2) in both blocks of the pair
        coarse, fine = self._dual_errors(renyi_channels()[name], p, block, (1e-2, 1e-3))
        assert fine < coarse / 20

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("block", ["psi", "tau"])
    def test_dual_gradient_when_the_environment_is_not_the_input(self, block, p):
        # (E, d_out, d_in) = (5, 3, 2), where no axis of the Kraus stack can stand in for another
        coarse, fine = self._dual_errors(isometry_channel(), p, block, (1e-2, 1e-3))
        assert fine < coarse / 20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_restart_is_bracketed_by_the_primal(self, monkeypatch, seed):
        # weak duality: at each candidate's psi (the inputs of the evaluations at the starts, each
        # search's end), any sigma's D_p is at least the coherent value and any tau's -D_beta at
        # most, so a tight primal lies at or above the candidate's value (up to rounding) and,
        # once a search has converged in tau or a value has reached the edge (which bounds the
        # primal), within 1e-8 of it; the searches run on the channels whose windows stay open
        trace = renyi_trace(monkeypatch)
        for name, ch in {**renyi_channels(seed), **open_renyi_channels(seed)}.items():
            d, db = ch.dim_in, ch.dim_out
            extended = tensor_channels(identity_channel(d), ch)
            for p in (1.5, 2.0, 4.0):
                trace.clear()
                cap.renyi_coherent_channel(ch, p, restarts=2, seed=seed)
                edge, kinds = cap._edge_and_start(ch, seed, p)[0], [kind for kind, *_ in trace]
                assert len(trace) == values_to_the_edge(trace, ch, seed, p, 2) and kinds == sorted(kinds)
                for kind, objective, (psi, _) in trace:
                    omega = mc.hermitize(apply(extended, psi @ psi.conj().T))
                    sigma = ent._RenyiStack(omega[None], (d, db), p).minimize(1e-15, 5000).sigma
                    # the fixed point cuts omega_B to its support; with 1e-9 of
                    # the maximally mixed state its sigma covers all of omega_B,
                    # so D_p there is an upper value on the whole state
                    sigma = (1 - 1e-9) * sigma + 1e-9 * np.eye(db) / db
                    primal = ent._evaluate(p, omega[None], sigma)[0][0]
                    assert -objective - 1e-12 <= primal, (name, p)
                    if kind == "search" or -objective >= cap._stop(edge):
                        assert primal <= -objective + 1e-8, (name, p)

    def test_stack_value_on_a_thin_marginal_lies_just_below_the_dual_value(self):
        # a fixed pair on the completely dephasing qubit: psi = sqrt(1 - eps)|00> +
        # sqrt(eps)|11>, eps = 4e-12, and tau = diag(1 - eps, eps), where -D_beta is 0,
        # the whole-state infimum.  omega_B = tau has eps below the 1e-10 support cut:
        # the stack minimizes D_p of the state with that B direction zeroed, so its
        # value lies below the certified dual value, by p' eps/ln 2 = 1.7e-11 at
        # p = 1.5; this records the side and bounds the size at 1e-10
        ch, eps, p = qubit_dephasing(0.0), 4e-12, 1.5
        psi = np.sqrt([1 - eps, 0, 0, eps]).astype(complex)[:, None]
        objective = cap._dual_value_and_grads(ch.kraus, p / (2 * p - 1), (psi, np.diag(np.sqrt([1 - eps, eps]))))[0]
        assert abs(objective) < 1e-14
        omega = mc.hermitize(apply(tensor_channels(identity_channel(2), ch), psi @ psi.conj().T))
        wb = np.linalg.eigvalsh(mc.partial_trace(omega, (2, 2), "B"))
        assert 0 < wb[0] < mc.SUPPORT_CUTOFF * wb[-1]
        value = ent.minimize_renyi_divergence(omega, (2, 2), p).value
        assert -1e-10 < value - (-objective) < 0
        assert value == pytest.approx(3 * math.log2(1 - eps), abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_searches_end_as_low_as_scipy(self, monkeypatch, seed):
        # each search (over (psi, tau), or over the attaining start's unit) against scipy's L-BFGS-B
        # from the same start (helpers.scipy_density_search, which has no floor): no end value more
        # than 1e-9 above scipy's, and each call takes its candidates through the first that reaches
        # the edge; the pair searches run on the channels whose windows stay open
        real, gaps = cap._density_search, []

        def both(fun, m0s, maxiter, floor):
            out = real(fun, m0s, maxiter, floor)
            gaps.append(out[0] - scipy_density_search(fun, m0s, maxiter)[0])
            return out

        monkeypatch.setattr(cap, "_density_search", both)
        trace = renyi_trace(monkeypatch)
        for ch in {**renyi_channels(seed), **open_renyi_channels(seed)}.values():
            for p in (1.5, 2.0, 4.0):
                trace.clear()
                cap.renyi_coherent_channel(ch, p, restarts=2, seed=seed)
                assert len(trace) == values_to_the_edge(trace, ch, seed, p, 2)
        assert any(kind == "search" for kind, *_ in trace) and gaps and max(gaps) <= 1e-9

    def test_inner_minimizations_fenced_by_evaluations(self, monkeypatch):
        # one evaluation at each start, then one L-BFGS search over pairs
        # (psi, tau) per restart that runs (dephasing reaches its edge at the
        # extremal input; phi_alpha at the attaining one, whose own search is
        # over one unit of 4 complex entries; the Pauli mixture's window stays
        # open; the isometry's span lies strictly inside its TRO, so it has no
        # start and runs both restarts) and no inner minimization at all: the
        # dual objective has no inner loop
        real_lbfgs, real_inner = ent._lbfgs, ent._RenyiStack.minimize
        sizes, inner = [], []

        def recording(fun, x0, maxiter, floor):
            sizes.append(x0.size)
            return real_lbfgs(fun, x0, maxiter, floor)

        def counted(self, *args, **kwargs):
            inner.append(1)
            return real_inner(self, *args, **kwargs)

        monkeypatch.setattr(ent, "_lbfgs", recording)
        monkeypatch.setattr(ent._RenyiStack, "minimize", counted)
        channels = renyi_channels()
        pauli = open_renyi_channels()["pauli"]
        cases = ((channels["dephasing"], 2, [], 0), (channels["phi_alpha"], 1, [8], 0), (pauli, 1, [], 1),
                 (isometry_channel(), 2, [], 2))
        for ch, restarts, attaining, runs in cases:
            sizes.clear()
            cap.renyi_coherent_channel(ch, 2.0, restarts=restarts, seed=0)
            assert sizes == attaining + [2 * (ch.dim_in**2 + ch.dim_env**2)] * runs and not inner

    def test_forms_no_dense_state(self, monkeypatch):
        # the dual objective runs on the factor of omega_AE: no channel is applied to a
        # d^2 x d^2 input or tensored with the identity, and the stack's kernel never runs
        import trocap.channel as chn

        def never(*args, **kwargs):
            raise AssertionError("a dense step ran")

        for module, name in ((chn, "apply"), (chn, "adjoint_apply"), (chn, "tensor_channels"), (ent, "_evaluate")):
            monkeypatch.setattr(module, name, never)
        monkeypatch.setattr(cap, "_evaluate", never, raising=False)
        for ch in renyi_channels().values():
            for p in (1.5, 2.0):
                assert math.isfinite(cap.renyi_coherent_channel(ch, p, restarts=2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_or_beats_finite_differences(self, seed):
        for name, ch in renyi_channels(seed).items():
            ps, restarts = ((1.5, 2.0, 4.0), 2) if name == "dephasing" else ((2.0,), 1)
            for p in ps:
                exact = cap.renyi_coherent_channel(ch, p, restarts=restarts, seed=seed)
                reference = fd_renyi_coherent_channel(ch, p, restarts, seed)
                assert exact >= reference - 1e-9, (name, p)

    def test_leaves_the_symmetric_saddle(self):
        # from the maximally entangled input (real, diagonal) the search stays
        # on matrices of that form and ends on a saddle unless nudged off it;
        # on phi_alpha(0.5) the finite-difference search stays there too
        ch = phi_alpha(0.5).channel
        value = cap.renyi_coherent_channel(ch, 2.0, restarts=1)
        assert value > fd_renyi_coherent_channel(ch, 2.0, 1, 0) + 0.2

    # renyi_coherent_channel(phi_alpha(alpha), 2.0, restarts=1) of the
    # finite-difference search, which took 26-758 s on these alphas
    SLOW_ALPHAS = {
        0.05: 0.00360151012864497,
        0.1: 0.014355270027638409,
        0.2: 0.056583503284436905,
        0.3: 0.12430443859262545,
        0.37: 0.18499268643735017,
        0.7: 0.5748988650653847,
    }

    @pytest.mark.parametrize("alpha", sorted(SLOW_ALPHAS))
    def test_slow_alphas_take_few_inner_minimizations(self, monkeypatch, alpha):
        real_inner, inner = ent._RenyiStack.minimize, []

        def counted(self, *args, **kwargs):
            inner.append(1)
            return real_inner(self, *args, **kwargs)

        monkeypatch.setattr(ent._RenyiStack, "minimize", counted)
        value = cap.renyi_coherent_channel(phi_alpha(alpha).channel, 2.0, restarts=1)
        assert value >= self.SLOW_ALPHAS[alpha] - 1e-9
        assert not inner  # finite differences: 1189 at alpha = 0.2


def edge_channels():
    """Channels at their Renyi edge (dephasing, phi_alpha, Schur cyclic(3) and cyclic(4) of a seeded kernel, a
    random-unitary channel of the regular representation of cyclic(3), a partial-trace sum) and 12 seeded random
    isometries, which carry no symbol (2 or 3 each of input, output and environment dimension, E up to 4)."""
    w = np.random.default_rng(0).uniform(0.1, 1.0, size=4)
    out = {f"dephasing({q})": qubit_dephasing(q) for q in (0.2, 0.6, 0.9)}
    out.update({f"phi_alpha({a})": phi_alpha(a).channel for a in (-0.5, 0.3, 0.5, 0.9)})
    out.update({f"schur cyclic({k})": schur_multiplier_channel(cyclic_group(k), np.fft.fft(w[:k] / w[:k].sum()))
                for k in (3, 4)})
    out["regular cyclic(3)"] = group_random_unitary(regular_representation(cyclic_group(3)), [0.5, 0.3, 0.2])
    out["blocks [(2, 2), (3, 1)]"] = partial_trace_sum_channel([(2, 2), (3, 1)])
    out.update({f"isometry {s}": _random_kraus(s, 2 + s % 2, 2 + s // 2 % 2, 2 + s // 4) for s in range(12)})
    return out


class TestRenyiEdge:
    """renyi_coherent_channel stops at the channel's Renyi edge log2 max n_i + p' log2 |f|_{p,tau}."""

    @pytest.mark.parametrize("name", list(edge_channels()))
    def test_no_value_exceeds_the_edge(self, name):
        # the edge from the certificate's blocks and the channel's symbol, else the certified identity
        ch = edge_channels()[name]
        symbol = ch.symbol or identity_symbol(ch)
        for p in (1.5, 2.0, 4.0):
            width = mc.conjugate_exponent(p) * math.log2(mc.normalized_p_norm(symbol.f, p))
            edge = math.log2(max(n for n, _, _ in symbol.certificate.blocks)) + width
            assert cap._edge_and_start(ch, 0, p)[0] == pytest.approx(edge, abs=1e-14)
            assert cap.renyi_coherent_channel(ch, p, restarts=4) <= edge + 1e-12, p

    def test_a_reached_edge_skips_the_later_restarts(self, monkeypatch):
        # dephasing reaches its edge at the one evaluation at its extremal input, so no search runs; the
        # Pauli mixture's window is open, so that evaluation and every restart's search run
        real, searches = cap._density_search, []

        def counted(fun, m0s, maxiter, floor):
            searches.append(floor)
            return real(fun, m0s, maxiter, floor)

        monkeypatch.setattr(cap, "_density_search", counted)
        trace = renyi_trace(monkeypatch)
        ch = qubit_dephasing(0.3)
        value, edge = cap.renyi_coherent_channel(ch, 2.0, restarts=4), cap._edge_and_start(ch, 0, 2.0)[0]
        assert not searches and [kind for kind, *_ in trace] == ["evaluation"]
        assert 0 <= edge - value <= cap.CEILING_RTOL * abs(edge)
        trace.clear()
        pauli = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        value, edge = cap.renyi_coherent_channel(pauli, 2.0, restarts=4), cap._edge_and_start(pauli, 0, 2.0)[0]
        assert searches == [-cap._stop(edge)] * 4 and value < edge - 0.1
        assert [kind for kind, *_ in trace] == ["evaluation"] + ["search"] * 4

    def test_lbfgs_floor_ends_at_the_first_accepted_point_at_or_below_it(self, monkeypatch):
        # the polish of polish_state(), its objective and start recorded: a floor below every value
        # evaluates the same points bit for bit as no floor; the floor at the value of the k-th
        # accepted point (the end of a run capped at k iterations) ends the search there
        real, seen = ent._lbfgs, []

        def recording(fun, x0, maxiter, floor):
            seen.append((fun, x0, maxiter))
            return real(fun, x0, maxiter, floor)

        monkeypatch.setattr(ent, "_lbfgs", recording)
        ent.minimize_renyi_divergence(polish_state(), (2, 3), 4.0)
        ((fun, x0, maxiter),) = seen

        def run(maxiter, *floor):
            points = []

            def logged(x):
                points.append(x.copy())
                return fun(x)

            return real(logged, x0, maxiter, *floor), np.array(points)

        (value, x), points = run(maxiter)
        for floor in (-math.inf, value - 1.0):
            (v, y), again = run(maxiter, floor)
            assert v == value and np.array_equal(y, x) and np.array_equal(again, points)
        for k in (1, 3, 6):
            (vk, xk), to_k = run(k)
            assert vk > value and run(k - 1)[0][0] > vk
            (v, y), floored = run(maxiter, vk)
            assert v == vk and np.array_equal(y, xk) and np.array_equal(floored, to_k)


def extremal_channels():
    """The channels that attain their Renyi edge at the extremal input: dephasing(0.3), the Schur cyclic(4) and
    regular cyclic(3) channels of edge_channels, and the partial-trace sum, whose largest block is not all of it."""
    channels = edge_channels()
    names = ("schur cyclic(4)", "regular cyclic(3)", "blocks [(2, 2), (3, 1)]")
    return {"dephasing(0.3)": qubit_dephasing(0.3), **{name: channels[name] for name in names}}


class TestExtremalStart:
    """The input _edge_and_start reads off the certificate, where the searches start."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("name", list(extremal_channels()))
    def test_renyi_edge_at_the_one_evaluation(self, monkeypatch, name, p):
        # one call of the dual kernel, at the extremal input and tau_E^p, and no search
        ch, calls, real = extremal_channels()[name], [], cap._dual_value_and_grads

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cap, "_dual_value_and_grads", counted)
        value, edge = cap.renyi_coherent_channel(ch, p, restarts=4), cap._edge_and_start(ch, 0, p)[0]
        assert calls == [1] and abs(edge - value) <= cap.CEILING_RTOL * abs(edge)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("blocks", [None, [(2, 3), (2, 1), (1, 2)]], ids=["phi_alpha(0.4)", "blocks"])
    def test_start_below_the_edge_is_evaluated_once_before_the_restarts(self, monkeypatch, blocks, p):
        # where the extremal input does not attain the edge (phi_alpha(0.4), whose symbol couples its blocks, and
        # a partial-trace sum whose largest blocks have m > 1), its one evaluation comes first, below the edge:
        # no search over tau alone; the one evaluation at the attaining start follows, at the edge, and no
        # restart's search runs
        ch = phi_alpha(0.4).channel if blocks is None else partial_trace_sum_channel(blocks)
        trace = renyi_trace(monkeypatch)
        value = cap.renyi_coherent_channel(ch, p, restarts=2)
        edge, start, sym = cap._edge_and_start(ch, 0, p)
        assert [(kind, len(units)) for kind, _, units in trace] == [("evaluation", 2)] * 2
        assert np.array_equal(trace[0][2][0], start.T.reshape(-1, 1))
        assert np.array_equal(trace[1][2][0], cap._attaining_start(*sym).T.reshape(-1, 1))
        assert -trace[0][1] < edge - 0.1 and value == -trace[1][1] and cap._stop(edge) <= value <= edge + 1e-14

    def test_open_window_runs_every_restart(self, monkeypatch):
        # the Pauli mixture: the evaluation at the extremal input does not reach the edge, and all 4 restarts follow it
        trace = renyi_trace(monkeypatch)
        pauli = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        cap.renyi_coherent_channel(pauli, 2.0, restarts=4)
        assert [(kind, len(units)) for kind, _, units in trace] == [("evaluation", 2)] + [("search", 2)] * 4

    def test_one_shot_q_reaches_log2_3_in_one_evaluation(self, monkeypatch):
        # the maximally mixed input on the (3, 1) block: one evaluation of the pool's head, the extremal start alone
        calls = TestCeiling.counted_evaluations(monkeypatch)
        best = cap.one_shot_q(partial_trace_sum_channel([(2, 2), (3, 1)]), restarts=16)
        assert calls == [1] and best.value == pytest.approx(LOG3, abs=1e-14)
        assert best.value >= LOG3 * (1 - cap.CEILING_RTOL)

    @pytest.mark.parametrize("name", ["dephasing(0.3)", "schur cyclic(4)", "regular cyclic(3)"])
    def test_equal_blocks_start_at_the_maximally_mixed_input(self, name):
        ch = extremal_channels()[name]
        d = ch.dim_in
        start = cap._edge_and_start(ch, 0)[1]
        assert start.dtype == complex and np.array_equal(start, np.eye(d) / np.sqrt(d))
        assert np.array_equal(next(cap._init_pool(ch, 3, 0, None, start)), next(cap._init_pool(ch, 3, 0, None)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotated_partial_trace_sum_starts_on_its_largest_block(self, monkeypatch, seed):
        # the partial-trace sum with its input rotated by a seeded unitary V: the start is the maximally
        # mixed state on the 3 inputs V* e_k of the (3, 1) block, a complex projector over 3; each search
        # reaches its edge at the first evaluation, the Renyi one only if psi's input marginal is that state
        base = partial_trace_sum_channel([(2, 2), (3, 1)])
        v = random_unitary(np.random.default_rng(seed), 7)
        ch = Channel(base.kraus @ v)
        edge, start, _ = cap._edge_and_start(ch, seed)
        rho = start @ start.conj().T
        block = v.conj().T[:, 4:]  # columns V* e_k, k in the (3, 1) block
        np.testing.assert_allclose(rho, block @ block.conj().T / 3, atol=1e-13)
        assert edge == pytest.approx(LOG3, abs=1e-14) and np.abs(start.imag).max() > 0.1
        calls = TestCeiling.counted_evaluations(monkeypatch)
        assert cap.one_shot_q(ch, restarts=4, seed=seed).value >= LOG3 * (1 - cap.CEILING_RTOL) and calls == [1]
        counts, real = [], cap._dual_value_and_grads

        def counted(*args):
            counts.append(1)
            return real(*args)

        monkeypatch.setattr(cap, "_dual_value_and_grads", counted)
        for p in (1.5, 2.0, 4.0):
            counts.clear()
            value = cap.renyi_coherent_channel(ch, p, restarts=2, seed=seed)
            renyi_edge = cap._edge_and_start(ch, seed, p)[0]
            assert counts == [1] and abs(renyi_edge - value) <= cap.CEILING_RTOL * abs(renyi_edge)

    def test_renyi_restart_takes_its_start_as_input_marginal(self, monkeypatch):
        # a complex init state rho on the Pauli mixture (an open window, so the restart runs): the restart's
        # psi = vec g^T, g = sqrt(rho), has input marginal rho up to the 1e-3 nudge; vec g would give conj(rho)
        real, starts = cap._density_search, []

        def recording(fun, m0s, *args):
            starts.append(m0s)
            return real(fun, m0s, *args)

        monkeypatch.setattr(cap, "_density_search", recording)
        v = random_unitary(np.random.default_rng(11), 2)
        rho = v @ np.diag([0.8, 0.2]) @ v.conj().T
        assert np.linalg.norm(rho - rho.conj()) > 0.3
        pauli = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        cap.renyi_coherent_channel(pauli, 2.0, restarts=1, init_states=[rho])
        assert [len(m0s) for m0s in starts] == [2]
        psi = starts[0][0].reshape(2, 2)
        marginal = psi.T @ psi.conj() / np.vdot(psi, psi).real
        np.testing.assert_allclose(marginal, rho, atol=1e-2)

    def test_no_start_off_a_tro_span(self):
        # a random isometry's span lies strictly inside its TRO; a dilation that is not isometric has no structure
        _, start, sym = cap._edge_and_start(isometry_channel(), 0)
        assert start is None and cap._attaining_start(*sym) is None
        assert cap._edge_and_start(Channel(0.9 * random_unitary(np.random.default_rng(3), 3)[None]), 0) == (
            math.inf,
            None,
            None,
        )


def attaining_channels():
    """Channels whose attaining start reaches the Q1 and Renyi edges in one evaluation: phi_alpha over the range the
    benchmark draws from and beyond, phi_alpha(0.4) under four seeded Haar rotations of its input, output and
    environment, and three partial-trace sums whose largest blocks have m > 1."""
    out = {f"phi_alpha({a})": phi_alpha(a).channel for a in (-0.5, 0.2, 0.4, 0.5, 0.6, 0.8, 0.9)}
    base, f, _ = _phi_alpha_base(0.4)
    out.update({f"rotated phi_alpha(0.4) {s}": rotated_modified(base, f, np.random.default_rng(s)) for s in range(4)})
    sums = ([(2, 2)], [(3, 2), (1, 1)], [(2, 3), (2, 1), (1, 2)])
    out.update({f"blocks {b}": partial_trace_sum_channel(b) for b in sums})
    return out


def q1_at(ch, root):
    """The coherent information H(N(rho)) - H(N^E(rho)) at the input rho = G G*/tr(G G*) of a root G."""
    return float(cap._value_and_grad(ch, cap._densities(root[None])[1])[0][0])


def attaining_search(monkeypatch, ch, seed=0):
    """_edge_and_start's Q1 edge and attaining start of ch, built while a spy keeps the objective of its one
    _density_search, that search's start block and its end value."""
    real, seen = cap._density_search, []

    def spy(fun, m0s, *args):
        out = real(fun, m0s, *args)
        seen.append((fun, m0s[0], out[0]))
        return out

    monkeypatch.setattr(cap, "_density_search", spy)
    edge, _, sym = cap._edge_and_start(ch, seed)
    root = cap._attaining_start(*sym)
    monkeypatch.setattr(cap, "_density_search", real)
    ((fun, u0, end),) = seen
    return edge, root, fun, u0, end


def counted_dual_evaluations(monkeypatch):
    calls, real = [], cap._dual_value_and_grads

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cap, "_dual_value_and_grads", counted)
    return calls


# seeds of random_modified_tro whose blocks of largest n all agree, yet whose attaining start ends below the Q1 stop:
# seed 9, blocks [(2, 2)] x 3, ends 1.05e-13 below its edge 1.0398, where the stop allows 1.04e-13 (the inner
# L-BFGS ends on its relative-reduction rule); one_shot_q then runs its full ascent, to the same value
RANDOM_TRO_MISSES = {9}


class TestAttainingStart:
    """The input _attaining_start builds on the blocks of largest n with l = 1, from the certificate's W and f."""

    @pytest.mark.parametrize("seed", [None, 4, 5, 15])
    def test_gradient_matches_central_differences(self, monkeypatch, seed):
        # along a seeded direction z of a seeded unit u (renormalized, so u moves by z' = z - Re<u, z> u), the
        # slope of the objective H(s) - H(diag s) is 2 Re<z', G' u> for the product G' u the objective returns:
        # central differences approach it as O(h^2), on phi_alpha(0.4) and on random_modified_tro instances with
        # blocks [(2, 2)] x 3, [(2, 1), (2, 1), (2, 2)] and [(2, 2), (2, 1), (1, 1)]
        ch = phi_alpha(0.4).channel if seed is None else random_modified_tro(np.random.default_rng(seed)).channel
        _, _, fun, u0, _ = attaining_search(monkeypatch, ch)
        rng = np.random.default_rng(3)
        for _ in range(3):
            u, z = (v / np.linalg.norm(v) for v in mc.random_complex(rng, (2, *u0.shape)))
            slope = 2 * np.vdot(z - np.vdot(u, z).real * u, fun((u,))[1][0]).real

            def moved(h):
                return fun(((u + h * z) / np.linalg.norm(u + h * z),))[0]

            coarse, fine = (abs((moved(h) - moved(-h)) / (2 * h) - slope) for h in (1e-2, 1e-3))
            assert fine < coarse / 20 and fine < 1e-5

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", sorted(attaining_channels()))
    def test_predicted_value_is_q1_at_the_built_input(self, monkeypatch, name, seed):
        # log2 n - (the search's end value H(s) - H(diag s)) is the coherent information of the input built from its
        # unit; seeds 1-5 take the search from a seeded unit instead of f_T's top eigenvector, to test points off the
        # optimum too
        ch, real = attaining_channels()[name], cap._density_search
        if seed:
            monkeypatch.setattr(cap, "_density_search", lambda fun, m0s, *args: real(
                fun, (mc.random_complex(np.random.default_rng(seed), m0s[0].shape),), 2))
        edge, root, _, _, end = attaining_search(monkeypatch, ch)
        log_n = math.log2(max(n for n, _, _ in (ch.symbol or identity_symbol(ch)).certificate.blocks))
        assert q1_at(ch, root) == pytest.approx(log_n - end, abs=1e-12)
        assert q1_at(ch, root) <= edge + 1e-14

    @pytest.mark.parametrize("name", sorted(attaining_channels()))
    def test_one_evaluation_reaches_the_edge(self, monkeypatch, name):
        # one_shot_q: the pool's head (the extremal start) once, below the edge, then the attaining start once, at the
        # stop; renyi_coherent_channel: one dual evaluation at each start, the second at the Renyi stop (p 1.5, 2, 4)
        ch = attaining_channels()[name]
        edge = cap._edge_and_start(ch, 0)[0]
        calls = TestCeiling.counted_evaluations(monkeypatch)
        best = cap.one_shot_q(ch)
        assert calls == [1, 1] and cap._stop(edge) <= best.value <= edge + 1e-14
        calls = counted_dual_evaluations(monkeypatch)
        for p in (1.5, 2.0, 4.0):
            calls.clear()
            value, renyi_edge = cap.renyi_coherent_channel(ch, p), cap._edge_and_start(ch, 0, p)[0]
            assert calls == [1, 1] and cap._stop(renyi_edge) <= value <= renyi_edge + 1e-14, p

    @pytest.mark.parametrize("seed", range(24))
    def test_random_swap_paired_instances(self, monkeypatch, seed):
        # random_modified_tro: the certificate recovers the drawn blocks and edges under the Haar rotations.  The
        # attaining start never passes the Q1 edge beyond rounding, and where all blocks share one n it reaches the
        # stop (bar RANDOM_TRO_MISSES); elsewhere one_shot_q keeps its ascent, from a pool that holds that start, and
        # stays below the edge (one_shot_q may also stop at its head).  No Renyi value at p 2 passes its edge.
        inst = random_modified_tro(np.random.default_rng(seed))
        ch, edge = inst.channel, inst.edge()
        assert sorted(ch.symbol.certificate.blocks) == sorted(inst.blocks)
        assert cap._edge_and_start(ch, 0)[0] == pytest.approx(edge, abs=1e-12)
        assert cap._edge_and_start(ch, 0, 2.0)[0] == pytest.approx(inst.edge(2.0), abs=1e-12)
        value = q1_at(ch, cap._attaining_start(*cap._edge_and_start(ch, 0)[2]))
        reached = value >= cap._stop(edge)
        assert value <= edge + 1e-14
        if len({n for n, _, _ in inst.blocks}) == 1:
            assert reached == (seed not in RANDOM_TRO_MISSES)
        calls = TestCeiling.counted_evaluations(monkeypatch)
        best = cap.one_shot_q(ch, restarts=8).value
        if len(calls) > 1:  # the head fell short: the ascent runs exactly where the attaining start does too
            assert (len(calls) > 2) == (not reached)
        assert min(value, cap._stop(edge)) <= best <= edge + 1e-14
        assert cap.renyi_coherent_channel(ch, 2.0) <= inst.edge(2.0) + 1e-12

    def test_bounds_with_block_inputs_never_builds_it(self, monkeypatch, tmp_path, capsys):
        # the CLI's phi_alpha spec passes block_inputs, which reach the Q1 edge in the head's one evaluation
        from trocap.cli import main

        def never(*args):
            raise AssertionError("the attaining start was built")

        monkeypatch.setattr(cap, "_attaining_start", never)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "phi_alpha", "params": {"alpha": 0.4}, "seed": 0}))
        assert main(["bounds", str(spec), "--restarts", "8"]) == 0
        assert "Q1" in capsys.readouterr().out

    def test_pauli_mixture_skips_it(self, monkeypatch):
        # one block with l = 2: no attaining start, so one_shot_q ascends today's pool (as with no ceiling, stopped at
        # the Q1 edge) and renyi_coherent_channel evaluates only the extremal start before its restarts
        pauli = group_random_unitary(pauli_rep(), [0.4, 0.3, 0.2, 0.1])
        assert [l for _, _, l in pauli.symbol.certificate.blocks] == [2]
        real, built = cap._attaining_start, []
        monkeypatch.setattr(cap, "_attaining_start", lambda *args: built.append(real(*args)) or built[-1])
        edge, start, _ = cap._edge_and_start(pauli, 0)
        f, rho = cap._ascent(pauli, np.stack(list(cap._init_pool(pauli, 8, 0, None, start))), edge)
        best = cap.one_shot_q(pauli, restarts=8)
        assert built == [None] and best.value == f.max() and np.array_equal(best.rho, rho[np.argmax(f)])
        trace = renyi_trace(monkeypatch)
        cap.renyi_coherent_channel(pauli, 2.0, restarts=2)
        assert built == [None, None] and [kind for kind, *_ in trace] == ["evaluation", "search", "search"]

    @pytest.mark.parametrize("pad", [(0, 1, 0), (1, 0, 0), (1, 1, 0)], ids=["output row", "zero Kraus", "both"])
    @pytest.mark.parametrize("blocks", [[(2, 2)], [(2, 3), (2, 1), (1, 2)]])
    def test_padded_sums_reach_the_edge(self, monkeypatch, blocks, pad):
        # a TRO that leaves output rows or environment columns unused: the decomposition's square U and W carry them
        # after the blocks' columns, which the attaining start skips; one evaluation at it reaches each edge
        ch = Channel(np.pad(partial_trace_sum_channel(blocks).kraus, [(0, k) for k in pad]))
        edge = cap._edge_and_start(ch, 0)[0]
        calls = TestCeiling.counted_evaluations(monkeypatch)
        best = cap.one_shot_q(ch, restarts=4)
        assert calls == [1, 1] and cap._stop(edge) <= best.value <= edge + 1e-14
        calls = counted_dual_evaluations(monkeypatch)
        value, renyi_edge = cap.renyi_coherent_channel(ch, 2.0, restarts=2), cap._edge_and_start(ch, 0, 2.0)[0]
        assert calls == [1, 1] and cap._stop(renyi_edge) <= value <= renyi_edge + 1e-14

    def test_closed_window_draws_no_random_fill(self, monkeypatch):
        # phi_alpha(0.4) closes at its attaining start, so none of the 7 random fills is drawn; with no ceiling, all are
        real, drawn = mc.random_complex, []
        monkeypatch.setattr(mc, "random_complex", lambda *args: drawn.append(1) or real(*args))
        cap.one_shot_q(phi_alpha(0.4).channel, restarts=8)
        assert drawn == []
        cap.one_shot_q(phi_alpha(0.4).channel, restarts=8, ceiling=math.inf)
        assert len(drawn) == 7

    def test_a_given_ceiling_sets_its_stop(self, monkeypatch):
        # the search for the attaining start stops at the caller's stop, so no entropy defect is computed for it
        def never(*args):
            raise AssertionError("the entropy defect was computed")

        ch = partial_trace_sum_channel([(2, 2)])
        monkeypatch.setattr(cap, "entropy_defect", never)
        assert cap.one_shot_q(ch, restarts=4, ceiling=1.0).value >= cap._stop(1.0)

    @pytest.mark.parametrize("run", ["one_shot_q", "renyi_coherent_channel"])
    def test_no_ceiling_never_builds_it(self, monkeypatch, run):
        # ceiling=math.inf keeps the pool as it was, and a Renyi call whose extremal start reaches its edge stops there
        def never(*args):
            raise AssertionError("the attaining start was built")

        monkeypatch.setattr(cap, "_attaining_start", never)
        if run == "one_shot_q":
            cap.one_shot_q(phi_alpha(0.4).channel, restarts=4, ceiling=math.inf)
        else:
            cap.renyi_coherent_channel(qubit_dephasing(0.3), 2.0)


# (form, seed) of random_modified_tro whose one_shot_q(restarts=2) ends below the stop of its Q1 window's lower edge
# log2 max n: multiplicity seed 4, blocks [(2, 2, 2), (2, 2, 2), (1, 1, 2)], ends 1.5e-13 below 1.  A multiplicity
# symbol 1_M (x) g puts g/l on the multiplicity factor of both B and E, so Q1 of N_f is the lower edge; no attaining
# start exists at l > 1, and the ascent, whose ceiling is the unreached upper edge, ends on its own rule
RANDOM_FORM_MISSES = {("multiplicity", 4)}


class TestRandomSymbolForms:
    """random_modified_tro in each of its three symbol forms, 14 seeded instances per form."""

    @pytest.mark.parametrize("seed", range(14))
    @pytest.mark.parametrize("form", SYMBOL_FORMS)
    def test_certificate_edges_and_values(self, form, seed):
        # the certificate recovers the drawn (n, m, l); the Q1 and Renyi p 2 edges of the rotated channel equal the
        # closed forms read off f's spectrum, which the rotations leave alone; one_shot_q lies in comparison_bounds'
        # Q1 window, from the stop of its lower edge (bar RANDOM_FORM_MISSES) to its upper edge; and the Renyi value
        # at p 2 stays at or under its edge plus 1e-14
        inst = random_modified_tro(np.random.default_rng(seed), form=form)
        ch = inst.channel
        assert sorted(ch.symbol.certificate.blocks) == sorted(inst.blocks)
        for p in (1.0, 2.0):
            assert cap._edge_and_start(ch, 0, p)[0] == pytest.approx(inst.edge(p), abs=1e-12)
        window = cap.comparison_bounds(ch.base_space, ch.symbol).entries["Q1"]
        value = cap.one_shot_q(ch, restarts=2).value
        assert value <= window.upper + 1e-14
        assert (value >= cap._stop(window.lower)) == ((form, seed) not in RANDOM_FORM_MISSES)
        assert cap.renyi_coherent_channel(ch, 2.0, restarts=1) <= inst.edge(2.0) + 1e-14


class TestRegions:
    def test_two_block_distribution(self):
        vert = cap.cqe_region_vertices([(2, 2), (3, 1)], 0.0, 0.0)
        assert np.allclose(vert.distribution, [4 / 13, 9 / 13])
        assert vert.constraints["C+2Q"] == pytest.approx(math.log2(13.0))

    def test_single_block_reduces_to_logs(self):
        vert = cap.cqe_region_vertices([(4, 1)], 0.7, 0.3)
        assert np.allclose(vert.distribution, [1.0])
        assert vert.constraints["C+2Q"] == pytest.approx(4.0)
        assert vert.constraints["Q+E"] == pytest.approx(2.0)
        assert vert.constraints["C+Q+E"] == pytest.approx(2.0)

    def test_normalization_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam, mu = rng.uniform(0, 5, size=2)
            for fn in (cap.cqe_region_vertices, cap.rps_region_vertices):
                vert = fn([(2, 2), (3, 1), (5, 2)], lam, mu)
                assert np.sum(vert.distribution) == pytest.approx(1.0, abs=1e-12)

    def test_rps_zero_tilt_matches_classical_value(self):
        vert = cap.rps_region_vertices([(2, 2), (3, 1)], 0.0, 0.0)
        # exponent 1: weights proportional to n_i
        assert np.allclose(vert.distribution, [2 / 5, 3 / 5])
        assert vert.constraints["R+P"] == pytest.approx(math.log2(5.0))

    def test_expected_log_constraints_rise_with_lambda(self):
        # the tilt exponent grows with lambda, tilting the distribution toward
        # larger blocks, so the expected-log constraints rise
        blocks = [(2, 2), (3, 1)]
        lams = np.linspace(0.0, 2.0, 9)
        for mu in (0.0, 0.5):
            qe = [cap.cqe_region_vertices(blocks, l, mu).constraints["Q+E"] for l in lams]
            ps = [cap.rps_region_vertices(blocks, l, mu).constraints["P+S"] for l in lams]
            assert all(b >= a - 1e-12 for a, b in zip(qe, qe[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_vertex_caps(self):
        # C+2Q is capped by the entanglement-assisted value (attained when the
        # tilt exponent equals 2, i.e. lambda = mu); R+P is capped by the
        # classical value (attained at lambda = mu = 0)
        blocks = [(2, 2), (3, 1)]
        cea = math.log2(13.0)
        c = math.log2(5.0)
        rng = np.random.default_rng(8)
        for _ in range(25):
            lam, mu = rng.uniform(0, 3, size=2)
            assert cap.cqe_region_vertices(blocks, lam, mu).constraints["C+2Q"] <= cea + 1e-12
            assert cap.rps_region_vertices(blocks, lam, mu).constraints["R+P"] <= c + 1e-12
        at_eq = cap.cqe_region_vertices(blocks, 1.3, 1.3).constraints["C+2Q"]
        assert at_eq == pytest.approx(cea, abs=1e-12)
        assert cap.rps_region_vertices(blocks, 0.0, 0.0).constraints["R+P"] == pytest.approx(
            c, abs=1e-12
        )

    def test_large_tilt_sits_on_the_largest_blocks(self):
        # n ** beta overflows a float at beta ~ 1000; the weights are relative to the largest n
        for fn, mean_log in ((cap.cqe_region_vertices, "Q+E"), (cap.rps_region_vertices, "P+S")):
            vert = fn([(2, 2), (3, 1), (3, 4), (1, 1)], 1000.0, 0.0)
            assert np.allclose(vert.distribution, [0.0, 0.5, 0.5, 0.0], atol=1e-150)
            assert all(math.isfinite(v) for v in vert.constraints.values())
            assert vert.constraints[mean_log] == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_negative_tilt_rejected(self):
        with pytest.raises(OutOfRange):
            cap.cqe_region_vertices([(2, 2)], -0.1, 0.0)

    @pytest.mark.parametrize("lam, mu", [(math.nan, 0.0), (0.0, math.nan), (0.0, math.inf), (math.inf, math.inf)])
    @pytest.mark.parametrize("fn", [cap.cqe_region_vertices, cap.rps_region_vertices])
    def test_nan_and_infinite_mu_rejected(self, fn, lam, mu):
        # each gave a NaN distribution and NaN right-hand sides
        with pytest.raises(OutOfRange):
            fn([(2, 2), (1, 1)], lam, mu)

    @pytest.mark.parametrize("fn", [cap.cqe_region_vertices, cap.rps_region_vertices])
    def test_infinite_lambda_is_the_limit_distribution(self, fn):
        vert = fn([(2, 2), (1, 1)], math.inf, 0.0)
        assert vert.distribution.tolist() == [1.0, 0.0]
        assert all(math.isfinite(v) for v in vert.constraints.values())

    @pytest.mark.parametrize("blocks", [[(2, 2), (3, 1), (5, 2)], [1] * 6, [(3, 1), (1, 1), (3, 2), (2, 1)]])
    @pytest.mark.parametrize("fn", [cap.cqe_region_vertices, cap.rps_region_vertices])
    def test_grid_matches_per_point_calls(self, fn, blocks):
        lams, mus = [0.0, 0.25, 1.0, 7.5, 1000.0, math.inf], [0.0, 0.5, 1.0, 3.0]
        grid = fn(blocks, *np.meshgrid(lams, mus, indexing="ij"))
        assert grid.distribution.shape == (len(lams), len(mus), len(blocks))
        for i, lam in enumerate(lams):
            for j, mu in enumerate(mus):
                point = fn(blocks, lam, mu)
                assert np.max(np.abs(grid.distribution[i, j] - point.distribution)) <= 1e-15
                for name, rhs in point.constraints.items():
                    assert isinstance(rhs, float) and abs(grid.constraints[name][i, j] - rhs) <= 1e-15

    @pytest.mark.parametrize("lam, mu", [([0.0, -1.0], 0.0), ([0.0, math.nan], 0.0), (0.0, [0.5, math.inf])])
    @pytest.mark.parametrize("fn", [cap.cqe_region_vertices, cap.rps_region_vertices])
    def test_grid_with_one_bad_point_rejected(self, fn, lam, mu):
        with pytest.raises(OutOfRange):
            fn([(2, 2), (1, 1)], np.array(lam), np.array(mu))


class TestBoundReport:
    def test_lower_cannot_exceed_upper(self):
        rep = cap.BoundReport()
        rep.set("Q", 1.0, 0.5, "broken")
        with pytest.raises(ValueError):
            rep.check()

    def test_raise_lower_keeps_max(self):
        rep = cap.tro_capacities([(2, 1)])
        rep.raise_lower("Q", 0.2, "worse bound ignored")
        assert rep.entries["Q"].lower == pytest.approx(1.0)

    def test_quantum_lower_cannot_exceed_private_lower(self):
        rep = cap.BoundReport()
        rep.set("Q", 1.0, 2.0, "x")
        rep.set("P", 0.5, 2.0, "x")
        with pytest.raises(ValueError):
            rep.check()


class TestPauliSanity:
    def test_upper_bound_is_two_minus_shannon(self):
        rng = np.random.default_rng(6)
        rep = pauli_rep()
        for _ in range(3):
            p = rng.random(4)
            p /= p.sum()
            ch = group_random_unitary(rep, p)
            bounds = cap.comparison_bounds(ch.base_space, ch.symbol)
            shannon = -np.sum(p * np.log2(p))
            assert bounds.entries["Q"].upper == pytest.approx(2.0 - shannon, abs=1e-9)

    def test_uniform_gives_zero_window(self):
        ch = group_random_unitary(pauli_rep(), [0.25] * 4)
        bounds = cap.comparison_bounds(ch.base_space, ch.symbol)
        assert bounds.entries["Q"].lower == pytest.approx(0.0, abs=1e-12)
        assert bounds.entries["Q"].upper == pytest.approx(0.0, abs=1e-9)
