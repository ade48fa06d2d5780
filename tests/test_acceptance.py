"""Acceptance checklist: one check per criterion, each printing a status line.

Every tolerance is pinned here.  Criterion 10's monotonicity clause is
implemented exactly as specified and is expected to fail: the entropy-bearing
right-hand sides provably decrease as the tilt parameter grows once block
sizes differ (see the comment on the test).
"""

import math
import time

import numpy as np

import trocap.capacity as cap
from trocap import algebra as alg
from trocap import verify
from trocap.builders import (
    group_random_unitary,
    partial_trace_sum_channel,
    pauli_rep,
    phi_alpha,
    qubit_dephasing,
)
from trocap.channel import stinespring_space
from trocap.entropy import binary_entropy, conditional_renyi, sandwiched_renyi

from helpers import random_channel


def report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_dephasing_capacity_formula():
    t0 = time.time()
    worst = 0.0
    for q in (0.0, 0.3, 0.7, 1.0):
        ch = qubit_dephasing(q)
        target = 1.0 - binary_entropy((1.0 + q) / 2.0)
        upper = cap.comparison_bounds(ch.base_space, ch.symbol).entries["Q"].upper
        formula = cap.negative_cb_entropy(ch, "formula")
        numeric = cap.negative_cb_entropy(ch, "numeric", restarts=32, seed=1)
        one_shot = cap.one_shot_q(ch, restarts=32, seed=0).value
        worst = max(
            worst,
            abs(upper - target),
            abs(formula - target),
            abs(numeric - target),
        )
        assert abs(upper - target) < 1e-4
        assert abs(formula - target) < 1e-4
        assert abs(numeric - target) < 1e-4
        assert abs(one_shot - target) < 1e-3
    elapsed = time.time() - t0
    report(
        "01",
        elapsed < 10.0,
        f"dephasing capacity formula, worst dev {worst:.2e}, {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_02_phi_alpha_tight_window():
    t0 = time.time()
    for alpha in (0.0, 0.5, 1.0):
        bundle = phi_alpha(alpha)
        target = 1.0 - binary_entropy((1.0 + alpha) / 2.0)
        upper = cap.comparison_bounds(bundle.space, bundle.symbol).entries["Q"].upper
        assert abs(upper - target) < 1e-9
        achieved = cap.one_shot_q(
            bundle.channel, restarts=32, seed=0, init_states=bundle.block_inputs
        ).value
        assert abs(achieved - target) < 1e-3
    elapsed = time.time() - t0
    report("02", elapsed < 30.0, f"phi_alpha window tight at three alphas, {elapsed:.1f}s (< 30 s)")


def test_criterion_03_block_formulas_and_ascent():
    t0 = time.time()
    blocks = [(2, 2), (3, 1)]
    rep = cap.tro_capacities(blocks)
    assert rep.entries["Q"].lower == math.log2(3.0)
    assert rep.entries["P"].lower == math.log2(3.0)
    assert rep.entries["C"].lower == math.log2(5.0)
    assert rep.entries["C_EA"].lower == math.log2(13.0)
    ch = partial_trace_sum_channel(blocks)
    achieved = cap.one_shot_q(ch, restarts=64, seed=0).value
    assert abs(achieved - math.log2(3.0)) < 1e-3
    elapsed = time.time() - t0
    report("03", elapsed < 60.0, f"block formulas exact, ascent gap {abs(achieved - math.log2(3.0)):.1e}, {elapsed:.1f}s (< 60 s)")


def _comparison_families():
    cases = []
    for q in (0.0, 0.3, 0.7, 1.0):
        ch = qubit_dephasing(q)
        cases.append((f"dephasing q={q}", ch.base_space, ch.symbol))
    for alpha in (0.0, 0.5, 1.0):
        bundle = phi_alpha(alpha)
        cases.append((f"phi_alpha a={alpha}", bundle.space, bundle.symbol))
    rng = np.random.default_rng(42)
    rep = pauli_rep()
    for k in range(3):
        p = rng.random(4)
        p /= p.sum()
        ch = group_random_unitary(rep, p)
        cases.append((f"pauli f#{k}", ch.base_space, ch.symbol))
    return cases


def test_criterion_04_local_comparison_suite():
    t0 = time.time()
    worst = math.inf
    for name, space, symbol in _comparison_families():
        rep = verify.verify_local_comparison(
            space, symbol, samples=100, seed=0, ps=(1.3, 2.0, 4.0, math.inf), tolerance=1e-9
        )
        assert rep.passed, f"{name}: {rep.failures[:3]}"
        worst = min(worst, rep.worst_slack)
    elapsed = time.time() - t0
    report(
        "04",
        elapsed < 60.0,
        f"local comparison, zero violations, worst slack {worst:.2e}, {elapsed:.1f}s (< 60 s)",
    )


def test_criterion_05_entropic_sandwich_suite():
    worst = math.inf
    for name, space, symbol in _comparison_families():
        if name.startswith("pauli"):
            continue  # the stated families are the dephasing and phi_alpha ones
        rep = verify.verify_entropic(
            space, symbol, samples=50, seed=0, tolerance=1e-7, renyi=False
        )
        assert rep.passed, f"{name}: {rep.failures[:3]}"
        worst = min(worst, rep.worst_slack)
    ch = qubit_dephasing(0.5)
    ident = alg.identity_symbol(ch.base_space.source)
    rep = verify.verify_entropic(ch.base_space, ident, samples=50, seed=0, renyi=False)
    assert rep.passed
    assert abs(rep.worst_slack) <= 1e-8
    report("05", True, f"entropic sandwiches hold, worst slack {worst:.2e}; identity gaps collapse")


def test_criterion_06_tensor_symbol_coherence():
    rng = np.random.default_rng(7)
    deph = qubit_dephasing(0.45)
    other = random_channel(rng, 4, 4, 2)  # random two-qubit channel
    other_space = stinespring_space(other)
    ident = alg.identity_symbol(other)
    rep = verify.verify_tensor_symbol(
        deph.base_space, deph.symbol, other_space, ident, samples=10, seed=0, tolerance=1e-9
    )
    assert rep.passed, rep.to_dict()
    report("06", True, f"tensor symbol coherence, worst gap {-rep.worst_slack:.2e} (<= 1e-9)")


def test_criterion_07_structure_detection():
    t0 = time.time()
    bundle = phi_alpha(0.0)
    check = alg.is_tro(list(bundle.space.basis))
    assert check.ok
    decomp = alg.tro_block_decomposition(bundle.space, seed=0)
    assert sorted(decomp.rect_blocks) == [(1, 1), (1, 1), (1, 2)]

    def unit(i, j):
        out = np.zeros((2, 2), dtype=complex)
        out[i, j] = 1.0
        return out

    bad = alg.is_tro([unit(0, 0), unit(0, 1), unit(1, 1)])
    assert not bad.ok and bad.witness is not None
    elapsed = time.time() - t0
    report("07", elapsed < 1.0, f"structure detection with witness {bad.witness}, {elapsed:.2f}s (< 1 s)")


def test_criterion_08_pauli_bound_consistency():
    rng = np.random.default_rng(11)
    rep_p = pauli_rep()
    for _ in range(3):
        p = rng.random(4)
        p /= p.sum()
        ch = group_random_unitary(rep_p, p)
        upper = cap.comparison_bounds(ch.base_space, ch.symbol).entries["Q"].upper
        shannon = float(-np.sum(p * np.log2(p)))
        assert abs(upper - (2.0 - shannon)) < 1e-9
    ch = group_random_unitary(rep_p, [0.25] * 4)
    window = cap.comparison_bounds(ch.base_space, ch.symbol).entries["Q"]
    assert abs(window.lower) < 1e-12 and abs(window.upper) < 1e-9
    report("08", True, "random-unitary upper bound equals 2 - H(f); uniform window [0, 0]")


def test_criterion_09_renyi_oracle_equivalence():
    rng = np.random.default_rng(23)
    worst_sr = 0.0
    for _ in range(5):
        r = rng.random(4)
        r /= r.sum()
        s = rng.random(4)
        s /= s.sum()
        for p in (1.5, 2.0, 3.0):
            val = sandwiched_renyi(np.diag(r), np.diag(s), p)
            classical = (1.0 / (p - 1.0)) * math.log2(float(np.sum(r**p * s ** (1.0 - p))))
            worst_sr = max(worst_sr, abs(val - classical))
            assert abs(val - classical) < 1e-9
    worst_cr = 0.0
    for _ in range(3):
        probs = rng.random((2, 2))
        probs /= probs.sum()
        rho = np.diag(probs.reshape(-1)).astype(complex)
        for p in (1.5, 2.0):
            hp = conditional_renyi(rho, (2, 2), p).value
            best = math.inf
            for sv in np.arange(1e-3, 1.0, 1e-3):
                q = np.array([sv, 1.0 - sv])
                best = min(
                    best,
                    (1.0 / (p - 1.0)) * math.log2(float(np.sum(probs**p * q[None, :] ** (1 - p)))),
                )
            worst_cr = max(worst_cr, abs(hp + best))
            assert abs(hp + best) < 1e-4
    report(
        "09",
        True,
        f"sandwiched divergence vs classical {worst_sr:.1e} (< 1e-9); "
        f"conditional optimizer vs grid {worst_cr:.1e} (< 1e-4)",
    )


BLOCKS_10 = [(2, 2), (3, 1)]
GRID_10 = [0.0, 0.5, 1.0, 1.5, 2.0]


def test_criterion_10a_region_normalization():
    for lam in GRID_10:
        for mu in GRID_10:
            for fn in (cap.cqe_region_vertices, cap.rps_region_vertices):
                vert = fn(BLOCKS_10, lam, mu)
                assert abs(float(np.sum(vert.distribution)) - 1.0) <= 1e-12
    report("10a", True, "vertex distributions normalize to 1 within 1e-12 on the 5x5 grid")


def test_criterion_10b_region_monotonicity():
    # As stated, every right-hand side must be nondecreasing in lambda at
    # fixed mu.  That cannot hold: with p ~ n^beta, H(p) + c*tbar equals
    # log Z(beta) + (c - beta) * tbar(beta), whose lambda-derivative is
    # (c - beta) * Var_p(log n) * dbeta/dlambda.  For C+2Q (c = 2) the tilt
    # beta = (2 + lam + mu)/(1 + mu) exceeds 2 once lam > mu, so the
    # right-hand side strictly decreases for distinct block sizes.  Only the
    # expected-log constraints (Q+E, P+S) rise throughout.  Kept faithful to
    # the stated check; expected to fail.
    failures = []
    for mu in GRID_10:
        cqe = [cap.cqe_region_vertices(BLOCKS_10, lam, mu).constraints for lam in GRID_10]
        rps = [cap.rps_region_vertices(BLOCKS_10, lam, mu).constraints for lam in GRID_10]
        for name in ("C+2Q", "Q+E", "C+Q+E"):
            vals = [c[name] for c in cqe]
            if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
                failures.append((name, mu))
        for name in ("R+P", "P+S", "R+P+S"):
            vals = [c[name] for c in rps]
            if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
                failures.append((name, mu))
    report(
        "10b",
        not failures,
        "all region right-hand sides nondecreasing in lambda"
        + (f" (violated by {sorted(set(n for n, _ in failures))})" if failures else ""),
    )


def test_region_right_hand_sides_move_with_the_sign_of_c_minus_beta():
    # What 10b's comment proves, on a finer grid and several block lists: with p ~ n^beta, beta =
    # (offset + lam + mu)/(1 + mu), H(p) + c*tbar has lambda-derivative (c - beta) * ln 2 * Var_p(log2 n) /
    # (1 + mu).  So C+2Q (c = 2) and C+Q+E, R+P, R+P+S (c = 1) rise where c - beta > 0 over a whole step and fall
    # where it is < 0 over it (steps that straddle beta = c are left out), and the expected logs Q+E and P+S
    # (dtbar/dbeta = ln 2 * Var_p(log2 n)) never fall; C+2Q does both on this grid
    lam, mu = np.linspace(0.0, 6.0, 121)[:, None], np.array([0.0, 0.25, 1.0, 3.0])[None, :]
    cases = (
        (cap.cqe_region_vertices, 2.0, {"C+2Q": 2.0, "C+Q+E": 1.0, "Q+E": None}),
        (cap.rps_region_vertices, 1.0, {"R+P": 1.0, "R+P+S": 1.0, "P+S": None}),
    )
    signs = set()
    for blocks in ([(2, 2), (3, 1)], [(1, 1), (2, 1), (4, 3)], [(2, 1), (2, 5), (3, 1)], [(5, 1), (1, 2)]):
        for fn, offset, names in cases:
            constraints = fn(blocks, lam, mu).constraints
            for name, c in names.items():
                step = np.diff(constraints[name], axis=0)
                if c is None:
                    assert step.min() >= -1e-12, (blocks, name)
                    continue
                ends = np.sign(c - (offset + lam + mu) / (1.0 + mu))
                whole = ends[1:] == ends[:-1]
                assert np.all(ends[1:][whole] * step[whole] >= -1e-12), (blocks, name)
                signs.update((name, int(s)) for s in ends[1:][whole & (np.abs(step) > 1e-9)])
    assert {("C+2Q", 1), ("C+2Q", -1)} <= signs and {("C+Q+E", -1), ("R+P", -1), ("R+P+S", -1)} <= signs
