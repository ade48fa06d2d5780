"""The generator's closed forms and checks, tested against hand-derived values."""

import json
import math

import numpy as np
import pytest

import workloads as wl


def h2(x):
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def test_cyclic_kernel_spectrum_is_k_times_q():
    rng = np.random.default_rng(0)
    q = rng.dirichlet(np.ones(6))
    kernel = wl.cyclic_kernel(np.fft.fft(q))
    assert np.allclose(kernel, kernel.conj().T)
    assert np.allclose(np.sort(np.linalg.eigvalsh(kernel)), np.sort(6 * q))
    assert wl.entropy_defect(kernel) == pytest.approx(float(np.sum(q * np.log2(6 * q))), abs=1e-12)


def test_schur_spec_defect_matches_its_probability_vector():
    doc, defect = wl.schur_spec(np.random.default_rng(3), 8)
    phi = np.array([complex(re, im) for re, im in doc["params"]["phi"]])
    q = np.fft.ifft(phi).real
    assert phi[0] == 1.0 and np.all(q > 0)
    assert defect == pytest.approx(float(np.sum(q * np.log2(8 * q))), abs=1e-12)


@pytest.mark.parametrize("a", [-0.8, 0.0, 0.37, 0.9])
def test_two_level_defects_are_one_minus_binary_entropy(a):
    assert wl.phi_alpha_defect(a) == pytest.approx(1 - h2((1 + a) / 2), abs=1e-12)
    f = np.array([[1.0, a], [a, 1.0]])
    assert wl.entropy_defect(f) == pytest.approx(1 - h2((1 + a) / 2), abs=1e-12)


def test_group_defect_is_log_order_minus_shannon_entropy():
    doc, defect = wl.group_ru_spec(np.random.default_rng(1), "pauli")
    p = np.array(doc["params"]["distribution"])
    assert p.sum() == pytest.approx(1.0)
    assert defect == pytest.approx(2.0 + float(np.sum(p * np.log2(p))), abs=1e-12)


def test_window_uppers_block_formulas():
    up = wl.window_uppers([2, 3], 0.25)
    assert up["Q"] == pytest.approx(math.log2(3) + 0.25)
    assert up["C"] == pytest.approx(math.log2(5) + 0.25)
    assert up["C_EA"] == pytest.approx(math.log2(13) + 0.25)
    assert up["Q1"] == up["P_dagger"] == up["Q"]


def test_region_rows_by_hand():
    rows = {(lam, mu, name): rhs for lam, mu, name, rhs in wl.region_rows([1, 2])}
    # lam = mu = 0: beta = 2 gives p = (1, 4)/5, beta = 1 gives p = (1, 2)/3
    p = np.array([0.2, 0.8])
    h, tbar = float(-np.sum(p * np.log2(p))), 0.8
    assert rows[(0.0, 0.0, "C+2Q")] == pytest.approx(h + 2 * tbar)
    assert rows[(0.0, 0.0, "Q+E")] == pytest.approx(tbar)
    q = np.array([1 / 3, 2 / 3])
    assert rows[(0.0, 0.0, "R+P")] == pytest.approx(float(-np.sum(q * np.log2(q))) + 2 / 3)
    equal = wl.region_rows([3, 3, 3, 3])
    assert len(equal) == 25 * 6
    assert all(r[3] == pytest.approx({"Q+E": math.log2(3), "P+S": math.log2(3)}.get(r[2], 2 + math.log2(3) * (2 if r[2] == "C+2Q" else 1))) for r in equal)


def test_arimoto_entropy_of_a_product_is_the_renyi_entropy_of_a():
    pa, pb = np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4])
    renyi2 = -math.log2(float(np.sum(pa**2)))
    assert wl.arimoto_conditional_renyi(np.outer(pa, pb), 2.0) == pytest.approx(renyi2, abs=1e-12)
    assert wl.arimoto_conditional_renyi(np.diag([0.5, 0.5]), 2.0) == pytest.approx(0.0, abs=1e-12)


def test_thin_marginal_state_has_one_small_b_eigenvalue():
    rho = wl.thin_marginal_state(np.random.default_rng(0), (2, 3), 1e-3)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T) and np.linalg.eigvalsh(rho).min() > 0
    rho_b = np.einsum("abac->bc", rho.reshape(2, 3, 2, 3))
    w = np.linalg.eigvalsh(rho_b)
    assert w[0] < 2e-3 < w[1]


def test_negative_cb_closed_form():
    assert wl.negative_cb_closed_form(2, 4, 0.5) == pytest.approx(-0.5)


def test_tro_residual_separates_partial_trace_from_random_isometry():
    # partial trace over a 2x2 block: K_s[a, a*2 + s] = 1, a TRO range
    kraus = np.zeros((2, 2, 4), dtype=complex)
    for s in range(2):
        for a in range(2):
            kraus[s, a, 2 * a + s] = 1.0
    rng = np.random.default_rng(0)
    assert wl.tro_residual(kraus, rng) < 1e-12
    assert wl.tro_residual(wl.random_isometry_kraus(rng, 6, 3, 3), rng) > 1e-3


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_passes_are_seeded(workload):
    def dump(seed):
        return json.dumps(wl.make_pass(workload, seed), default=lambda a: repr(np.asarray(a).tolist()), sort_keys=True)

    assert dump(5) == dump(5)
    assert dump(5) != dump(6)
    assert dump(5) != json.dumps(wl.make_pass(workload, 5, 1), default=lambda a: repr(np.asarray(a).tolist()), sort_keys=True)
    ids = [j["id"] for j in wl.make_pass(workload, 5)]
    assert len(ids) == len(set(ids))


def test_warmup_covers_every_command_and_kind():
    jobs = wl.make_pass("structure", 1)
    keys = {(j["cli"][0], j["spec"]["kind"]) for j in jobs}
    warm = wl.warmup_jobs(jobs)
    assert {(j["cli"][0], j["spec"]["kind"]) for j in warm} == keys
    assert len(warm) == len(keys)


def test_checks_reject_wrong_answers():
    job = wl.bounds_pass(np.random.default_rng(0))[-3]  # partial traces, defect 0
    rows = [("quantity", "lower", "upper")]
    for name, up in job["expect"]["uppers"].items():
        rows.append((name, f"{up:.12g}", f"{up:.12g}"))
    good = {"rc": 0, "stdout": "\n".join(" ".join(r) + " provenance" for r in rows)}
    assert wl.check(job, good) is None
    bad = dict(good, stdout=good["stdout"].replace("1.58496250072 provenance", "1.58 provenance", 1))
    assert "Q" in wl.check(job, bad)
    assert "exit code 3" in wl.check(job, {"rc": 3, "stdout": "", "stderr": "boom"})
    assert wl.check({"expect": {"check": "close", "value": 1.0, "tol": 1e-4}}, {"value": 1.001}) is not None
    sweep = {"check": "renyi_sweep", "log2_din": 1.0}
    assert wl.check({"expect": sweep}, {"values": [0.3, 0.2]}) is not None
    assert wl.check({"expect": sweep}, {"values": [0.2, 0.3]}) is None
