"""Seeded job lists for the trocap benchmark, with answers worked out without trocap.

Every workload is a pass of jobs that is repeated, each time with parameters
drawn afresh from the benchmark seed and the pass index.  A job is a plain dict:

* ``id``      short name, unique within a pass;
* ``cli``     argv for ``trocap.cli.main`` with ``{spec}`` / ``{csv}``
              placeholders, plus ``spec`` (the JSON document to write); or
* ``api``     the name of a Python-API job (run by ``worker.API_JOBS``) with
              its ``args``;
* ``expect``  what ``check`` compares the output with, computed here from the
              construction and closed forms (numpy only; this module never
              imports trocap).

``check(job, output)`` returns ``None`` when the output is right, otherwise a
one-line reason.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math

import numpy as np

WORKLOADS = ("structure", "bounds", "verify", "optimizers")

# Span dimensions k of the structure workload's symbol-carrying specs; the
# per-layer scaling curve algebra.validate_symbol.total_s.k<k> uses these.
STRUCTURE_KS = (4, 6, 8, 10, 12, 16)

# Seconds one pass takes on the reference machine (see benchmark_notes.json).
# A run repeats its pass round(seconds / NOMINAL_PASS_S) times, so the job
# mix, and with it the percentile positions, is the same on every seed.
# Every pass has an odd number of jobs, so the median falls inside the group
# of one job rather than between two jobs of different sizes.
NOMINAL_PASS_S = {"structure": 3.8, "bounds": 3.4, "verify": 6.9, "optimizers": 3.2}

BOUNDS_RESTARTS = 4
VERIFY_SAMPLES = 16
TENSOR_SAMPLES = 4
ONE_SHOT_RESTARTS = 16
NUMERIC_RESTARTS = 4
RENYI_PS = (1.5, 2.0, 4.0)
# renyi_coherent_channel(phi_alpha(alpha), p=2, restarts=1) takes 0.2-0.5 s
# for these alpha and more than 3 s (up to minutes) for alpha in
# {0.05, 0.1, 0.2, 0.3, 0.37, 0.7}; that cliff is a recorded known defect
# kept out of the timed loop, so the job draws alpha from this set.
RENYI_PHI_ALPHAS = (-0.5, 0.4, 0.45, 0.5, 0.55, 0.6, 0.8, 0.9)
REGION_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)  # the CLI's default 0:1:0.25 grids
# conditional_renyi on thin_marginal_state(FALLBACK_DIMS, FALLBACK_EPS) sends
# the Renyi minimizer into its L-BFGS-B fallback (about 0.3 s a call); no
# other timed job reaches that path.  The state is fixed: for about 3 in 100
# random draws the fixed point converges after all, while this one is still
# moving after 3000 of the 400 iterations allowed.
FALLBACK_DIMS = (2, 3)
FALLBACK_EPS = 2e-3
FALLBACK_STATE_SEED = 0

QUANTITY_TOL = 1e-9
TIGHT_TOL = 1e-3
REGION_TOL = 1e-12
NEG_CB_TOL = 1e-4

# ---------------------------------------------------------------------------
# closed forms


def entropy_defect(f: np.ndarray) -> float:
    """tau(f log2 f) for a density with unit normalized trace, from eigvalsh."""
    d = f.shape[0]
    w = np.clip(np.linalg.eigvalsh((f + f.conj().T) / 2), 0.0, None)
    w = w[w > 1e-10 * max(float(w.max()), 0.0)]
    return float(np.sum(w * np.log2(w)) / d)


def cyclic_kernel(phi: np.ndarray) -> np.ndarray:
    """Kernel matrix K[g, g'] = phi(g - g') of a function on cyclic(k)."""
    k = len(phi)
    idx = (np.arange(k)[:, None] - np.arange(k)[None, :]) % k
    return phi[idx]


def window_uppers(ns, defect: float) -> dict[str, float]:
    """Upper edges of the comparison windows: block value plus the defect."""
    q = math.log2(max(ns))
    c = math.log2(sum(ns))
    cea = math.log2(sum(n * n for n in ns))
    out = {name: q + defect for name in ("Q", "P", "Q1", "Q_dagger", "P_dagger")}
    out.update({"C": c + defect, "C_dagger": c + defect, "C_EA": cea + defect})
    return out


def region_rows(ns) -> list[tuple[float, float, str, float]]:
    """Vertex constraints of the two capacity regions, in the CLI's row order.

    The tilted block distribution p_i ~ n_i^beta has beta = (2+lam+mu)/(1+mu)
    for the classical/quantum/entanglement region and (1+lam+mu)/(1+mu) for
    the public/private/secret-key region.
    """
    ns = np.asarray(ns, dtype=float)
    rows = []
    for lam in REGION_GRID:
        for mu in REGION_GRID:
            for beta, names in (
                ((2 + lam + mu) / (1 + mu), ("C+2Q", "Q+E", "C+Q+E")),
                ((1 + lam + mu) / (1 + mu), ("R+P", "P+S", "R+P+S")),
            ):
                p = ns**beta / np.sum(ns**beta)
                h = float(-np.sum(p * np.log2(p)))
                tbar = float(np.sum(p * np.log2(ns)))
                first = h + 2 * tbar if names[0] == "C+2Q" else h + tbar
                for name, rhs in zip(names, (first, tbar, h + tbar)):
                    rows.append((lam, mu, name, rhs))
    return rows


def negative_cb_closed_form(d_in: int, d_env: int, defect: float) -> float:
    """log2(|in|/|env|) + tau(f log f) for a proportionally unital complement."""
    return math.log2(d_in / d_env) + defect


def arimoto_conditional_renyi(joint: np.ndarray, p: float) -> float:
    """H_p(A|B) of the classical state diag(P(a, b)).  With every operator
    diagonal the sandwiched conditional Renyi entropy is Arimoto's,
    p/(1-p) log2 sum_b (sum_a P(a, b)^p)^(1/p)."""
    return float(p / (1 - p) * np.log2(np.sum(np.sum(joint**p, axis=0) ** (1 / p))))


def phi_alpha_defect(alpha: float) -> float:
    """1 + alpha*S has spectrum {1 + alpha, 1 - alpha}, each twice, on C^4."""
    return entropy_defect(np.diag([1 + alpha, 1 + alpha, 1 - alpha, 1 - alpha]))


# ---------------------------------------------------------------------------
# seeded specs


def _cplx(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _spec_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def schur_spec(rng: np.random.Generator, k: int) -> tuple[dict, float]:
    """Schur multiplier on cyclic(k) with phi the Fourier transform of a seeded
    probability vector q, so the kernel has eigenvalues k*q > 0."""
    q = 0.2 / k + 0.8 * rng.dirichlet(np.ones(k))
    phi = np.fft.fft(q)
    phi[0] = 1.0
    doc = {
        "kind": "schur_multiplier",
        "params": {"group": {"kind": "cyclic", "order": k}, "phi": [_cplx(z) for z in phi]},
        "seed": _spec_seed(rng),
    }
    return doc, entropy_defect(cyclic_kernel(phi))


def dephasing_spec(rng: np.random.Generator) -> tuple[dict, float, float]:
    """Qubit dephasing as the Schur multiplier [1, q] on cyclic(2)."""
    q = float(rng.uniform(0.1, 0.95))
    doc = {
        "kind": "schur_multiplier",
        "params": {"group": {"kind": "cyclic", "order": 2}, "phi": [1.0, q]},
        "seed": _spec_seed(rng),
    }
    return doc, q, entropy_defect(np.array([[1.0, q], [q, 1.0]]))


def phi_alpha_spec(rng: np.random.Generator, alpha: float) -> tuple[dict, float]:
    doc = {"kind": "phi_alpha", "params": {"alpha": alpha}, "seed": _spec_seed(rng)}
    return doc, phi_alpha_defect(alpha)


def group_ru_spec(rng: np.random.Generator, rep) -> tuple[dict, float]:
    """Random-unitary channel over a group of order n with a seeded
    distribution p; the symbol is n*diag(p)."""
    n = 4 if rep == "pauli" else rep["group"]["order"]
    p = 0.2 / n + 0.8 * rng.dirichlet(np.ones(n))
    p = p / p.sum()
    doc = {
        "kind": "group_random_unitary",
        "params": {"rep": rep, "distribution": [float(v) for v in p]},
        "seed": _spec_seed(rng),
    }
    return doc, entropy_defect(np.diag(n * p))


def regular_rep(k: int) -> dict:
    return {"kind": "regular", "group": {"kind": "cyclic", "order": k}}


def random_isometry_kraus(rng: np.random.Generator, d_in: int, d_out: int, n_env: int) -> np.ndarray:
    """Kraus operators (n_env, d_out, d_in) of a Haar-like random isometry."""
    g = rng.standard_normal((n_env * d_out, d_in)) + 1j * rng.standard_normal((n_env * d_out, d_in))
    v, _ = np.linalg.qr(g)
    return v.reshape(n_env, d_out, d_in)


def tro_residual(kraus: np.ndarray, rng: np.random.Generator) -> float:
    """Out-of-span residual of x y* z for random x, y, z in the dilation range.

    The range is spanned by the d_out x n_env matrices h_k[i, e] = K_e[i, k];
    a value well above round-off shows the range is not a TRO."""
    basis = kraus.transpose(2, 1, 0)  # (d_in, d_out, n_env)
    flat = basis.reshape(basis.shape[0], -1)
    q, _ = np.linalg.qr(flat.T)
    coeffs = rng.standard_normal((3, basis.shape[0]))
    x, y, z = (np.tensordot(c, basis, axes=1) for c in coeffs)
    t = (x @ y.conj().T @ z).reshape(-1)
    return float(np.linalg.norm(t - q @ (q.conj().T @ t)) / np.linalg.norm(t))


def kraus_spec(rng: np.random.Generator, d_in: int, d_out: int, n_env: int) -> tuple[dict, int]:
    kraus = random_isometry_kraus(rng, d_in, d_out, n_env)
    if tro_residual(kraus, rng) < 1e-3:
        raise RuntimeError("random dilation range came out closed under x y* z")
    doc = {
        "kind": "kraus",
        "params": {"kraus": [[[_cplx(z) for z in row] for row in k] for k in kraus]},
        "seed": _spec_seed(rng),
    }
    return doc, d_in


def multi_block_list(rng: np.random.Generator, blocks) -> list[list[int]]:
    """A seeded ordering of the blocks, each transposed with probability 1/2."""
    out = [list(b) if rng.random() < 0.5 else list(b)[::-1] for b in blocks]
    return [out[i] for i in rng.permutation(len(out))]


# ---------------------------------------------------------------------------
# jobs


def _describe(jid, doc, dims, blocks=None, right_dim=None, tro=True, k=None):
    return {
        "id": jid,
        "cli": ["describe", "{spec}"],
        "spec": doc,
        "k": k,
        "expect": {
            "check": "describe",
            "dims": list(dims),
            "tro": tro,
            "blocks": sorted(blocks) if blocks is not None else None,
            "right_dim": right_dim,
        },
    }


def _region(jid, doc, ns, k=None):
    return {
        "id": jid,
        "cli": ["region", "{spec}", "--csv", "{csv}"],
        "spec": doc,
        "k": k,
        "expect": {"check": "region", "rows": region_rows(ns)},
    }


def structure_pass(rng: np.random.Generator) -> list[dict]:
    """describe/region on growing span dimension k; algebra does the work."""
    jobs = []
    for i, k in enumerate(STRUCTURE_KS):
        doc, _ = schur_spec(rng, k)
        if i % 2 == 0:
            jobs.append(_describe(f"describe:schur:k{k}", doc, (k, k, k), [(1, 1, 1)] * k, k, k=k))
        else:
            jobs.append(_region(f"region:schur:k{k}", doc, [1] * k, k=k))
    for i, k in enumerate(STRUCTURE_KS[:-1]):
        doc, _ = group_ru_spec(rng, regular_rep(k))
        if i % 2 == 0:
            jobs.append(_region(f"region:regular:k{k}", doc, [1] * k, k=k))
        else:
            jobs.append(_describe(f"describe:regular:k{k}", doc, (k, k, k), [(1, 1, 1)] * k, k, k=k))
    for cmd, base in (("describe", [(2, 2), (1, 3)]), ("region", [(2, 2), (2, 1), (1, 2)])):
        blocks = multi_block_list(rng, base)
        doc = {"kind": "partial_trace_sum", "params": {"blocks": blocks}, "seed": _spec_seed(rng)}
        k = sum(n * m for n, m in blocks)
        dims = (k, sum(n for n, _ in blocks), sum(m for _, m in blocks))
        if cmd == "describe":
            jobs.append(_describe(f"describe:blocks:k{k}", doc, dims, [(n, m, 1) for n, m in blocks], k=k))
        else:
            jobs.append(_region(f"region:blocks:k{k}", doc, [n for n, _ in blocks], k=k))
    for d_in, d_out, n_env in ((6, 3, 3), (12, 5, 3)):
        doc, k = kraus_spec(rng, d_in, d_out, n_env)
        jobs.append(_describe(f"describe:kraus:k{k}", doc, (d_in, d_out, n_env), tro=False, k=k))
    return jobs


def _bounds(jid, doc, ns, defect, tight, neg_cb=None):
    return {
        "id": jid,
        "cli": ["bounds", "{spec}", "--restarts", str(BOUNDS_RESTARTS)],
        "spec": doc,
        "expect": {
            "check": "bounds",
            "uppers": window_uppers(ns, defect),
            "tight": tight,
            "neg_S_cb": neg_cb,
        },
    }


def bounds_pass(rng: np.random.Generator) -> list[dict]:
    """bounds tables; the multi-start coherent-information ascent dominates."""
    jobs = []
    # With 4 restarts a phi_alpha table takes about 0.2-0.26 s for |alpha|
    # in 0.2-0.4 and 0.06-0.14 s for |alpha| >= 0.5, a step near 0.45; the
    # partial-trace table takes 0.2-0.28 s.  Drawing alpha on both sides of
    # the step made the median job bimodal.  Here five mid-|alpha| tables and
    # two partial-trace tables form one group of 7 around the median of 13,
    # whichever side of it the Schur cyclic(4) table (0.1-0.27 s) falls.
    for i, (lo, hi) in enumerate([(0.24, 0.38)] * 5 + [(0.6, 0.95)]):
        alpha = float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))
        doc, defect = phi_alpha_spec(rng, alpha)
        jobs.append(_bounds(f"bounds:phi_alpha:{i}", doc, [1, 1, 1], defect, True, defect))
    for i in range(2):
        doc, _, defect = dephasing_spec(rng)
        jobs.append(_bounds(f"bounds:dephasing:{i}", doc, [1, 1], defect, True, defect))
    doc, defect = group_ru_spec(rng, "pauli")
    # uniform Pauli mixture: the range is the TRO M_{1,2} (x) 1_2, so n = 1;
    # |in|/|env| = 2/4
    jobs.append(_bounds("bounds:pauli", doc, [1], defect, False, defect - 1.0))
    for i in range(2):
        doc = {"kind": "partial_trace_sum", "params": {"blocks": [[2, 2], [3, 1]]}, "seed": _spec_seed(rng)}
        jobs.append(_bounds(f"bounds:blocks:{i}", doc, [2, 3], 0.0, True))
    for k in (4, 8):
        doc, defect = schur_spec(rng, k)
        jobs.append(_bounds(f"bounds:schur:k{k}", doc, [1] * k, defect, False, defect))
    return jobs


def _verify(jid, doc, suite, samples):
    return {
        "id": jid,
        "cli": ["verify", "{spec}", "--suite", suite, "--samples", str(samples)],
        "spec": doc,
        "expect": {"check": "verify", "reports": 3 if suite == "all" else 1},
    }


def verify_pass(rng: np.random.Generator) -> list[dict]:
    """Randomized inequality suites: Renyi minimizations and tensor closures."""
    alpha = float(rng.uniform(-0.9, 0.9))
    jobs = [_verify("verify:phi_alpha", phi_alpha_spec(rng, alpha)[0], "all", VERIFY_SAMPLES)]
    for i in range(3):
        jobs.append(_verify(f"verify:dephasing:{i}", dephasing_spec(rng)[0], "all", VERIFY_SAMPLES))
        jobs.append(_verify(f"verify:pauli:{i}", group_ru_spec(rng, "pauli")[0], "all", VERIFY_SAMPLES))
    for i in range(2):
        jobs.append(_verify(f"verify:tensor:schur:k4:{i}", schur_spec(rng, 4)[0], "tensor_symbol", TENSOR_SAMPLES))
    return jobs


def _channel(rng: np.random.Generator, family: str, alpha=None) -> tuple[dict, float, int, int]:
    """API channel description, its defect, input and environment dims."""
    seed = _spec_seed(rng)
    if family == "dephasing":
        q = float(rng.uniform(0.1, 0.95))
        return {"family": family, "q": q, "seed": seed}, entropy_defect(np.array([[1, q], [q, 1.0]])), 2, 2
    if family == "phi_alpha":
        return {"family": family, "alpha": alpha, "seed": seed}, phi_alpha_defect(alpha), 4, 4
    raise ValueError(family)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def thin_marginal_state(rng: np.random.Generator, dims: tuple[int, int], eps: float) -> np.ndarray:
    """(1 - eps) rho0 + eps rho1 with rho0 supported on A (x) (all of B but its
    last basis vector) and rho1 full rank, so the B marginal has one
    eigenvalue of order eps.  The Renyi minimizer's fixed point crawls along
    that direction and hands over to its L-BFGS-B fallback."""
    da, db = dims
    g = random_state(rng, da * db)
    keep = np.kron(np.eye(da), np.diag([1.0] * (db - 1) + [0.0]))
    rho0 = keep @ g @ keep
    return (1 - eps) * rho0 / np.trace(rho0).real + eps * g


def optimizers_pass(rng: np.random.Generator) -> list[dict]:
    """Python-API optimizer jobs the CLI never makes."""
    jobs = []
    # Two dephasing jobs next to the Schur cyclic(4) sweep below: three jobs
    # of about 0.04 s around the median of the pass's 13.
    for i, family in enumerate(("dephasing", "dephasing", "phi_alpha")):
        ch, defect, d_in, d_env = _channel(rng, family, float(rng.uniform(-0.9, 0.9)))
        jobs.append({
            "id": f"negative_cb_entropy:{family}:{i}",
            "api": "negative_cb_entropy",
            "args": {"channel": ch, "restarts": NUMERIC_RESTARTS},
            "expect": {"check": "close", "value": negative_cb_closed_form(d_in, d_env, defect), "tol": NEG_CB_TOL},
        })
    ch, _, d_in, _ = _channel(rng, "dephasing")
    jobs.append({
        "id": "renyi_coherent_channel:dephasing",
        "api": "renyi_coherent_channel",
        "args": {"channel": ch, "ps": list(RENYI_PS), "restarts": 2},
        "expect": {"check": "renyi_sweep", "log2_din": math.log2(d_in)},
    })
    doc, _ = schur_spec(rng, 4)
    phi = doc["params"]["phi"]
    ch = {"family": "schur", "phi": phi, "seed": doc["seed"]}
    jobs.append({
        "id": "renyi_coherent_channel:schur:k4",
        "api": "renyi_coherent_channel",
        "args": {"channel": ch, "ps": [2.0], "restarts": 1},
        "expect": {"check": "renyi_sweep", "log2_din": 2.0},
    })
    alpha = float(RENYI_PHI_ALPHAS[rng.integers(len(RENYI_PHI_ALPHAS))])
    ch, _, _, _ = _channel(rng, "phi_alpha", alpha)
    jobs.append({
        "id": "renyi_coherent_channel:phi_alpha",
        "api": "renyi_coherent_channel",
        "args": {"channel": ch, "ps": [2.0], "restarts": 1},
        "expect": {"check": "renyi_sweep", "log2_din": 2.0},
    })
    for dims in ((2, 2), (2, 4), (3, 4), (4, 4)):
        d = dims[0] * dims[1]
        jobs.append({
            "id": f"conditional_renyi:d{d}",
            "api": "conditional_renyi",
            "args": {"rho": random_state(rng, d), "dims": list(dims), "p": 2.0, "seed": _spec_seed(rng)},
            "expect": {"check": "renyi_norm", "tol": 1e-9},
        })
    joint = rng.dirichlet(np.ones(9)).reshape(3, 3)
    jobs.append({
        "id": "conditional_renyi:classical:d9",
        "api": "conditional_renyi",
        "args": {"rho": np.diag(joint.reshape(-1)).astype(complex), "dims": [3, 3], "p": 2.0, "seed": _spec_seed(rng)},
        "expect": {"check": "renyi_norm", "tol": 1e-9, "value": arimoto_conditional_renyi(joint, 2.0)},
    })
    jobs.append({
        "id": "conditional_renyi:fallback:d6",
        "api": "conditional_renyi",
        "args": {
            "rho": thin_marginal_state(np.random.default_rng(FALLBACK_STATE_SEED), FALLBACK_DIMS, FALLBACK_EPS),
            "dims": list(FALLBACK_DIMS),
            "p": 2.0,
            "seed": _spec_seed(rng),
        },
        "expect": {"check": "renyi_norm", "tol": 1e-9},
    })
    jobs.append({
        "id": "one_shot_q:blocks",
        "api": "one_shot_q",
        "args": {"channel": {"family": "blocks", "blocks": [[2, 2], [3, 1]]}, "restarts": ONE_SHOT_RESTARTS, "seed": _spec_seed(rng)},
        "expect": {"check": "close", "value": math.log2(3), "tol": TIGHT_TOL},
    })
    return jobs


PASSES = {
    "structure": structure_pass,
    "bounds": bounds_pass,
    "verify": verify_pass,
    "optimizers": optimizers_pass,
}


def make_pass(workload: str, seed: int, index: int = 0) -> list[dict]:
    """Pass `index` of a run: the same jobs in every pass, with parameters
    drawn afresh, so a run averages over several draws of each job."""
    return PASSES[workload](np.random.default_rng([seed, WORKLOADS.index(workload), index]))


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def warmup_jobs(jobs: list[dict]) -> list[dict]:
    """One cheap job per (command or API, spec kind): imports, first-call
    set-up and caches of numpy/scipy are paid before timing starts."""
    seen, out = set(), []
    for job in sorted(jobs, key=lambda j: j.get("k") or 0):
        key = (job["cli"][0], job["spec"]["kind"]) if "cli" in job else (job["api"],)
        if key not in seen:
            seen.add(key)
            out.append(job)
    return out


# ---------------------------------------------------------------------------
# checks


def _fmt_tol(x: float) -> float:
    """Half a unit in the last place of the CLI's {:.12g} format."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 1e-300


def _check_describe(exp, out) -> str | None:
    fields = {}
    for line in out["stdout"].splitlines():
        if line.startswith("dim_in:"):
            fields["dims"] = [int(t) for t in line.split() if t.isdigit()]
        elif line.startswith("dilation range is a TRO:"):
            fields["tro"] = line.split(":")[1].strip() == "True"
        elif line.startswith("  witness triple:"):
            head, res = line.split("residual:")
            fields["witness"] = ast.literal_eval(head.split(":", 1)[1].strip())
            fields["residual"] = float(res)
        elif line.startswith("blocks (n, m, multiplicity):"):
            fields["blocks"] = sorted(tuple(b) for b in ast.literal_eval(line.split(":", 1)[1].strip()))
        elif line.startswith("symbol independence residuals:"):
            fields["resids"] = [float(r) for r in ast.literal_eval(line.split(":", 1)[1].strip())]
        elif line.startswith("right algebra dimension:"):
            fields["right_dim"] = int(line.split(":")[1])
    if fields.get("dims") != exp["dims"]:
        return f"dims {fields.get('dims')} != {exp['dims']}"
    if fields.get("tro") != exp["tro"]:
        return f"TRO flag {fields.get('tro')} != {exp['tro']}"
    if not exp["tro"]:
        w, r, k = fields.get("witness"), fields.get("residual", 0.0), exp["dims"][0]
        if not (isinstance(w, tuple) and len(w) == 3 and all(0 <= i < k for i in w)):
            return f"bad witness {w}"
        if not (1e-8 < r <= 1.0 + 1e-9):
            return f"witness residual {r} outside (1e-8, 1]"
        return None
    if fields.get("blocks") != [tuple(b) for b in exp["blocks"]]:
        return f"blocks {fields.get('blocks')} != {exp['blocks']}"
    if exp["right_dim"] is not None:
        if fields.get("right_dim") != exp["right_dim"]:
            return f"right algebra dim {fields.get('right_dim')} != {exp['right_dim']}"
        if max(fields.get("resids", [1.0])) > 1e-9:
            return "symbol independence residual above 1e-9"
    return None


def _check_region(exp, out) -> str | None:
    rows = list(csv.reader(io.StringIO(out["csv"])))
    if rows[:1] != [["lambda", "mu", "constraint", "rhs"]] or len(rows) - 1 != len(exp["rows"]):
        return f"region CSV has {len(rows) - 1} rows, expected {len(exp['rows'])}"
    for got, (lam, mu, name, rhs) in zip(rows[1:], exp["rows"]):
        if got[2] != name or float(got[0]) != lam or float(got[1]) != mu:
            return f"row {got} out of order, expected {(lam, mu, name)}"
        if abs(float(got[3]) - rhs) > REGION_TOL + _fmt_tol(rhs):
            return f"{name} at ({lam}, {mu}): {got[3]} != {rhs!r}"
    return None


def _check_bounds(exp, out) -> str | None:
    table = {}
    for line in out["stdout"].splitlines()[1:]:
        parts = line.split()
        table[parts[0]] = (float(parts[1]), float(parts[2]))
    for name, upper in exp["uppers"].items():
        if name not in table:
            return f"quantity {name} missing"
        if abs(table[name][1] - upper) > QUANTITY_TOL:
            return f"{name} upper {table[name][1]!r} != closed form {upper!r}"
    for name, (lower, upper) in table.items():
        if lower > upper + QUANTITY_TOL:
            return f"{name} lower {lower} exceeds upper {upper}"
    if exp["tight"] and table["Q1"][1] - table["Q1"][0] > TIGHT_TOL:
        return f"Q1 window {table['Q1']} not tight to {TIGHT_TOL}"
    neg = exp["neg_S_cb"]
    if neg is not None and ("neg_S_cb" not in table or abs(table["neg_S_cb"][1] - neg) > QUANTITY_TOL):
        return f"neg_S_cb {table.get('neg_S_cb')} != closed form {neg!r}"
    if neg is None and "neg_S_cb" in table:
        return "unexpected neg_S_cb row"
    return None


def _check_verify(exp, out) -> str | None:
    reports = json.loads(out["stdout"])
    if len(reports) != exp["reports"]:
        return f"{len(reports)} reports, expected {exp['reports']}"
    failed = [r["check"] for r in reports if not r["passed"]]
    return f"reports failed: {failed}" if failed else None


def _check_close(exp, out) -> str | None:
    v = out["value"]
    return None if abs(v - exp["value"]) <= exp["tol"] else f"value {v!r} != {exp['value']!r} within {exp['tol']}"


def _check_renyi_sweep(exp, out) -> str | None:
    vals = out["values"]
    if not all(math.isfinite(v) and abs(v) <= exp["log2_din"] + 1e-9 for v in vals):
        return f"values {vals} outside [-log2 d_in, log2 d_in]"
    if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
        return f"values {vals} decrease in p"
    return None


def _check_renyi_norm(exp, out) -> str | None:
    p = out["p"]
    implied = -(p / (p - 1.0)) * math.log2(out["s1"])
    if abs(implied - out["h"]) > exp["tol"]:
        return f"-p' log2 s1_sp_norm = {implied!r} but conditional_renyi = {out['h']!r}"
    if "value" in exp and abs(out["h"] - exp["value"]) > exp["tol"]:
        return f"conditional_renyi = {out['h']!r} != closed form {exp['value']!r}"
    return None


CHECKS = {
    "describe": _check_describe,
    "region": _check_region,
    "bounds": _check_bounds,
    "verify": _check_verify,
    "close": _check_close,
    "renyi_sweep": _check_renyi_sweep,
    "renyi_norm": _check_renyi_norm,
}


def check(job: dict, output: dict) -> str | None:
    """None when the job's output matches its expected answer."""
    if "rc" in output and output["rc"] != 0:
        return f"exit code {output['rc']}: {output.get('stderr', '').strip()[:200]}"
    try:
        return CHECKS[job["expect"]["check"]](job["expect"], output)
    except (ValueError, KeyError, IndexError, SyntaxError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
