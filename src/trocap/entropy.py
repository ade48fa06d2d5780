"""Entropic quantities, all in bits.

Von Neumann entropy, relative entropy, sandwiched Renyi divergence, coherent
and mutual information, the conditional Renyi entropy obtained by minimizing
over marginal densities, the derived S_1(S_p) vector-valued norm, and the
normalized entropy defect of an environment density.

The minimization over sigma uses a damped fixed-point iteration (the
stationarity condition sigma ~ tr_A[(sandwich)^p]) followed by a quasi-Newton
polish; a dense multi-start fallback covers the rare non-convergent cases.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import matcore as mc
from .errors import BadExponent, NotNormalized, NotState, OptimizerFailed, OutOfRange

STATE_TOL = 1e-8


def check_state(rho: np.ndarray, tol: float = STATE_TOL) -> np.ndarray:
    """Validate a density operator (PSD, unit trace)."""
    rho = mc.asmatrix(rho)
    w, _ = mc.herm_eig(rho)
    if float(np.min(w)) < -1e-8:
        raise NotState(f"negative eigenvalue {float(np.min(w)):.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > tol:
        raise NotState(f"trace is {tr:.8f}, expected 1")
    return rho


def binary_entropy(lam: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with 0 log 0 = 0."""
    if not (0.0 <= lam <= 1.0):
        raise OutOfRange(f"argument must lie in [0, 1], got {lam}")
    out = 0.0
    if lam > 0.0:
        out -= lam * math.log2(lam)
    if lam < 1.0:
        out -= (1.0 - lam) * math.log2(1.0 - lam)
    return out


def spectral_entropy(w: np.ndarray) -> np.ndarray:
    """-sum lam log2 lam over the support of each spectrum (last axis of w),
    negative eigenvalues clipped to zero."""
    w = np.clip(w, 0.0, None)
    lam = np.where(mc.support_mask(w), w, 1.0)
    return -np.sum(lam * np.log2(lam), axis=-1)


def von_neumann_entropy(rho: np.ndarray, check: bool = True) -> float:
    """H(rho) = -tr(rho log2 rho) over the support."""
    if check:
        rho = check_state(rho)
    w, _ = mc.herm_eig(rho)
    return float(spectral_entropy(w))


def _support_violation(rho: np.ndarray, sigma: np.ndarray) -> float:
    proj = mc.support_projector(sigma)
    return mc.frobenius(rho - proj @ rho @ proj)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho || sigma) in bits; +inf when supp(rho) leaves supp(sigma)."""
    rho = check_state(rho)
    sigma = mc.asmatrix(sigma)
    if _support_violation(rho, sigma) > 1e-8 * max(1.0, mc.frobenius(rho)):
        return math.inf
    log_r = mc.matrix_log2(rho)
    log_s = mc.matrix_log2(sigma)
    return float(np.trace(rho @ (log_r - log_s)).real)


def _psd_p_norm(s: np.ndarray, p: float) -> float:
    """Schatten p-norm of a PSD matrix via its eigenvalues."""
    w = np.clip(np.linalg.eigvalsh(mc.hermitize(s)), 0.0, None)
    if np.isinf(p):
        return float(np.max(w)) if w.size else 0.0
    return float(np.sum(w**p) ** (1.0 / p))


def sandwiched_renyi(rho: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Sandwiched Renyi divergence D_p = p' log2 || s^(-1/2p') rho s^(-1/2p') ||_p.

    Requires p > 1 (p = inf allowed); returns +inf on support violation.
    """
    if not (p > 1.0):
        raise BadExponent(f"sandwiched divergence needs p > 1, got {p}")
    rho = check_state(rho)
    sigma = mc.asmatrix(sigma)
    if _support_violation(rho, sigma) > 1e-8 * max(1.0, mc.frobenius(rho)):
        return math.inf
    p_conj = 1.0 if np.isinf(p) else p / (p - 1.0)
    a = mc.matrix_power(sigma, -1.0 / (2.0 * p_conj))
    s = mc.hermitize(a @ rho @ a)
    return float(p_conj * np.log2(_psd_p_norm(s, p)))


# ---------------------------------------------------------------------------
# bipartite helpers (factor order A (x) B throughout)


def marginal(rho_ab: np.ndarray, dims: tuple[int, int], which: str) -> np.ndarray:
    return mc.partial_trace(rho_ab, dims, keep=which)


def coherent_information(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I_c(A>B) = H(B) - H(AB)."""
    rho_ab = check_state(rho_ab)
    hb = von_neumann_entropy(marginal(rho_ab, dims, "B"), check=False)
    hab = von_neumann_entropy(rho_ab, check=False)
    return hb - hab


def mutual_information(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB)."""
    rho_ab = check_state(rho_ab)
    ha = von_neumann_entropy(marginal(rho_ab, dims, "A"), check=False)
    hb = von_neumann_entropy(marginal(rho_ab, dims, "B"), check=False)
    hab = von_neumann_entropy(rho_ab, check=False)
    return ha + hb - hab


# ---------------------------------------------------------------------------
# minimization of D_p(rho_AB || K_A (x) sigma_B) over densities sigma_B


class RenyiOptimum(NamedTuple):
    value: float
    sigma: np.ndarray
    converged: bool
    iterations: int


def _divergence_vs_product(
    rho: np.ndarray,
    dims: tuple[int, int],
    k_pow: np.ndarray,
    sigma: np.ndarray,
    p: float,
    p_conj: float,
) -> float:
    """D_p(rho || K (x) sigma) given K^(-1/2p') precomputed; large finite
    penalty instead of +inf so the optimizer sees a usable landscape."""
    da = dims[0]
    w, v = np.linalg.eigh(mc.hermitize(sigma))
    lam_max = max(float(np.max(w)), 0.0)
    mask = w > mc.SUPPORT_CUTOFF * lam_max
    if not mask.all():
        # mass of rho outside the support of 1 (x) sigma
        proj = (v * (~mask).astype(float)) @ v.conj().T
        leak = float(np.trace(np.kron(np.eye(da), proj) @ rho).real)
        if leak > 1e-12:
            return 1e3 + 1e6 * leak
    s_pow = (v * np.where(mask, w ** (-1.0 / (2.0 * p_conj)), 0.0)) @ v.conj().T
    a = np.kron(k_pow, s_pow)
    s = mc.hermitize(a @ rho @ a)
    return float(p_conj * np.log2(_psd_p_norm(s, p)))


def minimize_renyi_divergence(
    rho_ab: np.ndarray,
    dims: tuple[int, int],
    p: float,
    k_a: Optional[np.ndarray] = None,
    seed: int = 0,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-9,
    max_iter: int = 400,
    sigma_candidates: tuple[np.ndarray, ...] = (),
) -> RenyiOptimum:
    """inf over densities sigma of D_p(rho_AB || K_A (x) sigma_B).

    K_A defaults to the identity (conditional-entropy form); passing the A
    marginal gives the Renyi mutual information.  ``project`` optionally
    maps each sigma iterate into a restricted domain (e.g. a conditional
    expectation onto a subalgebra).  ``sigma_candidates`` are extra feasible
    points whose values are taken into account (the infimum can only
    improve).  ``converged`` is True only when the fixed-point iteration met
    ``tol`` or the returned sigma is an L-BFGS-B polish that reported success.
    """
    if not (np.isfinite(p) and p > 1.0):
        raise BadExponent(f"optimizer needs finite p > 1, got {p}")
    rho_ab = mc.asmatrix(rho_ab)
    da = dims[0]
    p_conj = p / (p - 1.0)
    k_a = np.eye(da, dtype=complex) if k_a is None else mc.asmatrix(k_a)
    k_pow = mc.matrix_power(k_a, -1.0 / (2.0 * p_conj))

    # compress B onto the support of the B marginal
    rho_b = marginal(rho_ab, dims, "B")
    wb, vb = mc.herm_eig(rho_b)
    sup = wb > mc.SUPPORT_CUTOFF * max(float(np.max(wb)), 0.0)
    frame = vb[:, sup]
    rb = frame.shape[1]
    embed = np.kron(np.eye(da), frame)
    rho_c = mc.dagger(embed) @ rho_ab @ embed
    cdims = (da, rb)

    def val(sigma_c: np.ndarray) -> float:
        return _divergence_vs_product(rho_c, cdims, k_pow, sigma_c, p, p_conj)

    def expand(sigma_c: np.ndarray) -> np.ndarray:
        return frame @ sigma_c @ mc.dagger(frame)

    def compress(sigma: np.ndarray) -> np.ndarray:
        return mc.dagger(frame) @ sigma @ frame

    def apply_project(sigma_c: np.ndarray) -> np.ndarray:
        if project is None:
            return sigma_c
        out = compress(project(expand(sigma_c)))
        out = mc.hermitize(out)
        tr = float(np.trace(out).real)
        return out / tr if tr > 0 else sigma_c

    sigma = compress(rho_b)
    sigma = sigma / np.trace(sigma).real
    sigma = apply_project(sigma)
    beta = min(0.5, 0.9 / p)
    best_val, best_sigma = val(sigma), sigma
    prev = best_val
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        wv, vv = np.linalg.eigh(mc.hermitize(sigma))
        mask = wv > mc.SUPPORT_CUTOFF * max(float(np.max(wv)), 0.0)
        s_pow = (vv * np.where(mask, wv ** (-1.0 / (2.0 * p_conj)), 0.0)) @ vv.conj().T
        a = np.kron(k_pow, s_pow)
        s = mc.hermitize(a @ rho_c @ a)
        ws, vs = np.linalg.eigh(s)
        ws = np.clip(ws, 0.0, None)
        s_p = (vs * ws**p) @ vs.conj().T
        update = mc.partial_trace(mc.hermitize(s_p), cdims, keep="B")
        tr = float(np.trace(update).real)
        if not np.isfinite(tr) or tr <= 0:
            break
        sigma_new = (1.0 - beta) * sigma + beta * (update / tr)
        sigma_new = apply_project(mc.hermitize(sigma_new))
        cur = val(sigma_new)
        sigma = sigma_new
        if cur < best_val:
            best_val, best_sigma = cur, sigma_new
        if abs(cur - prev) < tol:
            converged = True
            break
        prev = cur

    # quasi-Newton fallback on a square-root parametrization
    def polish(start: np.ndarray) -> tuple[float, np.ndarray, bool]:
        from scipy import optimize

        m0 = mc.matrix_power(start + 1e-12 * np.eye(rb), 0.5)
        x0 = np.concatenate([m0.real.reshape(-1), m0.imag.reshape(-1)])

        def fun(x: np.ndarray) -> float:
            m = x[: rb * rb].reshape(rb, rb) + 1j * x[rb * rb :].reshape(rb, rb)
            g = m @ mc.dagger(m)
            tr = float(np.trace(g).real)
            if tr <= 0 or not np.isfinite(tr):
                return 1e9
            return val(apply_project(g / tr))

        res = optimize.minimize(fun, x0, method="L-BFGS-B", options={"maxiter": 120})
        m = res.x[: rb * rb].reshape(rb, rb) + 1j * res.x[rb * rb :].reshape(rb, rb)
        g = m @ mc.dagger(m)
        g = apply_project(g / np.trace(g).real)
        return val(g), g, bool(res.success)

    polished = False  # the best point so far is a polish that reported success
    if not converged:
        pv, ps, ok = polish(best_sigma)
        if pv < best_val - 1e-12:
            best_val, best_sigma, polished = pv, ps, ok
        rng = np.random.default_rng(seed)
        for _ in range(3):
            g = mc.random_psd(rng, rb)
            pv, ps, ok = polish(g / np.trace(g).real)
            if pv < best_val:
                best_val, best_sigma, polished = pv, ps, ok
        if not np.isfinite(best_val):
            raise OptimizerFailed("no sigma-minimization strategy converged")

    for cand in sigma_candidates:
        sc = compress(mc.asmatrix(cand))
        tr = float(np.trace(sc).real)
        if tr <= 0:
            continue
        sc = apply_project(mc.hermitize(sc / tr))
        cv = val(sc)
        if cv < best_val:
            best_val, best_sigma, polished = cv, sc, False

    return RenyiOptimum(best_val, expand(best_sigma), converged or polished, iters)


class ConditionalRenyi(NamedTuple):
    value: float
    sigma: np.ndarray


def conditional_renyi(
    rho_ab: np.ndarray,
    dims: tuple[int, int],
    p: float,
    seed: int = 0,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    sigma_candidates: tuple[np.ndarray, ...] = (),
) -> ConditionalRenyi:
    """H_p(A|B) = -inf_sigma D_p(rho_AB || 1_A (x) sigma_B), with minimizer."""
    rho_ab = check_state(rho_ab)
    opt = minimize_renyi_divergence(
        rho_ab, dims, p, seed=seed, project=project, sigma_candidates=sigma_candidates
    )
    return ConditionalRenyi(-opt.value, opt.sigma)


def renyi_coherent_information(
    rho_ab: np.ndarray,
    dims: tuple[int, int],
    p: float,
    seed: int = 0,
    sigma_candidates: tuple[np.ndarray, ...] = (),
) -> float:
    """I_cp(A>B) = -H_p(A|B); tends to the coherent information as p -> 1."""
    return -conditional_renyi(rho_ab, dims, p, seed=seed, sigma_candidates=sigma_candidates).value


def renyi_mutual_information(
    rho_ab: np.ndarray,
    dims: tuple[int, int],
    p: float,
    seed: int = 0,
    sigma_candidates: tuple[np.ndarray, ...] = (),
) -> float:
    """I_p(A:B) = inf_sigma D_p(rho_AB || rho_A (x) sigma_B)."""
    rho_ab = check_state(rho_ab)
    k_a = marginal(rho_ab, dims, "A")
    opt = minimize_renyi_divergence(
        rho_ab, dims, p, k_a=k_a, seed=seed, sigma_candidates=sigma_candidates
    )
    return opt.value


def s1_sp_norm(rho_ab: np.ndarray, dims: tuple[int, int], p: float, seed: int = 0) -> float:
    """||rho||_{S_1(B, S_p(A))} for positive rho, via -p' log2 ||.|| = H_p(A|B)."""
    hp = conditional_renyi(rho_ab, dims, p, seed=seed).value
    p_conj = p / (p - 1.0)
    return float(2.0 ** (-hp / p_conj))


def entropy_defect(f) -> float:
    """Normalized entropy defect tau(f log2 f) = log2(d) - H(f / d).

    ``f`` is a normalized density (unit normalized trace); the value lies
    in [0, log2 d] and is the width of every comparison window downstream.
    """
    arr = getattr(f, "f", f)
    arr = mc.asmatrix(arr)
    d = arr.shape[0]
    tau = float(np.trace(arr).real) / d
    if abs(tau - 1.0) > 1e-10:
        raise NotNormalized(f"normalized trace is {tau:.8f}, expected 1")
    w, _ = mc.herm_eig(arr)
    return -float(spectral_entropy(w)) / d
