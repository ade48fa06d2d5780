"""Entropic quantities, all in bits.

Von Neumann entropy, relative entropy, sandwiched Renyi divergence, coherent and mutual information, the conditional
Renyi entropy obtained by minimizing over marginal densities, the derived S_1(S_p) vector-valued norm, and the
normalized entropy defect of an environment density.

Both sides of the sandwiched Renyi duality live here, on one sigma side (_support_power, _support_power_grad): for a
pure omega_ABE and 1/p + 1/beta = 2, inf_sigma D_p(omega_AB || 1 (x) sigma) = -inf_tau D_beta(omega_AE || 1 (x) tau)
(Mueller-Lennert, Dupuis, Szehr, Fehr & Tomamichel 2013; Beigi 2013).  ``_evaluate`` takes D_p, p > 1, of a stack and
``_dual_value_and_grads`` D_beta, 1/2 <= beta < 1, on a Kraus factor of omega_AE (capacity.renyi_coherent_channel).

The minimization over sigma steps sigma <- (1 - b) sigma + b T/tr T, T = tr_A[(sandwich)^p] (the stationarity
condition sigma ~ T), on a stack of states at once, each item from b0 = 1/p: for commuting states T ~ sigma^(1-p) R,
so the step shrinks sigma's error by |1 - b p| per round, nothing to first order at b0.  An item's b halves whenever
an update would raise the value: a monotone descent of an objective convex in sigma (Frank & Lieb 2013), with no
2-cycle.  An item that does not settle gets one exact-gradient L-BFGS polish from its last iterate
(``_density_search``), none from random starts, and is not ``converged``.  Each stack folds K into its states once,
D_p(rho || K (x) sigma) = D_p(rho' || 1 (x) sigma) for rho' = (K^c (x) 1) rho (K^c (x) 1), c = -1/2p', so every item
is a K = 1 problem, self-dual once rho' is purified, and ``_evaluate`` gives its values, targets and gradients.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import matcore as mc
from .errors import BadExponent, DimMismatch, NotNormalized, NotState, OptimizerFailed, OutOfRange

STATE_TOL = 1e-8


def _state_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A density operator (PSD, unit trace), or each of a stack, validated at STATE_TOL, with its eigenvalues."""
    rho = np.asarray(rho, dtype=complex)
    mc._require_psd(w := mc.herm_eig(rho).eigenvalues, NotState, "negative eigenvalue {:.3e}", STATE_TOL)
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if (np.abs(tr - 1.0) > STATE_TOL).any():
        raise NotState(f"trace is {float(tr[np.abs(tr - 1.0) > STATE_TOL].flat[0]):.8f}, expected 1")
    return rho, w


def check_state(rho: np.ndarray) -> np.ndarray:
    """Validate a density operator (PSD, unit trace), or each of a stack, at STATE_TOL."""
    return _state_spectrum(rho)[0]


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
    w = _state_spectrum(rho)[1] if check else mc.herm_eig(rho).eigenvalues
    return float(spectral_entropy(w))


def _leaves_support(rho: np.ndarray, sigma: np.ndarray) -> bool:
    """Whether |rho - P rho P| > 1e-8 max(1, |rho|), P the support projection of sigma."""
    if rho.shape != sigma.shape:
        raise DimMismatch(f"rho has shape {rho.shape}, sigma {sigma.shape}")
    proj = mc.support_projector(sigma)
    return mc.frobenius(rho - proj @ rho @ proj) > 1e-8 * max(1.0, mc.frobenius(rho))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho || sigma) in bits; +inf when supp(rho) leaves supp(sigma)."""
    rho = check_state(rho)
    sigma = mc.asmatrix(sigma)
    if _leaves_support(rho, sigma):
        return math.inf
    log_r = mc.matrix_log2(rho)
    log_s = mc.matrix_log2(sigma)
    return float(np.trace(rho @ (log_r - log_s)).real)


def sandwiched_renyi(rho: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Sandwiched Renyi divergence D_p = p' log2 || s^(-1/2p') rho s^(-1/2p') ||_p.

    Requires p > 1 (p = inf allowed); returns +inf on support violation.
    """
    if not (p > 1.0):
        raise BadExponent(f"sandwiched divergence needs p > 1, got {p}")
    rho = check_state(rho)
    sigma = mc.asmatrix(sigma)
    if _leaves_support(rho, sigma):
        return math.inf
    p_conj = mc.conjugate_exponent(p)
    a = mc.matrix_power(sigma, -1.0 / (2.0 * p_conj))
    return float(p_conj * np.log2(mc.schatten_norm(a @ rho @ a, p)))


# ---------------------------------------------------------------------------
# bipartite helpers (factor order A (x) B throughout)


def bipartite_entropies(rho_ab: np.ndarray, dims: tuple[int, int]) -> list[np.ndarray]:
    """H(AB), H(A) and H(B) of a state, or of each state of a stack."""
    marginals = (mc.herm_eig(mc.partial_trace(rho_ab, dims, k)).eigenvalues for k in "AB")
    return [spectral_entropy(w) for w in (_state_spectrum(rho_ab)[1], *marginals)]


def coherent_information(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I_c(A>B) = H(B) - H(AB)."""
    hab, _, hb = bipartite_entropies(rho_ab, dims)
    return float(hb - hab)


def mutual_information(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB)."""
    hab, ha, hb = bipartite_entropies(rho_ab, dims)
    return float(ha + hb - hab)


# ---------------------------------------------------------------------------
# minimization of D_p(rho_AB || K_A (x) sigma_B) over densities sigma_B, and the dual kernel of D_beta


class RenyiOptimum(NamedTuple):
    value: float
    sigma: np.ndarray
    converged: bool
    iterations: int


@np.errstate(over="ignore", invalid="ignore")  # overflows and their nans end the search through the guards
def _lbfgs(fun, x: np.ndarray, maxiter: int, floor: float = -math.inf) -> tuple[float, np.ndarray]:
    """L-BFGS (Liu & Nocedal 1989) of fun(x) -> (value, gradient), x real: the two-loop recursion over the last 10
    pairs with s.y > eps y.y (L-BFGS-B's skip rule; Byrd, Lu, Nocedal & Zhu 1995), which an infinite 1/(s.y) clears,
    scaled by the newest s.y/y.y; backtracking Armijo (c1 1e-4, 20 trials of safeguarded cubic steps) from 1, or
    min(1, 1/|d|) without pairs; L-BFGS-B's stops (relative reduction <= 1e-13, max |g| <= 1e-10, ``maxiter``) and the
    first accepted point (the start too) at or below ``floor``, a proven lower bound.  A failed search (its line search
    fails, or its gradient or slope is not finite) keeps the last accepted point: the value returned is the x's."""
    (f, g), pairs, gamma, it, drop = fun(x), [], 1.0, 0, math.inf
    while not f <= floor and 1e-10 < np.abs(g).max() < math.inf and drop > 0 and (it := it + 1) <= maxiter:
        d, alphas = -g, []
        for s, y, r in reversed(pairs):
            alphas.append(r * (s @ d))
            d -= alphas[-1] * y
        d *= gamma
        for (s, y, r), a in zip(pairs, reversed(alphas)):
            d += (a - r * (y @ d)) * s
        if not (slope := g @ d) < 0:  # not a descent direction: steepest descent, memory cleared
            pairs, gamma, d, slope = [], 1.0, -g, -(g @ g)
        if not slope > -math.inf:
            break
        t = 1.0 if pairs else min(1.0, 1.0 / math.sqrt(-slope))
        for _ in range(20):
            f_new, g_new = fun(x_new := x + t * d)
            if f_new <= f + 1e-4 * t * slope:
                break
            z = 3.0 * (f - f_new) / t + slope + (slope_t := g_new @ d)
            w = math.sqrt(max(z * z - slope * slope_t, 0.0))
            t = max(0.1 * t, min(t - t * (slope_t + w - z) / (slope_t - slope + 2.0 * w), 0.5 * t))  # nan: 0.1 t
        else:
            break
        if (sy := (s := x_new - x) @ (y := g_new - g)) > np.finfo(float).eps * (yy := y @ y):
            pairs, gamma = ([*pairs[-9:], (s, y, r)], sy / yy) if (r := 1.0 / float(sy)) < math.inf else ([], 1.0)
        drop = f - f_new - 1e-13 * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
    return f, x


def _density_search(fun, m0s: tuple, maxiter: int, floor: float = -math.inf) -> tuple[float, tuple]:
    """:func:`_lbfgs` from the blocks m0s, x a real view of their entries, over tuples of unit blocks u = m/|m|, m
    complex of any shape (n x n for a density u u*; d^2 x 1 for a pure input).  ``fun`` maps them to the value and the
    products G u, G the hermitian gradient in u u*, whose chain rule gives 2 (G u - Re<u, G u> u)/|m| per block."""
    ends = np.cumsum([0] + [m.size for m in m0s]).tolist()

    def blocks(x: np.ndarray) -> list[np.ndarray]:
        return [x.view(complex)[a:b].reshape(m.shape) for a, b, m in zip(ends, ends[1:], m0s)]

    def packed(x: np.ndarray) -> tuple[float, np.ndarray]:
        ms = blocks(x)
        ns = [math.sqrt(np.vdot(m, m).real) for m in ms]
        if not all(0 < n < math.inf for n in ns):
            return 1e9, np.zeros_like(x)
        value, gus = fun(us := tuple(m / n for m, n in zip(ms, ns)))
        h = [((gu - np.vdot(u, gu).real * u) * (2.0 / n)).ravel() for u, n, gu in zip(us, ns, gus)]
        return value, np.concatenate(h).view(float)

    value, x = _lbfgs(packed, np.concatenate([m.ravel() for m in m0s]).astype(complex).view(float), maxiter, floor)
    return float(value), tuple(m / math.sqrt(np.vdot(m, m).real) for m in blocks(x))


def _support_power(sigma: np.ndarray, c: float):
    """(w, V, mask, sigma^c) of each sigma = V diag(w) V*, sigma^c on the support ``mask`` (w reads 1
    off it): mc.support_mask's for c < 0 (p > 1), the positive spectrum for c > 0 (0^c = 0)."""
    w, v = np.linalg.eigh(mc.hermitize(sigma))
    mask = mc.support_mask(w) if c < 0 else w > 0
    w = np.where(mask, w, 1.0)
    return w, v, mask, (v * (w**c * mask)[..., None, :]) @ mc.dagger(v)


def _support_power_grad(w: np.ndarray, v: np.ndarray, mask: np.ndarray, c: float, y: np.ndarray) -> np.ndarray:
    """The gradient V (Gamma o V* Y V) V* in sigma of tr(Y sigma^c), Y hermitian, Gamma the divided differences
    of w^c on the support (_support_power): w_j^(c-1) expm1(c L) / expm1(L), L = ln(w_i / w_j)."""
    log_ratio = np.log(w)[..., :, None] - np.log(w)[..., None, :]
    den = np.expm1(log_ratio)
    gamma = np.divide(np.expm1(c * log_ratio), den, out=np.full_like(den, c), where=den != 0)
    gamma *= w[..., None, :] ** (c - 1) * (mask[..., :, None] & mask[..., None, :])
    return mc.hermitize(v @ (gamma * (mc.dagger(v) @ y @ v)) @ mc.dagger(v))


def _evaluate(p: float, rho, sigma: np.ndarray, grads: bool = False):
    """D_p(rho || 1 (x) sigma) of each item, p > 1, from s = a rho a, a = 1 (x) sigma^c, c = -1/2p', sigma^c on
    mc.support_mask's support (_support_power), with a large finite penalty for +inf where rho leaves the support
    of 1 (x) sigma; Q = tr s^p and the target tr_A[s^p] by products at p = 2, else by one eigh s = V w V*, w >= 0.
    Returns the target or, with ``grads``, the sigma gradient from Y = tr_A[Z + Z*], Z = rho a p' s^(p-1)/(Q ln 2)."""
    p_conj = p / (p - 1.0)
    c, dims = -0.5 / p_conj, (rho.shape[-1] // sigma.shape[-1], sigma.shape[-1])
    w, v, mask, power = _support_power(sigma, c)
    a = mc.tensor(np.eye(dims[0]), power)
    s = mc.hermitize(a @ rho @ a)
    if p != 2.0:
        ws, vs = np.linalg.eigh(s)
        ws = np.clip(ws, 0.0, None)[..., None, :]
    q = np.sum(s.real * s.real + s.imag * s.imag, axis=(-2, -1)) if p == 2.0 else np.sum(ws**p, axis=(-2, -1))
    value = p_conj * np.log2(q ** (1 / p))
    thin = np.flatnonzero(~mask.all(axis=-1))
    if thin.size:
        off = (v[thin] * (~mask[thin])[..., None, :]) @ mc.dagger(v[thin])
        leak = np.trace(off @ mc.partial_trace(rho[thin], dims, "B"), axis1=1, axis2=2).real
        value[thin] = np.where(leak > 1e-12, 1e3 + 1e6 * leak, value[thin])
    if not grads:
        return value, mc.partial_trace(mc.hermitize(s @ s) if p == 2.0 else (vs * ws**p) @ mc.dagger(vs), dims, "B")
    s_pm1 = s if p == 2.0 else (vs * ws ** (p - 1)) @ mc.dagger(vs)
    x = a @ ((p_conj / (q * math.log(2.0)))[:, None, None] * s_pm1)
    return value, _support_power_grad(w, v, mask, c, mc.partial_trace(2.0 * mc.hermitize(rho @ x), dims, "B"))


def _dual_value_and_grads(kraus: np.ndarray, beta: float, units: tuple) -> tuple[float, tuple]:
    """D_beta(omega_AE || 1 (x) tau), 1/2 <= beta < 1, at unit blocks (psi, u), tau = u u*, and the products G psi
    and G_tau u, from the factor U = Psi K (d, E, d_out) of omega_AE = (id (x) N^c)(psi psi*) = U U*, Psi = psi as
    d x d_in, K the Kraus stack (K2 as (E d_out) x d_in).  W = (1 (x) tau^c) U, c = (1 - beta)/2 beta; Q = tr M^beta,
    M = W* W by eigh, or as V s^2 V* by one SVD of W where an eigenvalue lies below 1e-4 of the largest (W* W rounds
    it), over lam > 1e-30 lam_max; X = kappa M^(beta-1), kappa = beta'/(Q ln 2), G_omega U = (1 (x) tau^c) W X goes
    back through K2*, and Y = tr_A[Z + Z*], Z = U X W*, gives G_tau (_support_power_grad); U, Z, G psi: 2-D products."""
    (psi, u), c = units, (1.0 - beta) / (2.0 * beta)
    n_env, d_out, d_in = kraus.shape
    w, v, mask, power = _support_power(u @ mc.dagger(u), c)
    big_u = (psi.reshape(-1, d_in) @ (k2 := kraus.reshape(-1, d_in)).T).reshape(-1, n_env, d_out)
    w2 = (big_w := power @ big_u).reshape(-1, d_out)
    lam, vm = np.linalg.eigh(mc.dagger(w2) @ w2)
    if lam[0] < 1e-4 * lam[-1]:  # W* W rounds small eigenvalues: M = V s^2 V* from one SVD of W instead
        _, sv, vh = np.linalg.svd(w2, full_matrices=False)
        lam, vm = sv * sv, mc.dagger(vh)
    lam_pm1 = np.power(lam, beta - 1, out=np.zeros_like(lam), where=lam > 1e-30 * lam.max())  # below: a rounded 0
    q = np.sum(lam * lam_pm1)
    x = (vm * lam_pm1 * (beta / ((beta - 1.0) * q * math.log(2.0)))) @ mc.dagger(vm)
    z = (big_u.swapaxes(0, 1) @ x).reshape(n_env, -1) @ mc.dagger(big_w.swapaxes(0, 1).reshape(n_env, -1))
    grad_psi = ((power @ (w2 @ x).reshape(big_w.shape)).reshape(len(big_w), -1) @ k2.conj()).reshape(psi.shape)
    return float(np.log2(q)) / (beta - 1.0), (grad_psi, _support_power_grad(w, v, mask, c, z + mc.dagger(z)) @ u)


class _RenyiStack:
    """inf over densities sigma_B of D_p(rho_i || K_i (x) sigma_B) for a stack of states rho_i on A (x) B, all items
    advancing together.  ``rho`` holds each state folded once, (K^c (x) P) rho_i (K^c (x) P), c = -1/2p', P (``proj``)
    the projector onto the mc.support_mask support of its B marginal, the exact identity where that support is all of
    B (``thin`` marks the other items); :func:`_evaluate`, the one kernel, takes D_p(. || 1 (x) sigma) of it.  Its
    leak penalty reads the folded B marginal: K^c is invertible on supp rho_A wherever a stack is built
    (minimize_renyi_divergence returns +inf first otherwise; verify's K is the A marginal), so that marginal has the
    support of P rho_B P and only the penalty's size depends on K.  :meth:`minimize` fills the per-item arrays
    ``value``, ``sigma``, ``converged`` and ``iterations``."""

    def __init__(self, rhos, dims: tuple[int, int], p: float, k_as=None, project=None):
        if not (np.isfinite(p) and p > 1.0):
            raise BadExponent(f"optimizer needs finite p > 1, got {p}")
        rhos = np.asarray(rhos, dtype=complex)
        self.p, self.project = p, project
        self.rho_b = mc.partial_trace(rhos, dims, "B")
        wb, vb = mc.herm_eig(self.rho_b)
        self.thin = ~(mask := mc.support_mask(wb)).all(axis=-1)
        self.proj = np.where(self.thin[:, None, None], (vb * mask[:, None, :]) @ mc.dagger(vb), np.eye(dims[1]))
        k = np.eye(dims[0], dtype=complex) if k_as is None else k_as
        fold = mc.tensor(mc.matrix_power(k, (1.0 - p) / (2.0 * p)), self.proj)
        self.rho = fold @ rhos @ fold

    def _project(self, sigma: np.ndarray, normalize: bool = True) -> np.ndarray:
        """``project`` on each sigma, renormalized unless not ``normalize``; sigma as is without one."""
        if self.project is None or not len(sigma):
            return sigma
        s = mc.hermitize(np.array([self.project(x) for x in sigma]))
        return s / np.trace(s, axis1=1, axis2=2).real[:, None, None] if normalize else s

    def _feasible(self, idx, sigma: np.ndarray) -> np.ndarray:
        """A start or candidate sigma of the items ``idx`` cut to each item's B support, P sigma P, then
        :meth:`_project`: no cut follows ``project``.  Only ``thin`` items are cut; P = 1 keeps the others' bits."""
        if (thin := self.thin[idx]).any():
            sigma, proj = sigma.copy(), self.proj[idx][thin]
            sigma[thin] = proj @ sigma[thin] @ proj
        return self._project(sigma)

    def minimize(self, tol: float = 1e-9, max_iter: int = 400) -> "_RenyiStack":
        """Monotone damped fixed point: each round every active item tries the :meth:`_feasible` (1-b) sigma +
        b T/tr T, T = tr_A[s^(p-1) s] at its sigma, and keeps it unless the value rises, which halves b from b0 = 1/p
        (where the rate |1 - b p| of commuting states is 0).  Two rounds in a row that move the value by less than
        tol b/b0 fix an item when the second is a rise or a decrease d with d/(1-r) < tol, r = d over the decrease
        before (the tail of a geometric series).  An item whose T has no trace, whose b falls below 1e-10 or that is
        not fixed after ``max_iter`` rounds (``iterations`` counts them) gets one L-BFGS polish, not ``converged``."""
        rho, n = self.rho, len(self.rho)
        sigma = self._feasible(slice(None), self.rho_b)
        sigma = sigma / np.trace(sigma, axis1=1, axis2=2).real[:, None, None]
        value, target = _evaluate(self.p, rho, sigma)
        active, beta0 = np.arange(n), 1.0 / self.p
        beta, last, self.iterations = np.full(n, beta0), np.full(n, np.inf), np.full(n, max_iter)
        self.converged, was_flat = np.zeros((2, n), dtype=bool)
        for j in range(max_iter):
            tr = np.trace(target[active], axis1=1, axis2=2).real
            ok = np.isfinite(tr) & (tr > 0) & (beta[active] >= 1e-10)
            self.iterations[active[~ok]] = j
            active, tr = active[ok], tr[ok]
            if not active.size:
                break
            b = beta[active][:, None, None]
            new = (1.0 - b) * sigma[active] + b * (target[active] / tr[:, None, None])
            cand = self._feasible(active, mc.hermitize(new))
            cand_val, cand_target = _evaluate(self.p, rho[active], cand)
            rise = cand_val - value[active]
            up, flat = rise > 0, np.abs(rise) < tol * beta[active] / beta0
            drop, prev = np.maximum(-rise, 0.0), last[active]
            rate = np.divide(drop, prev, out=np.zeros_like(drop), where=prev > 0)
            met = flat & was_flat[active] & (up | (drop < tol * (1.0 - rate)))
            was_flat[active], last[active] = flat, np.where(up, np.inf, drop)
            win = active[~up]
            value[win], sigma[win], target[win] = cand_val[~up], cand[~up], cand_target[~up]
            beta[active[up]] /= 2
            self.converged[active[met]], self.iterations[active[met]] = True, j + 1
            active = active[~met]
        for i in np.flatnonzero(~self.converged):
            value[i], sigma[i] = self._fallback(slice(i, i + 1), value[i], sigma[i])
        self.value, self.sigma = value, sigma
        return self

    def _fallback(self, item: slice, value: float, sigma: np.ndarray):
        """One L-BFGS polish of one item from its accepted iterate, with the
        exact gradient (:func:`_evaluate`, taken back through ``project``);
        returns its (value, sigma) where it is lower by more than 1e-12, else the iterate's."""

        def fun(u: tuple) -> tuple[float, tuple]:
            v, grad = _evaluate(self.p, self.rho[item], self._project((u[0] @ mc.dagger(u[0]))[None]), grads=True)
            return float(v[0]), (self._project(grad, normalize=False)[0] @ u[0],)

        polish_val, (u,) = _density_search(fun, (mc.matrix_power(sigma + 1e-12 * np.eye(len(sigma)), 0.5),), 120)
        if polish_val < value - 1e-12:
            return polish_val, self._project((u @ mc.dagger(u))[None])[0]
        if not np.isfinite(value):
            raise OptimizerFailed("no sigma-minimization strategy converged")
        return value, sigma

    def improve(self, sigmas: np.ndarray) -> None:
        """One candidate sigma on B per item with trace on the item's B
        support, normalized there and made :meth:`_feasible`, replaces the
        item's optimum where its value is lower."""
        tr = np.trace(self.proj @ sigmas, axis1=1, axis2=2).real  # on the B support
        idx = np.flatnonzero(tr > 0)
        sc = self._feasible(idx, mc.hermitize(sigmas[idx] / tr[idx, None, None]))
        cv = _evaluate(self.p, self.rho[idx], sc)[0]
        win = cv < self.value[idx]
        self.value[idx[win]], self.sigma[idx[win]] = cv[win], sc[win]


def minimize_renyi_divergence(
    rho_ab: np.ndarray,
    dims: tuple[int, int],
    p: float,
    k_a: Optional[np.ndarray] = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-9,
    max_iter: int = 400,
    sigma_candidates: tuple[np.ndarray, ...] = (),
) -> RenyiOptimum:
    """inf over densities sigma of D_p(rho_AB || K_A (x) sigma_B).

    K_A defaults to the identity (conditional-entropy form); passing the A
    marginal gives the Renyi mutual information.  When supp rho_A leaves
    supp K_A the infimum is +inf (sigma = rho_B, converged, no iterations).
    ``project`` optionally maps sigma into a restricted domain (e.g. a
    conditional expectation onto a subalgebra) and acts on all of B; the cut
    to the support of rho_B applies only to the start and to candidates,
    before it, so every sigma returned is its output.  The L-BFGS fallback
    takes its exact gradient back through ``project`` as through its own
    adjoint, so the polish gradient is exact when ``project`` is linear and
    HS-self-adjoint and preserves the trace, as a conditional expectation
    does; any other map still gives feasible values, with a weaker polish.
    ``sigma_candidates`` are extra feasible points whose values are taken
    into account (the infimum can only improve) and leave ``converged`` as it is: True only when the
    monotone fixed point met ``tol`` (``_RenyiStack.minimize``), False after the L-BFGS polish;
    ``iterations`` counts the fixed-point rounds.  The state's B part off the 1e-10
    support of rho_B is cut, so on a thin B marginal the value can lie below the infimum
    for the whole state by about the weight cut off (1.7e-11 at p = 1.5 for a 4e-12 eigenvalue).
    """
    for s in map(mc.asmatrix, sigma_candidates):  # before the search, which a mis-shaped one would only end
        if s.shape != (dims[1], dims[1]):
            raise DimMismatch(f"sigma candidate is {s.shape[0]} x {s.shape[1]}, expected {dims[1]} x {dims[1]}")
    rho, k = mc.asmatrix(rho_ab)[None], None if k_a is None else mc.asmatrix(k_a)[None]
    if not (tr := float(np.trace(rho[0]).real)) > 0:  # sigma starts at rho_B / tr rho_B
        raise NotState(f"trace is {tr:.8f}, expected a positive trace")
    if k is not None and _leaves_support(mc.partial_trace(rho[0], dims, "A"), k[0]):
        return RenyiOptimum(math.inf, mc.partial_trace(rho, dims, "B")[0], True, 0)
    opt = _RenyiStack(rho, dims, p, k, project).minimize(tol, max_iter)
    for cand in sigma_candidates:
        opt.improve(mc.asmatrix(cand)[None])
    return RenyiOptimum(float(opt.value[0]), opt.sigma[0], bool(opt.converged[0]), int(opt.iterations[0]))


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
    """H_p(A|B) = -inf_sigma D_p(rho_AB || 1_A (x) sigma_B), with minimizer;
    ``project`` (on all of B) as in :func:`minimize_renyi_divergence`; ``seed``
    is accepted for compatibility; the minimization is deterministic."""
    rho_ab = check_state(rho_ab)
    opt = minimize_renyi_divergence(rho_ab, dims, p, project=project, sigma_candidates=sigma_candidates)
    return ConditionalRenyi(-opt.value, opt.sigma)


def renyi_coherent_information(
    rho_ab: np.ndarray,
    dims: tuple[int, int],
    p: float,
    seed: int = 0,
    sigma_candidates: tuple[np.ndarray, ...] = (),
) -> float:
    """I_cp(A>B) = -H_p(A|B); tends to the coherent information as p -> 1.
    ``seed`` is accepted for compatibility; the minimization is deterministic."""
    return -conditional_renyi(rho_ab, dims, p, seed=seed, sigma_candidates=sigma_candidates).value


def renyi_mutual_information(
    rho_ab: np.ndarray,
    dims: tuple[int, int],
    p: float,
    seed: int = 0,
    sigma_candidates: tuple[np.ndarray, ...] = (),
) -> float:
    """I_p(A:B) = inf_sigma D_p(rho_AB || rho_A (x) sigma_B); ``seed`` is
    accepted for compatibility; the minimization is deterministic."""
    rho_ab = check_state(rho_ab)
    k_a = mc.partial_trace(rho_ab, dims, "A")
    return minimize_renyi_divergence(rho_ab, dims, p, k_a=k_a, sigma_candidates=sigma_candidates).value


def s1_sp_norm(rho_ab: np.ndarray, dims: tuple[int, int], p: float, seed: int = 0) -> float:
    """||rho||_{S_1(B, S_p(A))} for a density rho, via -p' log2 ||.|| = H_p(A|B).
    ``seed`` is accepted for compatibility; the minimization is deterministic."""
    hp = conditional_renyi(rho_ab, dims, p, seed=seed).value
    p_conj = p / (p - 1.0)
    return float(2.0 ** (-hp / p_conj))


def entropy_defect(f) -> float:
    """Normalized entropy defect tau(f log2 f) = log2(d) - H(f / d).

    ``f`` is a normalized density (PSD, unit normalized trace, else NotNormalized); the value
    lies in [0, log2 d] and is the width of every comparison window downstream.
    """
    arr = mc.asmatrix(getattr(f, "f", f))
    w, _ = mc.herm_eig(arr)  # first, so a mis-shaped f raises DimMismatch
    mc._require_psd(w, NotNormalized, "symbol must be positive semidefinite")  # as algebra._certify
    mc._require_unit_trace(arr, NotNormalized, "normalized trace is {:.8f}, expected 1")
    return -float(spectral_entropy(w)) / arr.shape[0]
