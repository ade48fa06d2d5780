"""Capacity formulas, comparison windows, and one-shot optimizers.

Channels whose dilation range is a direct sum of rectangular blocks (n_i, m_i) have exact single-letter capacities
depending only on the n_i.  Modifying such a channel by an environment density f shifts every capacity upward by at
most the entropy defect tau(f log f), which yields two-sided windows; one-shot coherent-information ascent supplies
certified lower bounds inside those windows.  The searches here (_ascent, _concave_max, renyi_coherent_channel) climb
kernels of the channel's maps; the Renyi search climbs entropy._dual_value_and_grads, the dual side of the sandwiched
Renyi duality, which lives beside its primal in entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import algebra as alg
from . import channel as chn
from . import matcore as mc
from .channel import Channel, StinespringSpace, Symbol
from .entropy import _density_search, _dual_value_and_grads, entropy_defect
from .errors import (
    BadExponent,
    DimMismatch,
    EmptyBlocks,
    HypothesisFailed,
    InvalidSymbol,
    OutOfRange,
    RankDeficient,
)

QUANTITIES = (
    "C",
    "Q",
    "P",
    "C_EA",
    "C_dagger",
    "Q_dagger",
    "P_dagger",
    "Q1",
    "neg_S_cb",
)
CEILING_RTOL = 1e-13  # relative gap to a proven ceiling that counts as reaching it
ASCENT_MAX_STEPS = 400  # accepted ascent steps after which a restart stops; _concave_max's trial cap
ASCENT_MARGIN = 1e-14  # rise in F that an ascent trial must exceed to be accepted; the fall _concave_max forgives


@dataclass(frozen=True)
class BoundEntry:
    lower: float
    upper: float
    provenance: str


@dataclass
class BoundReport:
    """Named capacity quantities with (lower, upper, provenance) windows."""

    entries: dict[str, BoundEntry] = field(default_factory=dict)

    def set(self, name: str, lower: float, upper: float, provenance: str) -> None:
        if name not in QUANTITIES:
            raise KeyError(f"unknown quantity {name!r}")
        self.entries[name] = BoundEntry(lower, upper, provenance)

    def raise_lower(self, name: str, lower: float, provenance: str) -> None:
        """Tighten a lower bound, keeping the larger of old and new."""
        old = self.entries[name]
        if lower > old.lower:
            self.entries[name] = BoundEntry(lower, old.upper, provenance)

    def check(self, tol: float = 1e-9) -> None:
        for name, e in self.entries.items():
            if e.lower > e.upper + tol:
                raise ValueError(f"{name}: lower {e.lower} exceeds upper {e.upper}")
        if "Q" in self.entries and "P" in self.entries:
            if self.entries["Q"].lower > self.entries["P"].lower + tol:
                raise ValueError("Q lower bound exceeds P lower bound")


def _block_ns(blocks) -> list[int]:
    """The sizes n_i (mc._block_size), alone or first in each tuple, list or 1-d array row."""
    ns = []
    for b in blocks:
        row = isinstance(b, (tuple, list)) or (isinstance(b, np.ndarray) and b.ndim == 1)
        ns.append(mc._block_size(b[0] if row and len(b) else b))
    if not ns:
        raise EmptyBlocks("at least one block required")
    return ns


def tro_capacities(blocks: Sequence) -> BoundReport:
    """Exact capacities of a direct sum of partial traces over blocks (n_i, m_i).

    All quantities are strongly additive here, so one-shot, regularized, and
    strong-converse values coincide.
    """
    ns = _block_ns(blocks)
    q = math.log2(max(ns))
    c = math.log2(sum(ns))
    cea = math.log2(sum(n * n for n in ns))
    report = BoundReport()
    exact = "exact block formula (sum of partial traces; strongly additive)"
    sc = "strong converse equals capacity for block channels"
    report.set("C", c, c, exact)
    report.set("Q", q, q, exact)
    report.set("P", q, q, exact)
    report.set("C_EA", cea, cea, exact)
    report.set("Q1", q, q, exact + "; one-shot value coincides")
    report.set("C_dagger", c, c, sc)
    report.set("Q_dagger", q, q, sc)
    report.set("P_dagger", q, q, sc)
    report.check()
    return report


def comparison_bounds(space: StinespringSpace, symbol: Symbol) -> BoundReport:
    """Two-sided capacity windows for the channel modified by a symbol.

    Lower edges are the block-formula values of the reference channel; upper
    edges add the symbol's entropy defect.  The same windows bound the
    one-shot, potential, and strong-converse variants.
    """
    if not isinstance(symbol, Symbol):
        raise InvalidSymbol("comparison_bounds needs a validated Symbol")
    if symbol.dim != space.dim_env:
        raise InvalidSymbol(
            f"symbol dim {symbol.dim} does not match environment {space.dim_env}"
        )
    cert = symbol.certificate
    base = tro_capacities(cert.blocks)
    defect = entropy_defect(symbol)
    window = "block value to block value + entropy defect of the symbol"
    if not cert.space_is_tro:
        window += " (dilation range strictly inside the block space; lower edge relaxed to 0)"
    sc = window + "; valid for strong converse rates"
    provenance = {
        "Q1": window + "; valid for the one-shot and potential variants",
        "C_dagger": sc,
        "Q_dagger": sc,
        "P_dagger": sc + "; also bounded by the relative entropy of entanglement (not computed)",
    }

    report = BoundReport()
    for name, e in base.entries.items():
        lower = e.lower if cert.space_is_tro else 0.0
        report.set(name, lower, e.upper + defect, provenance.get(name, window))
    report.check()
    return report


# ---------------------------------------------------------------------------
# gradient ascent over input densities, all restarts as one batch


class AscentResult(NamedTuple):
    value: float
    rho: np.ndarray


def _stop(ceiling: float) -> float:
    """Where a search below the proven upper bound ``ceiling`` stops, above the rounding at small edges; nan raises."""
    if math.isnan(ceiling):
        raise OutOfRange("ceiling must be a proven upper bound, got nan")
    return ceiling - CEILING_RTOL * max(abs(ceiling), 1.0) if math.isfinite(ceiling) else ceiling


def _entropy_and_log2(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy -sum w+ log2 max(w, 1e-18) and log2 max(., 1e-18) of each matrix
    of a hermitian stack, from one batched decomposition.  No support cut: the
    value is the objective whose gradient the ascent follows (a cut raises it
    near the rank-deficient states the ascent climbs toward)."""
    w, v = mc.herm_eig(stack)
    log = np.log2(np.clip(w, 1e-18, None))
    return -np.sum(np.clip(w, 0.0, None) * log, axis=-1), (v * log[..., None, :]) @ mc.dagger(v)


def _complement_term(ch: Channel, rho: np.ndarray):
    """-H(N^E(rho)) and its gradient N^E*(log N^E(rho)) at a density, or at each of a stack (R, d, d)."""
    h_env, log_env = _entropy_and_log2(chn.complement_apply(ch, rho))
    return -h_env, chn.complement_adjoint_apply(ch, log_env)


def _value_and_grad(ch: Channel, rho: np.ndarray):
    """F and its hermitian Euclidean gradient M at each density of a stack (R, d, d):
    F = H(N(rho)) - H(N^E(rho)) and M = N^E*(log N^E(rho)) - N*(log N(rho))."""
    f_env, grad_env = _complement_term(ch, rho)
    h_out, log_out = _entropy_and_log2(chn.apply(ch, rho))
    return h_out + f_env, mc.hermitize(grad_env - chn.adjoint_apply(ch, log_out))


def _densities(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gg = g @ mc.dagger(g)
    t = np.trace(gg, axis1=1, axis2=2).real
    return t, gg / t[:, None, None]


def _ascent(ch: Channel, g0: np.ndarray, ceiling: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Maximize F(rho) over densities rho = G G*/tr(G G*) from each start of
    a stack G0 (R, d, d); returns the end values (R,) and densities, each
    restart's best, since F rises at every accepted step.

    The chain rule through G gives the ascent direction
    D = (M - tr(M rho) I) G / tr(G G*): dF = 2 Re tr(D* dG), so F's slope
    along D is 2 |D|_F^2.  Every restart keeps its own step size eta: a trial
    that raises F by more than ASCENT_MARGIN is accepted, and the next eta is
    the short Barzilai-Borwein step -Re<s, y> / |y|_F^2 from the step s = eta D
    and the change y of D (where that is not positive, eta grows by 1.3, at
    most 10); a rejected trial halves it.  A restart stops at a vanishing
    direction, after ASCENT_MAX_STEPS accepted steps, or once a halving
    leaves eta <= 1e-13 or not 2 eta |D|_F^2 > ASCENT_MARGIN (a nan slope
    stops it); the others go on, one batched evaluation per round.  The last
    stop is exact: with phi(s) = F(G + s D) - F(G), phi(eta) <= eta phi'(0)
    <= ASCENT_MARGIN if phi is concave on [0, eta], and phi(eta) <=
    phi(2 eta) / 2 <= ASCENT_MARGIN / 2 if convex on [0, 2 eta] (the trial at
    2 eta was rejected), so this trial and every later halving would fail too.
    ``ceiling`` must be a proven upper bound on max F: before every round,
    the first included, all restarts stop once the best value reaches
    _stop(ceiling) (less than the last digit of a 12-digit print), since no
    restart can beat it.
    """
    stop = _stop(ceiling)
    g = g0.astype(complex)
    t, rho = _densities(g)
    f, m = _value_and_grad(ch, rho)
    r, d = g.shape[:2]
    eta = np.full(r, 0.25)
    steps = np.zeros(r, dtype=int)
    direction, slope = np.empty_like(g), np.empty(r)

    def renew_direction(idx: np.ndarray) -> np.ndarray:
        """Directions and slopes at the restarts ``idx``; returns those still moving."""
        c = np.trace(m[idx] @ rho[idx], axis1=1, axis2=2).real
        direction[idx] = ((m[idx] - c[:, None, None] * np.eye(d)) @ g[idx]) / t[idx, None, None]
        norm = np.linalg.norm(direction[idx], axis=(1, 2))
        slope[idx] = 2 * norm**2
        return idx[~(norm < 1e-12)]

    active = renew_direction(np.arange(r))
    while active.size and not f.max() >= stop:
        g_new = g[active] + eta[active, None, None] * direction[active]
        t_new, rho_new = _densities(g_new)
        f_new, m_new = _value_and_grad(ch, rho_new)
        up = f_new > f[active] + ASCENT_MARGIN
        acc, rej = active[up], active[~up]
        g[acc], t[acc], rho[acc] = g_new[up], t_new[up], rho_new[up]
        f[acc], m[acc] = f_new[up], m_new[up]
        steps[acc] += 1
        eta[rej] *= 0.5
        acc = acc[steps[acc] < ASCENT_MAX_STEPS]
        old = direction[acc]
        moving = renew_direction(acc)
        y = direction[acc] - old
        sy, yy = -np.einsum("rij,rij->r", old.conj(), y).real, np.einsum("rij,rij->r", y.conj(), y).real
        bb = (sy > 0) & (yy > 0)
        eta[acc] = np.where(bb, eta[acc] * sy / np.where(bb, yy, 1.0), np.minimum(eta[acc] * 1.3, 10.0))
        active = np.concatenate([moving, rej[(eta[rej] > 1e-13) & (eta[rej] * slope[rej] > ASCENT_MARGIN)]])
    return f, rho


def _init_pool(
    ch: Channel, restarts: int, seed: int, init_states: Optional[Sequence[np.ndarray]], start=None
) -> Iterator[np.ndarray]:
    """Square roots of the restart densities (at least one; init states are d_in x d_in, checked at once): structured
    inits first, then ``start`` (the maximally mixed state where None), then seeded random fills, drawn when read."""
    d, restarts = ch.dim_in, mc._count(restarts, "restarts")
    head: list[np.ndarray] = []
    for s in map(mc.asmatrix, list(init_states or [])[:restarts]):
        if s.shape != (d, d):
            raise DimMismatch(f"init state is {s.shape[0]} x {s.shape[1]}, expected {d} x {d}")
        head.append(mc.matrix_power(s, 0.5))
    if len(head) < restarts:
        head.append(np.eye(d, dtype=complex) / math.sqrt(d) if start is None else start)
    fills = (mc.random_complex(np.random.default_rng((seed, k)), (d, d)) for k in range(len(head), restarts))
    return chain(head, fills)


def _concave_max(term, d: int) -> tuple[float, float, np.ndarray]:
    """Certified max of a concave F = H(rho) + term(rho) over d x d densities: (F(rho), F(rho) + gap, rho).

    ``term`` maps a density to its value and gradient T; F's gradient is M = T - log2 rho, and by concavity no density
    beats F(rho) + gap, gap = lambda_max(M) - tr(M rho) (Frank-Wolfe).  The mirror step rho <- exp2(log2 rho + s M)/tr
    from I/d (s = 1: Blahut-Arimoto, exp2(T)/tr; Ramakrishnan, Iten, Scholz & Berta 2021) is taken unless F falls by
    over ASCENT_MARGIN (rounding), else s halves, until gap <= 1e-10 or after ASCENT_MAX_STEPS trials."""

    def at(rho):
        (h, log), (g, t) = _entropy_and_log2(rho), term(rho)
        m = mc.hermitize(t - log)
        return float(h + g), log, m, max(float(np.linalg.eigvalsh(m)[-1] - np.trace(m @ rho).real), 0.0)

    rho, step = np.eye(d, dtype=complex) / d, 1.0
    f, log, m, gap = at(rho)
    for _ in range(ASCENT_MAX_STEPS):
        if gap <= 1e-10:
            break
        w, v = mc.herm_eig(log + step * m)
        e = np.exp2(w - w.max())
        new = mc.hermitize((v * (e / e.sum())) @ mc.dagger(v))
        if (trial := at(new))[0] >= f - ASCENT_MARGIN:  # F is flat to rounding while the gap still shrinks
            rho, (f, log, m, gap) = new, trial
        else:
            step *= 0.5
    return f, f + gap, rho


def _own_symbol(ch: Channel, space: StinespringSpace, seed: int) -> Symbol:
    """The channel's symbol, else the identity certified with ``seed`` on its Stinespring ``space``."""
    return ch.symbol or alg._certify(space, np.eye(space.dim_env, dtype=complex), seed)


def _edge_and_start(ch: Channel, seed: int, p: Optional[float] = 1.0) -> tuple:
    """(edge, extremal start, (space, f)) from one certificate: f of :func:`_own_symbol` on the Stinespring space.  The
    edge is log2 max n_i + p' log2 |f|_{p,tau} over its blocks n_i (at p = 1 its limit, the Q1 edge log2 max n_i +
    tau(f log2 f); width nan for a ``p`` of None), inf without structure (RankDeficient; the pair is then None).  The
    extremal start, None off a TRO span, is the root G/sqrt(tr G) of the maximally mixed input on the blocks of largest
    n_i, G_kj = <h_k, Q h_j> over representatives h_k, Q the projector on those blocks' columns of U (I/sqrt(d) where
    all n_i agree); on M_{n,m} its coherent information is log2(n/m).  The pair is :func:`_attaining_start`'s input."""
    try:
        f = _own_symbol(ch, space := ch.base_space or chn.stinespring_space(ch), seed)
    except RankDeficient:
        return math.inf, None, None
    cert, ns, d = f.certificate, np.array(_block_ns(f.certificate.blocks)), ch.dim_in
    edge = math.log2(ns.max()) + (math.nan if p is None else entropy_defect(f) if p == 1.0
                                  else mc.conjugate_exponent(p) * math.log2(mc.normalized_p_norm(f.f, p)))
    if not cert.space_is_tro or ns.min() == ns.max():
        return edge, np.eye(d, dtype=complex) / math.sqrt(d) if cert.space_is_tro else None, (space, f)
    top = np.repeat(ns == ns.max(), [n * l for n, _, l in cert.blocks])  # the largest blocks' columns of U
    z = (mc.dagger(cert.decomposition.basis_change_out[:, np.flatnonzero(top)]) @ space.stacked()).reshape(d, -1)
    return edge, (g := z.conj() @ z.T) / math.sqrt(np.trace(g).real), (space, f)


def _attaining_start(space: StinespringSpace, f: Symbol, stop: Optional[float] = None) -> Optional[np.ndarray]:
    """The root conj(z)/|z|, zero padded to d x d, z_k = U_T* h_k W_T u, U_T, W_T the columns in U, W of the blocks T of
    largest n with l = 1 (None without them, or off a TRO span): its Q1 is log2 n + H(diag s) - H(s), s = C* f_T C, C
    the pieces of u as columns, f_T = W_T* f W_T.  One _density_search from f_T's top eigenvector takes the unit u to
    ``stop`` (by default the Q1 edge's); its gradient is -G u, G[a, c] = Gamma[seg c, seg a] f_T[a, c], Gamma = log2 s
    - diag(log2 diag s)."""
    (ns, ms, ls), dec = np.array(f.certificate.blocks).T, f.certificate.decomposition
    if not ((top := (ns == ns.max()) & (ls == 1)).any() and f.certificate.space_is_tro):
        return None
    u_t, w_t = (basis[:, np.flatnonzero(np.repeat(top, k * ls))]  # unused rows and columns follow the blocks'
                for basis, k in ((dec.basis_change_out, ns), (dec.basis_change_env, ms)))
    f_t, log_n, seg = mc.dagger(w_t) @ f.f @ w_t, math.log2(ns.max()), np.repeat(np.arange(top.sum()), ms[top])

    def fun(units: tuple) -> tuple[float, tuple]:
        s = mc.dagger(c := (seg[:, None] == np.arange(top.sum())) * units[0]) @ f_t @ c
        h, log = _entropy_and_log2(np.stack([s, np.diag(s.diagonal())]))
        return float(h[0] - h[1]), (-((log[0] - log[1])[seg][:, seg].T * f_t) @ units[0],)

    stop = _stop(log_n + entropy_defect(f)) if stop is None else stop
    u = _density_search(fun, (np.linalg.eigh(f_t)[1][:, -1:],), 200, log_n - stop)[1][0]
    z = (mc.dagger(u_t) @ space.stacked() @ (w_t @ u))[..., 0]
    return np.pad(z.conj(), ((0, 0), (0, space.dim - z.shape[1]))) / np.linalg.norm(z)


def one_shot_q(
    ch: Channel,
    restarts: int = 32,
    seed: int = 0,
    init_states: Optional[Sequence[np.ndarray]] = None,
    max_workers: int = 1,
    ceiling: Optional[float] = None,
) -> AscentResult:
    """Best found coherent information max_rho H(N(rho)) - H(N^E(rho)).

    A certified lower bound on the one-shot quantum capacity; global optimality is not guaranteed.  Deterministic for
    a given seed.  A ``ceiling``, a proven upper bound on Q1 (by default the Q1 edge), stops the search at its _stop:
    below a finite one, ``init_states`` and the extremal start of _edge_and_start, then the attaining start, are
    evaluated once; else the pool ascends as one batch (_ascent), the attaining start in place of its last random fill
    (with ``math.inf``, the pool alone).  ``max_workers`` has no effect.
    """
    edge, start, sym = _edge_and_start(ch, seed, 1.0 if ceiling is None else None)
    stop = _stop(ceiling := edge if ceiling is None else ceiling)
    pool = _init_pool(ch, restarts, seed, init_states, start)
    head, f = list(islice(pool, len(init_states or []) + 1)), np.array([-math.inf])
    if stop < math.inf:  # one evaluation of the head, then one of the attaining start; no random fill is drawn
        f = _value_and_grad(ch, rho := _densities(np.stack(head))[1])[0]
        if f.max() < stop and sym and (a := _attaining_start(*sym, stop)) is not None:
            head.append(a)
            f = _value_and_grad(ch, rho := _densities(a[None])[1])[0]
    if f.max() < stop:
        f, rho = _ascent(ch, np.stack([*head, *pool][: max(restarts, len(head))]), ceiling)
    best = int(np.argmax(f))  # the first maximum
    return AscentResult(float(f[best]), rho[best])


def negative_cb_entropy(
    ch: Channel,
    mode: str = "formula",
    restarts: int = 32,
    seed: int = 0,
    max_workers: int = 1,
) -> float:
    """Negative cb-entropy sup_rho H(A) - H(AB) over purified inputs.

    ``formula`` mode uses the closed form log2(|in|/|env|) + tau(f log f), which requires channel metadata (a
    validated symbol over a reference space) and a complement that is unital up to the scalar |in|/|env|.
    ``numeric`` mode checks that form: one run of :func:`_concave_max` on the concave H(rho) - H(N^E(rho))
    (Garcia-Patron, Pirandola, Lloyd & Shapiro 2009) returns the lower end of an interval certified to hold the
    maximum, to within its Frank-Wolfe gap.  ``restarts`` (an integer >= 1), ``seed`` and ``max_workers`` are unused.
    """
    if mode == "numeric":
        mc._count(restarts, "restarts")
        return _concave_max(partial(_complement_term, ch), ch.dim_in)[0]
    if mode != "formula":
        raise OutOfRange(f"mode must be 'formula' or 'numeric', got {mode!r}")
    if ch.symbol is None or ch.base_space is None:
        raise InvalidSymbol("formula mode needs symbol/base-space metadata on the channel")
    space = ch.base_space
    unit_env = sum(mc.dagger(h) @ h for h in space.basis)
    target = (space.dim / space.dim_env) * np.eye(space.dim_env)
    if float(np.max(np.abs(unit_env - target))) > 1e-9:
        raise HypothesisFailed("complement of the reference channel is not proportionally unital")
    return math.log2(ch.dim_in / ch.dim_env) + entropy_defect(ch.symbol)


def fidelity_bound(m: int, q1p: float, p: float) -> float:
    """Upper bound m^(-1/p') 2^(q1p/p') on quantum-code fidelity at size m.

    ``q1p`` must be an upper bound on the channel's Renyi coherent information at the same exponent p (Tomamichel,
    Wilde & Winter 2017); the values of :func:`renyi_coherent_channel` are lower bounds and do not qualify.
    """
    if not (p > 1.0):
        raise BadExponent(f"fidelity bound needs p > 1, got {p}")
    p_conj = mc.conjugate_exponent(p)
    return float(mc._count(m, "code size") ** (-1.0 / p_conj) * 2.0 ** (q1p / p_conj))


def renyi_coherent_channel(
    ch: Channel,
    p: float,
    restarts: int = 4,
    seed: int = 0,
    init_states: Optional[Sequence[np.ndarray]] = None,
) -> float:
    """Best found Renyi coherent information over purified channel inputs: a lower
    bound on the one-shot Renyi quantum value at exponent p (finite, > 1).

    By the duality in :mod:`trocap.entropy`, inf_sigma D_p(omega_AB || 1 (x) sigma) = sup_tau -D_beta(omega_AE || 1 (x)
    tau) for 1/p + 1/beta = 2 and omega_AE = (id (x) N^c)(psi psi*), so each restart is one L-BFGS search
    (entropy._density_search) over pairs (psi, tau) of unit vectors, with no inner minimization and the exact
    gradient from a factor of omega_AE (entropy._dual_value_and_grads); each value, -D_beta at a feasible pair, is a
    lower bound up to rounding.  One evaluation comes first at the extremal start s, then at the attaining one (both of
    :func:`_edge_and_start`): psi = vec s^T and tau ~ tau_E^p, tau_E = tr_A[U U*] (the optimum where omega_AE is pure).
    The restarts start from :func:`one_shot_q`'s pool, psi = vec g^T / |g| (input marginal g g*), nudged by a seeded
    relative step of 1e-3, with tau at tau_E; fewer than one raises OutOfRange.  No start value counts apart.

    No value exceeds the Renyi edge log2 max_i n_i + p' log2 |f|_{p,tau} (_edge_and_start; blocks n_i, symbol f).  Per
    input, I_cp(omega_f) <= I_cp(omega) + p' log2 |f|_{p,tau}, the paper's Renyi comparison (verify_entropic's
    I_cp_upper@p); and -H_p(A|B) <= log2 max_i n_i on the TRO channel's block-diagonal output, whose inputs a dilation
    range strictly inside the TRO only restricts.  So nothing runs after a value at or above _stop(edge) (a floor on
    D_beta; one_shot_q's rule at the Q1 edge, this edge's p -> 1 limit).
    """
    if not (np.isfinite(p) and p > 1.0):
        raise BadExponent(f"optimizer needs finite p > 1, got {p}")
    d, beta, (edge, start, sym) = ch.dim_in, p / (2.0 * p - 1.0), _edge_and_start(ch, seed, p)
    stop, best = _stop(edge), -math.inf
    fun, pool = partial(_dual_value_and_grads, ch.kraus, beta), _init_pool(ch, restarts, seed, init_states, start)
    for s in (lambda: start, lambda: sym and _attaining_start(*sym)):  # each start built only while still below
        if best < stop and (s := s()) is not None:
            u = mc.matrix_power(chn.complement_apply(ch, s @ mc.dagger(s)).T, p / 2)
            best = max(best, -fun((s.T.reshape(-1, 1), u / math.sqrt(np.vdot(u, u).real)))[0])
    for k, g0 in enumerate(pool):
        if best >= stop:
            break
        g = g0.T * math.sqrt(d)
        # A seeded nudge of 1e-3 takes a symmetric start (the maximally entangled input is real and
        # diagonal) off the subspace the exact gradient keeps it in, where the search can end on a saddle.
        nudge = np.random.default_rng((seed, k, 1)).standard_normal((2, *g.shape))
        g = g + 1e-3 * np.linalg.norm(g) / math.sqrt(2 * g.size) * (nudge[0] + 1j * nudge[1])
        pair = (g.reshape(-1, 1), mc.matrix_power(chn.complement_apply(ch, g.T @ g.conj()).T, 0.5))
        best = max(best, -_density_search(fun, pair, 200, -stop)[0])
    return best


# ---------------------------------------------------------------------------
# capacity-region vertex families


class RegionVertex(NamedTuple):
    distribution: np.ndarray
    constraints: dict[str, float]


def _tilted_vertex(blocks: Sequence, lam, mu, offset: float):
    """p ~ n^((offset + lam + mu)/(1 + mu)) over the block sizes n, its Shannon entropy
    (every p > 0: a support cut would drop terms at large lam) and its mean log2 n, at
    each point of broadcast lam and mu (scalars or arrays; p on the last axis)."""
    if not (np.all(lam >= 0) and np.all((0 <= mu) & (mu < math.inf))):  # NaN fails; mu = inf: inf/inf
        raise OutOfRange(f"lam must be nonnegative and mu finite and nonnegative, got {lam}, {mu}")
    ns = np.array(_block_ns(blocks), dtype=float)
    beta = np.asarray((offset + lam + mu) / (1.0 + mu))[..., None]
    weights = (ns / ns.max()) ** beta  # relative sizes: n ** beta overflows at large lam
    p = weights / weights.sum(axis=-1, keepdims=True)
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return p, -np.sum(p * log_p, axis=-1), np.sum(p * np.log2(ns), axis=-1)


def cqe_region_vertices(blocks: Sequence, lam: float, mu: float) -> RegionVertex:
    """Supporting constraints of the classical/quantum/entanglement region.

    The tilt exponent (2 + lam + mu)/(1 + mu) weights blocks by size; the
    right-hand sides bound C+2Q, Q+E, and C+Q+E at that vertex.  Arrays lam
    and mu broadcast, and each right-hand side then takes their shape.
    """
    p, h, tbar = _tilted_vertex(blocks, lam, mu, 2.0)
    return RegionVertex(p, {"C+2Q": h + 2 * tbar, "Q+E": tbar, "C+Q+E": h + tbar})


def rps_region_vertices(blocks: Sequence, lam: float, mu: float) -> RegionVertex:
    """Supporting constraints of the public/private/secret-key region.

    Tilt exponent (1 + lam + mu)/(1 + mu); right-hand sides bound R+P, P+S,
    and R+P+S.  Arrays lam and mu broadcast as in ``cqe_region_vertices``.
    """
    q, h, tbar = _tilted_vertex(blocks, lam, mu, 1.0)
    return RegionVertex(q, {"R+P": h + tbar, "P+S": tbar, "R+P+S": h + tbar})
