"""Matrix helpers that only the tests use."""

import importlib.util
import math
import os
from functools import partial
from typing import NamedTuple

import numpy as np

import trocap
from trocap import algebra as alg
from trocap import capacity as cap
from trocap import channel as chn
from trocap import entropy as ent
from trocap import matcore as mc


def load_tool(name: str):
    """The module tools/<name>.py of this checkout, loaded from its file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(name, os.path.join(root, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCALING = load_tool("scaling")


def is_hermitian(a: np.ndarray, tol: float = mc.HERMITIAN_TOL) -> bool:
    """True when max |A - A*| <= tol * (1 + max |A|), the rule of mc.herm_eig."""
    a = mc.asmatrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(mc._asymmetry(a, tol)[1])


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(A* B)."""
    return complex(np.sum(a.conj() * b))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    q, r = np.linalg.qr(mc.random_complex(rng, (dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = mc.random_complex(rng, dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def block_tro(rng, shapes, pad=(0, 0)):
    """Basis of (+)_i M_{n_i, m_i} (x) 1_{l_i} (shapes (n, m), where l = 1,
    or (n, m, l)) with pad = (rows, columns) of zeros appended, disguised by
    random unitaries (U, W), or block diagonal when rng is None."""
    shapes = [(tuple(s) + (1,))[:3] for s in shapes]
    rows = sum(n * l for n, _, l in shapes) + pad[0]
    cols = sum(m * l for _, m, l in shapes) + pad[1]
    if rng is None:  # not disguised
        u, w = np.eye(rows), np.eye(cols)
    else:
        u, w = random_unitary(rng, rows), random_unitary(rng, cols)
    mats, ro, co = [], 0, 0
    for n, m, l in shapes:
        for i in range(n):
            for j in range(m):
                x = np.zeros((rows, cols), dtype=complex)
                x[ro : ro + n * l, co : co + m * l] = np.kron(np.outer(np.eye(n)[i], np.eye(m)[j]), np.eye(l))
                mats.append(u @ x @ mc.dagger(w))
        ro += n * l
        co += m * l
    return mats


def mix(rng, mats, count=None):
    """`count` random combinations of mats with random scales (all of them
    when count is None: a rescaled basis of the same span)."""
    count = len(mats) if count is None else count
    coeffs = mc.random_complex(rng, (count, len(mats))) * 10.0 ** rng.uniform(-3, 3, (count, 1))
    return [sum(c * m for c, m in zip(row, mats)) for row in coeffs]


def tro_subspace(seed, shapes, pad, delta, mixed=False):
    """A TRO t = block_tro(default_rng(seed), shapes, pad) of dimension d and
    d - 1 elements t_i + delta c_i t_(d-1), c = mc.random_complex(rng, d),
    spanning a subspace whose closure is t; with mixed, the elements of
    mix(default_rng(70 + seed), .), a rescaled basis of the same span."""
    rng = np.random.default_rng(seed)
    t = block_tro(rng, shapes, pad)
    c = mc.random_complex(rng, len(t))
    mats = [t[i] + delta * c[i] * t[-1] for i in range(len(t) - 1)]
    return t, mix(np.random.default_rng(70 + seed), mats) if mixed else mats


def star_algebra_loop(generators) -> alg.AlgebraBasis:
    """The *-algebra of the generators by span <- span + span span from
    span(G + G*) until the rank stabilizes: the reference for
    alg.generate_star_algebra, unital when the identity lies within 1e-8 sqrt(dim)
    of the span."""
    gens = [mc.asmatrix(g) for g in generators]
    dim = gens[0].shape[0]
    basis = alg.orthonormal_span(gens + [mc.dagger(g) for g in gens])
    while True:
        new_basis = alg.orthonormal_span(basis + [a @ b for a in basis for b in basis])
        if len(new_basis) == len(basis):
            unital = alg.span_residual(np.eye(dim, dtype=complex), new_basis) <= 1e-8 * np.sqrt(dim)
            return alg.AlgebraBasis(dim, tuple(new_basis), unital)
        basis = new_basis


def commutant_nullspace_blocks(rep, seed: int = 0) -> list[tuple[int, int]]:
    """(multiplicity, irrep dimension) of the commutant u(G)', sorted: the
    blocks of the nullspace of the stacked commutators u (x) 1 - 1 (x) u^T, an
    SVD |G| m^2 rows tall and m^2 wide.  The reference for
    builders.commutant_blocks."""
    m = rep.dim
    rows = [np.kron(u, np.eye(m)) - np.kron(np.eye(m), u.T) for u in rep.unitaries]
    # one singular value per right singular vector, so the rows of vh past
    # the rank are an orthonormal basis of the nullspace
    _, s, vh = np.linalg.svd(np.concatenate(rows, axis=0), full_matrices=False)
    return sorted(alg.algebra_blocks(vh[~mc._rank_mask(s)].conj().reshape(-1, m, m), seed))


def character_blocks(rep, seed: int = 0) -> list[tuple[int, int]]:
    """(multiplicity, irrep dimension) of each isotypic component of rep,
    sorted, from characters alone: the reference for the blocks of span u(G)
    with no closure and no block attempt.  C = sum_g u(g) Y u(g)*, Y a seeded
    hermitian element of span u(G), lies in its center, so C's eigenspaces
    (split at gaps above 1e-8 max |eigenvalue|) are the components.  A component
    with projector P of rank r carries tr(u(g) P) = m chi(g) for its irrep's
    (projective) character chi, so m = sqrt(sum_g |tr(u(g) P)|^2 / |G|) by the
    orthogonality of characters, and the irrep dimension is r / m.  Both must
    be integers: two merged components would read m^2 = m_1^2 + m_2^2."""
    u = np.stack(rep.unitaries)
    x = np.tensordot(mc.random_complex(np.random.default_rng(seed), len(u)), u, axes=1)
    w, q = np.linalg.eigh(mc.hermitize(np.sum(u @ (x + mc.dagger(x)) @ mc.dagger(u), axis=0)))
    cuts = np.flatnonzero(np.diff(w) > 1e-8 * np.max(np.abs(w))) + 1
    blocks = []
    for cols in np.split(np.arange(len(w)), cuts):
        p = q[:, cols] @ mc.dagger(q[:, cols])
        m = math.sqrt(np.sum(np.abs(np.trace(u @ p, axis1=1, axis2=2)) ** 2) / len(u))
        assert abs(m - round(m)) <= 1e-6 and len(cols) % round(m) == 0, (m, len(cols))
        blocks.append((round(m), len(cols) // round(m)))
    return sorted(blocks)


def certified_cea(ch):
    """Entanglement-assisted capacity C_EA = max_rho H(rho) + H(N(rho)) - H(N^E(rho)) (Bennett, Shor, Smolin &
    Thapliyal), single-letter and concave in rho: the certified (lower, upper, rho) of capacity._concave_max with the
    coherent information H(N(rho)) - H(N^E(rho)) as its term.  An independent check of comparison_bounds' C_EA
    window."""
    return cap._concave_max(partial(cap._value_and_grad, ch), ch.dim_in)


def ancilla_output(ch, rho: np.ndarray) -> np.ndarray:
    """(id_A (x) N)(rho) for one state rho on H_A (x) H_in, A of N's input dimension, by the verify suites' kernel."""
    from trocap.verify import _apply_product

    return _apply_product(chn.identity_channel(ch.dim_in), ch, rho[None])[0]


def random_channel(rng, dim_in, dim_out, dim_env):
    """Haar-random isometry V: C^in -> C^out (x) C^env sliced into Kraus ops."""
    u = random_unitary(rng, dim_out * dim_env)
    iso = u[:, :dim_in]
    kraus = iso.reshape(dim_out, dim_env, dim_in).transpose(1, 0, 2)
    return chn.Channel(kraus)


class ModifiedTro(NamedTuple):
    channel: chn.Channel
    blocks: list[tuple[int, int, int]]
    spectrum: np.ndarray  # f's eigenvalues, with mean 1 (its normalized trace)

    def edge(self, p: float = 1.0) -> float:
        """The Q1 edge (p = 1) or the Renyi edge at p > 1: log2 max n plus tau(f log2 f) or p' log2 |f|_{p,tau},
        both read off f's spectrum."""
        w, log_n = self.spectrum, math.log2(max(n for n, _, _ in self.blocks))
        if p == 1.0:
            return log_n + sum(x * math.log2(x) for x in w if x > 0) / len(w)
        return log_n + p / (p - 1) * math.log2(np.mean(w**p) ** (1 / p))


def rotated_modified(base: chn.Channel, f: np.ndarray, rng) -> chn.Channel:
    """The base channel modified by the environment density f after Haar rotations from rng of its input, output and
    environment (tools/scaling.rotated_modified)."""
    dims = (base.dim_in, base.dim_out, base.dim_env)
    return SCALING.rotated_modified(trocap, base, f, *(random_unitary(rng, n) for n in dims))


def block_tro_channel(shapes) -> chn.Channel:
    """The channel whose dilation range is (+)_i M_{n_i,m_i} (x) 1_{l_i} in coordinates, shapes (n, m, l): the
    representative of input k is the k-th matrix of block_tro(None, shapes) over sqrt(l), so that they are orthonormal
    (at l = 1, partial_trace_sum_channel)."""
    mats = np.array(block_tro(None, shapes))
    scale = np.repeat([math.sqrt(l) for _, _, l in shapes], [n * m for n, m, _ in shapes])
    return chn.Channel((mats / scale[:, None, None]).transpose(2, 1, 0))


SYMBOL_FORMS = ("swap", "multiplicity", "identity")


def random_modified_tro(rng, shapes=None, form: str = "swap") -> ModifiedTro:
    """A modified TRO channel N_f drawn from rng, with its blocks (n, m, l) and f's spectrum, in one of three forms:
      - swap: blocks ``shapes`` (pairs (n, m), l = 1), else 2-3 drawn with n, m in {1, 2} until their environment
        columns pair across blocks (an even count, no block over half).  f = 1 + a D S D*, a uniform in [-0.9, 0.9], S
        the swap of column k with k + M/2 of the M block-ordered columns (always in another block, so every spectral
        projection (1 +- D S D*)/2 compresses to 1/2 on each block), D a block-diagonal Haar unitary;
      - multiplicity: 1-3 blocks drawn with n, m in {1, 2} and l = 2 for all, and f = 1_M (x) g on the environment
        C^M (x) C^2, g = 2 times a random density: each spectral projection 1_M (x) P compresses to tau(P) 1;
      - identity: 1-3 blocks drawn with n, m, l in {1, 2}, and f = 1.
    The base (block_tro_channel) and f are then rotated (rotated_modified)."""
    if form == "swap":
        while shapes is None:
            shapes = [tuple(int(x) for x in rng.integers(1, 3, 2)) for _ in range(int(rng.integers(2, 4)))]
            ms = [m for _, m in shapes]
            shapes = shapes if sum(ms) % 2 == 0 and 2 * max(ms) <= sum(ms) else None
        ms = [m for _, m in shapes]
        half = sum(ms) // 2
        d_mix = np.zeros((2 * half, 2 * half), dtype=complex)
        for k, m in zip(np.cumsum([0] + ms), ms):
            d_mix[k : k + m, k : k + m] = random_unitary(rng, m)
        a = float(rng.uniform(-0.9, 0.9))
        f = np.eye(2 * half) + a * d_mix @ np.roll(np.eye(2 * half), half, axis=0) @ mc.dagger(d_mix)
        blocks, spectrum = [(n, m, 1) for n, m in shapes], np.array([1 + a, 1 - a])
    else:
        sizes = rng.integers(1, 3, (int(rng.integers(1, 4)), 3))
        blocks = [(int(n), int(m), 2 if form == "multiplicity" else int(l)) for n, m, l in sizes]
        dim_env = sum(m * l for _, m, l in blocks)
        if form == "multiplicity":
            g = 2 * mc.random_density(rng, 2)
            f, spectrum = np.kron(np.eye(dim_env // 2), g), np.linalg.eigvalsh(g)
        else:
            f, spectrum = np.eye(dim_env, dtype=complex), np.ones(1)
    return ModifiedTro(rotated_modified(block_tro_channel(blocks), f, rng), blocks, spectrum)


def _loop_value(rho, da, k_pow, sigma, p, p_conj):
    """D_p(rho || K (x) sigma), with the leak penalty, one state at a time."""
    w, v = np.linalg.eigh(mc.hermitize(sigma))
    mask = w > mc.SUPPORT_CUTOFF * max(float(np.max(w)), 0.0)
    if not mask.all():
        proj = (v * (~mask).astype(float)) @ v.conj().T
        leak = float(np.trace(np.kron(np.eye(da), proj) @ rho).real)
        if leak > 1e-12:
            return 1e3 + 1e6 * leak
    s_pow = (v * np.where(mask, w ** (-1.0 / (2.0 * p_conj)), 0.0)) @ v.conj().T
    a = np.kron(k_pow, s_pow)
    w = np.clip(np.linalg.eigvalsh(mc.hermitize(a @ rho @ a)), 0.0, None)
    return float(p_conj * np.log2(np.sum(w**p) ** (1.0 / p)))


def _loop_grad(rho, da, k_pow, sigma, p, p_conj):
    """Gradient in a full-rank sigma of D_p(rho || K (x) sigma), one state at
    a time: D = log2 Q / (p - 1), Q = tr s^p, s = a rho a with a = K' (x)
    sigma^c, c = -1/2p', and dQ = p tr(ds Y), Y = tr_A[(K' (x) 1) Z],
    Z = rho a s^(p-1) + h.c.; ds = V (Gamma o V* d.sigma V) V* (Daleckii-Krein),
    Gamma the divided differences of w^c, its derivative on near-ties."""
    c, rb = -1.0 / (2.0 * p_conj), len(sigma)
    w, v = np.linalg.eigh(mc.hermitize(sigma))
    a = np.kron(k_pow, (v * w**c) @ v.conj().T)
    ws, vs = np.linalg.eigh(mc.hermitize(a @ rho @ a))
    ws = np.clip(ws, 0.0, None)
    z = rho @ a @ (vs * ws ** (p - 1)) @ vs.conj().T
    y = mc.partial_trace(np.kron(k_pow, np.eye(rb)) @ (z + z.conj().T), (da, rb), "B")
    den = w[:, None] - w[None, :]
    tie = np.abs(den) < 1e-6 * w[None, :]
    mid = (w[:, None] + w[None, :]) / 2
    gamma = np.where(tie, c * mid ** (c - 1), (w[:, None] ** c - w[None, :] ** c) / np.where(tie, 1.0, den))
    ds = v @ (gamma * (v.conj().T @ y @ v)) @ v.conj().T
    return p_conj * ds / (np.sum(ws**p) * math.log(2.0))


def loop_minimize(rho_ab, dims, p, k_a=None, sigma_candidates=()):
    """Sequential reference: monotone fixed point (a candidate is kept when
    its value does not rise, else the step halves; fixed after two flat
    rounds whose last decrease also passes the geometric-tail test), one
    L-BFGS-B polish from the last iterate as the fallback (exact gradient,
    _loop_grad) and candidates for one state, with two eigh of sigma, two
    np.kron and an eigvalsh per round;
    returns (value, sigma, converged, iterations), converged only when the
    fixed point met its tolerance."""
    from scipy import optimize

    da, tol, max_iter = dims[0], 1e-9, 400
    p_conj = p / (p - 1.0)
    k_a = np.eye(da, dtype=complex) if k_a is None else k_a
    k_pow = mc.matrix_power(k_a, -1.0 / (2.0 * p_conj))
    rho_b = mc.partial_trace(rho_ab, dims, "B")
    wb, vb = mc.herm_eig(rho_b)
    frame = vb[:, wb > mc.SUPPORT_CUTOFF * max(float(np.max(wb)), 0.0)]
    rb = frame.shape[1]
    embed = np.kron(np.eye(da), frame)
    rho_c = mc.dagger(embed) @ rho_ab @ embed

    def val(sigma_c):
        return _loop_value(rho_c, da, k_pow, sigma_c, p, p_conj)

    sigma = mc.dagger(frame) @ rho_b @ frame
    sigma = sigma / np.trace(sigma).real
    beta0 = 1.0 / p
    beta, best_val, best_sigma = beta0, val(sigma), sigma
    converged, iters, was_flat, last = False, max_iter, False, math.inf
    for j in range(max_iter):
        wv, vv = np.linalg.eigh(mc.hermitize(best_sigma))
        mask = wv > mc.SUPPORT_CUTOFF * max(float(np.max(wv)), 0.0)
        s_pow = (vv * np.where(mask, wv ** (-1.0 / (2.0 * p_conj)), 0.0)) @ vv.conj().T
        a = np.kron(k_pow, s_pow)
        ws, vs = np.linalg.eigh(mc.hermitize(a @ rho_c @ a))
        s_p = (vs * np.clip(ws, 0.0, None) ** p) @ vs.conj().T
        update = mc.partial_trace(mc.hermitize(s_p), (da, rb), "B")
        tr = float(np.trace(update).real)
        if not np.isfinite(tr) or tr <= 0 or beta < 1e-10:
            iters = j
            break
        cand = mc.hermitize((1.0 - beta) * best_sigma + beta * (update / tr))
        cur = val(cand)
        rise = cur - best_val
        drop, flat = max(-rise, 0.0), abs(rise) < tol * beta / beta0
        rate = drop / last if last > 0 else 0.0
        met = flat and was_flat and (rise > 0 or drop < tol * (1.0 - rate))
        was_flat, last = flat, (math.inf if rise > 0 else drop)
        if rise > 0:
            beta /= 2
        else:
            best_val, best_sigma = cur, cand
        if met:
            converged, iters = True, j + 1
            break

    def polish(start):
        m0 = mc.matrix_power(start + 1e-12 * np.eye(rb), 0.5)

        def root(x):
            return x[: rb * rb].reshape(rb, rb) + 1j * x[rb * rb :].reshape(rb, rb)

        def fun(x):
            m = root(x)
            g = m @ mc.dagger(m)
            tr = float(np.trace(g).real)
            if tr <= 0 or not np.isfinite(tr):
                return 1e9, np.zeros_like(x)
            grad = _loop_grad(rho_c, da, k_pow, g / tr, p, p_conj)
            # chain rule through sigma = m m* / tr(m m*)
            h = 2.0 * (grad - np.trace(grad @ g).real / tr * np.eye(rb)) @ m / tr
            return val(g / tr), np.concatenate([h.real.reshape(-1), h.imag.reshape(-1)])

        x0 = np.concatenate([m0.real.reshape(-1), m0.imag.reshape(-1)])
        res = optimize.minimize(
            fun, x0, method="L-BFGS-B", jac=True, options={"maxiter": 120, "ftol": 1e-13, "gtol": 1e-10}
        )
        g = root(res.x) @ mc.dagger(root(res.x))
        g = g / np.trace(g).real
        return val(g), g

    if not converged:
        pv, ps = polish(best_sigma)
        if pv < best_val - 1e-12:
            best_val, best_sigma = pv, ps
    for cand in sigma_candidates:
        sc = mc.dagger(frame) @ cand @ frame
        tr = float(np.trace(sc).real)
        if tr > 0:
            sc = mc.hermitize(sc / tr)
            cv = val(sc)
            if cv < best_val:
                best_val, best_sigma = cv, sc
    return best_val, frame @ best_sigma @ mc.dagger(frame), converged, iters


def scipy_density_search(fun, m0s, maxiter):
    """entropy._density_search with scipy's L-BFGS-B in place of the in-repo L-BFGS: the same blocks,
    chain rule and stop rules (ftol 1e-13, gtol 1e-10, ``maxiter``), real and imaginary parts packed apart;
    the reference the in-repo search must match.  Returns the end value and unit blocks."""
    from scipy import optimize

    parts = [(slice(end - m.size, end), m.shape) for end, m in zip(np.cumsum([m.size for m in m0s]).tolist(), m0s)]

    def blocks(x):
        z = x[: x.size // 2] + 1j * x[x.size // 2 :]
        return [z[cut].reshape(shape) for cut, shape in parts]

    def packed(x):
        ms = blocks(x)
        ns = [math.sqrt(np.vdot(m, m).real) for m in ms]
        if not all(n > 0 and np.isfinite(n) for n in ns):
            return 1e9, np.zeros_like(x)
        us = tuple(m / n for m, n in zip(ms, ns))
        value, gus = fun(us)
        h = np.concatenate([2.0 * (gu - np.vdot(u, gu).real * u).ravel() / n for u, n, gu in zip(us, ns, gus)])
        return value, np.concatenate([h.real, h.imag])

    z0 = np.concatenate([m.reshape(-1) for m in m0s])
    options = {"maxiter": maxiter, "ftol": 1e-13, "gtol": 1e-10}
    res = optimize.minimize(packed, np.concatenate([z0.real, z0.imag]), method="L-BFGS-B", jac=True, options=options)
    return float(res.fun), tuple(m / np.linalg.norm(m) for m in blocks(res.x))


def thin_draw(rng, dims, eps):
    """(1 - eps) rho0 + eps rho1 with rho0 supported on A (x) (all of B but its
    last basis vector) and rho1 full rank, so the B marginal has one
    eigenvalue of order eps."""
    da, db = dims
    g = rng.standard_normal((da * db,) * 2) + 1j * rng.standard_normal((da * db,) * 2)
    g = g @ g.conj().T
    g /= np.trace(g).real
    keep = np.kron(np.eye(da), np.diag([1.0] * (db - 1) + [0.0]))
    rho0 = keep @ g @ keep
    return (1 - eps) * rho0 / np.trace(rho0).real + eps * g


def third_thin_draw(eps):
    rng = np.random.default_rng(7)
    return [thin_draw(rng, (2, 3), eps) for _ in range(3)][-1]


def crawling_state():
    """At p = 4 the fixed point creeps along the thin B direction here, and
    is fixed only after 336 rounds."""
    return third_thin_draw(1e-6)


def polish_state():
    """At p = 4 the fixed point still moves after 400 rounds here, and hands
    over to the L-BFGS fallback."""
    return third_thin_draw(1e-7)


def renyi_grid():
    """The thin-state grid of the Renyi minimizer's flags, cell by cell: for dims 2x2, 2x3, 3x3 and 2x4 and eps 1e-2,
    1e-3, 1e-4, 1e-6 and 1e-8, 8 thin_draw states from default_rng(hash((dims, eps)) % 2**32), each at p 1.5, 2, 3, 4
    and 6 under K = 1 and K = rho_A; yields ((dims, eps, p, mutual), restart_gaps(...)), 1600 items in all."""
    for dims in ((2, 2), (2, 3), (3, 3), (2, 4)):
        for eps in (1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
            rng = np.random.default_rng(hash((dims, eps)) % 2**32)
            rhos = np.array([thin_draw(rng, dims, eps) for _ in range(8)])
            for p in (1.5, 2.0, 3.0, 4.0, 6.0):
                for mutual in (False, True):
                    yield (dims, eps, p, mutual), restart_gaps(rhos, dims, p, mutual)


def restart_gaps(rhos, dims, p, mutual=False):
    """(value, converged, iterations, gap) per item of one _RenyiStack minimization, K = 1 or, with
    ``mutual``, K = rho_A.  The gap is the value less a reference, the lower of the value and that of a
    tight restart (tol 1e-14, 5000 rounds) from the item's sigma: a lower bound on its true distance to
    the infimum.  An item that reports converged more than tol 1e-9 above its reference is a false flag."""
    k_as = mc.partial_trace(rhos, dims, "A") if mutual else None
    opt = ent._RenyiStack(rhos, dims, p, k_as).minimize()
    tight = ent._RenyiStack(rhos, dims, p, k_as)
    tight.rho_b = opt.sigma  # minimize starts from rho_b
    tight.minimize(tol=1e-14, max_iter=5000)
    return opt.value, opt.converged, opt.iterations, opt.value - np.minimum(opt.value, tight.value)
