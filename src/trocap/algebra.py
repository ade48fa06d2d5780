"""Numerical finite-dimensional operator algebra.

*-algebra generation, block (Wedderburn-style) decomposition, trace-
compatible conditional expectations, ternary-ring detection, left/right
algebras of an operator space, independence tests, and symbol validation.

TRO tests and closure use span(V V* V) = span(L V) with L = span{x y*},
which for a TRO is its left algebra (and span{x* y} its right algebra).

All span computations are Hilbert-Schmidt orthonormal with SVD rank
decisions at relative threshold 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import matcore as mc
from .channel import Channel, StinespringSpace, Symbol, SymbolCertificate, stinespring_space
from .errors import DimMismatch, NotIndependent, NotNormalized, NotTro

RANK_RTOL = 1e-9
GAP_THRESHOLD = 1e-6


def orthonormal_span(mats: Sequence[np.ndarray], rtol: float = RANK_RTOL) -> list[np.ndarray]:
    """Orthonormal basis (HS inner product) of the span of the given matrices."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return []
    shape = mats[0].shape
    rows = np.stack([m.reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    return list(vh[s > rtol * s[0]].reshape(-1, *shape))


def project_span(mat: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    """HS-orthogonal projection of mat onto the span of an orthonormal basis."""
    mat = np.asarray(mat, dtype=complex)
    if len(basis) == 0:
        return np.zeros_like(mat)
    flat = np.stack(basis).reshape(len(basis), -1)
    return ((flat.conj() @ mat.reshape(-1)) @ flat).reshape(mat.shape)


def span_residual(mat: np.ndarray, basis: Sequence[np.ndarray]) -> float:
    """Frobenius distance from mat to the span of an orthonormal basis."""
    return mc.frobenius(mat - project_span(mat, basis))


@dataclass(frozen=True)
class AlgebraBasis:
    """Orthonormal basis of a *-algebra inside B(C^dim)."""

    dim: int
    basis: tuple[np.ndarray, ...]
    unital: bool

    @property
    def rank(self) -> int:
        return len(self.basis)


def _make_algebra(dim: int, basis: Sequence[np.ndarray]) -> AlgebraBasis:
    eye = np.eye(dim, dtype=complex)
    unital = span_residual(eye, basis) <= 1e-8 * np.sqrt(dim)
    frozen = tuple(np.array(b) for b in basis)
    for b in frozen:
        b.setflags(write=False)
    return AlgebraBasis(dim=dim, basis=frozen, unital=unital)


def generate_star_algebra(generators: Sequence[np.ndarray]) -> AlgebraBasis:
    """Smallest adjoint- and product-closed span containing the generators.

    Iterates span <- span + span*span until the rank stabilizes.
    """
    gens = [mc.asmatrix(g) for g in generators]
    if not gens:
        raise DimMismatch("at least one generator required")
    dim = gens[0].shape[0]
    if any(g.shape != (dim, dim) for g in gens):
        raise DimMismatch("generators must be square with a common dimension")
    basis = orthonormal_span(gens + [mc.dagger(g) for g in gens])
    while True:
        products = [a @ b for a in basis for b in basis]
        new_basis = orthonormal_span(list(basis) + products)
        if len(new_basis) == len(basis):
            return _make_algebra(dim, new_basis)
        basis = new_basis


def left_algebra(space: StinespringSpace) -> AlgebraBasis:
    """C*-algebra spanned by x y* over the space basis (acts on the output)."""
    ops = [x @ mc.dagger(y) for x in space.basis for y in space.basis]
    return generate_star_algebra(ops)


def right_algebra(space: StinespringSpace) -> AlgebraBasis:
    """C*-algebra spanned by x* y over the space basis (acts on the environment)."""
    ops = [mc.dagger(x) @ y for x in space.basis for y in space.basis]
    return generate_star_algebra(ops)


class TroCheck(NamedTuple):
    """Result of a triple-product closure test."""

    ok: bool
    witness: Optional[tuple[int, int, int]]
    residual: float

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _left_span(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormal basis of span{x y*} over a stacked (k, n, m) basis, and
    delta, the norm of the singular values the rank cut dropped: every x y*
    lies within delta of the span.  For a TRO this is its left algebra."""
    k, n, _ = v.shape
    outer = (v[:, None] @ v.conj().transpose(0, 2, 1)[None]).reshape(k * k, n * n)
    _, s, vh = np.linalg.svd(outer, full_matrices=False)
    keep = s > RANK_RTOL * s[0]
    return vh[keep].reshape(-1, n, n), float(np.linalg.norm(s[~keep]))


def is_tro(mats: Sequence[np.ndarray], tol: float = 1e-8) -> TroCheck:
    """Check closure of span(mats) under the triple product x y* z.

    With l_a an orthonormal basis of L = span{x y*} (cut leaving delta, see
    _left_span) and P the projection off the span, every basis-triple
    residual |P(x y* z)| is at most max_z sqrt(sum_a |P(l_a z)|^2) + delta.
    When that bound is within tol the span is accepted and ``residual`` is
    the bound.  Otherwise every triple is scanned: on failure the witness is
    the first (i, j, k) with the largest residual and ``residual`` is that
    residual; on success it is the exact maximum.  Both passes hold
    O(k^2 n m) numbers at a time.
    """
    basis = orthonormal_span(mats)
    return _tro_check(np.stack(basis), tol)[0] if basis else TroCheck(True, None, 0.0)


def _tro_check(v: np.ndarray, tol: float) -> tuple[TroCheck, np.ndarray]:
    """is_tro on a stacked orthonormal basis, and the left span it used."""
    k = len(v)
    flat = v.reshape(k, -1)
    ell, delta = _left_span(v)
    step = max(1, k * k // len(ell))  # z per chunk: k^2 products l_a z at most
    bound = delta
    for z in range(0, k, step):
        prods = (ell[None] @ v[z : z + step, None]).reshape(-1, len(ell), flat.shape[1])
        off = prods - (prods @ flat.conj().T) @ flat
        bound = max(bound, float(np.max(np.linalg.norm(off, axis=(1, 2)))) + delta)
        if bound > tol:
            break
    if bound <= tol:
        return TroCheck(True, None, bound), ell
    worst, witness = 0.0, None
    for i in range(k):  # every x_i x_j* x_l of one i at once
        xy = v[i] @ v.conj().transpose(0, 2, 1)
        t = (xy[:, None] @ v[None]).reshape(k * k, -1)
        res = np.linalg.norm(t - (t @ flat.conj().T) @ flat, axis=1)
        jl = int(np.argmax(res))
        if res[jl] > worst:
            worst, witness = float(res[jl]), (i, *divmod(jl, k))
    return TroCheck(worst <= tol, None if worst <= tol else witness, worst), ell


def smallest_containing_tro(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Triple-product closure: the smallest TRO whose span contains the input.

    Iterates V <- span(V + L(V) V) = span(V + V V* V) until the rank is
    stable; products off the span by at most the rank threshold in all
    could not raise it, so that span is returned as it is.
    """
    return _closure(mats)[0]


def _closure(mats: Sequence[np.ndarray]) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """smallest_containing_tro, with the left span of the returned basis when
    the closure bound (<= RANK_RTOL) certified it a TRO, else None."""
    basis = orthonormal_span(mats)
    while basis:
        v = np.stack(basis)
        flat = v.reshape(len(v), -1)
        ell, delta = _left_span(v)
        prods = (ell[None] @ v[:, None]).reshape(-1, flat.shape[1])
        if np.linalg.norm(prods - (prods @ flat.conj().T) @ flat) + delta <= RANK_RTOL:
            return basis, ell
        new_basis = orthonormal_span(basis + list(prods.reshape(-1, *v.shape[1:])))
        if len(new_basis) == len(basis):
            return new_basis, None
        basis = new_basis
    return basis, None


# ---------------------------------------------------------------------------
# conditional expectations and independence


def conditional_expectation(m: AlgebraBasis, x: np.ndarray) -> np.ndarray:
    """Trace-compatible conditional expectation onto the algebra.

    Numerically the HS-orthogonal projection onto span(M), with the
    identity adjoined first when M is nonunital.
    """
    x = mc.asmatrix(x)
    if x.shape != (m.dim, m.dim):
        raise DimMismatch(f"operand shape {x.shape} does not match algebra dim {m.dim}")
    basis = list(m.basis)
    if not m.unital:
        basis = orthonormal_span(basis + [np.eye(m.dim, dtype=complex)])
    return project_span(x, basis)


def is_independent(x: np.ndarray, m: AlgebraBasis, tol: float = 1e-9) -> bool:
    """True when E_M(x) = tau(x) * identity within tolerance."""
    x = mc.asmatrix(x)
    tau = np.trace(x) / m.dim
    resid = mc.frobenius(conditional_expectation(m, x) - tau * np.eye(m.dim))
    return resid <= tol * max(1.0, mc.frobenius(x))


def spectral_projections(f: np.ndarray, rtol: float = 1e-8) -> list[tuple[float, np.ndarray]]:
    """Eigenvalue clusters of a hermitian matrix with their projections."""
    w, v = mc.herm_eig(f)
    groups = _split_at_gaps(w, rtol * max(1.0, float(np.max(np.abs(w)))))
    return [(float(np.mean(w[g])), v[:, g] @ mc.dagger(v[:, g])) for g in groups]


def strong_independence_residuals(f: np.ndarray, m: AlgebraBasis) -> list[float]:
    """Residuals of E_M(P) - tau(P)*1 over the spectral projections of f.

    Independence of every spectral projection is equivalent to independence
    of all powers of f, since those projections span the algebra f generates.
    """
    eye = np.eye(m.dim)
    return [
        mc.frobenius(conditional_expectation(m, p) - np.trace(p).real / m.dim * eye)
        for _, p in spectral_projections(f)
    ]


def is_strongly_independent(f: np.ndarray, m: AlgebraBasis, tol: float = 1e-9) -> bool:
    return max(strong_independence_residuals(f, m)) <= tol


# ---------------------------------------------------------------------------
# block structure of algebras and TROs


@dataclass(frozen=True)
class _AlgebraBlock:
    factor_dim: int  # n: size of the full matrix factor
    multiplicity: int  # l: copies of each irreducible summand
    frame: np.ndarray  # ambient-dim x (n*l), orthonormal columns


def _hermitian_spanning_set(basis: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of the hermitian part of an adjoint-closed span.

    Works over the reals so that the output matrices are genuinely
    hermitian (a complex SVD would introduce phases that break it).
    """
    b = np.stack(basis)
    bd = b.conj().transpose(0, 2, 1)
    cands = np.stack([b + bd, 1j * (b - bd)], axis=1).reshape(2 * len(b), -1)
    _, s, vh = np.linalg.svd(np.concatenate([cands.real, cands.imag], axis=1), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    half = cands.shape[1]
    out = vh[s > RANK_RTOL * s[0]]
    return list((out[:, :half] + 1j * out[:, half:]).reshape(-1, *b.shape[1:]))


def _center_basis(basis: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Orthonormal basis of the center of the algebra spanned by `basis`."""
    b = np.stack(basis)
    k = len(b)
    rows = np.zeros((k * dim * dim, k), dtype=complex)
    for j, bj in enumerate(b):  # column j stacks the commutators [b_j, b_k]
        rows[:, j] = (bj @ b - b @ bj).reshape(-1)
    # rows has at least as many rows as columns, so the reduced SVD carries
    # all k right-singular vectors
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    coeffs = vh.conj()[s <= RANK_RTOL * max(s[0], 1.0)]
    return orthonormal_span(list(np.tensordot(coeffs, b, axes=1)))


def _cluster_eigh(mat: np.ndarray, gap: float = GAP_THRESHOLD):
    """Eigendecompose and split the spectrum at gaps larger than `gap`."""
    w, v = np.linalg.eigh(mc.hermitize(mat))
    return [(w[g], v[:, g]) for g in _split_at_gaps(w, gap)]


def _split_at_gaps(w: np.ndarray, gap: float) -> list[np.ndarray]:
    """Indices of ascending eigenvalues, split where neighbours differ by more than gap."""
    return np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > gap) + 1)


def _random_hermitian_element(rng: np.random.Generator, herm_basis: Sequence[np.ndarray]) -> np.ndarray:
    coeffs = rng.standard_normal(len(herm_basis))
    return mc.hermitize(np.tensordot(coeffs, np.stack(herm_basis), axes=1))


def algebra_blocks(
    alg: AlgebraBasis, rng: np.random.Generator, max_tries: int = 12
) -> list[_AlgebraBlock]:
    """Block structure of a C*-algebra: factors M_n with multiplicity l.

    Samples a random hermitian element of the center to split the central
    summands, then a random hermitian element inside each summand to read
    off the factor size from eigenvalue degeneracies.  Degenerate spectra
    are retried with a fresh sample.
    """
    # Restrict to the support of the algebra unit (the algebra may act
    # trivially on part of the ambient space).
    t = sum(b @ mc.dagger(b) for b in alg.basis)
    w, v = mc.herm_eig(t)
    sup = w > 1e-10 * max(float(np.max(w)), 1.0)
    v_sup = v[:, sup]
    comp = orthonormal_span([mc.dagger(v_sup) @ b @ v_sup for b in alg.basis])
    r = v_sup.shape[1]

    center = _center_basis(comp, r)
    herm_center = _hermitian_spanning_set(center)
    herm_alg = _hermitian_spanning_set(comp)
    n_blocks = len(center)

    for _ in range(max_tries):
        zeta = _random_hermitian_element(rng, herm_center)
        clusters = _cluster_eigh(zeta)
        if len(clusters) != n_blocks:
            continue
        out: list[_AlgebraBlock] = []
        for _, cols in clusters:
            blk = _resolve_factor(cols, herm_alg, rng)
            if blk is None:
                break
            # embed the frame back into the ambient space
            out.append(_AlgebraBlock(blk.factor_dim, blk.multiplicity, v_sup @ blk.frame))
        else:
            if sum(b.factor_dim**2 for b in out) == len(comp):
                return out
    raise NotTro("block resolution failed to stabilize; spectrum persistently degenerate")


def _resolve_factor(
    sub: np.ndarray, herm_alg: Sequence[np.ndarray], rng: np.random.Generator
) -> Optional[_AlgebraBlock]:
    """Resolve one central summand M_n (x) 1_l and build an adapted frame;
    sub (r x d_i) holds orthonormal columns of the central projection."""
    d_i = sub.shape[1]
    a = mc.dagger(sub) @ _random_hermitian_element(rng, herm_alg) @ sub
    clusters = _cluster_eigh(a)
    sizes = {len(c[0]) for c in clusters}
    if len(sizes) != 1:
        return None
    mult = sizes.pop()
    n = len(clusters)
    if n * mult != d_i:
        return None
    if n == 1:
        return _AlgebraBlock(1, mult, sub @ clusters[0][1])
    # Align multiplicity spaces across eigenvalue clusters with a second
    # random element: the polar part of Q_a* b Q_1 carries cluster 1's
    # multiplicity basis onto cluster a's.
    b = mc.dagger(sub) @ _random_hermitian_element(rng, herm_alg) @ sub
    q1 = clusters[0][1]
    frames = [q1]
    for _, qa in clusters[1:]:
        c = mc.dagger(qa) @ b @ q1
        u, s, vh = np.linalg.svd(c)
        if s.size == 0 or s[-1] <= 1e-8 * max(s[0], 1.0):
            return None
        frames.append(qa @ (u @ vh))
    frame = np.concatenate(frames, axis=1)  # columns ordered (a, s)
    return _AlgebraBlock(n, mult, sub @ frame)


@dataclass(frozen=True)
class TroDecomposition:
    """Rectangular block structure of a TRO with realizing unitaries.

    ``blocks[i] = (n_i, m_i, l_i)``: output size, environment size,
    multiplicity.  Conjugating the TRO basis by the two unitaries supports
    every element on the declared diagonal rectangles.
    """

    blocks: tuple[tuple[int, int, int], ...]
    basis_change_out: np.ndarray
    basis_change_env: np.ndarray

    @property
    def rect_blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple((n, m) for n, m, _ in self.blocks)


def _complete_frame(frames: list[np.ndarray], dim: int) -> np.ndarray:
    """Stack column frames and append an orthonormal basis of the complement."""
    u = np.concatenate(frames, axis=1) if frames else np.zeros((dim, 0), dtype=complex)
    if u.shape[1] < dim:
        w, v = np.linalg.eigh(mc.hermitize(np.eye(dim) - u @ mc.dagger(u)))
        u = np.concatenate([u, v[:, w > 0.5]], axis=1)
    return u


def _verified_tro(mats: Sequence[np.ndarray], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Stacked basis and left span of span(mats) as is_tro(orthonormal_span(mats))
    checks it (so a NotTro names the same witness); NotTro unless a TRO."""
    v = np.stack(orthonormal_span(orthonormal_span(mats)))
    check, ell = _tro_check(v, tol)
    if not check.ok:
        raise NotTro(
            f"triple product leaves the span (witness {check.witness}, "
            f"residual {check.residual:.3e})"
        )
    return v, ell


def _right_span_algebra(v: np.ndarray) -> AlgebraBasis:
    """span{x* y} over a verified TRO's stacked basis: its right algebra."""
    return _make_algebra(v.shape[2], list(_left_span(v.conj().transpose(0, 2, 1))[0]))


def _decompose(
    v: np.ndarray, ell: np.ndarray, ralg: AlgebraBasis, seed: int, tol: float
) -> TroDecomposition:
    """Block decomposition of a verified TRO (stacked basis v) from its left
    span ell and right algebra.  The blocks are listed in the canonical order
    of their central projections on the output space, so the list does not
    depend on the bases the algebras come in: a block-diagonal TRO lists its
    blocks top to bottom."""
    rng = np.random.default_rng(seed)
    dim_out, dim_env = v.shape[1:]
    lblocks = algebra_blocks(_make_algebra(dim_out, list(ell)), rng)
    rblocks = algebra_blocks(ralg, rng)

    # Pair left and right central summands through the TRO's mass: entry
    # (i, j) is sum_x |P_i x Q_j|^2 = sum_x |F_i* x G_j|^2 over the frames.
    fl = np.concatenate([b.frame for b in lblocks], axis=1)
    fr = np.concatenate([b.frame for b in rblocks], axis=1)
    cross = np.sum(np.abs(mc.dagger(fl) @ v @ fr) ** 2, axis=0)
    lcuts = np.cumsum([0] + [b.frame.shape[1] for b in lblocks[:-1]])
    rcuts = np.cumsum([0] + [b.frame.shape[1] for b in rblocks[:-1]])
    mass = np.add.reduceat(np.add.reduceat(cross, lcuts, axis=0), rcuts, axis=1)
    pairs: list[tuple[_AlgebraBlock, _AlgebraBlock]] = []
    free = np.ones(len(rblocks), dtype=bool)
    for i, lb in enumerate(lblocks):
        row = np.where(free, mass[i], -np.inf)
        best = int(np.argmax(row))  # first strict maximum
        if row[best] <= tol:
            raise NotTro("left summand carries no TRO mass; pairing failed")
        free[best] = False
        pairs.append((lb, rblocks[best]))
    # Canonical order: by the entries of each summand's central projection
    # (row-major, real parts first) to 6 decimals, larger first.
    projs = [lb.frame @ mc.dagger(lb.frame) for lb, _ in pairs]
    keys = [np.round(np.concatenate([p.real, p.imag], axis=None), 6).tolist() for p in projs]
    pairs = [pairs[i] for i in sorted(range(len(pairs)), key=keys.__getitem__, reverse=True)]

    blocks = []
    for lb, rb in pairs:
        if lb.multiplicity != rb.multiplicity:
            raise NotTro(
                f"left/right multiplicities disagree ({lb.multiplicity} vs {rb.multiplicity})"
            )
        blocks.append((lb.factor_dim, rb.factor_dim, lb.multiplicity))

    u_out = _complete_frame([lb.frame for lb, _ in pairs], dim_out)
    u_env = _complete_frame([rb.frame for _, rb in pairs], dim_env)

    # Verify rectangle support of the conjugated basis.
    row_edges = np.cumsum([0] + [n * l for (n, _, l) in blocks])
    col_edges = np.cumsum([0] + [m * l for (_, m, l) in blocks])
    mask = np.ones((dim_out, dim_env), dtype=bool)
    for i in range(len(blocks)):
        mask[row_edges[i] : row_edges[i + 1], col_edges[i] : col_edges[i + 1]] = False
    if mask.any():
        off = np.max(np.abs((mc.dagger(u_out) @ v @ u_env)[:, mask]), axis=1)
        leaks = off[off > tol]
        if leaks.size:
            raise NotTro(f"conjugated basis leaks outside declared rectangles ({leaks[0]:.3e})")

    if sum(n * m for n, m, _ in blocks) != len(v):
        raise NotTro("block dimensions do not account for the span dimension")

    return TroDecomposition(
        blocks=tuple(blocks), basis_change_out=u_out, basis_change_env=u_env
    )


def tro_block_decomposition(
    space, seed: int = 0, tol: float = 1e-8
) -> TroDecomposition:
    """Block decomposition of a verified TRO.

    Accepts a StinespringSpace or a sequence of matrices spanning the TRO.
    Raises NotTro when the span fails the triple-product test.  The left and
    right algebras are the spans of x y* and x* y, which a TRO makes
    *-closed.
    """
    if isinstance(space, StinespringSpace):
        mats = list(space.basis)
    else:
        mats = [mc.asmatrix(m) for m in space]
    v, ell = _verified_tro(mats, tol)
    return _decompose(v, ell, _right_span_algebra(v), seed, tol)


# ---------------------------------------------------------------------------
# symbol validation


def validate_symbol(ch: Channel, f: np.ndarray, seed: int = 0, tol: float = 1e-9) -> Symbol:
    """Certify an environment density as a symbol of the channel.

    Computes the smallest TRO containing the channel's dilation range and
    checks strong independence of f from that TRO's right algebra.  The
    certificate records the TRO's block structure and the independence
    residuals.
    """
    f = mc.asmatrix(f)
    space = stinespring_space(ch)
    if f.shape != (space.dim_env, space.dim_env):
        raise DimMismatch(
            f"symbol dim {f.shape[0]} does not match environment {space.dim_env}"
        )
    w, _ = mc.herm_eig(f)
    if float(np.min(w)) < -1e-10 * max(1.0, float(np.max(w))):
        raise NotNormalized("symbol must be positive semidefinite")
    tau = np.trace(f).real / space.dim_env
    if abs(tau - 1.0) > 1e-10:
        raise NotNormalized(f"normalized trace is {tau:.6f}, expected 1")

    basis, ell = _closure(space.basis)
    if ell is None:  # the rank settled before the closure bound did
        v, ell = _verified_tro(basis, 1e-8)
    else:
        v = np.stack(basis)
    ralg = _right_span_algebra(v)
    resids = strong_independence_residuals(f, ralg)
    bad = [k for k, r in enumerate(resids) if r > tol]
    if bad:
        raise NotIndependent(
            f"spectral projection(s) {bad} of the symbol fail independence "
            f"(worst residual {max(resids):.3e})"
        )
    decomp = _decompose(v, ell, ralg, seed, 1e-8)
    cert = SymbolCertificate(
        blocks=decomp.blocks,
        residuals=tuple(resids),
        right_algebra_dim=ralg.rank,
        tro_dim=len(v),
        space_is_tro=(len(v) == space.dim),
    )
    return Symbol(f=f, certificate=cert)


def identity_symbol(ch: Channel, seed: int = 0) -> Symbol:
    """The identity density, always a valid symbol."""
    return validate_symbol(ch, np.eye(ch.dim_env, dtype=complex), seed=seed)
