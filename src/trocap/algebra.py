"""Numerical finite-dimensional operator algebra.

*-algebra generation, block (Wedderburn-style) decomposition, trace-
compatible conditional expectations, ternary-ring detection, left/right
algebras of an operator space, independence tests, and symbol validation.

TRO tests and closure use span(V V* V) = span(L V) with L = span{x y*},
which for a TRO is its left algebra (and span{x* y} its right algebra).
A TRO is U ((+)_i M_{n_i,m_i} (x) 1_{l_i}) W*, and _closed_structure reads
its whole structure off L: the summands of L give U, n_i and l_i, the TRO's
elements give each summand's right frame in W and m_i.  The conditional
expectation onto either side's algebra is a compression to the blocks of U
or W and a partial trace (_block_expectation).  The Hilbert-Schmidt paths
(conditional_expectation, and all that builds an AlgebraBasis) are public
references that no internal path uses.

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
TRO_TOL = 1e-8  # triple-product residual up to which a span is accepted as a TRO
GAP_THRESHOLD = 1e-6  # eigenvalues of a random algebra element closer than this are one cluster
LINK_RTOL = 1e-8  # eigenspaces a random element joins by less than this (relative) are unlinked
BLOCK_TRIES = 12  # random samples algebra_blocks draws before it gives up


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
    """C*-algebra generated by x y* over the space basis (acts on the output):
    span{t s*} over the smallest TRO containing the space."""
    v = np.stack(smallest_containing_tro(space.basis))
    return _make_algebra(space.dim_out, list(_left_span(v)[0]))


def right_algebra(space: StinespringSpace) -> AlgebraBasis:
    """C*-algebra generated by x* y over the space basis (acts on the
    environment): span{t* s} over the smallest TRO containing the space."""
    v = np.stack(smallest_containing_tro(space.basis))
    return _make_algebra(space.dim_env, list(_left_span(mc.dagger(v))[0]))


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


def is_tro(mats: Sequence[np.ndarray], tol: float = TRO_TOL) -> TroCheck:
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
    return _eig_projections(mc.herm_eig(f), rtol)


def _eig_projections(eig: mc.HermEig, rtol: float = 1e-8) -> list[tuple[float, np.ndarray]]:
    """spectral_projections from an eigendecomposition already taken."""
    w, v = eig
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
    frame: np.ndarray  # ambient-dim x (n*l), orthonormal columns ordered (a, s)


def _split_at_gaps(w: np.ndarray, gap: float) -> list[np.ndarray]:
    """Indices of ascending eigenvalues, split where neighbours differ by more than gap."""
    return np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > gap) + 1)


def _random_element(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """Hermitian part of a complex-Gaussian combination of a *-closed basis."""
    return mc.hermitize(np.tensordot(mc.random_complex(rng, len(basis)), basis, axes=1))


def algebra_blocks(basis: np.ndarray, rng: np.random.Generator) -> list[_AlgebraBlock]:
    """Factors M_n, with multiplicity l, of the C*-algebra with a stacked orthonormal basis.

    A random hermitian element a = (+)_i a_i (x) 1_{l_i} has the eigenspaces
    e (x) C^{l_i}, one for each eigenvector e of each a_i; a second random
    element links two of them exactly when they lie in one summand (Murota,
    Kanno, Kojima & Kojima 2010).  See _linked_summands.  Degenerate samples
    are retried with fresh ones.
    """
    # Restrict to the support of the algebra unit (the algebra may act
    # trivially on part of the ambient space).
    w, v = mc.herm_eig(sum(b @ mc.dagger(b) for b in basis))
    v_sup = v[:, w > 1e-10 * max(float(np.max(w)), 1.0)]
    comp = mc.dagger(v_sup) @ basis @ v_sup
    for _ in range(BLOCK_TRIES):
        w, v = np.linalg.eigh(_random_element(rng, comp))
        qs = [v[:, g] for g in _split_at_gaps(w, GAP_THRESHOLD)]
        blocks = _linked_summands(qs, _random_element(rng, comp))
        if blocks is not None and sum(k.factor_dim**2 for k in blocks) == len(basis):
            return [_AlgebraBlock(k.factor_dim, k.multiplicity, v_sup @ k.frame) for k in blocks]
    raise NotTro("block resolution failed to stabilize; spectrum persistently degenerate")


def _linked_summands(qs: list[np.ndarray], b: np.ndarray) -> Optional[list[_AlgebraBlock]]:
    """Summands from the eigenspace frames qs of a random element.

    Eigenspaces p and q are linked when |Q_p* b Q_q| exceeds LINK_RTOL times
    the largest such norm.  Each summand is a connected component of the
    links, walked breadth first: a frame Q_q reached from an aligned frame F
    is aligned with it by the polar part of Q_q* b F, which carries F's
    multiplicity basis onto Q_q.  None when linked eigenspaces differ in size.
    """
    cuts = np.cumsum([0] + [q.shape[1] for q in qs[:-1]])
    q_all = np.concatenate(qs, axis=1)
    mass = np.abs(mc.dagger(q_all) @ b @ q_all) ** 2
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(mass, cuts, axis=0), cuts, axis=1))
    linked = norms > LINK_RTOL * np.max(norms)
    seen = np.zeros(len(qs), dtype=bool)
    out = []
    for root in range(len(qs)):
        if seen[root]:
            continue
        seen[root] = True
        order, frames = [root], {root: qs[root]}
        for p in order:  # order grows while it is walked
            for q in np.flatnonzero(linked[p] & ~seen):
                if qs[q].shape != qs[p].shape:
                    return None
                seen[q] = True
                u, _, vh = np.linalg.svd(mc.dagger(qs[q]) @ b @ frames[p])
                frames[q] = qs[q] @ (u @ vh)
                order.append(q)
        frame = np.concatenate([frames[p] for p in order], axis=1)
        out.append(_AlgebraBlock(len(order), qs[root].shape[1], frame))
    return out


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
    """Stacked basis and left span of span(mats) as is_tro(mats) checks it
    (so a NotTro names the same witness); NotTro unless a TRO."""
    v = np.stack(orthonormal_span(mats))
    check, ell = _tro_check(v, tol)
    if not check.ok:
        raise NotTro(
            f"triple product leaves the span (witness {check.witness}, "
            f"residual {check.residual:.3e})"
        )
    return v, ell


def _right_frame(v: np.ndarray, blk: _AlgebraBlock) -> tuple[int, np.ndarray]:
    """m and the right frame G, columns ordered (b, s), of the summand with
    left frame F.  Rows (a, s) of F* x are sum_b X[a, b] g_(b,s)*, so an SVD
    of the rows of copy s = 0 over the stacked basis v gives m and g_(., 0),
    and g_(., s)* = X^+ rows_s."""
    n, l = blk.factor_dim, blk.multiplicity
    rows = (mc.dagger(blk.frame) @ v).reshape(len(v) * n, l, -1)
    u, s, _ = np.linalg.svd(rows[:, 0], full_matrices=False)
    m = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    g = (mc.dagger(u[:, :m]) / s[:m, None]) @ rows.transpose(1, 0, 2)  # (s, b, env)
    return m, mc.dagger(g.transpose(1, 0, 2).reshape(m * l, -1))


def _decompose(v: np.ndarray, ell: np.ndarray, seed: int, tol: float) -> TroDecomposition:
    """Block decomposition of a verified TRO (stacked basis v) from its left
    span ell: the left summands give n, l and the output frames, and each
    summand's right frame is read off the TRO (_right_frame).  The blocks are
    listed in the canonical order of their central projections on the output
    space, so the list does not depend on the basis the left span comes in:
    a block-diagonal TRO lists its blocks top to bottom."""
    dim_out, dim_env = v.shape[1:]
    lblocks = algebra_blocks(ell, np.random.default_rng(seed))
    # Canonical order: by the entries of each summand's central projection
    # (row-major, real parts first) to 6 decimals, larger first.
    projs = [lb.frame @ mc.dagger(lb.frame) for lb in lblocks]
    keys = [np.round(np.concatenate([p.real, p.imag], axis=None), 6).tolist() for p in projs]
    lblocks = [lblocks[i] for i in sorted(range(len(lblocks)), key=keys.__getitem__, reverse=True)]

    ms, rframes = zip(*[_right_frame(v, lb) for lb in lblocks])
    blocks = [(lb.factor_dim, m, lb.multiplicity) for lb, m in zip(lblocks, ms)]
    u_out = _complete_frame([lb.frame for lb in lblocks], dim_out)
    u_env = _complete_frame(rframes, dim_env)

    # Verify rectangle support of the conjugated basis.
    y, ro, co = mc.dagger(u_out) @ v @ u_env, 0, 0
    for n, m, l in blocks:
        y[:, ro : ro + n * l, co : co + m * l] = 0.0
        ro, co = ro + n * l, co + m * l
    leak = float(np.max(np.abs(y), initial=0.0))
    if leak > tol:
        raise NotTro(f"conjugated basis leaks outside declared rectangles ({leak:.3e})")

    if sum(n * m for n, m, _ in blocks) != len(v):
        raise NotTro("block dimensions do not account for the span dimension")

    return TroDecomposition(blocks=tuple(blocks), basis_change_out=u_out, basis_change_env=u_env)


def tro_block_decomposition(space, seed: int = 0, tol: float = TRO_TOL) -> TroDecomposition:
    """Block decomposition of a verified TRO, given as a StinespringSpace or as
    matrices spanning it, read off its left algebra span{x y*}.  Raises NotTro,
    naming the witness of is_tro(mats), when the span is not a TRO."""
    mats = space.basis if isinstance(space, StinespringSpace) else [mc.asmatrix(m) for m in space]
    return _decompose(*_verified_tro(mats, tol), seed, tol)


def _closed_structure(mats: Sequence[np.ndarray], seed: int) -> tuple[np.ndarray, TroDecomposition]:
    """Stacked basis of the smallest TRO containing span(mats) and its block
    decomposition: the closure, the triple-product check when the closure
    bound did not certify the result, then the decomposition."""
    basis, ell = _closure(mats)
    v, ell = _verified_tro(basis, TRO_TOL) if ell is None else (np.stack(basis), ell)
    return v, _decompose(v, ell, seed, TRO_TOL)


def _block_expectation(q: np.ndarray, shapes: list[tuple[int, int]], x: np.ndarray) -> np.ndarray:
    """q* E(x) q for E the conditional_expectation onto q ((+)_i M_{d_i} (x) 1_{l_i}) q*
    (+ scalars on the rest); q unitary, shapes (d_i, l_i) in its column order, x a
    matrix or a stack.  Each summand's block of q* x q goes to its normalized partial
    trace over the multiplicity, (x) 1_{l_i}, and the rest to its normalized trace."""
    y = mc.dagger(q) @ x @ q
    out, edge, lead = np.zeros_like(y), 0, y.shape[:-2]
    for d, l in shapes:
        s = slice(edge, edge + d * l)
        pt = np.trace(y[..., s, s].reshape(*lead, d, l, d, l), axis1=-3, axis2=-1) / l
        out[..., s, s] = (pt[..., None, :, None] * np.eye(l)[:, None]).reshape(*lead, d * l, d * l)
        edge += d * l
    rest = len(q) - edge
    if rest:
        tr = np.trace(y[..., edge:, edge:], axis1=-2, axis2=-1) / rest
        out[..., edge:, edge:] = tr[..., None, None] * np.eye(rest)
    return out


# ---------------------------------------------------------------------------
# symbol validation


def _block_residuals(eig: mc.HermEig, decomp: TroDecomposition) -> list[float]:
    """strong_independence_residuals of f, given as its eigendecomposition,
    against the TRO's right algebra, taken in its block basis W: |W* E(P) W - tau(P) 1|."""
    w, shapes = decomp.basis_change_env, [(m, l) for _, m, l in decomp.blocks]
    p = np.stack([p for _, p in _eig_projections(eig)])
    tau = np.trace(p, axis1=1, axis2=2).real / len(w)
    e = _block_expectation(w, shapes, p) - tau[:, None, None] * np.eye(len(w))
    return [mc.frobenius(r) for r in e]


def validate_symbol(ch: Channel, f: np.ndarray, seed: int = 0, tol: float = 1e-9) -> Symbol:
    """Certify an environment density as a symbol of the channel.

    Computes the smallest TRO containing the channel's dilation range, its
    block decomposition, and checks strong independence of f from that TRO's
    right algebra in the block basis.  The certificate records the TRO's
    block structure and the independence residuals.
    """
    f = mc.asmatrix(f)
    space = stinespring_space(ch)
    if f.shape != (space.dim_env, space.dim_env):
        raise DimMismatch(
            f"symbol dim {f.shape[0]} does not match environment {space.dim_env}"
        )
    eig = mc.herm_eig(f)
    if float(np.min(eig.eigenvalues)) < -1e-10 * max(1.0, float(np.max(eig.eigenvalues))):
        raise NotNormalized("symbol must be positive semidefinite")
    tau = np.trace(f).real / space.dim_env
    if abs(tau - 1.0) > 1e-10:
        raise NotNormalized(f"normalized trace is {tau:.6f}, expected 1")

    v, decomp = _closed_structure(space.basis, seed)
    resids = _block_residuals(eig, decomp)
    bad = [k for k, r in enumerate(resids) if r > tol]
    if bad:
        raise NotIndependent(
            f"spectral projection(s) {bad} of the symbol fail independence "
            f"(worst residual {max(resids):.3e})"
        )
    cert = SymbolCertificate(
        blocks=decomp.blocks,
        residuals=tuple(resids),
        right_algebra_dim=sum(m * m for _, m, _ in decomp.blocks),
        tro_dim=len(v),
        space_is_tro=(len(v) == space.dim),
    )
    return Symbol(f=f, certificate=cert)


def identity_symbol(ch: Channel, seed: int = 0) -> Symbol:
    """The identity density, always a valid symbol."""
    return validate_symbol(ch, np.eye(ch.dim_env, dtype=complex), seed=seed)
