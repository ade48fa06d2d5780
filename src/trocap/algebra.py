"""Numerical finite-dimensional operator algebra.

*-algebra generation, block (Wedderburn-style) decomposition, trace-
compatible conditional expectations, ternary-ring detection, left/right
algebras of an operator space, independence tests, and symbol validation.

A TRO is exactly U ((+)_i M_{n_i,m_i} (x) 1_{l_i}) W*, so blocks that account
for a whole span prove it a TRO.  One routine, _structure, settles every TRO
test, closure and decomposition: a block attempt (_attempt) reads a span in
coordinates off its support, and any other span's U, n_i, l_i off seeded
elements sum_s x_s y_s* of the left algebra and its left frames alone, then W,
m_i once off the span, one stack per summand shape; a span close enough to its
blocks is certified by that distance, else a witness scan decides, and the
blocks of an accepted span no attempt lies near come from fresh seeds, drawn
only when they are asked for.  Closing adds, when the scan rejects, the
directions above tol of one SVD of unnormalized residuals.
Every algebra (generate_star_algebra closes its generators' words of length one
and two), conditional expectation and certificate reads those blocks: block
bases, compressions and partial traces in U and W.  The HS
conditional_expectation is a reference no internal path uses.
Spans are HS orthonormal, cut at mc.RANK_RTOL, block structures at
STRUCTURE_RTOL; _modified certifies each N_f's f on the space it modifies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import matcore as mc
from .channel import Channel, StinespringSpace, Symbol, SymbolCertificate, modified_channel, stinespring_space
from .errors import DimMismatch, NotIndependent, NotNormalized, NotTro

TRO_TOL = 1e-8  # triple-product residual up to which a span is accepted as a TRO
STRUCTURE_RTOL = np.sqrt(TRO_TOL)  # every block-structure cut, above the noise of an accepted TRO
GAP_THRESHOLD = 1e-6  # eigenvalues of a random algebra element closer than this are one cluster
BLOCK_TRIES = 12  # random samples a block decomposition draws before it gives up
SYMBOL_TOL = 1e-9  # independence residual up to which a density is certified as a symbol


def orthonormal_span(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis (HS inner product) of the span of the given matrices."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return []
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise DimMismatch(f"matrices of shapes {sorted({m.shape for m in mats})} span no one space")
    rows = np.stack([m.reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return list(vh[mc._rank_mask(s)].reshape(-1, *shape)) if s.size else []


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


def generate_star_algebra(generators: Sequence[np.ndarray]) -> AlgebraBasis:
    """Smallest adjoint- and product-closed span containing the generators:
    the smallest TRO containing S + S S, S = span(G + G*).  A *-algebra is a
    TRO, and every word is a triple product, s_1 s_2 ... s_n = s_1 (s_2*)*
    (s_3 ... s_n), so that TRO holds every word of S.  The basis is the block
    basis of the blocks _structure settles for it; NotTro when it settles none."""
    gens = [mc.asmatrix(g) for g in generators]
    if not gens:
        raise DimMismatch("at least one generator required")
    dim = gens[0].shape[0]
    if any(g.shape != (dim, dim) for g in gens):
        raise DimMismatch("generators must be square with a common dimension")
    s = np.reshape(orthonormal_span(gens + [mc.dagger(g) for g in gens]), (-1, dim, dim))
    if not len(s):  # the zero algebra: no span, so no blocks
        return AlgebraBasis(dim, (), unital=False)
    words = [*s, *(s[:, None] @ s[None]).reshape(-1, dim, dim)]
    return _side_algebra(_decompose(*_structure(words, TRO_TOL, close=True)[1:]), 0)


def left_algebra(space: StinespringSpace) -> AlgebraBasis:
    """C*-algebra generated by x y* over the space basis (acts on the output):
    span{t s*} over the smallest TRO containing the space."""
    return _side_algebra(_decompose(*_structure(space.basis, TRO_TOL, close=True)[1:]), 0)


def right_algebra(space: StinespringSpace) -> AlgebraBasis:
    """C*-algebra generated by x* y over the space basis (acts on the
    environment): span{t* s} over the smallest TRO containing the space."""
    return _side_algebra(_decompose(*_structure(space.basis, TRO_TOL, close=True)[1:]), 1)


class TroCheck(NamedTuple):
    """Result of a triple-product closure test."""

    ok: bool
    witness: Optional[tuple[int, int, int]]
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def is_tro(mats: Sequence[np.ndarray], tol: float = TRO_TOL) -> TroCheck:
    """Check closure of span(mats) under the triple product x y* z.

    When a block attempt (_attempt) declares a TRO T of the span's dimension k
    within eps of each orthonormal basis element, every basis triple lies within
    3 eps of T and T within sqrt(k) eps of the span: if that bound (3 + sqrt(k))
    eps is within tol, the span is accepted and ``residual`` is the bound.  Else
    every triple is scanned, O(k^2 n m) numbers at a time: the witness of a
    failure is the first (i, j, k) with the largest residual, and ``residual``
    is the exact maximum.  No fresh block attempt is drawn (see _structure)."""
    return _structure(mats, tol)[2]


def smallest_containing_tro(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Triple-product closure: the smallest TRO whose span contains the input,
    from V <- span(V + V V* V) until is_tro accepts V (see _structure)."""
    return list(_structure(mats, TRO_TOL, close=True)[0])


def _structure(
    mats: Sequence[np.ndarray], tol: float, close: bool = False, seed: int = 0
) -> tuple[np.ndarray, Iterator[TroDecomposition], TroCheck]:
    """Stacked orthonormal basis v of span(mats) (with close, of the smallest
    TRO containing it), its blocks, and is_tro of v at tol.  The blocks are a
    lazy iterator of the attempts seeded (seed, t), t < BLOCK_TRIES, that lie
    within STRUCTURE_RTOL of v: (seed, 0) is the attempt is_tro bounds, and a
    fresh seed is drawn only when _decompose asks for the blocks of a v accepted
    at tol (it never asks for a rejected v's), so is_tro and closing draw none.
    Every span, all of M_{n,m} included, takes one flow: the attempt and its
    bound, else the scan and, with close, a round that extends v: per i, rows of
    j = 0, then the rest, off what the round added and above tol, add the
    directions above tol of one SVD, each known to about eps/r at residual r."""
    if not len(mats):  # no shape, so no stack: accepted as a TRO, never decomposed
        return np.zeros((0, 0, 0), complex), iter(()), TroCheck(True, None, 0.0)
    v = np.reshape(orthonormal_span(mats), (-1, *np.shape(mats[0])))
    while True:
        k, n, m = v.shape
        found = _attempt(v, (seed, 0))
        bound = np.inf if found is None else float((3 + np.sqrt(k)) * found[1])
        worst, witness = bound, None  # a bound within tol is the residual
        added = np.zeros((0, n * m), complex)
        if bound > tol:  # every x_i x_j* x_l of one i, as k products (x_i x_j*)_j x_l, rows (l, j)
            flat, worst = v.reshape(k, n * m), 0.0
            for i in range(k):
                xy = (v[i] @ v.conj().transpose(0, 2, 1)).reshape(k * n, n)
                r = (xy @ v).reshape(k * k, -1)
                r = (r - (r @ flat.conj().T) @ flat).reshape(k, k, -1)
                res = np.linalg.norm(r, axis=2).T.ravel()  # rows (j, l)
                jl = int(np.argmax(res))
                if res[jl] > worst:
                    worst, witness = float(res[jl]), (i, *divmod(jl, k))
                for rows in (r[:, 0], r[:, 1:].transpose(1, 0, 2).reshape(-1, n * m)) if close else ():
                    rows = rows - (rows @ added.conj().T) @ added  # j = 0 first: it often spans them all
                    on = np.linalg.norm(rows, axis=1) > tol  # a group with no row left takes no SVD
                    if on.any():
                        _, s, vh = np.linalg.svd(rows[on], full_matrices=False)
                        added = np.vstack([added, vh[s > tol]])
        check = TroCheck(worst <= tol, None if worst <= tol else witness, worst)
        if check.ok or not close:
            tries = chain([found], (_attempt(v, (seed, t)) for t in range(1, BLOCK_TRIES)))  # drawn as next asks
            return v, (f[0] for f in tries if f is not None and f[1] <= STRUCTURE_RTOL), check
        v = np.array(orthonormal_span([*v, *added.reshape(-1, n, m)]))


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
    basis = list(m.basis) if m.unital else orthonormal_span([*m.basis, np.eye(m.dim, dtype=complex)])
    return project_span(x, basis)


def is_independent(x: np.ndarray, m: AlgebraBasis, tol: float = 1e-9) -> bool:
    """True when E_M(x) = tau(x) * identity within tolerance."""
    x = mc.asmatrix(x)
    tau = np.trace(x) / m.dim
    resid = mc.frobenius(conditional_expectation(m, x) - tau * np.eye(m.dim))
    return resid <= tol * max(1.0, mc.frobenius(x))


def _eig_projections(eig: mc.HermEig) -> list[np.ndarray]:
    """Projections onto the eigenvalue clusters of a hermitian matrix, given as its
    eigendecomposition; a cluster breaks where neighbours differ by more than
    1e-8 * max(1, max |eigenvalue|)."""
    w, v = eig
    groups = _split_at_gaps(w, 1e-8 * max(1.0, float(np.max(np.abs(w)))))
    return [v[:, g] @ mc.dagger(v[:, g]) for g in groups]


def strong_independence_residuals(f: np.ndarray, m: AlgebraBasis) -> list[float]:
    """Residuals of E_M(P) - tau(P)*1 over the spectral projections of f.

    Independence of every spectral projection is equivalent to independence
    of all powers of f, since those projections span the algebra f generates.
    """
    eye = np.eye(m.dim)
    return [
        mc.frobenius(conditional_expectation(m, p) - np.trace(p).real / m.dim * eye)
        for p in _eig_projections(mc.herm_eig(f))
    ]


def is_strongly_independent(f: np.ndarray, m: AlgebraBasis, tol: float = 1e-9) -> bool:
    return max(strong_independence_residuals(f, m)) <= tol


# ---------------------------------------------------------------------------
# block structure of algebras and TROs


def _groups(keys: Sequence) -> dict:
    """The positions of each distinct key, keys in order of first appearance."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _split_at_gaps(w: np.ndarray, gap: float) -> list[np.ndarray]:
    """Indices of ascending eigenvalues, split where neighbours differ by more than gap."""
    return np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > gap) + 1)


def algebra_blocks(basis: Sequence[np.ndarray], seed: int = 0) -> list[tuple[int, int]]:
    """Factors (n, l), M_n with multiplicity l, of the C*-algebra spanned by the
    matrices: a *-algebra is a TRO whose blocks are (n, n, l), and these are the
    blocks of tro_block_decomposition in its order."""
    return [(n, l) for n, _, l in tro_block_decomposition(basis, seed=seed).blocks]


def _linked_summands(qs: list[np.ndarray], b: np.ndarray) -> Optional[list[tuple[np.ndarray, int]]]:
    """Summands (F, l) from the eigenspace frames qs of a random element: p and q
    are linked when |Q_p* b Q_q| exceeds STRUCTURE_RTOL times the largest such
    norm, and each summand is a connected component of the links, walked breadth
    first.  A frame Q_q reached from an aligned frame F is aligned with it by the
    polar part of Q_q* b F, which carries F's multiplicity basis onto Q_q.  F
    stacks the n aligned frames of a component, columns (a, s), and l is their
    common width.  None when linked eigenspaces differ in size."""
    cuts = np.cumsum([0] + [q.shape[1] for q in qs[:-1]])
    q_all = np.concatenate(qs, axis=1)
    mass = np.abs(mc.dagger(q_all) @ b @ q_all) ** 2
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(mass, cuts, axis=0), cuts, axis=1))
    linked = norms > STRUCTURE_RTOL * np.max(norms)
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
                frames[q] = qs[q] @ _polar(mc.dagger(qs[q]) @ b @ frames[p])
                order.append(q)
        frame = np.concatenate([frames[p] for p in order], axis=1)
        out.append((frame, qs[root].shape[1]))
    return out


@dataclass(frozen=True)
class TroDecomposition:
    """Rectangular block structure of a TRO with realizing unitaries.

    ``blocks[i] = (n_i, m_i, l_i)``: output size, environment size,
    multiplicity.  Conjugating the TRO basis by the two (read-only) unitaries
    gives, on the i-th diagonal rectangle, X (x) 1_{l_i} with X of size
    n_i x m_i, and nothing outside the rectangles.
    """

    blocks: tuple[tuple[int, int, int], ...]
    basis_change_out: np.ndarray
    basis_change_env: np.ndarray

    def __post_init__(self) -> None:
        for u in (self.basis_change_out, self.basis_change_env):
            u.setflags(write=False)

    @property
    def rect_blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple((n, m) for n, m, _ in self.blocks)


def _polar(a: np.ndarray) -> np.ndarray:
    """The isometric factor u vh of a matrix's SVD."""
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    return u @ vh


def _complete_frame(frames: Sequence[np.ndarray]) -> np.ndarray:
    """The polar factor u_r vh of the stacked column frames' full SVD, completed
    to a unitary by the rest of u, a basis of its complement."""
    u, _, vh = np.linalg.svd(np.concatenate(frames, axis=1))
    return np.concatenate([u[:, : len(vh)] @ vh, u[:, len(vh) :]], axis=1)


def _right_frames(v: np.ndarray, frames: np.ndarray, l: int) -> Iterator[tuple[list[int], int, np.ndarray]]:
    """(ps, m, G) per rank m of summands (F_p, l) of one width, stacked frames
    (p, out, n l): G the right frames, columns (b, s), of the stack's members
    ps of rank m.  Rows (a, s) of F* x are sum_b X[a, b] g_(b,s)*, so one SVD
    of the stacked copy-0 rows over the basis v gives each m and g_(., 0), and
    g_(., s)* = X^+ rows_s, one product per rank."""
    n = frames.shape[2] // l
    rows = (mc.dagger(frames)[:, None] @ v).reshape(len(frames), len(v) * n, l, -1)
    u, s, _ = np.linalg.svd(rows[:, :, 0], full_matrices=False)
    for m, ps in _groups(np.count_nonzero(mc._rank_mask(s, STRUCTURE_RTOL), axis=1).tolist()).items():
        x_pinv = mc.dagger(u[ps, :, :m]) / s[ps, :m, None]
        g = x_pinv[:, None] @ rows[ps].transpose(0, 2, 1, 3)  # (p, s, b, env)
        yield ps, m, mc.dagger(g.transpose(0, 2, 1, 3).reshape(len(g), m * l, -1))


def _support_blocks(v: np.ndarray) -> Optional[TroDecomposition]:
    """Blocks of a span in coordinates, or None: when the exact union support S
    (entries not 0.0) of its stack v (k, n, m) has k entries and S S^T S stays in
    S, S is a disjoint union of full rectangles and the span all of them: blocks
    (|rows|, |columns|, 1) by first row, with permutations as unitaries."""
    s = v.any(axis=0)
    t = s.astype(float)  # |S| = k is tested first, so that a dense span falls through at once
    if np.count_nonzero(s) != len(v) or not np.array_equal(t @ t.T @ t > 0, s):
        return None
    lead = s.argmax(axis=1)  # a row's first column, whose first row is its rectangle's
    tops = np.flatnonzero(s.any(axis=1) & (s.argmax(axis=0)[lead] == np.arange(len(s))))
    rows, cols = [np.flatnonzero(s[:, lead[i]]) for i in tops], [np.flatnonzero(s[i]) for i in tops]
    u_out = np.eye(len(s), dtype=complex)[:, np.concatenate([*rows, np.flatnonzero(~s.any(axis=1))])]
    u_env = np.eye(s.shape[1], dtype=complex)[:, np.concatenate([*cols, np.flatnonzero(~s.any(axis=0))])]
    return TroDecomposition(tuple((len(r), len(c), 1) for r, c in zip(rows, cols)), u_out, u_env)


def _distance(v: np.ndarray, decomp: TroDecomposition) -> float:
    """eps: the largest distance of an element of the stack v from the TRO of decomp."""
    y = mc.dagger(decomp.basis_change_out) @ v @ decomp.basis_change_env
    return float(np.max(np.linalg.norm(y - _block_form(y, decomp.blocks), axis=(1, 2)), initial=0.0))


def _attempt(v: np.ndarray, seed: tuple[int, int]) -> Optional[tuple[TroDecomposition, float]]:
    """One try at the blocks of the span of an orthonormal stack v (k, n, m), and
    eps, the largest distance of a basis element from the TRO they declare; None
    when they do not account for k.  A span in coordinates is certified from its
    support (_support_blocks) at eps 0, its elements vanishing off the permuted
    rectangles.  For any other TRO, herm(sum_{s<n} x_s y_s*), x_s and y_s seeded
    Gaussian combinations of v, is a generic element of the left algebra: two
    such samples, on the unit's support at unit norm, give the summands, and v
    their right frames, one stack per shape (_right_frames).
    The blocks come in a canonical order, whatever the basis of v or the seed:
    a block-diagonal TRO's top to bottom."""
    found = _support_blocks(v)
    if found is not None:
        return found, 0.0
    k, n, m = v.shape
    rng = np.random.default_rng(seed)
    w, q = mc.herm_eig(np.tensordot(v, v.conj(), axes=([0, 2], [0, 2])))
    sup = q[:, mc.support_mask(w)]

    def sample():
        x, y = np.tensordot(mc.random_complex(rng, (2, n, k)), v, axes=1)
        a = mc.hermitize(mc.dagger(sup) @ np.tensordot(x, y.conj(), axes=([0, 2], [0, 2])) @ sup)
        return a / mc.frobenius(a)

    w, q = np.linalg.eigh(sample())
    b = sup @ sample() @ mc.dagger(sup)
    summands = _linked_summands([sup @ q[:, g] for g in _split_at_gaps(w, GAP_THRESHOLD)], b)
    if summands is None:
        return None
    # For a TRO and a summand's left frame F, R = sum_k v_k* F F* v_k is n/l times the
    # summand's right projection and sum_k v_k R v_k* F is nm/l^2 F.  R is the same over
    # every orthonormal basis of the span, so over one whose elements each lie in one
    # block, where the first-order errors of F F*, between the summand and the rest,
    # cancel: the pass carries the left frames, whose noise a sample's small gaps
    # amplify, onto the summands, whose right frames are then read once.
    refined = [None] * len(summands)  # (F, l, m, G)
    v_cols = v.transpose(1, 0, 2).reshape(n, -1)  # columns (k, env)
    for (_, l), ids in _groups([(frame.shape[1], l) for frame, l in summands]).items():
        yh = mc.dagger(v) @ np.stack([summands[i][0] for i in ids])[:, None]  # v_k* F, (p, k, env, n l)
        y = yh.transpose(0, 2, 1, 3).reshape(len(ids), m, -1)  # the v_k* F side by side: R = Y Y*
        stack = _polar(v_cols @ ((y @ mc.dagger(y))[:, None] @ yh).reshape(len(ids), k * m, -1))
        for ps, mi, g in _right_frames(v, stack, l):
            for p, rframe in zip(ps, g):
                refined[ids[p]] = stack[p], l, mi, rframe
    # Canonical order: by the entries of each summand's central projection
    # (row-major, real parts first) to 6 decimals, larger first.
    projs = (frame @ mc.dagger(frame) for frame, *_ in refined)
    keys = [np.round(np.concatenate([p.real, p.imag], axis=None), 6).tolist() for p in projs]
    order = sorted(range(len(refined)), key=keys.__getitem__, reverse=True)
    frames, ls, ms, rframes = zip(*[refined[i] for i in order])
    blocks = tuple((frame.shape[1] // l, mi, l) for frame, l, mi in zip(frames, ls, ms))
    dims = np.array(blocks)
    if dims[:, 0] @ dims[:, 1] != k or dims[:, 1] @ dims[:, 2] > m:
        return None
    found = TroDecomposition(blocks, _complete_frame(frames), _complete_frame(rframes))
    return found, _distance(v, found)


def _decompose(blocks: Iterator[TroDecomposition], check: TroCheck) -> TroDecomposition:
    """The first of the blocks _structure found for a span whose is_tro was check:
    NotTro naming the witness of a rejected span, or when no attempt lay within
    STRUCTURE_RTOL of it."""
    if not check.ok:
        raise NotTro(f"triple product leaves the span (witness {check.witness}, residual {check.residual:.3e})")
    found = next(blocks, None)
    if found is None:
        raise NotTro(f"no block decomposition within {STRUCTURE_RTOL:.0e} of the span in {BLOCK_TRIES} attempts")
    return found


def tro_block_decomposition(space, seed: int = 0, tol: float = TRO_TOL) -> TroDecomposition:
    """Block decomposition of a verified TRO, given as a StinespringSpace or as
    matrices spanning it: the first attempt seeded (seed, t), t < BLOCK_TRIES,
    within STRUCTURE_RTOL of a span is_tro(mats, tol) accepts (see _structure).
    Raises NotTro, naming the witness of is_tro(mats), when it is not a TRO."""
    mats = space.basis if isinstance(space, StinespringSpace) else [mc.asmatrix(m) for m in space]
    if not len(mats):
        raise DimMismatch("no matrices: an empty list has no shape to decompose")
    return _decompose(*_structure(mats, tol, seed=seed)[1:])


def _side_algebra(decomp: TroDecomposition, side: int) -> AlgebraBasis:
    """Orthonormal basis F (e_ab (x) 1_l) F* / sqrt(l), F each summand's columns of
    the basis change, of a decomposed TRO's output (side 0) or environment algebra,
    unital when the summands fill the space."""
    q, basis, edge = (decomp.basis_change_out, decomp.basis_change_env)[side], [], 0
    for blk in decomp.blocks:
        d, l = blk[side], blk[2]
        f = q[:, edge : edge + d * l].reshape(len(q), d, l).transpose(1, 0, 2)  # f[a, :, s]: copy s of F's column a
        basis.append((f[:, None] @ mc.dagger(f)[None]).reshape(d * d, len(q), len(q)) / np.sqrt(l))
        edge += d * l
    frozen = np.concatenate(basis)
    frozen.setflags(write=False)
    return AlgebraBasis(dim=len(q), basis=tuple(frozen), unital=edge == len(q))


@functools.lru_cache(maxsize=256)
def _rectangles(blocks: tuple[tuple[int, int, int], ...]) -> list[tuple[int, int, int, tuple]]:
    """(n, m, l, index) per shape of a block list: its p rectangles on the diagonal
    from the top left, one index (..., rows, cols) that reads them as (..., p, n l, m l)."""
    at = np.cumsum([(0, 0)] + [(n * l, m * l) for n, m, l in blocks], axis=0)[:, :, None]  # the corners
    return [(n, m, l, (..., at[ids, :1] + np.arange(n * l)[:, None], at[ids, 1:] + np.arange(m * l)))
            for (n, m, l), ids in _groups(blocks).items()]


def _block_form(y: np.ndarray, blocks: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Projection of a matrix or a stack y onto (+)_i M_{n_i,m_i} (x) 1_{l_i} on the
    diagonal rectangles from the top left: each rectangle goes to X (x) 1_l, X the mean
    over its copies, and the rest to zero.  Each shape's rectangles go by one gather
    (_rectangles) into a copy with the rectangle axis first, so that each mean sums bit
    for bit as one rectangle's slice would, and one scatter."""
    out, lead, k = np.zeros_like(y), y.shape[:-2], y.ndim - 2
    for n, m, l, idx in _rectangles(tuple(map(tuple, blocks))):
        g = y[idx]  # (..., p, n l, m l)
        c = np.ascontiguousarray(g.transpose(k, *range(k), k + 1, k + 2)).reshape(g.shape[k], *lead, n, l, m, l)
        x = np.trace(c, axis1=-3, axis2=-1).transpose(*range(1, k + 1), 0, k + 1, k + 2) / l
        out[idx] = (x[..., None, :, None] * np.eye(l)[:, None]).reshape(g.shape)
    return out


def _block_expectation(q: np.ndarray, shapes: list[tuple[int, int]], x: np.ndarray) -> np.ndarray:
    """q* E(x) q for E the conditional_expectation onto q ((+)_i M_{d_i} (x) 1_{l_i}) q*
    (+ scalars on the rest); q unitary, shapes (d_i, l_i) in its column order, x a
    matrix or a stack.  Each summand's block of q* x q goes to its normalized partial
    trace over the multiplicity, (x) 1_{l_i}, and the rest, one more block (1, 1, rest),
    to its normalized trace (_block_form)."""
    rest = len(q) - sum(d * l for d, l in shapes)
    return _block_form(mc.dagger(q) @ x @ q, [(d, d, l) for d, l in shapes] + [(1, 1, rest)] * (rest > 0))


# ---------------------------------------------------------------------------
# symbol validation


def _block_residuals(eig: mc.HermEig, decomp: TroDecomposition) -> list[float]:
    """strong_independence_residuals of f, given as its eigendecomposition,
    against the TRO's right algebra, taken in its block basis W: |W* E(P) W - tau(P) 1|."""
    w, shapes = decomp.basis_change_env, [(m, l) for _, m, l in decomp.blocks]
    p = np.stack(_eig_projections(eig))
    tau = np.trace(p, axis1=1, axis2=2).real / len(w)
    e = _block_expectation(w, shapes, p) - tau[:, None, None] * np.eye(len(w))
    return [mc.frobenius(r) for r in e]


def validate_symbol(ch: Channel, f: np.ndarray, seed: int = 0, tol: float = SYMBOL_TOL) -> Symbol:
    """Certify an environment density as a symbol of the channel.

    Computes the smallest TRO containing the channel's dilation range, its
    block decomposition, and checks strong independence of f from that TRO's
    right algebra in the block basis.  The certificate records the TRO's
    block structure, the independence residuals and the decomposition itself.
    """
    return _certify(stinespring_space(ch), f, seed, tol)


def _certify(space: StinespringSpace, f: np.ndarray, seed: int, tol: float = SYMBOL_TOL) -> Symbol:
    """validate_symbol on the channel's Stinespring space itself."""
    f = mc.asmatrix(f)
    if f.shape != (space.dim_env, space.dim_env):
        raise DimMismatch(f"symbol dim {f.shape[0]} does not match environment {space.dim_env}")
    eig = mc.herm_eig(f)
    mc._require_psd(eig.eigenvalues, NotNormalized, "symbol must be positive semidefinite")
    mc._require_unit_trace(f, NotNormalized, "normalized trace is {:.6f}, expected 1")

    v, blocks, check = _structure(space.basis, TRO_TOL, close=True, seed=seed)
    decomp = _decompose(blocks, check)
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
        decomposition=decomp,
    )
    return Symbol(f=f, certificate=cert)


def identity_symbol(ch: Channel, seed: int = 0) -> Symbol:
    """The identity density, always a valid symbol."""
    return validate_symbol(ch, np.eye(ch.dim_env, dtype=complex), seed=seed)


def _modified(base: Channel, f: np.ndarray, seed: int) -> Channel:
    """N_f: the base channel's Stinespring space modified by f, once f is
    certified as a symbol of the base on that same space (validate_symbol)."""
    space = stinespring_space(base)
    return modified_channel(space, _certify(space, f, seed))
