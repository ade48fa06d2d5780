"""Matrix helpers that only the tests use."""

import numpy as np

from trocap import algebra as alg
from trocap import matcore as mc


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
    alg.generate_star_algebra."""
    gens = [mc.asmatrix(g) for g in generators]
    basis = alg.orthonormal_span(gens + [mc.dagger(g) for g in gens])
    while True:
        new_basis = alg.orthonormal_span(basis + [a @ b for a in basis for b in basis])
        if len(new_basis) == len(basis):
            return alg._make_algebra(gens[0].shape[0], new_basis)
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
