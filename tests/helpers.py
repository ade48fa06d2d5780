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
