"""Matrix helpers that only the tests use."""

import numpy as np

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
