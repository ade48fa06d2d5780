"""Dense complex-matrix kernels, and the package's shared tolerances.

Everything downstream funnels through this module: Hermitian
eigendecomposition, support-restricted matrix functions, Schatten and
normalized p-norms, Kronecker products with a fixed row-major index
convention, and partial traces.  All logarithms are base 2.

Tolerance policy: a threshold that more than one module applies is named
here, and each such decision is made by one helper here (support_mask,
_rank_mask, _require_psd, _require_unit_trace, _require_identity), to which
callers pass their own exception type and message.  Cuts are relative to the
largest value, the PSD test to max(1, lambda_max).  A threshold that one
function applies (step rules, CEILING_RTOL, TRO_TOL, ...) stays beside the code it tunes.
Block sizes, read by the builders and the capacity formulas, pass one rule (_block_size), counts another (_count).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadExponent, DimMismatch, EmptyBlocks, NotHermitian, NotPSD, OutOfRange

SUPPORT_CUTOFF = 1e-10  # eigenvalues below this times lambda_max are off the support
HERMITIAN_TOL = 1e-12  # A is hermitian when max |A - A*| <= HERMITIAN_TOL * (1 + max |A|)
PSD_RTOL = 1e-10  # eigenvalues below -PSD_RTOL * max(1, lambda_max) are significantly negative
TRACE_TOL = 1e-10  # a normalized density's tr f / dim lies within this of 1
RANK_RTOL = 1e-9  # singular values above RANK_RTOL * s_max count toward a numerical rank
IDENTITY_TOL = 1e-10  # max entrywise deviation from 1 of an isometry's Gram matrix or a unit diagonal


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return a.conj().swapaxes(-1, -2)


def asmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def _asymmetry(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix max |A - A*| of a stack of square matrices, and whether it
    is within tol * (1 + max |A|)."""
    dev = np.abs(a - dagger(a)).max(axis=(-2, -1), initial=0.0)
    return dev, dev <= tol * (1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*) / 2; removes round-off asymmetry."""
    return (a + dagger(a)) / 2.0


class HermEig(NamedTuple):
    """Spectral decomposition with eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a: np.ndarray, tol: float = HERMITIAN_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, or of a stack (..., n, n)
    of them in one LAPACK call.

    The input is symmetrized before LAPACK sees it, so identical input
    bits give identical output.  Raises NotHermitian when the asymmetry of
    any matrix exceeds ``tol * (1 + max|A|)``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    dev, ok = _asymmetry(a, tol)
    if not ok.all():
        raise NotHermitian(f"matrix deviates from its adjoint by {float(np.max(dev[~ok])):.3e}")
    w, v = np.linalg.eigh(hermitize(a))
    return HermEig(w, v)


def support_mask(w: np.ndarray) -> np.ndarray:
    """Eigenvalues above the support cutoff of their spectrum (last axis)."""
    return w > SUPPORT_CUTOFF * w.max(axis=-1, keepdims=True, initial=0.0)


def _rank_mask(s: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Singular values (last axis) above rtol times the largest: the numerical rank."""
    return s > rtol * s.max(axis=-1, keepdims=True, initial=0.0)


def _require_psd(w: np.ndarray, error: type, message: str, rtol: float = PSD_RTOL) -> None:
    """Raise error(message.format(low)) for the first spectrum (last axis) of a
    stack whose lowest eigenvalue low is below -rtol * max(1, lambda_max)."""
    low = np.min(w, axis=-1, initial=np.inf)
    bad = low < -rtol * np.maximum(1.0, np.max(w, axis=-1, initial=0.0))
    if bad.any():
        raise error(message.format(float(low[bad].flat[0])))


def _require_unit_trace(f: np.ndarray, error: type, message: str) -> None:
    """Raise error(message.format(tau)) when tau = tr f / dim differs from 1 by more than TRACE_TOL."""
    tau = float(np.trace(f).real) / f.shape[0]
    if abs(tau - 1.0) > TRACE_TOL:
        raise error(message.format(tau))


def _require_identity(gram: np.ndarray, error: type, message: str, tol: float = IDENTITY_TOL) -> None:
    """Raise error(message.format(dev)) unless dev = max |G - 1| over a matrix or stack is within tol (NaN is not)."""
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[-1]))))
    if not dev <= tol:
        raise error(message.format(dev))


def _block_size(n) -> int:
    """n as a block size: a Python or NumPy integer, not a bool (else DimMismatch), of at least 1 (else EmptyBlocks)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimMismatch(f"block sizes must be integers, got {n!r}")
    if n < 1:
        raise EmptyBlocks(f"block sizes must be >= 1, got {n}")
    return int(n)


def _count(n, name: str) -> int:
    """n as a count: a Python or NumPy integer, not a bool, of at least 1 (else OutOfRange)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise OutOfRange(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def _on_support(eig: HermEig, fun) -> np.ndarray:
    """V diag(fun(w)) V* for PSD A = V diag(w) V* (or each of a stack), given (w, V), zero off the support."""
    w, v = eig
    _require_psd(w, NotPSD, "eigenvalue {:.3e} is significantly negative")
    mask = support_mask(w)
    fw = np.zeros_like(w)
    fw[mask] = fun(w[mask])
    return (v * fw[..., None, :]) @ dagger(v)


def conjugate_exponent(p: float) -> float:
    """The Hoelder conjugate p' of p >= 1, 1/p + 1/p' = 1: inf at p = 1, 1 at p = inf."""
    return np.inf if p == 1.0 else 1.0 if np.isinf(p) else p / (p - 1.0)


def matrix_power(a: np.ndarray, alpha: float) -> np.ndarray:
    """Support-restricted power of a PSD matrix (or of each of a stack).

    Eigenvalues below the support cutoff map to zero, so negative
    exponents act as pseudo-inverse powers.
    """
    if not np.isfinite(alpha):
        raise BadExponent(f"exponent must be finite, got {alpha}")
    return _on_support(herm_eig(a), lambda w: w**alpha)


def matrix_log2(a: np.ndarray) -> np.ndarray:
    """Support-restricted base-2 logarithm of a PSD matrix."""
    return _on_support(herm_eig(a), np.log2)


def support_projector(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the support of a PSD matrix."""
    return _on_support(herm_eig(a), np.ones_like)


def schatten_norm(a: np.ndarray, p: float) -> float | np.ndarray:
    """Schatten p-norm (sum of singular values to the p, to the 1/p) of a
    matrix as a float, or of each matrix of a stack (..., n, m) as an array.

    ``p = inf`` returns the operator norm.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise DimMismatch(f"expected a matrix, got ndim={a.ndim}")
    if not (p >= 1.0):
        raise BadExponent(f"Schatten exponent must satisfy p >= 1, got {p}")
    if p == 2.0:  # the Frobenius norm, from the entries: no SVD
        v = np.linalg.norm(a, axis=(-2, -1))
    else:
        s = np.linalg.svd(a, compute_uv=False)
        v = np.max(s, axis=-1, initial=0.0) if np.isinf(p) else np.sum(s**p, axis=-1) ** (1.0 / p)
    return float(v) if a.ndim == 2 else v


def normalized_p_norm(f: np.ndarray, p: float) -> float:
    """p-norm with respect to the normalized trace: (tr|f|^p / dim)^(1/p).

    ``p = inf`` coincides with the operator norm.
    """
    f = asmatrix(f)
    if f.shape[0] != f.shape[1]:
        raise DimMismatch("normalized trace needs a square matrix")
    return schatten_norm(f, p) / f.shape[0] ** (1.0 / p)  # d^(1/inf) = 1


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major convention (i, j) -> i*|B| + j,
    of two matrices or matrix by matrix along stacks (..., n, m).

    A broadcast product, so its entries carry the bits of np.kron's."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or b.ndim < 2:
        raise DimMismatch(f"expected matrices, got ndim {a.ndim} and {b.ndim}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    shape = (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    return out.reshape(out.shape[:-4] + shape)


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on H_A (x) H_B (or of each
    of a stack).

    ``keep`` is "A" or "B".  The row-major Kronecker convention of
    :func:`tensor` is assumed.
    """
    m = np.asarray(m, dtype=complex)
    da, db = dims
    if m.shape[-2:] != (da * db, da * db) or m.ndim < 2:
        raise DimMismatch(f"matrix shape {m.shape} does not match dims {dims}")
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    if keep == "A":
        return np.einsum("...ijkj->...ik", t)
    if keep == "B":
        return np.einsum("...ijik->...jk", t)
    raise DimMismatch(f"keep must be 'A' or 'B', got {keep!r}")


def permute_systems(m: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Reorder tensor factors of an operator on H_1 (x) ... (x) H_k.

    ``perm[i]`` names the old factor that lands at new position ``i``.
    """
    m = asmatrix(m)
    k = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimMismatch(f"matrix shape {m.shape} does not match dims {dims}")
    if sorted(perm) != list(range(k)):
        raise DimMismatch(f"perm {perm} is not a permutation of 0..{k - 1}")
    t = m.reshape(dims + dims)
    axes = tuple(perm) + tuple(p + k for p in perm)
    new_dims = tuple(dims[p] for p in perm)
    return t.transpose(axes).reshape(int(np.prod(new_dims)), -1)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


# ---------------------------------------------------------------------------
# seeded random constructions used throughout tests and optimizers


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """G G* with complex standard-normal G; full rank almost surely."""
    g = random_complex(rng, (dim, dim))
    return g @ dagger(g)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    rho = random_psd(rng, dim)
    return rho / np.trace(rho).real
