"""Channel representations and transforms.

A channel is stored as a stacked Kraus family ``kraus[e, i, k]`` mapping
input index ``k`` to output index ``i`` through environment index ``e``.
The Stinespring dilation is ``V|h> = sum_e (K_e |h>) (x) |e>``; its range,
read as operators from the environment to the output, is the channel's
Stinespring space.  Operator representatives ``h`` of input vectors
satisfy ``N(|x><y|) = x y*`` and ``N^E(|x><y|) = y* x``.  All four maps run
through one kernel over a stacked family A, ``S(A, x) = sum_j A_j x A_j*``:
N = S(K, .) and N* = S(K*, .), and over the rows ``A_i[e, k] = K_e[i, k]``,
N^E(rho) = S(rows, rho)^T and N^E*(Z) = S(rows*, Z^T).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import matcore as mc
from .errors import (
    DimMismatch,
    InvalidSymbol,
    NotTracePreserving,
    OutOfRange,
    RankDeficient,
)

if TYPE_CHECKING:
    from .algebra import TroDecomposition


@dataclass(frozen=True)
class Channel:
    """CPTP map as a Kraus family with dimension metadata.

    ``base_space`` and ``symbol`` are optional construction metadata: when
    the channel was built by modifying a reference channel with an
    environment density, they record that reference space and the density's
    certificate.  Entropy- and capacity-level code uses them to produce
    exact window bounds.
    """

    kraus: np.ndarray  # shape (dim_env, dim_out, dim_in)
    base_space: Optional["StinespringSpace"] = field(default=None, compare=False)
    symbol: Optional["Symbol"] = field(default=None, compare=False)

    def __post_init__(self):
        k = np.asarray(self.kraus, dtype=complex)
        if k.ndim != 3:
            raise DimMismatch("kraus must be a stacked (env, out, in) array")
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "kraus", k)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    @property
    def dim_env(self) -> int:
        return self.kraus.shape[0]


@dataclass(frozen=True)
class StinespringSpace:
    """Orthonormal operator basis of the dilation range in B(H_E, H_B)."""

    basis: tuple[np.ndarray, ...]  # each dim_out x dim_env
    dim_out: int
    dim_env: int
    source: Optional[Channel] = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def stacked(self) -> np.ndarray:
        return np.stack(self.basis)


@dataclass(frozen=True)
class SymbolCertificate:
    """Record of the independence checks behind a validated symbol.

    ``blocks`` is the rectangular block structure (n_i, m_i, l_i) of the
    smallest triple-product-closed space containing the channel's dilation
    range; ``residuals`` are the conditional-expectation residuals of the
    density's spectral projections against that space's right algebra
    (+)_i M_{m_i} (x) 1_{l_i}, whose dimension ``right_algebra_dim`` is sum_i m_i^2.
    ``decomposition`` is that space's block decomposition, with read-only
    unitaries U and W, so that code holding the symbol needs no second one.
    """

    blocks: tuple[tuple[int, int, int], ...]
    residuals: tuple[float, ...]
    right_algebra_dim: int
    tro_dim: int
    space_is_tro: bool
    decomposition: "TroDecomposition" = field(compare=False, repr=False)


@dataclass(frozen=True)
class Symbol:
    """Normalized environment density with its independence certificate."""

    f: np.ndarray
    certificate: SymbolCertificate

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex).copy()
        f.setflags(write=False)
        object.__setattr__(self, "f", f)

    @property
    def dim(self) -> int:
        return self.f.shape[0]


def from_kraus(kraus) -> Channel:
    """Build a channel from a list of equally-shaped Kraus operators.

    Raises NotTracePreserving with the deviation norm when the family does
    not resolve the identity.
    """
    ops = [mc.asmatrix(k) for k in kraus]
    if not ops:
        raise DimMismatch("at least one Kraus operator required")
    shape = ops[0].shape
    if any(k.shape != shape for k in ops):
        raise DimMismatch("Kraus operators must share a common shape")
    stack = np.stack(ops)
    gram = np.einsum("eji,ejk->ik", stack.conj(), stack)
    mc._require_identity(gram, NotTracePreserving, "sum K*K deviates from identity by {:.3e}")
    return Channel(stack)


def _operand(x, dim: int, what: str) -> np.ndarray:
    """``x`` as a complex dim x dim matrix or a stack (..., dim, dim) of them."""
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-2:] != (dim, dim):
        raise DimMismatch(f"{what} shape {x.shape}, channel expects {dim}")
    return x


def _sandwich(fam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S(A, x) = sum_j A_j x A_j* for a stacked family A (j, m, n), on each matrix of a stack x."""
    return (fam @ x[..., None, :, :] @ mc.dagger(fam)).sum(axis=-3)


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_e K_e rho K_e* (on each matrix of a stack)."""
    return _sandwich(ch.kraus, _operand(rho, ch.dim_in, "input"))


def complement_apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Complementary channel on the environment (on each matrix of a stack).

    Entry (a, b) is tr(K_b rho K_a*), so rank-one inputs |x><y| map to
    y* x on operator representatives; it is S(rows, rho)^T, A_i[e, k] = K_e[i, k].
    """
    rows = ch.kraus.swapaxes(0, 1)
    return _sandwich(rows, _operand(rho, ch.dim_in, "input")).swapaxes(-1, -2)


def adjoint_apply(ch: Channel, y: np.ndarray) -> np.ndarray:
    """Heisenberg-picture adjoint sum_e K_e* Y K_e (of each matrix of a stack)."""
    return _sandwich(mc.dagger(ch.kraus), _operand(y, ch.dim_out, "output"))


def complement_adjoint_apply(ch: Channel, z: np.ndarray) -> np.ndarray:
    """Adjoint of the complementary channel, sum_ab z[a,b] K_b* K_a =
    S(rows*, z^T) with A_i[e, k] = K_e[i, k] (of each matrix of a stack)."""
    rows = ch.kraus.swapaxes(0, 1)
    return _sandwich(mc.dagger(rows), _operand(z, ch.dim_env, "environment").swapaxes(-1, -2))


def _columns(ch: Channel) -> np.ndarray:
    """V, the Kraus operators stacked with rows (in, out): the Stinespring columns."""
    return ch.kraus.transpose(2, 1, 0).reshape(-1, ch.dim_env)


def choi(ch: Channel) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij e_ij (x) N(e_ij) on H_in (x) H_out: V V*."""
    v = _columns(ch)
    return v @ v.conj().T


def _choi_gap(a: Channel, b: Channel) -> float:
    """||choi(a) - choi(b)||_F with no Choi matrix: [V_a V_b] = Q R makes the difference
    Q R J R* Q*, J = 1 on a's columns and -1 on b's, so R J R* has side dim_env(a) + dim_env(b)."""
    r = np.linalg.qr(np.hstack([_columns(a), _columns(b)]), mode="r")
    return float(np.linalg.norm(r * np.repeat([1.0, -1.0], [a.dim_env, b.dim_env]) @ mc.dagger(r)))


def stinespring_space(ch: Channel, tol: float = mc.IDENTITY_TOL) -> StinespringSpace:
    """Operator basis of the dilation range.

    For input basis vector |k> the representative is the dim_out x dim_env
    matrix with columns K_e|k>.  Trace preservation makes these orthonormal
    under the Hilbert-Schmidt inner product; a violation (or a non-finite
    entry) raises RankDeficient.  The partial-trace identities
    N(|x><y|) = x y* and N^E(|x><y|) = y* x hold by construction, since both
    sides are the same sums over the Kraus entries; the tests check them
    against ``apply`` and ``complement_apply``.  The basis operators are
    read-only views of one copied stack.
    """
    # kraus[e, i, k] -> basis op for input k has entry [i, e]
    stack = ch.kraus.transpose(2, 1, 0).copy()  # (in, out, env)
    flat = stack.reshape(ch.dim_in, -1)
    gram = flat.conj() @ flat.T
    mc._require_identity(gram, RankDeficient, "dilation is not isometric within tolerance", tol)
    stack.setflags(write=False)
    return StinespringSpace(basis=tuple(stack), dim_out=ch.dim_out, dim_env=ch.dim_env, source=ch)


def modified_channel(space: StinespringSpace, symbol: Symbol) -> Channel:
    """Channel acting as x f y* on operator representatives.

    Realized through the dilation |x> -> |x sqrt(f)|>, i.e. the Kraus
    columns are read off the representatives right-multiplied by sqrt(f).
    """
    if not isinstance(symbol, Symbol):
        raise InvalidSymbol("modified_channel needs a validated Symbol")
    f = symbol.f
    if f.shape != (space.dim_env, space.dim_env):
        raise InvalidSymbol(
            f"symbol dimension {f.shape[0]} does not match environment {space.dim_env}"
        )
    mc._require_unit_trace(f, InvalidSymbol, "symbol has normalized trace {:.6f}, expected 1")
    stacked = space.stacked() @ mc.matrix_power(f, 0.5)  # (in, out, env)
    return Channel(stacked.transpose(2, 1, 0), base_space=space, symbol=symbol)


def base_channel(space: StinespringSpace) -> Channel:
    """Channel whose dilation range is exactly the given space basis."""
    return Channel(space.stacked().transpose(2, 1, 0))  # basis stacked (in, out, env)


def tensor_channels(a: Channel, b: Channel) -> Channel:
    """Tensor product channel with Kraus family {K_e (x) L_e'}."""
    return Channel(mc.tensor(a.kraus[:, None], b.kraus[None]).reshape(a.dim_env * b.dim_env, a.dim_out * b.dim_out, -1))


def heralded_channel(a: Channel, b: Channel, lam: float) -> Channel:
    """Probabilistic block-diagonal combination lam*N (+) (1-lam)*M.

    Both channels must share the input dimension; the output spaces are
    stacked so the receiver can tell which branch fired.
    """
    if a.dim_in != b.dim_in:
        raise DimMismatch("heralded channels need a common input dimension")
    if not (0.0 <= lam <= 1.0):
        raise OutOfRange(f"herald probability must lie in [0, 1], got {lam}")
    # N's Kraus operators padded below with M's output rows, M's padded above with N's
    top = np.pad(np.sqrt(lam) * a.kraus, ((0, 0), (0, b.dim_out), (0, 0)))
    bottom = np.pad(np.sqrt(1.0 - lam) * b.kraus, ((0, 0), (a.dim_out, 0), (0, 0)))
    return Channel(np.concatenate([top, bottom]))


def identity_channel(dim: int) -> Channel:
    return Channel(np.eye(dim, dtype=complex)[None, :, :])
