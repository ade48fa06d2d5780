"""Constructors for the example channel families.

Direct sums of partial traces, random-unitary channels from projective
group representations, generalized dephasing channels (Schur multipliers
of positive-definite functions), and the one-parameter 4-to-3 family
``phi_alpha`` whose capacity window is tight.  Each modified family is a
base channel modified by its environment density f, built by algebra's one
constructor of N_f, which certifies f as a symbol of the base first; a
private helper per family gives its base and f without that certificate.

Groups are index tables: elements are 0..n-1, multiplication is an n x n
Latin square, and an optional cocycle of unit scalars twists products.  A
group is its table and cocycle; the identity and the inverses are read off
the table where they are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import algebra as alg
from . import matcore as mc
from .channel import Channel, StinespringSpace, Symbol
from .errors import (
    BadDistribution,
    DimMismatch,
    EmptyBlocks,
    NotPositiveDefinite,
    OutOfRange,
)

COCYCLE_TOL = 1e-12
CHUNK_ENTRIES = 1 << 12  # entries of one chunk of a whole-table check: 64 KiB of complex


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table with an optional cocycle of unit scalars."""

    table: np.ndarray
    cocycle: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        table = np.asarray(self.table, dtype=int)
        n = table.shape[0]
        if n == 0 or table.shape != (n, n):
            raise DimMismatch("multiplication table must be square and nonempty")
        idx = np.arange(n)
        if not (np.all(np.sort(table, axis=1) == idx) and np.all(np.sort(table, axis=0) == idx[:, None])):
            raise DimMismatch("multiplication table is not a Latin square")
        # (ab)c = a(bc) over [a, b, c], a chunk of a at a time
        if any(np.any(table[table[a]] != table[a][:, table]) for a in _chunks(n, n * n)):
            raise DimMismatch("multiplication table is not associative")
        cocycle = np.array(np.ones((n, n)) if self.cocycle is None else self.cocycle, dtype=complex)
        if cocycle.shape != (n, n):
            raise DimMismatch("cocycle must match the group order")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        e = self.identity
        if not np.max(np.abs(np.concatenate([cocycle[:, e], cocycle[e]]) - 1.0)) <= COCYCLE_TOL:
            raise DimMismatch("cocycle must be 1 against the identity element")
        # c(g, g') c(gg', g'') = c(g, g'g'') c(g', g'') over [g, g', g''], a chunk of g at a time
        for g in _chunks(n, n * n):
            lhs = cocycle[g, :, None] * cocycle[table[g]]
            rhs = cocycle[g][:, table] * cocycle
            if not np.max(np.abs(lhs - rhs)) <= COCYCLE_TOL:
                raise DimMismatch("cocycle fails the 2-cocycle condition")
        cocycle.setflags(write=False)
        object.__setattr__(self, "cocycle", cocycle)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def identity(self) -> int:
        """The table's one idempotent e, ee = e: a group's only idempotent is its identity."""
        return int(np.flatnonzero(np.diagonal(self.table) == np.arange(self.order))[0])

    @property
    def inverses(self) -> np.ndarray:
        """inverses[a] is the element b with ab = identity."""
        return np.argmax(self.table == self.identity, axis=1)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inverses[a])


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup(table=(idx[:, None] + idx[None, :]) % n)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Product group on index pairs (i, j) -> i * |b| + j, cocycles multiplied."""
    n, nb = a.order * b.order, b.order
    table = (nb * a.table[:, None, :, None] + b.table[None, :, None, :]).reshape(n, n)
    return FiniteGroup(table=table, cocycle=mc.tensor(a.cocycle, b.cocycle))


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n: index j*n + i encodes r^i s^j with s r^i = r^(-i) s."""
    j, i = np.divmod(np.arange(2 * n), n)
    # (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + (-1)^j1 i2) s^(j1+j2)
    rot = (i[:, None] + (1 - 2 * j)[:, None] * i[None, :]) % n
    return FiniteGroup(table=(j[:, None] + j[None, :]) % 2 * n + rot)


@dataclass(frozen=True)
class ProjectiveRep:
    """Unitaries satisfying u(g) u(h) = cocycle(g, h) u(gh)."""

    group: FiniteGroup
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        u = _stack(self.unitaries, self.group.order)
        table, cocycle = self.group.table, self.group.cocycle
        mc._require_identity(mc.dagger(u) @ u, DimMismatch, "representation matrices must be unitary")
        for g in _chunks(len(u), u.size):  # u(g) u(h) over all (g, h) of a chunk of g at once
            dev = np.abs(u[g, None] @ u - cocycle[g, :, None, None] * u[table[g]]).max(axis=(2, 3))
            bad = np.argwhere(~(dev <= 1e-10))
            if bad.size:
                a, h = bad[0] + (g.start, 0)
                raise DimMismatch(f"u({a}) u({h}) != cocycle * u({a}{h})")
        u.setflags(write=False)
        object.__setattr__(self, "unitaries", tuple(u))

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]

    @classmethod
    def from_unitaries(cls, group: FiniteGroup, mats: Sequence[np.ndarray]) -> "ProjectiveRep":
        """Read the cocycle off the actual matrix products.

        The phases cocycle(g, h) = tr(u(gh)* u(g) u(h)) / dim are computed,
        checked to be unimodular, and verified to satisfy the cocycle
        conditions by the constructors.
        """
        u, table = _stack(mats, group.order), group.table
        cocycle = np.ones(table.shape, dtype=complex)
        for g in _chunks(len(u), u.size):  # the phases of u(g) u(h) over all (g, h) of a chunk of g at once
            phase = np.trace(mc.dagger(u[table[g]]) @ u[g, None] @ u, axis1=2, axis2=3) / len(u[0])
            bad = np.argwhere(~(np.abs(np.abs(phase) - 1.0) <= 1e-9))
            if bad.size:
                a, h = bad[0] + (g.start, 0)
                raise DimMismatch(f"products of u({a}), u({h}) do not project onto u({table[a, h]})")
            cocycle[g] = phase / np.abs(phase)
        twisted = FiniteGroup(table=group.table, cocycle=cocycle)
        return cls(group=twisted, unitaries=tuple(u))


def _chunks(n: int, per_row: int) -> list[slice]:
    """Consecutive slices of range(n), each of at most CHUNK_ENTRIES // per_row
    rows (at least one), so a check over whole rows holds a bounded array."""
    step = max(1, CHUNK_ENTRIES // per_row)
    return [slice(g, g + step) for g in range(0, n, step)]


def _stack(mats: Sequence[np.ndarray], order: int) -> np.ndarray:
    """One square matrix of a common size per group element, as an (order, m, m) stack."""
    mats = [mc.asmatrix(u) for u in mats]
    if len(mats) != order:
        raise DimMismatch("one unitary per group element required")
    if any(u.shape != (len(mats[0]),) * 2 for u in mats):
        raise DimMismatch("representation matrices must be unitary")
    return np.stack(mats)


def regular_representation(group: FiniteGroup) -> ProjectiveRep:
    """Left regular representation u(g)|h> = |gh> (trivial cocycle)."""
    n = group.order
    g, h = np.indices((n, n))
    mats = np.zeros((n, n, n), dtype=complex)
    mats[g, group.table, h] = 1.0
    return ProjectiveRep(group=group, unitaries=tuple(mats))


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_rep() -> ProjectiveRep:
    """Projective representation of Z2 x Z2 on one qubit by {I, Z, X, Y}."""
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    mats = [_PAULI["I"], _PAULI["Z"], _PAULI["X"], _PAULI["Y"]]
    return ProjectiveRep.from_unitaries(klein, mats)


# ---------------------------------------------------------------------------
# channel families


def partial_trace_sum_channel(blocks: Sequence[tuple[int, int]]) -> Channel:
    """Direct sum of partial traces over rectangular blocks (n_i, m_i).

    Block i holds an n_i x m_i input register; the channel keeps the n_i
    factor and traces out the m_i factor.  Input dim is sum n_i m_i, output
    dim is sum n_i, environment dim is sum m_i.  Each block is a pair (a
    tuple, list or 1-d array) of sizes that pass mc._block_size.
    """
    blocks = list(blocks)
    if not blocks:
        raise EmptyBlocks("at least one block required")
    for b in blocks:
        if not (isinstance(b, (tuple, list)) or (isinstance(b, np.ndarray) and b.ndim == 1)) or len(b) != 2:
            raise DimMismatch(f"each block must be a pair (n, m), got {b!r}")
    blocks = [(mc._block_size(n), mc._block_size(m)) for n, m in blocks]
    ns, ms = np.array(blocks).T
    sizes = ns * ms
    k = np.arange(sizes.sum())
    blk = np.repeat(np.arange(len(blocks)), sizes)  # the block of input index k
    # k = off_in + a * m + s goes to output off_out + a through environment off_env + s
    a, s = np.divmod(k - (np.cumsum(sizes) - sizes)[blk], ms[blk])
    kraus = np.zeros((ms.sum(), ns.sum(), len(k)), dtype=complex)
    kraus[(np.cumsum(ms) - ms)[blk] + s, (np.cumsum(ns) - ns)[blk] + a, k] = 1.0
    return Channel(kraus)


def group_random_unitary(rep: ProjectiveRep, probs: Sequence[float], seed: int = 0) -> Channel:
    """Random-unitary channel sum_g p(g) u(g) rho u(g)*.

    ``probs`` is a probability distribution over group elements.  The channel
    is the uniform mixture, Kraus u(g) / sqrt|G|, modified by the environment
    density f = |G| * diag(p), so its Kraus operators are sqrt(p(g)) u(g) and
    it carries the mixture's space and f's certificate as metadata.
    """
    return alg._modified(*_random_unitary_base(rep, probs), seed)


def _random_unitary_base(rep: ProjectiveRep, probs: Sequence[float]) -> tuple[Channel, np.ndarray]:
    """group_random_unitary's uniform mixture and density |G| diag(p), once probs pass."""
    p = np.asarray(probs, dtype=float)
    n = rep.group.order
    if p.shape != (n,) or not np.all(p >= -1e-12):
        raise BadDistribution("probs must be a nonnegative vector over group elements")
    if not abs(float(p.sum()) - 1.0) <= 1e-10:
        raise BadDistribution(f"probs sum to {float(p.sum()):.8f}, expected 1")
    base = Channel(np.stack([u / math.sqrt(n) for u in rep.unitaries]))
    return base, np.diag(n * np.clip(p, 0.0, None))


def commutant_blocks(rep: ProjectiveRep, seed: int = 0) -> list[tuple[int, int]]:
    """Block structure (multiplicity, irrep dimension) of the commutant u(G)'.

    span u(G) is a *-algebra, (+)_i M_{d_i} (x) 1_{l_i} up to a unitary, whose
    commutant is (+)_i M_{l_i} (x) 1_{d_i}: read off the blocks of the span
    (algebra_blocks, whose _structure orthonormalizes it once) with d and l
    swapped.  The uniform mixture's capacities follow from the multiplicities.
    """
    return sorted((l, d) for d, l in alg.algebra_blocks(rep.unitaries, seed))


def schur_multiplier_channel(group: FiniteGroup, phi: Sequence[complex], seed: int = 0) -> Channel:
    """Generalized dephasing channel |g><g'| -> phi(g'^-1 g) |g><g'|.

    ``phi`` must be positive definite with phi(identity) = 1; the channel is
    realized by modifying the completely dephasing channel with the kernel
    matrix of phi as environment density.
    """
    return alg._modified(*_schur_multiplier_base(group, phi), seed)


def _schur_multiplier_base(group: FiniteGroup, phi: Sequence[complex]) -> tuple[Channel, np.ndarray]:
    """schur_multiplier_channel's dephasing channel and kernel matrix, once phi passes."""
    n = group.order
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (n,):
        raise DimMismatch("phi must assign one value per group element")
    # kernel[g, g'] = phi(g'^-1 g)
    kernel = phi[group.table[group.inverses[None, :], np.arange(n)[:, None]]]
    if not (np.isfinite(kernel).all() and float(np.max(np.abs(kernel - mc.dagger(kernel)))) <= 1e-10):
        raise NotPositiveDefinite("kernel matrix of phi is not PSD")
    w = np.linalg.eigvalsh(mc.hermitize(kernel))
    mc._require_psd(w, NotPositiveDefinite, "kernel matrix of phi is not PSD")
    unit = "phi(identity) must be 1 (unit kernel diagonal)"
    mc._require_identity(np.diag(np.diagonal(kernel)), NotPositiveDefinite, unit)
    return completely_dephasing_channel(n), kernel


def completely_dephasing_channel(dim: int) -> Channel:
    """Pinching onto the diagonal in the computational basis."""
    return partial_trace_sum_channel([(1, 1)] * dim)


def qubit_dephasing(q: float, seed: int = 0) -> Channel:
    """Dephasing channel keeping off-diagonals with weight q in [0, 1]."""
    if not (0.0 <= q <= 1.0):
        raise OutOfRange(f"dephasing weight must lie in [0, 1], got {q}")
    return schur_multiplier_channel(cyclic_group(2), [1.0, q], seed=seed)


class PhiAlphaBundle(NamedTuple):
    channel: Channel
    space: StinespringSpace
    symbol: Symbol
    block_inputs: tuple[np.ndarray, np.ndarray]


def phi_alpha(alpha: float, seed: int = 0) -> PhiAlphaBundle:
    """The 4-to-3 family: trace out a 2x2 corner, keep two diagonal slots,
    and couple them with strength alpha.

    The alpha = 0 base is a direct sum of partial traces with blocks
    (1,2), (1,1), (1,1); the environment density 1 + alpha*S (S the swap of
    the two environment halves) has spectrum {1+alpha, 1-alpha} twice, so
    the window width is 1 - h((1+alpha)/2).  ``block_inputs`` are the two
    4-dim inputs that embed a qubit dephasing channel and achieve the upper
    edge.
    """
    base, f, inputs = _phi_alpha_base(alpha)
    ch = alg._modified(base, f, seed)
    return PhiAlphaBundle(ch, ch.base_space, ch.symbol, inputs)


def _phi_alpha_base(alpha: float) -> tuple[Channel, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """phi_alpha's alpha = 0 base, density 1 + alpha S and block_inputs, once alpha passes."""
    if not (-1.0 <= alpha <= 1.0):
        raise OutOfRange(f"alpha must lie in [-1, 1], got {alpha}")
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    rho_a, rho_b = np.zeros((2, 4, 4), dtype=complex)
    rho_a[0, 0] = rho_a[2, 2] = rho_b[1, 1] = rho_b[3, 3] = 0.5
    return partial_trace_sum_channel([(1, 2), (1, 1), (1, 1)]), np.eye(4) + alpha * swap, (rho_a, rho_b)
