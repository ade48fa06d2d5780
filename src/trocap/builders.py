"""Constructors for the example channel families.

Direct sums of partial traces, random-unitary channels from projective
group representations, generalized dephasing channels (Schur multipliers
of positive-definite functions), and the one-parameter 4-to-3 family
``phi_alpha`` whose capacity window is tight.

Groups are index tables: elements are 0..n-1, multiplication is an n x n
Latin square, and an optional cocycle of unit scalars twists products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import algebra as alg
from . import matcore as mc
from .channel import Channel, StinespringSpace, Symbol, modified_channel, stinespring_space
from .errors import (
    BadDistribution,
    DimMismatch,
    EmptyBlocks,
    NotPositiveDefinite,
    OutOfRange,
)

COCYCLE_TOL = 1e-12


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table with an optional cocycle of unit scalars."""

    table: np.ndarray
    cocycle: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        table = np.asarray(self.table, dtype=int)
        n = table.shape[0]
        if table.shape != (n, n):
            raise DimMismatch("multiplication table must be square")
        idx = np.arange(n)
        if not (np.all(np.sort(table, axis=1) == idx) and np.all(np.sort(table, axis=0) == idx[:, None])):
            raise DimMismatch("multiplication table is not a Latin square")
        # (ab)c = a(bc), one a at a time: rows [b, c] of both sides
        if any(np.any(table[table[a]] != table[a, table]) for a in range(n)):
            raise DimMismatch("multiplication table is not associative")
        cocycle = self.cocycle
        if cocycle is None:
            cocycle = np.ones((n, n), dtype=complex)
        cocycle = np.asarray(cocycle, dtype=complex)
        if cocycle.shape != (n, n):
            raise DimMismatch("cocycle must match the group order")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        e = self.identity_of(table)
        if np.max(np.abs(cocycle[:, e] - 1.0)) > COCYCLE_TOL or np.max(
            np.abs(cocycle[e, :] - 1.0)
        ) > COCYCLE_TOL:
            raise DimMismatch("cocycle must be 1 against the identity element")
        # c(g, g') c(gg', g'') = c(g, g'g'') c(g', g''), one g at a time
        for g in range(n):
            lhs = cocycle[g, :, None] * cocycle[table[g], :]
            rhs = cocycle[g, table] * cocycle
            if np.any(np.abs(lhs - rhs) > COCYCLE_TOL):
                raise DimMismatch("cocycle fails the 2-cocycle condition")
        cocycle = cocycle.copy()
        cocycle.setflags(write=False)
        object.__setattr__(self, "cocycle", cocycle)
        inverses = np.argmax(table == e, axis=1)
        inverses.setflags(write=False)
        object.__setattr__(self, "_identity", e)
        object.__setattr__(self, "_inverses", inverses)

    @staticmethod
    def identity_of(table: np.ndarray) -> int:
        idx = np.arange(table.shape[0])
        units = np.flatnonzero(np.all(table == idx, axis=1) & np.all(table.T == idx, axis=1))
        if units.size == 0:
            raise DimMismatch("multiplication table has no identity element")
        return int(units[0])

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def identity(self) -> int:
        return self._identity

    @property
    def inverses(self) -> np.ndarray:
        """inverses[a] is the element b with ab = identity."""
        return self._inverses

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self._inverses[a])


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup(table=(idx[:, None] + idx[None, :]) % n)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Product group on index pairs (i, j) -> i * |b| + j, cocycles multiplied."""
    na, nb = a.order, b.order
    table = np.zeros((na * nb, na * nb), dtype=int)
    cocycle = np.ones((na * nb, na * nb), dtype=complex)
    for i1 in range(na):
        for j1 in range(nb):
            for i2 in range(na):
                for j2 in range(nb):
                    g, h = i1 * nb + j1, i2 * nb + j2
                    table[g, h] = a.mul(i1, i2) * nb + b.mul(j1, j2)
                    cocycle[g, h] = a.cocycle[i1, i2] * b.cocycle[j1, j2]
    return FiniteGroup(table=table, cocycle=cocycle)


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n: index j*n + i encodes r^i s^j with s r^i = r^(-i) s."""
    table = np.zeros((2 * n, 2 * n), dtype=int)
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    # (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + (-1)^j1 i2) s^(j1+j2)
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    j = (j1 + j2) % 2
                    table[j1 * n + i1, j2 * n + i2] = j * n + i
    return FiniteGroup(table=table)


@dataclass(frozen=True)
class ProjectiveRep:
    """Unitaries satisfying u(g) u(h) = cocycle(g, h) u(gh)."""

    group: FiniteGroup
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(mc.asmatrix(u) for u in self.unitaries)
        if len(mats) != self.group.order:
            raise DimMismatch("one unitary per group element required")
        m = mats[0].shape[0]
        eye = np.eye(m)
        for u in mats:
            if u.shape != (m, m) or float(np.max(np.abs(mc.dagger(u) @ u - eye))) > 1e-10:
                raise DimMismatch("representation matrices must be unitary")
        table, cocycle = self.group.table, self.group.cocycle
        for g in range(self.group.order):
            for h in range(self.group.order):
                dev = mats[g] @ mats[h] - cocycle[g, h] * mats[table[g, h]]
                if float(np.max(np.abs(dev))) > 1e-10:
                    raise DimMismatch(f"u({g}) u({h}) != cocycle * u({g}{h})")
        frozen = []
        for u in mats:
            u = u.copy()
            u.setflags(write=False)
            frozen.append(u)
        object.__setattr__(self, "unitaries", tuple(frozen))

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
        mats = [mc.asmatrix(u) for u in mats]
        n = group.order
        m = mats[0].shape[0]
        cocycle = np.ones((n, n), dtype=complex)
        for g in range(n):
            for h in range(n):
                phase = np.trace(mc.dagger(mats[group.mul(g, h)]) @ mats[g] @ mats[h]) / m
                if abs(abs(phase) - 1.0) > 1e-9:
                    raise DimMismatch(
                        f"products of u({g}), u({h}) do not project onto u({group.mul(g, h)})"
                    )
                cocycle[g, h] = phase / abs(phase)
        twisted = FiniteGroup(table=group.table, cocycle=cocycle)
        return cls(group=twisted, unitaries=tuple(mats))


def regular_representation(group: FiniteGroup) -> ProjectiveRep:
    """Left regular representation u(g)|h> = |gh> (trivial cocycle)."""
    n = group.order
    mats = []
    for g in range(n):
        u = np.zeros((n, n), dtype=complex)
        for h in range(n):
            u[group.mul(g, h), h] = 1.0
        mats.append(u)
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
    dim is sum n_i, environment dim is sum m_i.
    """
    blocks = [(int(n), int(m)) for n, m in blocks]
    if not blocks:
        raise EmptyBlocks("at least one block required")
    if any(n < 1 or m < 1 for n, m in blocks):
        raise EmptyBlocks("block dimensions must be >= 1")
    d_in = sum(n * m for n, m in blocks)
    d_out = sum(n for n, _ in blocks)
    d_env = sum(m for _, m in blocks)
    kraus = np.zeros((d_env, d_out, d_in), dtype=complex)
    off_in = off_out = off_env = 0
    for n, m in blocks:
        for s in range(m):
            for a in range(n):
                kraus[off_env + s, off_out + a, off_in + a * m + s] = 1.0
        off_in += n * m
        off_out += n
        off_env += m
    return Channel(kraus)


def group_random_unitary(rep: ProjectiveRep, probs: Sequence[float], seed: int = 0) -> Channel:
    """Random-unitary channel sum_g p(g) u(g) rho u(g)*.

    ``probs`` is a probability distribution over group elements; internally
    the environment density is |G| * diag(p), a normalized density.  The
    channel carries the uniform-mixture reference space and that density's
    certificate as metadata.
    """
    p = np.asarray(probs, dtype=float)
    n = rep.group.order
    if p.shape != (n,) or np.any(p < -1e-12):
        raise BadDistribution("probs must be a nonnegative vector over group elements")
    if abs(float(p.sum()) - 1.0) > 1e-10:
        raise BadDistribution(f"probs sum to {float(p.sum()):.8f}, expected 1")
    p = np.clip(p, 0.0, None)
    base = Channel(np.stack([u / math.sqrt(n) for u in rep.unitaries]))
    space = stinespring_space(base)
    symbol = alg.validate_symbol(base, np.diag(n * p).astype(complex), seed=seed)
    kraus = np.stack([math.sqrt(p[g]) * rep.unitaries[g] for g in range(n)])
    return Channel(kraus).with_metadata(base_space=space, symbol=symbol)


def commutant_blocks(rep: ProjectiveRep, seed: int = 0) -> list[tuple[int, int]]:
    """Block structure (multiplicity, irrep dimension) of the commutant u(G)'.

    The commutant is computed as the nullspace of the stacked commutators
    and block-decomposed numerically; the channel capacities of the uniform
    mixture follow from the multiplicities.
    """
    m = rep.dim
    rows = []
    for u in rep.unitaries:
        rows.append(np.kron(u, np.eye(m)) - np.kron(np.eye(m), u.T))
    stacked = np.concatenate(rows, axis=0)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    null_mask = np.zeros(vh.shape[0], dtype=bool)
    null_mask[: len(s)] = s <= 1e-9 * max(float(s[0]), 1.0)
    null_mask[len(s) :] = True
    mats = [vh[i].conj().reshape(m, m) for i in range(vh.shape[0]) if null_mask[i]]
    blocks = alg.algebra_blocks(np.stack(alg.orthonormal_span(mats)), np.random.default_rng(seed))
    return sorted((b.factor_dim, b.multiplicity) for b in blocks)


def schur_multiplier_channel(group: FiniteGroup, phi: Sequence[complex], seed: int = 0) -> Channel:
    """Generalized dephasing channel |g><g'| -> phi(g'^-1 g) |g><g'|.

    ``phi`` must be positive definite with phi(identity) = 1; the channel is
    realized by modifying the completely dephasing channel with the kernel
    matrix of phi as environment density.
    """
    n = group.order
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (n,):
        raise DimMismatch("phi must assign one value per group element")
    # kernel[g, g'] = phi(g'^-1 g)
    kernel = phi[group.table[group.inverses[None, :], np.arange(n)[:, None]]]
    w = np.linalg.eigvalsh(mc.hermitize(kernel))
    if float(np.max(np.abs(kernel - mc.dagger(kernel)))) > 1e-10 or float(np.min(w)) < -1e-10:
        raise NotPositiveDefinite("kernel matrix of phi is not PSD")
    if float(np.max(np.abs(np.diagonal(kernel) - 1.0))) > 1e-10:
        raise NotPositiveDefinite("phi(identity) must be 1 (unit kernel diagonal)")
    base = completely_dephasing_channel(n)
    space = stinespring_space(base)
    symbol = alg.validate_symbol(base, kernel, seed=seed)
    return modified_channel(space, symbol)


def completely_dephasing_channel(dim: int) -> Channel:
    """Pinching onto the diagonal in the computational basis."""
    kraus = np.zeros((dim, dim, dim), dtype=complex)
    for g in range(dim):
        kraus[g, g, g] = 1.0
    return Channel(kraus)


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
    if not (-1.0 <= alpha <= 1.0):
        raise OutOfRange(f"alpha must lie in [-1, 1], got {alpha}")
    base = partial_trace_sum_channel([(1, 2), (1, 1), (1, 1)])
    space = stinespring_space(base)
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    f = np.eye(4, dtype=complex) + alpha * swap
    symbol = alg.validate_symbol(base, f, seed=seed)
    ch = modified_channel(space, symbol)
    rho_a = np.zeros((4, 4), dtype=complex)
    rho_a[0, 0] = rho_a[2, 2] = 0.5
    rho_b = np.zeros((4, 4), dtype=complex)
    rho_b[1, 1] = rho_b[3, 3] = 0.5
    return PhiAlphaBundle(ch, space, symbol, (rho_a, rho_b))
