import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from trocap import algebra as alg
from trocap import builders as bld
from trocap import capacity as cap
from trocap import matcore as mc
from trocap.channel import apply, stinespring_space
from trocap.entropy import binary_entropy, entropy_defect
from trocap.errors import (
    BadDistribution,
    DimMismatch,
    EmptyBlocks,
    NotPositiveDefinite,
    OutOfRange,
)

from helpers import character_blocks, commutant_nullspace_blocks, random_unitary

I2 = np.eye(2, dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture(params=[None, 1], ids=["one_chunk", "row_chunks"])
def chunking(request, monkeypatch):
    """The whole-table group checks as one chunk, or one row of g per chunk
    (CHUNK_ENTRIES = 1), so that every chunk after the first has g.start > 0."""
    if request.param is not None:
        monkeypatch.setattr(bld, "CHUNK_ENTRIES", request.param)


def relabeled(group, perm):
    """The same group with element a called perm[a]."""
    table, cocycle = np.empty_like(group.table), np.empty_like(group.cocycle)
    table[perm[:, None], perm[None, :]] = perm[group.table]
    cocycle[perm[:, None], perm[None, :]] = group.cocycle
    return bld.FiniteGroup(table=table, cocycle=cocycle)


# every kind of table the builders make, and relabelings a -> a - 1 mod n, whose identity is n - 1
BUILT = {
    **{f"cyclic{n}": bld.cyclic_group(n) for n in (1, 2, 5, 8)},
    **{f"dihedral{n}": bld.dihedral_group(n) for n in (1, 3, 4)},
    "cyclic2xcyclic3": bld.direct_product(bld.cyclic_group(2), bld.cyclic_group(3)),
    "pauli": bld.pauli_rep().group,
}
RELABELED = {
    f"{name}-relabeled": relabeled(g, np.roll(np.arange(g.order), 1))
    for name, g in BUILT.items()
    if g.order > 1
}
GROUP_IDS, GROUPS = zip(*{**BUILT, **RELABELED}.items())


class TestFiniteGroup:
    def test_cyclic(self):
        g = bld.cyclic_group(4)
        assert g.order == 4 and g.identity == 0
        assert g.mul(3, 2) == 1
        assert g.inverse(1) == 3

    def test_bad_table(self):
        with pytest.raises(DimMismatch):
            bld.FiniteGroup(table=np.array([[0, 0], [1, 1]]))

    def test_dihedral_nonabelian(self):
        g = bld.dihedral_group(3)
        assert g.order == 6
        r, s = 1, 3  # rotation r, reflection s = index n
        assert g.mul(r, s) != g.mul(s, r)

    def test_direct_product(self):
        g = bld.direct_product(bld.cyclic_group(2), bld.cyclic_group(3))
        assert g.order == 6
        # (1, 1) * (1, 2) = (0, 0)
        assert g.mul(1 * 3 + 1, 1 * 3 + 2) == 0

    def test_not_associative(self, chunking):
        # a * b = a - b mod 5 is a Latin square but not associative
        idx = np.arange(5)
        with pytest.raises(DimMismatch, match="not associative"):
            bld.FiniteGroup(table=(idx[:, None] - idx[None, :]) % 5)

    def test_identity_not_first(self):
        # a * b = a + b + 1 mod 3 is Z_3 relabelled: its identity is 2
        idx = np.arange(3)
        g = bld.FiniteGroup(table=(idx[:, None] + idx[None, :] + 1) % 3)
        assert g.identity == 2 and g.inverse(0) == 1

    def test_cocycle_checks(self, chunking):
        table = bld.cyclic_group(3).table
        bad_unit = np.ones((3, 3), dtype=complex)
        bad_unit[0, 1] = -1.0
        with pytest.raises(DimMismatch, match="against the identity"):
            bld.FiniteGroup(table=table, cocycle=bad_unit)
        bad = np.ones((3, 3), dtype=complex)
        bad[1, 1] = -1.0
        with pytest.raises(DimMismatch, match="2-cocycle"):
            bld.FiniteGroup(table=table, cocycle=bad)

    def test_nan_cocycle_rejected(self):
        bad = np.ones((2, 2), dtype=complex)
        bad[1, 1] = np.nan
        with pytest.raises(DimMismatch, match="2-cocycle"):
            bld.FiniteGroup(table=bld.cyclic_group(2).table, cocycle=bad)

    @pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
    def test_identity_inverses_and_conditions_match_loops(self, group):
        n, t, c = group.order, group.table, group.cocycle
        assert [a for a in range(n) if all(t[a, j] == j and t[j, a] == j for j in range(n))] == [group.identity]
        e = group.identity
        assert group.inverses.tolist() == [group.inverse(a) for a in range(n)] == [
            next(b for b in range(n) if t[a, b] == e) for a in range(n)
        ]
        assert vars(group).keys() == {"table", "cocycle"}  # identity and inverses are read off the table
        assert all(
            t[t[a, b], d] == t[a, t[b, d]] for a in range(n) for b in range(n) for d in range(n)
        )
        assert all(
            abs(c[a, b] * c[t[a, b], d] - c[a, t[b, d]] * c[b, d]) <= bld.COCYCLE_TOL
            for a in range(n)
            for b in range(n)
            for d in range(n)
        )

    def test_empty_table_rejected(self):
        with pytest.raises(DimMismatch):  # the square check, now that no identity search runs
            bld.FiniteGroup(table=np.zeros((0, 0), dtype=int))

    def test_schur_kernel_matches_loop(self):
        # phi(g) = <psi, u(g) psi> for the regular representation u is
        # positive definite, and its kernel is not symmetric under g <-> g'
        group = bld.dihedral_group(3)
        psi = mc.random_complex(np.random.default_rng(4), 6)
        psi /= np.linalg.norm(psi)
        phi = [psi.conj() @ u @ psi for u in bld.regular_representation(group).unitaries]
        ch = bld.schur_multiplier_channel(group, phi)
        kernel = np.array(
            [[phi[group.mul(group.inverse(gp), g)] for gp in range(6)] for g in range(6)]
        )
        assert np.allclose(ch.symbol.f, kernel)


class TestProjectiveRep:
    def test_cocycle_read_off_matches_loop(self, chunking):
        # u(g) u(h) = c(g, h) u(gh) with c read off row by row: every row of the table must land at its own g
        rep = bld.pauli_rep()
        u, t = rep.unitaries, rep.group.table
        loop = [[np.trace(mc.dagger(u[t[g, h]]) @ u[g] @ u[h]) / 2 for h in range(4)] for g in range(4)]
        assert np.allclose(rep.group.cocycle, loop)

    def test_pauli_cocycle_read_off(self):
        rep = bld.pauli_rep()
        assert rep.dim == 2
        # constructor has already re-verified u(g)u(h) = cocycle * u(gh)
        coc = rep.group.cocycle
        assert np.allclose(np.abs(coc), 1.0)
        assert not np.allclose(coc, 1.0)  # genuinely projective

    def test_regular_representation(self):
        rep = bld.regular_representation(bld.cyclic_group(3))
        assert rep.dim == 3
        assert np.allclose(rep.unitaries[0], np.eye(3))

    def test_inconsistent_matrices_rejected(self):
        g = bld.cyclic_group(2)
        with pytest.raises(DimMismatch):
            bld.ProjectiveRep.from_unitaries(g, [I2, np.diag([1.0, 1.0j])])

    def test_nan_entry_rejected_by_phase_check(self):
        with pytest.raises(DimMismatch, match="do not project"):
            bld.ProjectiveRep.from_unitaries(bld.cyclic_group(2), [I2, np.diag([1.0, np.nan])])


class TestPartialTraceSum:
    def test_dimension_bookkeeping(self):
        ch = bld.partial_trace_sum_channel([(2, 2), (3, 1)])
        assert (ch.dim_in, ch.dim_out, ch.dim_env) == (7, 5, 3)

    def test_pure_trace_channel(self):
        ch = bld.partial_trace_sum_channel([(1, 4)])
        rng = np.random.default_rng(0)
        rho = mc.random_density(rng, 4)
        assert np.allclose(apply(ch, rho), [[1.0]])

    def test_identity_block(self):
        ch = bld.partial_trace_sum_channel([(3, 1)])
        rng = np.random.default_rng(1)
        rho = mc.random_density(rng, 3)
        assert np.allclose(apply(ch, rho), rho)

    def test_block_action_is_partial_trace(self):
        ch = bld.partial_trace_sum_channel([(2, 3)])
        rng = np.random.default_rng(2)
        rho = mc.random_density(rng, 6)
        assert np.allclose(apply(ch, rho), mc.partial_trace(rho, (2, 3), "A"))

    def test_space_is_tro_with_given_blocks(self):
        ch = bld.partial_trace_sum_channel([(2, 2), (3, 1)])
        space = stinespring_space(ch)
        assert alg.is_tro(list(space.basis)).ok
        decomp = alg.tro_block_decomposition(space, seed=0)
        assert sorted(decomp.rect_blocks) == [(2, 2), (3, 1)]

    def test_empty(self):
        with pytest.raises(EmptyBlocks):
            bld.partial_trace_sum_channel([])

    @pytest.mark.parametrize(
        "blocks",
        [[(2.9, 1), (True, 2)], [(True, 2)], [("3", 1)], [(1, np.float64(2.0))], [(1, None)]],
        ids=["float-and-bool", "bool", "str", "numpy-float", "none"],
    )
    def test_non_integer_block_sizes_rejected(self, blocks):
        # (2.9, 1), (True, 2) were truncated to (2, 1), (1, 2) and "3" read as 3
        with pytest.raises(DimMismatch, match="must be integers"):
            bld.partial_trace_sum_channel(blocks)

    @pytest.mark.parametrize("blocks", [[(0, 1)], [(2, 2), (1, np.int64(-1))]])
    def test_sizes_below_one_rejected(self, blocks):
        with pytest.raises(EmptyBlocks, match=">= 1"):
            bld.partial_trace_sum_channel(blocks)

    @pytest.mark.parametrize(
        "blocks", [[(1, 2, 3)], [(2,)], [3], [np.array([[1, 2]])]], ids=["triple", "single", "bare", "2d-row"]
    )
    def test_rows_that_are_not_pairs_rejected(self, blocks):
        with pytest.raises(DimMismatch, match="pair"):
            bld.partial_trace_sum_channel(blocks)

    @pytest.mark.parametrize(
        "blocks",
        [np.array([[2, 2], [3, 1]]), [(np.int64(2), np.int32(2)), [3, np.uint8(1)]], iter([(2, 2), (3, 1)])],
        ids=["2d-array", "numpy-ints", "iterator"],
    )
    def test_integer_sizes_in_any_row_form(self, blocks):
        expected = bld.partial_trace_sum_channel([(2, 2), (3, 1)]).kraus
        assert np.array_equal(bld.partial_trace_sum_channel(blocks).kraus, expected)


class TestGroupRandomUnitary:
    def test_z2_uniform_is_complete_dephasing(self):
        rep = bld.ProjectiveRep.from_unitaries(bld.cyclic_group(2), [I2, Z])
        ch = bld.group_random_unitary(rep, [0.5, 0.5])
        rng = np.random.default_rng(3)
        rho = mc.random_density(rng, 2)
        oracle = (rho + Z @ rho @ Z) / 2  # pinches the diagonal
        assert np.allclose(apply(ch, rho), oracle)
        assert np.allclose(oracle, np.diag(np.diagonal(rho)))

    def test_pauli_uniform_is_depolarizing(self):
        ch = bld.group_random_unitary(bld.pauli_rep(), [0.25] * 4)
        rng = np.random.default_rng(4)
        rho = mc.random_density(rng, 2)
        assert np.allclose(apply(ch, rho), I2 / 2, atol=1e-12)

    def test_identity_concentration(self):
        ch = bld.group_random_unitary(bld.pauli_rep(), [1.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(5)
        rho = mc.random_density(rng, 2)
        assert np.allclose(apply(ch, rho), rho)

    def test_bad_distribution(self):
        with pytest.raises(BadDistribution):
            bld.group_random_unitary(bld.pauli_rep(), [0.5, 0.5, 0.5, 0.5])

    def test_nan_distribution_is_bad(self):
        with pytest.raises(BadDistribution):
            bld.group_random_unitary(bld.pauli_rep(), [0.25, 0.25, 0.25, np.nan])

    def test_uniform_channel_idempotent(self):
        # the uniform mixture is the conditional expectation onto the commutant
        rep = bld.pauli_rep()
        ch = bld.group_random_unitary(rep, [0.25] * 4)
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = mc.random_density(rng, 2)
            once = apply(ch, rho)
            assert np.max(np.abs(apply(ch, once) - once)) < 1e-9

    def test_uniform_space_is_tro(self):
        rep = bld.pauli_rep()
        ch = bld.group_random_unitary(rep, [0.25] * 4)
        assert alg.is_tro(list(ch.base_space.basis)).ok

    @pytest.mark.parametrize(
        "rep",
        [bld.pauli_rep(), bld.regular_representation(bld.cyclic_group(6)), bld.regular_representation(bld.dihedral_group(3))],
        ids=["pauli", "regular-cyclic6", "regular-dihedral3"],
    )
    def test_kraus_family_is_the_modified_uniform_mixture(self, rep):
        # the channel is V sqrt(f) of the uniform mixture, f = |G| diag(p): Kraus sqrt(p(g)) u(g)
        n, u = rep.group.order, np.stack(rep.unitaries)
        p = np.random.default_rng(n).random(n)
        p[1] = 0.0
        p /= p.sum()
        ch = bld.group_random_unitary(rep, p)
        assert np.max(np.abs(ch.kraus - np.sqrt(p)[:, None, None] * u)) <= 2.3e-16
        assert np.array_equal(ch.base_space.source.kraus, u / np.sqrt(n))
        assert np.array_equal(ch.symbol.f, np.diag(n * p))


def _klein():
    return bld.direct_product(bld.cyclic_group(2), bld.cyclic_group(2))


def _rotated_regular_d4():
    rep = bld.regular_representation(bld.dihedral_group(4))
    w = random_unitary(np.random.default_rng(4), rep.dim)
    return bld.ProjectiveRep(group=rep.group, unitaries=tuple(w @ u @ mc.dagger(w) for u in rep.unitaries))


def _two_qubit_pauli(ancilla: int = 1):
    paulis = bld.pauli_rep().unitaries
    mats = [np.kron(np.kron(a, b), np.eye(ancilla)) for a in paulis for b in paulis]
    return bld.ProjectiveRep.from_unitaries(bld.direct_product(_klein(), _klein()), mats)


def _pauli_plus_pauli():
    mats = [np.kron(I2, u) for u in bld.pauli_rep().unitaries]  # u (+) u
    return bld.ProjectiveRep.from_unitaries(_klein(), mats)


COMMUTANT_REPS = {
    "pauli": bld.pauli_rep,
    "trivial4 Z3": lambda: bld.ProjectiveRep(
        group=bld.cyclic_group(3), unitaries=tuple(np.eye(4, dtype=complex) for _ in range(3))
    ),
    "regular Z2": lambda: bld.regular_representation(bld.cyclic_group(2)),
    "regular Z3": lambda: bld.regular_representation(bld.cyclic_group(3)),
    "regular Z8": lambda: bld.regular_representation(bld.cyclic_group(8)),
    "regular D3": lambda: bld.regular_representation(bld.dihedral_group(3)),
    "regular D4": lambda: bld.regular_representation(bld.dihedral_group(4)),
    "regular D5": lambda: bld.regular_representation(bld.dihedral_group(5)),
    "regular Z2xZ3": lambda: bld.regular_representation(bld.direct_product(bld.cyclic_group(2), bld.cyclic_group(3))),
    "rotated regular D4": _rotated_regular_d4,
    "two-qubit pauli": _two_qubit_pauli,
    "two-qubit pauli (x) 1_2": lambda: _two_qubit_pauli(2),
    "pauli (+) pauli": _pauli_plus_pauli,
}


def _weyl_heisenberg(d):
    """X^a Z^b on C^d over Z_d x Z_d, (a, b) -> a d + b: irreducible, so its commutant is (1, d)."""
    x, z = np.roll(np.eye(d), 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    mats = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) for a in range(d) for b in range(d)]
    return bld.ProjectiveRep.from_unitaries(bld.direct_product(bld.cyclic_group(d), bld.cyclic_group(d)), mats)


def _doubled(rep):
    """rep (x) 1_2: every multiplicity doubled."""
    return bld.ProjectiveRep(group=rep.group, unitaries=tuple(np.kron(u, np.eye(2)) for u in rep.unitaries))


def _regular(make, *args):
    return bld.regular_representation(make(*args))


CHARACTER_REPS = {
    **{f"cyclic({n})": partial(_regular, bld.cyclic_group, n) for n in (1, 2, 5, 12, 32)},
    **{f"dihedral({n})": partial(_regular, bld.dihedral_group, n) for n in (3, 4, 7)},
    "dihedral(3) x cyclic(2)": lambda: _regular(bld.direct_product, bld.dihedral_group(3), bld.cyclic_group(2)),
    "pauli": bld.pauli_rep,
    "weyl-heisenberg(3)": partial(_weyl_heisenberg, 3),
    "weyl-heisenberg(5)": partial(_weyl_heisenberg, 5),
    "dihedral(3) (x) 1_2": lambda: _doubled(bld.regular_representation(bld.dihedral_group(3))),
    "pauli (x) 1_2": lambda: _doubled(bld.pauli_rep()),
}


class TestCommutantBlocks:
    def test_pauli_irreducible(self):
        assert bld.commutant_blocks(bld.pauli_rep()) == [(1, 2)]

    def test_trivial_rep(self):
        g = bld.cyclic_group(3)
        rep = bld.ProjectiveRep(group=g, unitaries=tuple(np.eye(4, dtype=complex) for _ in range(3)))
        assert bld.commutant_blocks(rep) == [(4, 1)]

    def test_regular_rep_z2(self):
        rep = bld.regular_representation(bld.cyclic_group(2))
        assert bld.commutant_blocks(rep) == [(1, 1), (1, 1)]

    @pytest.mark.parametrize("name", sorted(COMMUTANT_REPS))
    def test_matches_the_nullspace_of_the_commutators(self, name):
        rep = COMMUTANT_REPS[name]()
        assert bld.commutant_blocks(rep) == commutant_nullspace_blocks(rep)

    def test_span_is_orthonormalized_once(self, monkeypatch):
        # builders calls no orthonormal_span (its view of algebra raises on one);
        # the unitaries themselves go to algebra_blocks, whose _structure
        # orthonormalizes span u(G) once
        rep = bld.regular_representation(bld.dihedral_group(4))
        want, calls, real = commutant_nullspace_blocks(rep), [], alg.orthonormal_span

        def raising(mats):
            raise AssertionError("commutant_blocks orthonormalized span u(G) itself")

        monkeypatch.setattr(bld, "alg", SimpleNamespace(**{**vars(alg), "orthonormal_span": raising}))
        monkeypatch.setattr(alg, "orthonormal_span", lambda mats: calls.append(mats) or real(mats))
        assert bld.commutant_blocks(rep) == want
        assert len(calls) == 1 and np.array_equal(calls[0], rep.unitaries)

    @pytest.mark.parametrize(
        "group, blocks",
        [
            (lambda: bld.dihedral_group(8), [(1, 1)] * 4 + [(2, 2)] * 3),
            (
                lambda: bld.direct_product(bld.dihedral_group(6), bld.cyclic_group(2)),
                [(1, 1)] * 8 + [(2, 2)] * 4,
            ),
        ],
        ids=["D8", "D6xZ2"],
    )
    def test_regular_rep_without_the_commutator_matrix(self, monkeypatch, group, blocks):
        # each irrep of dimension d appears d times in the regular representation,
        # and no SVD input is as tall as the |G| m^2 rows of the stacked commutators
        rep = bld.regular_representation(group())
        shapes, real_svd = [], np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert bld.commutant_blocks(rep) == blocks
        assert shapes and max(shape[-2] for shape in shapes) <= rep.dim**2

    @pytest.mark.parametrize("name", sorted(CHARACTER_REPS))
    def test_blocks_match_the_characters(self, name):
        # the character oracle reads the isotypic components with no closure and no
        # block attempt; the commutant (the blocks of span u(G)), the uniform
        # mixture's TRO, whose blocks (n, m, l) carry the multiplicity as n and
        # the irrep dimension as l, its left algebra, the commutant itself, and
        # that TRO's exact capacities all agree
        rep = CHARACTER_REPS[name]()
        want = character_blocks(rep, seed=1)
        assert bld.commutant_blocks(rep) == want
        order = rep.group.order
        space = bld.group_random_unitary(rep, [1 / order] * order).base_space
        blocks = alg.tro_block_decomposition(space).blocks
        assert sorted((n, l) for n, _, l in blocks) == want
        assert sorted(alg.algebra_blocks(alg.left_algebra(space).basis)) == want
        report = cap.tro_capacities(blocks)
        assert report.entries["Q"].lower == math.log2(max(m for m, _ in want))
        assert report.entries["C"].lower == math.log2(sum(m for m, _ in want))

    def test_capacities_from_commutant(self):
        blocks = bld.commutant_blocks(bld.pauli_rep())
        rep = cap.tro_capacities(blocks)
        assert rep.entries["Q"].lower == 0.0
        assert rep.entries["C"].lower == 0.0


class TestSchurMultiplier:
    def test_delta_gives_complete_dephasing(self):
        g = bld.cyclic_group(3)
        ch = bld.schur_multiplier_channel(g, [1.0, 0.0, 0.0])
        rng = np.random.default_rng(7)
        rho = mc.random_density(rng, 3)
        assert np.allclose(apply(ch, rho), np.diag(np.diagonal(rho)))

    def test_constant_one_gives_identity(self):
        g = bld.cyclic_group(3)
        ch = bld.schur_multiplier_channel(g, [1.0, 1.0, 1.0])
        rng = np.random.default_rng(8)
        rho = mc.random_density(rng, 3)
        assert np.allclose(apply(ch, rho), rho)

    def test_z2_gives_qubit_dephasing(self):
        ch = bld.schur_multiplier_channel(bld.cyclic_group(2), [1.0, 0.6])
        rho = np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
        expected = np.array([[0.5, 0.6 * (0.2 + 0.1j)], [0.6 * (0.2 - 0.1j), 0.5]])
        assert np.allclose(apply(ch, rho), expected)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            bld.schur_multiplier_channel(bld.cyclic_group(2), [1.0, 1.5])

    def test_slightly_negative_kernel_is_rejected(self):
        # kernel [[1, phi], [phi, 1]] has eigenvalues 1 - phi = -1e-6 and 1 + phi
        with pytest.raises(NotPositiveDefinite, match="not PSD"):
            bld.schur_multiplier_channel(bld.cyclic_group(2), [1.0, 1.0 + 1e-6])

    def test_dephasing_absorbs_multipliers(self):
        g = bld.cyclic_group(3)
        delta = bld.schur_multiplier_channel(g, [1.0, 0.0, 0.0])
        phi = bld.schur_multiplier_channel(g, [1.0, 0.5, 0.5])
        rng = np.random.default_rng(9)
        for _ in range(5):
            rho = mc.random_density(rng, 3)
            lhs = apply(delta, apply(phi, rho))
            rhs = apply(delta, rho)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPhiAlpha:
    def test_alpha_zero_is_diagonal_sum(self):
        bundle = bld.phi_alpha(0.0)
        rng = np.random.default_rng(10)
        rho = mc.random_density(rng, 4)
        out = apply(bundle.channel, rho)
        expected = np.diag([rho[0, 0] + rho[1, 1], rho[2, 2], rho[3, 3]])
        assert np.allclose(out, expected)

    def test_matrix_display_entrywise(self):
        alpha = 0.37
        bundle = bld.phi_alpha(alpha)
        rng = np.random.default_rng(11)
        a = mc.hermitize(mc.random_complex(rng, (4, 4)))
        out = apply(bundle.channel, a)
        expected = np.array(
            [
                [a[0, 0] + a[1, 1], alpha * a[0, 2], alpha * a[1, 3]],
                [alpha * a[2, 0], a[2, 2], 0.0],
                [alpha * a[3, 1], 0.0, a[3, 3]],
            ]
        )
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_symbol_spectrum_and_defect(self):
        for alpha in (0.0, 0.5, 1.0):
            bundle = bld.phi_alpha(alpha)
            w = np.sort(np.linalg.eigvalsh(bundle.symbol.f))
            assert np.allclose(w, [1 - alpha, 1 - alpha, 1 + alpha, 1 + alpha])
            assert entropy_defect(bundle.symbol) == pytest.approx(
                1.0 - binary_entropy((1.0 + alpha) / 2.0), abs=1e-12
            )

    def test_block_inputs_implement_qubit_dephasing(self):
        alpha = 0.73
        bundle = bld.phi_alpha(alpha)
        rng = np.random.default_rng(12)
        q = mc.random_density(rng, 2)  # qubit input
        for block, rows in ((0, (0, 2)), (1, (1, 3))):
            rho = np.zeros((4, 4), dtype=complex)
            for i, ri in enumerate(rows):
                for j, rj in enumerate(rows):
                    rho[ri, rj] = q[i, j]
            out = apply(bundle.channel, rho)
            dephased = np.array([[q[0, 0], alpha * q[0, 1]], [alpha * q[1, 0], q[1, 1]]])
            # the embedded qubit sits in output rows (0, block+1)
            idx = (0, block + 1)
            embedded = out[np.ix_(idx, idx)]
            assert np.max(np.abs(embedded - dephased)) < 1e-12
            mask = np.ones((3, 3), dtype=bool)
            mask[np.ix_(idx, idx)] = False
            assert np.max(np.abs(out[mask])) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            bld.phi_alpha(1.2)

    def test_base_space_is_tro(self):
        bundle = bld.phi_alpha(0.0)
        assert alg.is_tro(list(bundle.space.basis)).ok


class TestChannelInvariants:
    def test_all_builders_trace_preserving(self):
        rng = np.random.default_rng(13)
        channels = [
            bld.partial_trace_sum_channel([(2, 2), (1, 3)]),
            bld.group_random_unitary(bld.pauli_rep(), [0.4, 0.3, 0.2, 0.1]),
            bld.schur_multiplier_channel(bld.cyclic_group(2), [1.0, 0.3]),
            bld.phi_alpha(0.8).channel,
        ]
        for ch in channels:
            rho = mc.random_density(rng, ch.dim_in)
            out = apply(ch, rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
            assert float(np.min(np.linalg.eigvalsh(mc.hermitize(out)))) >= -1e-10


# ---------------------------------------------------------------------------
# the table-built constructions against element-by-element loops


def loop_direct_product(a, b):
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
    return table, cocycle


def loop_dihedral_table(n):
    table = np.zeros((2 * n, 2 * n), dtype=int)
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    table[j1 * n + i1, j2 * n + i2] = (j1 + j2) % 2 * n + i
    return table


def loop_regular_unitaries(group):
    n = group.order
    mats = []
    for g in range(n):
        u = np.zeros((n, n), dtype=complex)
        for h in range(n):
            u[group.mul(g, h), h] = 1.0
        mats.append(u)
    return np.array(mats)


def loop_partial_trace_kraus(blocks):
    d_in, d_out, d_env = sum(n * m for n, m in blocks), sum(n for n, _ in blocks), sum(m for _, m in blocks)
    kraus = np.zeros((d_env, d_out, d_in), dtype=complex)
    off_in = off_out = off_env = 0
    for n, m in blocks:
        for s in range(m):
            for a in range(n):
                kraus[off_env + s, off_out + a, off_in + a * m + s] = 1.0
        off_in, off_out, off_env = off_in + n * m, off_out + n, off_env + m
    return kraus


def loop_first_failure(group, mats):
    """First (g, h), row-major, with u(g) u(h) != cocycle(g, h) u(gh)."""
    t, c = group.table, group.cocycle
    for g in range(group.order):
        for h in range(group.order):
            if not np.max(np.abs(mats[g] @ mats[h] - c[g, h] * mats[t[g, h]])) <= 1e-10:
                return g, h
    return None


class TestTableConstructionsMatchLoops:
    @pytest.mark.parametrize(
        "a, b",
        [
            (bld.cyclic_group(2), bld.cyclic_group(3)),
            (bld.pauli_rep().group, bld.cyclic_group(2)),
            (bld.dihedral_group(3), bld.pauli_rep().group),
        ],
        ids=["c2xc3", "klein_cocycle_x_c2", "d3xklein_cocycle"],
    )
    def test_direct_product(self, a, b):
        table, cocycle = loop_direct_product(a, b)
        g = bld.direct_product(a, b)
        assert np.array_equal(g.table, table) and np.array_equal(g.cocycle, cocycle)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dihedral(self, n):
        assert np.array_equal(bld.dihedral_group(n).table, loop_dihedral_table(n))

    @pytest.mark.parametrize("group", [bld.cyclic_group(5), bld.dihedral_group(3)], ids=["c5", "d3"])
    def test_regular_representation(self, group):
        assert np.array_equal(bld.regular_representation(group).unitaries, loop_regular_unitaries(group))

    @pytest.mark.parametrize("blocks", [[(1, 1)], [(2, 3)], [(2, 2), (3, 1)], [(1, 2), (1, 1), (1, 1)]])
    def test_partial_trace_sum(self, blocks):
        kraus = bld.partial_trace_sum_channel(blocks).kraus
        assert np.array_equal(kraus, loop_partial_trace_kraus(blocks))

    @pytest.mark.parametrize("corrupt", [(1, 1.0j), (2, -1.0), (3, 1.0j)])
    def test_corrupted_rep_names_first_failing_pair(self, corrupt, chunking):
        # one unitary of the regular representation of D3 scaled by a phase
        group = bld.dihedral_group(3)
        mats = list(loop_regular_unitaries(group))
        k, phase = corrupt
        mats[k] = phase * mats[k]
        g, h = loop_first_failure(group, mats)
        with pytest.raises(DimMismatch) as err:
            bld.ProjectiveRep(group=group, unitaries=tuple(mats))
        assert str(err.value) == f"u({g}) u({h}) != cocycle * u({g}{h})"

    def test_phase_failure_names_first_pair(self, chunking):
        # u(1) of a Z3 representation that does not close: the first bad product is u(1) u(1)
        u1 = np.diag([1.0, 1.0j, 1.0]).astype(complex)
        u2 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        with pytest.raises(DimMismatch, match=r"products of u\(1\), u\(1\) do not project onto u\(2\)"):
            bld.ProjectiveRep.from_unitaries(bld.cyclic_group(3), [np.eye(3), u1, u2])

    def test_wrong_count_or_shape_is_a_dim_mismatch(self):
        with pytest.raises(DimMismatch, match="one unitary per group element"):
            bld.ProjectiveRep.from_unitaries(bld.cyclic_group(2), [I2, Z, I2])
        with pytest.raises(DimMismatch, match="must be unitary"):
            bld.ProjectiveRep.from_unitaries(bld.cyclic_group(2), [I2, np.eye(3)])
