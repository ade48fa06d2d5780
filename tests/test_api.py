"""The fixed contracts of the package, pinned as literals: the names that
trocap/__init__.py exports with the signature of each, every subcommand's
arguments (option strings, default and choices) as cli.build_parser() builds
them, and the exception type that each public entry point raises on a
malformed argument.  A change to any of them is a change of contract and
fails here."""

import argparse
import inspect
import math

import numpy as np
import pytest

import trocap
from trocap import algebra as alg
from trocap import builders as bld
from trocap import capacity as cap
from trocap import channel as chn
from trocap import cli
from trocap import matcore as mc
from trocap.errors import BadExponent, DimMismatch, InvalidSymbol, NotPositiveDefinite, OutOfRange

EXPORTS = {  # name: str(inspect.signature(...))
    "AlgebraBasis": "(dim: 'int', basis: 'tuple[np.ndarray, ...]', unital: 'bool') -> None",
    "BoundEntry": "(lower: 'float', upper: 'float', provenance: 'str') -> None",
    "BoundReport": "(entries: 'dict[str, BoundEntry]' = <factory>) -> None",
    "Channel": (
        '(kraus: \'np.ndarray\', base_space: "Optional[\'StinespringSpace\']" = None, '
        'symbol: "Optional[\'Symbol\']" = None) -> None'
    ),
    "StinespringSpace": (
        "(basis: 'tuple[np.ndarray, ...]', dim_out: 'int', dim_env: 'int', "
        "source: 'Optional[Channel]' = None) -> None"
    ),
    "Symbol": "(f: 'np.ndarray', certificate: 'SymbolCertificate') -> None",
    "SymbolCertificate": (
        "(blocks: 'tuple[tuple[int, int, int], ...]', residuals: 'tuple[float, ...]', "
        "right_algebra_dim: 'int', tro_dim: 'int', space_is_tro: 'bool', "
        'decomposition: "\'TroDecomposition\'") -> None'
    ),
    "TroDecomposition": (
        "(blocks: 'tuple[tuple[int, int, int], ...]', basis_change_out: 'np.ndarray', "
        "basis_change_env: 'np.ndarray') -> None"
    ),
    "VerificationReport": (
        "(check_id: 'str', samples: 'int', seed: 'int', tolerance: 'float', worst_slack: 'float' = inf, "
        "failures: 'list[tuple[str, str, float]]' = <factory>) -> None"
    ),
    "apply": "(ch: 'Channel', rho: 'np.ndarray') -> 'np.ndarray'",
    "base_channel": "(space: 'StinespringSpace') -> 'Channel'",
    "binary_entropy": "(lam: 'float') -> 'float'",
    "choi": "(ch: 'Channel') -> 'np.ndarray'",
    "coherent_information": "(rho_ab: 'np.ndarray', dims: 'tuple[int, int]') -> 'float'",
    "comparison_bounds": "(space: 'StinespringSpace', symbol: 'Symbol') -> 'BoundReport'",
    "complement_apply": "(ch: 'Channel', rho: 'np.ndarray') -> 'np.ndarray'",
    "conditional_expectation": "(m: 'AlgebraBasis', x: 'np.ndarray') -> 'np.ndarray'",
    "conditional_renyi": (
        "(rho_ab: 'np.ndarray', dims: 'tuple[int, int]', p: 'float', seed: 'int' = 0, "
        "project: 'Optional[Callable[[np.ndarray], np.ndarray]]' = None, "
        "sigma_candidates: 'tuple[np.ndarray, ...]' = ()) -> 'ConditionalRenyi'"
    ),
    "cqe_region_vertices": "(blocks: 'Sequence', lam: 'float', mu: 'float') -> 'RegionVertex'",
    "entropy_defect": "(f) -> 'float'",
    "fidelity_bound": "(m: 'int', q1p: 'float', p: 'float') -> 'float'",
    "from_kraus": "(kraus) -> 'Channel'",
    "generate_star_algebra": "(generators: 'Sequence[np.ndarray]') -> 'AlgebraBasis'",
    "heralded_channel": "(a: 'Channel', b: 'Channel', lam: 'float') -> 'Channel'",
    "herm_eig": "(a: 'np.ndarray', tol: 'float' = 1e-12) -> 'HermEig'",
    "identity_channel": "(dim: 'int') -> 'Channel'",
    "identity_symbol": "(ch: 'Channel', seed: 'int' = 0) -> 'Symbol'",
    "is_independent": "(x: 'np.ndarray', m: 'AlgebraBasis', tol: 'float' = 1e-09) -> 'bool'",
    "is_strongly_independent": "(f: 'np.ndarray', m: 'AlgebraBasis', tol: 'float' = 1e-09) -> 'bool'",
    "is_tro": "(mats: 'Sequence[np.ndarray]', tol: 'float' = 1e-08) -> 'TroCheck'",
    "left_algebra": "(space: 'StinespringSpace') -> 'AlgebraBasis'",
    "matrix_log2": "(a: 'np.ndarray') -> 'np.ndarray'",
    "matrix_power": "(a: 'np.ndarray', alpha: 'float') -> 'np.ndarray'",
    "modified_channel": "(space: 'StinespringSpace', symbol: 'Symbol') -> 'Channel'",
    "mutual_information": "(rho_ab: 'np.ndarray', dims: 'tuple[int, int]') -> 'float'",
    "negative_cb_entropy": (
        "(ch: 'Channel', mode: 'str' = 'formula', restarts: 'int' = 32, seed: 'int' = 0, "
        "max_workers: 'int' = 1) -> 'float'"
    ),
    "normalized_p_norm": "(f: 'np.ndarray', p: 'float') -> 'float'",
    "one_shot_q": (
        "(ch: 'Channel', restarts: 'int' = 32, seed: 'int' = 0, "
        "init_states: 'Optional[Sequence[np.ndarray]]' = None, max_workers: 'int' = 1, "
        "ceiling: 'Optional[float]' = None) -> 'AscentResult'"
    ),
    "partial_trace": "(m: 'np.ndarray', dims: 'tuple[int, int]', keep: 'str') -> 'np.ndarray'",
    "permute_systems": "(m: 'np.ndarray', dims: 'tuple[int, ...]', perm: 'tuple[int, ...]') -> 'np.ndarray'",
    "relative_entropy": "(rho: 'np.ndarray', sigma: 'np.ndarray') -> 'float'",
    "renyi_coherent_channel": (
        "(ch: 'Channel', p: 'float', restarts: 'int' = 4, seed: 'int' = 0, "
        "init_states: 'Optional[Sequence[np.ndarray]]' = None) -> 'float'"
    ),
    "renyi_coherent_information": (
        "(rho_ab: 'np.ndarray', dims: 'tuple[int, int]', p: 'float', seed: 'int' = 0, "
        "sigma_candidates: 'tuple[np.ndarray, ...]' = ()) -> 'float'"
    ),
    "renyi_mutual_information": (
        "(rho_ab: 'np.ndarray', dims: 'tuple[int, int]', p: 'float', seed: 'int' = 0, "
        "sigma_candidates: 'tuple[np.ndarray, ...]' = ()) -> 'float'"
    ),
    "right_algebra": "(space: 'StinespringSpace') -> 'AlgebraBasis'",
    "rps_region_vertices": "(blocks: 'Sequence', lam: 'float', mu: 'float') -> 'RegionVertex'",
    "s1_sp_norm": "(rho_ab: 'np.ndarray', dims: 'tuple[int, int]', p: 'float', seed: 'int' = 0) -> 'float'",
    "sandwiched_renyi": "(rho: 'np.ndarray', sigma: 'np.ndarray', p: 'float') -> 'float'",
    "schatten_norm": "(a: 'np.ndarray', p: 'float') -> 'float | np.ndarray'",
    "smallest_containing_tro": "(mats: 'Sequence[np.ndarray]') -> 'list[np.ndarray]'",
    "stinespring_space": "(ch: 'Channel', tol: 'float' = 1e-10) -> 'StinespringSpace'",
    "tensor": "(a: 'np.ndarray', b: 'np.ndarray') -> 'np.ndarray'",
    "tensor_channels": "(a: 'Channel', b: 'Channel') -> 'Channel'",
    "tro_block_decomposition": "(space, seed: 'int' = 0, tol: 'float' = 1e-08) -> 'TroDecomposition'",
    "tro_capacities": "(blocks: 'Sequence') -> 'BoundReport'",
    "validate_symbol": "(ch: 'Channel', f: 'np.ndarray', seed: 'int' = 0, tol: 'float' = 1e-09) -> 'Symbol'",
    "verify_entropic": (
        "(space: 'StinespringSpace', symbol: 'Symbol', samples: 'int' = 50, seed: 'int' = 0, "
        "ps: 'tuple[float, ...]' = (1.5, 2.0), tolerance: 'float' = 1e-07, "
        "renyi: 'bool' = True) -> 'VerificationReport'"
    ),
    "verify_local_comparison": (
        "(space: 'StinespringSpace', symbol: 'Symbol', samples: 'int' = 100, seed: 'int' = 0, "
        "ps: 'tuple[float, ...]' = (1.3, 2.0, 4.0, inf), tolerance: 'float' = 1e-09) -> 'VerificationReport'"
    ),
    "verify_tensor_symbol": (
        "(space_a: 'StinespringSpace', symbol_a: 'Symbol', space_b: 'StinespringSpace', symbol_b: 'Symbol', "
        "samples: 'int' = 20, seed: 'int' = 0, tolerance: 'float' = 1e-09) -> 'VerificationReport'"
    ),
    "von_neumann_entropy": "(rho: 'np.ndarray', check: 'bool' = True) -> 'float'",
}

OPTIONS = {  # subcommand: [(option strings, or the positional"s dest), default, choices]
    "bounds": [
        (("spec",), None, None),
        (("--seed",), None, None),
        (("--csv",), None, None),
        (("--restarts",), 32, None),
        (("--threads",), 1, None),
    ],
    "verify": [
        (("spec",), None, None),
        (("--seed",), None, None),
        (("--suite",), "all", ("local_comparison", "entropic", "tensor_symbol", "all")),
        (("--samples",), 50, None),
        (("--out",), None, None),
    ],
    "region": [
        (("spec",), None, None),
        (("--seed",), None, None),
        (("--lambda-grid",), "0:1:0.25", None),
        (("--mu-grid",), "0:1:0.25", None),
        (("--csv",), None, None),
    ],
    "describe": [
        (("spec",), None, None),
        (("--seed",), None, None),
    ],
}


def test_exports_and_their_signatures():
    exported = {name: value for name, value in vars(trocap).items() if not name.startswith("_")}
    names = sorted(name for name, value in exported.items() if not inspect.ismodule(value))
    assert names == sorted(EXPORTS)
    assert {name: str(inspect.signature(exported[name])) for name in names} == EXPORTS


def test_subcommand_arguments():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [
            (tuple(a.option_strings) or (a.dest,), a.default, a.choices)
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS


def _dephasing():
    return bld.qubit_dephasing(0.5)


def _blocks_space():  # environment of dimension 3, where the dephasing symbol has 2
    return chn.stinespring_space(bld.partial_trace_sum_channel([(2, 2), (3, 1)]))


MALFORMED = {  # id: (call, exception type, message fragment)
    "star-algebra-no-generators": (lambda: alg.generate_star_algebra([]), DimMismatch, "at least one generator"),
    "star-algebra-non-square": (lambda: alg.generate_star_algebra([np.ones((2, 3))]), DimMismatch, "must be square"),
    "conditional-expectation-shape": (
        lambda: alg.conditional_expectation(alg.generate_star_algebra([np.eye(2)]), np.ones((3, 3))),
        DimMismatch,
        "does not match algebra dim",
    ),
    "validate-symbol-dim": (lambda: alg.validate_symbol(_dephasing(), np.eye(3) / 3), DimMismatch, "symbol dim 3"),
    "group-cocycle-shape": (
        lambda: bld.FiniteGroup(table=np.array([[0, 1], [1, 0]]), cocycle=np.ones((3, 3))),
        DimMismatch,
        "cocycle must match",
    ),
    "schur-phi-length": (
        lambda: bld.schur_multiplier_channel(bld.cyclic_group(3), [1.0, 0.5]),
        DimMismatch,
        "one value per group element",
    ),
    "schur-kernel-not-hermitian": (
        lambda: bld.schur_multiplier_channel(bld.cyclic_group(3), [1.0, 0.5, 0.2]),
        NotPositiveDefinite,
        "not PSD",
    ),
    "schur-phi-nan": (
        lambda: bld.schur_multiplier_channel(bld.cyclic_group(3), [1.0, math.nan, 0.3]),
        NotPositiveDefinite,
        "not PSD",
    ),
    "schur-phi-inf": (
        lambda: bld.schur_multiplier_channel(bld.cyclic_group(3), [1.0, math.inf, math.inf]),
        NotPositiveDefinite,
        "not PSD",
    ),
    "dephasing-weight": (lambda: bld.qubit_dephasing(1.5), OutOfRange, "must lie in"),
    "report-unknown-quantity": (lambda: cap.BoundReport().set("X", 0.0, 1.0, "p"), KeyError, "unknown quantity"),
    "comparison-bounds-symbol-dim": (
        lambda: cap.comparison_bounds(_blocks_space(), _dephasing().symbol),
        InvalidSymbol,
        "symbol dim 2",
    ),
    "negative-cb-mode": (lambda: cap.negative_cb_entropy(_dephasing(), mode="x"), OutOfRange, "mode must be"),
    "channel-2d-kraus": (lambda: chn.Channel(np.eye(2)), DimMismatch, "stacked"),
    "from-kraus-empty": (lambda: chn.from_kraus([]), DimMismatch, "at least one Kraus"),
    "from-kraus-shapes": (lambda: chn.from_kraus([np.eye(2), np.eye(3)]), DimMismatch, "common shape"),
    "modified-channel-symbol-dim": (
        lambda: chn.modified_channel(_blocks_space(), _dephasing().symbol),
        InvalidSymbol,
        "symbol dimension 2",
    ),
    "heralded-probability": (
        lambda: chn.heralded_channel(_dephasing(), _dephasing(), 1.5),
        OutOfRange,
        r"must lie in \[0, 1\]",
    ),
    "asmatrix-3d": (lambda: mc.asmatrix(np.ones((2, 2, 2))), DimMismatch, "ndim=3"),
    "matrix-power-infinite": (lambda: mc.matrix_power(np.eye(2), math.inf), BadExponent, "must be finite"),
    "p-norm-non-square": (lambda: mc.normalized_p_norm(np.ones((2, 3)), 2), DimMismatch, "square"),
    "partial-trace-keep": (lambda: mc.partial_trace(np.eye(4), (2, 2), keep="C"), DimMismatch, "keep must be"),
    "permute-shape": (lambda: mc.permute_systems(np.eye(4), (2, 3), (1, 0)), DimMismatch, "does not match dims"),
    "permute-not-a-permutation": (
        lambda: mc.permute_systems(np.eye(4), (2, 2), (0, 0)),
        DimMismatch,
        "not a permutation",
    ),
}


@pytest.mark.parametrize(("call", "error", "fragment"), MALFORMED.values(), ids=MALFORMED)
def test_malformed_argument_raises_its_error(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
